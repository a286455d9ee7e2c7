"""Single-pair kernel references for tests: the solver evaluates whole blocks
(qpgreens.ge_split, qpgreens.kernel_block) and differences assembled
operators (dirac.compute_coefficients) instead."""

import numpy as np

from diracwg.errors import DomainError, KernelError
from diracwg.qpgreens import LOG_COEFF, KernelParams, _as_points, eval_Ge, ge_split

SPLIT_RADIUS = 0.1


def eval_Ge_split(x, y, params: KernelParams):
    """Near-diagonal split G = log_coeff * log|x-y| + smooth at one pair.

    Only admits |x - y| < SPLIT_RADIUS; farther pairs must use eval_Ge.
    Returns (log_coeff, smooth_part).
    """
    params.check_guard()
    xp = _as_points(x)[0]
    yp = _as_points(y)[0]
    r = np.hypot(xp[0] - yp[0], xp[1] - yp[1])
    if r >= SPLIT_RADIUS:
        raise DomainError(
            f"|x-y|={r:.3f} outside the split radius {SPLIT_RADIUS}; use eval_Ge"
        )
    _, smooth = ge_split(
        np.array([xp[0] - yp[0]]),
        np.array([abs(xp[1] - yp[1])]),
        np.array([xp[1] + yp[1]]),
        params.p, params.lam, params.split_head,
    )
    return LOG_COEFF, complex(smooth[0])


def kernel_derivative(which: str, x, y, params: KernelParams, step: float) -> complex:
    """Central-difference derivative of the kernel in p or lambda."""
    if not 1e-6 <= step <= 1e-3:
        raise KernelError(f"step must lie in [1e-6, 1e-3], got {step}")
    if which == "dP":
        hi = KernelParams(params.p + step, params.lam, params.m_trunc)
        lo = KernelParams(params.p - step, params.lam, params.m_trunc)
    elif which == "dLambda":
        hi = KernelParams(params.p, params.lam + step, params.m_trunc)
        lo = KernelParams(params.p, params.lam - step, params.m_trunc)
    else:
        raise KernelError(f"unknown derivative direction {which!r}")
    return (eval_Ge(x, y, hi) - eval_Ge(x, y, lo)) / (2 * step)
