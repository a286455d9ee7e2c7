"""Single-pair kernel references for tests: the solver evaluates whole blocks
at every momentum of one lam (qpgreens.ge_split, qpgreens.eval_Ge_uvts,
qpgreens.kernel_blocks) and differences assembled operators
(dirac.compute_coefficients) instead."""

import numpy as np

from diracwg.errors import DomainError, KernelError
from diracwg.qpgreens import LOG_COEFF, KernelParams, _as_points, eval_Ge_uvts, ge_split

SPLIT_RADIUS = 0.1


def _transverse_factor(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """F(a) = (e^{-s a} + e^{-s(1-a)}) / (2 s (1 - e^{-s})); even in s."""
    es = np.exp(-s)
    return (np.exp(-s * a) + np.exp(-s * (1.0 - a))) / (2.0 * s * (1.0 - es))


def ge_msum(u, t1, t2, p: float, lam, m_max: int) -> np.ndarray:
    """Axial-image sum truncated at |m| <= m_max (a test reference: the
    solver sums its split head as per-mode rank-one products,
    qpgreens._SplitPlan.head).

    ``u`` is x1-y1, ``t1`` is |x2-y2|, ``t2`` is x2+y2 (arrays broadcast
    together).  Accurate when the transverse gaps are bounded away from 0.
    """
    u = np.asarray(u, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    out = np.zeros(np.broadcast(u, t1, t2).shape, dtype=complex)
    m = np.arange(-m_max, m_max + 1)
    for block in np.array_split(m, max(1, len(m) // 128)):
        pm = p + 2 * np.pi * block
        s = np.sqrt(pm**2 - lam + 0j)
        ph = np.exp(1j * np.multiply.outer(u, pm))
        fa = _transverse_factor(s, t1[..., None])
        fb = _transverse_factor(s, t2[..., None])
        out -= np.sum(ph * (fa + fb), axis=-1)
    return out


def eval_Ge_many(x, y, p: float, lam, params: KernelParams) -> np.ndarray:
    """The kernel at the point pairs (x_i, y_i), (K, 2) each, through the
    router at one momentum, guard checked."""
    params.check_guard(p, lam)
    x = _as_points(x)
    y = _as_points(y)
    if x.shape != y.shape:
        raise DomainError("point arrays must have matching shapes")
    return eval_Ge_uvts(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1], x[:, 1] + y[:, 1], p, lam, params)


def eval_Ge(x, y, p: float, lam, params: KernelParams) -> complex:
    """The kernel at a single point pair, guard checked."""
    return complex(eval_Ge_many(x, y, p, lam, params)[0])


def eval_Ge_split(x, y, p: float, lam, params: KernelParams):
    """Near-diagonal split G = log_coeff * log|x-y| + smooth at one pair.

    Only admits |x - y| < SPLIT_RADIUS; farther pairs must use eval_Ge.
    Returns (log_coeff, smooth_part).
    """
    params.check_guard(p, lam)
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
        p, lam, params.split_head,
    )
    return LOG_COEFF, complex(smooth[0])


def kernel_derivative(which: str, x, y, p: float, lam, params: KernelParams,
                      step: float) -> complex:
    """Central-difference derivative of the kernel in p or lambda."""
    if not 1e-6 <= step <= 1e-3:
        raise KernelError(f"step must lie in [1e-6, 1e-3], got {step}")
    if which == "dP":
        hi, lo = (p + step, lam), (p - step, lam)
    elif which == "dLambda":
        hi, lo = (p, lam + step), (p, lam - step)
    else:
        raise KernelError(f"unknown derivative direction {which!r}")
    return (eval_Ge(x, y, *hi, params) - eval_Ge(x, y, *lo, params)) / (2 * step)
