"""Nystrom discretization of the two-obstacle single-layer operator.

The Bloch eigenvalue problem in the dimerized cell is equivalent to a
homogeneous first-kind system over the two obstacle boundaries: with
cell centers c1 = (1/4 - delta, 1/4), c2 = (3/4 + delta, 1/4), the block
operator acting on density pairs (phi1, phi2) on the reference boundary
is

    T(p, lam, delta)[i, j] : phi |-> int G^e(x + c_i, y + c_j; p, lam) phi(y) dsigma(y),

and nontrivial null densities reproduce Bloch modes of the obstacle-lined
guide through the single-layer representation.

Diagonal blocks carry the (1/2pi) log singularity and are quadratured
with the Martensen/Kress spectral log rule on the periodic angle
parameter; off-diagonal blocks are smooth and use the plain trapezoid
rule.  Matrices are stored as Nystrom action maps (nodal density values
to nodal field values); singular values and null vectors are taken in
the arc-length-weighted metric, which is the discrete surrogate for the
H^{-1/2} x H^{1/2} duality of the continuous problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import AssemblyError, DomainError, LinearAlgebraError, NoKernelError
from .geometry import CENTER_HEIGHT, ObstacleShape, _radius, pair_centers
from .qpgreens import (
    LOG_COEFF,
    KernelParams,
    eval_Ge_uvt,
    ge_split,
    split_static,
)

NUMERICAL_ZERO_FACTOR = 1e-13  # singular values below this x sigma_max are zeros
KERNEL_THRESHOLD_FACTOR = 1e-4


@dataclass
class DensityPair:
    """Complex densities on the two obstacle boundaries, pulled back to one curve."""

    phi1: np.ndarray
    phi2: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.phi1, self.phi2])

    @staticmethod
    def from_stacked(vec: np.ndarray) -> "DensityPair":
        n = len(vec) // 2
        return DensityPair(phi1=vec[:n].copy(), phi2=vec[n:].copy())


@dataclass
class OperatorMatrix:
    """Discretized block operator; ``entries`` maps nodal values to nodal values."""

    entries: np.ndarray          # (2N, 2N) complex Nystrom action
    p: float
    lam: float
    delta: float
    weights: np.ndarray          # (2N,) arc-length weights
    n_nodes: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise AssemblyError("non-finite entries in assembled operator")

    def weighted(self) -> np.ndarray:
        sq = np.sqrt(self.weights)
        return sq[:, None] * self.entries / sq[None, :]


@lru_cache(maxsize=8)
def _kress_log_matrix(n_nodes: int) -> np.ndarray:
    """Quadrature weights R_ab for the kernel ln(4 sin^2((t_a - t_b)/2)).

    Periodic trapezoid nodes t_j = 2 pi j / N, N even; spectrally accurate
    for analytic densities.
    """
    N = n_nodes
    t = 2 * np.pi * np.arange(N) / N
    dt = t[:, None] - t[None, :]
    m = np.arange(1, N // 2)
    R = -(4 * np.pi / N) * np.sum(np.cos(np.multiply.outer(dt, m)) / m, axis=-1)
    R -= (4 * np.pi / N**2) * np.cos((N // 2) * dt)
    return R


_STATIC_CACHE: dict = {}
_STATIC_CACHE_MAX = 512


def _shape_token(shape: ObstacleShape):
    return (shape.n_nodes, shape.fourier_cos_coeffs)


def _cached_split_static(key, u, t1, t2, p, m_head):
    # ge_split folds momenta beyond pi through conjugation; the static part
    # is built (and keyed) at the folded momentum so both sides share it
    p_fold = float(p) if float(p) <= np.pi else 2 * np.pi - float(p)
    full_key = (key, round(p_fold, 12), m_head)
    hit = _STATIC_CACHE.get(full_key)
    if hit is None:
        hit = split_static(u, t1, t2, p_fold, m_head)
        if len(_STATIC_CACHE) >= _STATIC_CACHE_MAX:
            _STATIC_CACHE.pop(next(iter(_STATIC_CACHE)))
        _STATIC_CACHE[full_key] = hit
    return hit


def _diag_block(shape: ObstacleShape, params: KernelParams) -> np.ndarray:
    """Self-interaction Nystrom block (same for both obstacles).

    Splits the kernel into (1/4pi) ln(4 sin^2((t-s)/2)) handled by the
    Kress rule and a periodic-smooth remainder handled by the trapezoid.
    For real spectral parameter the kernel is Hermitian under argument
    swap, so only the upper triangle is evaluated.
    """
    nodes = shape.nodes
    N = shape.n_nodes
    u = nodes[:, 0][:, None] - nodes[:, 0][None, :]
    dx2 = nodes[:, 1][:, None] - nodes[:, 1][None, :]
    t2 = nodes[:, 1][:, None] + nodes[:, 1][None, :] + 2 * CENTER_HEIGHT

    m_head = max(params.m_trunc, 256)
    smooth = np.empty((N, N), dtype=complex)
    if np.isrealobj(params.lam) or np.imag(params.lam) == 0:
        ia, ib = np.triu_indices(N)
        static = _cached_split_static(
            ("diag", _shape_token(shape)),
            u[ia, ib], np.abs(dx2[ia, ib]), t2[ia, ib], params.p, m_head,
        )
        _, sm = ge_split(u[ia, ib], np.abs(dx2[ia, ib]), t2[ia, ib],
                         params.p, float(np.real(params.lam)), m_head, static=static)
        smooth[ia, ib] = sm
        smooth[ib, ia] = np.conj(sm)
    else:
        _, sm = ge_split(u.ravel(), np.abs(dx2).ravel(), t2.ravel(),
                         params.p, params.lam, m_head)
        smooth = sm.reshape(N, N)

    # The local singular structure is (1/2pi) J0(sqrt(lam) r) ln r + analytic,
    # so the Bessel factor rides with the Kress kernel; a constant coefficient
    # would leave a C^1 remainder r^2 ln r and stall the quadrature near 1e-6.
    dt = shape.thetas[:, None] - shape.thetas[None, :]
    sin2 = 4 * np.sin(dt / 2.0) ** 2
    r2 = u**2 + dx2**2
    r = np.sqrt(r2)
    j0 = special.jv(0, np.sqrt(complex(params.lam)) * r)
    ratio = np.where(sin2 > 0, r2 / np.where(sin2 > 0, sin2, 1.0), 1.0)
    np.fill_diagonal(ratio, shape.speeds**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        logr = np.where(r > 0, np.log(np.where(r > 0, r, 1.0)), 0.0)
    k2 = (smooth - LOG_COEFF * (j0 - 1.0) * logr
          + 0.5 * LOG_COEFF * j0 * np.log(ratio))

    R = _kress_log_matrix(N)
    action = (0.5 * LOG_COEFF * j0 * R + (2 * np.pi / N) * k2) * shape.speeds[None, :]
    return action


def _off_block(shift: float, shape: ObstacleShape, params: KernelParams) -> np.ndarray:
    """Smooth cross-interaction block: kernel G^e(x, y + shift e1)."""
    nodes = shape.nodes
    N = shape.n_nodes
    u = nodes[:, 0][:, None] - nodes[:, 0][None, :] - shift
    dx2 = nodes[:, 1][:, None] - nodes[:, 1][None, :]
    t2 = nodes[:, 1][:, None] + nodes[:, 1][None, :] + 2 * CENTER_HEIGHT
    vals = eval_Ge_uvt(u.ravel(), dx2.ravel(), t2.ravel(), params, check=False)
    return vals.reshape(N, N) * shape.weights[None, :]


def assemble_T(
    p: float,
    lam: float,
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
) -> OperatorMatrix:
    """Assemble the 2N x 2N dimerized block operator at (p, lam, delta).

    The off-diagonal blocks encode the intra-pair spacing 1/2 + 2 delta
    and its Floquet-wrapped complement 1/2 - 2 delta.
    """
    prm = replace(params, p=p, lam=lam)
    prm.check_guard()
    n = shape.n_nodes

    A = _diag_block(shape, prm)
    # T12: y shifted by +(1/2 + 2 delta); T21: x shifted the same way,
    # equivalently e^{ip} times a y-shift of (1/2 - 2 delta)
    B12 = _off_block(0.5 + 2 * delta, shape, prm)
    if delta == 0:
        B21 = np.exp(1j * p) * B12
    else:
        B21 = np.exp(1j * p) * _off_block(0.5 - 2 * delta, shape, prm)

    Q = np.empty((2 * n, 2 * n), dtype=complex)
    Q[:n, :n] = A
    Q[n:, n:] = A
    Q[:n, n:] = B12
    Q[n:, :n] = B21
    weights = np.concatenate([shape.weights, shape.weights])
    return OperatorMatrix(entries=Q, p=p, lam=lam, delta=delta,
                          weights=weights, n_nodes=n)


def assemble_half(
    p: float,
    lam: float,
    branch: int,
    shape: ObstacleShape,
    params: KernelParams,
):
    """Reduced operator of the period-1/2 structure on one translation branch.

    The half-cell translation commutes with the undimerized operator; on
    the eigenspace (phi, nu phi) with nu = branch * e^{ip/2} the block
    system reduces to the N x N operator A + nu B.  Returns (action,
    weights).  branch = +1 carries the e^{ip/2} quasi-periodicity of the
    physical half-cell Bloch mode.
    """
    if branch not in (+1, -1):
        raise AssemblyError("branch must be +1 or -1")
    prm = replace(params, p=p, lam=lam)
    prm.check_guard()
    A = _diag_block(shape, prm)
    B = _off_block(0.5, shape, prm)
    nu = branch * np.exp(0.5j * p)
    return A + nu * B, shape.weights


def weighted_svd(action: np.ndarray, weights: np.ndarray):
    sq = np.sqrt(weights)
    mat = sq[:, None] * action / sq[None, :]
    try:
        u, s, vh = np.linalg.svd(mat)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"SVD failed: {exc}") from exc
    return u, s, vh


def min_singular_values(T: OperatorMatrix, k: int) -> np.ndarray:
    """k smallest singular values of the weighted operator, ascending."""
    if k > T.entries.shape[0]:
        raise LinearAlgebraError("k exceeds the matrix dimension")
    _, s, _ = weighted_svd(T.entries, T.weights)
    s = np.where(s < NUMERICAL_ZERO_FACTOR * s[0], 0.0, s)
    return s[::-1][:k]


def kernel_vectors(T: OperatorMatrix, dim: int) -> list[DensityPair]:
    """Null densities for the ``dim`` smallest singular directions.

    Requires those singular values to sit below 1e-4 x sigma_max;
    otherwise the operator has no numerical kernel and NoKernelError is
    raised.  Returned densities have unit arc-length-weighted norm.
    """
    _, s, vh = weighted_svd(T.entries, T.weights)
    sigma_max = s[0]
    small = s[-dim:]
    if np.any(small > KERNEL_THRESHOLD_FACTOR * sigma_max):
        raise NoKernelError(
            f"smallest singular values {small} exceed "
            f"{KERNEL_THRESHOLD_FACTOR:.0e} x sigma_max = {KERNEL_THRESHOLD_FACTOR * sigma_max:.3e}"
        )
    sq = np.sqrt(T.weights)
    out = []
    for row in vh[-dim:][::-1]:  # ascending singular value order
        phi = np.conj(row) / sq
        phi /= np.sqrt(np.sum(T.weights * np.abs(phi) ** 2))
        out.append(DensityPair.from_stacked(phi))
    return out


def field_from_density(
    density: DensityPair,
    points: np.ndarray,
    p: float,
    lam: float,
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
) -> np.ndarray:
    """Single-layer field of a density pair at strip points (K, 2).

    Plain trapezoid quadrature: accurate away from the obstacle
    boundaries (distance a few node spacings); points inside an obstacle
    are rejected.
    """
    prm = replace(params, p=p, lam=lam)
    prm.check_guard()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = pair_centers(delta)
    if np.any(points[:, 1] < -1e-12) or np.any(points[:, 1] > 0.5 + 1e-12):
        raise DomainError("evaluation points must lie in the strip")
    # inside test against the polar boundary (periodic images included)
    reduced = points.copy()
    reduced[:, 0] = reduced[:, 0] % 1.0
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    for c in centers:
        for img in (-1.0, 0.0, 1.0):
            d = reduced - (c + np.array([img, 0.0]))
            theta = np.arctan2(d[:, 1], d[:, 0])
            r_bd = np.full_like(theta, coeffs[0])
            for j, cj in enumerate(coeffs[1:], start=1):
                r_bd += cj * np.cos(2 * j * theta)
            if np.any(np.hypot(d[:, 0], d[:, 1]) < r_bd - 1e-12):
                raise DomainError("evaluation point inside an obstacle")

    out = np.zeros(len(points), dtype=complex)
    for phi, c in ((density.phi1, centers[0]), (density.phi2, centers[1])):
        src = shape.nodes + c
        u = points[:, 0][:, None] - src[:, 0][None, :]
        dx2 = points[:, 1][:, None] - src[:, 1][None, :]
        t2 = points[:, 1][:, None] + src[:, 1][None, :]
        vals = eval_Ge_uvt(u.ravel(), dx2.ravel(), t2.ravel(), prm, check=False,
                           m_floor=96)
        out += vals.reshape(len(points), -1) @ (shape.weights * phi)
    return out


def boundary_values(T: OperatorMatrix, density: DensityPair) -> np.ndarray:
    """Field trace on the obstacle boundary nodes (the Nystrom action)."""
    return T.entries @ density.stacked


def _kress_log_rows(thetas_t: np.ndarray, thetas_b: np.ndarray, n_nodes: int) -> np.ndarray:
    """Kress log-rule weights at arbitrary target angles.

    Quadrature for int ln(4 sin^2((t - tau)/2)) f(tau) dtau against nodal
    values f(t_b); the node formula extends to off-grid targets t.
    """
    N = n_nodes
    dt = thetas_t[:, None] - thetas_b[None, :]
    m = np.arange(1, N // 2)
    R = -(4 * np.pi / N) * np.sum(np.cos(np.multiply.outer(dt, m)) / m, axis=-1)
    R -= (4 * np.pi / N**2) * np.cos((N // 2) * dt)
    return R


def offgrid_boundary_rows(
    thetas_t: np.ndarray,
    shape: ObstacleShape,
    params: KernelParams,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-layer evaluation rows at off-grid boundary angles.

    Returns (points, rows): rows is (K, 2N) mapping nodal density values
    of the cell pair to field values at the boundary points x(theta_t) of
    the first obstacle, with the same-log-accurate quadrature used in the
    assembly.  Targets must avoid the collocation angles.
    """
    thetas_t = np.asarray(thetas_t, dtype=float)
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    r_t = _radius(coeffs, thetas_t)
    local_t = np.column_stack([r_t * np.cos(thetas_t), r_t * np.sin(thetas_t)])
    centers = pair_centers(delta)
    pts = local_t + centers[0]

    N = shape.n_nodes
    # same-obstacle block: Kress log part + smooth remainder
    u = local_t[:, 0][:, None] - shape.nodes[:, 0][None, :]
    dx2 = local_t[:, 1][:, None] - shape.nodes[:, 1][None, :]
    t2 = local_t[:, 1][:, None] + shape.nodes[:, 1][None, :] + 2 * CENTER_HEIGHT
    _, smooth = ge_split(u.ravel(), np.abs(dx2).ravel(), t2.ravel(),
                         params.p, params.lam, max(params.m_trunc, 256))
    smooth = smooth.reshape(len(thetas_t), N)
    dt = thetas_t[:, None] - shape.thetas[None, :]
    sin2 = 4 * np.sin(dt / 2.0) ** 2
    r2 = u**2 + dx2**2
    r = np.sqrt(r2)
    j0 = special.jv(0, np.sqrt(complex(params.lam)) * r)
    k2 = (smooth - LOG_COEFF * (j0 - 1.0) * np.log(r)
          + 0.5 * LOG_COEFF * j0 * np.log(r2 / sin2))
    R = _kress_log_rows(thetas_t, shape.thetas, N)
    rows_same = (0.5 * LOG_COEFF * j0 * R + (2 * np.pi / N) * k2) * shape.speeds[None, :]

    # cross block: smooth kernel to the second obstacle
    shift = centers[1] - centers[0]
    u_x = local_t[:, 0][:, None] - shape.nodes[:, 0][None, :] - shift[0]
    vals = eval_Ge_uvt(u_x.ravel(), dx2.ravel(), t2.ravel(), params, check=False)
    rows_cross = vals.reshape(len(thetas_t), N) * shape.weights[None, :]
    return pts, np.hstack([rows_same, rows_cross])


def cell_sample_points(
    delta: float,
    shape: ObstacleShape,
    nx: int = 48,
    ny: int = 24,
    margin: float = 0.04,
) -> np.ndarray:
    """Uniform cell sample points outside the obstacles (with margin).

    Covers the period cell (0,1) x (0,1/2); used for field overlaps and
    discrete cell norms.  The cell measure of one point is (1/2)/(nx*ny)
    regardless of masking (masked points carry field 0 in norms).
    """
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) * 0.5 / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    keep = np.ones(len(pts), dtype=bool)
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    for c in pair_centers(delta):
        d = pts - c
        theta = np.arctan2(d[:, 1], d[:, 0])
        r_bd = np.full_like(theta, coeffs[0])
        for j, cj in enumerate(coeffs[1:], start=1):
            r_bd += cj * np.cos(2 * j * theta)
        keep &= np.hypot(d[:, 0], d[:, 1]) > r_bd + margin
    return pts[keep]
