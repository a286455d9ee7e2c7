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
rule.  One row builder (_SelfRows) holds that log rule: the diagonal
block is its case on the nodes, with the symmetric split block
(qpgreens._split_symmetric) as smooth part, and offgrid_boundary_rows
its case at arbitrary boundary angles, for every momentum of one lam at
once.  Matrices are stored as Nystrom action maps (nodal density values
to nodal field values); spectra and null vectors are taken in the
arc-length-weighted metric (``weighted``, ``null_vectors``;
``hermitian_weighted`` checks every matrix whose inertia is counted, so
the moduli of its eigenvalues are its singular values), the discrete
surrogate for the H^{-1/2} x H^{1/2} duality of the continuous problem.

At real lam and real p the kernel conjugates under the reflection
R(x) = (2a - x1, x2) about any vertical line, G(Rx, Ry) = conj G(x, y)
(qpgreens module docstring), and two blocks here are the reflected image
of another.  In assemble_T at delta != 0, T21's source shift 1/2 - 2 delta
with the factor e^{ip} is, by quasi-periodicity, the shift
-(1/2 + 2 delta); the reflection about the obstacle center maps it to
T12's +(1/2 + 2 delta) and node j to r(j) (geometry.reflect_indices), so
B21 = conj(B12[r][:, r]).  In field_from_density the cell centers are
mirror images about x1 = 1/2 for every delta, so on a target set with
pts[q] = (1 - x1, x2) (geometry.reflect_map) the second obstacle's block
is conj(block1[q][:, r]).  The Hermitian check of a counted matrix still
tests the computed B12: W21 = W12^H now reads
B12[r(i), r(j)] = B12[j, i] w_j / w_i.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import lapack

from .errors import AssemblyError, DomainError, LinearAlgebraError
from .geometry import (
    CENTER_HEIGHT, ObstacleShape, _inside, _radius, pair_centers, reflect_indices, reflect_map,
)
from .qpgreens import (
    LOG_COEFF,
    KernelParams,
    _planned,
    _split_symmetric,
    _SplitPlan,
    ge_split,
    kernel_blocks,
)

NUMERICAL_ZERO_FACTOR = 1e-13  # singular values below this x sigma_max are zeros
HERMITIAN_TOL = 1e-10         # relative skew part allowed in a counted operator


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
    """Discretized block operator; ``entries`` maps nodal values to nodal
    values, one matrix per momentum of an array ``p``."""

    entries: np.ndarray          # (2N, 2N) complex Nystrom action, or (P, 2N, 2N)
    p: float | np.ndarray
    lam: float
    delta: float
    weights: np.ndarray          # (2N,) arc-length weights
    n_nodes: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise AssemblyError("non-finite entries in assembled operator")

    def weighted(self) -> np.ndarray:
        return weighted(self.entries, self.weights)


def _kress_log_rows(thetas_t: np.ndarray, thetas_b: np.ndarray, n_nodes: int) -> np.ndarray:
    """Kress log-rule weights at arbitrary target angles.

    Quadrature for int ln(4 sin^2((t - tau)/2)) f(tau) dtau against nodal
    values f(t_b) on the periodic trapezoid nodes t_b = 2 pi b / N, N even;
    spectrally accurate for analytic densities, and the node formula
    extends to off-grid targets t.
    """
    N = n_nodes
    dt = thetas_t[:, None] - thetas_b[None, :]
    m = np.arange(1, N // 2)
    R = -(4 * np.pi / N) * np.sum(np.cos(np.multiply.outer(dt, m)) / m, axis=-1)
    R -= (4 * np.pi / N**2) * np.cos((N // 2) * dt)
    return R


class _SelfRows:
    """Same-obstacle Nystrom rows at the boundary points local_t = x(thetas_t).

    Splits the kernel into (1/4pi) ln(4 sin^2((t-s)/2)), integrated by the
    Kress weights R (K, N), and a periodic-smooth remainder on the
    trapezoid rule.  All but the smooth part and J0 is lam- and p-free and
    built once: the (target, node) pairs (u, |x2 - y2|, x2 + y2) that
    ge_split takes, R, log r and the log-ratio term; J0(sqrt(lam) r) is
    kept for the last lam, real (special.j0) at real lam >= 0 and through
    the complex root (special.jv) otherwise.  A target on a node takes the
    coincident limit.
    """

    def __init__(self, thetas_t, local_t, shape: ObstacleShape):
        u = local_t[:, 0][:, None] - shape.nodes[:, 0][None, :]
        dx2 = local_t[:, 1][:, None] - shape.nodes[:, 1][None, :]
        t2 = local_t[:, 1][:, None] + shape.nodes[:, 1][None, :] + 2 * CENTER_HEIGHT
        self.pairs, self.shape = (u, np.abs(dx2), t2), shape
        self.R = _kress_log_rows(thetas_t, shape.thetas, shape.n_nodes)
        sin2 = 4 * np.sin((thetas_t[:, None] - shape.thetas[None, :]) / 2.0) ** 2
        r2 = u**2 + dx2**2
        self.r = np.sqrt(r2)
        off = sin2 > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            self.logr = np.where(off, np.log(self.r), 0.0)
            self.log_ratio = np.log(np.where(off, r2 / sin2, shape.speeds[None, :] ** 2))
        self._j0 = (None, None)

    def __call__(self, smooth, lam):
        """The rows at lam for ge_split's smooth part on the pairs, (K, N),
        or (P, K, N) for the smooth parts of P momenta."""
        # The local singular structure is (1/2pi) J0(sqrt(lam) r) ln r + analytic,
        # so the Bessel factor rides with the Kress kernel; a constant coefficient
        # would leave a C^1 remainder r^2 ln r and stall the quadrature near 1e-6.
        if self._j0[0] != lam:
            real = np.imag(lam) == 0 and np.real(lam) >= 0
            self._j0 = (lam, special.j0(np.sqrt(np.real(lam)) * self.r) if real
                        else special.jv(0, np.sqrt(complex(lam)) * self.r))
        j0 = self._j0[1]
        k2 = (smooth - LOG_COEFF * (j0 - 1.0) * self.logr
              + 0.5 * LOG_COEFF * j0 * self.log_ratio)
        return ((0.5 * LOG_COEFF * j0 * self.R + (2 * np.pi / self.shape.n_nodes) * k2)
                * self.shape.speeds[None, :])


def _diag_block(shape: ObstacleShape, p, lam, params: KernelParams) -> np.ndarray:
    """Self-interaction Nystrom blocks (same for both obstacles) at every
    momentum of ``p`` (one lam), (P, N, N), or (N, N) at one momentum: the
    rows at the nodes themselves, kept across calls (qpgreens._planned), on
    the symmetric split blocks of all momenta, one _split_symmetric call,
    as smooth parts."""
    rows = _planned(("self rows", shape.nodes.tobytes(), shape.thetas.tobytes(),
                     shape.speeds.tobytes()), lambda: _SelfRows(shape.thetas, shape.nodes, shape))
    return rows(_split_symmetric(*rows.pairs, p, lam, params)[1], lam)


def _off_block(shift: float, shape: ObstacleShape, p, lam, params: KernelParams) -> np.ndarray:
    """Smooth cross-interaction blocks, kernel G^e(x, y + shift e1), at every
    momentum of ``p`` (one lam), (P, N, N), or (N, N) at one momentum: one
    kernel_blocks call."""
    xs = shape.nodes + np.array([0.0, CENTER_HEIGHT])
    return kernel_blocks(xs, xs + np.array([shift, 0.0]), p, lam, params) * shape.weights[None, :]


def assemble_T(
    p: float | np.ndarray,
    lam: float,
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
) -> OperatorMatrix:
    """Assemble the 2N x 2N dimerized block operator at (p, lam, delta).

    ``p`` is one momentum or an array of momenta; an array adds a leading
    axis to ``entries``, (P, 2N, 2N), and the momenta share every
    momentum-free part: the off-diagonal blocks of all momenta are one
    kernel_blocks call, and the same-obstacle rows act once on the stacked
    split blocks.  The off-diagonal blocks encode the intra-pair spacing
    1/2 + 2 delta and its Floquet-wrapped complement 1/2 - 2 delta; one is
    evaluated and the other is its e^{ip} multiple (delta = 0) or its
    reflection about the obstacle center (module docstring).  Real lam
    only, as the diagonal block (qpgreens._split_symmetric).  KernelError
    if any momentum grazes an empty-guide dispersion sheet.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    params.check_guard(ps, lam)
    n = shape.n_nodes

    A = _diag_block(shape, ps, lam, params)
    # T12: y shifted by +(1/2 + 2 delta); T21: x shifted the same way,
    # equivalently e^{ip} times a y-shift of (1/2 - 2 delta)
    B12 = _off_block(0.5 + 2 * delta, shape, ps, lam, params)
    if delta == 0:
        B21 = np.exp(1j * ps)[:, None, None] * B12
    else:
        # the reflection about the obstacle center maps node j to r(j) and the
        # y-shift -(1/2 + 2 delta) to +(1/2 + 2 delta), conjugating (module docstring)
        r = reflect_indices(n)
        B21 = np.conj(B12[:, r][:, :, r])

    Q = np.empty((len(ps), 2 * n, 2 * n), dtype=complex)
    Q[:, :n, :n] = A
    Q[:, n:, n:] = A
    Q[:, :n, n:] = B12
    Q[:, n:, :n] = B21
    weights = np.concatenate([shape.weights, shape.weights])
    return OperatorMatrix(entries=Q if np.ndim(p) else Q[0], p=p, lam=lam, delta=delta,
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
    params.check_guard(p, lam)
    A = _diag_block(shape, p, lam, params)
    B = _off_block(0.5, shape, p, lam, params)
    nu = branch * np.exp(0.5j * p)
    return A + nu * B, shape.weights


def weighted(action: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S action S^-1 with S = diag(sqrt(weights)): the arc-length-weighted operator."""
    sq = np.sqrt(weights)
    return sq[:, None] * action / sq[None, :]


def weighted_svd(action: np.ndarray, weights: np.ndarray):
    try:
        return np.linalg.svd(weighted(action, weights))
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"SVD failed: {exc}") from exc


def hermitian_weighted(action: np.ndarray, weights: np.ndarray, where: str) -> np.ndarray:
    """The weighted operator, checked Hermitian (as it is at real lambda):
    an inertia count means nothing otherwise."""
    W = weighted(action, weights)
    skew, norm = np.linalg.norm(W - W.conj().T), np.linalg.norm(W)
    if skew > HERMITIAN_TOL * norm:
        raise AssemblyError(f"weighted operator {where} is not Hermitian "
                            f"(relative skew part {skew / norm:.1e})")
    return W


def count_offset(p, lam, params: KernelParams, dim: int, branch: int | None = None):
    """Wittrick-Williams offset: sheets below lam (of ``branch``) minus ``dim``,
    per momentum of ``p`` (KernelParams.sheets_below)."""
    return params.sheets_below(p, lam, branch) - dim


@dataclass
class CountedSpectrum:
    """A weighted operator at one energy and its inertia count."""

    weights: np.ndarray
    H: np.ndarray          # the Hermitian part of the checked-Hermitian weighted operator
    eigs: np.ndarray       # ascending eigenvalues of H
    negatives: int         # eigenvalues of H below 0
    offset: int            # count_offset, or 0 for the junction

    @property
    def count(self) -> int:
        return self.negatives + self.offset


def counted_spectrum(action, weights, where: str, offset: int = 0) -> CountedSpectrum:
    """The one constructor of a counted spectrum: W checked Hermitian
    (hermitian_weighted), H = 0.5 (W + W^H) and eigvalsh(H)."""
    W = hermitian_weighted(action, weights, where)
    H = 0.5 * (W + W.conj().T)
    eigs = np.linalg.eigvalsh(H)
    return CountedSpectrum(weights, H, eigs, int(np.sum(eigs < 0)), offset)


def ldl_factor(W: np.ndarray):
    """Bunch-Kaufman W = U D U^H of a Hermitian matrix (upper triangle read).

    Returns (factor, ipiv) for lapack.zhetrs and the number of negative
    eigenvalues of W: by Sylvester's law, those of D's 1x1 and 2x2 blocks.
    """
    factor, ipiv, info = lapack.zhetrf(W)
    if info != 0:
        raise LinearAlgebraError(f"LDL^H factorization failed (zhetrf info {info})")
    d = factor.diagonal().real
    first = np.flatnonzero(ipiv < 0)[::2]  # a 2x2 block holds rows k, k+1, both ipiv < 0
    a, c = d[first], d[first + 1]
    det = a * c - np.abs(factor[first, first + 1]) ** 2
    negatives = np.sum(d[ipiv > 0] < 0) + np.sum(np.where(det < 0, 1, np.where(a < 0, 2, 0)))
    return factor, ipiv, int(negatives)


def min_singular_values(T: OperatorMatrix, k: int) -> np.ndarray:
    """k smallest singular values of the weighted operator, ascending."""
    if k > T.entries.shape[0]:
        raise LinearAlgebraError("k exceeds the matrix dimension")
    _, s, _ = weighted_svd(T.entries, T.weights)
    s = np.where(s < NUMERICAL_ZERO_FACTOR * s[0], 0.0, s)
    return s[::-1][:k]


def null_vectors(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Nodal densities (dim, n) of the weighted operator's null vectors, the
    columns of ``vectors`` (n, dim), each of unit arc-length-weighted norm."""
    phis = vectors.T / np.sqrt(weights)
    phis /= np.sqrt(np.sum(weights * np.abs(phis) ** 2, axis=1))[:, None]
    return phis


def inside_obstacles(points: np.ndarray, delta: float, shape: ObstacleShape) -> np.ndarray:
    """Flags of the strip points (K, 2), at any x1, inside an obstacle of the
    period-1 delta structure; points within 1e-12 of a boundary are outside."""
    reduced = np.column_stack([points[:, 0] % 1.0, points[:, 1]])
    images = np.concatenate([pair_centers(delta) + np.array([img, 0.0])
                             for img in (-1.0, 0.0, 1.0)])
    return _inside(shape, images, reduced, margin=-1e-12)


def check_off_obstacles(points: np.ndarray, delta: float, shape: ObstacleShape) -> None:
    """DomainError if any of the strip points (K, 2) is inside an obstacle."""
    if np.any(inside_obstacles(points, delta, shape)):
        raise DomainError("evaluation point inside an obstacle")


def field_from_density(
    density: DensityPair | Sequence[DensityPair],
    points: np.ndarray,
    p: float,
    lam: float,
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
) -> np.ndarray | list[np.ndarray]:
    """Single-layer field of a density pair at strip points (K, 2).

    A sequence of density pairs at one (p, lam, delta) gives a list with
    one field per pair, all from one kernel matrix per obstacle.  Plain
    trapezoid quadrature: accurate away from the obstacle boundaries
    (distance a few node spacings); points inside an obstacle are rejected.
    At real lam, a point set invariant under x1 -> 1 - x1 (the cell sample
    grids) takes the second obstacle's block as the reflection of the first
    (module docstring); other sets and complex lam evaluate both.
    """
    params.check_guard(p, lam)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = pair_centers(delta)
    if np.any(points[:, 1] < -1e-12) or np.any(points[:, 1] > 0.5 + 1e-12):
        raise DomainError("evaluation points must lie in the strip")
    check_off_obstacles(points, delta, shape)

    pairs = [density] if isinstance(density, DensityPair) else list(density)
    phis = (np.column_stack([pair.phi1 for pair in pairs]),
            np.column_stack([pair.phi2 for pair in pairs]))
    block1 = kernel_blocks(points, shape.nodes + centers[0], p, lam, params)
    # the two centers are mirror images about x1 = 1/2 (module docstring)
    q = reflect_map(points, 0.5) if np.imag(lam) == 0 else None
    if q is None:
        block2 = kernel_blocks(points, shape.nodes + centers[1], p, lam, params)
    else:
        r = reflect_indices(shape.n_nodes)
        block2 = np.conj(block1[q][:, r])
    out = sum(block @ (shape.weights[:, None] * phi) for block, phi in zip((block1, block2), phis))
    return out[:, 0] if isinstance(density, DensityPair) else list(out.T)


def offgrid_boundary_rows(thetas_t, p, lam, delta: float, shape: ObstacleShape,
                          params: KernelParams):
    """Single-layer evaluation rows at off-grid boundary angles, at every
    momentum of the array ``p`` (one lam).

    Returns (points, rows): rows is (P, K, 2N), mapping nodal density
    values of the cell pair to field values at the boundary points x(theta_t) of the first obstacle, with
    the log-accurate quadrature of the assembly.  The geometry and J0 of
    the same-obstacle pairs are built once for all momenta, their split
    blocks are one ge_split call planned on the K targets and N nodes, the
    cross block one kernel_blocks call.  The caller checks the guards."""
    thetas_t = np.asarray(thetas_t, dtype=float)
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    r_t = _radius(coeffs, thetas_t)
    local_t = np.column_stack([r_t * np.cos(thetas_t), r_t * np.sin(thetas_t)])
    centers = pair_centers(delta)
    pts = local_t + centers[0]

    same = _SelfRows(thetas_t, local_t, shape)
    block = (pts, shape.nodes + centers[0], *np.divmod(np.arange(same.R.size), shape.n_nodes))
    plan = _SplitPlan(*same.pairs, params.split_head, block)
    rows_same = same(ge_split(*same.pairs, p, lam, params.split_head, plan)[1], lam)
    # cross block: smooth kernel to the second obstacle
    rows_cross = kernel_blocks(pts, shape.nodes + centers[1], p, lam, params) * shape.weights
    return pts, np.concatenate([rows_same, rows_cross], axis=2)


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
    return pts[~_inside(shape, pair_centers(delta), pts, margin)]
