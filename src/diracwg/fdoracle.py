"""Independent finite-difference reference solver.

Second-order 5-point discretization of -Laplace on the strip cell
(0,1) x (0,1/2): sound-hard walls are handled by mirror ghost rows, the
Floquet condition by a phased wrap in x1, and the obstacle Dirichlet
condition by Shortley-Weller edge-corrected stencils (arms shortened to
the exact boundary crossing along each grid line).  The edge correction
makes the eigenvalues cleanly second order in h, which the boundary-
integral path is cross-checked against after Richardson extrapolation.

The cell problems take the obstacle pair of geometry.pair_centers, and a
Dirichlet-truncated supercell of the glued structure (geometry.joint_centers)
provides the reference interface eigenvalue and mode profile.  Its
obstacles are centered at mid-height, so it is solved on the mirror-even
half 0 <= x2 <= 1/4 of the strip, with a reflecting centerline (33383
unknowns instead of 65839 at 96 per unit and 8 cells per side).  So is the
crossing hint (fd_crossing_hint), the lowest cell eigenvalue at p = pi, which
is even; the band charts keep the whole strip, whose two mirror sectors both
carry bands.

Both are assembled by one routine (_assemble) that works on the free grid
nodes alone and writes the CSR arrays directly from a per-node entry table,
so its transient memory is a few times the matrix it returns: the traced
peak is 2.8 times the 2.1 MB matrix of that supercell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import OracleError
from .geometry import CENTER_HEIGHT, ObstacleShape, _inside, joint_centers, pair_centers

_RHO_MIN = 1e-3  # shortest admissible stencil arm, in units of h
NODES_ACROSS = 12  # grid nodes the obstacle's diameter must span at least
# ARPACK Krylov vectors of the one-eigenpair supercell solve.  Over nine shifts
# in 52.60-52.75, 4/5/6/8 take 87/84/90/89 solves at nx 96 and 99/102/96/109 at
# nx 64: no size wins on both grids, the spread is 7 % and 14 %.
SUPERCELL_KRYLOV = 4
CELL_SHIFT = 1e-8  # shift-invert target of the cell eigensolves: the lowest bands
RICHARDSON_RATIO = 1.5  # fine over coarse nx of fd_band_chart_richardson
_ARMS = ((0, -1), (0, +1), (1, -1), (1, +1))  # (axis, step) of the four stencil arms


@dataclass(frozen=True)
class FDGrid:
    """Uniform isotropic grid on the strip; nx points per unit length."""

    nx: int

    def __post_init__(self):
        if self.nx < 16 or self.nx % 2 != 0:
            raise OracleError("nx must be even and >= 16")

    @property
    def h(self) -> float:
        return 1.0 / self.nx

    @property
    def ny(self) -> int:
        # vertex rows 0..ny span x2 in [0, 1/2]
        return self.nx // 2


def check_resolution(grid: FDGrid, shape: ObstacleShape | None) -> None:
    """OracleError unless ``grid`` puts NODES_ACROSS nodes across ``shape``
    (None, the empty strip, always passes)."""
    if shape is not None and grid.h * NODES_ACROSS > shape.diameter:
        raise OracleError(f"grid h={grid.h:.4f} does not resolve the obstacle "
                          f"(need >= {NODES_ACROSS} nodes across)")


def _inside_factory(shape: ObstacleShape | None, centers: np.ndarray):
    if shape is None:
        return lambda pts: np.zeros(len(pts), dtype=bool)
    return lambda pts: _inside(shape, centers, pts)


def _edge_fractions(p_out: np.ndarray, p_in: np.ndarray, inside) -> np.ndarray:
    """Bisect boundary crossings on the segments p_out[k] -> p_in[k]."""
    lo = np.zeros(len(p_out))
    hi = np.ones(len(p_out))
    for _ in range(46):
        mid = 0.5 * (lo + hi)
        ins = inside(p_out + mid[:, None] * (p_in - p_out))
        hi = np.where(ins, mid, hi)
        lo = np.where(ins, lo, mid)
    return np.maximum(0.5 * (lo + hi), _RHO_MIN)


def _assemble(grid: FDGrid, inside, x1_range, bloch_phase, y_top: float = 0.5):
    """Sparse -Laplace matrix on x1_range x [0, y_top].

    ``bloch_phase`` = e^{ip} wraps the x1 ends (cell problem); None means
    Dirichlet truncation at both ends (supercell).  The matrix is complex
    only for a complex phase: the exact real -1.0 (p = pi) and the supercell
    give a real one, for real SuperLU and ARPACK.  The rows are
    0..floor(y_top / h) and both row ends reflect: the ghost row j = -1 is
    row 1, and a ghost above the top row is row 2 y_top / h - j.  y_top =
    1/2 is the whole strip, whose top is the sound-hard wall; y_top =
    CENTER_HEIGHT is the lower half, which with the centerline reflecting
    is the mirror-even sector of x2 -> 1/2 - x2 (for nx = 2 mod 4 the
    centerline falls between rows and the top row is its own ghost).

    ``inside`` is called once for the flags and, if any arm ends in an
    obstacle, 46 times more for one bisection of all such arms.  Past the
    inside flags everything is per free node: unknown k fills row k of an
    (unknowns, 6) entry table in the order x1 diagonal, west, east, x2
    diagonal, south, north, and the CSR arrays are that table with the arms
    to solid or truncated nodes masked out.  A ghost row
    repeats a column, and sum_duplicates adds the repeats in table order
    (the diagonal of a top row that is its own ghost has three addends).
    Returns (matrix, (X, Y, free)).
    """
    h = grid.h
    periodic = bloch_phase is not None
    n1 = int(round((x1_range[1] - x1_range[0]) / h))
    n_cols = n1 if periodic else n1 + 1
    mirror = int(round(2 * y_top / h))  # the ghost row j maps to mirror - j
    ny = mirror // 2  # the top row
    xs = x1_range[0] + h * np.arange(n_cols)
    ys = h * np.arange(ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside_flags = inside(np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape)

    free = ~inside_flags
    if not periodic:
        free[0, :] = False
        free[-1, :] = False
    i, j = (k.astype(np.int32) for k in np.nonzero(free))
    n_unknown = len(i)
    if n_unknown == 0:
        raise OracleError("no free grid nodes")
    index = np.full(X.shape, -1, dtype=np.int32)
    index[i, j] = np.arange(n_unknown, dtype=np.int32)

    dtype = complex if np.iscomplexobj(bloch_phase) else float
    cols = np.empty((n_unknown, 6), dtype=np.int32)
    vals = np.empty((n_unknown, 6), dtype=dtype)
    used = np.ones((n_unknown, 6), dtype=bool)

    def neighbor(axis: int, step: int):
        """Neighbor of each free node; free nodes of a Dirichlet-truncated
        grid never reach past its end columns, so the modulo wraps only the
        Bloch cell."""
        if axis == 0:
            return (i + step) % n_cols, j
        # sound-hard wall and centerline: ghost rows mirror back inside
        nb_j = j + step
        nb_j = np.where(nb_j < 0, 1, nb_j)
        return i, np.where(nb_j > ny, mirror - nb_j, nb_j)

    # the arms that end in an obstacle, in all four directions, share one
    # bisection of their boundary crossings
    cuts = [inside_flags[neighbor(axis, step)] for axis, step in _ARMS]
    counts = [np.count_nonzero(cut) for cut in cuts]
    k = np.concatenate([np.flatnonzero(cut) for cut in cuts])
    here = np.column_stack([xs[i[k]], ys[j[k]]])
    steps = np.repeat([step * h * np.eye(2)[axis] for axis, step in _ARMS], counts, axis=0)
    fractions = _edge_fractions(here, here + steps, inside) if len(k) else np.empty(0)
    fractions = np.split(fractions, np.cumsum(counts)[:-1])

    def arm(n: int):
        """Neighbor index, stencil arm length rho and use flag of each free
        node along _ARMS[n]."""
        nb_i, nb_j = neighbor(*_ARMS[n])
        rho = np.ones(n_unknown)
        rho[cuts[n]] = fractions[n]
        return index[nb_i, nb_j], rho, ~cuts[n] & free[nb_i, nb_j]

    def fill(axis: int):
        """Table columns 3 axis (diagonal), 3 axis + 1 and 3 axis + 2 (arms)."""
        (idx_m, rho_m, use_m), (idx_p, rho_p, use_p) = arm(2 * axis), arm(2 * axis + 1)
        denom = 0.5 * (rho_m + rho_p) * h * h
        mult_m = np.ones(n_unknown, dtype=dtype)
        mult_p = np.ones(n_unknown, dtype=dtype)
        if axis == 0 and periodic:
            mult_m[i == 0] = np.conj(bloch_phase)
            mult_p[i == n_cols - 1] = bloch_phase
        c = 3 * axis
        cols[:, c], cols[:, c + 1], cols[:, c + 2] = np.arange(n_unknown), idx_m, idx_p
        vals[:, c] = (1.0 / rho_m + 1.0 / rho_p) / denom
        vals[:, c + 1] = -mult_m / (rho_m * denom)
        vals[:, c + 2] = -mult_p / (rho_p * denom)
        used[:, c + 1], used[:, c + 2] = use_m, use_p

    fill(0)
    fill(1)
    indptr = np.zeros(n_unknown + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(used, axis=1), out=indptr[1:])
    indices = cols[used]
    del cols
    data = vals[used]
    del vals, used
    mat = sp.csr_matrix((data, indices, indptr), shape=(n_unknown, n_unknown))
    mat.sum_duplicates()
    return mat, (X, Y, free)


def _cell_matrix(grid: FDGrid, shape: ObstacleShape | None, delta: float, bloch_phase,
                 y_top: float = 0.5):
    """The cell problem's matrix, on a grid that resolves ``shape``."""
    check_resolution(grid, shape)
    centers = pair_centers(delta) if shape is not None else np.empty((0, 2))
    mat, _ = _assemble(grid, _inside_factory(shape, centers), (0.0, 1.0), bloch_phase, y_top)
    return mat


def fd_bloch_eigs(
    p: float,
    delta: float,
    n_eigs: int,
    grid: FDGrid,
    shape: ObstacleShape | None,
) -> np.ndarray:
    """Smallest Bloch eigenvalues of the (possibly dimerized) cell problem."""
    mat = _cell_matrix(grid, shape, delta, np.exp(1j * p))
    vals = _arpack(mat, n_eigs, CELL_SHIFT, "sparse eigensolver", return_eigenvectors=False)
    return np.sort(vals.real)


def fd_crossing_hint(grid: FDGrid, shape: ObstacleShape | None) -> float:
    """The first band at p = pi of the delta = 0 cell, fd_bloch_eigs(pi, 0,
    1, grid, shape)[0]: the FD estimate of the Dirac crossing.

    Solved on the mirror-even sector alone, the lower half 0 <= x2 <= 1/4
    with a reflecting centerline (946 unknowns instead of 1854 at nx 64).
    The odd sector is the same problem with Dirichlet on the centerline, so
    its eigenvalues lie above the even sector's, and the lowest eigenvalue
    of the whole cell is the even one.  The phase e^{i pi} goes in as the
    exact real -1.0, so the matrix is real and SuperLU and ARPACK run in
    real arithmetic.
    """
    mat = _cell_matrix(grid, shape, 0.0, -1.0, y_top=CENTER_HEIGHT)
    vals = _arpack(mat, 1, CELL_SHIFT, "crossing hint eigensolver", return_eigenvectors=False)
    return float(vals.real[0])


def _start_vector(n: int) -> np.ndarray:
    """Generic but fixed ARPACK start vector: reruns are byte-identical."""
    return np.random.default_rng(0).standard_normal(n)


def _arpack(mat, k: int, sigma: float, what: str, return_eigenvectors: bool,
            ordering: str | None = None, ncv: int | None = None):
    """The k eigenvalues of ``mat`` nearest sigma by shift-invert ARPACK.

    With ``ordering``, mat - sigma I is factored here, once, with that
    SuperLU column ordering and one-column panels, and handed to ARPACK;
    without, ARPACK factors it with SuperLU's defaults (COLAMD, default
    panels).  On the 96-per-unit, 8-cell supercell (its even half, 33383
    unknowns) one-column panels drop a 9 MB transient of the factorization
    (in a fresh process the supercell call peaks 21 instead of 30 MB above
    its start; the factor and ARPACK set that peak, the assembly alone
    rises 7 MB) and factor in 0.05 instead of 0.08 s.  ``ncv`` is the size
    of ARPACK's Krylov space (default max(2k + 1, 20)).

    OracleError, naming ``what``, for a k ARPACK cannot serve, no
    convergence (ArpackError), an exactly singular shift-invert factor
    (RuntimeError) or arguments ARPACK rejects (ValueError); other errors
    are bugs and pass through.
    """
    n = mat.shape[0]
    if not 0 < k < n - 1:
        raise OracleError(f"{what}: {k} eigenvalues asked of {n} unknowns; "
                          f"ARPACK needs 0 < k < {n - 1}")
    try:
        shift_invert = None
        if ordering is not None:
            lu = spla.splu((mat - sigma * sp.identity(n, format="csc")).tocsc(),
                           permc_spec=ordering, panel_size=1)
            shift_invert = spla.LinearOperator(mat.shape, matvec=lu.solve, dtype=mat.dtype)
        return spla.eigs(mat, k=k, sigma=sigma, which="LM", v0=_start_vector(n), ncv=ncv,
                         OPinv=shift_invert, return_eigenvectors=return_eigenvectors)
    except (spla.ArpackError, RuntimeError, ValueError) as exc:
        raise OracleError(f"{what} failed: {exc}") from exc


def fd_band_chart(
    p_grid: np.ndarray,
    delta: float,
    n_bands: int,
    grid: FDGrid,
    shape: ObstacleShape | None,
) -> np.ndarray:
    """Bands lambda_n(p) on a p grid; rows (p, lambda_1..lambda_n).

    The coarse and fine charts of fd_band_chart_richardson (diracwg oracle,
    the test oracles of gapgreens.build_bloch_table and the benchmark's
    output checks).
    """
    rows = []
    for p in p_grid:
        vals = fd_bloch_eigs(p, delta, max(n_bands + 2, 6), grid, shape)
        rows.append(np.concatenate([[p], vals[:n_bands]]))
    return np.array(rows)


def fd_band_chart_richardson(
    p_grid: np.ndarray,
    delta: float,
    n_bands: int,
    grid: FDGrid,
    shape: ObstacleShape | None,
) -> np.ndarray:
    """h^2-extrapolated band chart from grids nx and RICHARDSON_RATIO x nx.

    Seeds for the boundary-integral band search must resolve band
    pinches of a few 1e-2; plain second-order values at nx ~ 64 carry
    O(0.1) errors at the higher bands, the extrapolated ones a few 1e-3.
    """
    nx_fine = int(round(grid.nx * RICHARDSON_RATIO / 2)) * 2
    fine = FDGrid(nx_fine)
    r2 = (grid.nx / nx_fine) ** -2
    coarse_chart = fd_band_chart(p_grid, delta, n_bands, grid, shape)
    fine_chart = fd_band_chart(p_grid, delta, n_bands, fine, shape)
    out = fine_chart.copy()
    out[:, 1:] = (r2 * fine_chart[:, 1:] - coarse_chart[:, 1:]) / (r2 - 1.0)
    return out


def fd_supercell_interface(
    delta: float,
    n_cells_per_side: int,
    grid: FDGrid,
    shape: ObstacleShape,
    gap_center: float,
    n_candidates: int = 1,
):
    """Interface eigenpairs of the Dirichlet-truncated joint structure.

    Returns (lambda_nearest, candidates, mode, meta): candidates are the
    n_candidates eigenvalues nearest gap_center (sorted by distance to
    it), mode is the grid eigenvector of the nearest one.  The default
    computes only that one eigenpair: the in-gap eigenvalue is isolated,
    so ARPACK converges it without resolving the bulk eigenvalues that
    crowd both gap edges (9 shift-invert solves on the 96-per-unit,
    8-cell supercell, where 6 candidates take 82).  n_candidates > 1 is
    for tests that count the eigenvalues inside the gap.  The caller
    decides whether any candidate actually falls inside the gap
    (oracle-no-mode is a report, not an exception).

    Every obstacle is centered at mid-height, so the operator commutes with
    the mirror x2 -> 1/2 - x2, and the solve runs on the mirror-even sector
    alone: the lower half 0 <= x2 <= 1/4 with a reflecting centerline
    (_assemble's y_top), 33383 unknowns instead of 65839 on the 96-per-unit,
    8-cell supercell.  The in-gap mode is even; the odd sector (Dirichlet on
    the centerline) has no eigenvalue in the gap (its nearest to the center
    of the delta = 0.01 gap is 61.73).  mode and meta (X, Y, free) live on
    the half grid, whose column maxima are those of the whole-strip mode.
    OracleError when a layout center is off CENTER_HEIGHT.
    """
    if n_cells_per_side < 2:
        raise OracleError("n_cells_per_side must be >= 2")
    check_resolution(grid, shape)
    centers = joint_centers(delta, n_cells_per_side)
    if np.any(centers[:, 1] != CENTER_HEIGHT):
        raise OracleError("the mirror-even supercell needs every obstacle center "
                          f"at x2 = {CENTER_HEIGHT}")
    inside = _inside_factory(shape, centers)
    half = float(n_cells_per_side)
    mat, (X, Y, free) = _assemble(grid, inside, (-half, half), None, y_top=CENTER_HEIGHT)
    # the 5-point stencils are structurally symmetric: the minimum-degree
    # ordering of A + A^T puts 0.78M nonzeros into L + U of the 96-per-unit,
    # 8-cell supercell, where COLAMD puts 1.20M.  The cell solves keep
    # SuperLU's default: their eigenvalue brackets the crossing search, and
    # a different rounding of it moves the crossing and every number after
    # it within the root tolerance.
    # the isolated in-gap eigenvalue needs no large Krylov space: at the
    # center of the delta = 0.01 gap it takes 9 shift-invert solves with
    # SUPERCELL_KRYLOV = 4 vectors (5 and 8 take 9 too, 6 take 10) where
    # ARPACK's default 20 take 21.  Six candidates keep the default (82).
    vals, vecs = _arpack(mat, n_candidates, gap_center, "supercell eigensolver",
                         return_eigenvectors=True, ordering="MMD_AT_PLUS_A",
                         ncv=SUPERCELL_KRYLOV if n_candidates == 1 else None)
    order = np.argsort(np.abs(vals.real - gap_center))
    vals = vals.real[order]
    vecs = vecs[:, order]

    lead = vecs[:, 0]
    lead = np.real(lead * np.exp(-1j * np.angle(lead[np.argmax(np.abs(lead))])))
    mode = np.zeros(X.shape)
    mode[free] = lead
    meta = {"X": X, "Y": Y, "free": free}
    return vals[0], vals, mode, meta


def mode_decay_rate(mode: np.ndarray, X: np.ndarray, x_min: float, x_max: float):
    """Fit the log mode envelope against |x1| over [x_min, x_max].

    Column maxima are collapsed to one value per unit cell (the amplitude
    carries the lattice-periodic factor).  Returns (kappa, r_squared);
    kappa > 0 means exponential decay away from the interface.
    """
    col_x = X[:, 0]
    col_max = np.max(np.abs(mode), axis=1)
    xs, ys = [], []
    for sign in (-1, +1):
        for k in range(int(np.floor(x_min)), int(np.ceil(x_max))):
            sel = (sign * col_x >= max(k, x_min)) & (sign * col_x < min(k + 1, x_max))
            if np.any(sel) and np.max(col_max[sel]) > 0:
                j = np.argmax(col_max[sel])
                xs.append(abs(col_x[sel][j]))
                ys.append(np.log(col_max[sel][j]))
    xs = np.array(xs)
    ys = np.array(ys)
    if len(xs) < 4:
        raise OracleError("not enough cells for a decay fit")
    coeffs = np.polyfit(xs, ys, 1)
    pred = np.polyval(coeffs, xs)
    ss_res = np.sum((ys - pred) ** 2)
    ss_tot = np.sum((ys - np.mean(ys)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return -coeffs[0], r2
