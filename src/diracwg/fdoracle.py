"""Independent finite-difference reference solver.

Second-order 5-point discretization of -Laplace on the strip cell
(0,1) x (0,1/2): sound-hard walls are handled by mirror ghost rows, the
Floquet condition by a wrap in x1, and the obstacle Dirichlet
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

Every eigenproblem takes one path: shift-invert ARPACK on the condensation
of A - sigma I onto the boundary columns of unit cells (_Condensation), with
real banded LU factors of the cell interiors.  The supercell is a chain of
cells of two types, the -delta and the +delta cell (about 38 ms and 13 MB in
a fresh process on one CPU); the Bloch cell is one cell closed on itself,
factored once per chart and closed at each momentum (_bloch_bands).

Every matrix is real, assembled by one routine (_assemble) that works on the
free grid nodes alone and writes the CSR arrays directly from a per-node
entry table, so its transient memory is a few times the matrix it returns:
the traced peak is 3.1 times the 0.12 MB matrix of a supercell cell type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, lu_factor, lu_solve

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


def _assemble(grid: FDGrid, inside, x1_range, periodic: bool, y_top: float = 0.5):
    """Real sparse -Laplace matrix on x1_range x [0, y_top].

    ``periodic`` wraps the x1 ends onto each other (a unit cell,
    _cell_stencil: the Bloch phase enters only its condensation); otherwise
    both ends are Dirichlet-truncated.  The rows are
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

    cols = np.empty((n_unknown, 6), dtype=np.int32)
    vals = np.empty((n_unknown, 6))
    used = np.ones((n_unknown, 6), dtype=bool)

    def neighbor(axis: int, step: int):
        """Neighbor of each free node; free nodes of a Dirichlet-truncated
        grid never reach past its end columns, so the modulo wraps only the
        unit cell."""
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
        c = 3 * axis
        cols[:, c], cols[:, c + 1], cols[:, c + 2] = np.arange(n_unknown), idx_m, idx_p
        vals[:, c] = (1.0 / rho_m + 1.0 / rho_p) / denom
        vals[:, c + 1] = -1.0 / (rho_m * denom)
        vals[:, c + 2] = -1.0 / (rho_p * denom)
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


def _bloch_bands(delta: float, grid: FDGrid, shape: ObstacleShape | None, phases, k: int,
                 y_top: float = 0.5, what: str = "sparse eigensolver") -> list:
    """The k smallest eigenvalues, sorted, of the cell problem closed at each
    Bloch phase e^{ip} of ``phases``: one condensation of the cell at the
    shift CELL_SHIFT (_Condensation.ring), on a grid that resolves ``shape``.
    The cell starts in the middle of the wider gap between its obstacles,
    x1 = 1/2 for delta >= 0 and 0 otherwise, so its boundary column is free:
    it is the -|delta| pair, the +delta one shifted by half a period.
    """
    check_resolution(grid, shape)
    centers = pair_centers(-abs(delta)) if shape is not None else np.empty((0, 2))
    cell = _Condensation([_cell_stencil(grid, shape, centers, y_top)], CELL_SHIFT)
    return [np.sort(_arpack(cell.ring(phase), k, CELL_SHIFT, what,
                            return_eigenvectors=False).real) for phase in phases]


def fd_bloch_eigs(
    p: float,
    delta: float,
    n_eigs: int,
    grid: FDGrid,
    shape: ObstacleShape | None,
) -> np.ndarray:
    """Smallest Bloch eigenvalues of the (possibly dimerized) cell problem."""
    return _bloch_bands(delta, grid, shape, [np.exp(1j * p)], n_eigs)[0]


def fd_crossing_hint(grid: FDGrid, shape: ObstacleShape | None) -> float:
    """The first band at p = pi of the delta = 0 cell, fd_bloch_eigs(pi, 0,
    1, grid, shape)[0]: the FD estimate of the Dirac crossing.

    Solved on the mirror-even sector alone, the lower half 0 <= x2 <= 1/4
    with a reflecting centerline (946 unknowns instead of 1854 at nx 64).
    The odd sector is the same problem with Dirichlet on the centerline, so
    its eigenvalues lie above the even sector's, and the lowest eigenvalue
    of the whole cell is the even one.  The cell closes at the phase e^{i pi}
    as the exact real -1.0: the condensation and ARPACK run in real arithmetic.
    """
    [[lam]] = _bloch_bands(0.0, grid, shape, [-1.0], 1, CENTER_HEIGHT, "crossing hint eigensolver")
    return float(lam)


def _start_vector(n: int) -> np.ndarray:
    """Generic but fixed ARPACK start vector: reruns are byte-identical."""
    return np.random.default_rng(0).standard_normal(n)


def _arpack(inverse: spla.LinearOperator, k: int, sigma: float, what: str,
            return_eigenvectors: bool, ncv: int | None = None):
    """The k eigenvalues nearest sigma, by shift-invert ARPACK, of the matrix
    A whose (A - sigma I)^{-1} ``inverse`` applies (a condensation,
    _Condensation.chain or ring): at a real shift ARPACK's shift-invert mode
    reads A's shape and dtype from it and never applies A.  ``ncv`` is the
    size of ARPACK's Krylov space (default max(2k + 1, 20)).

    OracleError, naming ``what``, for a k ARPACK cannot serve, no
    convergence (ArpackError) or arguments ARPACK rejects (ValueError);
    other errors are bugs and pass through.
    """
    n = inverse.shape[0]
    if not 0 < k < n - 1:
        raise OracleError(f"{what}: {k} eigenvalues asked of {n} unknowns; "
                          f"ARPACK needs 0 < k < {n - 1}")
    try:
        return spla.eigs(inverse, k=k, sigma=sigma, which="LM", v0=_start_vector(n), ncv=ncv,
                         OPinv=inverse, return_eigenvectors=return_eigenvectors)
    except (spla.ArpackError, ValueError) as exc:
        raise OracleError(f"{what} failed: {exc}") from exc


def fd_band_chart(
    p_grid: np.ndarray,
    delta: float,
    n_bands: int,
    grid: FDGrid,
    shape: ObstacleShape | None,
) -> np.ndarray:
    """Bands lambda_n(p) on a p grid; rows (p, lambda_1..lambda_n).

    One cell condensation, closed at each momentum.  The coarse and fine
    charts of fd_band_chart_richardson (diracwg oracle, the test oracles of
    gapgreens.build_bloch_table and the benchmark's output checks).
    """
    bands = _bloch_bands(delta, grid, shape, np.exp(1j * np.asarray(p_grid)), max(n_bands + 2, 6))
    return np.column_stack([p_grid, np.array(bands)[:, :n_bands]])


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


class _BandedLU:
    """LAPACK banded LU (gbtrf) of a real sparse matrix; its solves (gbtrs)
    take every right-hand side of an (n, k) array, or a complex vector, in
    one call."""

    def __init__(self, mat):
        coo = mat.tocoo()
        self.kl = int(np.max(coo.row - coo.col, initial=0))
        self.ku = int(np.max(coo.col - coo.row, initial=0))
        band = np.zeros((2 * self.kl + self.ku + 1, mat.shape[0]))
        band[self.kl + self.ku + coo.row - coo.col, coo.col] = coo.data
        self.lu, self.piv, info = lapack.dgbtrf(band, self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            raise OracleError("FD eigensolver failed: singular shift-invert factor "
                              f"(gbtrf info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _real_map(lambda b: lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv)[0], rhs)


def _real_map(apply, x: np.ndarray) -> np.ndarray:
    """apply(x) for a real linear map ``apply``: a complex vector x goes in
    as its real and imaginary parts, two columns of one call."""
    if not np.iscomplexobj(x):
        return apply(x)
    parts = apply(np.stack([x.real, x.imag], axis=-1))
    return parts[:, 0] + 1j * parts[:, 1]


_BOUNDARY_COLUMN = ("the condensed Bloch cell and supercell need every obstacle at least one "
                    "grid step from its cell's boundary columns")


def _cell_stencil(grid: FDGrid, shape: ObstacleShape | None, centers: np.ndarray,
                  y_top: float = CENTER_HEIGHT):
    """One unit cell, a supercell cell type or the Bloch cell: (matrix, free)
    of the periodic _assemble with the obstacles at ``centers``.  Column 0 is
    the boundary column: its rows are its stencil, and column 1's west arm
    and column nx - 1's (wrapped) east arm couple the interior, columns
    1..nx - 1, to the boundary columns west and east of the cell.  That needs
    columns 0, 1 and nx - 1 free, so that the interior's first and last
    m = ny + 1 unknowns are columns 1 and nx - 1 and no arm to or from a
    boundary column is cut.
    """
    mat, (_, _, free) = _assemble(grid, _inside_factory(shape, centers), (0.0, 1.0), True,
                                  y_top)
    if not free[[0, 1, -1]].all():
        raise OracleError(_BOUNDARY_COLUMN)
    return mat, free


class _Condensation:
    """(A - sigma I)^{-1} by condensation on unit cells: the half supercell
    (chain) and the Bloch cell (ring).  ``stencils`` are the cell types'
    _cell_stencil.  An interior couples only to the boundary columns west and
    east of its cell, and a boundary column to itself (D, less sigma I) and
    to the edge columns of its two cells (W, E).  Each type's interior block
    K_t = A_II - sigma I is factored once (banded, bandwidth about
    m = ny + 1), with its responses R_t = K_t^{-1} [B_w B_e] to its west and
    east boundary columns.
    """

    def __init__(self, stencils, sigma: float):
        m = stencils[0][1].shape[1]
        # every boundary column has the plain 5-point stencil, whichever
        # cell's build it is read from: its arms are uncut
        sep = stencils[0][0]
        self.d = sep[:m, :m].toarray() - sigma * np.eye(m)
        self.w, self.e = sep[:m, -m:].toarray(), sep[:m, m:2 * m].toarray()
        self.m, self.factors = m, []
        for mat, _ in stencils:
            size = mat.shape[0] - m
            lu = _BandedLU(mat[m:, m:] - sigma * sp.identity(size))
            coupling = mat[m:, :m].toarray()  # column 1's and column nx - 1's arms
            edges = np.zeros((size, 2 * m))
            edges[:m, :m], edges[-m:, m:] = coupling[:m], coupling[-m:]
            self.factors.append((lu, lu.solve(edges)))

    def chain(self, cell_type: np.ndarray) -> spla.LinearOperator:
        """The half supercell of cells ``cell_type`` in _assemble's order
        (interior of cell 0, separator x1 = 1 - n, interior of cell 1, ...).
        The separators' Schur complement is block tridiagonal, factored once,

            S_ss = D - W R_a[last, e] - E R_b[first, w],
            S_s,s-1 = -W R_a[last, w],  S_s,s+1 = -E R_b[first, e]

        for cell a west and cell b east of separator s.  A solve is one
        batched interior pass per type, one separator solve and one batched
        back-substitution x_c = y_c - R_t (s west, s east) per type.
        """
        m, n_cells = self.m, len(cell_type)
        sizes = np.array([len(response) for _, response in self.factors])[cell_type]
        starts = np.concatenate([[0], np.cumsum(sizes + m)[:-1]])  # each cell's first unknown
        n = int(np.sum(sizes) + (n_cells - 1) * m)
        sep_index = starts[1:, None] - m + np.arange(m)
        types = []
        for t, (lu, response) in enumerate(self.factors):
            cells = np.flatnonzero(cell_type == t)
            index = starts[cells] + np.arange(len(response))[:, None]  # (size, cells of type t)
            types.append((cells, index, lu, response))
        n_sep = n_cells - 1
        schur = np.zeros((n_sep, m, n_sep, m))
        for s in range(n_sep):
            west, east = (self.factors[cell_type[c]][1] for c in (s, s + 1))
            schur[s, :, s] = self.d - self.w @ west[-m:, m:] - self.e @ east[:m, :m]
            if s > 0:
                schur[s, :, s - 1] = -self.w @ west[-m:, :m]
            if s < n_sep - 1:
                schur[s, :, s + 1] = -self.e @ east[:m, m:]
        schur = _BandedLU(sp.coo_matrix(schur.reshape(n_sep * m, n_sep * m)))

        def solve(rhs: np.ndarray) -> np.ndarray:
            first, last = np.empty((n_cells, m)), np.empty((n_cells, m))
            interiors = []
            for cells, index, lu, _ in types:
                y = lu.solve(rhs[index])
                first[cells], last[cells] = y[:m].T, y[-m:].T
                interiors.append(y)
            condensed = rhs[sep_index] - last[:-1] @ self.w.T - first[1:] @ self.e.T
            seps = schur.solve(condensed.reshape(-1, 1)).reshape(-1, m)
            out = np.empty(n)
            out[sep_index] = seps
            sides = np.zeros((n_cells + 1, m))  # sides[c], sides[c + 1]: west and east of cell c
            sides[1:-1] = seps
            for (cells, index, _, response), y in zip(types, interiors):
                out[index] = y - response @ np.vstack([sides[cells].T, sides[cells + 1].T])
            return out

        return spla.LinearOperator((n, n), matvec=solve, dtype=float)

    def ring(self, phase) -> spla.LinearOperator:
        """The Bloch cell, type 0 closed on itself: its boundary column is the
        separator west and, times ``phase`` = e^{ip}, east of it.  So the
        interior is x_I = y - R_p x_s with R_p = R_w + e^{ip} R_e, and the
        chain's formula with the last separator wrapping leaves the m x m
        S(p) = D - E R_p[first] - e^{-ip} W R_p[last]: one dense LU per
        momentum, real at a real phase.
        """
        m, (lu, response) = self.m, self.factors[0]
        back = np.conj(phase)
        first, last = (rows[:, :m] + phase * rows[:, m:] for rows in (response[:m], response[-m:]))
        schur = lu_factor(self.d - self.e @ first - back * (self.w @ last))

        def solve(rhs: np.ndarray) -> np.ndarray:
            y = lu.solve(rhs[m:])
            sep = lu_solve(schur, rhs[:m] - self.e @ y[:m] - back * (self.w @ y[-m:]))
            # R_p x_s = R (x_s, e^{ip} x_s) with the real R: a complex gemv of
            # R_p, between ARPACK's own, made a chart 5 times slower on 2 threads
            return np.concatenate([sep, y - _real_map(response.__matmul__,
                                                      np.concatenate([sep, phase * sep]))])

        n = m + len(response)
        return spla.LinearOperator((n, n), matvec=solve, dtype=schur[0].dtype)


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

    The half supercell is never assembled: its 2 n_cells_per_side unit
    cells are of two types (the -delta and the +delta cell), condensed on the
    separator columns at the integers (_Condensation.chain; 375 unknowns at
    the default size).  A cell's type is the set of its obstacles' centers
    relative to its west column, each obstacle in the cell of its center.
    OracleError when a layout center is off CENTER_HEIGHT, or an obstacle
    comes within one grid step of its cell's boundary columns.
    """
    if n_cells_per_side < 2:
        raise OracleError("n_cells_per_side must be >= 2")
    check_resolution(grid, shape)
    centers = joint_centers(delta, n_cells_per_side)
    if np.any(centers[:, 1] != CENTER_HEIGHT):
        raise OracleError("the mirror-even supercell needs every obstacle center "
                          f"at x2 = {CENTER_HEIGHT}")
    west = np.floor(centers[:, 0])  # the west column of each obstacle's cell
    reach = float(np.sum(np.abs(shape.fourier_cos_coeffs))) + grid.h  # r(theta) <= sum |c_j|
    if np.any(centers[:, 0] - west <= reach) or np.any(west + 1.0 - centers[:, 0] <= reach):
        raise OracleError(_BOUNDARY_COLUMN)
    type_centers, stencils = [], []
    cell_type = np.empty(2 * n_cells_per_side, dtype=int)
    for c, x0 in enumerate(range(-n_cells_per_side, n_cells_per_side)):
        local = centers[west == x0] - np.array([x0, 0.0])
        # the cells of one half differ by the rounding of their shifts
        t = next((t for t, seen in enumerate(type_centers) if seen.shape == local.shape
                  and np.allclose(seen, local, rtol=0.0, atol=1e-12)), None)
        if t is None:
            t = len(stencils)
            type_centers.append(local)
            stencils.append(_cell_stencil(grid, shape, local))
        cell_type[c] = t
    inverse = _Condensation(stencils, gap_center).chain(cell_type)
    # the isolated in-gap eigenvalue needs no large Krylov space: at the
    # center of the delta = 0.01 gap it takes 9 shift-invert solves with
    # SUPERCELL_KRYLOV = 4 vectors (5 and 8 take 9 too, 6 take 10) where
    # ARPACK's default 20 take 21.  Six candidates keep the default (82).
    vals, vecs = _arpack(inverse, n_candidates, gap_center, "supercell eigensolver",
                         return_eigenvectors=True,
                         ncv=SUPERCELL_KRYLOV if n_candidates == 1 else None)
    order = np.argsort(np.abs(vals.real - gap_center))
    vals = vals.real[order]
    vecs = vecs[:, order]

    nx, cell_free = grid.nx, [free for _, free in stencils]
    free = np.zeros((2 * n_cells_per_side * nx + 1, cell_free[0].shape[1]), dtype=bool)
    for c, t in enumerate(cell_type):
        free[c * nx] = c > 0  # the separators; the end columns are Dirichlet
        free[c * nx + 1:(c + 1) * nx] = cell_free[t][1:]
    X, Y = np.meshgrid(-float(n_cells_per_side) + grid.h * np.arange(free.shape[0]),
                       grid.h * np.arange(free.shape[1]), indexing="ij")
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
