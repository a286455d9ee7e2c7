"""Finite-difference reference solver."""

import tracemalloc

import numpy as np
import pytest

from diracwg import fdoracle
from diracwg.errors import OracleError
from diracwg.fdoracle import (
    FDGrid,
    fd_bloch_eigs,
    fd_band_chart_richardson,
    fd_crossing_hint,
    fd_supercell_interface,
)
from diracwg.geometry import (
    CENTER_HEIGHT, _inside, _radius, joint_centers, make_shape, pair_centers,
)


def test_empty_strip_first_eigenvalue():
    vals = fd_bloch_eigs(1.0, 0.0, 3, FDGrid(64), None)
    assert abs(vals[0] - 1.0) < 5e-4  # p^2 with O(h^2) error


def test_momentum_reversal_symmetry(shape):
    a = fd_bloch_eigs(np.pi / 3, 0.0, 2, FDGrid(64), shape)
    b = fd_bloch_eigs(2 * np.pi - np.pi / 3, 0.0, 2, FDGrid(64), shape)
    assert np.max(np.abs(a - b)) < 1e-8


def test_h2_convergence_order(shape):
    # edge-corrected stencils: eigenvalue error ~ C h^2.  The grids start at
    # 64, the default numerics.table_fd_nx and the coarse grid the Richardson
    # chart extrapolates from; the resolution guard (NODES_ACROSS) refuses
    # coarser ones such as 48 (9.6 nodes across the disk)
    lams = {}
    for nx in (64, 128, 256):
        lams[nx] = fd_bloch_eigs(np.pi, 0.0, 1, FDGrid(nx), shape)[0]
    rate = np.log2(abs(lams[64] - lams[128]) / abs(lams[128] - lams[256]))
    assert 1.7 < rate < 2.3


def shortley_weller(grid, inside, x1_range, bloch_phase, y_top=0.5):
    """Dense -Laplace of _assemble's problem, built node by node and arm by arm."""
    h, periodic = grid.h, bloch_phase is not None
    n_cols = round((x1_range[1] - x1_range[0]) / h) + (not periodic)
    mirror = round(2 * y_top / h)  # the ghost of row j is row mirror - j
    xs, ys = x1_range[0] + h * np.arange(n_cols), h * np.arange(mirror // 2 + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    solid = inside(np.column_stack([X.ravel(), Y.ravel()])).reshape(X.shape)
    free = ~solid
    if not periodic:
        free[[0, -1]] = False
    number = -np.ones(X.shape, dtype=int)
    number[free] = np.arange(np.count_nonzero(free))
    mat = np.zeros((np.count_nonzero(free),) * 2,
                   dtype=complex if np.iscomplexobj(bloch_phase) else float)
    for a, b in zip(*np.nonzero(free)):
        here, row = np.array([xs[a], ys[b]]), number[a, b]
        for axis in (0, 1):
            arms = []
            for step in (-1, 1):
                if axis == 0:
                    na, nb = (a + step) % n_cols, b
                    wraps = not 0 <= a + step < n_cols
                    phase = (bloch_phase if step > 0 else np.conj(bloch_phase)) if wraps else 1.0
                else:
                    na, nb, phase = a, abs(b + step), 1.0  # row -1 is row 1
                    nb = mirror - nb if nb > mirror // 2 else nb
                to = here + h * step * np.eye(2)[axis]
                rho = (fdoracle._edge_fractions(here[None], to[None], inside)[0]
                       if solid[na, nb] else 1.0)
                arms.append((rho, number[na, nb] if free[na, nb] else None, phase))
            (rho_m, _, _), (rho_p, _, _) = arms
            denom = 0.5 * (rho_m + rho_p) * h * h
            mat[row, row] += (1.0 / rho_m + 1.0 / rho_p) / denom
            for rho, col, phase in arms:
                if col is not None:  # a free neighbor; a solid one is Dirichlet
                    mat[row, col] += -np.asarray(phase, dtype=mat.dtype) / (rho * denom)
    return mat


def _joint_inside(shape, cells):
    return fdoracle._inside_factory(shape, joint_centers(0.01, cells))


@pytest.mark.parametrize("nx", [16, 18])
def test_assembly_matches_node_by_node_stencils(shape, nx):
    # the free-node CSR assembly against plain loops, entry for entry: a
    # phased delta = 0.01 cell, the crossing hint's half cell with the real
    # phase -1, the half supercell with the centerline on a row (16) and
    # between rows, where the top row is its own ghost (18), and the
    # full-height strip
    cell = fdoracle._inside_factory(shape, pair_centers(0.01))
    cell0 = fdoracle._inside_factory(shape, pair_centers(0.0))
    supercell = _joint_inside(shape, 2)
    for args, kwargs in (((cell, (0.0, 1.0), np.exp(1.3j)), {}),
                         ((cell0, (0.0, 1.0), -1.0), {"y_top": CENTER_HEIGHT}),
                         ((supercell, (-2.0, 2.0), None), {"y_top": CENTER_HEIGHT}),
                         ((supercell, (-2.0, 2.0), None), {})):
        mat, _ = fdoracle._assemble(FDGrid(nx), *args, **kwargs)
        ref = shortley_weller(FDGrid(nx), *args, **kwargs)
        assert mat.dtype == ref.dtype
        assert np.array_equal(mat.toarray(), ref)


@pytest.mark.parametrize("y_top", [0.5, CENTER_HEIGHT])
def test_real_phase_is_the_real_part_of_the_complex_one(shape, y_top):
    # the phase e^{i pi} as the exact real -1 gives a float64 matrix with the
    # complex one's pattern and the real parts of its values
    inside = fdoracle._inside_factory(shape, pair_centers(0.0))
    real, _ = fdoracle._assemble(FDGrid(64), inside, (0.0, 1.0), -1.0, y_top)
    cplx, _ = fdoracle._assemble(FDGrid(64), inside, (0.0, 1.0), np.exp(1j * np.pi), y_top)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.array_equal(real.indptr, cplx.indptr)
    assert np.array_equal(real.indices, cplx.indices)
    assert np.all(np.abs(real.data - cplx.data.real) <= 2e-16 * np.abs(cplx.data.real))


def test_one_bisection_per_assembly(shape):
    # the inside flags take one call and the arms cut by an obstacle, in all
    # four directions, one bisection of 46 calls: on a dimerized cell and on
    # the default half supercell
    cell = fdoracle._inside_factory(shape, pair_centers(0.01))
    supercell = _joint_inside(shape, 8)
    for nx, (inside, args, kwargs) in ((64, (cell, ((0.0, 1.0), np.exp(1.3j)), {})),
                                       (96, (supercell, ((-8.0, 8.0), None),
                                             {"y_top": CENTER_HEIGHT}))):
        calls = []

        def counting(pts, inside=inside):
            calls.append(len(pts))
            return inside(pts)

        fdoracle._assemble(FDGrid(nx), counting, *args, **kwargs)
        assert len(calls) <= 47


@pytest.mark.parametrize("nx", [64, 62])
@pytest.mark.parametrize("coeffs", ((0.1,), (0.1, 0.015, -0.005)))
def test_crossing_hint_is_the_cells_first_band_at_pi(nx, coeffs):
    # the mirror-even half cell in real arithmetic gives the whole cell's
    # lowest eigenvalue at p = pi: with the centerline on row nx/4 (64) and
    # between rows (62), for the disk and a 3-harmonic shape
    shape = make_shape(coeffs, 64)
    whole = fd_bloch_eigs(np.pi, 0.0, 1, FDGrid(nx), shape)[0]
    assert abs(fd_crossing_hint(FDGrid(nx), shape) - whole) <= 1e-10 * whole


def test_assembly_peak_is_a_few_matrices(shape):
    # a large grid, the default half supercell (nx 96, 8 cells, half height),
    # is assembled on its free nodes straight into CSR arrays: numpy's
    # buffers at the traced peak stay within 4 times the matrix returned
    inside = _joint_inside(shape, 8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mat, _ = fdoracle._assemble(FDGrid(96), inside, (-8.0, 8.0), None,
                                    y_top=CENTER_HEIGHT)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


def test_grid_must_resolve_obstacle(shape):
    with pytest.raises(OracleError):
        fd_bloch_eigs(1.0, 0.0, 1, FDGrid(32), shape)
    with pytest.raises(OracleError, match="does not resolve the obstacle"):
        fd_crossing_hint(FDGrid(32), shape)


def test_supercell_grid_must_resolve_obstacle(shape):
    # the supercell holds its grid to the cell oracle's limit
    with pytest.raises(OracleError, match="does not resolve the obstacle"):
        fd_supercell_interface(0.01, 2, FDGrid(32), shape, 52.6)


def test_supercell_unique_in_gap(shape, interface_result, fd_supercell):
    e1, e2 = interface_result.gap
    in_gap = fd_supercell[96]["in_gap"]
    assert len(in_gap) == 1


def direct_supercell(shape, nx, cells, k, center, y_top=CENTER_HEIGHT, ncv=None):
    """The k eigenpairs nearest ``center`` of the assembled supercell matrix
    (_assemble on the whole supercell; by default its mirror-even half), by
    ARPACK's own shift-invert (SuperLU's default factor of the whole
    matrix), from the supercell's start vector: (vals, vecs, (X, Y, free))."""
    inside = fdoracle._inside_factory(shape, joint_centers(0.01, cells))
    mat, layout = fdoracle._assemble(FDGrid(nx), inside, (-float(cells), float(cells)), None,
                                     y_top)
    vals, vecs = fdoracle._arpack(mat, k, center, "direct supercell", return_eigenvectors=True,
                                  ncv=ncv)
    return vals.real, vecs, layout


def _full_height_eigs(shape, nx, cells, k, center):
    """The k eigenvalues nearest ``center`` of the whole-strip supercell matrix
    (both mirror sectors), sorted."""
    vals, _, _ = direct_supercell(shape, nx, cells, k, center, y_top=0.5)
    return np.sort(vals)


@pytest.mark.parametrize("cells", [2, 3])
@pytest.mark.parametrize("nx", [64, 62])
def test_condensed_supercell_matches_direct_solve(shape, nx, cells):
    # the cell condensation against ARPACK's shift-invert of the assembled
    # half supercell, with the centerline on row nx/4 (64) and between rows
    # (62): the same eigenvalue, the same mode up to sign and the same grid
    center = 52.67
    vals, vecs, (X, Y, free) = direct_supercell(shape, nx, cells, 1, center,
                                                ncv=fdoracle.SUPERCELL_KRYLOV)
    lam, _, mode, meta = fd_supercell_interface(0.01, cells, FDGrid(nx), shape, center)
    assert abs(lam - vals[0]) <= 1e-12 * abs(vals[0])
    assert np.array_equal(meta["X"], X) and np.array_equal(meta["Y"], Y)
    assert np.array_equal(meta["free"], free)
    ref = vecs[:, 0].real
    overlap = np.dot(mode[free], ref) / (np.linalg.norm(mode) * np.linalg.norm(ref))
    assert abs(overlap) >= 1 - 1e-12


@pytest.mark.parametrize("cells", [3, 8])
def test_one_factor_per_cell_type(shape, monkeypatch, cells):
    # the -delta and the +delta cell are each built and factored once,
    # whatever the number of cells; the one other factor is the Schur
    # complement on the 2 cells - 1 separator columns of nx/4 + 1 nodes
    nx = 64
    builds, factors = [], []
    real_assemble, real_lu = fdoracle._assemble, fdoracle._BandedLU

    def assemble(grid, inside, x1_range, *args, **kwargs):
        builds.append(x1_range)
        return real_assemble(grid, inside, x1_range, *args, **kwargs)

    def banded_lu(mat):
        factors.append(mat.shape[0])
        return real_lu(mat)

    monkeypatch.setattr(fdoracle, "_assemble", assemble)
    monkeypatch.setattr(fdoracle, "_BandedLU", banded_lu)
    fd_supercell_interface(0.01, cells, FDGrid(nx), shape, 52.67)
    assert builds == [(0.0, 1.0)] * 2
    assert len(factors) == 3 and factors[2] == (2 * cells - 1) * (nx // 4 + 1)


@pytest.mark.parametrize("offset", [0.1 + 0.5 / 64, 0.05])
def test_supercell_refuses_obstacle_at_boundary_column(shape, monkeypatch, offset):
    # the condensation needs every obstacle at least one grid step from its
    # cell's boundary columns: an obstacle half a grid step from the column
    # x1 = -1 and one across it are refused by name
    moved = joint_centers(0.01, 2)
    moved[2, 0] = -1.0 + offset  # the -0.74 obstacle of the cell [-1, 0]
    monkeypatch.setattr(fdoracle, "joint_centers", lambda *args: moved)
    with pytest.raises(OracleError, match="one grid step from its cell's boundary columns"):
        fd_supercell_interface(0.01, 2, FDGrid(64), shape, 52.67)


@pytest.mark.parametrize("nx", [64, 62])
def test_even_sector_is_the_full_height_eigenvalue(shape, nx):
    # the mirror-even half grid gives the whole strip's eigenvalue nearest
    # a center inside the delta = 0.01 gap (49.14, 56.21): with the
    # centerline on row nx/4 (64) and between rows, where the top row is its
    # own ghost (62 = 2 mod 4)
    center = 52.67
    [full] = _full_height_eigs(shape, nx, 3, 1, center)
    lam, _, mode, meta = fd_supercell_interface(0.01, 3, FDGrid(nx), shape, center)
    assert abs(lam - full) <= 1e-12 * full
    assert mode.shape == meta["X"].shape == (6 * nx + 1, nx // 4 + 1)
    assert np.max(meta["Y"]) <= 0.25


def test_full_height_in_gap_eigenvalues_are_the_even_sectors(shape, interface_result,
                                                              fd_supercell):
    # the odd sector adds no eigenvalue to the gap: the six eigenvalues of the
    # whole-strip 8-cell supercell nearest the gap center hold exactly the
    # even sector's in-gap ones, so test_supercell_unique_in_gap speaks of the
    # whole operator
    e1, e2 = interface_result.gap
    full = _full_height_eigs(shape, 64, 8, 6, 0.5 * (e1 + e2))
    in_gap = full[(full > e1) & (full < e2)]
    even = np.sort(fd_supercell[64]["in_gap"])
    assert len(in_gap) == len(even) == 1
    assert np.max(np.abs(in_gap - even)) <= 1e-12 * even[0]


def test_supercell_needs_centers_at_mid_height(shape, monkeypatch):
    # the even sector is the whole problem only for a mirror-symmetric layout
    lifted = joint_centers(0.01, 2) + np.array([0.0, 0.01])
    monkeypatch.setattr(fdoracle, "joint_centers", lambda *args: lifted)
    with pytest.raises(OracleError, match="x2 = 0.25"):
        fd_supercell_interface(0.01, 2, FDGrid(64), shape, 52.67)


def test_supercell_truncation_insensitive(shape, interface_result):
    center = 0.5 * sum(interface_result.gap)
    lam8, _, _, _ = fd_supercell_interface(0.01, 8, FDGrid(64), shape, center)
    lam16, _, _, _ = fd_supercell_interface(0.01, 16, FDGrid(64), shape, center)
    assert abs(lam16 - lam8) < 1e-4 * lam8


def test_supercell_default_is_the_nearest_eigenpair(shape, interface_result):
    # the default asks ARPACK for the one eigenpair nearest the gap center;
    # it is the nearest of six, with the same eigenvector up to phase
    center = 0.5 * sum(interface_result.gap)
    lam1, cands1, mode1, _ = fd_supercell_interface(0.01, 3, FDGrid(64), shape, center)
    lam6, cands6, mode6, _ = fd_supercell_interface(0.01, 3, FDGrid(64), shape, center,
                                                    n_candidates=6)
    assert len(cands1) == 1 and len(cands6) == 6
    assert cands1[0] == lam1 and cands6[0] == lam6
    assert abs(lam1 - lam6) <= 1e-13 * abs(lam6)
    overlap = np.vdot(mode1, mode6) / (np.linalg.norm(mode1) * np.linalg.norm(mode6))
    assert abs(overlap) >= 1 - 1e-12


def test_supercell_mode_profile_symmetry(shape, interface_result):
    center = 0.5 * sum(interface_result.gap)
    _, _, mode, meta = fd_supercell_interface(0.01, 8, FDGrid(96), shape, center)
    X = meta["X"]
    col = np.max(np.abs(mode), axis=1)
    # per-cell envelope, compared between the two halves; the joint differs
    # from its mirror by the O(delta) lattice offset
    left, right = [], []
    for k in range(1, 4):
        sel_r = (X[:, 0] >= k) & (X[:, 0] < k + 1)
        sel_l = (X[:, 0] <= -k) & (X[:, 0] > -(k + 1))
        right.append(np.max(col[sel_r]))
        left.append(np.max(col[sel_l]))
    dev = np.max(np.abs(np.array(left) - np.array(right)) / np.array(right))
    assert dev < 0.05


def test_shift_invert_factor_matches_plain_eigs(shape):
    # the supercell's own shift-invert operator (the cell condensation of
    # A - sigma I) gives the eigenvalues of ARPACK's default shift-invert on
    # the assembled half supercell
    inside = fdoracle._inside_factory(shape, joint_centers(0.01, 2))
    mat, _ = fdoracle._assemble(FDGrid(64), inside, (-2.0, 2.0), None, y_top=CENTER_HEIGHT)
    n, sigma = mat.shape[0], 52.67
    ref = fdoracle.spla.eigs(mat, k=6, sigma=sigma, which="LM",
                             v0=fdoracle._start_vector(n), return_eigenvectors=False)
    _, vals, _, _ = fd_supercell_interface(0.01, 2, FDGrid(64), shape, sigma, n_candidates=6)
    ref, vals = np.sort(ref.real), np.sort(vals)
    assert np.max(np.abs(vals - ref)) < 1e-10 * np.max(np.abs(ref))


def test_band_chart_richardson_consistency(shape):
    chart = fd_band_chart_richardson(np.array([np.pi]), 0.0, 2, FDGrid(64), shape)
    # the two folded curves are exactly degenerate at the fold momentum
    assert abs(chart[0, 1] - chart[0, 2]) < 1e-6 * chart[0, 1]


def test_eigensolver_failures_are_named(monkeypatch):
    # a k that ARPACK cannot serve and an ARPACK failure are oracle failures
    # that say so; an error that is a bug passes through unwrapped
    grid = FDGrid(16)  # 16 x 9 = 144 unknowns on the empty strip
    with pytest.raises(OracleError, match="200 eigenvalues asked of 144 unknowns"):
        fd_bloch_eigs(1.0, 0.0, 200, grid, None)

    def no_convergence(*args, **kwargs):
        raise fdoracle.spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(fdoracle.spla, "eigs", no_convergence)
    with pytest.raises(OracleError, match="sparse eigensolver failed: .*no convergence"):
        fd_bloch_eigs(1.0, 0.0, 3, grid, None)

    def bug(*args, **kwargs):
        raise TypeError("unexpected keyword")

    monkeypatch.setattr(fdoracle.spla, "eigs", bug)
    with pytest.raises(TypeError):
        fd_bloch_eigs(1.0, 0.0, 3, grid, None)



def inside_all_centers(shape, centers, pts, margin=0.0):
    """The polar inside test against every obstacle center."""
    coeffs = np.asarray(shape.fourier_cos_coeffs)
    flags = np.zeros(len(pts), dtype=bool)
    for c in centers:
        d = pts - c
        r_bd = _radius(coeffs, np.arctan2(d[:, 1], d[:, 0]))
        flags |= np.hypot(d[:, 0], d[:, 1]) < r_bd + margin
    return flags


@pytest.mark.parametrize("coeffs", ((0.1,), (0.1, 0.015, -0.005)))
def test_supercell_inside_test_matches_all_centers_scan(coeffs):
    # the x1 prefilter keeps the flags of the scan over all 32 obstacles:
    # on the supercell grid and on points a relative 1e-12 inside and
    # outside every boundary, with the margins of the field and sample
    # point tests as well
    shape = make_shape(coeffs, 64)
    centers = joint_centers(0.01, 8)
    inside = fdoracle._inside_factory(shape, centers)
    h = FDGrid(96).h
    X, Y = np.meshgrid(-8.0 + h * np.arange(16 * 96 + 1), h * np.arange(49), indexing="ij")
    grid_pts = np.column_stack([X.ravel(), Y.ravel()])
    theta = 2 * np.pi * np.arange(97) / 97
    ring = _radius(np.asarray(coeffs), theta)[:, None] * np.column_stack([np.cos(theta),
                                                                         np.sin(theta)])
    edge_pts = np.concatenate([c + scale * ring for c in centers
                               for scale in (1 - 1e-12, 1 + 1e-12)])
    for pts in (grid_pts, edge_pts):
        assert np.array_equal(inside(pts), inside_all_centers(shape, centers, pts))
        for margin in (-1e-12, 0.04, 0.06):
            assert np.array_equal(_inside(shape, centers, pts, margin),
                                  inside_all_centers(shape, centers, pts, margin))
    assert inside(edge_pts).sum() == len(edge_pts) // 2
