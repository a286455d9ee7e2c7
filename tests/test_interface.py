"""Junction operator and the in-gap bound state."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from diracwg import bands, gapgreens, interface, qpgreens
from diracwg.bands import GapInterval, find_band_lambda, gap_interval
from diracwg.errors import AssemblyError, NoBandError, NoModeError, ReconstructionError
from diracwg.gapgreens import ZoneFibers, _line_fibers, gdelta_matrix
from diracwg.geometry import make_disk, pair_centers
from diracwg.interface import (
    HALF_SHIFT,
    InterfaceModeResult,
    _log_quadrature_matrix,
    assemble_interface_operator,
    even_trace_overlap,
    find_interface_eigenvalue,
    gamma_nodes,
    reconstruct_interface_mode,
)
from diracwg.layerops import inside_obstacles, weighted
from diracwg.qpgreens import LOG_COEFF, kernel_blocks


# the gap interval of small_zone: its edges, c = 0.9 of a first-order
# half-width 3.9 / 0.9
SMALL_GAP = GapInterval(e1=48.9, e2=56.7, delta=0.01, c=0.9, h=3.9 / 0.9)
# an interval well inside the zone's admissible window: between its trimmed
# ends and that window, each side strip holds energies to count
NARROW_GAP = replace(SMALL_GAP, e1=50.0, e2=55.6)


@pytest.fixture(scope="module")
def root_lambda(interface_result):
    return interface_result.lambda_star_mode


def test_gauss_nodes_weight_sum():
    s, w = gamma_nodes(32)
    assert abs(np.sum(w) - 0.5) < 1e-14
    assert np.all((s > 0) & (s < 0.5))


def test_weighted_operator_symmetry(gap_zone, root_lambda):
    op = assemble_interface_operator(root_lambda, 32,
                                     replace(gap_zone, p_nodes=gap_zone.p_nodes[::2]))
    W = weighted(op.matrix, op.s_weights)
    assert np.linalg.norm(W - W.T) < 1e-4 * np.linalg.norm(W)


def test_skew_junction_is_refused(small_zone, monkeypatch):
    # the junction's inertia is counted, so it passes the Hermitian check
    # that every counted matrix passes; a skew part beyond HERMITIAN_TOL in
    # one of its parts is refused at the first energy
    original = interface._log_quadrature_matrix

    def skewed(s, w):
        L = original(s, w)
        L[0, 1] += 1e-6 * np.max(np.abs(L))
        return L

    monkeypatch.setattr(interface, "_log_quadrature_matrix", skewed)
    with pytest.raises(AssemblyError, match=r"junction at lambda=\d+\.\d{6} is not Hermitian"):
        find_interface_eigenvalue(SMALL_GAP, small_zone, m_nodes=24)


def test_minus_delta_fiber_is_half_period_shift(small_zone):
    # the -delta structure is the +delta one translated by half a period, so
    # its resolvent fiber on Gamma is the +delta fiber on Gamma + e1/2; the
    # interface operator reads the -delta half-guide off this identity
    lam = 52.63
    s, _ = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    shifted = gamma + HALF_SHIFT

    def fiber(line, p, delta):
        # G and S of one line at one momentum: a sweep of a one-node zone
        zone = replace(small_zone, delta=delta, p_nodes=np.array([p]))
        fibers, rhs = ZoneFibers.solve([line], lam, zone)
        return [part[0] for part in _line_fibers(fibers, rhs)]

    for p in (0.0, 0.7, np.pi):
        g_minus, s_minus = fiber(gamma, p, -0.01)
        g_plus, s_plus = fiber(shifted, p, +0.01)
        for a, b in ((g_minus, g_plus), (s_minus, s_plus)):
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_fused_junction_matches_single_lines(small_zone):
    # both Gamma lines share each fiber's factorization; the junction matrix
    # equals the one built from two single-line sweeps
    lam = 52.63
    s, w = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    log_part = LOG_COEFF * _log_quadrature_matrix(s, w)
    expected = 0.0
    for line in (gamma, gamma + HALF_SHIFT):
        [(_, smooth)], _ = gdelta_matrix([line], lam, small_zone)
        expected = expected + 2.0 * (smooth * w[None, :] + log_part)
    op = assemble_interface_operator(lam, 24, small_zone)
    assert np.max(np.abs(op.matrix - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_gamma_evaluation_block_is_rhs_adjoint(params):
    # G^e(Gamma, boundary) = G^e(boundary, Gamma)^H for real lam, on both
    # lines: the fiber takes the evaluation block from the right-hand side
    shape = make_disk(0.1, 16)
    centers = pair_centers(0.01)
    src = np.vstack([shape.nodes + centers[0], shape.nodes + centers[1]])
    s, _ = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    for p in (0.0, 0.7, np.pi, 4.1):
        for line in (gamma, gamma + HALF_SHIFT):
            a = kernel_blocks(line, src, p, 52.63, params)
            b = kernel_blocks(src, line, p, 52.63, params)
            b = b.conj().T
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("step, expected", [(1, 9), (2, 5)])
def test_one_assembly_per_fiber(small_zone, monkeypatch, step, expected):
    # n p-nodes give n // 2 + 1 fibers over the closed half zone, and one
    # junction evaluation assembles them all in one call, each fiber once,
    # for both Gamma lines
    calls = []
    real = gapgreens.assemble_T

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(gapgreens, "assemble_T", counted)
    zone = replace(small_zone, p_nodes=small_zone.p_nodes[::step])
    assemble_interface_operator(52.63, 24, zone)
    [momenta] = calls
    assert len(momenta) == expected
    assert np.array_equal(momenta, zone.p_nodes[:expected])


def test_gamma_block_work(small_zone, monkeypatch):
    # both lines share one geometry, whose split plan builds the momentum-free
    # tail cores of its three images once whatever lam, and recombines them
    # once per folded momentum (16 p-nodes: 9); ge_split sees only one
    # (u, |x2 - y2|, x2 + y2) row of the line blocks (u = 0) per orbit of the
    # argument swap and the mid-height mirror: of the 24 * 25 / 2 triangle
    # pairs, the 12 pairs (i, 23 - i) are their own images, so (300 + 12) / 2,
    # in one call per sweep that carries all 9 fibers' momenta for both lines
    cores, split_rows, split_ps = [], [], []
    real_core, real_split = qpgreens._tail_core, qpgreens.ge_split

    def core(u, *args):
        if np.all(u == 0):
            cores.append(len(u))
        return real_core(u, *args)

    def split(u, t1, t2, p, *args, **kwargs):
        if np.all(u == 0):
            split_rows.append(len(u))
            split_ps.append(len(p))
        return real_split(u, t1, t2, p, *args, **kwargs)

    monkeypatch.setattr(qpgreens, "_PLANS", {})
    monkeypatch.setattr(qpgreens, "_tail_core", core)
    monkeypatch.setattr(qpgreens, "ge_split", split)
    for lam in (52.63, 53.4):
        assemble_interface_operator(lam, 24, small_zone)
    assert cores == [156] * 3  # one plan: the axis and both wall images
    [line_plan] = [entry[-1] for key, entry in qpgreens._PLANS.items()
                   if key[0] == "symmetric" and not np.any(entry[-1].images[0][0])]
    assert len(line_plan.statics) == 9
    assert split_rows == [156] * 2
    assert split_ps == [9] * 2


def test_decay_fit_failure_is_named(small_zone):
    # a grid too short for the fit (under 4 cells) fails as a reconstruction
    # error, not as a finite-difference oracle failure
    op = assemble_interface_operator(52.63, 24,
                                     replace(small_zone, p_nodes=small_zone.p_nodes[::4]))
    result = InterfaceModeResult(
        gap=small_zone.edges, lambda_star_mode=52.63,
        density=np.ones(24), sigma_min_at_root=0.0, root_operator=op,
    )
    with pytest.raises(ReconstructionError, match="decay fit"):
        reconstruct_interface_mode(result, x_extent=2.0, nx_per_unit=4, ny=3)


def test_reconstruction_assembles_and_factors_nothing(small_zone, monkeypatch):
    # the grid, the stencil columns and the boundary points are evaluated on
    # the fibers the root's junction evaluation kept
    result = find_interface_eigenvalue(SMALL_GAP, small_zone, m_nodes=24)
    calls = []

    def counted(name):
        real = getattr(gapgreens, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("assemble_T", "ldl_factor"):
        monkeypatch.setattr(gapgreens, name, counted(name))
    reconstruct_interface_mode(result, nx_per_unit=6, ny=5)
    assert calls == []
    assert result.interface_residuals["dirichlet"] < 1e-2


def test_search_keeps_only_the_roots_fibers(small_zone, monkeypatch):
    # while the search runs, the fibers alive at each new assembly are at
    # most the previous energy's and the root's; afterwards only the root's
    kept, alive_at = [], []
    real = interface.assemble_interface_operator

    def alive():
        gc.collect()
        return {lam for lam, ref in kept if ref() is not None}

    def tracked(*args, **kwargs):
        alive_at.append(alive())
        op = real(*args, **kwargs)
        kept.append((op.lam, weakref.ref(op.fibers)))
        return op

    monkeypatch.setattr(interface, "assemble_interface_operator", tracked)
    result = find_interface_eigenvalue(NARROW_GAP, small_zone, m_nodes=24)
    root = result.lambda_star_mode
    assert kept[-1][0] != root  # a side strip was counted after the root
    for (previous, _), seen in zip(kept, alive_at[1:]):
        assert seen <= {previous, root}
    assert alive() == {root}
    assert dict(kept)[root]() is result.root_operator.fibers


def test_one_eigvalsh_per_junction_energy(small_zone, monkeypatch):
    # the scan, the pencil's bracket ends and iterates and the side strips
    # all read their energy's one counted spectrum: one eigvalsh of a
    # junction-sized matrix per distinct energy, none recounted, and one
    # for the Gauss nodes of the solve (Golub-Welsch), computed once
    energies, junction_eigvalsh = [], []
    real_assemble, real_eigvalsh = interface.assemble_interface_operator, np.linalg.eigvalsh

    def assemble(lam, *args, **kwargs):
        energies.append(lam)
        return real_assemble(lam, *args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        if np.shape(a) == (24, 24):
            junction_eigvalsh.append(a)
        return real_eigvalsh(a, *args, **kwargs)

    interface.gamma_nodes.cache_clear()
    monkeypatch.setattr(interface, "assemble_interface_operator", assemble)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    find_interface_eigenvalue(NARROW_GAP, small_zone, m_nodes=24)
    assert len(energies) == len(set(energies)) > 3
    assert len(junction_eigvalsh) == len(energies) + 1


def test_gamma_nodes_are_shared_and_read_only():
    s, w = gamma_nodes(24)
    assert gamma_nodes(24)[0] is s
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_scan_ends_stay_in_the_zones_admissible_window(small_zone, monkeypatch):
    # an interval reaching past the zone's lower edge: clipped to the edge
    # and trimmed by EDGE_TRIM of the clipped width, its lower end would lie
    # inside the zone's pole margin, POLE_MARGIN_FACTOR / 2 of the zone's
    # own width; the scan starts at the admissible window's end instead
    gap = replace(SMALL_GAP, e1=48.0, e2=56.0)
    energies = []
    real = interface.assemble_interface_operator

    def assemble(lam, *args, **kwargs):
        energies.append(lam)
        return real(lam, *args, **kwargs)

    monkeypatch.setattr(interface, "assemble_interface_operator", assemble)
    result = find_interface_eigenvalue(gap, small_zone, m_nodes=24)
    lo = small_zone.admissible[0]
    assert energies[0] == lo > 48.9 + interface.EDGE_TRIM * (56.0 - 48.9)
    assert lo < result.lambda_star_mode < 56.0
    assert result.warnings == []


def test_root_without_fibers_is_refused(small_zone, monkeypatch):
    # a root that is not the last energy assembled has lost its fibers:
    # the search raises rather than solving them again
    monkeypatch.setattr(interface, "pencil_root", lambda spectrum, a, b: a)
    with pytest.raises(NoModeError, match="fibers were dropped"):
        find_interface_eigenvalue(SMALL_GAP, small_zone, m_nodes=24)


def test_uncertified_root_is_refused(small_zone, params, monkeypatch):
    # the count step holds a root, but sigma_min there must also pass the
    # band-point certificate, one constant for both searches; with the
    # factor at 0 neither a band root nor the interface root can
    monkeypatch.setattr(bands, "SIGMA_CERT_FACTOR", 0.0)
    with pytest.raises(NoBandError, match="not certified"):
        find_band_lambda(1.0, (46.5, 47.5), 0.0, make_disk(0.1, 16), params, band=1)
    with pytest.raises(NoModeError, match="not certified"):
        find_interface_eigenvalue(SMALL_GAP, small_zone, m_nodes=24)


def test_root_inside_certified_interval(interface_result, dirac_data):
    gap = gap_interval(dirac_data, 0.01, 0.9)
    assert gap.e1 < interface_result.lambda_star_mode < gap.e2
    assert interface_result.sigma_min_at_root < 1e-6


def test_root_count_unique(interface_result):
    assert interface_result.warnings == []


def test_matching_residuals(interface_result):
    res = interface_result.interface_residuals
    assert res["continuity"] < 5e-2
    assert res["derivative"] < 5e-2
    assert res["dirichlet"] < 1e-2


def test_field_is_the_dirichlet_value_inside_obstacles(interface_result, shape):
    # grid points inside an obstacle of their half-guide (+delta right of
    # Gamma, -delta left of it) hold 0, the Dirichlet value, unevaluated
    X, Y = np.meshgrid(interface_result.grid_x, interface_result.grid_y, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    delta = interface_result.root_operator.fibers.zone.delta
    inside = np.where(pts[:, 0] > 0, inside_obstacles(pts, delta, shape),
                      inside_obstacles(pts, -delta, shape))
    field = interface_result.field_samples.ravel()
    assert inside.any() and np.all(field[inside] == 0) and np.all(field[~inside] != 0)


def test_decay_fit(interface_result):
    assert interface_result.kappa > 0
    assert interface_result.r_squared > 0.95


def test_decay_fit_is_the_column_maxima_fit(interface_result):
    # the shared fit (fdoracle.mode_decay_rate) gives bit for bit the
    # per-cell column-maxima fit over 1 <= |x1| < 4 on the default grid
    x = interface_result.grid_x
    col_max = np.max(np.abs(interface_result.field_samples), axis=1)
    xs, ys = [], []
    for sign in (-1, +1):
        for k in range(1, 4):
            sel = (sign * x >= k) & (sign * x < k + 1)
            j = np.argmax(col_max[sel])
            xs.append(abs(x[sel][j]))
            ys.append(np.log(col_max[sel][j]))
    xs, ys = np.array(xs), np.array(ys)
    coeffs = np.polyfit(xs, ys, 1)
    ss_res = np.sum((ys - np.polyval(coeffs, xs)) ** 2)
    ss_tot = np.sum((ys - np.mean(ys)) ** 2)
    assert interface_result.kappa == float(-coeffs[0])
    assert interface_result.r_squared == float(1.0 - ss_res / ss_tot)


def test_fd_supercell_agreement(interface_result, fd_supercell):
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    dev = abs(interface_result.lambda_star_mode - fd_supercell["lambda_richardson"])
    assert dev < 0.2 * gap_width


def test_kappa_against_supercell(interface_result, fd_supercell):
    kap_fd = fd_supercell[96]["kappa"]
    assert abs(interface_result.kappa - kap_fd) < 0.25 * kap_fd


def test_density_sees_even_trace(interface_result, dirac_data, shape, params):
    overlap = even_trace_overlap(interface_result, dirac_data, shape, params)
    assert overlap > 0.5


@pytest.mark.slow
def test_node_count_stability(gap_zone, interface_result, dirac_data):
    # the root location is quadrature-stable in the interface node count
    gap = gap_interval(dirac_data, 0.01, 0.9)
    res24 = find_interface_eigenvalue(gap, gap_zone, m_nodes=24)
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    assert abs(res24.lambda_star_mode - interface_result.lambda_star_mode) < 1e-3 * gap_width


@pytest.mark.slow
def test_root_tracks_gap_center_across_delta(shape, params, dirac_data, interface_result):
    # second dimerization strength at reduced resolution: the root stays in
    # its certified interval and its offset from the crossing energy grows
    # at most linearly in delta (with a modest constant)
    from diracwg.gapgreens import GapZone

    delta2 = 0.015
    zone = GapZone.certify(dirac_data, +delta2, 16, shape, params)
    gap2 = gap_interval(dirac_data, delta2, 0.9)
    res2 = find_interface_eigenvalue(gap2, zone, m_nodes=24)
    assert gap2.e1 < res2.lambda_star_mode < gap2.e2
    d1 = abs(interface_result.lambda_star_mode - dirac_data.lambda_star)
    d2 = abs(res2.lambda_star_mode - dirac_data.lambda_star)
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    assert d2 < (delta2 / 0.01) * d1 + 0.1 * gap_width
