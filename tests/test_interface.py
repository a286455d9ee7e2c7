"""Junction operator and the in-gap bound state."""

from dataclasses import replace

import numpy as np
import pytest

from diracwg import gapgreens, interface, qpgreens
from diracwg.bands import GapInterval, gap_interval
from diracwg.errors import DomainError, NoModeError, ReconstructionError
from diracwg.gapgreens import _ge_block, _resolvent_fiber, gdelta_matrix
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
from diracwg.qpgreens import LOG_COEFF


@pytest.fixture(scope="module")
def root_lambda(interface_result):
    return interface_result.lambda_star_mode


def test_gauss_nodes_weight_sum():
    s, w = gamma_nodes(32)
    assert abs(np.sum(w) - 0.5) < 1e-14
    assert np.all((s > 0) & (s < 0.5))


def test_weighted_operator_symmetry(gap_zone, root_lambda):
    op = assemble_interface_operator(root_lambda, 0.01, 32,
                                     replace(gap_zone, p_nodes=gap_zone.p_nodes[::2]))
    W = op.weighted()
    assert np.linalg.norm(W - W.T) < 1e-4 * np.linalg.norm(W)


def test_minus_delta_fiber_is_half_period_shift(params):
    # the -delta structure is the +delta one translated by half a period, so
    # its resolvent fiber on Gamma is the +delta fiber on Gamma + e1/2; the
    # interface operator reads the -delta half-guide off this identity
    shape = make_disk(0.1, 16)
    lam = 52.63
    s, _ = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    shifted = gamma + HALF_SHIFT
    for p in (0.0, 0.7, np.pi):
        [(g_minus, s_minus)] = _resolvent_fiber([(gamma, gamma)], p, lam, -0.01, shape,
                                                params, gamma_smooth=True)
        [(g_plus, s_plus)] = _resolvent_fiber([(shifted, shifted)], p, lam, +0.01, shape,
                                              params, gamma_smooth=True)
        for a, b in ((g_minus, g_plus), (s_minus, s_plus)):
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_gamma_smooth_blocks_have_sources_as_targets(params):
    # a line block is evaluated on its upper triangle and mirrored
    shape = make_disk(0.1, 16)
    s, _ = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    with pytest.raises(DomainError):
        _resolvent_fiber([(gamma, gamma[:12])], 0.7, 52.63, 0.01, shape, params,
                         gamma_smooth=True)


def test_fused_junction_matches_single_lines(small_zone):
    # both Gamma lines share each fiber's factorization; the junction matrix
    # equals the one built from two single-line sweeps
    lam = 52.63
    s, w = gamma_nodes(24)
    gamma = np.column_stack([np.zeros_like(s), s])
    log_part = LOG_COEFF * _log_quadrature_matrix(s, w)
    expected = 0.0
    for line in (gamma, gamma + HALF_SHIFT):
        [(_, smooth)] = gdelta_matrix([(line, line)], lam, small_zone, gamma_smooth=True)
        expected = expected + 2.0 * (smooth * w[None, :] + log_part)
    op = assemble_interface_operator(lam, 0.01, 24, small_zone)
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
        prm = replace(params, p=p, lam=52.63)
        for line in (gamma, gamma + HALF_SHIFT):
            a = _ge_block(line, src, prm)
            b = _ge_block(src, line, prm).conj().T
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("step, expected", [(1, 9), (2, 5)])
def test_one_assembly_per_fiber(small_zone, monkeypatch, step, expected):
    # n p-nodes give n // 2 + 1 fibers over the closed half zone, and one
    # junction evaluation assembles T once per fiber for both Gamma lines
    calls = []
    real = gapgreens.assemble_T

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(gapgreens, "assemble_T", counted)
    zone = replace(small_zone, p_nodes=small_zone.p_nodes[::step])
    assemble_interface_operator(52.63, 0.01, 24, zone)
    assert len(calls) == expected


def test_gamma_block_work(small_zone, monkeypatch):
    # the lam-independent split part of a line block is built once per folded
    # momentum whatever lam (16 p-nodes: 9), and ge_split sees only the
    # distinct (u, |x2 - y2|, x2 + y2) rows: 24 * 25 / 2 of 24^2
    line_builds, split_rows = [], []
    real_static, real_split = qpgreens.split_static, gapgreens.ge_split

    def static(u, *args, **kwargs):
        if np.all(u == 0):
            line_builds.append(args[2])
        return real_static(u, *args, **kwargs)

    def split(u, *args, **kwargs):
        split_rows.append(len(u))
        return real_split(u, *args, **kwargs)

    monkeypatch.setattr(qpgreens, "_STATIC_CACHE", {})
    monkeypatch.setattr(qpgreens, "split_static", static)
    monkeypatch.setattr(gapgreens, "ge_split", split)
    for lam in (52.63, 53.4):
        assemble_interface_operator(lam, 0.01, 24, small_zone)
    assert len(line_builds) == 9
    assert split_rows == [300] * 18


def test_decay_fit_failure_is_named(small_zone):
    # a grid too short for the fit (under 4 cells) fails as a reconstruction
    # error, not as a finite-difference oracle failure
    op = assemble_interface_operator(52.63, 0.01, 24,
                                     replace(small_zone, p_nodes=small_zone.p_nodes[::4]))
    result = InterfaceModeResult(
        delta=0.01, gap=small_zone.edges, lambda_star_mode=52.63,
        density=np.ones(24), s_nodes=op.s_nodes, s_weights=op.s_weights,
        sigma_min_at_root=0.0, root_operator=op,
    )
    with pytest.raises(ReconstructionError, match="decay fit"):
        reconstruct_interface_mode(result, small_zone, x_extent=2.0, nx_per_unit=4, ny=3)


def test_uncertified_root_is_refused(small_zone, monkeypatch):
    # the count step holds a root, but sigma_min there must also pass the
    # band-point certificate; with the factor at 0 no root can
    gap = GapInterval(e1=48.9, e2=56.7, delta=0.01, c=0.9)
    monkeypatch.setattr(interface, "SIGMA_CERT_FACTOR", 0.0)
    with pytest.raises(NoModeError, match="not certified"):
        find_interface_eigenvalue(0.01, gap, small_zone, m_nodes=24)


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
    res24 = find_interface_eigenvalue(0.01, gap, gap_zone, m_nodes=24)
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
    res2 = find_interface_eigenvalue(delta2, gap2, zone, m_nodes=24)
    assert gap2.e1 < res2.lambda_star_mode < gap2.e2
    d1 = abs(interface_result.lambda_star_mode - dirac_data.lambda_star)
    d2 = abs(res2.lambda_star_mode - dirac_data.lambda_star)
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    assert d2 < (delta2 / 0.01) * d1 + 0.1 * gap_width
