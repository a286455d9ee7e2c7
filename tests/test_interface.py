"""Junction operator and the in-gap bound state."""

import numpy as np
import pytest

from diracwg.bands import gap_interval
from diracwg.gapgreens import _resolvent_fiber
from diracwg.geometry import make_disk
from diracwg.interface import (
    HALF_SHIFT,
    assemble_interface_operator,
    even_trace_overlap,
    find_interface_eigenvalue,
    gamma_nodes,
)


@pytest.fixture(scope="module")
def root_lambda(interface_result):
    return interface_result.lambda_star_mode


def test_gauss_nodes_weight_sum():
    s, w = gamma_nodes(32)
    assert abs(np.sum(w) - 0.5) < 1e-14
    assert np.all((s > 0) & (s < 0.5))


def test_weighted_operator_symmetry(bloch_table, root_lambda):
    op = assemble_interface_operator(root_lambda, 0.01, 32, bloch_table,
                                     p_subsample=2)
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
        g_minus, s_minus = _resolvent_fiber(gamma, gamma, p, lam, -0.01, shape, params,
                                            with_gamma_smooth=True)
        g_plus, s_plus = _resolvent_fiber(shifted, shifted, p, lam, +0.01, shape, params,
                                          with_gamma_smooth=True)
        for a, b in ((g_minus, g_plus), (s_minus, s_plus)):
            assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


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


def test_node_count_stability(bloch_table, interface_result, dirac_data):
    # the root location is quadrature-stable in the interface node count
    gap = gap_interval(dirac_data, 0.01, 0.9)
    res24 = find_interface_eigenvalue(0.01, gap, bloch_table, m_nodes=24,
                                      n_scan=15, scan_subsample=4)
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    assert abs(res24.lambda_star_mode - interface_result.lambda_star_mode) < 1e-3 * gap_width


def test_root_tracks_gap_center_across_delta(shape, params, dirac_data, interface_result):
    # second dimerization strength at reduced resolution: the root stays in
    # its certified interval and its offset from the crossing energy grows
    # at most linearly in delta (with a modest constant)
    from diracwg.gapgreens import build_bloch_table

    delta2 = 0.015
    table = build_bloch_table(+delta2, 2, 16, shape, params, fd_grid_nx=64)
    gap2 = gap_interval(dirac_data, delta2, 0.9)
    res2 = find_interface_eigenvalue(delta2, gap2, table, m_nodes=24,
                                     n_scan=15, scan_subsample=2)
    assert gap2.e1 < res2.lambda_star_mode < gap2.e2
    d1 = abs(interface_result.lambda_star_mode - dirac_data.lambda_star)
    d2 = abs(res2.lambda_star_mode - dirac_data.lambda_star)
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    assert d2 < (delta2 / 0.01) * d1 + 0.1 * gap_width
