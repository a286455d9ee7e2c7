"""In-gap Green's functions: zone certification, the table oracle and kernel identities."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from diracwg import gapgreens
from diracwg.errors import KernelError, PoleRiskError
from diracwg.gapgreens import (
    eval_Gdelta,
    gdelta_matrix,
    gdelta_on_obstacle_midpoints,
    head_sum,
    helmholtz_residual_check,
    tail_estimate,
)
from diracwg.layerops import cell_sample_points, field_from_density


@pytest.fixture(scope="module")
def mid_gap(gap_zone):
    return 0.5 * sum(gap_zone.edges)


def test_table_band_evenness(bloch_table):
    tp = bloch_table
    n = len(tp.p_nodes)
    mirror = (n - np.arange(n)) % n
    assert np.max(np.abs(tp.lambdas - tp.lambdas[mirror])) < 1e-6


def test_table_certification(bloch_table):
    tp = bloch_table
    assert np.max(tp.sigma_mins) < 1e-7
    assert tp.gap[0] < tp.gap[1]


def test_table_normalization_consistency(bloch_table, params):
    # stored constants normalize the reconstructed cell field to unit
    # discrete L2 norm under the same sampler
    tp = bloch_table
    sample = cell_sample_points(tp.delta, tp.shape, nx=32, ny=16, margin=0.04)
    measure = 0.5 / (32 * 16)
    for i, b in ((0, 0), (3, 1)):
        dens = tp.densities[i][b]
        u = field_from_density(dens, sample, tp.p_nodes[i], tp.lambdas[i, b],
                               tp.delta, tp.shape, tp.params)
        norm = np.sqrt(np.sum(np.abs(u) ** 2) * measure) * tp.norm_consts[i, b]
        assert abs(norm - 1.0) < 1e-6


def test_pole_margin_guard(bloch_table):
    tp = bloch_table.zone()
    with pytest.raises(PoleRiskError):
        tp.check_in_gap(tp.edges[0] + 1e-9)
    with pytest.raises(PoleRiskError):
        tp.check_in_gap(tp.edges[1] + 1.0)


def test_gap_edges_match_the_table(gap_zone, bloch_table):
    # the band extrema of the tabulated zone sit at p = pi: the two p = pi
    # roots are the table's gap
    assert np.max(np.abs(np.subtract(gap_zone.edges, bloch_table.gap))) < 1e-9


def test_fiber_count_rejects_a_false_edge(small_zone):
    # band 2 of the 16-node disk has its minimum 56.7 at p = pi: with an upper
    # edge claimed at 58.0, lambda = 57.5 passes the margin check against the
    # edges, and the fibers near p = pi count two bands below it
    zone = replace(small_zone, edges=(48.9, 58.0))
    zone.check_in_gap(57.5)
    s = np.linspace(0.08, 0.42, 5)
    pts = np.column_stack([np.zeros_like(s), s])
    with pytest.raises(PoleRiskError, match="2 bands below"):
        gdelta_matrix([(pts + [0.31, 0.0], pts)], 57.5, zone)


def test_reciprocity(gap_zone, mid_gap):
    tp = gap_zone
    x, y = [0.0, 0.2], [0.0, 0.35]
    a = eval_Gdelta(x, y, mid_gap, tp)
    b = eval_Gdelta(y, x, mid_gap, tp)
    assert abs(a - b) < 1e-4 * abs(a)


def test_reflection_parity_for_interface_sources(gap_zone, mid_gap):
    tp = gap_zone
    y = [0.0, 0.35]
    a = eval_Gdelta([0.31, 0.2], y, mid_gap, tp)
    b = eval_Gdelta([-0.31, 0.2], y, mid_gap, tp)
    assert abs(a - b) < 1e-4 * abs(a)


def test_exponential_decay(gap_zone, mid_gap):
    tp = gap_zone
    y = [0.0, 0.35]
    g1 = eval_Gdelta([1.0, 0.2], y, mid_gap, tp)
    g4 = eval_Gdelta([4.0, 0.2], y, mid_gap, tp)
    assert abs(g4) / abs(g1) < np.exp(-1)


def test_zone_quadrature_convergence(gap_zone, mid_gap):
    # halving the p nodes is still a valid trapezoid rule; the integrand is
    # analytic for gap energies, so the change is tiny
    tp = gap_zone
    xs = np.array([[0.0, 0.2]])
    ys = np.array([[0.0, 0.35]])
    [(full, _)] = gdelta_matrix([(xs, ys)], mid_gap, tp)
    [(half, _)] = gdelta_matrix([(xs, ys)], mid_gap, replace(tp, p_nodes=tp.p_nodes[::2]))
    assert abs(full[0, 0] - half[0, 0]) < 1e-4 * abs(full[0, 0])


def test_gamma_matrix_symmetry(gap_zone, mid_gap):
    # interface-restricted kernel matrix (log-regularized, diagonal included)
    # is real symmetric for real gap energies
    tp = gap_zone
    s = np.linspace(0.08, 0.42, 9)
    pts = np.column_stack([np.zeros_like(s), s])
    [(_, S)] = gdelta_matrix([(pts, pts)], mid_gap, tp, gamma_smooth=True)
    assert np.max(np.abs(S - S.T)) < 1e-6 * np.max(np.abs(S))
    assert np.isrealobj(S)


def test_p_nudge_in_every_sweep(small_zone, monkeypatch):
    # a p-node grazing an empty-guide dispersion sheet is nudged by 1e-5 in
    # the field sweep and in the boundary-residual sweep alike
    lam = 52.63
    s = np.linspace(0.08, 0.42, 5)
    pts = np.column_stack([np.zeros_like(s), s])
    sweeps = {
        "field": lambda: gdelta_matrix([(pts + [0.31, 0.0], pts)], lam, small_zone)[0][0],
        "midpoints": lambda: gdelta_on_obstacle_midpoints(pts, lam, small_zone)[1],
    }
    reference = {name: sweep() for name, sweep in sweeps.items()}

    grazing = small_zone.p_nodes[3]
    real = gapgreens.assemble_T
    armed, calls = [], []

    def assemble(p, *args, **kwargs):
        calls.append(p)
        if p == grazing and armed:
            armed.pop()
            raise KernelError("grazes an empty-guide sheet")
        return real(p, *args, **kwargs)

    monkeypatch.setattr(gapgreens, "assemble_T", assemble)
    for name, sweep in sweeps.items():
        armed.append(True)
        calls.clear()
        G = sweep()
        assert not armed and grazing + 1e-5 in calls
        assert np.max(np.abs(G - reference[name])) < 1e-3 * np.max(np.abs(reference[name]))


def test_helmholtz_residual(gap_zone, mid_gap):
    tp = gap_zone
    samples = np.array([[0.45, 0.40], [-0.55, 0.12]])
    resid = helmholtz_residual_check(tp, mid_gap, samples, [0.0, 0.3])
    assert resid < 1e-2


def test_mock_separable_kernel_stencil():
    # rank-one kernel f(x) g(y) / (lam - lam0) with f an exact Helmholtz
    # solution: the stencil must reproduce (lam - lam_f) f / (lam - lam0)
    lam, lam0 = 30.0, 80.0
    k = np.array([3.0, 2.0])
    lam_f = float(k @ k)

    def mock(xs, ys):
        f = np.cos(xs @ k)
        g = np.ones(len(ys))
        return np.outer(f, g) / (lam - lam0)

    samples = np.array([[0.3, 0.2]])
    resid = helmholtz_residual_check(None, lam, samples, [0.0, 0.3],
                                     h_stencil=1e-4, evaluator=mock)
    # residual definition uses (Delta + lam); the mock solves it up to the
    # analytic mismatch (lam - lam_f) f, so compare against that exactly
    x = samples[0]
    expected = abs((lam - lam_f) * np.cos(x @ k) / (lam - lam0)) / abs(
        np.cos(x @ k) / (lam - lam0) * lam
    )
    assert abs(resid - expected) < 1e-6


def test_stencil_second_order():
    lam = 30.0
    k = np.array([5.0, 1.0])  # |k|^2 != lam: nonzero residual, h^2 stencil error

    def mock(xs, ys):
        return np.outer(np.cos(xs @ k), np.ones(len(ys)))

    samples = np.array([[0.3, 0.2]])
    r1 = helmholtz_residual_check(None, lam, samples, [0.0, 0.3],
                                  h_stencil=2e-3, evaluator=mock)
    r2 = helmholtz_residual_check(None, lam, samples, [0.0, 0.3],
                                  h_stencil=1e-3, evaluator=mock)
    exact = abs(lam - k @ k) / lam
    assert abs(r2 - exact) < 0.3 * abs(r1 - exact)


def test_head_tail_report(bloch_table, mid_gap):
    tp = bloch_table
    rep = tail_estimate([0.0, 0.2], [0.0, 0.35], mid_gap, tp)
    assert abs(rep["head"] + rep["tail"] - rep["value"]) < 1e-12
    # the tabulated bands capture most of the spectral sum near the gap
    assert rep["tail_fraction"] < 0.2
    # band-truncation monotonicity: fewer head bands leave a larger tail
    tp2 = copy.copy(tp)
    tp2.n_bands = 2
    h2 = head_sum([0.0, 0.2], [0.0, 0.35], mid_gap, tp2)
    assert abs(rep["value"] - h2) > abs(rep["tail"]) - 1e-12
