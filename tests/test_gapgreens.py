"""In-gap Green's functions: zone certification, the table oracle and kernel identities."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from diracwg import gapgreens, interface
from diracwg.errors import DomainError, PoleRiskError
from diracwg.gapgreens import (
    ZoneFibers,
    gdelta_matrix,
    head_sum,
    helmholtz_residual_check,
    tail_estimate,
)
from diracwg.layerops import cell_sample_points, field_from_density
from diracwg.qpgreens import KernelParams


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
        ZoneFibers.solve([pts], 57.5, zone)


def test_targets_inside_an_obstacle_are_refused(small_zone):
    # the zone average there is not the guide's Green's function: a target at
    # the first obstacle's center is refused, as layerops.field_from_density
    # refuses it
    s = np.linspace(0.08, 0.42, 5)
    pts = np.column_stack([np.zeros_like(s), s])
    targets = np.array([[0.45, 0.2], [0.24, 0.25]])
    fibers, _ = ZoneFibers.solve([pts], 52.63, small_zone)
    with pytest.raises(DomainError, match="inside an obstacle"):
        fibers.gdelta(targets, 0)


def test_reciprocity(gap_zone, mid_gap):
    tp = gap_zone
    x, y = [0.0, 0.2], [0.0, 0.35]
    fibers, _ = ZoneFibers.solve([y, x], mid_gap, tp)
    a = fibers.gdelta(x, 0)[0, 0]
    b = fibers.gdelta(y, 1)[0, 0]
    assert abs(a - b) < 1e-4 * abs(a)


def test_reflection_parity_for_interface_sources(gap_zone, mid_gap):
    tp = gap_zone
    fibers, _ = ZoneFibers.solve([[0.0, 0.35]], mid_gap, tp)
    a = fibers.gdelta([0.4, 0.2], 0)[0, 0]
    b = fibers.gdelta([-0.4, 0.2], 0)[0, 0]
    assert abs(a - b) < 1e-4 * abs(a)


def test_exponential_decay(gap_zone, mid_gap):
    tp = gap_zone
    fibers, _ = ZoneFibers.solve([[0.0, 0.35]], mid_gap, tp)
    g1 = fibers.gdelta([1.0, 0.2], 0)[0, 0]
    g4 = fibers.gdelta([4.0, 0.2], 0)[0, 0]
    assert abs(g4) / abs(g1) < np.exp(-1)


def test_zone_quadrature_convergence(gap_zone, mid_gap):
    # halving the p nodes is still a valid trapezoid rule; the integrand is
    # analytic for gap energies, so the change is tiny
    tp = gap_zone
    xs = np.array([[0.0, 0.2]])
    ys = np.array([[0.0, 0.35]])
    full = ZoneFibers.solve([ys], mid_gap, tp)[0].gdelta(xs, 0)
    half = ZoneFibers.solve([ys], mid_gap, replace(tp, p_nodes=tp.p_nodes[::2]))[0].gdelta(xs, 0)
    assert abs(full[0, 0] - half[0, 0]) < 1e-4 * abs(full[0, 0])


def test_gamma_matrix_symmetry(gap_zone, mid_gap):
    # interface-restricted kernel matrix (log-regularized, diagonal included)
    # is real symmetric for real gap energies
    tp = gap_zone
    s = np.linspace(0.08, 0.42, 9)
    pts = np.column_stack([np.zeros_like(s), s])
    [S], _ = gdelta_matrix([pts], mid_gap, tp)
    assert np.max(np.abs(S - S.T)) < 1e-6 * np.max(np.abs(S))
    assert np.isrealobj(S)


def test_p_nudge_in_every_sweep(small_zone, monkeypatch):
    # a p-node grazing an empty-guide dispersion sheet is nudged by 1e-5 in
    # the solve, alone: its guard margin is taken once, in one array with the
    # other nodes', the sweep's one assembly takes the nudged momentum next
    # to the other nodes unchanged, its fiber keeps the nudged momentum, and
    # the evaluation of the field points and of the boundary points reads
    # it, not the node's p.  The sweep builds the sheets of all its momenta
    # three times: the nudge, the assembly's guard and the count offsets
    lam = 52.63
    s = np.linspace(0.08, 0.42, 5)
    pts = np.column_stack([np.zeros_like(s), s])
    targets = pts + [0.45, 0.0]
    thetas = np.linspace(0.1, 6.0, 4)

    def sweep():
        fibers, _ = ZoneFibers.solve([pts], lam, small_zone)
        return fibers, {"field": fibers.gdelta(targets, 0),
                        "midpoints": fibers.gdelta_on_obstacle(thetas, 0)}

    _, reference = sweep()
    nodes = small_zone.p_nodes[: len(small_zone.p_nodes) // 2 + 1]
    grazing = nodes[3]
    real_guard, real_sheets = KernelParams.guard_margins, KernelParams.sheets
    real_assemble, real_blocks = gapgreens.assemble_T, gapgreens.kernel_blocks
    armed, guarded, sheets, assembled, evaluated = [True], [], [], [], []

    def guard(prm, p, lam):
        guarded.append(list(p))
        margins = real_guard(prm, p, lam)
        if armed:  # the sweep's first margins: the node grazes a sheet
            armed.pop()
            margins = np.where(p == grazing, 0.0, margins)
        return margins

    def count_sheets(prm, p, lam):
        sheets.append(len(p))
        return real_sheets(prm, p, lam)

    def assemble(p, *args, **kwargs):
        assembled.append(list(p))
        return real_assemble(p, *args, **kwargs)

    def blocks(xs, ys, p, lam, params):
        evaluated.extend(p)
        return real_blocks(xs, ys, p, lam, params)

    monkeypatch.setattr(KernelParams, "guard_margins", guard)
    monkeypatch.setattr(KernelParams, "sheets", count_sheets)
    monkeypatch.setattr(gapgreens, "assemble_T", assemble)
    monkeypatch.setattr(gapgreens, "kernel_blocks", blocks)
    fibers, values = sweep()
    nudged = [*nodes[:3], grazing + 1e-5, *nodes[4:]]
    assert not armed and sum(grazing in g for g in guarded) == 1 and assembled == [nudged]
    assert sheets == [len(nodes)] * 3
    assert list(fibers.p) == nudged
    assert grazing not in evaluated and grazing + 1e-5 in evaluated
    for name, G in values.items():
        ref = reference[name]
        assert np.max(np.abs(G - ref)) < 1e-3 * np.max(np.abs(ref)), name


def test_kept_fibers_match_a_fresh_sweep(small_zone):
    # the junction keeps the fibers of its stacked solve for Gamma and
    # Gamma + e1/2; grid and boundary-point blocks evaluated on them equal
    # those of a fresh sweep that solves for one line alone
    lam = 52.63
    kept = interface.assemble_interface_operator(lam, 24, small_zone).fibers
    grid = np.column_stack([np.repeat([0.05, 1.4, -2.6], 3), np.tile([0.1, 0.25, 0.4], 3)])
    thetas = 2 * np.pi * np.arange(16) / 16 + np.pi / small_zone.shape.n_nodes
    for k, line in enumerate(kept.sources):
        fresh, _ = ZoneFibers.solve([line], lam, small_zone)
        for got, ref in ((kept.gdelta(grid, k), fresh.gdelta(grid, 0)),
                         (kept.gdelta_on_obstacle(thetas, k), fresh.gdelta_on_obstacle(thetas, 0))):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
