"""Dispersion curves, the crossing, gap intervals."""

from functools import cache

import numpy as np
import pytest
from scipy import linalg

from diracwg import bands
from diracwg.bands import (
    band_count,
    band_slope_at_crossing,
    dirac_point,
    find_band_lambda,
    gap_interval,
    trace_band,
    trace_folded_bands,
)
from diracwg.errors import AssemblyError, NoBandError, StructureViolationError
from diracwg.fdoracle import FDGrid, fd_band_chart_richardson, fd_bloch_eigs
from diracwg.geometry import make_disk
from diracwg.layerops import counted_spectrum
from diracwg.qpgreens import KernelParams


def _counted(matrix):
    """The memoized counted spectra of a Hermitian family ``matrix(lam)``,
    unit weights and offset 0, as the root finders take them."""
    @cache
    def spectrum(lam):
        M = matrix(lam)
        return counted_spectrum(M, np.ones(len(M)), f"at lambda={lam}")
    return spectrum


def test_dirac_point_location(shape, params, fd_reference):
    lam_fd = fd_reference["crossing"][0]
    p_star, lam_star, _ = dirac_point(lam_fd, shape, params)
    assert p_star == np.pi
    # FD reference at nx=96 carries its own h^2 error; 5e-3 relative bound
    assert abs(lam_star - lam_fd) < 5e-3 * lam_star


def test_band_symmetry_under_momentum_reversal(shape, params, fd_reference):
    p = np.pi / 3
    seed = np.interp(p, fd_reference["chart0"][:, 0], fd_reference["chart0"][:, 1])
    lam1, _ = find_band_lambda(p, (seed - 0.4, seed + 0.4), 0.0, shape, params, branch=+1,
                               band=1)
    lam2, _ = find_band_lambda(2 * np.pi - p, (seed - 0.4, seed + 0.4), 0.0,
                               shape, params, branch=-1, band=1)
    assert abs(lam1 - lam2) < 1e-7


def test_small_obstacle_band_against_oracle():
    # The vanishing-obstacle limit is logarithmic in 2D (point scatterers
    # carry log capacity): at r = 0.01 the first curve sits an order of
    # magnitude above the empty parabola p^2, so the small-obstacle check
    # is against the finite-difference oracle, not the empty-strip value.
    shape = make_disk(0.01, 32)
    prm = KernelParams(m_trunc=32)
    lam, _ = find_band_lambda(1.0, (10.0, 10.8), 0.0, shape, prm, branch=+1, band=1)
    lam_fd = 10.39781  # Richardson-extrapolated oracle, nx = 640/960
    assert abs(lam - lam_fd) < 5e-3 * lam


def test_small_obstacle_band_over_the_zone():
    # at r = 0.01 the branch band climbs from about 9 to about 40 across the
    # zone; each momentum's window is widened by the count until it holds
    # the band, so one seed serves the whole grid
    shape = make_disk(0.01, 32)
    prm = KernelParams(m_trunc=32)
    p_grid = np.array([0.0, 1.0, np.pi, 1.5 * np.pi, 2 * np.pi])
    curve = trace_band(1, p_grid, 0.0, shape, prm, seed_lambda=10.4, branch=+1)
    assert abs(curve.lambdas[1] - 10.39781) < 5e-3 * curve.lambdas[1]
    assert np.all(np.diff(curve.lambdas) > 0)
    assert curve.lambdas[-1] > 35.0


def test_window_spectra_serve_the_band_search(params, monkeypatch):
    # the count at each window end is the one find_band_lambda starts from:
    # every spectrum of a momentum is built once, two fewer per band point
    # than when the search assembled both window ends again
    shape = make_disk(0.1, 16)
    built, found = [], []
    real_spectrum, real_find = bands._spectrum, bands.find_band_lambda

    def spectrum(p, lam, *args):
        built.append((p, lam))
        return real_spectrum(p, lam, *args)

    def find(p, bracket, *args, **kwargs):
        found.append((p, tuple(bracket)))
        return real_find(p, bracket, *args, **kwargs)

    monkeypatch.setattr(bands, "_spectrum", spectrum)
    monkeypatch.setattr(bands, "find_band_lambda", find)
    curve = trace_band(1, np.linspace(2.6, 3.6, 5), 0.01, shape, params, seed_lambda=52.0)
    assert len(found) == 5 and len(built) == len(set(built))
    for p, (lo, hi) in found:
        assert built.count((p, lo)) == built.count((p, hi)) == 1
    reference = [find_band_lambda(p, (lo, hi), 0.01, shape, params, band=1)[0]
                 for p, (lo, hi) in found]
    assert np.array_equal(curve.lambdas, reference)


@pytest.mark.parametrize("func, a, b", [
    (lambda x: 2.0 - x, 0.0, 3.0),
    (lambda x: np.cos(x) - x, 0.0, 1.5),
    (lambda x: 1.0 / (x + 0.5) - x ** 3, 0.1, 4.0),
    (lambda x: np.arctan(40.0 * (50.0 - x)), 40.0, 61.0),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_crossing_root_follows_brentq(func, a, b):
    # crossing_root is Brent-Dekker written out; on one decreasing
    # eigenvalue it takes the same steps as scipy.optimize.brentq, except
    # that it stops where brentq takes its last, tolerance-sized step to
    # close the bracket: its interpolation has landed there, and the root
    # is the same.  The 1 x 1 family 2 - x is exactly 0 at x = 2, an
    # all-zero operator that the Hermitian check passes without a 0/0
    from scipy.optimize import brentq

    calls, ref_calls = [], []

    def matrix(x):
        calls.append(x)
        return np.array([[func(x)]])

    def ref_func(x):
        ref_calls.append(x)
        return func(x)

    root = bands.crossing_root(_counted(matrix), a, b)
    ref = brentq(ref_func, a, b, xtol=bands.ROOT_RTOL, rtol=bands.ROOT_RTOL)
    assert root == ref
    last_step = min(abs(ref_calls[-1] - x) for x in ref_calls[:-1])
    tol = 0.5 * bands.ROOT_RTOL * (1.0 + abs(ref_calls[-1]))
    tolerance_step = abs(last_step - tol) <= 1e-3 * tol
    assert calls == ref_calls[:len(ref_calls) - tolerance_step]


def test_root_finders_name_a_root_they_cannot_reach(monkeypatch):
    # with no tolerance left neither finder can stop on 2 - x^2, whose root
    # sqrt(2) is no float: each ends in NoBandError naming its bracket and
    # its iteration count, which the CLI maps to an exit code
    monkeypatch.setattr(bands, "ROOT_RTOL", 0.0)
    family = _counted(lambda x: np.array([[2.0 - x * x]]))
    with pytest.raises(NoBandError, match=r"Brent iteration did not converge in "
                       r"\(0\.000000, 2\.000000\) after 100 iterations"):
        bands.crossing_root(family, 0.0, 2.0)
    with pytest.raises(NoBandError, match=r"pencil iteration did not converge in "
                       r"\(0\.000000, 2\.000000\) after \d+ iterations"):
        bands.pencil_root(family, 0.0, 2.0)


def test_pencil_root_solves_an_affine_family_in_one_step():
    # A - lam B is its own secant: the first pencil step lands on the
    # generalized eigenvalue, and the step from there is below tolerance
    rng = np.random.default_rng(5)
    X, Y = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(2))
    A, B = X + X.conj().T, Y @ Y.conj().T + 8 * np.eye(8)
    ev = linalg.eigvalsh(A, B)
    calls = []

    def matrix(lam):
        calls.append(lam)
        return A - lam * B

    root = bands.pencil_root(_counted(matrix), 0.5 * (ev[2] + ev[3]), 0.5 * (ev[3] + ev[4]))
    assert abs(root - ev[3]) < 1e-12 * (1 + abs(ev[3]))
    assert len(set(calls)) == 3


def _floor_family(f, calls):
    """Q diag(-1, floor, f(lam)) Q^H in a fixed random unitary basis, with
    three lam-independent eigenvalues on each side of the +-3e-3 floor."""
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    fixed = np.array([-1.0, -3e-3, -3e-3, -3e-3, 3e-3, 3e-3, 3e-3])

    def matrix(lam):
        calls.append(lam)
        return (Q * np.append(fixed, f(lam))) @ Q.conj().T

    return matrix


def test_pencil_root_is_not_stalled_by_floor_eigenvalues():
    # the ordered crossing eigenvalue sits on the floor outside a ramp about
    # 0.015 wide, so Brent on it mostly bisects; the floor does not move
    # with lam, so the pencil puts its eigenvalues at infinite steps
    def f(lam):
        return np.tanh(0.4 * (52.63 - lam))

    pencil_calls, brent_calls = [], []
    root = bands.pencil_root(_counted(_floor_family(f, pencil_calls)), 49.5, 55.9)
    ref = bands.crossing_root(_counted(_floor_family(f, brent_calls)), 49.5, 55.9)
    assert len(set(pencil_calls)) <= 6
    assert len(set(brent_calls)) >= 10
    assert abs(root - ref) < 1e-9
    assert abs(root - 52.63) < 1e-9


def test_pencil_step_leaving_the_bracket_bisects():
    # flat away from 50: the first step lands just above 50, the secant from
    # there to 61 is almost level and steps far below 40, so the count
    # bracket (40, x1) is bisected instead
    calls = []

    def matrix(lam):
        calls.append(lam)
        return np.array([[-np.arctan(40.0 * (lam - 50.0))]])

    root = bands.pencil_root(_counted(matrix), 40.0, 61.0)
    x1, x2 = list(dict.fromkeys(calls))[2:4]
    assert 50.0 < x1 < 61.0
    assert x2 == 0.5 * (40.0 + x1)
    ref = bands.crossing_root(_counted(matrix), 40.0, 61.0)
    assert abs(root - ref) < 1e-9
    with pytest.raises(NoBandError, match="does not hold one crossing"):
        bands.pencil_root(_counted(matrix), 51.0, 61.0)


def test_fd_cross_check_at_half_pi(shape, params):
    chart = fd_band_chart_richardson(np.array([np.pi / 2]), 0.0, 2, FDGrid(64), shape)
    lam_fd = chart[0, 1]
    lam, _ = find_band_lambda(np.pi / 2, (lam_fd - 0.3, lam_fd + 0.3), 0.0, shape, params,
                              band=1)
    assert abs(lam - lam_fd) < 5e-3 * lam


def test_folded_bands_cross_at_pi(shape, params, dirac_data):
    p_grid = np.array([np.pi - 0.1, np.pi, np.pi + 0.1])
    c1, c2 = trace_folded_bands(p_grid, shape, params, dirac_data.lambda_star)
    i = 1
    assert abs(c1.lambdas[i] - c2.lambdas[i]) < 1e-6 * dirac_data.lambda_star
    # away from the crossing the curves separate linearly
    assert c2.lambdas[0] - c1.lambdas[0] > 0.5


def test_dimerized_gap_opens(shape, params, dirac_data):
    delta = 0.01
    p_grid = np.pi + np.linspace(-0.3, 0.3, 7)
    half = abs(delta * dirac_data.beta_star)
    c1 = trace_band(1, p_grid, delta, shape, params,
                    seed_lambda=dirac_data.lambda_star - half)
    c2 = trace_band(2, p_grid, delta, shape, params,
                    seed_lambda=dirac_data.lambda_star + half)
    assert np.min(c2.lambdas) - np.max(c1.lambdas) > 0
    # the two dimerization signs share the band functions
    c1m = trace_band(1, p_grid, -delta, shape, params,
                     seed_lambda=dirac_data.lambda_star - half)
    assert np.max(np.abs(c1.lambdas - c1m.lambdas)) < 1e-6


def test_band_slopes_match_alpha(shape, params, dirac_data):
    slope = band_slope_at_crossing(shape, params, dirac_data.lambda_star)
    assert abs(slope - dirac_data.alpha_star) < 0.02 * dirac_data.alpha_star


def test_gap_interval_width(dirac_data):
    gap = gap_interval(dirac_data, 0.01, c=0.9)
    expected = 2 * 0.9 * 0.01 * abs(dirac_data.beta_star)
    assert abs(gap.width - expected) < 1e-12 * expected
    assert gap.e1 < dirac_data.lambda_star < gap.e2


def test_gap_interval_degenerate_cases(dirac_data):
    with pytest.raises(StructureViolationError):
        gap_interval(dirac_data, 0.0, c=0.9)
    with pytest.raises(StructureViolationError):
        gap_interval(dirac_data, 0.01, c=1.5)

    class Fake:
        lambda_star = dirac_data.lambda_star
        beta_star = 0.0

    with pytest.raises(StructureViolationError):
        gap_interval(Fake(), 0.01, c=0.9)


def test_no_band_in_empty_bracket(shape, params):
    with pytest.raises(NoBandError):
        find_band_lambda(1.0, (44.0, 45.0), 0.0, shape, params, band=1)


def test_interval_free_of_bands_fd_screen(shape, dirac_data):
    # 200-point screening that no +-delta dispersion point enters the
    # certified interval; the FD chart (h^2-extrapolated) is accurate to a
    # few 1e-3, far below the interval clearance (1-c) * half-gap ~ 0.4
    delta = 0.01
    gap = gap_interval(dirac_data, delta, c=0.9)
    p_screen = np.linspace(0.0, np.pi, 100)  # mirror symmetry covers the rest
    chart = fd_band_chart_richardson(p_screen, delta, 2, FDGrid(64), shape)
    lams = chart[:, 1:3].ravel()
    assert not np.any((lams > gap.e1) & (lams < gap.e2))


def test_nystrom_band_convergence(params):
    # quadrature-limited agreement between N and 2N with a long kernel head
    prm = KernelParams(m_trunc=1024)
    vals = {}
    for n in (64, 128):
        sh = make_disk(0.1, n)
        vals[n], _ = find_band_lambda(1.0, (46.8, 47.3), 0.0, sh, prm, band=1)
    assert abs(vals[64] - vals[128]) < 1e-7


# ------------------------------------------------------------ the count


@pytest.mark.parametrize("p", [0.3, 1.0, np.pi - 0.04])
def test_count_identity(shape, params, fd_reference, p):
    # the two half-cell branches split the undimerized spectrum, and the
    # count is absolute: zero below the first band, on both sides of the
    # empty-guide sheets near pi^2 and 5 pi^2
    band1 = np.interp(min(p, 2 * np.pi - p), fd_reference["chart0"][:, 0],
                      fd_reference["chart0"][:, 1])
    for lam in (np.pi**2 - 0.3, np.pi**2, np.pi**2 + 0.3,
                5 * np.pi**2 - 0.3, 5 * np.pi**2, 5 * np.pi**2 + 0.3):
        full = band_count(p, lam, 0.0, shape, params)
        halves = [band_count(p, lam, 0.0, shape, params, branch=b) for b in (+1, -1)]
        assert full == sum(halves)
        assert min(halves) >= 0
        if lam < band1 - 0.5:
            assert full == 0


def test_count_steps_across_roots(shape, params, dirac_data):
    lam, _ = find_band_lambda(1.0, (46.5, 47.5), 0.0, shape, params, band=1)
    eps = 1e-4
    assert band_count(1.0, lam + eps, 0.0, shape, params) == (
        band_count(1.0, lam - eps, 0.0, shape, params) + 1)
    lam_star = dirac_data.lambda_star
    assert band_count(np.pi, lam_star - eps, 0.0, shape, params) == 0
    assert band_count(np.pi, lam_star + eps, 0.0, shape, params) == 2


def test_count_rejects_non_hermitian_operator(params, monkeypatch):
    # the inertia count is only meaningful for a Hermitian weighted operator
    original = bands.assemble_T

    def skewed(*args, **kwargs):
        T = original(*args, **kwargs)
        T.entries[0, 1] += 1e-6 * np.max(np.abs(T.entries))
        return T

    monkeypatch.setattr(bands, "assemble_T", skewed)
    with pytest.raises(AssemblyError):
        band_count(1.0, 47.0, 0.0, make_disk(0.1, 16), params)


@pytest.fixture
def assembly_counter(monkeypatch):
    calls = []
    original = bands.assemble_T

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(bands, "assemble_T", counted)
    return calls


def test_dirac_point_assemblies(shape, params, fd_reference, assembly_counter):
    lam_fd = fd_reference["crossing"][0]
    dirac_point(lam_fd, shape, params)
    assert len(assembly_counter) == 6


def test_gap_edge_across_double_sheet(shape, params, dirac_data, assembly_counter):
    # a bracket around the lower gap edge at delta = 0.02 that holds the
    # double empty-guide sheet 5 pi^2 at p = pi: the count bisects it away
    delta = 0.02
    lam_star = dirac_data.lambda_star
    half = abs(delta * dirac_data.beta_star)
    bracket = (lam_star - 1.8 * half, lam_star - 0.3 * half)
    assert bracket[0] < 5 * np.pi**2 < bracket[1]
    lo, _ = find_band_lambda(np.pi, bracket, delta, shape, params, band=1)
    assert len(assembly_counter) <= 12
    assert abs(lo - (lam_star - half)) < 0.15 * half
    assert band_count(np.pi, lo - 1e-4, delta, shape, params) == 0
    assert band_count(np.pi, lo + 1e-4, delta, shape, params) == 1


def test_zone_edge_band_label(params):
    # every momentum is solved for its band index: at the zone edge band 2
    # is not confused with band 3 (1.3 above it at 16 nodes)
    shape16 = make_disk(0.1, 16)
    delta = 0.01
    p_grid = np.unique(np.round(np.concatenate([
        np.linspace(0.0, 2 * np.pi, 9), np.pi + np.linspace(-0.15, 0.15, 3)]), 12))
    seed = fd_bloch_eigs(np.pi, delta, 2, FDGrid(64), shape16)[1]
    curve = trace_band(2, p_grid, delta, shape16, params, seed_lambda=seed)
    lam_fd = fd_band_chart_richardson(np.array([0.0]), delta, 3, FDGrid(64), shape16)[0, 2]
    assert abs(curve.lambdas[0] - lam_fd) < 5e-3 * lam_fd
    assert abs(curve.lambdas[-1] - curve.lambdas[0]) < 1e-9 * lam_fd


def test_band_point_ends_on_its_root(params, monkeypatch):
    # at the crossing workload's size (24 nodes) the last energy a band
    # point evaluates is its root: no spectrum is spent after the
    # interpolation has landed, for the crossing and for the lower gap edge
    # at delta = 0.01, centered at its first-order value as gap_edges does
    from diracwg.dirac import compute_dirac_data

    shape24 = make_disk(0.1, 24)
    built = []
    real_spectrum = bands._spectrum

    def spectrum(p, lam, *args):
        built.append(lam)
        return real_spectrum(p, lam, *args)

    monkeypatch.setattr(bands, "_spectrum", spectrum)
    data = compute_dirac_data(shape24, params, 52.6)
    assert built[-1] == data.lambda_star
    built.clear()
    half = 0.01 * abs(data.beta_star)
    lower, _ = bands.band_point(np.pi, 1, data.lambda_star - half, 0.01, shape24, params)
    assert built[-1] == lower
    assert abs(lower - (data.lambda_star - half)) < 0.15 * half
