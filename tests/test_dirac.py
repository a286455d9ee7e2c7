"""Crossing modes, perturbation coefficients, band-edge structure."""

import numpy as np
import pytest

from diracwg.bands import find_band_lambda
from diracwg.dirac import (
    asymptotic_band_check,
    compute_coefficients,
    mode_swap_check,
    symmetrize_dirac_modes,
)
from diracwg import dirac as dirac_mod
from diracwg.errors import DomainError, StructureViolationError
from diracwg.geometry import HALF_SHIFT, half_shift_map, reflect_indices
from diracwg.layerops import DensityPair, assemble_T, cell_sample_points, field_from_density
from nullspace import kernel_vectors


def test_pattern_residuals(dirac_data):
    assert max(dirac_data.pattern_residuals.values()) < 0.05
    assert dirac_data.alpha_star > 0
    assert abs(dirac_data.t_star) > 1e-6


def test_mode_component_structure(dirac_data, shape):
    # odd pair is (phi_ref, phi), even pair is (phi, -phi_ref)
    rho = reflect_indices(shape.n_nodes)
    odd, even = dirac_data.phi_odd, dirac_data.phi_even
    assert np.max(np.abs(odd.phi1 - odd.phi2[rho])) < 1e-3
    assert np.max(np.abs(even.phi2 + even.phi1[rho])) < 1e-3


def test_field_parity_on_grid(dirac_data, shape, params):
    pts = cell_sample_points(0.0, shape, nx=20, ny=10, margin=0.05)
    mirrored = np.column_stack([1.0 - pts[:, 0], pts[:, 1]])  # x1 -> -x1 mod 1
    for mode, parity in ((dirac_data.phi_odd, -1), (dirac_data.phi_even, +1)):
        u = field_from_density(mode, pts, np.pi, dirac_data.lambda_star, 0.0, shape, params)
        um = field_from_density(mode, mirrored, np.pi, dirac_data.lambda_star, 0.0, shape, params)
        # reflection x1 -> -x1 equals (1 - x1) composed with the lattice
        # shift, which at p = pi multiplies the field by e^{i pi} = -1
        resid = np.max(np.abs(um + parity * u)) / np.max(np.abs(u))
        assert resid < 1e-3


def test_odd_mode_vanishes_on_interface_line(dirac_data, shape, params):
    s = np.linspace(0.05, 0.45, 9)
    pts = np.column_stack([np.zeros_like(s), s])
    u_odd = field_from_density(dirac_data.phi_odd, pts, np.pi,
                               dirac_data.lambda_star, 0.0, shape, params)
    ref = field_from_density(dirac_data.phi_even, pts, np.pi,
                             dirac_data.lambda_star, 0.0, shape, params)
    assert np.max(np.abs(u_odd)) < 1e-3 * np.max(np.abs(ref))


def test_symmetrization_basis_order_independent(dirac_data, shape, params):
    T = assemble_T(np.pi, dirac_data.lambda_star, 0.0, shape, params)
    raw = kernel_vectors(T, 2)
    o1, e1, _ = symmetrize_dirac_modes(raw, shape, T.weights)
    o2, e2, _ = symmetrize_dirac_modes(raw[::-1], shape, T.weights)
    w = T.weights
    for a, b in ((o1, o2), (e1, e2)):
        overlap = abs(np.sum(w * a.stacked * np.conj(b.stacked)))
        assert overlap > 0.999
    # the even mode's largest entries tie (x1-reflection images of opposite
    # sign, equal to roundoff): a 1e-15 perturbation of the basis must not
    # flip either sign gauge
    rng = np.random.default_rng(5)
    for _ in range(8):
        noisy = [DensityPair.from_stacked(d.stacked * (1 + 1e-15 * rng.standard_normal(len(w))))
                 for d in raw]
        o3, e3, _ = symmetrize_dirac_modes(noisy, shape, w)
        for a, b in ((o1, o3), (e1, e3)):
            assert np.sum(w * a.stacked * np.conj(b.stacked)).real > 0.999


def test_coefficient_step_stability(dirac_data, shape, params):
    g1, t1, s1, _, _ = compute_coefficients(
        (dirac_data.phi_odd, dirac_data.phi_even), shape,
        dirac_data.p_star, dirac_data.lambda_star, params,
        step=2e-4,
    )
    g2, t2, s2, _, _ = compute_coefficients(
        (dirac_data.phi_odd, dirac_data.phi_even), shape,
        dirac_data.p_star, dirac_data.lambda_star, params,
        step=1e-4,
    )
    assert abs(g1 - g2) < 0.01 * abs(g2)
    assert abs(t1 - t2) < 0.01 * abs(t2)
    assert abs(s1 - s2) < 0.01 * abs(s2)


def test_step_bounds_enforced(dirac_data, shape, params):
    with pytest.raises(StructureViolationError):
        compute_coefficients(
            (dirac_data.phi_odd, dirac_data.phi_even), shape,
            dirac_data.p_star, dirac_data.lambda_star, params,
            step=1e-2,
        )


def test_asymptotic_band_agreement(dirac_data, shape, params):
    from diracwg.bands import trace_band

    delta = 0.01
    half = abs(delta * dirac_data.beta_star)
    p_grid = np.pi + np.linspace(-0.1, 0.1, 9)
    c1 = trace_band(1, p_grid, delta, shape, params,
                    seed_lambda=dirac_data.lambda_star - half)
    c2 = trace_band(2, p_grid, delta, shape, params,
                    seed_lambda=dirac_data.lambda_star + half)
    report = asymptotic_band_check(dirac_data, delta, c1, c2, window=0.1)
    assert report["lower_pass"] and report["upper_pass"]
    # band extremum at the fold momentum: lambda* + delta |t/gamma| (1 + e)
    assert report["edge_rel_error"] < 0.15
    # deviations behave evenly in p - pi (both traced and closed form are)
    sel = np.argsort(np.abs(c2.p_grid - np.pi))
    lam_sorted = c2.lambdas[np.argsort(c2.p_grid)]
    assert np.max(np.abs(lam_sorted - lam_sorted[::-1])) < 1e-6


def test_conic_branches_at_zero_dimerization(dirac_data, shape, params):
    # traced undimerized curves reduce to lambda* +- alpha |p - pi|
    from diracwg.bands import trace_folded_bands

    p_grid = np.pi + np.linspace(-0.05, 0.05, 5)
    c1, c2 = trace_folded_bands(p_grid, shape, params, dirac_data.lambda_star)
    q = np.abs(p_grid - np.pi)
    for curve, sign in ((c1, -1), (c2, +1)):
        closed = dirac_data.lambda_star + sign * dirac_data.alpha_star * q
        sel = q > 0
        dev = np.abs(curve.lambdas[sel] - closed[sel]) / (dirac_data.alpha_star * q[sel])
        assert np.max(dev) < 0.1


def test_mode_swap(dirac_data, gap_zone):
    overlaps, labels = mode_swap_check(dirac_data, gap_zone)
    for sign in (+1, -1):
        mat = overlaps[sign]
        for row in range(2):
            assert np.max(mat[row]) > 0.95
            assert np.min(mat[row]) < 0.2
    assert labels["minus"] == [1 - k for k in labels["plus"]]


def test_minus_delta_edges_are_half_period_shift(dirac_data, gap_zone, shape, params):
    # the -delta structure is the +delta one translated by half a period, so
    # its p = pi band edges are the zone's, with the zone's edge fields read
    # at x + e1/2; the swap check takes the -delta edges from this identity.
    # Reference: each -delta edge solved by its own band search, 0.4 to 1.6
    # first-order half-widths from the crossing
    delta, half = gap_zone.delta, abs(gap_zone.delta * dirac_data.beta_star)
    pts = cell_sample_points(0.0, shape, margin=0.06)
    for band, sign, lam_plus, dens_plus in zip((1, 2), (-1, +1), gap_zone.edges,
                                               gap_zone.edge_densities):
        guess = dirac_data.lambda_star + sign * half
        lam, _, (dens,) = find_band_lambda(np.pi, (guess - 0.6 * half, guess + 0.6 * half),
                                           -delta, shape, params, return_vector=True, band=band)
        assert abs(lam - lam_plus) < 1e-10 * lam_plus
        direct = field_from_density(dens, pts, np.pi, lam, -delta, shape, params)
        shifted = field_from_density(dens_plus, pts + HALF_SHIFT, np.pi, lam_plus, delta,
                                     shape, params)
        overlap = abs(np.vdot(direct, shifted)) / (np.linalg.norm(direct) * np.linalg.norm(shifted))
        assert overlap > 1 - 1e-9


def test_minus_delta_edge_fields_are_permuted_plus_fields(gap_zone, shape, params):
    # the swap check's grid maps onto itself under x1 -> x1 + 1/2 mod 1, so
    # the zone's fields read at the grid + e1/2 are its fields on the grid,
    # permuted, with e^{i pi} = -1 on the wrapped points
    pts = cell_sample_points(0.0, shape, margin=0.06)
    m, wrapped = half_shift_map(pts)
    for lam, dens in zip(gap_zone.edges, gap_zone.edge_densities):
        on_grid = field_from_density(dens, pts, np.pi, lam, gap_zone.delta, shape, params)
        shifted = field_from_density(dens, pts + HALF_SHIFT, np.pi, lam, gap_zone.delta,
                                     shape, params)
        permuted = np.where(wrapped, -1.0, 1.0) * on_grid[m]
        assert np.max(np.abs(shifted - permuted)) < 1e-12 * np.max(np.abs(shifted))


def test_swap_check_needs_a_shift_invariant_grid(dirac_data, gap_zone, monkeypatch):
    # a grid masked by the dimerized cell has no half-period permutation
    monkeypatch.setattr(dirac_mod, "cell_sample_points",
                        lambda delta, shape, margin: cell_sample_points(0.01, shape, margin=margin))
    with pytest.raises(DomainError, match="not invariant"):
        mode_swap_check(dirac_data, gap_zone)


def test_coefficients_take_the_momentum_pair_in_one_assembly(params, monkeypatch):
    # compute_dirac_data assembles five times for its coefficients: the
    # momentum pair p* -+ h in one call, bitwise the two single-momentum
    # assemblies, then the lambda and delta pairs
    from diracwg.dirac import compute_dirac_data
    from diracwg.geometry import make_disk

    shape24 = make_disk(0.1, 24)
    calls = []

    def counted(p, *args):
        calls.append((p, assemble_T(p, *args)))
        return calls[-1][1]

    monkeypatch.setattr(dirac_mod, "assemble_T", counted)
    data = compute_dirac_data(shape24, params, 52.6)
    assert len(calls) == 5
    (momenta, pair), rest = calls[0], calls[1:]
    assert np.array_equal(momenta, [data.p_star + 2e-4, data.p_star - 2e-4])
    assert all(np.ndim(p) == 0 for p, _ in rest)
    for p, entries in zip(momenta, pair.entries):
        assert np.array_equal(entries, assemble_T(p, data.lambda_star, 0.0, shape24,
                                                  params).entries)
