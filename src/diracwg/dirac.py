"""Degenerate crossing data: odd/even modes and perturbation coefficients.

At the crossing (p = pi, lambda*) the operator kernel is two-dimensional
(bands.dirac_point returns it from the SVD that certifies the root) and,
because the obstacle and the lattice are mirror symmetric, it is spanned
by one density pair odd under x1-reflection and one even.  In
density space the reflection acts as

    R (phi_1, phi_2) = -(phi_2 o rho, phi_1 o rho),   rho: theta -> pi - theta,

so the odd/even pair falls out of diagonalizing R restricted to a real
basis of the kernel: the odd eigenvector has the structure
(phi_ref, phi), the even one (phi, -phi_ref) with phi_ref = phi o rho.

First-order perturbation data come from central differences of the
assembled operator: with T_p, T_lam, S the derivatives in quasi-momentum,
spectral parameter and dimerization, the bilinear pairings against the
odd/even pair must reproduce

    <phi_j, T_lam phi_i> = gamma* delta_ij,
    <phi_j, T_p   phi_i> = i theta* (1 - delta_ij) (-1)^{i-1},
    <phi_j, S     phi_i> = t* (-1)^{i-1} delta_ij,

whose off-pattern entries are certified below a 5% tolerance.  The
dispersion slope at the crossing is |theta*/gamma*| and the dimerized
half-gap is delta |t*/gamma*| to first order.

Dimerization swaps the odd/even pair between the gap edges.  The swap
check reads the band-edge modes of the certified +delta gap zone; the
-delta cell is the +delta one shifted by e1/2, so its edge fields are the
zone's read at the sample points + e1/2, and no band is solved again.  The
sample grid maps onto itself under that shift, so those are the zone's
fields on the grid permuted, up to the Floquet sign of the wrapped points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, StructureViolationError, SwapInconclusiveError, SymmetryFailureError,
)
from .gapgreens import GapZone
from .geometry import ObstacleShape, half_shift_map, reflect_indices
from .layerops import DensityPair, assemble_T, cell_sample_points, field_from_density
from .qpgreens import KernelParams

PATTERN_TOL = 0.05
SWAP_DOMINANT = 0.9           # each edge mode's overlap with its crossing mode exceeds this
SYMMETRY_TOL = 1e-3
SIGN_TIE_TOL = 1e-9           # entries this close (relative) to the largest tie for the sign
FD_STEP_RANGE = (1e-5, 1e-3)  # admissible central-difference steps


@dataclass
class DiracData:
    p_star: float
    lambda_star: float
    phi_odd: DensityPair
    phi_even: DensityPair
    gamma_star: float
    theta_star: float
    t_star: float
    alpha_star: float
    beta_star: float
    pairing_matrices: dict = field(repr=False, default_factory=dict)
    pattern_residuals: dict = field(default_factory=dict)
    symmetry_residuals: dict = field(default_factory=dict)


def _reflect_density(pair: DensityPair, rho: np.ndarray) -> DensityPair:
    return DensityPair(phi1=-pair.phi2[rho], phi2=-pair.phi1[rho])


def _wdot(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(weights * a * b))


def symmetrize_dirac_modes(raw, shape: ObstacleShape, weights: np.ndarray):
    """Recombine a kernel basis into the odd/even pair.

    ``raw`` is a sequence of two DensityPairs spanning the crossing
    kernel; ``weights`` the stacked arc-length weights.  Returns
    (phi_odd, phi_even, residuals): real unit-norm pairs with the sign
    gauge fixed by a positive dominant entry (_lead_index).
    """
    if len(raw) != 2:
        raise SymmetryFailureError("need exactly two kernel vectors")
    n = shape.n_nodes
    rho = reflect_indices(n)

    cols = []
    for pair in raw:
        v = pair.stacked
        cols.extend([v.real, v.imag])
    B = np.column_stack(cols)
    sq = np.sqrt(weights)
    U, s, _ = np.linalg.svd(sq[:, None] * B, full_matrices=False)
    if s[1] < 1e-6 * s[0]:
        raise SymmetryFailureError(
            "kernel basis does not span a real two-dimensional space"
        )
    basis = [U[:, 0] / sq, U[:, 1] / sq]  # real, W-orthonormal

    refl = []
    for b in basis:
        pair = DensityPair.from_stacked(b.astype(complex))
        refl.append(_reflect_density(pair, rho).stacked.real)
    S2 = np.array(
        [[_wdot(weights, basis[i], refl[j]).real for j in range(2)] for i in range(2)]
    )
    vals, vecs = np.linalg.eigh(0.5 * (S2 + S2.T))
    if not (vals[0] < -1 + 0.1 and vals[1] > 1 - 0.1):
        raise SymmetryFailureError(
            f"reflection eigenvalues {vals} far from -1, +1; kernel not parity-split"
        )

    out = []
    for k in (0, 1):  # eigenvalue -1 first (odd), then +1 (even)
        v = vecs[0, k] * basis[0] + vecs[1, k] * basis[1]
        v /= np.sqrt(np.sum(weights * v**2))
        if v[_lead_index(v)] < 0:
            v = -v
        out.append(DensityPair.from_stacked(v.astype(complex)))
    phi_odd, phi_even = out

    res_odd = _parity_residual(phi_odd, rho, weights, parity=-1)
    res_even = _parity_residual(phi_even, rho, weights, parity=+1)
    structure = _structure_residual(phi_odd, phi_even, rho, weights)
    residuals = {
        "odd_reflection": res_odd,
        "even_reflection": res_even,
        "pair_structure": structure,
    }
    if max(res_odd, res_even) > SYMMETRY_TOL:
        raise SymmetryFailureError(f"parity residuals too large: {residuals}")
    return phi_odd, phi_even, residuals


def _lead_index(v: np.ndarray) -> int:
    """The first index whose |entry| is within SIGN_TIE_TOL of the largest.

    The crossing modes reach their largest magnitude at symmetry images of
    one node (the mid-height mirror and the x1-reflection, which flips the
    sign of the even mode), equal up to roundoff; the first of them fixes
    the sign gauge whatever the roundoff.
    """
    mag = np.abs(v)
    return int(np.flatnonzero(mag >= (1.0 - SIGN_TIE_TOL) * np.max(mag))[0])


def _parity_residual(pair, rho, weights, parity):
    refl = _reflect_density(pair, rho)
    diff = refl.stacked - parity * pair.stacked
    return float(np.sqrt(np.sum(weights * np.abs(diff) ** 2).real))


def _structure_residual(phi_odd, phi_even, rho, weights):
    """Check (phi_ref, phi) / (phi, -phi_ref) component structure."""
    r1 = phi_odd.phi1 - phi_odd.phi2[rho]
    r2 = phi_even.phi2 + phi_even.phi1[rho]
    w = weights[: len(r1)]
    return float(
        np.sqrt(np.sum(w * (np.abs(r1) ** 2 + np.abs(r2) ** 2)).real)
    )


def compute_coefficients(
    modes,
    shape: ObstacleShape,
    p_star: float,
    lambda_star: float,
    params: KernelParams,
    step: float = 2e-4,
):
    """Perturbation coefficients (gamma*, theta*, t*) by operator differencing.

    ``modes`` = (phi_odd, phi_even).  Central differences of one ``step``
    of the assembled action in p, lambda, delta at the crossing, from five
    assemble_T calls: the momentum pair p* -+ step is one call with two
    momenta, the lambda and delta pairs two calls each.  All share one
    node set, so the dimerization derivative sees only the
    kernel-argument shifts.  Returns (gamma, theta, t,
    matrices, residuals); raises StructureViolationError when any
    off-pattern entry exceeds PATTERN_TOL of the dominant scale.
    """
    lo, hi = FD_STEP_RANGE
    if not lo <= step <= hi:
        raise StructureViolationError(f"step {step} outside [{lo:g}, {hi:g}]")

    phi = [m.stacked.real for m in modes]
    weights = np.concatenate([shape.weights, shape.weights])

    def action(p, lam, delta):
        return assemble_T(p, lam, delta, shape, params).entries

    h = step
    T_plus, T_minus = action(np.array([p_star + h, p_star - h]), lambda_star, 0.0)
    Tp = (T_plus - T_minus) / (2 * h)
    Tl = (action(p_star, lambda_star + h, 0.0) - action(p_star, lambda_star - h, 0.0)) / (2 * h)
    S = (action(p_star, lambda_star, h) - action(p_star, lambda_star, -h)) / (2 * h)

    def pairing(X):
        return np.array(
            [[_wdot(weights, phi[j], X @ phi[i]) for i in range(2)] for j in range(2)]
        )

    P_l, P_p, P_s = pairing(Tl), pairing(Tp), pairing(S)

    gamma = 0.5 * (P_l[0, 0] + P_l[1, 1]).real
    theta = P_p[1, 0].imag
    t = P_s[0, 0].real
    scale_l, scale_p, scale_s = abs(gamma), abs(theta), abs(t)

    residuals = {
        "lam_offdiag": max(abs(P_l[0, 1]), abs(P_l[1, 0])) / scale_l,
        "lam_diag_split": abs(P_l[0, 0] - P_l[1, 1]) / scale_l,
        "p_diag": max(abs(P_p[0, 0]), abs(P_p[1, 1])) / scale_p,
        "p_real_part": max(abs(P_p[0, 1].real), abs(P_p[1, 0].real)) / scale_p,
        "p_antisym": abs(P_p[0, 1] + P_p[1, 0]) / scale_p,
        "s_offdiag": max(abs(P_s[0, 1]), abs(P_s[1, 0])) / scale_s,
        "s_diag_sum": abs(P_s[0, 0] + P_s[1, 1]) / scale_s,
        "gamma_imag": abs(P_l[0, 0].imag) / scale_l,
        "t_imag": abs(P_s[0, 0].imag) / scale_s,
    }
    worst = max(residuals.values())
    if worst > PATTERN_TOL:
        raise StructureViolationError(
            f"pairing pattern violated (worst residual {worst:.3f}): {residuals}"
        )
    matrices = {"T_lambda": P_l, "T_p": P_p, "S": P_s}
    return gamma, theta, t, matrices, residuals


def compute_dirac_data(shape: ObstacleShape, params: KernelParams, hint: float) -> DiracData:
    """Full crossing analysis: location (bands.dirac_point, searched around
    the energy ``hint``), parity modes, coefficients."""
    from .bands import dirac_point

    p_star, lambda_star, kernel = dirac_point(hint, shape, params)
    weights = np.concatenate([shape.weights, shape.weights])
    phi_odd, phi_even, sym_res = symmetrize_dirac_modes(kernel, shape, weights)
    gamma, theta, t, matrices, pat_res = compute_coefficients(
        (phi_odd, phi_even), shape, p_star, lambda_star, params
    )
    alpha = abs(theta / gamma)
    beta = t / gamma
    if alpha <= 0:
        raise StructureViolationError("crossing slope must be positive")
    return DiracData(
        p_star=p_star,
        lambda_star=lambda_star,
        phi_odd=phi_odd,
        phi_even=phi_even,
        gamma_star=gamma,
        theta_star=theta,
        t_star=t,
        alpha_star=alpha,
        beta_star=beta,
        pairing_matrices=matrices,
        pattern_residuals=pat_res,
        symmetry_residuals=sym_res,
    )


def asymptotic_band_check(
    dirac: DiracData,
    delta: float,
    curve1,
    curve2,
    window: float = 0.1,
) -> dict:
    """Deviation report: traced dimerized bands vs the conic closed form.

    Closed form: lambda* -+ sqrt(delta^2 t*^2 + theta*^2 (p-pi)^2)/|gamma*|
    over |p - pi| <= window; expected accuracy O(delta + |p-pi|) relative
    to the local band excursion.
    """
    report = {"delta": delta, "window": window}
    gap_scale = abs(delta * dirac.beta_star)
    tol = 3.0 * (abs(delta) + window) * max(gap_scale, 1e-12)
    for name, curve, sign in (("lower", curve1, -1), ("upper", curve2, +1)):
        sel = np.abs(curve.p_grid - np.pi) <= window + 1e-12
        q = curve.p_grid[sel] - np.pi
        closed = dirac.lambda_star + sign * np.sqrt(
            (delta * dirac.t_star) ** 2 + (dirac.theta_star * q) ** 2
        ) / abs(dirac.gamma_star)
        dev = np.max(np.abs(curve.lambdas[sel] - closed))
        report[f"{name}_max_deviation"] = float(dev)
        report[f"{name}_pass"] = bool(dev < tol)
    report["tolerance"] = float(tol)
    edge_gap = 0.5 * (
        np.interp(np.pi, curve2.p_grid, curve2.lambdas)
        - np.interp(np.pi, curve1.p_grid, curve1.lambdas)
    )
    report["edge_half_gap"] = float(edge_gap)
    report["predicted_half_gap"] = float(abs(delta * dirac.beta_star))
    report["edge_rel_error"] = float(
        abs(edge_gap - abs(delta * dirac.beta_star)) / abs(delta * dirac.beta_star)
    )
    return report


def mode_swap_check(dirac: DiracData, zone: GapZone):
    """Band-edge eigenspace overlaps at p = pi for the +-delta structures.

    ``zone`` is the certified +delta gap zone.  Returns (overlaps, labels):
    overlaps[sign][n, k] is the normalized field overlap
    |<u_{n, sign*delta}, phi_k>| on a cell sample grid (n = 1 lower edge,
    n = 2 upper edge; k = 1 odd, k = 2 even).  The -delta edge fields are
    the +delta ones at the sample points + e1/2: the grid maps onto itself
    under that shift, so they are the +delta fields permuted, with the
    factor e^{i pi} = -1 on the points that wrap past x1 = 1 (DomainError
    if the grid or its mask is not invariant).  The two patterns must be
    permutation-dominant and mutually swapped.
    """
    if zone.delta <= 0 or zone.edge_densities is None:
        raise SwapInconclusiveError("swap check needs a +delta zone with its edge densities")
    pts = cell_sample_points(0.0, zone.shape, margin=0.06)
    shift = half_shift_map(pts)
    if shift is None:
        raise DomainError("swap-check sample grid is not invariant under x1 -> x1 + 1/2")
    perm, wrapped = shift
    floquet = np.where(wrapped, -1.0, 1.0)  # e^{ip} at p = pi on the wrapped points

    def unit_fields(densities, lam, delta):
        fields = field_from_density(densities, pts, np.pi, lam, delta, zone.shape,
                                    zone.params)
        return [f / np.linalg.norm(f) for f in fields]

    fields_phi = unit_fields((dirac.phi_odd, dirac.phi_even), dirac.lambda_star, 0.0)
    edge_fields = {+1: [unit_fields([dens], lam, zone.delta)[0]
                        for lam, dens in zip(zone.edges, zone.edge_densities)]}
    edge_fields[-1] = [floquet * f[perm] for f in edge_fields[+1]]
    overlaps = {sign: np.abs([[np.vdot(f_phi, f) for f_phi in fields_phi] for f in fields])
                for sign, fields in edge_fields.items()}

    for sign, mat in overlaps.items():
        for n, row in enumerate(mat):
            if np.max(row) > SWAP_DOMINANT:
                continue
            edge = (f"the {('lower', 'upper')[n]} {'+-'[sign < 0]}delta edge at "
                    f"lambda={zone.edges[n]:.6f} (overlaps {row[0]:.1e} odd, {row[1]:.1e} even)")
            if np.max(row) < 1 - SWAP_DOMINANT:
                raise SwapInconclusiveError(
                    f"{edge} is orthogonal to both crossing modes: band {n + 1} at p = pi "
                    "is not a band that the crossing opens")
            raise SwapInconclusiveError(f"no dominant overlap at {edge}")
    pattern_plus = np.argmax(overlaps[+1], axis=1)
    pattern_minus = np.argmax(overlaps[-1], axis=1)
    if not np.array_equal(np.sort(pattern_plus), [0, 1]):
        raise SwapInconclusiveError(f"+delta pattern degenerate: {overlaps[+1]}")
    if not np.array_equal(pattern_minus, 1 - pattern_plus):
        raise SwapInconclusiveError(
            f"band-edge eigenspaces not swapped: +delta {pattern_plus}, -delta {pattern_minus}"
        )
    return overlaps, {"plus": pattern_plus.tolist(), "minus": pattern_minus.tolist()}
