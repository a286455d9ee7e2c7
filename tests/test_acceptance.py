"""Acceptance gate: one test per criterion, with a printed verdict line.

Each criterion is evaluated at its stated tolerance; the printed line
survives in the pytest output with ``-s`` or on failure.  Criterion 1's
third-singular-value clause is known to be unattainable for the default
radius-0.1 disk at N = 64 and is asserted literally anyway: sigma_3 is the
single-layer eigenvalue of the highest resolved Fourier mode, about R/N
(3.18e-3 at N = 32, 1.57e-3 at N = 64), so sigma_3/sigma_max falls like 1/N
(1.39e-2, then 6.87e-3 against the demanded 1e-2).  The empty-guide
dispersion sheet 3.3 below the crossing energy, which inflates sigma_max,
is the smaller factor.
"""

import time

import numpy as np

from diracwg.bands import (
    band_slope_at_crossing,
    dirac_point,
    find_band_lambda,
)
from diracwg.dirac import compute_dirac_data, mode_swap_check
from diracwg.fdoracle import FDGrid, fd_band_chart_richardson, fd_bloch_eigs
from diracwg.gapgreens import ZoneFibers, helmholtz_residual_check
from diracwg.geometry import make_disk
from diracwg.layerops import (
    assemble_T,
    assemble_half,
    cell_sample_points,
    field_from_density,
    min_singular_values,
    weighted_svd,
)
from diracwg.qpgreens import KernelParams
from kernel_refs import eval_Ge, eval_Ge_many


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_dirac_crossing(shape, params, fd_reference):
    t0 = time.time()
    lam_fd = fd_reference["crossing"][0]
    p_star, lam_star, _ = dirac_point(lam_fd, shape, params)

    # the two folded curves meet at the fold momentum
    lam1, _ = find_band_lambda(np.pi, (lam_star - 0.5, lam_star + 0.5), 0.0,
                               shape, params, branch=+1, band=1)
    lam2, _ = find_band_lambda(np.pi, (lam_star - 0.5, lam_star + 0.5), 0.0,
                               shape, params, branch=-1, band=1)
    crossing_gap = abs(lam1 - lam2)

    T = assemble_T(np.pi, lam_star, 0.0, shape, params)
    s = min_singular_values(T, 3)
    smax = np.linalg.svd(T.weighted(), compute_uv=False)[0]
    elapsed = time.time() - t0

    ok_cross = crossing_gap < 1e-6 * lam_star
    ok_pair = s[0] < 1e-5 * smax and s[1] < 1e-5 * smax
    ok_third = s[2] > 1e-2 * smax
    ok_time = elapsed < 120.0
    _verdict(
        1,
        ok_cross and ok_pair and ok_third and ok_time,
        f"|l1-l2|={crossing_gap:.2e} ({'ok' if ok_cross else 'bad'}), "
        f"pair sigmas {s[0]:.1e},{s[1]:.1e} vs 1e-5*smax={1e-5*smax:.1e} "
        f"({'ok' if ok_pair else 'bad'}), third/smax={s[2]/smax:.2e} vs 1e-2 "
        f"({'ok' if ok_third else 'bad: known defect, see ledger'}), "
        f"runtime {elapsed:.0f}s",
    )
    assert ok_cross and ok_pair and ok_time
    assert ok_third, (
        f"third singular value ratio {s[2]/smax:.3e} below the demanded 1e-2; "
        "sigma_3 is the single-layer eigenvalue of the highest resolved Fourier "
        "mode, about R/N, so the ratio falls like 1/N (the empty-guide sheet at "
        "lambda = pi^2 + 4 pi^2, inflating sigma_max, is the smaller factor)"
    )


def test_criterion_2_slope_consistency(shape, params, dirac_data):
    slope = band_slope_at_crossing(shape, params, dirac_data.lambda_star)
    rel = abs(slope - dirac_data.alpha_star) / dirac_data.alpha_star
    assert _verdict(2, rel < 0.03,
                    f"band slope {slope:.5f} vs |theta*/gamma*| "
                    f"{dirac_data.alpha_star:.5f} (rel {rel:.2e} < 3e-2)")


def test_criterion_3_pairing_patterns(params, fd_reference, dirac_data):
    worst = {0.1: max(dirac_data.pattern_residuals.values())}
    for radius in (0.08, 0.12):
        sh = make_disk(radius, 64)
        lam_fd = fd_bloch_eigs(np.pi, 0.0, 1, FDGrid(96), sh)[0]
        data = compute_dirac_data(sh, params, lam_fd)
        worst[radius] = max(data.pattern_residuals.values())
    ok = all(v < 0.05 for v in worst.values())
    assert _verdict(3, ok,
                    "off-pattern residuals by radius: "
                    + ", ".join(f"{r}: {v:.2e}" for r, v in sorted(worst.items())))


def test_criterion_4_gap_scaling(shape, params, dirac_data):
    lam_star = dirac_data.lambda_star
    widths = {}
    edge_errs = {}
    for delta in (0.005, 0.01, 0.02):
        half = abs(delta * dirac_data.beta_star)
        lo, _ = find_band_lambda(np.pi, (lam_star - 1.8 * half, lam_star - 0.3 * half),
                                 delta, shape, params, band=1)
        hi, _ = find_band_lambda(np.pi, (lam_star + 0.3 * half, lam_star + 1.8 * half),
                                 delta, shape, params, band=2)
        # the two dimerization signs share the band functions; certify both
        lo_m, _ = find_band_lambda(np.pi, (lam_star - 1.8 * half, lam_star - 0.3 * half),
                                   -delta, shape, params, band=1)
        assert abs(lo - lo_m) < 1e-6
        assert lo < lam_star < hi
        widths[delta] = hi - lo
        edge_errs[delta] = max(abs(hi - lam_star - half), abs(lam_star - lo - half)) / half
    r1 = widths[0.01] / widths[0.005]
    r2 = widths[0.02] / widths[0.01]
    ok = (1.8 < r1 < 2.2) and (1.8 < r2 < 2.2) and all(e < 0.15 for e in edge_errs.values())
    assert _verdict(4, ok,
                    f"widths {dict((k, round(v, 4)) for k, v in widths.items())}, "
                    f"ratios {r1:.3f}, {r2:.3f} in [1.8, 2.2], "
                    f"edge errors {dict((k, round(v, 3)) for k, v in edge_errs.items())} < 0.15")


def test_criterion_5_band_edge_swap(dirac_data, gap_zone):
    overlaps, labels = mode_swap_check(dirac_data, gap_zone)
    dominant = min(np.max(overlaps[s][r]) for s in (+1, -1) for r in (0, 1))
    cross = max(np.min(overlaps[s][r]) for s in (+1, -1) for r in (0, 1))
    swapped = labels["minus"] == [1 - k for k in labels["plus"]]
    ok = dominant > 0.95 and cross < 0.2 and swapped
    assert _verdict(5, ok,
                    f"dominant overlaps > {dominant:.3f}, cross < {cross:.3f}, "
                    f"patterns plus={labels['plus']} minus={labels['minus']}")


def test_criterion_6_interface_mode(interface_result, fd_supercell, build_timings):
    gap_width = interface_result.gap[1] - interface_result.gap[0]
    dev = abs(interface_result.lambda_star_mode - fd_supercell["lambda_richardson"])
    res = interface_result.interface_residuals
    elapsed = (build_timings.get("gap_zone", 0.0)
               + build_timings.get("interface_result", 0.0))
    ok = (
        interface_result.warnings == []
        and dev < 0.2 * gap_width
        and res["continuity"] < 5e-2
        and res["derivative"] < 5e-2
        and res["dirichlet"] < 1e-2
        and res["mirror_odd"] < 1e-10
        and elapsed < 1800.0
    )
    assert _verdict(6, ok,
                    f"lambda*={interface_result.lambda_star_mode:.6f} vs FD "
                    f"{fd_supercell['lambda_richardson']:.6f} "
                    f"(dev {dev / gap_width:.4f} gap < 0.2), residuals "
                    f"cont={res['continuity']:.1e} deriv={res['derivative']:.1e} "
                    f"dirichlet={res['dirichlet']:.1e} mirror-odd={res['mirror_odd']:.1e} "
                    f"(the even-sector FD mode needs < 1e-10), build {elapsed:.0f}s < 1800s")


def test_criterion_7_exponential_decay(interface_result, fd_supercell):
    kap = interface_result.kappa
    kap_fd = fd_supercell[96]["kappa"]
    ok = (kap > 0 and interface_result.r_squared > 0.95
          and abs(kap - kap_fd) < 0.25 * kap_fd)
    assert _verdict(7, ok,
                    f"kappa={kap:.4f} (R^2={interface_result.r_squared:.4f} > 0.95), "
                    f"supercell kappa={kap_fd:.4f} (dev {abs(kap-kap_fd)/kap_fd:.1%} < 25%)")


def test_criterion_8_green_identity_suite(bloch_table, interface_result):
    prm = KernelParams()
    rng = np.random.default_rng(11)
    xs = np.column_stack([rng.uniform(-0.4, 0.4, 50), rng.uniform(0.04, 0.46, 50)])
    ys = np.column_stack([rng.uniform(-0.4, 0.4, 50), rng.uniform(0.04, 0.46, 50)])
    base = eval_Ge_many(xs, ys, 1.3, 11.0, prm)
    shifted = eval_Ge_many(xs + np.array([1.0, 0.0]), ys, 1.3, 11.0, prm)
    qp_dev = float(np.max(np.abs(shifted - np.exp(1.3j) * base) / np.abs(base)))

    conj_dev = 0.0
    for h in (0.2, 0.45):
        a = eval_Ge([0.21, 0.3], [0.55, 0.17], np.pi + h, 12.3, prm)
        b = eval_Ge([0.21, 0.3], [0.55, 0.17], np.pi - h, 12.3, prm)
        conj_dev = max(conj_dev, abs(a - np.conj(b)) / abs(a))

    tp = bloch_table.zone()
    mid = 0.5 * sum(interface_result.gap)
    fibers, _ = ZoneFibers.solve([[0.0, 0.35], [0.0, 0.2]], mid, tp)
    g1 = fibers.gdelta([0.0, 0.2], 0)[0, 0]
    g2 = fibers.gdelta([0.0, 0.35], 1)[0, 0]
    rec_dev = abs(g1 - g2) / abs(g1)
    p1 = fibers.gdelta([0.4, 0.2], 0)[0, 0]
    p2 = fibers.gdelta([-0.4, 0.2], 0)[0, 0]
    par_dev = abs(p1 - p2) / abs(p1)
    resid = helmholtz_residual_check(tp, mid, np.array([[0.45, 0.40]]), [0.0, 0.3])

    ok = qp_dev < 1e-12 and conj_dev < 1e-12 and rec_dev < 1e-4 and par_dev < 1e-4 and resid < 1e-2
    assert _verdict(8, ok,
                    f"quasi-periodicity {qp_dev:.1e} < 1e-12, conjugation "
                    f"{conj_dev:.1e} < 1e-12, reciprocity {rec_dev:.1e} < 1e-4, "
                    f"parity {par_dev:.1e} < 1e-4, Helmholtz residual {resid:.1e} < 1e-2")


def test_criterion_9_oracle_equivalence(shape, params):
    # ten sampled (p, band) points: certified energies vs the extrapolated
    # finite-difference oracle
    ps = np.array([0.7, 1.4, 2.1, 2.8, 3.6])
    chart = fd_band_chart_richardson(np.minimum(ps, 2 * np.pi - ps), 0.0, 2,
                                     FDGrid(64), shape)
    worst = 0.0
    for row, p in zip(chart, ps):
        for band in (1, 2):
            seed = row[band]
            lam, _ = find_band_lambda(p, (seed - 0.25, seed + 0.25), 0.0,
                                      shape, params, band=band)
            worst = max(worst, abs(lam - seed) / lam)
    assert _verdict(9, worst < 5e-3,
                    f"max relative band deviation over 10 points: {worst:.2e} < 5e-3")


def test_criterion_10_bloch_flux_identity(shape, params, dirac_data):
    # unit-cell-normalized traveling mode at the crossing: the axial flux
    # through the junction line equals (i/2) x (crossing slope)
    lam_star = dirac_data.lambda_star
    alpha = dirac_data.alpha_star

    def flux(branch):
        A, w = assemble_half(np.pi, lam_star, branch, shape, params)
        _, s, vh = weighted_svd(A, w)
        psi = np.conj(vh[-1]) / np.sqrt(w)
        from diracwg.layerops import DensityPair

        nu = branch * np.exp(0.5j * np.pi)
        dens = DensityPair(phi1=psi, phi2=nu * psi)
        pts = cell_sample_points(0.0, shape, nx=96, ny=48, margin=0.02)
        u = field_from_density(dens, pts, np.pi, lam_star, 0.0, shape, params)
        norm = np.sqrt(np.sum(np.abs(u) ** 2) * 0.5 / (96 * 48))

        s_nodes = np.linspace(0.0, 0.5, 65)
        gpts = np.column_stack([np.zeros_like(s_nodes), s_nodes])
        h = 1e-4
        up = field_from_density(dens, gpts + [h, 0], np.pi, lam_star, 0.0, shape, params)
        dn = field_from_density(dens, gpts - [h, 0], np.pi, lam_star, 0.0, shape, params)
        du = (up - dn) / (2 * h)
        u0 = field_from_density(dens, gpts, np.pi, lam_star, 0.0, shape, params)
        integrand = du * np.conj(u0) / norm**2
        return np.trapezoid(integrand, s_nodes)

    f_plus = flux(+1)
    f_minus = flux(-1)
    # the right-propagating mode is the branch with positive axial flux
    f_right = f_plus if f_plus.imag > 0 else f_minus
    target = 0.5j * alpha
    dev = abs(f_right - target) / abs(target)
    opposite = abs(f_plus + f_minus) / abs(target)
    ok = dev < 0.05 and opposite < 0.05
    assert _verdict(10, ok,
                    f"flux {f_right:.5f} vs (i/2) alpha* = {target:.5f} "
                    f"(rel dev {dev:.2%} < 5%), branch antisymmetry {opposite:.2e}")
