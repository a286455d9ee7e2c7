"""Output checks, run after the timed part.

Each checked quantity is one operation.  A check returns True or False, or
None when the output it reads is missing (the command failed): None counts
as a failed operation, False as a wrong result.

References come from the package's finite-difference oracle (``fdoracle``),
a separate discretisation that the harness runs itself, and from properties
the boundary-integral method must have.  Tolerances are those of the
acceptance suite (tests/test_acceptance.py) where it has one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FD_NX = 64            # coarse FD grid; Richardson pairs it with 1.5 x FD_NX
FD_REL_TOL = 5e-3     # band points vs the extrapolated FD chart (criterion 9)
SLOPE_REL_TOL = 3e-2  # band slope vs |theta*/gamma*| (criterion 2)
WIDTH_REL_TOL = 0.15  # gap width vs 2 delta |beta*| (criterion 3)
RATIO_RANGE = (1.8, 2.2)
SAME_POINT_REL = 1e-6  # one certified point computed twice or by symmetry


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ------------------------------------------------------------- references

def crossing_reference(cfg) -> dict:
    from diracwg.fdoracle import FDGrid, fd_band_chart_richardson

    row = fd_band_chart_richardson(np.array([np.pi]), 0.0, 2, FDGrid(FD_NX), cfg.shape())[0]
    return {"lambda_fd": float(row[1])}


def dispersion_reference(cfg) -> dict:
    from diracwg.fdoracle import FDGrid, fd_band_chart_richardson

    p_half = np.unique(np.round(np.minimum(cfg.p_grid(), 2 * np.pi - cfg.p_grid()), 12))
    charts = {}
    for delta in (0.0, *cfg.deltas):
        charts[delta] = fd_band_chart_richardson(p_half, delta, 2, FDGrid(FD_NX), cfg.shape())
    return {"charts": charts}


def interface_reference(cfg, gap_center: float) -> dict:
    from diracwg.fdoracle import FDGrid, fd_supercell_interface, mode_decay_rate

    out = {}
    for nx in (FD_NX, 3 * FD_NX // 2):
        lam, _, mode, meta = fd_supercell_interface(
            cfg.deltas[0], cfg.supercell_cells, FDGrid(nx), cfg.shape(), gap_center)
        out[nx] = (float(lam), float(mode_decay_rate(mode, meta["X"], 1.0, 4.0)[0]))
    r = 1.5 ** 2
    return {"lambda_fd": (r * out[3 * FD_NX // 2][0] - out[FD_NX][0]) / (r - 1.0),
            "kappa_fd": out[3 * FD_NX // 2][1]}


# ----------------------------------------------------------------- checks

def check_crossing(out: Path, codes: list[int], ref: dict) -> list:
    d = _load_json(out / "dirac.json") if codes[0] == 0 else None
    g = _load_json(out / "gap.json") if codes[1] == 0 else None
    checks = [("dirac_exit_0", codes[0] == 0 or None), ("gap_exit_0", codes[1] == 0 or None)]
    if d is None:
        checks += [("lambda_star_vs_fd", None), ("slope_vs_alpha", None)]
    else:
        lam = d["lambda_star"]
        checks.append(("lambda_star_vs_fd", abs(lam - ref["lambda_fd"]) / lam < FD_REL_TOL))
        checks.append(("slope_vs_alpha",
                       abs(d["band_slope"] - d["alpha_star"]) / d["alpha_star"] < SLOPE_REL_TOL))
    if g is None:
        checks += [("gap_ratio", None)] * 2 + [("gap_width", None), ("star_in_gap", None)] * 3
    else:
        entries = sorted(g["entries"], key=lambda e: e["delta"])
        widths = {e["delta"]: e["width"] for e in entries}
        for k, v in g["scaling"].items():
            checks.append((f"gap_ratio_{k}", RATIO_RANGE[0] < v < RATIO_RANGE[1]))
        for e in entries:
            pred = 2 * e["delta"] * abs(g["beta_star"])
            checks.append((f"gap_width_{e['delta']}",
                           abs(widths[e["delta"]] - pred) / pred < WIDTH_REL_TOL))
            checks.append((f"star_in_gap_{e['delta']}",
                           e["edge_lower"] < g["lambda_star"] < e["edge_upper"]))
    if d is None or g is None:
        checks.append(("lambda_star_agree", None))
    else:
        checks.append(("lambda_star_agree",
                       abs(d["lambda_star"] - g["lambda_star"]) < SAME_POINT_REL * d["lambda_star"]))
    return checks


def check_dispersion(out: Path, codes: list[int], ref: dict, cfg) -> list:
    checks = [("bands_exit_0", codes[0] == 0 or None)]
    n_curves = 2 * (1 + 2 * len(cfg.deltas))
    n_points = n_curves * len(cfg.p_grid())
    path = out / "bands.csv"
    if codes[0] != 0 or not path.exists():
        return checks + [("bands_output", None)] * (1 + n_curves + 2 * len(cfg.deltas)
                                                    + 1 + 2 * len(cfg.deltas) + n_points)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def curve(band, delta):
        rows = data[(data[:, 0] == band) & np.isclose(data[:, 1], delta)]
        return rows[np.argsort(rows[:, 2]), 2], rows[np.argsort(rows[:, 2]), 3]

    p, lam1 = curve(1, 0.0)
    _, lam2 = curve(2, 0.0)
    at_pi = np.argmin(np.abs(p - np.pi))
    checks.append(("curves_meet_at_pi",
                   abs(lam1[at_pi] - lam2[at_pi]) < SAME_POINT_REL * lam1[at_pi]))
    deltas = sorted({0.0, *cfg.deltas, *(-d for d in cfg.deltas)})
    for delta in deltas:
        for band in (1, 2):
            p, lam = curve(band, delta)
            mirror = np.interp(2 * np.pi - p, p, lam)
            checks.append((f"mirror_b{band}_d{delta}",
                           bool(np.all(np.abs(lam - mirror) < SAME_POINT_REL * lam))))
    for delta in cfg.deltas:
        for band in (1, 2):
            _, plus = curve(band, delta)
            _, minus = curve(band, -delta)
            checks.append((f"plus_minus_b{band}_d{delta}",
                           bool(np.all(np.abs(plus - minus) < SAME_POINT_REL * plus))))
    for delta in deltas:
        _, lo = curve(1, delta)
        _, hi = curve(2, delta)
        ok = np.all(lo <= hi) if delta == 0 else np.all(lo < hi)
        checks.append((f"band_order_d{delta}", bool(ok)))
    for delta in deltas:
        chart = ref["charts"][abs(delta)]
        for band in (1, 2):
            p, lam = curve(band, delta)
            for pk, lk in zip(p, lam):
                fold = min(pk, 2 * np.pi - pk)
                row = chart[np.argmin(np.abs(chart[:, 0] - fold))]
                checks.append((f"fd_b{band}_d{delta}_p{pk:.4f}",
                               abs(lk - row[band]) / lk < FD_REL_TOL))
    return checks


def check_interface(out: Path, codes: list[int], ref_fn, delta: float) -> list:
    tag = f"{delta:g}".replace(".", "p")  # cli.cmd_interface's file name
    r = _load_json(out / f"interface_delta{tag}.json") if codes[0] == 0 else None
    names = ["lambda_in_gap", "lambda_vs_fd", "lambda_near_centre", "kappa_positive",
             "kappa_r2", "kappa_vs_fd", "continuity", "derivative", "dirichlet",
             "no_warnings"]
    checks = [("interface_exit_0", codes[0] == 0 or None)]
    if r is None:
        return checks + [(n, None) for n in names]
    e1, e2 = r["gap"]
    width = e2 - e1
    lam = r["lambda_star_mode"]
    centre = 0.5 * (e1 + e2)
    ref = ref_fn(centre)
    res = r["residuals"]
    values = [
        e1 < lam < e2,
        abs(lam - ref["lambda_fd"]) < 0.2 * width,       # criterion 6
        # the mode bifurcates from the crossing energy, which sits at the
        # centre of the first-order gap
        abs(lam - centre) < 0.1 * width,
        r["kappa"] > 0,
        r["r_squared"] > 0.95,                            # criterion 7
        abs(r["kappa"] - ref["kappa_fd"]) < 0.25 * ref["kappa_fd"],
        res["continuity"] < 5e-2,
        res["derivative"] < 5e-2,
        res["dirichlet"] < 1e-2,
        r["warnings"] == [],
    ]
    return checks + list(zip(names, values))
