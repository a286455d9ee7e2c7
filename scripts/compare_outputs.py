#!/usr/bin/env python3
"""Compare the JSON outputs of two diracwg runs, field by field.

    python scripts/compare_outputs.py PARENT CHANGE [--reference REF]

PARENT, CHANGE and REF are output directories (every ``*.json`` in PARENT
is compared with the file of the same relative path) or single JSON files.
Each numeric leaf falls in one tolerance class, by the keys leading to it:

    rel 1e-12   lambda*, t*, the band slope, the gap edges (and the widths
                and scaling ratios made of them), the interface lambda,
                kappa, r^2 and every other FD number (fd_supercell)
    rel 1e-10   alpha*, beta*, gamma*, |theta*| and the fields derived from
                beta* (predicted_width): their central-difference floor
    offset 1e-10  the ends of gap.json's interval and the interface gap,
                lambda* -+ c delta |beta*|: an end's change relative to its
                offset from lambda* (gap.json's lambda_star; the interface
                JSON has none, and the midpoint of its gap stands in).  An
                end of the interface gap cut to a band edge is that edge, a
                1e-12 number whose change stays far inside this class
    abs 1e-10   slope_rel_dev, whose change is bounded by alpha*'s class, and
                fd_supercell.gap_fraction_deviation = |lambda - lambda_FD| /
                gap width, a small difference of two numbers near 52, which
                magnifies their relative moves by about 2000
    abs 1e-12   the swap overlaps (their labels must be equal)
    own scale   residuals (keys under *residuals, sigma_min_at_root): within
                a factor 10 of the parent's, or both below the 1e-10 floor
                of the central-difference coefficients they are made of

Other leaves must be equal.  With ``--reference`` (for example a run at
``numerics.m_trunc = 4096``) each leaf that left its class also reports
whether CHANGE is closer to REF than PARENT is.  Exit status 0 when every
leaf stays within its class or moves toward REF, 1 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

# (class, tolerance, keys): a leaf takes the first class a key of its path is in
CLASSES = (
    ("equal", 0.0, {"labels"}),
    ("abs", 1e-10, {"slope_rel_dev", "gap_fraction_deviation"}),
    ("offset", 1e-10, {"interval", "gap"}),
    ("rel", 1e-12, {"lambda_star", "t_star", "band_slope", "edge_lower", "edge_upper",
                    "width", "scaling", "lambda_star_mode", "kappa", "r_squared",
                    "fd_supercell"}),
    ("rel", 1e-10, {"alpha_star", "beta_star", "gamma_star", "theta_star", "predicted_width"}),
    ("abs", 1e-12, {"swap_overlaps"}),
    ("own", 10.0, {"sigma_min_at_root", "residuals", "pattern_residuals", "symmetry_residuals"}),
)
RESIDUAL_FLOOR = 1e-10


def tolerance_class(path: tuple) -> tuple[str, float]:
    """(class, tolerance) of the leaf at ``path`` (its keys and list indices)."""
    return next(((kind, tol) for kind, tol, keys in CLASSES if keys.intersection(path)),
                ("equal", 0.0))


def leaves(obj, path=()) -> dict:
    """{path: value} of every leaf of a JSON value; lists of numbers other
    than floats (labels) and of strings are leaves."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list, float)):
        items = enumerate(obj)
    else:
        return {path: obj}
    return {p: v for key, item in items for p, v in leaves(item, path + (key,)).items()}


def deviation(kind: str, a: float, b: float, center: float = 0.0) -> float:
    """The change a -> b in the measure of its class (the residual ratio for
    "own"; relative to a - center for "offset")."""
    if kind == "own":
        big = max(abs(a), abs(b))
        return 0.0 if big <= RESIDUAL_FLOOR else big / max(min(abs(a), abs(b)), 1e-300)
    scale = {"rel": abs(a), "offset": abs(a - center)}.get(kind)
    return abs(b - a) / (1.0 if scale is None else max(scale, 1e-300))


def offset_center(run, path: tuple) -> float:
    """lambda* for the interval end at ``path``: the run's lambda_star, or the
    midpoint of the end's pair."""
    if isinstance(run, dict) and "lambda_star" in run:
        return run["lambda_star"]
    pair = run
    for key in path[:-1]:
        pair = pair[key]
    return 0.5 * (pair[0] + pair[1])


def compare(parent, change, reference=None) -> list[dict]:
    """One row per leaf of ``parent``: its class, the change's deviation,
    whether that is within the class and, if not, whether the change moved
    toward ``reference``."""
    rows = []
    got, ref = leaves(change), leaves(reference) if reference is not None else {}
    for path, a in leaves(parent).items():
        b, r = got.get(path), ref.get(path)
        kind, tol = tolerance_class(path)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if path[-1] == "theta_star" and numeric:
            a, b, r = abs(a), abs(b), None if r is None else abs(r)
        if kind == "equal" or not numeric:
            dev = 0.0 if a == b else float("inf")
        else:
            dev = deviation(kind, a, b, offset_center(parent, path) if kind == "offset" else 0.0)
        row = {"path": path, "kind": kind, "tol": tol, "parent": a, "change": b,
               "dev": dev, "within": dev <= tol, "toward": None}
        if not row["within"] and numeric and isinstance(r, (int, float)):
            row["toward"] = abs(b - r) < abs(a - r)
        rows.append(row)
    return rows


def json_files(root: Path) -> dict[str, Path]:
    """The JSON files under ``root`` by relative path, or ``root`` itself."""
    if root.is_file():
        return {root.name: root}
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*.json"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--reference", type=Path)
    args = ap.parse_args(argv)
    change_files = json_files(args.change)
    ref_files = json_files(args.reference) if args.reference else {}
    failed = 0
    for name, path in json_files(args.parent).items():  # a missing file moves every leaf
        runs = [json.loads(f.read_text()) if f else None
                for f in (path, change_files.get(name), ref_files.get(name))]
        for row in compare(*runs):
            toward = {None: "", True: "  toward REF", False: "  AWAY from REF"}[row["toward"]]
            verdict = "ok" if row["within"] or row["toward"] else "MOVED"
            failed += verdict != "ok"
            print(f"{verdict:5}  {name}:{'.'.join(map(str, row['path']))}  {row['kind']} "
                  f"{row['tol']:.0e}  dev {row['dev']:.2e}  {row['parent']!r} -> {row['change']!r}"
                  + toward)
    print(f"{failed} output(s) left their class without moving toward the reference"
          if failed else "every output within its class or toward the reference")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
