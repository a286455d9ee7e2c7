"""Command-line front end for the full pipeline.

Subcommands: ``oracle`` (finite-difference band charts), ``bands``
(certified dispersion curves), ``dirac`` (crossing data and
perturbation coefficients), ``gap`` (gap opening and scaling), and
``interface`` (in-gap bound state of the joint guide); ``all`` chains
them.  The commands of one run share its crossing and gap zones (``_Run``)
and read no files but the config.  Configuration is a flat
``section.key = value`` text file with fail-fast validation; outputs are
CSV/JSON files written atomically, plus gnuplot scripts for the band
diagram and mode profile.

Exit codes: 0 success, 2 configuration error, 3 numerical certification
failure, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import dirac as dirac_mod
from . import fdoracle, gapgreens, interface as interface_mod
from .errors import ConfigError, DiracWGError, GeometryError, KernelError, OracleError, TableError
from .geometry import (
    CENTER_HEIGHT, DELTA_MAX, STRIP_HEIGHT, check_node_count, make_disk, make_shape, mirror_map,
    reflect_indices,
)
from .qpgreens import KernelParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_ORACLE = 4

_DEFAULTS = {
    "geometry.shape_coeffs": "0.1",
    "geometry.n_nodes": "64",
    "numerics.m_trunc": "48",
    "numerics.n_bands": "4",
    "numerics.n_p_nodes": "32",
    "numerics.m_gamma_nodes": "32",
    "numerics.oracle_nx": "96",
    "numerics.supercell_cells": "8",
    "numerics.table_fd_nx": "64",
    "sweep.deltas": "0.01",
    "sweep.p_points": "41",
    "sweep.p_refined": "21",
    "sweep.c": "0.9",
}


@dataclass
class RunConfig:
    shape_coeffs: tuple[float, ...]
    n_nodes: int
    m_trunc: int
    n_bands: int
    n_p_nodes: int
    m_gamma_nodes: int
    oracle_nx: int
    supercell_cells: int
    table_fd_nx: int
    deltas: tuple[float, ...]
    p_points: int
    p_refined: int
    c: float
    out_dir: Path = field(default_factory=lambda: Path("out"))
    jobs: int = 1

    def shape(self):
        if len(self.shape_coeffs) == 1:
            return make_disk(self.shape_coeffs[0], self.n_nodes)
        return make_shape(self.shape_coeffs, self.n_nodes)

    def params(self):
        return KernelParams(p=np.pi, lam=1.0, m_trunc=self.m_trunc)

    def p_grid(self) -> np.ndarray:
        coarse = np.linspace(0.0, 2 * np.pi, self.p_points)
        refined = np.pi + np.linspace(-0.15, 0.15, self.p_refined)
        return np.unique(np.round(np.concatenate([coarse, refined]), 12))


def parse_config(path: Path | None, out_dir: Path | None, jobs: int) -> RunConfig:
    values = dict(_DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val

    def floats(key):
        try:
            return tuple(float(tok) for tok in values[key].replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"bad float list for {key}: {values[key]!r}") from exc

    def one_int(key):
        try:
            return int(values[key])
        except ValueError as exc:
            raise ConfigError(f"bad integer for {key}: {values[key]!r}") from exc

    def one_float(key):
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"bad float for {key}: {values[key]!r}") from exc

    cfg = RunConfig(
        shape_coeffs=floats("geometry.shape_coeffs"),
        n_nodes=one_int("geometry.n_nodes"),
        m_trunc=one_int("numerics.m_trunc"),
        n_bands=one_int("numerics.n_bands"),
        n_p_nodes=one_int("numerics.n_p_nodes"),
        m_gamma_nodes=one_int("numerics.m_gamma_nodes"),
        oracle_nx=one_int("numerics.oracle_nx"),
        supercell_cells=one_int("numerics.supercell_cells"),
        table_fd_nx=one_int("numerics.table_fd_nx"),
        deltas=floats("sweep.deltas"),
        p_points=one_int("sweep.p_points"),
        p_refined=one_int("sweep.p_refined"),
        c=one_float("sweep.c"),
        out_dir=Path(out_dir) if out_dir else Path("out"),
        jobs=max(1, jobs),
    )
    if not 0 < cfg.c < 1:
        raise ConfigError(f"sweep.c must lie in (0,1), got {cfg.c}")
    if not cfg.deltas:
        raise ConfigError("sweep.deltas lists no delta")
    for d in cfg.deltas:
        if not 0 < d < DELTA_MAX:
            raise ConfigError(f"sweep.deltas: delta {d} outside (0, {DELTA_MAX})")
    for key, count in (("sweep.p_points", cfg.p_points), ("sweep.p_refined", cfg.p_refined)):
        if count < 0:
            raise ConfigError(f"{key} must be >= 0, got {count}")
    try:
        cfg.params()
    except KernelError as exc:
        raise ConfigError(f"numerics.m_trunc = {cfg.m_trunc}: {exc}") from exc
    try:
        gapgreens._zone_nodes(cfg.n_p_nodes)
    except TableError as exc:
        raise ConfigError(f"numerics.n_p_nodes = {cfg.n_p_nodes}: {exc}") from exc
    if cfg.m_gamma_nodes < interface_mod.MIN_GAMMA_NODES:
        raise ConfigError(f"numerics.m_gamma_nodes must be >= {interface_mod.MIN_GAMMA_NODES}")
    # the supercell mode's decay fit over 1 <= |x1| <= 4 needs two cells on
    # each side, and n cells per side hold n - 1 of them
    if cfg.supercell_cells < 3:
        raise ConfigError(f"numerics.supercell_cells must be >= 3, got {cfg.supercell_cells}")
    try:
        check_node_count(cfg.n_nodes)
    except GeometryError as exc:
        raise ConfigError(f"geometry.n_nodes = {cfg.n_nodes}: {exc}") from exc
    try:
        shape = cfg.shape()
    except GeometryError:
        shape = None  # the run reports a bad shape itself, as a certification failure
    # the FD grids meet the oracle's own limits here, not in the middle of a run
    for key, nx in (("numerics.table_fd_nx", cfg.table_fd_nx),
                    ("numerics.oracle_nx", cfg.oracle_nx)):
        try:
            fdoracle.check_resolution(fdoracle.FDGrid(nx), shape)
        except OracleError as exc:
            raise ConfigError(f"{key} = {nx}: {exc}") from exc
    return cfg


# --------------------------------------------------------------- outputs

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    if not isinstance(payload, dict):  # schema guard before any write
        raise ConfigError("json payload must be a mapping")
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


_BANDS_GP = """\
set datafile separator ','
set xlabel 'p'
set ylabel 'lambda'
set key outside
deltas = "{deltas}"
plot for [d in deltas] 'bands.csv' using 3:($2 == d + 0 ? $4 : 1/0) with points title 'delta='.d
"""

_INTERFACE_GP = """\
set datafile separator ','
set xlabel 'x1'
set ylabel 'x2'
set view map
set multiplot layout {rows},1
{plots}unset multiplot
"""
_INTERFACE_GP_PLOT = (
    "splot '{name}' using 1:2:(sqrt($3*$3+$4*$4)) with points palette title '|u|, delta={delta:g}'\n"
)


# -------------------------------------------------------------- commands

class _Run:
    """The state one run shares between its commands: the config, the shape
    and kernel parameters, and the crossing and each gap zone, every one
    computed once, on first use."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.shape = cfg.shape()
        self.params = cfg.params()
        self._zones: dict[float, gapgreens.GapZone] = {}

    @cached_property
    def dirac(self) -> dirac_mod.DiracData:
        """The crossing, searched around the FD oracle's first band at p = pi
        (fdoracle.fd_crossing_hint: the mirror-even half cell, in real
        arithmetic)."""
        hint = fdoracle.fd_crossing_hint(fdoracle.FDGrid(self.cfg.table_fd_nx), self.shape)
        return dirac_mod.compute_dirac_data(self.shape, self.params, hint)

    def zone(self, delta: float) -> gapgreens.GapZone:
        """The certified gap zone of the +delta structure."""
        if delta not in self._zones:
            self._zones[delta] = gapgreens.GapZone.certify(
                self.dirac, delta, self.cfg.n_p_nodes, self.shape, self.params)
        return self._zones[delta]


def cmd_oracle(run: _Run) -> int:
    """Finite-difference band charts for delta = 0 and each +delta (the
    -delta cell is the +delta one shifted by half a period: same chart)."""
    cfg = run.cfg
    grid = fdoracle.FDGrid(cfg.table_fd_nx)
    p_half = np.linspace(0.0, np.pi, max(cfg.p_points // 2 + 1, 9))
    rows = []
    for delta in sorted({0.0} | set(cfg.deltas)):
        chart = fdoracle.fd_band_chart_richardson(p_half, delta, 4, grid, run.shape)
        for row in chart:
            rows.append([float(delta), *[float(v) for v in row]])
    path = cfg.out_dir / "oracle_bands.csv"
    _write_csv(path, ["delta", "p", "l1", "l2", "l3", "l4"], rows)
    print(f"oracle chart -> {path}")
    return EXIT_OK


def cmd_bands(run: _Run) -> int:
    """Trace certified dispersion curves and emit bands.csv.

    Each curve starts its search at the crossing energy (delta = 0) or at
    its first-order gap edge lambda* -+ |delta beta*|; the count widens
    every window until it holds its band."""
    cfg, shape, params = run.cfg, run.shape, run.params
    p_grid = cfg.p_grid()
    lam_star, beta = run.dirac.lambda_star, run.dirac.beta_star

    def run_zero():
        return bands_mod.trace_folded_bands(p_grid, shape, params, lam_star)

    def run_delta(delta):
        half = abs(delta * beta)
        return [bands_mod.trace_band(band, p_grid, delta, shape, params, seed_lambda=seed)
                for band, seed in ((1, lam_star - half), (2, lam_star + half))]

    tasks = [(0.0, run_zero)]
    for d in cfg.deltas:
        tasks.append((d, lambda d=d: run_delta(d)))

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(lambda t: (t[0], t[1]()), tasks))
    else:
        results = [(d, fn()) for d, fn in tasks]

    rows = []
    for delta, curves in results:
        for curve in curves:
            for p, lam, sg in zip(curve.p_grid, curve.lambdas, curve.sigma_mins):
                # the -delta operator is the +delta one under a unitary
                # similarity: same curves, same sigma_min
                for d in {delta, -delta}:
                    rows.append([curve.band_index, float(d), float(p), float(lam), float(sg)])
    rows.sort(key=lambda r: (r[1], r[0], r[2]))
    _write_csv(cfg.out_dir / "bands.csv", ["band", "delta", "p", "lambda", "sigma_min"], rows)
    deltas = sorted({0.0, *cfg.deltas, *(-d for d in cfg.deltas)})
    _atomic_write(cfg.out_dir / "bands.gp",
                  _BANDS_GP.format(deltas=" ".join(f"{d:.12g}" for d in deltas)))
    print(f"bands -> {cfg.out_dir / 'bands.csv'}")
    return EXIT_OK


def cmd_dirac(run: _Run) -> int:
    """Crossing report: location, coefficients, slope and swap checks."""
    cfg, data = run.cfg, run.dirac
    slope = bands_mod.band_slope_at_crossing(run.shape, run.params, data.lambda_star)
    overlaps, labels = dirac_mod.mode_swap_check(data, run.zone(cfg.deltas[0]))
    payload = {
        "p_star": data.p_star,
        "lambda_star": data.lambda_star,
        "gamma_star": data.gamma_star,
        "theta_star": data.theta_star,
        "t_star": data.t_star,
        "alpha_star": data.alpha_star,
        "beta_star": data.beta_star,
        "band_slope": slope,
        "slope_rel_dev": abs(slope - data.alpha_star) / data.alpha_star,
        "pattern_residuals": data.pattern_residuals,
        "symmetry_residuals": data.symmetry_residuals,
        "swap_overlaps": {
            "plus": overlaps[+1].tolist(),
            "minus": overlaps[-1].tolist(),
            "labels": labels,
        },
    }
    _write_json(cfg.out_dir / "dirac.json", payload)
    print(f"dirac -> {cfg.out_dir / 'dirac.json'}: lambda*={data.lambda_star:.6f}, "
          f"alpha*={data.alpha_star:.4f}, beta*={data.beta_star:.2f}")
    return EXIT_OK


def cmd_gap(run: _Run) -> int:
    """Gap opening per delta: edges at the fold momentum and scaling."""
    cfg, data = run.cfg, run.dirac
    report = {"lambda_star": data.lambda_star, "beta_star": data.beta_star, "entries": []}
    widths = {}
    for delta in cfg.deltas:
        half = abs(delta * data.beta_star)
        lo, hi = run.zone(delta).edges
        gap_int = bands_mod.gap_interval(data, delta, cfg.c)
        widths[delta] = hi - lo
        report["entries"].append({
            "delta": delta,
            "edge_lower": lo,
            "edge_upper": hi,
            "width": hi - lo,
            "predicted_width": 2 * half,
            "interval": [gap_int.e1, gap_int.e2],
        })
    for d in cfg.deltas:
        if 2 * d in widths:
            report.setdefault("scaling", {})[f"{d}->{2*d}"] = widths[2 * d] / widths[d]
    _write_json(cfg.out_dir / "gap.json", report)
    print(f"gap -> {cfg.out_dir / 'gap.json'}")
    return EXIT_OK


def cmd_interface(run: _Run) -> int:
    """Bound-state solve per delta, cross-checked against the supercell."""
    cfg, data = run.cfg, run.dirac
    status = EXIT_OK
    plots = []
    for delta in cfg.deltas:
        gap_int = bands_mod.gap_interval(data, delta, cfg.c)
        result = interface_mod.find_interface_eigenvalue(
            gap_int, run.zone(delta), m_nodes=cfg.m_gamma_nodes)
        result = interface_mod.reconstruct_interface_mode(result)

        lam_fd, _, mode, meta = fdoracle.fd_supercell_interface(
            delta, cfg.supercell_cells, fdoracle.FDGrid(cfg.oracle_nx), run.shape,
            gap_center=0.5 * (result.gap[0] + result.gap[1]),
        )
        kap_fd, r2_fd = fdoracle.mode_decay_rate(mode, meta["X"], 1.0, 4.0)
        gap_width = result.gap[1] - result.gap[0]
        fd_dev = abs(result.lambda_star_mode - lam_fd) / gap_width

        payload = {
            "delta": delta,
            "gap": list(result.gap),
            "lambda_star_mode": result.lambda_star_mode,
            "sigma_min_at_root": result.sigma_min_at_root,
            "kappa": result.kappa,
            "r_squared": result.r_squared,
            "residuals": result.interface_residuals,
            "warnings": result.warnings,
            "fd_supercell": {
                "lambda": float(lam_fd),
                "kappa": float(kap_fd),
                "r_squared": float(r2_fd),
                "gap_fraction_deviation": float(fd_dev),
            },
        }
        tag = f"{delta:g}".replace(".", "p")
        _write_json(cfg.out_dir / f"interface_delta{tag}.json", payload)

        rows = []
        for i, x1 in enumerate(result.grid_x):
            for j, x2 in enumerate(result.grid_y):
                rows.append([float(x1), float(x2),
                             float(np.real(result.field_samples[i, j])),
                             float(np.imag(result.field_samples[i, j]))])
        field_csv = f"interface_field_delta{tag}.csv"
        _write_csv(cfg.out_dir / field_csv, ["x1", "x2", "re_u", "im_u"], rows)
        plots.append(_INTERFACE_GP_PLOT.format(name=field_csv, delta=delta))

        print(f"interface delta={delta:g}: lambda*={result.lambda_star_mode:.6f} "
              f"(fd {lam_fd:.6f}, dev {fd_dev:.3f} gap), kappa={result.kappa:.3f}")
        if fd_dev > 0.2:
            print("oracle disagreement beyond 0.2 x gap width", file=sys.stderr)
            status = EXIT_ORACLE
    _atomic_write(cfg.out_dir / "interface.gp",
                  _INTERFACE_GP.format(rows=len(plots), plots="".join(plots)))
    return status


def cmd_verify(run: _Run) -> int:
    """Quick invariant suite on the kernel and geometry layers."""
    from .qpgreens import eval_Ge, eval_Ge_many

    shape, cfg = run.shape, run.cfg
    params = KernelParams(p=1.3, lam=11.0, m_trunc=cfg.m_trunc)
    rng = np.random.default_rng(7)
    xs = np.column_stack([rng.uniform(-0.4, 0.4, 100), rng.uniform(0.04, 0.46, 100)])
    ys = np.column_stack([rng.uniform(-0.4, 0.4, 100), rng.uniform(0.04, 0.46, 100)])
    base = eval_Ge_many(xs, ys, params)
    shifted = eval_Ge_many(xs + np.array([1.0, 0.0]), ys, params)
    qp = float(np.max(np.abs(shifted - np.exp(1j * params.p) * base)))
    checks = {"quasi_periodicity": qp < 1e-11}
    conj = abs(
        eval_Ge([0.2, 0.3], [0.5, 0.1], KernelParams(np.pi + 0.4, 12.0))
        - np.conj(eval_Ge([0.2, 0.3], [0.5, 0.1], KernelParams(np.pi - 0.4, 12.0)))
    )
    checks["conjugation"] = conj < 1e-12
    rec = abs(
        eval_Ge([0.2, 0.3], [0.5, 0.1], KernelParams(0.9, 12.0))
        - eval_Ge([0.5, 0.1], [0.2, 0.3], KernelParams(2 * np.pi - 0.9, 12.0))
    )
    checks["reciprocity"] = rec < 1e-12
    # the mid-height mirror x2 -> 1/2 - x2 of both points leaves G unchanged;
    # the pairs 0.01-0.03 apart take the split route, the others mostly nsum
    near = xs + rng.uniform(0.01, 0.03, (100, 2)) * rng.choice([-1.0, 1.0], (100, 2))

    def mirrored(pts):
        return np.column_stack([pts[:, 0], STRIP_HEIGHT - pts[:, 1]])

    worst = 0.0
    for p, lam in ((1.3, 11.0), (4.5, 52.63), (1.3, 52.63 + 0.3j)):
        prm = KernelParams(p=p, lam=lam, m_trunc=cfg.m_trunc)
        for targets in (ys, near):
            g = eval_Ge_many(xs, targets, prm)
            g_mirror = eval_Ge_many(mirrored(xs), mirrored(targets), prm)
            worst = max(worst, float(np.max(np.abs(g_mirror - g)) / np.max(np.abs(g))))
    checks["mirror"] = worst < 1e-12
    idx = reflect_indices(shape.n_nodes)
    refl = shape.nodes[idx] * np.array([-1.0, 1.0])
    checks["shape_symmetry"] = float(np.max(np.abs(refl - shape.nodes))) < 1e-13
    # theta -> -theta: node j -> N - j, the mid-height mirror of the obstacle
    ring = (shape.n_nodes - np.arange(shape.n_nodes)) % shape.n_nodes
    checks["shape_mirror"] = np.array_equal(
        mirror_map(shape.nodes + np.array([0.0, CENTER_HEIGHT])), ring)
    for name, ok in checks.items():
        print(f"verify {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if all(checks.values()) else EXIT_CERTIFICATION


def main(argv=None) -> int:
    # looked up per call, so that wrappers installed on the module are used
    commands = {"oracle": cmd_oracle, "bands": cmd_bands, "dirac": cmd_dirac,
                "gap": cmd_gap, "interface": cmd_interface}
    parser = argparse.ArgumentParser(
        prog="diracwg",
        description="Band structure, crossing analysis, and interface modes "
                    "of an obstacle-lined waveguide",
    )
    parser.add_argument("command", choices=[*commands, "all"])
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--verify", action="store_true",
                        help="run the invariant suite before the command")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run = _Run(cfg)
        if args.verify:
            code = cmd_verify(run)
            if code != EXIT_OK:
                return code
        if args.command != "all":
            return commands[args.command](run)
        for name, fn in commands.items():
            t0 = time.perf_counter()
            code = fn(run)
            print(f"[{name}] {time.perf_counter() - t0:.1f}s (exit {code})")
            if code != EXIT_OK:
                return code
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except DiracWGError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
