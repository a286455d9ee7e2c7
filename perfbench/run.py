"""Time-to-certified-result benchmark for diracwg.

    python3 perfbench/run.py --workload crossing --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Each workload round runs its commands in fresh processes with a fresh
output directory, so the process-global kernel cache and the CLI table
cache start cold, as they do for a user.  Rounds repeat until ``--seconds``
have passed (at least one round).  The outputs of every round are checked
after the timed part.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, solve
time, peak resident memory); with ``--trace 1`` every function of the
package is wrapped (perfbench/spans.py) and the metrics are per layer.

The commands run on one CPU with one BLAS thread.  A host-speed gauge
(perfbench/gauge.py) samples the speed of that CPU while they run, and
every time is scaled by it, so that the drift of a shared host cancels.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5  # fresh processes timed to "ready" per run, at least

# Fewer boundary nodes than the default 64, and diracwg interface with a
# shorter energy scan and a coarser field grid (runner.INTERFACE_SIZES), so
# that 4 + 22 x 2 runs fit in 3420 s.
# "dispersion" is not in BENCHMARK.json for the same reason.  README.md
# gives the measured sizes.
WORKLOADS = {
    # dirac, then gap at three dimerizations: fixed momentum p = pi
    "crossing": {
        "config": ("geometry.n_nodes = 24\n"
                   "sweep.deltas = 0.005, 0.01, 0.02\n"),
        "jobs": [["cli", "dirac"], ["cli", "gap"]],
    },
    # certified dispersion curves for delta in {0, +-0.01} on 11 momenta
    "dispersion": {
        "config": ("geometry.n_nodes = 16\n"
                   "sweep.deltas = 0.01\n"
                   "sweep.p_points = 9\n"
                   "sweep.p_refined = 3\n"),
        "jobs": [["cli", "bands"]],
    },
    # diracwg interface: crossing, +-delta Bloch tables, junction root, mode
    # reconstruction and the FD supercell cross-check
    "interface": {
        "config": ("geometry.n_nodes = 16\n"
                   "sweep.deltas = 0.01\n"
                   "numerics.n_bands = 2\n"
                   "numerics.n_p_nodes = 16\n"
                   "numerics.m_gamma_nodes = 24\n"),
        "jobs": [["interface"]],
    },
}


def placement() -> tuple[set[int], dict]:
    """The CPU of the commands and the gauge, and their environment.

    One BLAS thread, so that a command runs on that CPU alone.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return {min(os.sched_getaffinity(0))}, env


def spawn(job: list[str], config: Path, out: Path, log: Path, trace: Path | None,
          cpus: set[int], env: dict):
    """Run one runner process.

    Returns (setup, solve, exit, maxrss_mb), where setup and solve are
    (start, end) on time.perf_counter().  setup is None when the process
    wrote no timing file.
    """
    timing = log.with_suffix(".timing.json")
    cmd = [sys.executable, str(HERE / "runner.py"), "--timing", str(timing)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += [*job, "--config", str(config), "--out", str(out)]
    with log.open("w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: leave no process behind
            proc.kill()
            proc.wait()
            raise
        t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    try:
        t = json.loads(timing.read_text())
    except (OSError, ValueError):
        # died before it wrote its times: count its whole life as solve time,
        # so that a crash does not read as a speed-up
        return None, (t0, t_exit), proc.returncode or 1, rss_mb
    return (t0, t["ready"]), (t["ready"], t["end"]), t["exit"], rss_mb


def measure(args, jobs, config: Path, run_dir: Path, cpus, env):
    """Set-up probes, then whole rounds until --seconds have passed.

    Returns (rounds, set-up windows), or (None, None) if a probe failed.
    """
    # set-up probes: fresh interpreters timed to "ready" (imports, config)
    setups = []
    n_probes = max(1, SETUP_SAMPLES - len(jobs))
    for k in range(n_probes):
        s, _, code, _ = spawn(["ready"], config, run_dir / "probe",
                              run_dir / f"probe{k}.log", None, cpus, env)
        if code != 0 or s is None:
            print(f"set-up probe failed, see {run_dir}/probe{k}.log", file=sys.stderr)
            return None, None
        setups.append(s)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        r = len(rounds)
        out = run_dir / f"round{r}"
        codes, windows, rss, traces = [], [], 0.0, []
        for k, job in enumerate(jobs):
            trace = run_dir / f"round{r}.job{k}.spans.json" if args.trace else None
            s, solve, code, mb = spawn(job, config, out, run_dir / f"round{r}.job{k}.log",
                                       trace, cpus, env)
            codes.append(code)
            rss = max(rss, mb)
            if s is not None:
                setups.append(s)
            windows.append(solve)
            if trace is not None:
                traces.append(trace)
        rounds.append({"out": out, "codes": codes, "windows": windows, "rss": rss,
                       "traces": traces})
    return rounds, setups


def merge_spans(paths: list[Path]) -> dict:
    names: list[str] = []
    merged: list = []
    for path in paths:
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        index = {}
        for i, n in enumerate(payload["names"]):
            if n not in names:
                names.append(n)
            index[i] = names.index(n)
        base = len(merged)
        for idx, t0, t1, parent, raised, size in payload["spans"]:
            merged.append([index[idx], t0, t1, parent + base if parent >= 0 else -1,
                           raised, size])
    return {"names": names, "spans": merged}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="diracwg --jobs for cli commands (reference readings only)")
    args = ap.parse_args()

    if not (ROOT / "src" / "diracwg" / "cli.py").is_file():
        print(f"no diracwg sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # The inputs are fixed: no part of a workload is random, so the seed only
    # names the run directory.
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.txt"
    config.write_text(wl["config"])
    jobs = [j + ["--jobs", str(args.jobs)] if j[0] == "cli" and args.jobs != 1 else j
            for j in wl["jobs"]]

    cpus, env = placement()
    gauge = Gauge(run_dir / "gauge.txt", cpus, env)
    try:
        if not gauge.wait_ready():
            print("host-speed gauge did not start", file=sys.stderr)
            return 1
        rounds, setups = measure(args, jobs, config, run_dir, cpus, env)
    finally:
        gauge_ran = gauge.stop()
    if rounds is None:
        return 1
    if not gauge_ran:
        print(f"host-speed gauge ended during the run, exit {gauge.proc.returncode}",
              file=sys.stderr)
        return 1
    # scaled to the reference speed once the gauge has covered every window
    setups = [gauge.seconds(t0, t1) for t0, t1 in setups]
    for rd in rounds:
        rd["wall"] = sum(t1 - t0 for t0, t1 in rd["windows"])
        rd["solve"] = sum(gauge.seconds(t0, t1) for t0, t1 in rd["windows"])

    # ------------------------------------------------ checks (untimed)
    sys.path.insert(0, str(ROOT / "src"))
    from diracwg.cli import parse_config

    cfg = parse_config(config, None, 1)
    ref_cache = {}

    def interface_ref(center):
        if "ref" not in ref_cache:
            ref_cache["ref"] = checks.interface_reference(cfg, center)
        return ref_cache["ref"]

    results = []
    if args.workload == "crossing":
        ref = checks.crossing_reference(cfg)
        for rd in rounds:
            results += checks.check_crossing(rd["out"], rd["codes"], ref)
    elif args.workload == "dispersion":
        ref = checks.dispersion_reference(cfg)
        for rd in rounds:
            results += checks.check_dispersion(rd["out"], rd["codes"], ref, cfg)
    else:
        for rd in rounds:
            results += checks.check_interface(rd["out"], rd["codes"], interface_ref,
                                              cfg.deltas[0])
    results = [(name, None if ok is None else bool(ok)) for name, ok in results]
    failed = sum(1 for _, ok in results if ok is None)
    wrong = [name for name, ok in results if ok is False]
    for name, ok in results:
        if ok is not True:
            print(f"check {name}: {'FAILED (no output)' if ok is None else 'WRONG'}",
                  file=sys.stderr)

    solve_s = statistics.median(rd["solve"] for rd in rounds)
    if args.trace:
        per_round = []
        for rd in rounds:
            # span times scaled like the round's solve time
            factor = rd["solve"] / rd["wall"]
            m = spans.derive(merge_spans(rd["traces"]))
            per_round.append({n: v * factor if spans.unit(n) in ("s", "ms", "ns") else v
                              for n, v in m.items()})
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        metrics["trace.solve_s"] = solve_s
        out_metrics = {n: {"value": v, "unit": spans.unit(n)} for n, v in metrics.items()}
    else:
        out_metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rd["rss"] for rd in rounds),
                            "unit": "MB"},
        }
    for rd in rounds:
        print(f"round {rd['out'].name}: exit {rd['codes']}, solve {rd['solve']:.3f} s "
              f"(wall {rd['wall']:.3f} s), peak rss {rd['rss']:.1f} MB")
    print(json.dumps({"correct": not wrong, "attempted": len(results),
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
