#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, kept in BENCH_<n>.json.

    python scripts/bench.py --parent REV --workload W --pairs N [--number n]

Run from the root of a checkout.  REV's committed files are unpacked
(``git archive``) into a temporary directory, which is removed at the end.
N pairs of ``perfbench/run.py --workload W --trace 0`` (each run as long
as BENCHMARK.json's ``run_seconds``) then run in that tree and in this
checkout's working tree, the parent first in odd pairs (1, 3, ...) and
the change first in even ones, so that a drift of the host falls on both
sides alike.

Each call appends one set to ``BENCH_<n>.json`` at the checkout root (n
defaults to one more than the highest existing number): every run's
end-to-end metrics, and per metric each side's median and quartiles, the
pairs the change won, and whether the medians differ by more than the
parent's interquartile range.  A metric's direction ("better") is read
from BENCHMARK.json.  ``git archive`` rather than a worktree: it is the
committed tree exactly, and it leaves nothing in the repository to prune
when a run is cut short.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def summarize(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Each side's median and quartiles, and the pairs the change won.

    Pair i is (parent[i], change[i]); the change wins it when it is
    strictly better in the direction ``better`` ("lower" or "higher").
    ``resolved`` holds when the medians differ by more than the parent's
    interquartile range.
    """
    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}

    sign = 1.0 if better == "lower" else -1.0
    p, c = side(parent), side(change)
    return {
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "won": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "median_rel_change": (c["median"] - p["median"]) / p["median"],
        "resolved": abs(c["median"] - p["median"]) > p["iqr"],
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> str:
    """REV's committed files into ``dest``; returns REV's commit hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its verdict and end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py exited {proc.returncode} in {tree}:\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def next_number() -> int:
    found = [int(m.group(1)) for f in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", f.name))]
    return max(found, default=0) + 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--number", type=int, help="n of BENCH_<n>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    if not (ROOT / "perfbench" / "run.py").is_file():
        ap.error("run from the root of a checkout")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    parent_tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        parent_sha = unpack(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = []
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args.workload, pair, seconds)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{k} {v:.4f}" for k, v in run["metrics"].items())
                    + ("" if run["correct"] and not run["failed"] else "  NOT CORRECT"),
                    flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    def values(side, name):
        return [r["metrics"][name] for r in runs if r["side"] == side]

    summary = {name: summarize(values("parent", name), values("change", name), better[name])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name}: median {s['parent']['median']:.4f} -> {s['change']['median']:.4f} "
              f"({100 * s['median_rel_change']:+.1f} %), won {s['won']} of {s['pairs']}, "
              f"parent IQR {s['parent']['iqr']:.4f}, resolved {s['resolved']}")

    number = next_number() if args.number is None else args.number
    path = ROOT / f"BENCH_{number}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"sets": []}
    bench["sets"].append({
        "workload": args.workload,
        "parent": parent_sha,
        "change": git("describe", "--always", "--dirty", "--abbrev=40"),
        "seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "all_correct": all(r["correct"] and not r["failed"] for r in runs),
        "summary": summary,
        "runs": runs,
    })
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
