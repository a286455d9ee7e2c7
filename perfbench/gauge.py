"""Host-speed gauge: a fixed reference kernel timed over and over.

    python3 perfbench/gauge.py SAMPLES_FILE [--period 0.05]

The host this benchmark runs on shares its cores with other tenants.  Its
speed per instruction flips between a fast and a slow state several times
a second, and the share of slow time drifts by a fifth or more over
minutes, on both CPUs.  Nothing inside one run averages that drift away.

The gauge runs on the same CPU as the measured commands and, every
``--period`` seconds, does one fixed piece of work of a few milliseconds
and records the CPU time it took.  That samples the speed of the core the
commands run on at that moment.  ``Gauge.seconds`` takes a command's wall
time, removes the gauge's own CPU time from it, and scales it by the mean
sample against ``REF_S``.  The result reads as the command's time on a
host whose speed does not drift.

The work is a quasi-periodic image sum: a loop in Python over image terms
with complex NumPy arithmetic on a few hundred points, the same kind of
work as the package's kernel evaluations, which take most of its time.  It
does not import the package, so no change to the package changes the
gauge.

Each sample is one line ``<start> <cpu seconds>``; the start is on
``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, shared by all
processes).  The first line is written after one warm-up call.  The gauge
runs until it is sent SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

N_POINTS = 600
N_IMAGES = 32  # terms m = -N_IMAGES - 1 .. N_IMAGES
PERIOD_S = 0.05
# The mean sample on the 2-vCPU VM of the reference figures in README.md
# when its host was quiet.  Scaled times read as seconds on a host where
# the mean sample takes this long.
REF_S = 0.003
MIN_SAMPLES = 20  # a window with fewer samples is widened to this many


def _points():
    # fixed, spread over a half cell; no random state
    k = np.arange(N_POINTS)
    u = 0.4 * np.sin(0.37 * k)
    a = 0.05 + 0.25 * (0.5 + 0.5 * np.cos(0.61 * k))
    return u, a


def image_sum(u, a, p: float = 3.0, lam: float = 52.6) -> np.ndarray:
    """sum_m e^{i (p + 2 pi m) u} F(s_m, a), s_m = sqrt((p + 2 pi m)^2 - lam),

    with the strip factor F(s, a) = (e^{-s a} + e^{-s (1 - a)}) / (2 s (1 - e^{-s})).
    """
    acc = np.zeros(u.shape, dtype=complex)
    step = np.exp(2j * np.pi * u)
    phase = np.exp(1j * p * u) * step ** (-N_IMAGES - 1)
    for m in range(-N_IMAGES - 1, N_IMAGES + 1):
        s = np.sqrt((p + 2 * np.pi * m) ** 2 - lam + 0j)
        strip = (np.exp(-s * a) + np.exp(-s * (1.0 - a))) / (2.0 * s * (1.0 - np.exp(-s)))
        acc += phase * strip
        phase = phase * step
    return acc


class Gauge:
    """The gauge as a child process, and its samples as seen by the parent."""

    def __init__(self, samples: Path, cpus: set[int], env: dict):
        self.path = samples
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(samples),
             "--period", str(PERIOD_S)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.starts: list[float] = []
        self.cpu: list[float] = []

    def wait_ready(self, timeout: float = 60.0) -> bool:
        end = time.perf_counter() + timeout
        while time.perf_counter() < end and self.proc.poll() is None:
            if self.path.exists() and self.path.stat().st_size > 0:
                return True
            time.sleep(0.05)
        return False

    def _read(self) -> None:
        starts, cpu = [], []
        # the last piece is empty, or a line still being written
        for line in self.path.read_text().split("\n")[:-1]:
            t, dt = line.split()
            starts.append(float(t))
            cpu.append(float(dt))
        self.starts, self.cpu = starts, cpu

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time [t0, t1] of a command on the gauge's CPU, less the
        gauge's own CPU time, scaled to the reference speed."""
        if not self.starts or self.starts[-1] < t1:
            self._read()
        inside = [i for i, t in enumerate(self.starts) if t0 <= t <= t1]
        busy = sum(self.cpu[i] for i in inside)
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            inside = sorted(range(len(self.starts)),
                            key=lambda i: abs(self.starts[i] - mid))[:MIN_SAMPLES]
        mean = statistics.fmean(self.cpu[i] for i in inside)
        return (t1 - t0 - busy) * REF_S / mean

    def stop(self) -> bool:
        """Stop the gauge; False if it had already ended on its own."""
        if self.proc.poll() is not None:
            return False
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return True


def _stop(signum, frame):
    raise SystemExit(0)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--period", type=float, default=PERIOD_S)
    args = ap.parse_args()
    u, a = _points()
    image_sum(u, a)  # warm-up: first-call costs stay out of the samples
    with open(args.samples, "w") as fh:
        due = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            c0 = time.thread_time()
            image_sum(u, a)
            fh.write(f"{t0:.6f} {time.thread_time() - c0:.7f}\n")
            fh.flush()
            due += args.period
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            else:
                due = time.perf_counter()


if __name__ == "__main__":
    sys.exit(main())
