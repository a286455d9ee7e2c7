#!/usr/bin/env python3
"""Dense dispersion diagram around the crossing.

Traces the two folded curves of the unperturbed lattice and the gapped
curves of one dimerized pair on a configurable momentum grid, and writes
a single CSV ready for plotting (one block per curve).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from diracwg.bands import dirac_point, trace_band, trace_folded_bands
from diracwg.fdoracle import FDGrid, fd_bloch_eigs, fd_crossing_hint
from diracwg.geometry import make_disk
from diracwg.qpgreens import KernelParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--points", type=int, default=61)
    parser.add_argument("--out", type=Path, default=Path("band_diagram.csv"))
    args = parser.parse_args()

    shape = make_disk(args.radius, 64)
    params = KernelParams(p=np.pi, lam=1.0)
    lam_fd = fd_crossing_hint(FDGrid(96), shape)
    _, lam_star, _ = dirac_point((lam_fd - 1.0, lam_fd + 1.0), shape, params)
    print(f"crossing energy: {lam_star:.8f}")

    p_grid = np.linspace(0.0, 2 * np.pi, args.points)
    rows = []
    c1, c2 = trace_folded_bands(p_grid, shape, params, lam_star)
    for curve in (c1, c2):
        for p, lam in zip(curve.p_grid, curve.lambdas):
            rows.append((curve.band_index, 0.0, p, lam))

    if args.delta > 0:
        fd = fd_bloch_eigs(np.pi, args.delta, 2, FDGrid(96), shape)
        for idx, seed in ((1, fd[0]), (2, fd[1])):
            curve = trace_band(idx, p_grid, args.delta, shape, params, seed_lambda=seed)
            for p, lam in zip(curve.p_grid, curve.lambdas):
                rows.append((curve.band_index, args.delta, p, lam))

    lines = ["band,delta,p,lambda"]
    lines += [f"{b},{d:.6g},{p:.12g},{lam:.12g}" for b, d, p, lam in rows]
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(rows)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
