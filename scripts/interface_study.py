#!/usr/bin/env python3
"""Interface-mode sweep over dimerization strengths.

For each delta: certifies the gap zone (the p = pi gap edges; the -delta
half-guide is the half-period shift of the +delta one), locates the in-gap
bound state,
fits its decay rate, and compares against the supercell oracle.  Writes
a CSV summary.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from diracwg.bands import gap_interval
from diracwg.dirac import compute_dirac_data
from diracwg.fdoracle import FDGrid, fd_crossing_hint, fd_supercell_interface, mode_decay_rate
from diracwg.gapgreens import GapZone
from diracwg.geometry import make_disk
from diracwg.interface import find_interface_eigenvalue, reconstruct_interface_mode
from diracwg.qpgreens import KernelParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=float, default=0.1)
    parser.add_argument("--deltas", type=float, nargs="+", default=[0.0075, 0.01, 0.015])
    parser.add_argument("--p-nodes", type=int, default=32)
    parser.add_argument("--out", type=Path, default=Path("interface_study.csv"))
    args = parser.parse_args()

    shape = make_disk(args.radius, 64)
    params = KernelParams(p=np.pi, lam=1.0)
    lam_fd = fd_crossing_hint(FDGrid(96), shape)
    data = compute_dirac_data(shape, params, (lam_fd - 1.0, lam_fd + 1.0))
    print(f"crossing: lambda*={data.lambda_star:.6f}, alpha*={data.alpha_star:.4f}, "
          f"beta*={data.beta_star:.2f}")

    rows = ["delta,lambda_mode,gap_lo,gap_hi,kappa,r_squared,fd_lambda,fd_kappa"]
    for delta in args.deltas:
        t0 = time.time()
        zone = GapZone.certify(data, delta, args.p_nodes, shape, params)
        gap = gap_interval(data, delta, 0.9)
        res = find_interface_eigenvalue(delta, gap, zone)
        res = reconstruct_interface_mode(res)
        lam_fd_sc, _, mode, meta = fd_supercell_interface(
            delta, 8, FDGrid(96), shape, 0.5 * sum(res.gap))
        kap_fd, _ = mode_decay_rate(mode, meta["X"], 1.0, 4.0)
        rows.append(
            f"{delta:.6g},{res.lambda_star_mode:.10g},{res.gap[0]:.8g},{res.gap[1]:.8g},"
            f"{res.kappa:.6g},{res.r_squared:.6g},{lam_fd_sc:.10g},{kap_fd:.6g}"
        )
        print(f"delta={delta:g}: lambda={res.lambda_star_mode:.6f}, "
              f"kappa={res.kappa:.3f} (fd {kap_fd:.3f}), {time.time()-t0:.0f}s")

    args.out.write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
