#!/usr/bin/env python3
"""Per-layer timings of the kernel, the Nystrom blocks, one resolvent fiber, one
junction-operator evaluation, the zone sweep's kernel blocks batched over its
fibers and fiber by fiber, the FD crossing hint and the FD supercell oracle.

    PYTHONPATH=src python scripts/bench_layers.py

Runs on one BLAS thread and prints one row per layer: the minimum and the
median over ``REPEATS`` calls of the wall time (ns per point pair for the
kernel routes, ms for everything else).  On a shared host one run's
minima of the same tree differ by up to 1.8x between runs, so compare
rows by their medians too.  The off-block pairs (one obstacle's
nodes against the other's, 0.52 apart in x1) are timed twice: pair by pair
through ge_nsum, and as one separable kernel_blocks call at one
momentum, the route _off_block takes.  The inputs are fixed: the default
radius-0.1 disk at N = 64 nodes, p = 1.3 and lambda = 52.63 (inside the
first gap of the delta = 0.01 structure), and 32 Gauss-Legendre points on
the interface line for the fiber.  Split plans (qpgreens._SplitPlan: the
point sets, phase tables and product layouts of the head and the
momentum-free tail cores, with each momentum's static part) are warm, as
they are in an assembly sweep at fixed p, except in the core row and the
cold _diag_block / assemble_T rows, which empty the plan cache
(qpgreens._PLANS) before each call.  The core row
builds the three images' tail cores of the N = 64 diagonal pairs, the
recombination row one momentum's static part from them.  _diag_block and
assemble_T are timed cold and planned at N = 16, 24 and 64.  Both users of
the same-obstacle row builder are timed: _diag_block on the nodes, and
offgrid_boundary_rows at the 16 boundary midpoints at which the mode
reconstruction reads the Dirichlet residual.  The resolvent fiber row
is gapgreens.gdelta_matrix on a zone of one node: the solve and the Gamma
blocks of one junction fiber.  The junction-operator row is one
interface.assemble_interface_operator at the command's default zone (the
17-fiber closed half of 32 nodes) and 32 Gamma points: one zone sweep
(every fiber assembled in one assemble_T call, then factored, counted and
solved fiber by fiber, with the split blocks of the line geometry that
Gamma and Gamma + e1/2 share) and the junction matrix.  Four rows time the
kernel blocks of one zone sweep at the command's default zone (the
17-fiber closed half of 32 nodes, solved once for Gamma and Gamma + e1/2),
each batched over the fibers (qpgreens.kernel_blocks, as gapgreens
evaluates them) and fiber by fiber (kernel_blocks at one fiber's
momentum): the fiber right-hand
sides, both obstacles' nodes against both lines, and what the mode
reconstruction evaluates at its default size, the 48 x 9 grid points off
the obstacles and two 32-point stencil columns on each half-guide, and the
16 boundary midpoints (gapgreens.ZoneFibers).  They assemble nothing, so
their cost is the target side alone (the blocks to the obstacles and the
sources, whose rows closer than qpgreens._THIN_MARGIN to an integer offset
go pair by pair: eval_Ge_uvts, and ge_split planned on those rows for the
pairs near an integer offset).  Those unseparated pairs have two rows of
their own through the router, eval_Ge_uvts, on bare pairs: one call for
all fibers, as the blocks take them, and one per fiber.  The mid-height mirror x2 -> 1/2 - x2
has its own rows: the symmetric split block qpgreens._split_symmetric (one
pair per orbit of the mirror, the argument swap and the x1-reflection) on
the N = 64 nodes and on 24 Gauss nodes of the interface line (plan
warm; the line also at the 9 momenta of a zone sweep's closed half of 16
nodes), and kernel_blocks from the sample grid of the mode swap check to one
obstacle's nodes, once mirrored and once on every row
(qpgreens._kernel_rows).  The x1-reflection has two rows of its own:
field_from_density of two density pairs on that grid, which is invariant
under x1 -> 1 - x1, so the second obstacle's block is the first one
reflected, next to the same call on the grid less one point and its
mid-height mirror image, which keeps the mirror and evaluates both
blocks.  The split route's head is the default, KernelParams.split_head.
Two rows time the crossing hint of the crossing search at the default
numerics.table_fd_nx = 64: the whole cell at the complex phase e^{i pi}
(fdoracle.fd_bloch_eigs, the hint before fdoracle.fd_crossing_hint) and
the mirror-even half cell at the real phase -1 (fd_crossing_hint).  The
last timing is the FD supercell cross-check
of diracwg interface at its default size (8 cells per side, nx = 96, shift
52.67 in the delta = 0.01 gap): the two cell types' stencils, their banded
factors, the Schur complement on the separator columns
(fdoracle._Condensation) and shift-invert ARPACK, with a Krylov space of
fdoracle.SUPERCELL_KRYLOV vectors, for the one eigenpair the command reads.

The supercell is solved on its mirror-even half (fdoracle._assemble's
y_top).

More rows follow the timings: the inside-test calls of one _assemble on
the crossing hint's half cell and on one supercell cell type (the flags,
then one bisection of every cut arm), the supercell's unknowns, the number
of shift-invert solves ARPACK takes in that supercell call (calls of
_Condensation.solve), the tracemalloc peak of the supercell's cell build
(fdoracle._cell_stencil of both cell types) next to the bytes of the CSR
matrices it returns (data, indices and indptr), the rise of
ru_maxrss across one supercell call in a fresh (spawned) process, measured
before anything else because a child's ru_maxrss starts at its parent's
resident size, the pairs the two symmetric split blocks
evaluate next to the triangles they fill, the cost of building a split
plan's tail cores relative to one momentum's recombination from them (a
plan pays for itself once a point set is evaluated at more than one
momentum or energy), and two accuracy rows next to the speed ones: the
largest deviation of ge_split from a 40000-mode axial-image sum (the test
reference ge_msum of tests/kernel_refs.py) over three fixed
pairs (below the top wall, above the bottom wall and mid-strip), and the
largest deviation of ge_split's smooth part at the default head from a
4096-mode head over the N = 64 self block at p = pi, where the head
remainder peaks.  The head itself (qpgreens._SPLIT_HEAD_MIN) was chosen
on the certified outputs against a 4096-mode reference
(scripts/compare_outputs.py).  The counted spectrum row is one inertia
count of the N = 64 cell operator (layerops.counted_spectrum: the
Hermitian check, the Hermitian part and eigvalsh), the work a mirror-sector
split would halve.  Nothing is written to disk.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import multiprocessing  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from scipy.linalg import lapack  # noqa: E402

from diracwg import fdoracle, gapgreens, layerops, qpgreens  # noqa: E402
from diracwg.geometry import (  # noqa: E402
    CENTER_HEIGHT, make_disk, mirror_map, pair_centers,
)
from diracwg.interface import HALF_SHIFT, assemble_interface_operator, gamma_nodes  # noqa: E402
from diracwg.qpgreens import (  # noqa: E402
    KernelParams, _kernel_rows, _split_symmetric, _SplitPlan, _tail_core,
    eval_Ge_uvts, ge_nsum, ge_split, kernel_blocks,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from kernel_refs import ge_msum  # noqa: E402

P, LAM, DELTA, N_NODES, M_GAMMA = 1.3, 52.63, 0.01, 64, 32
ZONE_NODES = 32  # numerics.n_p_nodes of diracwg interface
SUPERCELL_CELLS, SUPERCELL_NX, SUPERCELL_SHIFT = 8, 96, 52.67
HINT_NX = 64  # numerics.table_fd_nx
REPEATS = 7
# (x, y) probe pairs of the accuracy row
PROBES = (((0.0, 0.4988), (0.003, 0.4968)),
          ((0.0, 0.0012), (0.003, 0.0032)),
          ((0.0, 0.25), (0.03, 0.27)))


def timings(fn) -> tuple[float, float]:
    """(minimum, median) wall time of ``fn()`` in seconds over ``REPEATS``
    calls."""
    fn()  # fills lazy caches
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), float(np.median(times))


def supercell_solves(supercell) -> int:
    """Shift-invert solves (ARPACK's OPinv calls) in one ``supercell()``."""
    count = 0
    solve = fdoracle._Condensation.solve

    def counting(self, rhs):
        nonlocal count
        count += 1
        return solve(self, rhs)

    fdoracle._Condensation.solve = counting
    try:
        supercell()
    finally:
        fdoracle._Condensation.solve = solve
    return count


def supercell(shape):
    """The FD supercell call of diracwg interface at its default size."""
    return fdoracle.fd_supercell_interface(
        DELTA, SUPERCELL_CELLS, fdoracle.FDGrid(SUPERCELL_NX), shape, SUPERCELL_SHIFT)


def inside_calls(shape, centers, x1_range, bloch_phase, nx, y_top) -> int:
    """Calls of the inside test in one fdoracle._assemble."""
    inside = fdoracle._inside_factory(shape, centers)
    count = 0

    def counting(pts):
        nonlocal count
        count += 1
        return inside(pts)

    fdoracle._assemble(fdoracle.FDGrid(nx), counting, x1_range, bloch_phase, y_top)
    return count


def supercell_cells_mb(shape) -> tuple[float, float]:
    """(tracemalloc peak, CSR bytes) in MB of the supercell's cell build: the
    stencils of its two cell types."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mats = [fdoracle._cell_stencil(fdoracle.FDGrid(SUPERCELL_NX), shape, pair_centers(d))[0]
                for d in (-DELTA, DELTA)]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / 2**20, sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                             for m in mats) / 2**20


def _supercell_rss_rise() -> float:
    shape = make_disk(0.1, N_NODES)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    supercell(shape)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024


def supercell_rss_rise_mb() -> float:
    """ru_maxrss rise (MB) across one supercell call in a fresh process."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_supercell_rss_rise)


def split_pairs(fn) -> int:
    """Point pairs through ge_split in one ``fn()``."""
    count = 0
    real = qpgreens.ge_split

    def counting(u, *args, **kwargs):
        nonlocal count
        count += np.size(u)
        return real(u, *args, **kwargs)

    qpgreens.ge_split = counting
    try:
        fn()
    finally:
        qpgreens.ge_split = real
    return count


def cold(fn):
    """``fn`` with the split plans and self rows of earlier calls dropped."""
    def call():
        qpgreens._PLANS.clear()
        return fn()
    return call


def unseparated_pairs(fn) -> list:
    """The (u, dx2, t2) pair sets that ``fn()`` routes pair by pair: through
    eval_Ge_uvts, and through ge_split directly (kernel rows near an integer
    offset, as (u, |dx2|, t2))."""
    seen = []
    real = {name: getattr(qpgreens, name) for name in ("eval_Ge_uvts", "ge_split")}

    def recording(name):
        def route(u, dx2, t2, *args, **kwargs):
            seen.append((u, dx2, t2))
            return real[name](u, dx2, t2, *args, **kwargs)
        return route

    for name in real:
        setattr(qpgreens, name, recording(name))
    try:
        fn()
    finally:
        for name, fn_real in real.items():
            setattr(qpgreens, name, fn_real)
    return seen


def self_geometry(pts):
    """(u, t1, t2) of a point set against itself, as _split_symmetric takes it."""
    return (np.subtract.outer(pts[:, 0], pts[:, 0]),
            np.abs(np.subtract.outer(pts[:, 1], pts[:, 1])), np.add.outer(pts[:, 1], pts[:, 1]))


def main() -> int:
    # first: a child's ru_maxrss starts at its parent's resident size
    rss_rise = supercell_rss_rise_mb()
    shape = make_disk(0.1, N_NODES)
    prm = KernelParams()
    nodes = shape.nodes
    ia, ib = np.triu_indices(N_NODES)
    u = (nodes[:, 0][:, None] - nodes[:, 0][None, :])[ia, ib]
    t1 = np.abs(nodes[:, 1][:, None] - nodes[:, 1][None, :])[ia, ib]
    t2 = (nodes[:, 1][:, None] + nodes[:, 1][None, :] + 2 * CENTER_HEIGHT)[ia, ib]
    head = prm.split_head
    plan = _SplitPlan(u, t1, t2, head)
    plan.static(P)
    shapes = {n: make_disk(0.1, n) for n in (16, 24, 64)}
    kinds = (("cold", cold), ("planned", lambda fn: fn))
    u_off = (nodes[:, 0][:, None] - nodes[:, 0][None, :] - 0.52).ravel()
    d_off = (nodes[:, 1][:, None] - nodes[:, 1][None, :]).ravel()
    t_off = (nodes[:, 1][:, None] + nodes[:, 1][None, :] + 2 * CENTER_HEIGHT).ravel()
    x_off = nodes + np.array([0.0, CENTER_HEIGHT])
    rng = np.random.default_rng(7)
    x2, y2 = rng.uniform(0.02, 0.48, (2, 4096))
    u_mix = rng.uniform(-0.5, 0.5, 4096)

    s24, _ = gamma_nodes(24)
    diag_geom = self_geometry(x_off)
    gamma_geom = self_geometry(np.column_stack([np.zeros(24), s24]))
    swap_grid = layerops.cell_sample_points(0.0, shape, margin=0.06)
    # one point and its mid-height mirror image dropped: mirrored, not reflected
    unreflected_grid = np.delete(swap_grid, [0, mirror_map(swap_grid)[0]], axis=0)
    swap_densities = [layerops.DensityPair.from_stacked(
        rng.standard_normal(2 * N_NODES) + 1j * rng.standard_normal(2 * N_NODES))
        for _ in range(2)]

    midpoints = 2 * np.pi * np.arange(16) / 16 + np.pi / N_NODES
    s, _ = gamma_nodes(M_GAMMA)
    line = np.column_stack([np.zeros(M_GAMMA), s])
    T = layerops.assemble_T(P, LAM, DELTA, shape, prm)
    A = T.entries
    W = layerops.hermitian_weighted(A, T.weights, "")
    B = np.asarray(rng.standard_normal((2 * N_NODES, M_GAMMA)), dtype=complex)
    # the solved junction fibers of one energy on the command's default half
    # zone, kept whole and one by one, and the reconstruction's targets at the
    # command's defaults (x_extent 4, 12 columns per unit, 9 rows, step 0.02)
    lines = (line, line + HALF_SHIFT)
    zone = gapgreens.GapZone(DELTA, shape, prm, gapgreens._zone_nodes(ZONE_NODES),
                             (LAM - 1.0, LAM + 1.0))
    p_half = zone.p_nodes[: ZONE_NODES // 2 + 1]
    fiber_zone = gapgreens.GapZone(DELTA, shape, prm, np.array([P]), (LAM - 1.0, LAM + 1.0))
    zone_p, _, zone_psi = gapgreens._fiber_densities(lines, p_half, LAM, DELTA, shape, prm)
    batched = gapgreens.ZoneFibers(zone, lines, zone_p, LAM, tuple(zone_psi))
    single = [gapgreens.ZoneFibers(zone, lines, zone_p[j:j + 1], LAM,
                                   tuple(psi[j:j + 1] for psi in zone_psi))
              for j in range(len(zone_p))]
    src = np.vstack([shape.nodes + c for c in pair_centers(DELTA)])
    cols, rows9 = np.linspace(0.05, 4.0, 48), (np.arange(9) + 0.5) / 18
    right = np.vstack([np.column_stack([np.repeat(cols, 9), np.tile(rows9, 48)]),
                       np.column_stack([np.repeat([0.02, 0.04], M_GAMMA), np.tile(s, 2)])])
    left = right * [-1.0, 1.0] + HALF_SHIFT
    right, left = (pts[~layerops.inside_obstacles(pts, DELTA, shape)] for pts in (right, left))

    def reconstruction_blocks(fibers):
        fibers.gdelta(right, 0)
        fibers.gdelta(left, 1)
        return fibers.gdelta_on_obstacle(midpoints, 0)

    unseparated = unseparated_pairs(lambda: reconstruction_blocks(batched))

    def ldl_solve():
        factor, ipiv, _ = layerops.ldl_factor(W)
        return lapack.zhetrs(factor, ipiv, B)

    rows = [
        ("ge_split (diag pairs, plan given)", "ns/pair", 1e9 / len(u),
         lambda: ge_split(u, t1, t2, P, LAM, head, plan=plan)),
        ("ge_nsum (off-block pairs)", "ns/pair", 1e9 / len(u_off),
         lambda: ge_nsum(u_off, d_off, t_off, P, LAM)),
        ("kernel_blocks (off-block pairs, separable, one momentum)", "ns/pair", 1e9 / len(u_off),
         lambda: kernel_blocks(x_off, x_off + np.array([0.52, 0.0]), P, LAM, prm)),
        ("split plan core, diag pairs (3 images)", "ms", 1e3,
         lambda: [_tail_core(ui, a, head, axis, 2 * np.pi) for ui, a, axis in plan.images]),
        ("split plan recombination, diag pairs, one momentum", "ms", 1e3,
         lambda: (plan.statics.clear(), plan.static(P))),
        *((f"_diag_block N={n}, {kind}", "ms", 1e3, wrap(
            lambda sh=sh: layerops._diag_block(sh, P, LAM, prm)))
          for n, sh in shapes.items() for kind, wrap in kinds),
        *((f"assemble_T N={n} (2N={2 * n}), {kind}", "ms", 1e3, wrap(
            lambda sh=sh: layerops.assemble_T(P, LAM, DELTA, sh, prm)))
          for n, sh in shapes.items() for kind, wrap in kinds),
        ("_split_symmetric N=64 diag block", "ms", 1e3,
         lambda: _split_symmetric(*diag_geom, P, LAM, prm)),
        ("_split_symmetric 24-node Gamma block", "ms", 1e3,
         lambda: _split_symmetric(*gamma_geom, P, LAM, prm)),
        ("_split_symmetric 24-node Gamma block, 9 momenta", "ms", 1e3,
         lambda: _split_symmetric(*gamma_geom, np.linspace(0.0, np.pi, 9), LAM, prm)),
        (f"kernel_blocks, swap-check grid ({len(swap_grid)}) x N=64, mirrored", "ms", 1e3,
         lambda: kernel_blocks(swap_grid, x_off, P, LAM, prm)),
        (f"_kernel_rows, swap-check grid ({len(swap_grid)}) x N=64, every row", "ms", 1e3,
         lambda: _kernel_rows(swap_grid, x_off, np.array([P]), LAM, prm)),
        (f"field_from_density, swap-check grid ({len(swap_grid)}), 2 densities, reflected",
         "ms", 1e3, lambda: layerops.field_from_density(
             swap_densities, swap_grid, P, LAM, DELTA, shape, prm)),
        ("field_from_density, swap-check grid less a mirror pair, 2 densities, both blocks",
         "ms", 1e3, lambda: layerops.field_from_density(
             swap_densities, unreflected_grid, P, LAM, DELTA, shape, prm)),
        ("offgrid_boundary_rows, 16 midpoints, N=64", "ms", 1e3,
         lambda: layerops.offgrid_boundary_rows(midpoints, np.array([P]), LAM, DELTA, shape,
                                                prm)),
        ("_off_block N=64", "ms", 1e3,
         lambda: layerops._off_block(0.52, shape, P, LAM, prm)),
        ("eval_Ge_uvts, 4096 mixed pairs, one momentum", "ms", 1e3,
         lambda: eval_Ge_uvts(u_mix, x2 - y2, x2 + y2, P, LAM, prm)),
        ("weighted SVD 128x128", "ms", 1e3,
         lambda: layerops.weighted_svd(A, T.weights)),
        ("counted spectrum 128x128 (Hermitian check, Hermitian part, eigvalsh)", "ms", 1e3,
         lambda: layerops.counted_spectrum(A, T.weights, "")),
        ("LU solve 128x32", "ms", 1e3,
         lambda: np.linalg.solve(A, B)),
        ("LDL^H factor + solve + inertia 128x32", "ms", 1e3, ldl_solve),
        (f"resolvent fiber (gdelta_matrix, one node), {M_GAMMA} Gamma points x 2 lines", "ms",
         1e3, lambda: gapgreens.gdelta_matrix(lines, LAM, fiber_zone)),
        (f"junction operator (assemble_interface_operator), {len(p_half)} fibers, "
         f"{M_GAMMA} Gamma points", "ms", 1e3,
         lambda: assemble_interface_operator(LAM, M_GAMMA, zone)),
        (f"fiber right-hand sides, {len(p_half)} fibers x 2 lines, batched", "ms", 1e3,
         lambda: [kernel_blocks(src, ys, zone_p, LAM, prm) for ys in lines]),
        (f"fiber right-hand sides, {len(p_half)} fibers x 2 lines, fiber by fiber", "ms", 1e3,
         lambda: [kernel_blocks(src, ys, fp, LAM, prm) for fp in zone_p for ys in lines]),
        (f"reconstruction blocks, {len(p_half)} fibers ({len(right) + len(left)} + 16 points), "
         "batched", "ms", 1e3,
         lambda: reconstruction_blocks(batched)),
        (f"reconstruction blocks, {len(p_half)} fibers ({len(right) + len(left)} + 16 points), "
         "fiber by fiber", "ms", 1e3,
         lambda: [reconstruction_blocks(fibers) for fibers in single]),
        (f"reconstruction unseparated rows ({sum(len(u) for u, *_ in unseparated)} pairs), "
         f"{len(p_half)} fibers, batched", "ms", 1e3,
         lambda: [eval_Ge_uvts(*pairs, zone_p, LAM, prm) for pairs in unseparated]),
        (f"reconstruction unseparated rows ({sum(len(u) for u, *_ in unseparated)} pairs), "
         f"{len(p_half)} fibers, per momentum", "ms", 1e3,
         lambda: [eval_Ge_uvts(*pairs, fp, LAM, prm) for pairs in unseparated for fp in zone_p]),
        (f"FD crossing hint nx={HINT_NX}, whole cell, complex", "ms", 1e3,
         lambda: fdoracle.fd_bloch_eigs(np.pi, 0.0, 1, fdoracle.FDGrid(HINT_NX), shape)),
        (f"FD crossing hint nx={HINT_NX}, even half cell, real", "ms", 1e3,
         lambda: fdoracle.fd_crossing_hint(fdoracle.FDGrid(HINT_NX), shape)),
        (f"FD supercell {SUPERCELL_CELLS} cells, nx={SUPERCELL_NX}, 1 eigenpair", "ms", 1e3,
         lambda: supercell(shape)),
    ]
    times = {name: tuple(scale * t for t in timings(fn)) for name, _, scale, fn in rows}
    values = {name: low for name, (low, _) in times.items()}
    deviation = 0.0
    for x, y in PROBES:
        pair = (np.array([x[0] - y[0]]), np.array([abs(x[1] - y[1])]), np.array([x[1] + y[1]]))
        value, _ = ge_split(*pair, P, LAM, head)
        deviation = max(deviation, abs(value[0] - ge_msum(*pair, P, LAM, 40000)[0]))
    head_dev = np.max(np.abs(ge_split(u, t1, t2, np.pi, LAM, head)[1]
                             - ge_split(u, t1, t2, np.pi, LAM, 4096)[1]))
    cells_peak, matrix_mb = supercell_cells_mb(shape)
    derived = [
        (f"inside calls per _assemble, crossing hint half cell nx={HINT_NX}", "count",
         inside_calls(shape, pair_centers(0.0), (0.0, 1.0), -1.0, HINT_NX,
                      CENTER_HEIGHT)),
        ("inside calls per _assemble, FD supercell cell type", "count",
         inside_calls(shape, pair_centers(DELTA), (0.0, 1.0), 1.0, SUPERCELL_NX,
                      CENTER_HEIGHT)),
        ("FD supercell unknowns", "count",
         int(np.count_nonzero(supercell(shape)[3]["free"]))),
        (f"FD supercell shift-invert solves, {fdoracle.SUPERCELL_KRYLOV} Krylov vectors",
         "count", supercell_solves(lambda: supercell(shape))),
        ("FD supercell cell build tracemalloc peak, 2 cell types", "MB", cells_peak),
        ("FD supercell cell CSR matrices (data + indices + indptr)", "MB", matrix_mb),
        ("FD supercell ru_maxrss rise, fresh process", "MB", rss_rise),
        (f"split pairs, N=64 diag block (triangle {N_NODES * (N_NODES + 1) // 2})", "count",
         split_pairs(lambda: _split_symmetric(*diag_geom, P, LAM, prm))),
        ("split pairs, 24-node Gamma block (triangle 300)", "count",
         split_pairs(lambda: _split_symmetric(*gamma_geom, P, LAM, prm))),
        ("split plan core / one momentum's recombination", "ratio",
         values["split plan core, diag pairs (3 images)"]
         / values["split plan recombination, diag pairs, one momentum"]),
        ("max |ge_split - ge_msum(40000)|, 3 probe pairs", "abs", deviation),
        (f"max |ge_split - ge_split(4096)|, N={N_NODES} diag block, p=pi", "abs", head_dev),
    ]
    width = max(len(name) for name in (*values, *(name for name, *_ in derived)))
    print(f"{'layer':<{width}}  {'min':>10}  {'median':>10}  unit   (repeats {REPEATS}, "
          f"1 BLAS thread, split head {head})")
    for name, unit, _, _ in rows:
        low, mid = times[name]
        print(f"{name:<{width}}  {low:>10.1f}  {mid:>10.1f}  {unit}")
    for name, unit, value in derived:
        shown = f"{value:>10d}" if isinstance(value, int) else f"{value:>10.3g}"
        print(f"{name:<{width}}  {shown}  {'':>10}  {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
