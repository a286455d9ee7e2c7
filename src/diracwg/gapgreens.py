"""In-gap Green's functions of the dimerized periodic structures.

For spectral parameters inside a band gap the Green's function of the
full periodic guide is the Brillouin-zone average of the quasi-periodic
resolvent,

    G_delta(x, y; lam) = (1/2pi) int_0^{2pi} Gqp(x, y; p, lam) dp,

equivalently the Bloch eigenpair sum over all bands.  Each fiber is
computed exactly through the empty-guide kernel and a single-cell
scattering solve,

    Gqp(x, y; p, lam) = G^e(x, y; p, lam)
        - sum_j int G^e(x, z_j(s); p, lam) psi_j(s; y) ds,
    T_delta(p, lam) psi = G^e(., y)|_boundaries ,

which carries the full band sum (no truncation) and inherits the local
log singularity and the obstacle Dirichlet condition from the kernel.
The integrand is analytic in p for gap parameters, so the uniform
trapezoid rule converges spectrally; fibers at p and 2pi - p are complex
conjugates, so only half the zone is computed and the average is real.

A zone sweep at one energy (ZoneFibers.solve, for a tuple of source sets)
assembles, factors, solves, then evaluates.  The fibers share lam and
differ only in p, so one layerops.assemble_T call assembles
T_delta(p, lam) at every closed-half-zone node, its off-diagonal blocks one
qpgreens.kernel_blocks call for all nodes.  The guard margins of all
nodes are one array operation, and so are their count offsets; only a
node grazing an empty-guide dispersion sheet is nudged.  Each fiber is
then Hermitian-checked, factored and counted on its own.  The right-hand
sides of one source set at every node are one kernel_blocks call, and
each fiber solves for psi of every source set, right-hand sides stacked.
ZoneFibers keeps the momenta and psi stacked over the fibers, and
evaluates any target set against a kept source set as the zone average of
G^e(targets, y) minus the boundary rows applied to w psi, every target
block again one kernel_blocks call for all fibers and the average one
weighted sum over the fiber axis.  The junction's line matrices
(gdelta_matrix) build each line geometry once per sweep and take its
scattered part for all fibers as one stacked matmul.

A GapZone holds the quadrature nodes and the gap edges, the two certified
band edges at p = pi, with their null densities.  An energy must lie in the
zone's admissible window, the edges less a pole margin, and in every fiber
the LDL^H factorization that solves the Hermitian weighted T(p, lam) must
count exactly one band below it: its negatives plus layerops.count_offset,
the count of bands.  So no band enters the gap at any node.  A BlochTable of the leading bands is a
test oracle (gap edges, modal head of the band sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .bands import band_point, gap_edges
from .errors import (
    AmbiguousBracketError,
    NoBandError,
    PoleRiskError,
    TableError,
)
from .fdoracle import FDGrid, fd_band_chart_richardson
from .geometry import ObstacleShape, pair_centers
from .layerops import (
    DensityPair,
    assemble_T,
    cell_sample_points,
    check_off_obstacles,
    count_offset,
    field_from_density,
    hermitian_weighted,
    ldl_factor,
    offgrid_boundary_rows,
)
from .qpgreens import SING_GUARD, KernelParams, _split_symmetric, kernel_blocks

POLE_MARGIN_FACTOR = 0.1  # times the gap half-width


def _zone_nodes(n_p_nodes: int) -> np.ndarray:
    """Uniform trapezoid nodes 2 pi j / n of the zone: n even, so that the
    closed half zone pairs each node with its conjugate, and n >= 16."""
    if n_p_nodes < 16 or n_p_nodes % 2:
        raise TableError("n_p_nodes must be even and >= 16")
    return 2 * np.pi * np.arange(n_p_nodes) / n_p_nodes


@dataclass(frozen=True)
class GapZone:
    """Zone quadrature (uniform, an even count of ``p_nodes``) and certified
    gap of one dimerized structure; ``edges`` and ``edge_densities`` (the
    band-edge null densities, lower then upper) are bands.gap_edges."""

    delta: float
    shape: ObstacleShape = field(repr=False)
    params: KernelParams = field(repr=False)
    p_nodes: np.ndarray = field(repr=False)
    edges: tuple[float, float]
    edge_densities: tuple[DensityPair, DensityPair] | None = field(repr=False, default=None)

    @classmethod
    def certify(cls, dirac_data, delta: float, n_p_nodes: int, shape: ObstacleShape,
                params: KernelParams) -> GapZone:
        """The zone of ``n_p_nodes`` nodes, its edges located by the count."""
        return cls(delta, shape, params, _zone_nodes(n_p_nodes),
                   *gap_edges(dirac_data, delta, shape, params))

    @property
    def admissible(self) -> tuple[float, float]:
        """The edges less POLE_MARGIN_FACTOR x the half-width: the energies
        an in-gap evaluation takes."""
        e1, e2 = self.edges
        margin = POLE_MARGIN_FACTOR * 0.5 * (e2 - e1)
        return e1 + margin, e2 - margin

    def check_in_gap(self, lam: float) -> None:
        """PoleRiskError unless lam lies in the admissible window."""
        lo, hi = self.admissible
        if not lo <= lam <= hi:
            raise PoleRiskError(f"lambda={lam:.6f} outside ({lo:.6f}, {hi:.6f}), the "
                                f"certified gap {self.edges} less its pole margin")


@dataclass
class BlochTable:
    """Certified leading Bloch eigenpairs of one dimerized structure."""

    delta: float
    n_bands: int
    p_nodes: np.ndarray
    lambdas: np.ndarray          # (n_nodes, n_bands)
    sigma_mins: np.ndarray       # (n_nodes, n_bands)
    norm_consts: np.ndarray      # (n_nodes, n_bands); field scale to unit cell norm
    densities: list = field(repr=False, default_factory=list)
    shape: ObstacleShape = field(repr=False, default=None)
    params: KernelParams = field(repr=False, default=None)

    @property
    def gap(self) -> tuple[float, float]:
        return float(np.max(self.lambdas[:, 0])), float(np.min(self.lambdas[:, 1]))

    def zone(self) -> GapZone:
        """The zone on the table's nodes, with its tabulated gap as the edges
        and the densities of bands 1 and 2 at p = pi."""
        return GapZone(self.delta, self.shape, self.params, self.p_nodes, self.gap,
                       tuple(self.densities[len(self.p_nodes) // 2][:2]))


def build_bloch_table(
    delta: float,
    n_bands: int,
    n_p_nodes: int,
    shape: ObstacleShape,
    params: KernelParams,
    fd_grid_nx: int = 96,
) -> BlochTable:
    """Tabulate certified band points and null densities at the p nodes.

    A test oracle: no command builds a table.  The finite-difference
    oracle on the closed half zone gives each band point's center; band
    points are located by their count index (bands.band_point) and
    certified by sigma_min, and the null densities stored with constants
    normalizing the reconstructed cell field to unit discrete L2 norm.
    """
    if n_bands < 2:
        raise TableError("n_bands must be >= 2")
    p_nodes = _zone_nodes(n_p_nodes)
    seeds = fd_band_chart_richardson(p_nodes[: n_p_nodes // 2 + 1], delta, n_bands,
                                     FDGrid(fd_grid_nx), shape)[:, 1:]
    lambdas = np.empty((n_p_nodes, n_bands))
    sigmas = np.empty((n_p_nodes, n_bands))
    consts = np.empty((n_p_nodes, n_bands))
    densities: list = [None] * n_p_nodes
    grid_n = (32, 16)
    sample = cell_sample_points(delta, shape, nx=grid_n[0], ny=grid_n[1], margin=0.04)
    measure = 0.5 / (grid_n[0] * grid_n[1])

    # fibers at p and 2pi - p are conjugate: compute the closed half zone
    # and mirror the rest
    for i in range(n_p_nodes // 2 + 1):
        p = p_nodes[i]
        row_dens = []
        for b in range(n_bands):
            try:
                lam, (prof, _), (dens,) = band_point(p, b + 1, seeds[i, b], delta, shape,
                                                     params, return_vector=True)
            except (NoBandError, AmbiguousBracketError) as exc:
                raise TableError(
                    f"band {b + 1} not certified at p-node {i} (p={p:.4f}, "
                    f"seed {seeds[i, b]:.4f}): {exc}"
                ) from exc
            u = field_from_density(dens, sample, p, lam, delta, shape, params)
            norm = np.sqrt(np.sum(np.abs(u) ** 2) * measure)
            lambdas[i, b] = lam
            sigmas[i, b] = prof[0]
            consts[i, b] = 1.0 / norm
            row_dens.append(dens)
        densities[i] = row_dens
    for i in range(n_p_nodes // 2 + 1, n_p_nodes):
        j = n_p_nodes - i
        lambdas[i] = lambdas[j]
        sigmas[i] = sigmas[j]
        consts[i] = consts[j]
        densities[i] = [
            DensityPair(phi1=np.conj(d.phi1), phi2=np.conj(d.phi2))
            for d in densities[j]
        ]

    table = BlochTable(
        delta=delta,
        n_bands=n_bands,
        p_nodes=p_nodes,
        lambdas=lambdas,
        sigma_mins=sigmas,
        norm_consts=consts,
        densities=densities,
        shape=shape,
        params=params,
    )
    return table


def _factor_fibers(p_nodes, lam, delta, shape, params):
    """Assemble T_delta(p, lam) at every momentum of ``p_nodes`` (one
    assemble_T call) and factor each fiber's Hermitian weighted form (LDL^H).

    The guard margins of all momenta are one array, and only a node that
    grazes an empty-guide dispersion sheet is nudged: a symmetric nudge of
    the conjugate pair perturbs the analytic integrand at O(1e-5).  Per
    fiber, the inertia plus layerops.count_offset is the count B(lam) of
    bands below lam at p; PoleRiskError unless lam lies in the gap there,
    B = 1.  Returns (p, factors, sq): the momenta of the solves, per fiber
    (factor, ipiv), and sqrt(weights) as a column, what the solves take.
    """
    p_nodes = np.asarray(p_nodes, dtype=float)
    p = np.where(params.guard_margins(p_nodes, lam) < SING_GUARD, p_nodes + 1e-5, p_nodes)
    T = assemble_T(p, lam, delta, shape, params)
    offsets = count_offset(p, lam, params, T.entries.shape[-1])
    factors = []
    for q, entries, offset in zip(p, T.entries, offsets):
        where = f"at p={q:.4f}, lambda={lam:.6f}"
        factor, ipiv, negatives = ldl_factor(hermitian_weighted(entries, T.weights, where))
        count = negatives + offset
        if count != 1:
            raise PoleRiskError(f"{count} bands below the energy {where}, not 1: "
                                "the energy is not in the gap there")
        factors.append((factor, ipiv))
    return p, factors, np.sqrt(T.weights)[:, None]


def _fiber_densities(sources, p_nodes, lam, delta, shape, params):
    """Solve T_delta(p, lam) psi = G^e(., y)|_boundaries at every momentum of
    ``p_nodes``, for every source set.

    Every fiber is assembled and factored first (_factor_fibers), one
    factorization for all sets; the factors are held at once (17 x 128^2
    complex, 4.5 MB, on the default half zone and disk).  Each set's
    right-hand sides at all momenta are then one kernel_blocks call, and
    each fiber solves its sets' right-hand sides stacked.  Returns (p, rhs,
    psi): the momenta of the solves, and per source set the right-hand
    sides and the nodal densities, (P, 2N, M), one column per source.
    """
    p, factors, sq = _factor_fibers(p_nodes, lam, delta, shape, params)
    src = np.vstack([shape.nodes + c for c in pair_centers(delta)])
    rhs = [kernel_blocks(src, ys, p, lam, params) for ys in sources]
    cuts = np.cumsum([len(ys) for ys in sources])[:-1]
    # T = S^-1 W S with S = diag(sqrt(weights)): W (S psi) = S rhs
    x = np.concatenate(rhs, axis=2)
    for j, (factor, ipiv) in enumerate(factors):
        x[j] = lapack.zhetrs(factor, ipiv, sq * x[j])[0]
    x /= sq
    return p, rhs, np.split(x, cuts, axis=2)


def _line_fibers(fibers, rhs):
    """Every fiber's G and smooth part G - LOG_COEFF ln|x2 - y2| (diagonal
    limit included, and carried by G's diagonal too), (P, M, M) each, flat,
    on the source sets of ``fibers``, lines whose targets are their
    sources, each on one vertical line.  G^e(line, boundary) is rhs^H, the
    kernel being Hermitian for real lam, so the scattered part is one
    stacked matmul per line.  Each distinct line geometry is built once per
    sweep, and its split blocks of all fibers are one _split_symmetric call."""
    shape, params = fibers.zone.shape, fibers.zone.params
    w2 = np.concatenate([shape.weights, shape.weights])
    near = {}  # the split blocks of every fiber, per distinct line geometry
    out = []
    for xs, b, c in zip(fibers.sources, rhs, fibers.psi):
        scattered = np.conj(b).transpose(0, 2, 1) @ (w2[:, None] * c)
        geom = (np.subtract.outer(xs[:, 0], xs[:, 0]),
                np.abs(np.subtract.outer(xs[:, 1], xs[:, 1])), np.add.outer(xs[:, 1], xs[:, 1]))
        key = np.stack(geom).tobytes()
        if key not in near:
            near[key] = _split_symmetric(*geom, fibers.p, fibers.lam, params)
        out += [near[key][0] - scattered, near[key][1] - scattered]
    return out


@dataclass(frozen=True)
class ZoneFibers:
    """The solved fibers of one energy lam on the closed half zone: the
    momenta p of the solves (a node nudged off a dispersion sheet when
    needed), and per source set psi stacked over the fibers, (P, 2N, M).
    Evaluating targets assembles nothing, and each kernel block of the
    targets is evaluated for all fibers at once (kernel_blocks: the fibers
    share lam and differ in p only), and so are the off-grid boundary rows,
    from one geometry (layerops.offgrid_boundary_rows)."""

    zone: GapZone = field(repr=False)
    sources: tuple = field(repr=False)
    p: np.ndarray
    lam: float
    psi: tuple = field(repr=False)

    @classmethod
    def solve(cls, sources, lam: float, zone: GapZone):
        """The zone sweep at lam for a tuple of source sets
        (_fiber_densities): every fiber assembled and factored,
        PoleRiskError unless lam lies in the zone's admissible window and
        each fiber counts one band below it, then solved for all sets.
        Returns the ZoneFibers and, per set, the right-hand sides
        G^e(boundary nodes, sources) of every fiber, (P, 2N, M), which
        gdelta_matrix reads."""
        sources = tuple(np.atleast_2d(np.asarray(ys, dtype=float)) for ys in sources)
        zone.check_in_gap(lam)
        p, rhs, psi = _fiber_densities(sources, zone.p_nodes[: len(zone.p_nodes) // 2 + 1],
                                       lam, zone.delta, zone.shape, zone.params)
        return cls(zone, sources, p, lam, tuple(psi)), rhs

    def average(self, parts: np.ndarray) -> np.ndarray:
        """Zone average of a (P, K, M) array stacked over the fibers (real:
        conjugate pairs), with the trapezoid weights of the closed half zone.
        Summed in fiber order: a matmul sums in another order, which moves
        output residuals at roundoff level."""
        n = len(self.zone.p_nodes)
        j = np.arange(len(parts))
        weights = np.where((j == 0) | (j == n // 2), 1.0, 2.0)
        return np.sum(weights[:, None, None] * parts.real, axis=0) / n

    def gdelta(self, xs, k: int) -> np.ndarray:
        """G_delta(xs, sources[k]) at strip points xs off the obstacles
        (DomainError for a point inside one)."""
        xs, z = np.atleast_2d(np.asarray(xs, dtype=float)), self.zone
        check_off_obstacles(xs, z.delta, z.shape)
        # the boundary rows one obstacle at a time, so that grid rows separate
        # from each
        k_eval = np.concatenate([kernel_blocks(xs, z.shape.nodes + c, self.p, self.lam,
                                               z.params) for c in pair_centers(z.delta)], axis=2)
        w2 = np.concatenate([z.shape.weights, z.shape.weights])
        return self.average(kernel_blocks(xs, self.sources[k], self.p, self.lam, z.params)
                            - k_eval @ (w2[:, None] * self.psi[k]))

    def gdelta_on_obstacle(self, thetas_t, k: int) -> np.ndarray:
        """G_delta(x(theta_t), sources[k]) at boundary points of the first cell
        obstacle, by the assembly's log-accurate rows at every fiber's
        momentum (layerops.offgrid_boundary_rows)."""
        z = self.zone
        pts, rows = offgrid_boundary_rows(thetas_t, self.p, self.lam, z.delta, z.shape, z.params)
        free = kernel_blocks(pts, self.sources[k], self.p, self.lam, z.params)
        return self.average(free - rows @ self.psi[k])


def gdelta_matrix(lines, lam: float, zone: GapZone):
    """The junction's in-gap Green's matrices G_delta(line, line; lam) by
    zone quadrature, on lines whose targets are their sources, each on one
    vertical line (Gamma or its shift).

    One zone sweep (ZoneFibers.solve) solves for every line.  Returns one
    (G, S) pair per line, S the log-regularized matrix (_line_fibers), and
    the sweep's ZoneFibers.
    """
    fibers, rhs = ZoneFibers.solve(lines, lam, zone)
    flat = [fibers.average(part) for part in _line_fibers(fibers, rhs)]
    return list(zip(flat[0::2], flat[1::2])), fibers


def head_sum(x, y, lam: float, table: BlochTable) -> float:
    """Modal head of the band sum from the tabulated eigenpairs (a test
    reference: no command calls it).

    (1/2pi) int sum_{n <= n_bands} u_n(x;p) conj(u_n(y;p)) / (lam - lambda_n(p)) dp
    on the table's trapezoid nodes; the resolvent value minus this head
    is the (reported) contribution of all higher bands.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    total = 0.0 + 0j
    n = len(table.p_nodes)
    for i, p in enumerate(table.p_nodes):
        for b in range(table.n_bands):
            dens = table.densities[i][b]
            c = table.norm_consts[i, b]
            ux = field_from_density(dens, x, p, table.lambdas[i, b], table.delta,
                                    table.shape, table.params)[0]
            uy = field_from_density(dens, y, p, table.lambdas[i, b], table.delta,
                                    table.shape, table.params)[0]
            total += c**2 * ux * np.conj(uy) / (lam - table.lambdas[i, b])
    return float((total / n).real)


def tail_estimate(x, y, lam: float, table: BlochTable) -> dict:
    """Head/tail split of the Green's function at one point pair (a test
    reference: no command calls it)."""
    fibers, _ = ZoneFibers.solve([y], lam, table.zone())
    g = float(fibers.gdelta(x, 0)[0, 0])
    h = head_sum(x, y, lam, table)
    return {"value": g, "head": h, "tail": g - h, "tail_fraction": abs(g - h) / max(abs(g), 1e-300)}


def helmholtz_residual_check(
    zone: GapZone | None,
    lam: float,
    sample_points: np.ndarray,
    y,
    h_stencil: float = 1e-3,
    evaluator=None,
) -> float:
    """Max normalized 5-point residual of (Delta + lam) G(., y).

    A test reference: no command calls it.  ``evaluator(xs, ys) -> matrix``
    defaults to the in-gap Green's function of ``zone``; alternative
    kernels (e.g. a separable mock) exercise the same stencil machinery.
    """
    if evaluator is None:
        def evaluator(xs, ys):
            fibers, _ = ZoneFibers.solve([ys], lam, zone)
            return fibers.gdelta(xs, 0)

    samples = np.atleast_2d(np.asarray(sample_points, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    offsets = np.array(
        [[0.0, 0.0], [h_stencil, 0.0], [-h_stencil, 0.0], [0.0, h_stencil], [0.0, -h_stencil]]
    )
    worst = 0.0
    for pt in samples:
        stencil = pt[None, :] + offsets
        vals = np.asarray(evaluator(stencil, y))[:, 0]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h_stencil**2
        resid = abs(lap + lam * vals[0]) / max(abs(vals[0]) * abs(lam), 1e-300)
        worst = max(worst, resid)
    return worst
