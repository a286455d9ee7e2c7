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
One zone sweep serves several (targets, sources) blocks at one energy:
each fiber assembles and factors T_delta(p, lam) once, with the sources
of every block stacked as right-hand sides.

A GapZone holds the quadrature nodes and the gap edges, the two certified
band edges at p = pi.  An energy must lie inside the edges with a margin,
and in every fiber the LDL^H factorization that solves the Hermitian
weighted T(p, lam) must count exactly one band below it (the inertia count
of bands): no band enters the gap at any node.  A BlochTable of the
leading bands is a test oracle (gap edges, modal head of the band sum).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .bands import find_band_lambda, gap_edges
from .errors import (
    AmbiguousBracketError,
    DomainError,
    KernelError,
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
    field_from_density,
    hermitian_weighted,
    ldl_factor,
    offgrid_boundary_rows,
)
from .qpgreens import KernelParams, _cached_split_static, eval_Ge_uvt, ge_split

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
    gap of one dimerized structure; ``edges`` are bands.gap_edges."""

    delta: float
    shape: ObstacleShape = field(repr=False)
    params: KernelParams = field(repr=False)
    p_nodes: np.ndarray = field(repr=False)
    edges: tuple[float, float]

    @classmethod
    def certify(cls, dirac_data, delta: float, n_p_nodes: int, shape: ObstacleShape,
                params: KernelParams) -> GapZone:
        """The zone of ``n_p_nodes`` nodes, its edges located by the count."""
        return cls(delta, shape, params, _zone_nodes(n_p_nodes),
                   gap_edges(dirac_data, delta, shape, params))

    def check_in_gap(self, lam: float) -> None:
        """lam inside the edges, at least POLE_MARGIN_FACTOR x the half-width
        away from both."""
        e1, e2 = self.edges
        if not e1 < lam < e2:
            raise PoleRiskError(f"lambda={lam:.6f} outside the certified gap ({e1:.6f}, {e2:.6f})")
        margin = min(lam - e1, e2 - lam)
        if margin <= POLE_MARGIN_FACTOR * 0.5 * (e2 - e1):
            raise PoleRiskError(f"lambda={lam:.6f} within {margin:.3e} of a gap edge")


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
        """The zone on the table's nodes, with its tabulated gap as the edges."""
        return GapZone(self.delta, self.shape, self.params, self.p_nodes, self.gap)


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
    oracle on the closed half zone seeds the band search; band points are
    located by their count and certified by sigma_min, and the null
    densities stored with constants normalizing the reconstructed cell
    field to unit discrete L2 norm.
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
    # and mirror the rest.  Band b is sought by its count between the
    # midpoints to its neighbors' seeds (at least +-0.1 around its own).
    for i in range(n_p_nodes // 2 + 1):
        p = p_nodes[i]
        mids = 0.5 * (seeds[i, 1:] + seeds[i, :-1])
        lows = np.minimum(np.concatenate([[2 * seeds[i, 0] - mids[0]], mids]), seeds[i] - 0.1)
        highs = np.maximum(np.concatenate([mids, [2 * seeds[i, -1] - mids[-1]]]), seeds[i] + 0.1)
        row_dens = []
        for b in range(n_bands):
            try:
                lam, (prof, smax), vec = find_band_lambda(
                    p, (lows[b], highs[b]), delta, shape, params,
                    return_vector=True, band=b + 1,
                )
            except (NoBandError, AmbiguousBracketError) as exc:
                raise TableError(
                    f"band {b + 1} not certified at p-node {i} (p={p:.4f}, "
                    f"seed {seeds[i, b]:.4f}): {exc}"
                ) from exc
            dens = DensityPair.from_stacked(vec)
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


def _ge_block(a_pts, b_pts, prm):
    """Empty-guide kernel matrix G^e(a_i, b_j) (guard checked by the caller)."""
    u = a_pts[:, 0][:, None] - b_pts[:, 0][None, :]
    d2 = a_pts[:, 1][:, None] - b_pts[:, 1][None, :]
    t2 = a_pts[:, 1][:, None] + b_pts[:, 1][None, :]
    return eval_Ge_uvt(u.ravel(), d2.ravel(), t2.ravel(), prm, check=False).reshape(
        len(a_pts), len(b_pts)
    )


def _fiber_densities(sources, p, lam, delta, shape, params):
    """Solve T_delta(p, lam) psi = G^e(., y)|_boundaries for every source set.

    One assembly and one LDL^H factorization of the Hermitian weighted
    operator serve all sets: their right-hand sides are stacked.  Its
    inertia gives the count B(lam) of bands below lam at p (see bands);
    PoleRiskError unless lam lies in the gap there, B(lam) = 1.  Returns (prm, src, rhs, psi): the fiber's kernel params,
    the 2N boundary nodes, and per source set the right-hand side and the
    nodal densities, one column per source.
    """
    T = assemble_T(p, lam, delta, shape, params)
    prm = replace(params, p=p, lam=lam)
    where = f"at p={p:.4f}, lambda={lam:.6f}"
    factor, ipiv, negatives = ldl_factor(hermitian_weighted(T.entries, T.weights, where))
    count = negatives + prm.sheets_below() - len(ipiv)
    if count != 1:
        raise PoleRiskError(f"{count} bands below the energy {where}, not 1: "
                            "the energy is not in the gap there")
    centers = pair_centers(delta)
    src = np.vstack([shape.nodes + centers[0], shape.nodes + centers[1]])
    rhs = [_ge_block(src, ys, prm) for ys in sources]
    # T = S^-1 W S with S = diag(sqrt(weights)): W (S psi) = S rhs
    sq = np.sqrt(T.weights)[:, None]
    x, _ = lapack.zhetrs(factor, ipiv, sq * np.hstack(rhs))
    psi = x / sq
    return prm, src, rhs, np.split(psi, np.cumsum([len(ys) for ys in sources])[:-1], axis=1)


def _resolvent_fiber(blocks, p, lam, delta, shape, params, gamma_smooth=False):
    """Gqp values for every (targets, sources) block at one quasi-momentum.

    Returns one (G, smooth) pair per block.  ``smooth`` (when requested, for
    blocks whose targets are their sources on one vertical line,
    x1 - y1 = 0) is the log-regularized restriction G - LOG_COEFF ln|x2 - y2|
    including its diagonal limit, and None otherwise.  A block whose targets
    are its sources evaluates G^e(xs, boundary) as rhs^H, the kernel being
    Hermitian for real lam.
    """
    if gamma_smooth and not all(np.array_equal(xs, ys) for xs, ys in blocks):
        raise DomainError("gamma_smooth blocks must have their sources as targets")
    prm, src, rhs, psi = _fiber_densities([ys for _, ys in blocks], p, lam, delta,
                                          shape, params)
    w2 = np.concatenate([shape.weights, shape.weights])
    m_head = max(prm.m_trunc, 256)
    near = {}  # one ge_split per distinct geometry of the fiber's blocks
    out = []
    for (xs, ys), b, c in zip(blocks, rhs, psi):
        k_eval = b.conj().T if np.array_equal(xs, ys) else _ge_block(xs, src, prm)
        scattered = k_eval @ (w2[:, None] * c)
        if not gamma_smooth:
            out.append((_ge_block(xs, ys, prm) - scattered, None))
            continue
        # the kernel depends on (x1 - y1, |x2 - y2|, x2 + y2) only, so a line
        # block is symmetric: evaluate its upper triangle once and mirror it
        n = len(xs)
        ia, ib = np.triu_indices(n)
        geom = np.stack([xs[ia, 0] - xs[ib, 0], np.abs(xs[ia, 1] - xs[ib, 1]),
                         xs[ia, 1] + xs[ib, 1]])
        key = geom.tobytes()
        if key not in near:
            # the value's diagonal carries the regularized limit; the
            # lam-independent part is shared by every fiber at this p
            static = _cached_split_static(("lines", key), *geom, prm.p, m_head)
            near[key] = ge_split(*geom, prm.p, prm.lam, m_head, static=static)
        val, smooth = (np.empty((n, n), dtype=complex) for _ in range(2))
        for full, tri in zip((val, smooth), near[key]):
            full[ia, ib] = tri
            full[ib, ia] = tri
        out.append((val - scattered, smooth - scattered))
    return out


def _zone_average(fiber, lam, zone):
    """Trapezoid zone average of ``fiber(p)``, a list of complex arrays.

    Fibers at p and 2 pi - p are conjugate, so only the closed half zone is
    computed and the average is real.
    """
    zone.check_in_gap(lam)
    nodes = zone.p_nodes
    n = len(nodes)
    totals = None
    for j in range(n // 2 + 1):
        scale = 1.0 if j in (0, n // 2) else 2.0
        try:
            parts = fiber(nodes[j])
        except KernelError:
            # node grazes an empty-guide dispersion sheet; a symmetric nudge
            # of the conjugate pair perturbs the analytic integrand at O(1e-5)
            parts = fiber(nodes[j] + 1e-5)
        if totals is None:
            totals = [np.zeros(a.shape) for a in parts]
        for total, a in zip(totals, parts):
            total += scale * a.real
    return [total / n for total in totals]


def gdelta_matrix(
    blocks,
    lam: float,
    zone: GapZone,
    gamma_smooth: bool = False,
):
    """In-gap Green's matrices G_delta(xs_i, ys_j; lam) by zone quadrature.

    ``blocks`` is a list of (xs, ys) point-set pairs; every fiber assembles
    and factors T_delta(p, lam) once for all of them.  Returns one (G, S)
    pair per block.  With ``gamma_smooth`` each block's targets must be its
    sources, on one vertical line (Gamma or its shift); S is then the
    log-regularized matrix (G - LOG_COEFF ln|x2 - y2|) including its
    diagonal limit, and None otherwise.
    """
    blocks = [(np.atleast_2d(np.asarray(xs, dtype=float)),
               np.atleast_2d(np.asarray(ys, dtype=float))) for xs, ys in blocks]

    def fiber(p):
        pairs = _resolvent_fiber(blocks, p, lam, zone.delta, zone.shape, zone.params,
                                 gamma_smooth=gamma_smooth)
        return [a for pair in pairs for a in pair if a is not None]

    flat = _zone_average(fiber, lam, zone)
    if gamma_smooth:
        return list(zip(flat[0::2], flat[1::2]))
    return [(G, None) for G in flat]


def eval_Gdelta(x, y, lam: float, zone: GapZone) -> float:
    """Green's function value at one point pair for gap lambda (real)."""
    [(G, _)] = gdelta_matrix([(x, y)], lam, zone)
    return float(G[0, 0])


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
    g = eval_Gdelta(x, y, lam, table.zone())
    h = head_sum(x, y, lam, table)
    return {"value": g, "head": h, "tail": g - h, "tail_fraction": abs(g - h) / max(abs(g), 1e-300)}


def gdelta_on_obstacle_midpoints(
    ys: np.ndarray,
    lam: float,
    zone: GapZone,
    n_targets: int = 16,
):
    """G_delta at off-node boundary points of the first cell obstacle.

    The fiber solves enforce the obstacle condition exactly at the
    collocation nodes, so the midpoint values measure the genuine
    boundary residual of the reconstruction.  Returns (points, G) with
    G of shape (n_targets, len(ys)).
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    shape = zone.shape
    # uniform targets offset by half the collocation spacing (never a node)
    thetas_t = 2 * np.pi * np.arange(n_targets) / n_targets + np.pi / shape.n_nodes
    pts = None

    def fiber(p):
        nonlocal pts
        prm, _, _, (psi,) = _fiber_densities([ys], p, lam, zone.delta, shape, zone.params)
        pts, rows = offgrid_boundary_rows(thetas_t, shape, prm, zone.delta)
        return [_ge_block(pts, ys, prm) - rows @ psi]

    [G] = _zone_average(fiber, lam, zone)
    return pts, G


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
            [(G, _)] = gdelta_matrix([(xs, ys)], lam, zone)
            return G

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
