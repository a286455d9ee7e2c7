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

A BlochTable still tabulates the leading bands (certified dispersion
points, null densities, cell-normalization constants): it certifies the
pole-free margin of the quadrature, supplies the modal head of the band
sum for head/tail reporting, and feeds the overlap diagnostics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AmbiguousBracketError,
    KernelError,
    NoBandError,
    PoleRiskError,
    TableError,
)
from .geometry import ObstacleShape, make_shape, pair_centers
from .layerops import (
    DensityPair,
    assemble_T,
    cell_sample_points,
    field_from_density,
)
from .qpgreens import KernelParams, eval_Ge_uvt, ge_split

POLE_MARGIN_FACTOR = 0.1  # times the gap half-width


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

    @property
    def gap_halfwidth(self) -> float:
        e1, e2 = self.gap
        return 0.5 * (e2 - e1)

    def pole_margin(self, lam: float) -> float:
        return float(np.min(np.abs(lam - self.lambdas)))

    def check_in_gap(self, lam: float) -> None:
        e1, e2 = self.gap
        if not e1 < lam < e2:
            raise PoleRiskError(f"lambda={lam:.6f} outside the certified gap ({e1:.6f}, {e2:.6f})")
        if self.pole_margin(lam) <= POLE_MARGIN_FACTOR * self.gap_halfwidth:
            raise PoleRiskError(
                f"lambda={lam:.6f} within {self.pole_margin(lam):.3e} of a tabulated band"
            )


def build_bloch_table(
    delta: float,
    n_bands: int,
    n_p_nodes: int,
    shape: ObstacleShape,
    params: KernelParams,
    fd_chart: np.ndarray | None = None,
    fd_grid_nx: int = 96,
) -> BlochTable:
    """Tabulate certified band points and null densities at the p nodes.

    ``fd_chart`` rows are (p, lambda_1..lambda_n) seeds; when absent the
    finite-difference oracle is run on the same nodes to provide them.
    Band points are polished to sigma_min certification and the null
    densities stored with constants normalizing the reconstructed cell
    field to unit discrete L2 norm.
    """
    from .bands import find_band_lambda
    from .fdoracle import FDGrid, fd_band_chart_richardson

    if n_bands < 2:
        raise TableError("n_bands must be >= 2")
    if n_p_nodes < 16 or n_p_nodes % 2:
        raise TableError("n_p_nodes must be even and >= 16")

    p_nodes = 2 * np.pi * np.arange(n_p_nodes) / n_p_nodes
    if fd_chart is None:
        half_nodes = p_nodes[: n_p_nodes // 2 + 1]
        fd_chart = fd_band_chart_richardson(
            half_nodes, delta, n_bands, FDGrid(fd_grid_nx), shape
        )
    seeds = np.empty((n_p_nodes, n_bands))
    for i, p in enumerate(p_nodes):
        p_fold = min(p, 2 * np.pi - p)
        row = fd_chart[np.argmin(np.abs(fd_chart[:, 0] - p_fold))]
        seeds[i] = row[1 : n_bands + 1]

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
            guess = seeds[i, b]
            others = np.delete(seeds[i], b)
            sep = np.min(np.abs(others - guess)) if len(others) else 1.0
            width = float(np.clip(0.45 * sep, 0.015, 0.25))
            result = None
            for w in (width, width / 3, width / 9):
                try:
                    result = find_band_lambda(
                        p, (guess - w, guess + w), delta, shape, params,
                        n_scan=5, return_vector=True,
                    )
                    break
                except (NoBandError, AmbiguousBracketError):
                    continue
            if result is None:
                raise TableError(
                    f"band {b + 1} not certified at p-node {i} (p={p:.4f}, seed {guess:.4f})"
                )
            lam, (prof, smax), vec = result
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

    One assembly and one factorization serve all sets: their right-hand
    sides are stacked.  Returns (prm, src, rhs, psi): the fiber's kernel
    params, the 2N boundary nodes, and per source set the right-hand side
    and the nodal densities, one column per source.
    """
    T = assemble_T(p, lam, delta, shape, params)
    prm = replace(params, p=p, lam=lam)
    centers = pair_centers(delta)
    src = np.vstack([shape.nodes + centers[0], shape.nodes + centers[1]])
    rhs = [_ge_block(src, ys, prm) for ys in sources]
    psi = np.linalg.solve(T.entries, np.hstack(rhs))
    return prm, src, rhs, np.split(psi, np.cumsum([len(ys) for ys in sources])[:-1], axis=1)


def _resolvent_fiber(blocks, p, lam, delta, shape, params, gamma_smooth=False):
    """Gqp values for every (targets, sources) block at one quasi-momentum.

    Returns one (G, smooth) pair per block.  ``smooth`` (when requested, for
    blocks on one vertical line, x1 - y1 = 0) is the log-regularized
    restriction G - LOG_COEFF ln|x2 - y2| including its diagonal limit,
    and None otherwise.  A block whose targets are its sources evaluates
    G^e(xs, boundary) as rhs^H, the kernel being Hermitian for real lam.
    """
    prm, src, rhs, psi = _fiber_densities([ys for _, ys in blocks], p, lam, delta,
                                          shape, params)
    w2 = np.concatenate([shape.weights, shape.weights])
    near = {}  # one ge_split per distinct (|x2 - y2|, x2 + y2) geometry
    out = []
    for (xs, ys), b, c in zip(blocks, rhs, psi):
        k_eval = b.conj().T if np.array_equal(xs, ys) else _ge_block(xs, src, prm)
        scattered = k_eval @ (w2[:, None] * c)
        if not gamma_smooth:
            out.append((_ge_block(xs, ys, prm) - scattered, None))
            continue
        u = (xs[:, 0][:, None] - ys[:, 0][None, :]).ravel()
        d2 = np.abs(xs[:, 1][:, None] - ys[:, 1][None, :]).ravel()
        t2 = (xs[:, 1][:, None] + ys[:, 1][None, :]).ravel()
        key = (u.tobytes(), d2.tobytes(), t2.tobytes())
        if key not in near:
            # the value's diagonal carries the regularized limit
            near[key] = ge_split(u, d2, t2, prm.p, prm.lam, max(prm.m_trunc, 256))
        val, smooth = near[key]
        dims = (len(xs), len(ys))
        out.append((val.reshape(dims) - scattered, smooth.reshape(dims) - scattered))
    return out


def _zone_average(fiber, lam, table, p_subsample=1):
    """Trapezoid zone average of ``fiber(p)``, a list of complex arrays.

    ``p_subsample`` thins the table's p nodes (still a valid trapezoid
    rule).  Fibers at p and 2 pi - p are conjugate, so only the closed half
    zone is computed and the average is real.
    """
    table.check_in_gap(lam)
    nodes = table.p_nodes[::p_subsample]
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
    table: BlochTable,
    p_subsample: int = 1,
    gamma_smooth: bool = False,
):
    """In-gap Green's matrices G_delta(xs_i, ys_j; lam) by zone quadrature.

    ``blocks`` is a list of (xs, ys) point-set pairs; every fiber assembles
    and factors T_delta(p, lam) once for all of them.  Returns one (G, S)
    pair per block.  With ``gamma_smooth`` each block's two point sets must
    lie on one vertical line (Gamma or its shift); S is then the
    log-regularized matrix (G - LOG_COEFF ln|x2 - y2|) including its
    diagonal limit, and None otherwise.
    """
    blocks = [(np.atleast_2d(np.asarray(xs, dtype=float)),
               np.atleast_2d(np.asarray(ys, dtype=float))) for xs, ys in blocks]

    def fiber(p):
        pairs = _resolvent_fiber(blocks, p, lam, table.delta, table.shape, table.params,
                                 gamma_smooth=gamma_smooth)
        return [a for pair in pairs for a in pair if a is not None]

    flat = _zone_average(fiber, lam, table, p_subsample)
    if gamma_smooth:
        return list(zip(flat[0::2], flat[1::2]))
    return [(G, None) for G in flat]


def eval_Gdelta(x, y, lam: float, table: BlochTable) -> float:
    """Green's function value at one point pair for gap lambda (real)."""
    [(G, _)] = gdelta_matrix([(x, y)], lam, table)
    return float(G[0, 0])


def head_sum(x, y, lam: float, table: BlochTable) -> float:
    """Modal head of the band sum from the tabulated eigenpairs.

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
    """Head/tail split of the Green's function at one point pair."""
    g = eval_Gdelta(x, y, lam, table)
    h = head_sum(x, y, lam, table)
    return {"value": g, "head": h, "tail": g - h, "tail_fraction": abs(g - h) / max(abs(g), 1e-300)}


def gdelta_on_obstacle_midpoints(
    ys: np.ndarray,
    lam: float,
    table: BlochTable,
    n_targets: int = 16,
):
    """G_delta at off-node boundary points of the first cell obstacle.

    The fiber solves enforce the obstacle condition exactly at the
    collocation nodes, so the midpoint values measure the genuine
    boundary residual of the reconstruction.  Returns (points, G) with
    G of shape (n_targets, len(ys)).
    """
    from .layerops import offgrid_boundary_rows

    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    shape = table.shape
    # uniform targets offset by half the collocation spacing (never a node)
    thetas_t = 2 * np.pi * np.arange(n_targets) / n_targets + np.pi / shape.n_nodes
    pts = None

    def fiber(p):
        nonlocal pts
        prm, _, _, (psi,) = _fiber_densities([ys], p, lam, table.delta, shape, table.params)
        pts, rows = offgrid_boundary_rows(thetas_t, shape, prm, table.delta)
        return [_ge_block(pts, ys, prm) - rows @ psi]

    [G] = _zone_average(fiber, lam, table)
    return pts, G


def helmholtz_residual_check(
    table: BlochTable | None,
    lam: float,
    sample_points: np.ndarray,
    y,
    h_stencil: float = 1e-3,
    evaluator=None,
) -> float:
    """Max normalized 5-point residual of (Delta + lam) G(., y).

    ``evaluator(xs, ys) -> matrix`` defaults to the in-gap Green's
    function of ``table``; alternative kernels (e.g. a separable mock)
    exercise the same stencil machinery.
    """
    if evaluator is None:
        def evaluator(xs, ys):
            [(G, _)] = gdelta_matrix([(xs, ys)], lam, table)
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


# ------------------------------------------------------------ persistence

def table_cache_key(shape: ObstacleShape, delta, n_bands, n_p_nodes,
                    params: KernelParams) -> str:
    payload = json.dumps(
        [list(shape.fourier_cos_coeffs), shape.n_nodes, delta, n_bands, n_p_nodes,
         params.m_trunc, params.sing_guard]
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def save_table(table: BlochTable, directory: Path) -> Path:
    key = table_cache_key(table.shape, table.delta, table.n_bands,
                          len(table.p_nodes), table.params)
    payload = {
        "key": key,
        "delta": table.delta,
        "n_bands": table.n_bands,
        "shape": {"coeffs": list(table.shape.fourier_cos_coeffs), "n_nodes": table.shape.n_nodes},
        "params": {"m_trunc": table.params.m_trunc, "sing_guard": table.params.sing_guard},
        "p_nodes": table.p_nodes.tolist(),
        "lambdas": table.lambdas.tolist(),
        "sigma_mins": table.sigma_mins.tolist(),
        "norm_consts": table.norm_consts.tolist(),
        "densities": [
            [[d.phi1.real.tolist(), d.phi1.imag.tolist(),
              d.phi2.real.tolist(), d.phi2.imag.tolist()] for d in row]
            for row in table.densities
        ],
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"bloch_table_{key}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)
    return path


def load_table(path: Path) -> BlochTable:
    payload = json.loads(Path(path).read_text())
    shape = make_shape(payload["shape"]["coeffs"], payload["shape"]["n_nodes"])
    params = KernelParams(
        p=0.0, lam=1.0,
        m_trunc=payload["params"]["m_trunc"],
        sing_guard=payload["params"]["sing_guard"],
    )
    densities = [
        [
            DensityPair(
                phi1=np.array(d[0]) + 1j * np.array(d[1]),
                phi2=np.array(d[2]) + 1j * np.array(d[3]),
            )
            for d in row
        ]
        for row in payload["densities"]
    ]
    return BlochTable(
        delta=payload["delta"],
        n_bands=payload["n_bands"],
        p_nodes=np.array(payload["p_nodes"]),
        lambdas=np.array(payload["lambdas"]),
        sigma_mins=np.array(payload["sigma_mins"]),
        norm_consts=np.array(payload["norm_consts"]),
        densities=densities,
        shape=shape,
        params=params,
    )
