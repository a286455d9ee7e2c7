"""Interface operator on the junction line and the in-gap bound state.

Gluing the two oppositely dimerized half-guides along the vertical
segment Gamma = {0} x (0, 1/2) turns the bound-state problem into a
first-kind integral equation on Gamma: with the half-space fields
represented through the in-gap Green's functions as

    u+(x) = +2 int_Gamma G_{+delta}(x, y) phi(y) dsigma(y)   (x1 > 0),
    u-(x) = -2 int_Gamma G_{-delta}(x, y) phi(y) dsigma(y)   (x1 < 0),

the derivative matching holds identically (both one-sided normal
derivatives equal phi by the single-layer jump) and value matching
requires

    [G_{+delta} + G_{-delta}] phi = 0   on Gamma.

The -delta cell (centres 1/4 - delta, 3/4 + delta) shifted by +1/2 is the
+delta cell, so G_{-delta}(x, y; lam) = G_{+delta}(x + e1/2, y + e1/2; lam),
fiber by fiber: one +delta gap zone (gapgreens.GapZone: the zone nodes and
the p = pi gap edges) serves both half-guides, and every fiber certifies
its energy in the gap by its own factorization's inertia.

The discretization is Gauss-Legendre on (0, 1/2) with the shared
(1/pi) log|x2 - y2| singularity of the summed kernel integrated by
moment-matched singularity subtraction.  Both lines Gamma and Gamma + e1/2
go through one zone sweep, which assembles T_{+delta}(p, lam) at every
fiber in one call and factors each fiber once.
The bound-state energy is the unique jump of the negative-eigenvalue count
of the symmetric weighted matrix inside the common band gap.  The matrix
decreases in lam and every fiber certifies B(lam) = 1, so the count is
monotone: its values at the two ends of the trimmed gap certify exactly
one crossing, and a secant on the matrix (bands.pencil_root: successive
linear problems, each iterate's count keeping the bracket) converges to it
at full zone resolution; the density there reconstructs the mode
everywhere from the fibers that the root's junction evaluation solved.
Its count is the bands': one layerops.counted_spectrum per energy, offset 0,
read by pencil_root; bands.certified_null_vectors certifies the root on its W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    NoBandError,
    NoModeError,
    OracleError,
    PoleRiskError,
    ReconstructionError,
    UniquenessViolationError,
)
from .bands import GapInterval, certified_null_vectors, pencil_root
from .fdoracle import mode_decay_rate
from .gapgreens import GapZone, ZoneFibers, gdelta_matrix
from .geometry import HALF_SHIFT
from .layerops import counted_spectrum, field_from_density, inside_obstacles
from .qpgreens import LOG_COEFF

RESIDUAL_TOL = 5e-2
MIN_GAMMA_NODES = 24  # Gauss nodes on Gamma: the least the junction operator takes
# each end of the scan is trimmed by this x the width of the gap interval
# clipped to the zone's edges: at delta = 0.025 (N = 24) band 2 dips below
# the first-order upper end at p = 0, where an untrimmed scan fails
EDGE_TRIM = 0.05
DERIV_STEP = 0.02  # x1-step of the one-sided stencils of the derivative matching


@dataclass
class InterfaceOperator:
    lam: float
    matrix: np.ndarray            # value-matching operator on Gamma
    part_plus: np.ndarray         # u+ trace map: u+(0, s_a) = (part_plus @ phi)_a
    part_minus: np.ndarray        # u- trace map
    s_nodes: np.ndarray
    s_weights: np.ndarray
    fibers: ZoneFibers = field(repr=False)  # sources Gamma, Gamma + e1/2


@dataclass
class InterfaceModeResult:
    gap: tuple[float, float]
    lambda_star_mode: float
    density: np.ndarray
    sigma_min_at_root: float
    root_operator: InterfaceOperator
    warnings: list = field(default_factory=list)
    field_samples: np.ndarray | None = None
    grid_x: np.ndarray | None = None
    grid_y: np.ndarray | None = None
    kappa: float | None = None
    r_squared: float | None = None
    interface_residuals: dict = field(default_factory=dict)


@cache
def gamma_nodes(m_nodes: int):
    """Gauss-Legendre nodes and weights on the interface segment (0, 1/2),
    computed once per node count (read-only)."""
    x, w = np.polynomial.legendre.leggauss(m_nodes)
    s, w = 0.25 * (x + 1.0), 0.25 * w
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _log_moment(s: np.ndarray) -> np.ndarray:
    """integral_0^{1/2} ln|s - t| dt, elementwise."""
    a = s
    b = 0.5 - s
    return a * (np.log(a) - 1.0) + b * (np.log(b) - 1.0)


def _log_quadrature_matrix(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Moment-matched Nystrom matrix for the kernel ln|s_a - t| on (0, 1/2)."""
    diff = np.abs(s[:, None] - s[None, :])
    np.fill_diagonal(diff, 1.0)
    L = w[None, :] * np.log(diff)
    np.fill_diagonal(L, 0.0)
    corr = _log_moment(s) - L.sum(axis=1)
    return L + np.diag(corr)


def assemble_interface_operator(
    lam: float,
    m_nodes: int,
    zone: GapZone,
) -> InterfaceOperator:
    """Discretize the value-matching operator at spectral parameter lam.

    ``zone`` is the +delta gap zone; lam must lie in its certified gap.
    The -delta half-guide is read off Gamma + e1/2 (x1 - y1 = 0 there
    too).  Entries carry the doubled single-layer convention of the
    half-space representations.  The operator keeps the sweep's fibers.
    """
    if m_nodes < MIN_GAMMA_NODES:
        raise PoleRiskError(f"m_nodes must be >= {MIN_GAMMA_NODES}")
    s, w = gamma_nodes(m_nodes)
    pts = np.column_stack([np.zeros(m_nodes), s])
    log_part = LOG_COEFF * _log_quadrature_matrix(s, w)
    lines = (pts, pts + HALF_SHIFT)
    [(_, smooth_plus), (_, smooth_minus)], fibers = gdelta_matrix(lines, lam, zone)
    part_plus = 2.0 * (smooth_plus * w[None, :] + log_part)
    part_minus = -2.0 * (smooth_minus * w[None, :] + log_part)
    return InterfaceOperator(
        lam=lam,
        matrix=part_plus - part_minus, part_plus=part_plus, part_minus=part_minus,
        s_nodes=s, s_weights=w, fibers=fibers,
    )


def find_interface_eigenvalue(
    gap: GapInterval,
    zone: GapZone,
    m_nodes: int = 32,
    n_scan: int = 2,
) -> InterfaceModeResult:
    """Locate the unique in-gap resonance of the junction operator.

    Counts the negative eigenvalues of the symmetric weighted matrix at
    ``n_scan`` >= 2 evenly spaced energies of the gap interval clipped to
    the zone's edges, its two ends included (each trimmed by EDGE_TRIM of
    the width against quadrature pole contamination, and kept inside the
    zone's admissible window), and requires exactly one step of one
    between them; the count is monotone, so that certifies exactly one
    crossing (the sigma dip, a few 1e-3 wide over a lam-independent floor of
    log-kernel modes, would not).  The root inside the step is found by the
    matrix-pencil secant (bands.pencil_root), every energy at full zone
    resolution, and must pass the band-point certificate.  Each side strip
    between the trimmed window and the first-order window lambda* -+ h is
    then checked by one count, at the outermost energy that the zone's
    admissible window and its fibers admit, against the count at the near
    window end; a difference is reported as a warning, not a result.
    """
    if n_scan < 2:
        raise ValueError(f"n_scan must be >= 2, got {n_scan}")
    e1 = max(gap.e1, zone.edges[0])
    e2 = min(gap.e2, zone.edges[1])
    pad = EDGE_TRIM * (e2 - e1)
    a1, a2 = zone.admissible
    lo, hi = max(e1 + pad, a1), min(e2 - pad, a2)
    if not lo < hi:
        raise NoModeError(f"empty certified scan window ({e1}, {e2})")

    # every energy's counted spectrum, but only the last operator: its fibers
    # (about 2 MB of psi per energy at the default config) are the root's
    last = None

    @cache
    def junction(lam):
        nonlocal last
        last = assemble_interface_operator(lam, m_nodes, zone)
        return counted_spectrum(last.matrix, last.s_weights, f"of the junction at lambda={lam:.6f}")

    lams = np.linspace(lo, hi, n_scan)
    counts = [junction(lam).count for lam in lams]
    jumps = [i for i in range(n_scan - 1) if counts[i + 1] != counts[i]]
    if not jumps:
        raise NoModeError(
            f"no interface resonance in ({lo:.6f}, {hi:.6f}): "
            f"the junction count is {counts[0]} throughout"
        )
    if len(jumps) > 1 or counts[jumps[0] + 1] - counts[jumps[0]] != 1:
        raise UniquenessViolationError(
            f"the junction count is not one step of one inside the gap: {counts} at "
            + ", ".join(f"{lam:.6f}" for lam in lams)
        )
    best = pencil_root(junction, lams[jumps[0]], lams[jumps[0] + 1])
    op = last
    if op.lam != best:
        raise NoModeError(f"the root lambda={best:.6f} is not the last energy assembled "
                          f"({op.lam:.6f}): its fibers were dropped")
    try:
        sigs, _, [density] = certified_null_vectors(junction(best), 1, f"at lambda={best:.6f}")
    except NoBandError as exc:
        raise NoModeError(str(exc)) from exc
    # the junction operator is real for real gap energies; fix the phase
    if abs(np.max(density.real)) < abs(np.min(density.real)):
        density = -density
    density = np.real_if_close(density, tol=1e5)

    warnings = []
    for sign, end, known in ((-1, lo, counts[0]), (+1, hi, counts[-1])):
        outer = float(np.clip(gap.center + sign * gap.h, a1, a2))
        if sign * (outer - end) <= 0:
            continue
        # outermost first; an energy that a fiber refuses moves the count inward
        for lam in np.linspace(outer, end, 4)[:-1]:
            try:
                c_side = junction(lam).count
            except PoleRiskError:
                continue
            if c_side != known:
                warnings.append(
                    f"eigenvalue sign change between lambda={lam:.6f} and "
                    f"{end:.6f}, outside the certified scan window"
                )
            break

    return InterfaceModeResult(
        gap=(e1, e2),
        lambda_star_mode=float(best),
        density=density,
        sigma_min_at_root=float(sigs[0]),
        root_operator=op,
        warnings=warnings,
    )


def _off_obstacle_field(fibers: ZoneFibers, pts: np.ndarray, k: int, w_phi) -> np.ndarray:
    """G_delta(pts, sources[k]) @ w_phi off the obstacles, and 0, the Dirichlet
    value, at the points inside one (not evaluated)."""
    out = np.zeros(len(pts), dtype=np.result_type(w_phi, float))
    off = ~inside_obstacles(pts, fibers.zone.delta, fibers.zone.shape)
    out[off] = fibers.gdelta(pts[off], k) @ w_phi
    return out


def reconstruct_interface_mode(
    result: InterfaceModeResult,
    x_extent: float = 4.0,
    nx_per_unit: int = 12,
    ny: int = 9,
) -> InterfaceModeResult:
    """Fill in field samples, decay fit, and matching residuals.

    The two half-space representations are sampled on a strip grid, whose
    points inside an obstacle hold 0, the Dirichlet value; the
    value-matching residual is measured on Gamma through the trace maps of
    the root operator, the derivative matching by one-sided three-point
    stencils, and the obstacle condition at off-node boundary points of the
    obstacle nearest the junction.  All are evaluated on the root operator's
    fibers, with no assembly or factorization; the left (-delta) half-guide
    is read off the +delta zone at +e1/2, against Gamma + e1/2.  The
    residual mirror_odd is the field's odd part under x2 -> 1/2 - x2.
    """
    phi, op = result.density, result.root_operator
    s, w, fibers = op.s_nodes, op.s_weights, op.fibers
    m = len(s)

    nx_half = int(round(x_extent * nx_per_unit))
    xs_right = np.linspace(0.05, x_extent, nx_half)
    ys = (np.arange(ny) + 0.5) * 0.5 / ny
    grid_x = np.concatenate([-xs_right[::-1], xs_right])

    # per half-guide: the grid columns, then stencil columns at 1 and 2 steps
    h = DERIV_STEP
    x1_right = np.concatenate([np.repeat(xs_right, ny), np.repeat([h, 2 * h], m)])
    x2_right = np.concatenate([np.tile(ys, nx_half), np.tile(s, 2)])
    right = np.column_stack([x1_right, x2_right])
    left = np.column_stack([-x1_right, x2_right])
    w_phi = w * phi
    v_plus = 2.0 * _off_obstacle_field(fibers, right, 0, w_phi)
    v_minus = -2.0 * _off_obstacle_field(fibers, left + HALF_SHIFT, 1, w_phi)
    n_grid = nx_half * ny
    field = np.concatenate([
        v_minus[:n_grid].reshape(nx_half, ny)[::-1],
        v_plus[:n_grid].reshape(nx_half, ny),
    ])
    scale = np.max(np.abs(field))

    u_plus = op.part_plus @ phi
    u_minus = op.part_minus @ phi
    trace_norm = np.sqrt(np.sum(w * np.abs(0.5 * (u_plus + u_minus)) ** 2))
    continuity = float(
        np.sqrt(np.sum(w * np.abs(u_plus - u_minus) ** 2)) / trace_norm
    )

    # derivative matching by one-sided stencils at +-DERIV_STEP
    c_plus = v_plus[n_grid:].reshape(2, m)
    c_minus = v_minus[n_grid:].reshape(2, m)
    du_plus = (-3 * u_plus + 4 * c_plus[0] - c_plus[1]) / (2 * h)
    du_minus = (3 * u_minus - 4 * c_minus[0] + c_minus[1]) / (2 * h)
    dscale = np.sqrt(np.sum(w * np.abs(0.5 * (du_plus + du_minus)) ** 2))
    derivative = float(
        np.sqrt(np.sum(w * np.abs(du_plus - du_minus) ** 2)) / dscale
    )

    # obstacle condition at 16 boundary points offset by half the node spacing:
    # the fiber solves are exact at the nodes, so these carry the honest residual
    # (unless 16 divides N some are nodes, and take the coincident limit)
    thetas_t = 2 * np.pi * np.arange(16) / 16 + np.pi / fibers.zone.shape.n_nodes
    dirichlet_vals = 2.0 * (fibers.gdelta_on_obstacle(thetas_t, 0) @ w_phi)
    dirichlet = float(np.max(np.abs(dirichlet_vals)) / scale)

    # exponential decay of the mode envelope over 1 <= |x1| <= x_extent
    try:
        kappa, r2 = mode_decay_rate(field, grid_x[:, None], 1.0, x_extent)
    except OracleError as exc:
        raise ReconstructionError(f"decay fit of the reconstructed mode failed: {exc}") from exc

    # odd part of the field under the mid-height mirror x2 -> 1/2 - x2, which
    # maps the grid rows onto each other: the even-sector FD supercell
    # (fdoracle.fd_supercell_interface) cross-checks the mode while it is small
    mirror_odd = float(np.linalg.norm(field - field[:, ::-1]) / (2 * np.linalg.norm(field)))

    residuals = {
        "continuity": continuity,
        "derivative": derivative,
        "dirichlet": dirichlet,
        "mirror_odd": mirror_odd,
    }
    if continuity > RESIDUAL_TOL or derivative > RESIDUAL_TOL:
        raise ReconstructionError(f"interface matching failed: {residuals}")

    result.field_samples = field
    result.grid_x = grid_x
    result.grid_y = ys
    result.kappa = float(kappa)
    result.r_squared = float(r2)
    result.interface_residuals = residuals
    return result


def even_trace_overlap(result: InterfaceModeResult, dirac_data, shape, params) -> float:
    """|<phi_star, phi_even|_Gamma>| / norms: the bifurcation is carried by
    the even crossing mode, whose trace on Gamma the density must see."""
    s, w = result.root_operator.s_nodes, result.root_operator.s_weights
    pts = np.column_stack([np.zeros(len(s)), s])
    trace = field_from_density(
        dirac_data.phi_even, pts, dirac_data.p_star, dirac_data.lambda_star,
        0.0, shape, params,
    )
    num = abs(np.sum(w * result.density * np.conj(trace)))
    den = np.sqrt(np.sum(w * np.abs(result.density) ** 2) * np.sum(w * np.abs(trace) ** 2))
    return float(num / den)
