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
go through one zone sweep, so each fiber factors T_{+delta}(p, lam) once.
The bound-state energy is the unique jump of the negative-eigenvalue count
of the symmetric weighted matrix inside the common band gap.  The matrix
decreases in lam and every fiber certifies B(lam) = 1, so the count is
monotone: its values at the two ends of the trimmed gap certify exactly
one crossing, and a secant on the matrix (bands.pencil_root: successive
linear problems, each iterate's count keeping the bracket) converges to it
at full zone resolution; the density there reconstructs the mode
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoModeError,
    OracleError,
    PoleRiskError,
    ReconstructionError,
    UniquenessViolationError,
)
from .bands import SIGMA_CERT_FACTOR, GapInterval, pencil_root
from .fdoracle import mode_decay_rate
from .gapgreens import GapZone, gdelta_matrix, gdelta_on_obstacle_midpoints
from .qpgreens import LOG_COEFF

RESIDUAL_TOL = 5e-2
HALF_SHIFT = np.array([0.5, 0.0])  # maps the -delta structure onto the +delta one


@dataclass
class InterfaceOperator:
    lam: float
    delta: float
    m_nodes: int
    matrix: np.ndarray            # value-matching operator on Gamma
    part_plus: np.ndarray         # u+ trace map: u+(0, s_a) = (part_plus @ phi)_a
    part_minus: np.ndarray        # u- trace map
    s_nodes: np.ndarray
    s_weights: np.ndarray

    def weighted(self) -> np.ndarray:
        sq = np.sqrt(self.s_weights)
        return sq[:, None] * self.matrix / sq[None, :]


@dataclass
class InterfaceModeResult:
    delta: float
    gap: tuple[float, float]
    lambda_star_mode: float
    density: np.ndarray
    s_nodes: np.ndarray
    s_weights: np.ndarray
    sigma_min_at_root: float
    root_operator: InterfaceOperator
    warnings: list = field(default_factory=list)
    field_samples: np.ndarray | None = None
    grid_x: np.ndarray | None = None
    grid_y: np.ndarray | None = None
    kappa: float | None = None
    r_squared: float | None = None
    interface_residuals: dict = field(default_factory=dict)


def gamma_nodes(m_nodes: int):
    """Gauss-Legendre nodes and weights on the interface segment (0, 1/2)."""
    x, w = np.polynomial.legendre.leggauss(m_nodes)
    return 0.25 * (x + 1.0), 0.25 * w


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
    delta: float,
    m_nodes: int,
    zone: GapZone,
) -> InterfaceOperator:
    """Discretize the value-matching operator at spectral parameter lam.

    ``zone`` is the +delta gap zone; lam must lie in its certified gap.
    The -delta half-guide is read off Gamma + e1/2 (x1 - y1 = 0 there
    too).  Entries carry the doubled single-layer convention of the
    half-space representations.
    """
    if m_nodes < 24:
        raise PoleRiskError("m_nodes must be >= 24")
    s, w = gamma_nodes(m_nodes)
    pts = np.column_stack([np.zeros(m_nodes), s])
    log_part = LOG_COEFF * _log_quadrature_matrix(s, w)
    lines = (pts, pts + HALF_SHIFT)
    (_, smooth_plus), (_, smooth_minus) = gdelta_matrix(
        [(line, line) for line in lines], lam, zone, gamma_smooth=True,
    )
    part_plus = 2.0 * (smooth_plus * w[None, :] + log_part)
    part_minus = -2.0 * (smooth_minus * w[None, :] + log_part)
    return InterfaceOperator(
        lam=lam, delta=delta, m_nodes=m_nodes,
        matrix=part_plus - part_minus, part_plus=part_plus, part_minus=part_minus,
        s_nodes=s, s_weights=w,
    )


def _junction_matrix(op: InterfaceOperator) -> np.ndarray:
    """The symmetric weighted junction matrix.

    It is real symmetric for real gap energies and decreasing in lam; the
    bound state is a zero crossing of one eigenvalue branch, so the
    negative count jumps by one there.  The smallest singular values
    themselves sit on a lam-independent floor of highly oscillatory
    log-kernel modes (about 3e-3 for 32 nodes), which makes the sigma dip
    only a few 1e-3 wide in lam and invisible to coarse sigma scans; the
    count jump is resolution-proof.
    """
    W = op.weighted()
    return 0.5 * (W + W.T)


def find_interface_eigenvalue(
    delta: float,
    gap: GapInterval,
    zone: GapZone,
    m_nodes: int = 32,
    n_scan: int = 2,
    edge_margin: float = 0.05,
    full_window_halfwidth: float | None = None,
) -> InterfaceModeResult:
    """Locate the unique in-gap resonance of the junction operator.

    Counts the negative eigenvalues of the symmetric weighted matrix at
    ``n_scan`` >= 2 evenly spaced energies of the open gap, its two ends
    included (edges trimmed by ``edge_margin`` of the width against
    quadrature pole contamination), and requires exactly one step of one
    between them; the count is monotone, so that certifies exactly one
    crossing.  The root inside the step is found by the matrix-pencil
    secant (bands.pencil_root), every energy at full zone resolution, and
    sigma_min there must lie below SIGMA_CERT_FACTOR x sigma_max.  When the
    wider first-order window is given, each side strip between it and the
    trimmed window is checked by one count, at the outermost energy that
    the zone and its fibers admit, against the count at the near window
    end; a difference is reported as a warning, not a result.
    """
    if n_scan < 2:
        raise ValueError(f"n_scan must be >= 2, got {n_scan}")
    e1 = max(gap.e1, zone.edges[0])
    e2 = min(gap.e2, zone.edges[1])
    pad = edge_margin * (e2 - e1)
    lo, hi = e1 + pad, e2 - pad
    if not lo < hi:
        raise NoModeError(f"empty certified scan window ({e1}, {e2})")

    ops: dict[float, InterfaceOperator] = {}

    def junction(lam):
        if lam not in ops:
            ops[lam] = assemble_interface_operator(lam, delta, m_nodes, zone)
        return _junction_matrix(ops[lam])

    def count(lam):
        return int(np.sum(np.linalg.eigvalsh(junction(lam)) < 0))

    lams = np.linspace(lo, hi, n_scan)
    counts = [count(lam) for lam in lams]
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

    op = ops[best]
    sq = np.sqrt(op.s_weights)
    _, svals, vh = np.linalg.svd(op.weighted())
    if svals[-1] > SIGMA_CERT_FACTOR * svals[0]:
        raise NoModeError(
            f"root at lambda={best:.6f} not certified: sigma_min={svals[-1]:.3e} vs "
            f"{SIGMA_CERT_FACTOR:.1e} x sigma_max={SIGMA_CERT_FACTOR * svals[0]:.3e}"
        )
    density = np.conj(vh[-1]) / sq
    density /= np.sqrt(np.sum(op.s_weights * np.abs(density) ** 2))
    # the junction operator is real for real gap energies; fix the phase
    if abs(np.max(density.real)) < abs(np.min(density.real)):
        density = -density
    density = np.real_if_close(density, tol=1e5)

    warnings = []
    if full_window_halfwidth is not None:
        margin = 0.01 * (e2 - e1)
        for sign, end, known in ((-1, lo, counts[0]), (+1, hi, counts[-1])):
            outer = float(np.clip(gap.center + sign * full_window_halfwidth,
                                  e1 + margin, e2 - margin))
            if sign * (outer - end) <= 0:
                continue
            # outermost first; an energy that the zone's edge margin or a
            # fiber refuses moves the count inward
            for lam in np.linspace(outer, end, 4)[:-1]:
                try:
                    zone.check_in_gap(lam)
                    c_side = count(lam)
                except PoleRiskError:
                    continue
                if c_side != known:
                    warnings.append(
                        f"eigenvalue sign change between lambda={lam:.6f} and "
                        f"{end:.6f}, outside the certified scan window"
                    )
                break

    return InterfaceModeResult(
        delta=delta,
        gap=(e1, e2),
        lambda_star_mode=float(best),
        density=density,
        s_nodes=op.s_nodes,
        s_weights=op.s_weights,
        sigma_min_at_root=float(svals[-1]),
        root_operator=op,
        warnings=warnings,
    )


def reconstruct_interface_mode(
    result: InterfaceModeResult,
    zone: GapZone,
    x_extent: float = 4.0,
    nx_per_unit: int = 12,
    ny: int = 9,
    deriv_step: float = 0.02,
) -> InterfaceModeResult:
    """Fill in field samples, decay fit, and matching residuals.

    The two half-space representations are sampled on a strip grid; the
    value-matching residual is measured on Gamma through the trace maps of
    the root operator, the derivative matching by one-sided three-point
    stencils, and the obstacle condition on the boundary nodes of the pair
    of obstacles nearest the junction.  The grid and the stencil columns of
    both half-guides go through one zone sweep; the left (-delta) one is
    read off the +delta zone at +e1/2.
    """
    phi = result.density
    lam = result.lambda_star_mode
    m = len(result.s_nodes)

    nx_half = int(round(x_extent * nx_per_unit))
    xs_right = np.linspace(0.05, x_extent, nx_half)
    ys = (np.arange(ny) + 0.5) * 0.5 / ny
    grid_x = np.concatenate([-xs_right[::-1], xs_right])

    # per half-guide: the grid columns, then stencil columns at 1 and 2 steps
    s_pts = np.column_stack([np.zeros(m), result.s_nodes])
    h = deriv_step
    x1_right = np.concatenate([np.repeat(xs_right, ny), np.repeat([h, 2 * h], m)])
    x2_right = np.concatenate([np.tile(ys, nx_half), np.tile(result.s_nodes, 2)])
    right = np.column_stack([x1_right, x2_right])
    left = np.column_stack([-x1_right, x2_right])
    (G_plus, _), (G_minus, _) = gdelta_matrix(
        [(right, s_pts), (left + HALF_SHIFT, s_pts + HALF_SHIFT)], lam, zone
    )
    w_phi = result.s_weights * phi
    v_plus = 2.0 * (G_plus @ w_phi)
    v_minus = -2.0 * (G_minus @ w_phi)
    n_grid = nx_half * ny
    field = np.concatenate([
        v_minus[:n_grid].reshape(nx_half, ny)[::-1],
        v_plus[:n_grid].reshape(nx_half, ny),
    ])
    scale = np.max(np.abs(field))

    u_plus = result.root_operator.part_plus @ phi
    u_minus = result.root_operator.part_minus @ phi
    trace_norm = np.sqrt(np.sum(result.s_weights * np.abs(0.5 * (u_plus + u_minus)) ** 2))
    continuity = float(
        np.sqrt(np.sum(result.s_weights * np.abs(u_plus - u_minus) ** 2)) / trace_norm
    )

    # derivative matching by one-sided stencils at +-deriv_step
    c_plus = v_plus[n_grid:].reshape(2, m)
    c_minus = v_minus[n_grid:].reshape(2, m)
    du_plus = (-3 * u_plus + 4 * c_plus[0] - c_plus[1]) / (2 * h)
    du_minus = (3 * u_minus - 4 * c_minus[0] + c_minus[1]) / (2 * h)
    dscale = np.sqrt(np.sum(result.s_weights * np.abs(0.5 * (du_plus + du_minus)) ** 2))
    derivative = float(
        np.sqrt(np.sum(result.s_weights * np.abs(du_plus - du_minus) ** 2)) / dscale
    )

    # obstacle condition at off-node boundary points of the obstacle nearest
    # the junction (the fiber solves are exact at collocation nodes, so the
    # midpoints carry the honest boundary residual)
    _, G_bd = gdelta_on_obstacle_midpoints(s_pts, lam, zone)
    dirichlet_vals = 2.0 * (G_bd @ (result.s_weights * phi))
    dirichlet = float(np.max(np.abs(dirichlet_vals)) / scale)

    # exponential decay of the mode envelope over 1 <= |x1| <= x_extent
    try:
        kappa, r2 = mode_decay_rate(field, grid_x[:, None], 1.0, x_extent)
    except OracleError as exc:
        raise ReconstructionError(f"decay fit of the reconstructed mode failed: {exc}") from exc

    residuals = {
        "continuity": continuity,
        "derivative": derivative,
        "dirichlet": dirichlet,
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
    from .layerops import field_from_density

    pts = np.column_stack([np.zeros(len(result.s_nodes)), result.s_nodes])
    trace = field_from_density(
        dirac_data.phi_even, pts, dirac_data.p_star, dirac_data.lambda_star,
        0.0, shape, params,
    )
    w = result.s_weights
    num = abs(np.sum(w * result.density * np.conj(trace)))
    den = np.sqrt(np.sum(w * np.abs(result.density) ** 2) * np.sum(w * np.abs(trace) ** 2))
    return float(num / den)
