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
fiber by fiber: one +delta Bloch table serves both half-guides.

The discretization is Gauss-Legendre on (0, 1/2) with the shared
(1/pi) log|x2 - y2| singularity of the summed kernel integrated by
moment-matched singularity subtraction.  The bound-state energy is the
unique dip of the smallest weighted singular value inside the common
band gap; the density at the dip reconstructs the mode everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NoModeError,
    PoleRiskError,
    ReconstructionError,
    UniquenessViolationError,
)
from .bands import GapInterval
from .gapgreens import BlochTable, gdelta_matrix, gdelta_on_obstacle_midpoints
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

    def sigma_min(self) -> float:
        return float(np.linalg.svd(self.weighted(), compute_uv=False)[-1])


@dataclass
class InterfaceModeResult:
    delta: float
    gap: tuple[float, float]
    lambda_star_mode: float
    density: np.ndarray
    s_nodes: np.ndarray
    s_weights: np.ndarray
    sigma_min_at_root: float
    sigma_scan: list = field(default_factory=list)
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
    table: BlochTable,
    p_subsample: int = 1,
) -> InterfaceOperator:
    """Discretize the value-matching operator at spectral parameter lam.

    ``table`` is the +delta Bloch table; lam must lie in its certified
    gap.  The -delta half-guide is read off Gamma + e1/2 (x1 - y1 = 0
    there too).  Entries carry the doubled single-layer convention of the
    half-space representations.
    """
    if m_nodes < 24:
        raise PoleRiskError("m_nodes must be >= 24")
    s, w = gamma_nodes(m_nodes)
    pts = np.column_stack([np.zeros(m_nodes), s])
    log_part = LOG_COEFF * _log_quadrature_matrix(s, w)

    def single_layer(line):
        _, smooth = gdelta_matrix(line, line, lam, table,
                                  p_subsample=p_subsample, gamma_smooth=True)
        return 2.0 * (smooth * w[None, :] + log_part)

    part_plus, part_minus = single_layer(pts), -single_layer(pts + HALF_SHIFT)
    return InterfaceOperator(
        lam=lam, delta=delta, m_nodes=m_nodes,
        matrix=part_plus - part_minus, part_plus=part_plus, part_minus=part_minus,
        s_nodes=s, s_weights=w,
    )


def _negative_count(op: InterfaceOperator) -> tuple[int, float]:
    """Negative-eigenvalue count of the symmetric weighted matrix.

    The weighted junction matrix is real symmetric for real gap energies;
    the bound state is a zero crossing of one eigenvalue branch, so the
    count jumps by one there.  The smallest singular values themselves sit
    on a lam-independent floor of highly oscillatory log-kernel modes
    (about 3e-3 for 32 nodes), which makes the sigma dip only a few 1e-3
    wide in lam and invisible to coarse sigma scans; the count jump is
    resolution-proof.
    """
    W = op.weighted()
    vals = np.linalg.eigvalsh(0.5 * (W + W.T))
    return int(np.sum(vals < 0)), float(np.min(np.abs(vals)))


def find_interface_eigenvalue(
    delta: float,
    gap: GapInterval,
    table: BlochTable,
    m_nodes: int = 32,
    n_scan: int = 41,
    scan_subsample: int = 2,
    edge_margin: float = 0.05,
    full_window_halfwidth: float | None = None,
) -> InterfaceModeResult:
    """Locate the unique in-gap resonance of the junction operator.

    Scans the negative-eigenvalue count of the symmetric weighted matrix
    over the open gap (edges trimmed by ``edge_margin`` of the width
    against quadrature pole contamination), requires exactly one count
    jump, bisects it, and certifies the root by a final sigma_min
    refinement at full zone resolution.  The sigma_min values over the
    scan grid are recorded for plotting.  Dips between the scan window
    and the wider first-order window (when given) are reported as
    warnings, not results.
    """
    e1 = max(gap.e1, table.gap[0])
    e2 = min(gap.e2, table.gap[1])
    pad = edge_margin * (e2 - e1)
    lo, hi = e1 + pad, e2 - pad
    if not lo < hi:
        raise NoModeError(f"empty certified scan window ({e1}, {e2})")

    lams = np.linspace(lo, hi, n_scan)
    sig = np.empty(n_scan)
    counts = np.empty(n_scan, dtype=int)
    for i, lam in enumerate(lams):
        op = assemble_interface_operator(lam, delta, m_nodes, table,
                                         p_subsample=scan_subsample)
        counts[i], _ = _negative_count(op)
        sig[i] = op.sigma_min()
    scan = [(float(a), float(b)) for a, b in zip(lams, sig)]

    jumps = [i for i in range(n_scan - 1) if counts[i + 1] != counts[i]]
    if not jumps:
        raise NoModeError(
            f"no interface resonance in ({lo:.6f}, {hi:.6f}): "
            f"no eigenvalue sign change (min sigma {sig.min():.3e})"
        )
    if len(jumps) > 1 or abs(counts[jumps[0] + 1] - counts[jumps[0]]) != 1:
        raise UniquenessViolationError(
            f"multiple eigenvalue sign changes inside the gap at "
            + ", ".join(f"{lams[i]:.6f}" for i in jumps)
        )

    # bisect the count jump at scan resolution, then certify at full zone
    # resolution with parabolic sigma refinement
    a_lam, b_lam = lams[jumps[0]], lams[jumps[0] + 1]
    c_a = counts[jumps[0]]
    for _ in range(14):
        mid = 0.5 * (a_lam + b_lam)
        op = assemble_interface_operator(mid, delta, m_nodes, table,
                                         p_subsample=scan_subsample)
        c_mid, _ = _negative_count(op)
        if c_mid == c_a:
            a_lam = mid
        else:
            b_lam = mid

    def full_op(lam):
        return assemble_interface_operator(lam, delta, m_nodes, table)

    width = max(b_lam - a_lam, 1e-7)
    xs = [a_lam - width, 0.5 * (a_lam + b_lam), b_lam + width]
    ops = {xv: full_op(xv) for xv in xs}
    ys = [ops[xv].sigma_min() ** 2 for xv in xs]
    best = min(xs, key=lambda xv: ops[xv].sigma_min())
    for _ in range(8):
        x1, x2, x3 = xs
        y1, y2, y3 = ys
        denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
        a = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / denom
        b = (x3**2 * (y1 - y2) + x2**2 * (y3 - y1) + x1**2 * (y2 - y3)) / denom
        if a <= 0:
            break
        v = -b / (2 * a)
        if not lo <= v <= hi:
            break
        op = full_op(v)
        ops[v] = op
        pts = sorted(zip(xs + [v], ys + [op.sigma_min() ** 2]), key=lambda t: t[1])[:3]
        pts = sorted(pts, key=lambda t: t[0])
        moved = abs(v - best)
        if op.sigma_min() < ops[best].sigma_min():
            best = v
        xs = [t[0] for t in pts]
        ys = [t[1] for t in pts]
        if moved < 1e-9 * max(1.0, abs(v)):
            break

    op = ops[best]
    sq = np.sqrt(op.s_weights)
    _, svals, vh = np.linalg.svd(op.weighted())
    density = np.conj(vh[-1]) / sq
    density /= np.sqrt(np.sum(op.s_weights * np.abs(density) ** 2))
    # the junction operator is real for real gap energies; fix the phase
    if abs(np.max(density.real)) < abs(np.min(density.real)):
        density = -density
    density = np.real_if_close(density, tol=1e5)

    warnings = []
    if full_window_halfwidth is not None:
        for side_lo, side_hi in (
            (gap.center - full_window_halfwidth, e1 + pad),
            (e2 - pad, gap.center + full_window_halfwidth),
        ):
            side_lo = max(side_lo, e1 + 0.01 * (e2 - e1))
            side_hi = min(side_hi, e2 - 0.01 * (e2 - e1))
            if side_lo >= side_hi:
                continue
            edge_lams = np.linspace(side_lo, side_hi, 4)
            last = None
            for lam in edge_lams:
                try:
                    op_side = assemble_interface_operator(
                        lam, delta, m_nodes, table, p_subsample=scan_subsample
                    )
                except PoleRiskError:
                    continue
                c_side, _ = _negative_count(op_side)
                if last is not None and c_side != last:
                    warnings.append(
                        f"eigenvalue sign change near lambda={lam:.6f} outside "
                        f"the certified scan window"
                    )
                last = c_side

    return InterfaceModeResult(
        delta=delta,
        gap=(e1, e2),
        lambda_star_mode=float(best),
        density=density,
        s_nodes=op.s_nodes,
        s_weights=op.s_weights,
        sigma_min_at_root=float(svals[-1]),
        sigma_scan=scan,
        warnings=warnings,
    )


def _half_field(points, density, result, table, sign):
    """Single-layer field of the interface density over one half-guide;
    the left (sign -1, -delta) one is read off the +delta table at +e1/2."""
    shift = HALF_SHIFT if sign < 0 else 0.0
    src = np.column_stack([np.zeros(len(result.s_nodes)), result.s_nodes])
    G, _ = gdelta_matrix(points + shift, src + shift, result.lambda_star_mode, table)
    return 2.0 * sign * (G @ (result.s_weights * density))


def reconstruct_interface_mode(
    result: InterfaceModeResult,
    table: BlochTable,
    x_extent: float = 4.0,
    nx_per_unit: int = 12,
    ny: int = 9,
    deriv_step: float = 0.02,
) -> InterfaceModeResult:
    """Fill in field samples, decay fit, and matching residuals.

    The two half-space representations are sampled on a strip grid; the
    value-matching residual is measured on Gamma, the derivative matching
    by one-sided three-point stencils, and the obstacle condition on the
    boundary nodes of the pair of obstacles nearest the junction.
    """
    phi = result.density

    nx_half = int(round(x_extent * nx_per_unit))
    xs_right = np.linspace(0.05, x_extent, nx_half)
    xs_left = -xs_right[::-1]
    ys = (np.arange(ny) + 0.5) * 0.5 / ny
    grid_x = np.concatenate([xs_left, xs_right])
    field = np.zeros((len(grid_x), ny))

    XR, YR = np.meshgrid(xs_right, ys, indexing="ij")
    pts_r = np.column_stack([XR.ravel(), YR.ravel()])
    field[len(xs_left):, :] = _half_field(pts_r, phi, result, table, +1).reshape(
        len(xs_right), ny
    )
    XL, YL = np.meshgrid(xs_left, ys, indexing="ij")
    pts_l = np.column_stack([XL.ravel(), YL.ravel()])
    field[: len(xs_left), :] = _half_field(pts_l, phi, result, table, -1).reshape(
        len(xs_left), ny
    )
    scale = np.max(np.abs(field))

    # value matching on Gamma through the trace maps of the root operator
    op = assemble_interface_operator(
        result.lambda_star_mode, result.delta, len(result.s_nodes), table
    )
    u_plus = op.part_plus @ phi
    u_minus = op.part_minus @ phi
    trace_norm = np.sqrt(np.sum(result.s_weights * np.abs(0.5 * (u_plus + u_minus)) ** 2))
    continuity = float(
        np.sqrt(np.sum(result.s_weights * np.abs(u_plus - u_minus) ** 2)) / trace_norm
    )

    # derivative matching by one-sided stencils at +-deriv_step
    s_pts = np.column_stack([np.zeros(len(result.s_nodes)), result.s_nodes])
    h = deriv_step

    def column(x1, sign):
        pts = s_pts.copy()
        pts[:, 0] = x1
        return _half_field(pts, phi, result, table, sign)

    du_plus = (-3 * u_plus + 4 * column(h, +1) - column(2 * h, +1)) / (2 * h)
    du_minus = (3 * u_minus - 4 * column(-h, -1) + column(-2 * h, -1)) / (2 * h)
    dscale = np.sqrt(np.sum(result.s_weights * np.abs(0.5 * (du_plus + du_minus)) ** 2))
    derivative = float(
        np.sqrt(np.sum(result.s_weights * np.abs(du_plus - du_minus) ** 2)) / dscale
    )

    # obstacle condition at off-node boundary points of the obstacle nearest
    # the junction (the fiber solves are exact at collocation nodes, so the
    # midpoints carry the honest boundary residual)
    _, G_bd = gdelta_on_obstacle_midpoints(s_pts, result.lambda_star_mode, table)
    dirichlet_vals = 2.0 * (G_bd @ (result.s_weights * phi))
    dirichlet = float(np.max(np.abs(dirichlet_vals)) / scale)

    # exponential decay of the mode envelope over 1 <= |x1| <= x_extent:
    # the amplitude carries the lattice-periodic factor, so the column
    # maxima are collapsed to one point per unit cell before the fit
    col_max = np.max(np.abs(field), axis=1)
    xs_fit, ys_fit = [], []
    for sign in (-1, +1):
        for k in range(1, int(x_extent)):
            sel = (sign * grid_x >= k) & (sign * grid_x < k + 1)
            if np.any(sel):
                j = np.argmax(col_max[sel])
                xs_fit.append(abs(grid_x[sel][j]))
                ys_fit.append(np.log(col_max[sel][j]))
    xs_fit = np.array(xs_fit)
    ys_fit = np.array(ys_fit)
    coeffs = np.polyfit(xs_fit, ys_fit, 1)
    pred = np.polyval(coeffs, xs_fit)
    ss_res = np.sum((ys_fit - pred) ** 2)
    ss_tot = np.sum((ys_fit - np.mean(ys_fit)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

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
    result.kappa = float(-coeffs[0])
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
