"""Quasi-periodic Green's function of the empty waveguide strip.

The kernel solves (Delta_x + lambda) G = delta(x - y) on the strip
R x (0, 1/2) with sound-hard walls and the Floquet condition
G(x + e1, y) = e^{ip} G(x, y).  Its modal double series is

    G(x, y; p, lam) = sum_m sum_n  e^{i p_m (x1-y1)}
                      (e^{i 2 n pi (x2-y2)} + e^{i 2 n pi (x2+y2)})
                      / (lam - p_m^2 - (2 n pi)^2),      p_m = p + 2 m pi.

Three evaluation routes are used, all exact resummations of that series:

* axial-image form ("msum"): the n-series is summed in closed form,

    G = -sum_m e^{i p_m u} [F_m(|x2-y2|) + F_m(x2+y2)],
    F_m(a) = (e^{-s_m a} + e^{-s_m (1-a)}) / (2 s_m (1 - e^{-s_m})),
    s_m = sqrt(p_m^2 - lam),

  which converges exponentially at rate 2 pi min(|x2-y2|, x2+y2, 1-x2-y2)
  per mode (F_m is even in s_m, so the square-root branch is immaterial);

* transverse-modal form ("nsum"): the m-series is summed in closed form
  through the 1D quasi-periodic Green's function

    h_k(u) = (1/2ik) [e^{iku}/(1-e^{i(k-p)}) + e^{ik(1-u)} e^{ip}/(1-e^{i(k+p)})],
    u in [0, 1),  k_n = sqrt(lam - (2 n pi)^2),  Im k_n >= 0,

  which converges exponentially at rate 2 pi dist(x1-y1, Z) per mode.
  Between point sets whose axial offsets all lie in one floor,
  x1 - y1 in [f + _AXIAL_SWITCH, f + 1 - _AXIAL_SWITCH], the sum is
  separable (kernel_block): with cos 2 pi n (x2-y2) + cos 2 pi n (x2+y2)
  = 2 cos 2 pi n x2 cos 2 pi n y2 and the sources shifted by f
  (y1' = y1 + f, Floquet phase e^{ipf}), each axial factor splits at a
  reference point, e^{ik(x1-y1')} = e^{ik(x1-c1)} e^{ik(c1-y1')} with c1
  between the shifted sources and the targets, and e^{ik(1-x1+y1')} =
  e^{ik(c2-x1)} e^{ik(y1'+1-c2)} with c2 between the targets and the
  sources' next image.  Every exponent is i k times a nonnegative length
  and Im k_n >= 0, so no factor exceeds modulus 1 for evanescent,
  propagating and complex-lam modes alike, and no term is formed by
  cancellation.  A block of K targets and M sources is then two
  (K x n) @ (n x M) products over n modes instead of K M mode sums;

* near-diagonal split: the msum with the large-|m| asymptotics of its
  three near images subtracted term by term and restored in closed form.
  The images sit at a = |x2-y2| (the axis), x2+y2 (the bottom wall) and
  1-(x2+y2) (the top wall).  Each term e^{i p_m u - s_m a}/(2 s_m) is
  expanded to third order in 1/|m|; with z = e^{2 pi (iu - a)} the three
  orders sum to -log(1 - z), Li_2(z) and Li_3(z).  This isolates the
  local singularity (1/2pi) log|x - y| analytically and leaves a smooth
  remainder that stays accurate down to coincident points.  Over the
  window the asymptotic terms are power sums from one doubling table per
  image, and their lam-dependence is a quadratic polynomial whose
  coefficients are computed once per geometry (split_static).  The
  truncation remainder is O(1/m_head^3): at the default head of 96 modes
  (_SPLIT_HEAD_MIN) it is at most 1.3e-8 on the default disk's
  self-interaction block at lam = 52.63, against 8.8e-6 for the leading
  order alone at 256 modes.

Both mode sums are evaluated in blocks of 64 consecutive modes rather
than mode by mode.  An evanescent mode (real s_m, or imaginary k_n) turns
its two exponentials into real ones, so a block costs two real
exponential matrices, one product with a phase (msum) or cosine (nsum)
table that is built once per call by doubling, and one matrix-vector
product with the per-mode weights; only the few propagating modes and
complex lam keep complex exponentials.  An msum block also skips the
rows, and either exponential, on which the block's smallest Re s_m puts
every term below e^{-100}.

The strip is symmetric under the mid-height mirror x2 -> 1/2 - x2, and so
is the kernel: mirroring both points leaves u and |x2-y2| unchanged and
maps x2+y2 to 1-(x2+y2), and the series above depends on x2+y2 only
through cos 2 pi n (x2+y2).  Every structure of the package is mirror
invariant (obstacles on the centerline, r(theta) even in theta), so the
two block evaluators take one half of each block when their point sets
are (geometry.mirror_map): _split_symmetric one pair per orbit of
{mirror, argument swap}, and kernel_block the target rows on or below the
centerline.

Poles of the kernel sit at lam = p_m^2 + (2 n pi)^2 (the empty-guide
dispersion); evaluations are refused when lam comes closer than
``sing_guard`` to that set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, KernelError
from .geometry import CENTER_HEIGHT, mirror_map

LOG_COEFF = 1.0 / (2.0 * np.pi)
_AXIAL_SWITCH = 0.05      # |x1-y1| threshold between nsum and split routes
_SPLIT_HEAD_MIN = 96      # minimum msum head retained by the split route
_MODE_BLOCK = 64          # modes per blocked exponential sum
_DECAY_CUT = 100.0        # msum terms below e^{-_DECAY_CUT} are dropped


@dataclass(frozen=True)
class KernelParams:
    """Spectral and truncation parameters of one kernel evaluation."""

    p: float
    lam: float | complex
    m_trunc: int = 64
    sing_guard: float = 1e-6

    def __post_init__(self):
        if self.m_trunc < 8:
            raise KernelError(f"m_trunc must be >= 8, got {self.m_trunc}")
        if self.sing_guard <= 0:
            raise KernelError("sing_guard must be positive")

    @property
    def split_head(self) -> int:
        """msum head of the near-diagonal split route (ge_split's m_head)."""
        return max(self.m_trunc, _SPLIT_HEAD_MIN)

    def sheets(self) -> tuple[np.ndarray, np.ndarray]:
        """Empty-guide dispersion sheets p_m^2 + (2 n pi)^2, n >= 0, near lam.

        Covers the truncation window |m| <= m_trunc and every n up to two
        past sqrt(lam) / 2 pi.  Returns flat (m, energy) arrays, one entry
        per sheet (coinciding sheets are listed separately).
        """
        m = np.arange(-self.m_trunc, self.m_trunc + 1)
        pm2 = (self.p + 2 * np.pi * m) ** 2
        n_max = int(np.sqrt(max(float(np.real(self.lam)), 0.0)) / (2 * np.pi)) + 2
        tn2 = (2 * np.pi * np.arange(n_max + 1)) ** 2
        return np.repeat(m, len(tn2)), (pm2[:, None] + tn2[None, :]).ravel()

    def guard_margin(self) -> float:
        """min |lam - p_m^2 - (2 n pi)^2| over the truncation window."""
        _, energy = self.sheets()
        return float(np.min(np.abs(self.lam - energy)))

    def sheets_below(self, branch: int | None = None) -> int:
        """Number of sheets below lam, with multiplicity.

        A half-cell branch (+1 / -1, see layerops.assemble_half) sees only
        the sheets of even / odd m: the half-period translation acts on
        e^{i p_m x1} by the sign (-1)^m.
        """
        m, energy = self.sheets()
        below = energy < np.real(self.lam)
        if branch is not None:
            below &= m % 2 == (0 if branch == 1 else 1)
        return int(np.sum(below))

    def check_guard(self) -> None:
        margin = self.guard_margin()
        if margin < self.sing_guard:
            raise KernelError(
                f"lambda={self.lam} within {margin:.3e} of an empty-guide "
                f"dispersion sheet (guard {self.sing_guard:.1e})"
            )


def _as_points(x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != 2:
        raise DomainError("points must be 2D")
    return pts


def _transverse_factor(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """F(a) = (e^{-s a} + e^{-s(1-a)}) / (2 s (1 - e^{-s})); even in s."""
    es = np.exp(-s)
    return (np.exp(-s * a) + np.exp(-s * (1.0 - a))) / (2.0 * s * (1.0 - es))


def _power_table(g: np.ndarray, width: int) -> np.ndarray:
    """E[k, i] = g_i^k for k < width, by doubling the rows."""
    table = np.empty((width, len(g)), dtype=complex)
    table[0] = 1.0
    filled = 1
    while filled < width:
        step = min(filled, width - filled)
        # rows filled..filled+step-1 are rows 0..step-1 times g^filled
        table[filled:filled + step] = table[:step] * (table[filled - 1] * g)
        filled += step
    return table


def _phase_table(x: np.ndarray, width: int) -> np.ndarray:
    """E[k, i] = e^{2 pi i k x_i} for k < width."""
    return _power_table(np.exp(2j * np.pi * x), width)


def _mode_blocks(real: np.ndarray):
    """Slices of consecutive mode positions, each inside one aligned run of
    _MODE_BLOCK positions and never mixing modes whose exponent is real
    (``real``) with complex ones."""
    cuts = np.union1d(np.flatnonzero(np.diff(real)) + 1,
                      np.arange(_MODE_BLOCK, len(real), _MODE_BLOCK))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(real)]):
        yield slice(int(lo), int(hi))


def ge_msum(u, t1, t2, p: float, lam, m_max: int) -> np.ndarray:
    """Axial-image sum truncated at |m| <= m_max (a test reference: the
    solver uses the blocked _family_msum).

    ``u`` is x1-y1, ``t1`` is |x2-y2|, ``t2`` is x2+y2 (arrays broadcast
    together).  Accurate when the transverse gaps are bounded away from 0.
    """
    u = np.asarray(u, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    out = np.zeros(np.broadcast(u, t1, t2).shape, dtype=complex)
    m = np.arange(-m_max, m_max + 1)
    for block in np.array_split(m, max(1, len(m) // 128)):
        pm = p + 2 * np.pi * block
        s = np.sqrt(pm**2 - lam + 0j)
        ph = np.exp(1j * np.multiply.outer(u, pm))
        fa = _transverse_factor(s, t1[..., None])
        fb = _transverse_factor(s, t2[..., None])
        out -= np.sum(ph * (fa + fb), axis=-1)
    return out


def _transverse_modes(p: float, lam, dmin: float, count: int | None = None):
    """Modes n = 0..count of the transverse-modal sum.

    Returns k_n = sqrt(lam - (2 n pi)^2) with Im k_n >= 0 and the weights
    w_n A_n, w_n B_n of h_n(u) = A_n e^{i k_n u} + B_n e^{i k_n (1-u)},

        A_n = 1 / (2 i k_n (1 - e^{i(k_n - p)})),
        B_n = e^{ip} / (2 i k_n (1 - e^{i(k_n + p)})),

    with w_0 = 1 and w_n = 2 pairing +-n.  Without ``count`` the mode count
    follows the smallest axial distance ``dmin`` of the pairs to the
    integers: the last mode is below e^{-36}, within 48 to 800 modes.
    """
    if count is None:
        count = int(np.clip(np.ceil(36.0 / (2 * np.pi * max(dmin, 1e-3))), 48, 800))
    n = np.arange(count + 1)
    k = np.sqrt(lam - (2 * np.pi * n) ** 2 + 0j)
    k = np.where(k.imag < 0, -k, k)
    weight = np.where(n == 0, 1.0, 2.0)
    return (k, weight / (2j * k * (1.0 - np.exp(1j * (k - p)))),
            weight * np.exp(1j * p) / (2j * k * (1.0 - np.exp(1j * (k + p)))))


def ge_nsum(u, dx2, t2, p: float, lam, n_max: int | None = None) -> np.ndarray:
    """Transverse-modal sum; exponentially accurate for x1-y1 off the integers.

    ``dx2`` is x2-y2 (signed; only cosines of it appear), ``t2`` is x2+y2.
    The axial offset is reduced to [0, 1) with the Floquet phase.  The modal
    index n runs over Z; pairing +-n leaves both image families with weight
    2 cos(2 pi n .) for n >= 1 and the plain (1 + 1) h_0 at n = 0.  Without
    ``n_max`` the mode count follows the axial separation of each bucket
    (_transverse_modes).

    The modes are summed in blocks of _MODE_BLOCK consecutive n.  For an
    evanescent mode (k_n = i kappa_n, real lam)

        h_n(u) = A_n e^{-kappa_n u} + B_n e^{-kappa_n (1-u)},

    so a block costs two real exponential matrices and one real cosine
    matrix times complex per-mode weights.  The cosines come from the phase
    tables e^{2 pi i k .}, k < _MODE_BLOCK, built once per bucket.
    Propagating modes and complex lam keep complex exponentials.
    """
    shape = np.broadcast(u, dx2, t2).shape
    u, dx2, t2 = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
                  for a in (u, dx2, t2))
    shift = np.floor(u)
    ur = u - shift
    phase = np.exp(1j * p * shift)

    d1 = np.maximum(np.minimum(ur, 1.0 - ur), 1e-3)

    def modal(sel, dmin, count=None):
        k, wa, wb = _transverse_modes(p, lam, dmin, count)
        us, ds, ts = ur[sel], dx2[sel], t2[sel]
        width = min(_MODE_BLOCK, len(k))
        tab1, tab2 = _phase_table(ds, width), _phase_table(ts, width)
        total = np.zeros(len(us), dtype=complex)
        for blk in _mode_blocks(k.real == 0):
            # cos(2 pi n x) = Re(e^{2 pi i base x} E[n - base]) with the block's
            # aligned base (a multiple of _MODE_BLOCK)
            base = blk.start - blk.start % _MODE_BLOCK
            idx = slice(blk.start - base, blk.stop - base)
            if base == 0:
                cosines = tab1[idx].real + tab2[idx].real
            else:
                cosines = ((tab1[idx] * np.exp(2j * np.pi * base * ds)).real
                           + (tab2[idx] * np.exp(2j * np.pi * base * ts)).real)
            kb = k[blk]
            if kb[0].real != 0:
                total += ((np.exp(1j * np.multiply.outer(us, kb)) * cosines.T) @ wa[blk]
                          + (np.exp(1j * np.multiply.outer(1.0 - us, kb)) * cosines.T) @ wb[blk])
                continue
            kappa = kb.imag[:, None]
            part = (np.stack([wa[blk].real, wa[blk].imag]) @ (np.exp(-kappa * us) * cosines)
                    + np.stack([wb[blk].real, wb[blk].imag])
                    @ (np.exp(-kappa * (1.0 - us)) * cosines))
            total += part[0] + 1j * part[1]
        return total

    out = np.empty(ur.shape, dtype=complex)
    if n_max is not None:
        out = modal(np.ones_like(ur, dtype=bool), 0.0, n_max)
        return (phase * out).reshape(shape)
    # mode count scales with the inverse axial separation: bucket the batch
    # so nearby pairs do not inflate the cost of well-separated ones
    edges = [0.05, 0.12, 0.3, 1.0]
    lo = 0.0
    for hi in edges:
        sel = (d1 > lo) & (d1 <= hi)
        if np.any(sel):
            out[sel] = modal(sel, float(np.min(d1[sel])))
        lo = hi
    return (phase * out).reshape(shape)


def _wall_head_count(t2, m_head: int) -> int:
    """Head of the wall family: its terms fall like e^{-2 pi m min(t2, 1-t2)}."""
    near = float(np.min(np.minimum(t2, 1.0 - t2)))
    return min(m_head, max(24, int(np.ceil(16.0 / max(near, 0.05)))))


def _family_msum(u, a, p: float, lam, m_head: int) -> np.ndarray:
    """sum over the mode window m in [-m_head-1, m_head] of e^{i p_m u} F_m(a).

    The window is chosen asymmetric because the reflections p -> 2pi - p
    and p -> 2pi - p about pi act on the mode index as m -> -m - 1; with
    this window the truncated sum satisfies the kernel's conjugation
    identities exactly.

    The modes are summed in blocks of at most _MODE_BLOCK consecutive m.
    With e^{i p_m u} = e^{i p_{m0} u} e^{2 pi i k u}, m = m0 + k, a block is

        e^{i p_{m0} u} [c @ (E o (e^{-s a} + e^{-s (1-a)}))],
        c_k = 1 / (2 s_k (1 - e^{-s_k})),

    with the phase table E[k, .] = e^{2 pi i k u} built once per call.
    Evanescent modes (real s_m, all but the few with p_m^2 < lam) take two
    real exponential matrices and a real c; propagating modes and complex
    lam keep complex ones.  A block skips the rows, and either exponential,
    on which all its terms are below e^{-100}: |e^{-s dist}| <= e^{-dist Re s},
    judged by the block's smallest Re s, so propagating modes (Re s = 0) are
    never dropped.
    """
    shape = np.broadcast(u, a).shape
    u, a = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel() for x in (u, a))
    # rows by increasing distance to the nearer image: every block works on
    # a prefix of them
    near = np.minimum(a, 1.0 - a)
    order = np.argsort(near, kind="stable")
    u, a, near = u[order], a[order], near[order]
    table = _phase_table(u, _MODE_BLOCK)

    m = np.arange(-m_head - 1, m_head + 1)
    pm = p + 2 * np.pi * m
    s = np.sqrt(pm**2 - lam + 0j)
    total = np.zeros(len(u), dtype=complex)
    for blk in _mode_blocks(s.imag == 0):
        sb = s[blk].real if s[blk.start].imag == 0 else s[blk]
        slow = float(np.min(sb.real))  # the block's slowest decay rate
        rows = int(np.searchsorted(near * slow, _DECAY_CUT, side="right"))
        if rows == 0:
            continue
        decay = 0.0
        for dist in (a[:rows], 1.0 - a[:rows]):
            if dist.min() * slow <= _DECAY_CUT:
                decay = decay + np.exp(-np.multiply.outer(sb, dist))
        coef = 1.0 / (2.0 * sb * (1.0 - np.exp(-sb)))
        width = blk.stop - blk.start
        total[:rows] += (np.exp(1j * pm[blk.start] * u[:rows])
                         * (coef @ (table[:width, :rows] * decay)))
    out = np.empty_like(total)
    out[order] = total
    return out.reshape(shape)


def ge_split(u, t1, t2, p: float, lam, m_head: int, static=None):
    """Near-diagonal evaluation: returns (value, smooth) arrays with

        value  = smooth + LOG_COEFF * log r,   r = sqrt(u^2 + t1^2).

    Valid for |u| < 1/2 and transverse coordinates inside the strip; the
    smooth part stays finite and accurate down to r -> 0.  Three images are
    subtracted to third order in 1/|m| (split_static), so truncation of
    the head at m_head leaves an O(1/m_head^3) remainder: at most 1.3e-8
    at m_head = 96 on the default disk's self-interaction block, and 4e-9
    on pairs 0.004 from either wall's image.  The wall-image family decays
    like e^{-2 pi m min(x2+y2, 1-(x2+y2))} and keeps a short head
    (_wall_head_count); KernelError for a lam at which a mode past that
    head propagates.  ``static`` may carry the lam-independent part from
    split_static() for repeated evaluations at one geometry.

    Momenta beyond pi are folded through the exact conjugation identity
    G(2 pi - p) = conj(G(p)) (real lam): the 1/m-weighted image tails are
    not exactly mirror-equivariant on their own, and the fold keeps every
    kernel symmetry identity exact at the evaluator level.
    """
    u = np.asarray(u, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    shape = np.broadcast(u, t1, t2).shape
    u, t1, t2 = np.broadcast_to(u, shape), np.broadcast_to(t1, shape), np.broadcast_to(t2, shape)

    fold = float(p) > np.pi and (np.isrealobj(lam) or np.imag(lam) == 0)
    p_eff = 2 * np.pi - p if fold else p

    if static is None:
        static = split_static(u, t1, t2, p_eff, m_head)
    c0, c1, c2, logr = static
    m_wall = _wall_head_count(t2, m_head)
    # the closed tail past the window is right only for evanescent modes
    edge = min(abs(p_eff + 2 * np.pi * (m_wall + 1)), abs(p_eff - 2 * np.pi * (m_wall + 2)))
    if edge**2 < np.real(lam):
        raise KernelError(f"lambda={lam} propagates wall-image modes up to |p_m| = "
                          f"{np.sqrt(np.real(lam)):.1f}, past the split window |p_m| < {edge:.1f}")
    msum = _family_msum(u, t1, p_eff, lam, m_head) + _family_msum(u, t2, p_eff, lam, m_wall)
    smooth = -msum + c0 + lam * (c1 + lam * c2)
    if fold:
        smooth = np.conj(smooth)
    value = smooth + LOG_COEFF * logr
    return value, smooth


def _power_sums(mu: np.ndarray, count: int) -> np.ndarray:
    """S[j - 1, i] = sum_{k=1}^{count} e^{k mu_i} / k^j for j = 1, 2, 3.

    One power table of _MODE_BLOCK rows serves every block of consecutive
    k: a block is the real (3 x width) weights 1/k^j times the table (on its
    interleaved real and imaginary parts), scaled by e^{(base + 1) mu}.
    """
    g = np.exp(mu)
    width = min(_MODE_BLOCK, count)
    table = _power_table(g, width)
    step = table[width - 1] * g  # e^{width mu}
    scale = g                    # e^{(base + 1) mu}
    total = np.zeros((3, len(mu)), dtype=complex)
    for base in range(0, count, width):
        k = np.arange(base + 1, min(base + width, count) + 1, dtype=float)
        weights = 1.0 / k ** np.arange(1, 4)[:, None]
        total += (weights @ table[:len(k)].view(float)).view(complex) * scale
        scale = scale * step
    return total


_LOG_SERIES_TERMS = 24
_ZETA2, _ZETA3 = np.pi**2 / 6, 1.2020569031595942


def _log_series_coefs(order: int) -> np.ndarray:
    """zeta(1 - 2j) / (order + 2j - 1)!, j = 1.._LOG_SERIES_TERMS, by the
    functional equation zeta(1 - 2j) = (-1)^j 2 (2j)! zeta(2j) / (2 pi)^{2j}."""
    j = np.arange(1, _LOG_SERIES_TERMS + 1)
    rising = np.prod([2 * j + i for i in range(1, order)], axis=0)
    return (-1.0) ** j * special.zeta(2.0 * j) / (j * (2 * np.pi) ** (2 * j) * rising)


_LOG_SERIES = {2: _log_series_coefs(2), 3: _log_series_coefs(3)}


def _polylog(order: int, mu: np.ndarray) -> np.ndarray:
    """Li_order(e^mu) for order 2 or 3 and Re mu <= 0.

    For Re mu >= -pi/2 (Im mu reduced to [-pi, pi)) the log-series about
    e^mu = 1,

        Li_s(e^mu) = mu^{s-1} (H_{s-1} - log(-mu)) / (s-1)!
                     + sum_{k != s-1} zeta(s - k) mu^k / k!,

    whose terms past k = s vanish for odd s - k and fall like
    (|mu| / 2 pi)^k <= 0.56^k; elsewhere |e^mu| < e^{-pi/2} and the power
    series sum_k e^{k mu} / k^s converges as fast.
    """
    mu = mu.real + 1j * (np.mod(mu.imag + np.pi, 2 * np.pi) - np.pi)
    out = np.empty(mu.shape, dtype=complex)
    far = mu.real < -np.pi / 2
    if np.any(far):
        k = np.arange(1, _LOG_SERIES_TERMS + 1)
        out[far] = np.exp(np.multiply.outer(mu[far], k)) @ (1.0 / k**order)
    m = mu[~far]
    m2 = m * m
    # the k = s + 2j terms, by Horner in m^2
    series = np.zeros_like(m)
    for c in _LOG_SERIES[order][::-1]:
        series = series * m2 + c
    series *= m2 * m ** (order - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = np.where(m == 0, 0.0, np.log(np.where(m == 0, 1.0, -m)))
    if order == 2:
        out[~far] = _ZETA2 + m * (1.0 - log_m) - m2 / 4 + series
    else:
        out[~far] = _ZETA3 + _ZETA2 * m + m2 * (1.5 - log_m) / 2 - m2 * m / 12 + series
    return out


def _image_tails(u: np.ndarray, a: np.ndarray, p: float, count: int, axis: bool = False):
    """Window sums minus full sums of one image family's asymptotic terms.

    The family is sum_m e^{i p_m u} e^{-s_m a} / (2 s_m).  With k = |m|,
    q = sign(m) p and x = 1 / (2 pi k), |p_m| = 2 pi k + q and

        e^{i p_m u - s_m a} / (2 s_m) = e^{i p_m u - |p_m| a} / (4 pi k)
            [1 + x (lam a/2 - q) + x^2 (q^2 - q lam a + (lam a)^2/8 + lam/2)
             + O(x^3)],

    where e^{i p_m u - |p_m| a} is e^{p (iu - a)} z^k for m > 0 and
    e^{p (iu + a)} conj(z)^k for m < 0, z = e^{2 pi (iu - a)}.  Over all m
    the three orders sum to -log(1 - z), Li_2(z) and Li_3(z); over the msum
    window m = 1..count, -1..-(count+1) they are power sums (_power_sums),
    the m < 0 ones conjugate to the m > 0 ones.

    Returns (live, coef): ``coef`` (3, live.sum()) holds the lam^0, lam^1
    and lam^2 coefficients of the window sums minus the full sums, i.e.
    minus the tails past the window, on the ``live`` rows.  The other rows
    have every tail term below e^{-_DECAY_CUT} and contribute nothing.  For
    the ``axis`` image, log(1 - z) at z = 1 takes its r -> 0 limit with log r
    removed, log 2 pi (split_static subtracts LOG_COEFF log r).
    """
    live = a * (2 * np.pi * (count + 1) - abs(p)) < _DECAY_CUT
    u, a = u[live], a[live]
    mu = 2 * np.pi * (1j * u - a)
    e_p = np.exp(p * (1j * u - a))
    e_m = np.exp(p * (1j * u + a))
    sums = _power_sums(mu, count)
    # m -> -m is conjugation, one mode further out
    sums_m = (np.conj(sums)
              + np.exp((count + 1) * np.conj(mu)) / (count + 1.0) ** np.arange(1, 4)[:, None])
    with np.errstate(divide="ignore"):
        log1 = np.log(-np.expm1(mu))
    if axis:
        log1[mu == 0] = np.log(2 * np.pi)
    li2, li3 = _polylog(2, mu), _polylog(3, mu)
    d1p, d1m = sums[0] + log1, sums_m[0] + np.conj(log1)
    d2p, d2m = (sums[1] - li2) / (2 * np.pi), (sums_m[1] - np.conj(li2)) / (2 * np.pi)
    d3p, d3m = (sums[2] - li3) / (2 * np.pi) ** 2, (sums_m[2] - np.conj(li3)) / (2 * np.pi) ** 2
    coef = np.stack([
        e_p * (d1p - p * d2p + p**2 * d3p) + e_m * (d1m + p * d2m + p**2 * d3m),
        e_p * (a / 2 * d2p + (0.5 - p * a) * d3p) + e_m * (a / 2 * d2m + (0.5 + p * a) * d3m),
        a**2 / 8 * (e_p * d3p + e_m * d3m),
    ])
    return live, coef / (4 * np.pi)


def split_static(u, t1, t2, p: float, m_head: int):
    """lam-independent part of ge_split: a polynomial in lam.

    Returns (c0, c1, c2, logr) such that

        smooth(lam) = -[msum_t1(lam) + msum_t2(lam)] + c0 + lam c1 + lam^2 c2 .

    Three images are subtracted (_image_tails): the axis image at |x2-y2|
    over the m_head window, and the wall images at x2+y2 and 1-(x2+y2) over
    the wall window.  So c0..c2 reproduce

        smooth = -(msum - asymptotic window sums) - asymptotic full sums
                 - LOG_COEFF log r .
    """
    shape = np.broadcast(u, t1, t2).shape
    u, t1, t2 = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
                 for x in (u, t1, t2))
    r = np.hypot(u, t1)
    with np.errstate(divide="ignore"):
        logr = np.where(r > 0, np.log(r), 0.0)
    coef = np.zeros((3, len(u)), dtype=complex)
    coef[0] = -LOG_COEFF * logr
    m_wall = _wall_head_count(t2, m_head)
    for a, count, axis in ((t1, m_head, True), (t2, m_wall, False), (1.0 - t2, m_wall, False)):
        live, c = _image_tails(u, a, p, count, axis)
        coef[:, live] += c
    return tuple(x.reshape(shape) for x in (*coef, logr))


_STATIC_CACHE: dict = {}
_STATIC_CACHE_MAX = 512


def _split_symmetric(u, t1, t2, params: KernelParams):
    """ge_split over a symmetric (n, n) pair geometry, returned as full
    (value, smooth) matrices.

    With u = x1 - y1, t1 = |x2 - y2| and t2 = x2 + y2 of one point set
    against itself, the kernel at real lam is Hermitian under argument swap,
    so only the upper triangle is needed and the lower one is its
    conjugate.  When the set is invariant under the mid-height mirror
    (geometry.mirror_map, found from the points x1 - x1_0 = u[:, 0] and
    x2 = t2[i, i] / 2), the mirror maps the pair (i, j) to (s_i, s_j) and
    leaves u, t1 and the kernel unchanged (t2 -> 1 - t2), so only one
    triangle pair per orbit of {mirror, swap} is evaluated: its mirror
    image in the triangle takes the same value, or the conjugate where the
    image had to be swapped back into the triangle.  The evaluated pairs'
    split_static part is kept across calls, keyed by their bytes, the
    folded momentum and the head: ge_split folds momenta beyond pi through
    conjugation, so p and 2 pi - p share it.
    """
    if np.imag(params.lam) != 0:
        raise DomainError(f"a symmetric split block needs real lambda, got {params.lam}")
    n = len(u)
    ia, ib = np.triu_indices(n)
    # each triangle pair's source: itself, or its mirror image (sa, sb),
    # swapped back into the triangle (and conjugated) when sa > sb
    own = np.arange(len(ia))
    src, swapped = own, np.zeros(len(ia), dtype=bool)
    mirror = mirror_map(np.column_stack([u[:, 0], 0.5 * np.diagonal(t2)]))
    if mirror is not None:
        sa, sb = mirror[ia], mirror[ib]
        tri_index = np.empty((n, n), dtype=int)
        tri_index[ia, ib] = own
        src = np.minimum(own, tri_index[np.minimum(sa, sb), np.maximum(sa, sb)])
        swapped = (sa > sb) & (src != own)
    rep = np.flatnonzero(src == own)
    tri = np.stack([u[ia[rep], ib[rep]], t1[ia[rep], ib[rep]], t2[ia[rep], ib[rep]]])
    head = params.split_head
    p_fold = float(params.p) if float(params.p) <= np.pi else 2 * np.pi - float(params.p)
    key = (tri.tobytes(), round(p_fold, 12), head)
    static = _STATIC_CACHE.get(key)
    if static is None:
        static = split_static(*tri, p_fold, head)
        if len(_STATIC_CACHE) >= _STATIC_CACHE_MAX:
            _STATIC_CACHE.pop(next(iter(_STATIC_CACHE)))
        _STATIC_CACHE[key] = static
    parts = np.stack(ge_split(*tri, params.p, float(np.real(params.lam)), head, static=static))
    upper = np.empty((2, len(ia)), dtype=complex)
    upper[:, rep] = parts
    upper = upper[:, src]
    upper[:, swapped] = np.conj(upper[:, swapped])
    full = np.empty((2, n, n), dtype=complex)
    full[:, ia, ib] = upper
    full[:, ib, ia] = np.conj(upper)
    return full[0], full[1]


def eval_Ge_uvt(u, dx2, t2, params: KernelParams, check: bool = True) -> np.ndarray:
    """Router on reduced coordinates u = x1-y1, dx2 = x2-y2, t2 = x2+y2."""
    if check:
        params.check_guard()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    dx2 = np.atleast_1d(np.asarray(dx2, dtype=float))
    t2 = np.atleast_1d(np.asarray(t2, dtype=float))
    shift = np.round(u)
    ur = u - shift
    phase = np.exp(1j * params.p * shift)

    r_img = np.hypot(ur, dx2)
    if np.any(r_img < 1e-13):
        raise DomainError("coincident source and target (or periodic image)")

    out = np.empty(len(ur), dtype=complex)
    far = np.abs(ur) >= _AXIAL_SWITCH
    if np.any(far):
        out[far] = ge_nsum(ur[far], dx2[far], t2[far], params.p, params.lam)
    near = ~far
    if np.any(near):
        val, _ = ge_split(ur[near], np.abs(dx2[near]), t2[near],
                          params.p, params.lam, params.split_head)
        out[near] = val
    return phase * out


def kernel_block(xs, ys, params: KernelParams) -> np.ndarray:
    """Kernel matrix G(xs_i, ys_j), (K, M); the caller checks the guard.

    When both sets are invariant under the mid-height mirror x2 -> 1/2 - x2
    (geometry.mirror_map: xs[rx], ys[ry] are the images), the kernel obeys
    G(xs[rx_i], ys_j) = G(xs_i, ys[ry_j]), so only the rows on or below
    the centerline are evaluated and each row above it is its image's row
    with the columns permuted by ry.  Other sets take every row.
    """
    xs, ys = _as_points(xs), _as_points(ys)
    rx = mirror_map(xs)
    ry = None if rx is None else mirror_map(ys)
    if ry is None:
        return _kernel_rows(xs, ys, params)
    above = xs[:, 1] > CENTER_HEIGHT
    filled = above & ~above[rx]
    out = np.empty((len(xs), len(ys)), dtype=complex)
    out[~filled] = _kernel_rows(xs[~filled], ys, params)
    out[filled] = out[rx[filled]][:, ry]
    return out


def _kernel_rows(xs, ys, params: KernelParams) -> np.ndarray:
    """kernel_block on every row.

    A target row whose offsets x1 - y1 all lie in one floor, at least
    _AXIAL_SWITCH from both of its ends, is separated.  Separated rows are
    grouped by floor and evaluated in the separable transverse-modal form
    (module docstring), one pair of thin products per group; every other
    row goes pair by pair through eval_Ge_uvt.
    """
    lo, hi = xs[:, 0] - ys[:, 0].max(), xs[:, 0] - ys[:, 0].min()
    floors = np.floor(lo)
    sep = (lo - floors >= _AXIAL_SWITCH) & (floors + 1.0 - hi >= _AXIAL_SWITCH)
    out = np.empty((len(xs), len(ys)), dtype=complex)
    rest = xs[~sep]
    if len(rest):
        out[~sep] = eval_Ge_uvt(np.subtract.outer(rest[:, 0], ys[:, 0]).ravel(),
                                np.subtract.outer(rest[:, 1], ys[:, 1]).ravel(),
                                np.add.outer(rest[:, 1], ys[:, 1]).ravel(),
                                params, check=False).reshape(len(rest), len(ys))
    for f in np.unique(floors[sep]):
        rows = sep & (floors == f)
        x1, x2 = xs[rows, 0], xs[rows, 1]
        y1, y2 = ys[:, 0] + f, ys[:, 1]
        k, a, b = _transverse_modes(params.p, params.lam,
                                    min(x1.min() - y1.max(), y1.min() + 1.0 - x1.max()))
        c1, c2 = 0.5 * (x1.min() + y1.max()), 0.5 * (x1.max() + y1.min() + 1.0)
        n2pi = 2 * np.pi * np.arange(len(k))
        cx, cy = np.cos(np.multiply.outer(x2, n2pi)), np.cos(np.multiply.outer(y2, n2pi))

        def axial(d):
            return np.exp(1j * np.multiply.outer(d, k))

        out[rows] = 2 * np.exp(1j * params.p * f) * (
            (cx * axial(x1 - c1) * a) @ (cy * axial(c1 - y1)).T
            + (cx * axial(c2 - x1) * b) @ (cy * axial(y1 + 1.0 - c2)).T)
    return out


def eval_Ge_many(x: np.ndarray, y: np.ndarray, params: KernelParams) -> np.ndarray:
    """Vectorized kernel evaluation for arrays of point pairs (K, 2)."""
    x = _as_points(x)
    y = _as_points(y)
    if x.shape != y.shape:
        raise DomainError("point arrays must have matching shapes")
    return eval_Ge_uvt(
        x[:, 0] - y[:, 0], x[:, 1] - y[:, 1], x[:, 1] + y[:, 1], params
    )


def eval_Ge(x, y, params: KernelParams) -> complex:
    """Quasi-periodic Green's function at a single point pair."""
    return complex(eval_Ge_many(_as_points(x), _as_points(y), params)[0])
