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
  x1 - y1 in [f + _THIN_MARGIN, f + 1 - _THIN_MARGIN], the sum is
  separable (kernel_blocks): _THIN_MARGIN is the margin at which the
  800-mode cap of _transverse_modes still brings the last mode to e^{-36},
  the decay every mode count is chosen for.  With
  cos 2 pi n (x2-y2) + cos 2 pi n (x2+y2)
  = 2 cos 2 pi n x2 cos 2 pi n y2 and the sources shifted by f
  (y1' = y1 + f, Floquet phase e^{ipf}), each axial factor splits at a
  reference point, e^{ik(x1-y1')} = e^{ik(x1-c1)} e^{ik(c1-y1')} with c1
  between the shifted sources and the targets, and e^{ik(1-x1+y1')} =
  e^{ik(c2-x1)} e^{ik(y1'+1-c2)} with c2 between the targets and the
  sources' next image.  Every exponent is i k times a nonnegative length
  and Im k_n >= 0, so no factor exceeds modulus 1 for evanescent,
  propagating and complex-lam modes alike, and no term is formed by
  cancellation.  A block of K targets and M sources is then two
  (K x n) @ (n x M) products over n modes instead of K M mode sums.  Only
  A_n, B_n and the phase e^{ipf} depend on p: the source factors are
  shared by every momentum at one lam, and the blocks of P momenta are two
  (P K x n) @ (n x M) products;

* near-diagonal split: the msum with the large-|m| asymptotics of its
  three near images subtracted term by term and restored in closed form.
  The images sit at a = |x2-y2| (the axis), x2+y2 (the bottom wall) and
  1-(x2+y2) (the top wall).  Each term e^{i p_m u - s_m a}/(2 s_m) is
  expanded to fifth order in 1/|m|; with z = e^{2 pi (iu - a)} the five
  orders sum to -log(1 - z), Li_2(z), ..., Li_5(z).  This isolates the
  local singularity (1/2pi) log|x - y| analytically and leaves a smooth
  remainder that stays accurate down to coincident points.  Over the
  window the asymptotic terms are power sums from one doubling table per
  image, and their lam-dependence is a quartic polynomial whose
  coefficients are computed once per geometry and momentum
  (_SplitPlan.static).  The truncation remainder is O(1/m_head^5), and
  O(1/m_head^6) on the diagonal, where the orders odd in p cancel between
  m and -m.  At the default head of 48 modes (_SPLIT_HEAD_MIN) it is at
  most 9.6e-11 on the N = 64 default disk's self block at lam = 52.63
  (p = pi), against 1.3e-8 for three orders at 96 modes; 48 is the
  smallest head tried (24 to 48) at which every output of the benchmark
  configs lies closer to a 4096-mode reference than with three orders at
  96 modes, alpha* (the kink at p = pi, ge_split) setting it.

The nsum goes in blocks of at most 64 consecutive modes, with real
exponentials for evanescent modes (imaginary k_n), a cosine table built
once per call by doubling and products with the per-mode weights.  The
split route's head, the msum over its window, is separable: with x> and
y< the larger and the smaller of x2, y2, a mode's four images sum to

    (e^{-s x>} + e^{-s(1-x>)}) (e^{s y<} + e^{-s y<})
      = 4 e^{-s/2} cosh(s (1/2 - x>)) cosh(s y<),

so F_m(|x2-y2|) + F_m(x2+y2) = cosh(s y<) cosh(s (1/2 - x>)) / (s sinh(s/2)),
the transverse Neumann Green's function, and with e^{i p_m u} =
e^{i p_m (x1-c1)} e^{-i p_m (y1-c1)} a mode is one rank-one term
c_m T(x>) S(y<), c_m = 1 / (2 s (1 - e^{-s})), per orientation of a pair:
a block of targets and sources is one matrix product over the modes per
orientation (_SplitPlan.head).

The strip is symmetric under the mid-height mirror x2 -> 1/2 - x2, and so
is the kernel: mirroring both points leaves u and |x2-y2| unchanged and
maps x2+y2 to 1-(x2+y2), and the series above depends on x2+y2 only
through cos 2 pi n (x2+y2).  Every structure of the package is mirror
invariant (obstacles on the centerline, r(theta) even in theta), so the
two block evaluators take one half of each block when their point sets
are (geometry.mirror_map): _split_symmetric one pair per orbit of
{mirror, argument swap, reflection} (below), and kernel_blocks the target
rows on or below the centerline.

The kernel is also symmetric under the reflection R(x) = (2a - x1, x2)
about any vertical line: at real lam and real p,

    G(Rx, Ry; p) = G(x, y; -p) = G(x, y; 2 pi - p) = conj G(x, y; p),

since R maps u to -u, and e^{i p_m (-u)} is the conjugate of e^{i p_m u}
with a real F_m (and, in the split route, z and e^{p (iu -+ a)} go to
their conjugates too, so the truncated evaluators keep the identity to
rounding).  Each obstacle is symmetric about its center (r(theta) =
r(pi - theta), geometry.reflect_indices) and the cell pair about
x1 = 1/2 (geometry.reflect_map), so three blocks are the conjugate,
permuted image of one already evaluated: _split_symmetric's orbits take
the reflection as a conjugating generator, layerops.assemble_T's second
off-diagonal block is the first one reflected about the obstacle center,
and layerops.field_from_density's second obstacle block is the first one
reflected about x1 = 1/2 on target sets invariant under it.  A set fixed
pointwise by its reflection (a vertical line) gains nothing and keeps its
orbits.

The split route is a plan, built once per point set, and an execution per
lam that takes every momentum of the call.  A plan (_SplitPlan) holds
log r, the head's point sets, phase tables and product layouts, and a
static core per image: with z = e^{2 pi (iu - a)}, the power sums
sum z^k / k^j, Li_s(z) and log(1 - z) depend on (u, a) alone, and p
enters only through e^{p (iu -+ a)}, the shift (-q)^{j-n}, q = +-p, and
which rows are live, so the static parts of all momenta are one cheap
recombination of the core.  Point sets evaluated again keep their plans
in one bounded cache (_planned); a one-shot set's plan serves its call.

Poles of the kernel sit at lam = p_m^2 + (2 n pi)^2 (the empty-guide
dispersion); evaluations are refused when lam comes closer than
SING_GUARD to that set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, KernelError
from .geometry import CENTER_HEIGHT, mirror_map, reflect_map

LOG_COEFF = 1.0 / (2.0 * np.pi)
# |x1-y1| threshold between eval_Ge_uvts' nsum and split routes; kernel_blocks
# groups the separated rows closer than it to an integer offset apart
_AXIAL_SWITCH = 0.05
_MODE_DECAY = 36.0        # a transverse-modal sum ends on a mode below e^{-36} ...
_MODES_MIN, _MODES_MAX = 48, 800  # ... in 48 to 800 modes (_transverse_modes)
# the axial margin from Z at which the mode cap still reaches e^{-_MODE_DECAY};
# rows closer to an integer offset stay pair by pair (kernel_blocks)
_THIN_MARGIN = _MODE_DECAY / (2 * np.pi * _MODES_MAX)
_SPLIT_HEAD_MIN = 48      # minimum msum head retained by the split route
SING_GUARD = 1e-6         # closest approach of lam to a dispersion sheet
_MODE_BLOCK = 64          # modes per blocked exponential sum
_HEAD_BLOCK = 2 * _MODE_BLOCK  # modes per split-head product: the default window in one
_FACTOR_EXP = 128.0       # split-head factors stay within e^{+-_FACTOR_EXP}
_DECAY_CUT = 100.0        # split tail terms below e^{-_DECAY_CUT} are dropped
_ORDERS = 5               # orders in 1/|m| of the split route's image tails
# (1 - lam / P^2)^{-1/2} e^{a (P - s)} = sum_n g_n / P^n with s = sqrt(P^2 - lam), so
# e^{-s a} / (2 s) = e^{-P a} / (2 P) sum_n g_n / P^n; to n < _ORDERS,
# g_n(lam, a) = sum_i _BRACKET[n][i] lam^i a^(2i - n)
_BRACKET = ({0: 1.0}, {1: 1 / 2}, {1: 1 / 2, 2: 1 / 8}, {2: 3 / 8, 3: 1 / 48},
            {2: 3 / 8, 3: 1 / 8, 4: 1 / 384})


@dataclass(frozen=True)
class KernelParams:
    """Truncation of the kernel's mode window; the momenta and lambda of an
    evaluation are arguments of each call."""

    m_trunc: int = 48

    def __post_init__(self):
        if self.m_trunc < 8:
            raise KernelError(f"m_trunc must be >= 8, got {self.m_trunc}")

    @property
    def split_head(self) -> int:
        """msum head of the near-diagonal split route (ge_split's m_head)."""
        return max(self.m_trunc, _SPLIT_HEAD_MIN)

    def sheets(self, p, lam) -> tuple[np.ndarray, np.ndarray]:
        """Empty-guide dispersion sheets p_m^2 + (2 n pi)^2, n >= 0, near lam.

        Covers the truncation window |m| <= m_trunc and every n up to two
        past sqrt(lam) / 2 pi.  Returns flat (m, energy) arrays, one entry
        per sheet (coinciding sheets are listed separately); an array of
        momenta ``p`` adds a leading axis to the energies, one row each.
        """
        m = np.arange(-self.m_trunc, self.m_trunc + 1)
        pm2 = (np.asarray(p, dtype=float)[..., None] + 2 * np.pi * m) ** 2
        n_max = int(np.sqrt(max(float(np.real(lam)), 0.0)) / (2 * np.pi)) + 2
        tn2 = (2 * np.pi * np.arange(n_max + 1)) ** 2
        energy = pm2[..., :, None] + tn2
        return np.repeat(m, len(tn2)), energy.reshape(*energy.shape[:-2], -1)

    def guard_margins(self, p, lam):
        """min |lam - p_m^2 - (2 n pi)^2| over the truncation window, per momentum."""
        _, energy = self.sheets(p, lam)
        return np.min(np.abs(lam - energy), axis=-1)

    def sheets_below(self, p, lam, branch: int | None = None):
        """Number of sheets below lam, with multiplicity, per momentum.

        A half-cell branch (+1 / -1, see layerops.assemble_half) sees only
        the sheets of even / odd m: the half-period translation acts on
        e^{i p_m x1} by the sign (-1)^m.
        """
        m, energy = self.sheets(p, lam)
        below = energy < np.real(lam)
        if branch is not None:
            below &= m % 2 == (0 if branch == 1 else 1)
        counts = np.sum(below, axis=-1)
        return counts if np.ndim(p) else int(counts)

    def check_guard(self, p, lam) -> None:
        """KernelError if lam lies closer than SING_GUARD to a sheet at any momentum."""
        margins = np.atleast_1d(self.guard_margins(p, lam))
        worst = int(np.argmin(margins))
        if margins[worst] < SING_GUARD:
            raise KernelError(
                f"lambda={lam} within {margins[worst]:.3e} of an empty-guide dispersion "
                f"sheet at p={np.atleast_1d(p)[worst]:.6g} (guard {SING_GUARD:.1e})"
            )


def _as_points(x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != 2:
        raise DomainError("points must be 2D")
    return pts


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


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix a and a complex C-contiguous b."""
    return (a @ b.view(float)).view(complex)


def _phase_table(x: np.ndarray, width: int) -> np.ndarray:
    """E[k, i] = e^{2 pi i k x_i} for k < width."""
    return _power_table(np.exp(2j * np.pi * x), width)


def _mode_blocks(real: np.ndarray) -> list[slice]:
    """Slices of consecutive mode positions that never mix modes whose
    exponent is real (``real``) with complex ones, cut at the multiples of
    _MODE_BLOCK."""
    cuts = {0, len(real), *range(_MODE_BLOCK, len(real), _MODE_BLOCK)}
    cuts = sorted(cuts.union((np.flatnonzero(np.diff(real)) + 1).tolist()))
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _transverse_modes(p, lam, dmin: float, count: int | None = None):
    """Modes n = 0..count of the transverse-modal sum.

    Returns k_n = sqrt(lam - (2 n pi)^2) with Im k_n >= 0 and the weights
    w_n A_n, w_n B_n of h_n(u) = A_n e^{i k_n u} + B_n e^{i k_n (1-u)},

        A_n = 1 / (2 i k_n (1 - e^{i(k_n - p)})),
        B_n = e^{ip} / (2 i k_n (1 - e^{i(k_n + p)})),

    with w_0 = 1 and w_n = 2 pairing +-n; for an array of momenta ``p`` the
    weights have one row per momentum.  Without ``count`` the mode count
    follows the smallest axial distance ``dmin`` of the pairs to the
    integers: the last mode is below e^{-_MODE_DECAY}, within _MODES_MIN to
    _MODES_MAX modes.
    """
    if count is None:
        count = int(np.clip(np.ceil(_MODE_DECAY / (2 * np.pi * max(dmin, 1e-3))),
                            _MODES_MIN, _MODES_MAX))
    n = np.arange(count + 1)
    k = np.sqrt(lam - (2 * np.pi * n) ** 2 + 0j)
    k = np.where(k.imag < 0, -k, k)
    weight = np.where(n == 0, 1.0, 2.0)
    p = np.asarray(p, dtype=float)[..., None]
    return (k, weight / (2j * k * (1.0 - np.exp(1j * (k - p)))),
            weight * np.exp(1j * p) / (2j * k * (1.0 - np.exp(1j * (k + p)))))


def ge_nsum(u, dx2, t2, p, lam, n_max: int | None = None) -> np.ndarray:
    """Transverse-modal sum; exponentially accurate for x1-y1 off the integers.

    ``dx2`` is x2-y2 (signed; only cosines of it appear), ``t2`` is x2+y2.
    The axial offset is reduced to [0, 1) with the Floquet phase.  The modal
    index n runs over Z; pairing +-n leaves both image families with weight
    2 cos(2 pi n .) for n >= 1 and the plain (1 + 1) h_0 at n = 0.  Without
    ``n_max`` the mode count follows the axial separation of each bucket
    (_transverse_modes).  An array of momenta ``p`` adds a leading axis:
    k_n, the exponentials and the cosines are p-free, and only the weights
    A_n, B_n (products with one column per momentum) and the phase change.

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
    p = np.asarray(p, dtype=float)
    ps = np.atleast_1d(p)
    shift = np.floor(u)
    ur = u - shift
    phase = np.exp(1j * np.multiply.outer(ps, shift))

    d1 = np.maximum(np.minimum(ur, 1.0 - ur), 1e-3)

    def modal(sel, dmin, count=None):
        k, wa, wb = _transverse_modes(ps, lam, dmin, count)
        us, ds, ts = ur[sel], dx2[sel], t2[sel]
        width = min(_MODE_BLOCK, len(k))
        tab1, tab2 = _phase_table(ds, width), _phase_table(ts, width)
        total = np.zeros((len(ps), len(us)), dtype=complex)
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
                total += ((np.exp(1j * np.multiply.outer(us, kb)) * cosines.T) @ wa[:, blk].T
                          + (np.exp(1j * np.multiply.outer(1.0 - us, kb)) * cosines.T)
                          @ wb[:, blk].T).T
                continue
            kappa = kb.imag[:, None]
            part = (np.vstack([wa[:, blk].real, wa[:, blk].imag]) @ (np.exp(-kappa * us) * cosines)
                    + np.vstack([wb[:, blk].real, wb[:, blk].imag])
                    @ (np.exp(-kappa * (1.0 - us)) * cosines))
            total += part[:len(ps)] + 1j * part[len(ps):]
        return total

    out = np.empty((len(ps), len(ur)), dtype=complex)
    if n_max is not None:
        out = modal(np.ones_like(ur, dtype=bool), 0.0, n_max)
        return (phase * out).reshape(p.shape + shape)
    # mode count scales with the inverse axial separation: bucket the batch
    # so nearby pairs do not inflate the cost of well-separated ones
    edges = [0.05, 0.12, 0.3, 1.0]
    lo = 0.0
    for hi in edges:
        sel = (d1 > lo) & (d1 <= hi)
        if np.any(sel):
            out[:, sel] = modal(sel, float(np.min(d1[sel])))
        lo = hi
    return (phase * out).reshape(p.shape + shape)


def ge_split(u, t1, t2, p, lam, m_head: int, plan: _SplitPlan | None = None):
    """Near-diagonal evaluation: returns (value, smooth) arrays with

        value  = smooth + LOG_COEFF * log r,   r = sqrt(u^2 + t1^2).

    Valid for |u| < 1/2 and transverse coordinates inside the strip; the
    smooth part stays finite and accurate down to r -> 0.  Three images are
    subtracted to fifth order in 1/|m| (_SplitPlan.static), leaving
    O(1/m_head^5): 1.7e-10 on pairs 0.004 from either wall's image at the
    default head (p = pi).  Both families are summed over the one m_head
    window as per-mode rank-one products (_SplitPlan.head); KernelError,
    naming the momentum, for a lam at which a mode past the window
    propagates.  ``plan`` (_SplitPlan of these pairs at m_head, best built
    on their point sets) carries the lam- and p-free work; without it one
    is built on the bare pairs.  An array of momenta ``p`` adds a leading
    axis, a batch axis of every product.

    Momenta beyond pi are folded through the exact conjugation identity
    G(2 pi - p) = conj(G(p)) (real lam): the 1/m-weighted image tails are
    not exactly mirror-equivariant on their own, and the fold keeps every
    kernel symmetry identity exact at the evaluator level.  The truncation
    remainder is not real at p = pi, where G is, so the fold leaves a kink
    of its size at pi: a central difference of step h across pi is off by
    about the remainder / h (dirac.compute_coefficients' dp derivatives).
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    fold = (ps > np.pi) & (np.imag(lam) == 0)
    p_eff = np.where(fold, 2 * np.pi - ps, ps)
    plan = plan or _SplitPlan(u, t1, t2, m_head)
    # the closed tail past the window is right only for evanescent modes
    edge = np.minimum(np.abs(p_eff + 2 * np.pi * (m_head + 1)),
                      np.abs(p_eff - 2 * np.pi * (m_head + 2)))
    worst = int(np.argmin(edge))
    if edge[worst] ** 2 < np.real(lam):
        raise KernelError(f"lambda={lam} propagates modes up to |p_m| = "
                          f"{np.sqrt(np.real(lam)):.1f}, past the split window "
                          f"|p_m| < {edge[worst]:.1f} at p={ps[worst]:.6g}")
    smooth = (lam ** np.arange(_ORDERS) @ plan.static(p_eff)) - plan.head(p_eff, lam)
    np.conjugate(smooth, out=smooth, where=fold[:, None])
    shape = np.shape(p) + plan.shape
    return (smooth + LOG_COEFF * plan.logr).reshape(shape), smooth.reshape(shape)


def _power_sums(mu: np.ndarray, count: int) -> np.ndarray:
    """S[j - 1, i] = sum_{k=1}^{count} e^{k mu_i} / k^j for j = 1.._ORDERS.

    One power table of _MODE_BLOCK rows serves every block of consecutive
    k: a block is the real (_ORDERS x width) weights 1/k^j times the table
    (on its interleaved real and imaginary parts), scaled by e^{(base + 1) mu}.
    """
    g = np.exp(mu)
    width = min(_MODE_BLOCK, count)
    table = _power_table(g, width)
    step = table[width - 1] * g  # e^{width mu}
    scale = g                    # e^{(base + 1) mu}
    total = np.zeros((_ORDERS, len(mu)), dtype=complex)
    for base in range(0, count, width):
        k = np.arange(base + 1, min(base + width, count) + 1, dtype=float)
        weights = 1.0 / k ** np.arange(1, _ORDERS + 1)[:, None]
        total += _real_times(weights, table[:len(k)]) * scale
        scale = scale * step
    return total


_LOG_SERIES_TERMS = 24
_ORDER = np.arange(2, _ORDERS + 1)[:, None]  # the polylog orders s, one row each


def _log_series_coefs() -> np.ndarray:
    """C[s - 2, j - 1] = zeta(1 - 2j) / (s + 2j - 1)!, j = 1.._LOG_SERIES_TERMS,
    by the functional equation zeta(1 - 2j) = (-1)^j 2 (2j - 1)! zeta(2j) / (2 pi)^{2j}."""
    j = np.arange(1, _LOG_SERIES_TERMS + 1)
    rising = np.array([np.prod([2 * j + i for i in range(1, s)], axis=0) for s in _ORDER[:, 0]])
    return (-1.0) ** j * special.zeta(2.0 * j) / (j * (2 * np.pi) ** (2 * j) * rising)


def _log_head_coefs() -> np.ndarray:
    """Row s - 2, column k <= s: the coefficient of mu^k in the log-series of
    Li_s, zeta(s - k) / k!, but H_{s-1} / (s-1)! at k = s - 1 (its log(-mu)
    part apart) and zeta(0) / s! = -1 / (2 s!) at k = s."""
    head = np.zeros((_ORDERS - 1, _ORDERS + 1))
    for row, s in enumerate(_ORDER[:, 0]):
        k = np.arange(s - 1)
        head[row, k] = special.zeta(s - k) / special.factorial(k)
        head[row, s - 1] = np.sum(1.0 / np.arange(1, s)) / special.factorial(s - 1)
        head[row, s] = -0.5 / special.factorial(s)
    return head


_LOG_SERIES, _LOG_HEAD = _log_series_coefs(), _log_head_coefs()
_LOG_TERM = 1.0 / special.factorial(_ORDER - 1)  # of the mu^{s-1} log(-mu) term


def _binomial_tables() -> tuple[np.ndarray, np.ndarray]:
    """C(j, n) and max(j - n, 0) over n (rows) and j (columns); C is 0 for j < n."""
    n, j = np.ogrid[:_ORDERS, :_ORDERS]
    return special.comb(j, n), np.maximum(j - n, 0)


_BINOMIAL, _SHIFT_POWER = _binomial_tables()


def _polylogs(mu: np.ndarray) -> np.ndarray:
    """Li_s(e^mu) for s = 2.._ORDERS (one row each) and Re mu <= 0.

    For Re mu >= -pi/2 (Im mu reduced to [-pi, pi)) the log-series about
    e^mu = 1,

        Li_s(e^mu) = mu^{s-1} (H_{s-1} - log(-mu)) / (s-1)!
                     + sum_{k != s-1} zeta(s - k) mu^k / k!,

    whose terms past k = s vanish for even s - k and fall like
    (|mu| / 2 pi)^k <= 0.56^k; elsewhere |e^mu| < e^{-pi/2} and the power
    series sum_k e^{k mu} / k^s converges as fast.  Each is one real
    coefficient matrix times a power table shared by every order.
    """
    mu = mu.real + 1j * (np.mod(mu.imag + np.pi, 2 * np.pi) - np.pi)
    out = np.empty((_ORDERS - 1, len(mu)), dtype=complex)
    far = mu.real < -np.pi / 2
    if np.any(far):
        k = np.arange(1, _LOG_SERIES_TERMS + 1)
        powers = _power_table(np.exp(mu[far]), _LOG_SERIES_TERMS + 1)[1:]  # e^{k mu}
        out[:, far] = _real_times(1.0 / k ** _ORDER, powers)
    m = mu[~far]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = np.where(m == 0, 0.0, np.log(np.where(m == 0, 1.0, -m)))
    powers = _power_table(m, _ORDERS + 2)  # mu^0 .. mu^{_ORDERS + 1}
    # the k = s + 2j - 1 terms: mu^{s+1} times a polynomial in mu^2
    series = _real_times(_LOG_SERIES, _power_table(m * m, _LOG_SERIES_TERMS))
    out[:, ~far] = (_real_times(_LOG_HEAD, powers[:_ORDERS + 1])
                    - log_m * powers[1:_ORDERS] * _LOG_TERM
                    + powers[3:] * series)
    return out


def _tail_core(u: np.ndarray, a: np.ndarray, count: int, axis: bool, reach: float):
    """The momentum-free part of one image family's tails: window sums
    minus full sums of its asymptotic terms (_SplitPlan.static).

    The family is sum_m e^{i p_m u} e^{-s_m a} / (2 s_m).  With P = |p_m|,
    e^{-s_m a} / (2 s_m) = e^{-P a} / (2 P) sum_n g_n / P^n, where
    g_n(lam, a) are the _BRACKET polynomials (g_0 = 1, g_1 = lam a/2,
    g_2 = lam/2 + (lam a)^2/8, ...).  With k = |m|, q = sign(m) p and
    x = 1 / (2 pi k), P = (1 + q x) / x, and 1 / P^{n+1} re-expanded in x
    gives

        e^{i p_m u - s_m a} / (2 s_m) = e^{i p_m u - P a} / (4 pi k)
            [sum_{j < _ORDERS} x^j sum_{n <= j} C(j, n) (-q)^{j-n} g_n + O(x^_ORDERS)]
          = e^{i p_m u - P a} / (4 pi k)
            [1 + x (lam a/2 - q) + x^2 (q^2 - q lam a + (lam a)^2/8 + lam/2) + ...],

    where e^{i p_m u - |p_m| a} is e^{p (iu - a)} z^k for m > 0 and
    e^{p (iu + a)} conj(z)^k for m < 0, z = e^{2 pi (iu - a)}.  Over all m
    the orders x^0 .. x^4 sum to -log(1 - z), Li_2(z), ..., Li_5(z); over
    the msum window m = 1..count, -1..-(count+1) they are power sums
    (_power_sums), the m < 0 ones conjugate to the m > 0 ones.  These
    depend on (u, a) alone (p: _SplitPlan.static).

    Returns (rows, u, a, d) on the ``rows`` live at every |p| <= ``reach``
    (the others have every tail term below e^{-_DECAY_CUT}): d = (d+, d-),
    d+[j] = (window - full sum of z^k / k^{j+1}) / (2 pi)^j, d- for m < 0.
    For the ``axis`` image, log(1 - z) at z = 1 takes its r -> 0 limit with
    log r removed, log 2 pi (_SplitPlan subtracts LOG_COEFF log r).
    """
    rows = np.flatnonzero(a * (2 * np.pi * (count + 1) - reach) < _DECAY_CUT)
    u, a = u[rows], a[rows]
    mu = 2 * np.pi * (1j * u - a)
    sums = _power_sums(mu, count)
    # m -> -m is conjugation, one mode further out
    sums_m = (np.conj(sums) + np.exp((count + 1) * np.conj(mu))
              / (count + 1.0) ** np.arange(1, _ORDERS + 1)[:, None])
    with np.errstate(divide="ignore"):
        log1 = np.log(-np.expm1(mu))
    if axis:
        log1[mu == 0] = np.log(2 * np.pi)
    full = np.vstack([-log1, _polylogs(mu)])
    scale = (2 * np.pi) ** -np.arange(_ORDERS)[:, None]
    return rows, u, a, ((sums - full) * scale, (sums_m - np.conj(full)) * scale)


class _SplitPlan:
    """ge_split's lam-independent work on the pairs (u, t1, t2) at one head: log r,
    the head's point sets and layouts, the tail cores of the three images (|x2-y2|,
    x2+y2, 1-(x2+y2)) over the one m_head window, and the statics.  The pairs are
    (xs[i], ys[j]) of ``block`` = (xs, ys, i, j), x1 - y1 = u up to an integer; bare
    pairs take the targets (u, x>) and the distinct sources (0, y<)."""

    def __init__(self, u, t1, t2, m_head: int, block=None):
        self.shape = np.broadcast(u, t1, t2).shape
        u, t1, t2 = (np.broadcast_to(np.asarray(x, dtype=float), self.shape).ravel()
                     for x in (u, t1, t2))
        r = np.hypot(u, t1)
        with np.errstate(divide="ignore"):
            self.logr = np.where(r > 0, np.log(r), 0.0)
        self.m_head = m_head
        self.images = ((u, t1, True), (u, t2, False), (u, 1.0 - t2, False))
        if block is None:
            low, j = np.unique(0.5 * (t2 - t1), return_inverse=True)
            block = (np.column_stack([u, 0.5 * (t2 + t1)]), np.column_stack([0.0 * low, low]),
                     np.arange(len(u)), j)
        xs, self.ys, self.i, self.j = block
        # targets moved by whole periods next to the sources keep the phases short
        laps = np.rint(xs[:, 0] - 0.5 * (self.ys[:, 0].min() + self.ys[:, 0].max()))
        self.xs = xs - np.outer(laps, [1.0, 0.0]) if laps.any() else xs
        self.turns = np.rint(self.xs[self.i, 0] - self.ys[self.j, 0] - u)
        both = np.concatenate([self.xs, self.ys])
        self.span = (both[:, 1].min(), both[:, 1].max())
        # per point set x1 - c1 and e^{2 pi i k (x1 - c1)}, |k| <= _HEAD_BLOCK / 2, each exponent
        # direct (a table by products drifts like k eps: 10x the head's rounding)
        k, c1 = np.arange(_HEAD_BLOCK) - _HEAD_BLOCK // 2, both[:, 0].mean()
        self.phases = [(d, np.exp(2j * np.pi * np.multiply.outer(d, k)))
                       for d in {id(v): v[:, 0] - c1 for v in (self.xs, self.ys)}.values()]
        self.layouts, self.cores, self.reach, self.statics = {}, None, 0.0, {}

    def _layout(self, depth: int):
        """The head's products on the x2 span halved ``depth`` times, and each pair's
        place in their results.  A product is (targets, sources, rows (a, b) of e^{-s a}
        + e^{-s b} per orientation k: the targets' T (k = 0) or S, the sources' S or T)."""
        x2, y2 = self.xs[:, 1], self.ys[:, 1]
        todo = [(np.arange(len(x2)), np.arange(len(y2)), *self.span, depth)]
        products, where, size = [], np.empty((len(x2), len(y2)), dtype=int), 0
        while todo:
            ix, iy, lo, hi, d = todo.pop()
            c = 0.5 * (lo + hi)
            parts = [(ix, iy, (0, 1))]
            if d > 0:  # the pairs across c, one orientation each
                up_x, up_y = x2[ix] >= c, y2[iy] >= c
                parts = [(ix[up_x], iy[~up_y], (0,)), (ix[~up_x], iy[up_y], (1,))]
                todo += [(ix[~up_x], iy[~up_y], lo, c, d - 1), (ix[up_x], iy[up_y], c, hi, d - 1)]
            for jx, jy, kinds in (part for part in parts if len(part[0]) * len(part[1])):
                cnt = len(jx) * len(jy)
                lower = (x2[jx][:, None] < y2[jy]) * (len(kinds) - 1)  # orientation 1
                where[np.ix_(jx, jy)] = size + np.arange(cnt).reshape(lower.shape) + cnt * lower
                size += len(kinds) * cnt
                sides = ((x2[jx], kinds), (y2[jy], [1 - k for k in kinds]))
                rows = [np.stack([np.stack([x - c, 1 - c - x] if k == 0 else [c - x, c + x], 1)
                                  for k in ks]) for x, ks in sides]
                same = self.ys is self.xs and np.array_equal(jx, jy)  # kinds (0, 1), rows reversed
                whole = [j if len(j) < len(z) else slice(None) for j, z in ((jx, x2), (jy, y2))]
                products.append((*whole, rows[0], None if same else rows[1]))
        return products, where[self.i, self.j]

    def head(self, p: np.ndarray, lam) -> np.ndarray:
        """Both families' msum over m in [-m_head-1, m_head] (p -> 2 pi - p maps m to
        -m - 1, so the conjugation identities hold exactly) at the momenta p, (P, pairs):
        (P, K, w) @ (P, w, J) per slice of w <= _HEAD_BLOCK modes about a base mode b (0 at
        the default head), phases e^{i (p + 2 pi b) d} e^{2 pi i (m - b) d}.  Orientation 0
        (x2 >= y2) takes T(x2) S(y2), 1 S(x2) T(y2): T(x) = e^{-s (x-c)} + e^{-s (1-c-x)},
        S(y) = e^{s (y-c)} + e^{-s (y+c)}, at most 1 for x above the centre c and y below
        it; the x2 span is halved about such centres until the window's largest Re s keeps
        the rest within e^{+-_FACTOR_EXP}."""
        M, half = self.m_head, _HEAD_BLOCK // 2  # the window is m in [-M - 1, M]
        s_window = np.sqrt((p[:, None] + 2 * np.pi * np.arange(-M - 1, M + 1)) ** 2 - lam + 0j)
        reach = s_window.real.max() * (self.span[1] - self.span[0]) / (2 * _FACTOR_EXP)
        depth = int(np.ceil(np.log2(max(reach, 1))))
        products, pick = self.layouts[depth] = self.layouts.get(depth) or self._layout(depth)
        top, total = (M + half) // _HEAD_BLOCK * _HEAD_BLOCK, 0.0
        for base in range(-top, top + 1, _HEAD_BLOCK):
            lo, hi = max(base - half, -M - 1), min(base + half, M + 1)
            s = s_window[:, lo + M + 1:hi + M + 1]
            rate, cplx = np.ascontiguousarray(s.real), np.flatnonzero(np.any(s.imag != 0, axis=0))
            cplx = slice(cplx[0], cplx[-1] + 1) if len(cplx) else None  # a run of modes
            def factors(rows):
                # e^{-s a} + e^{-s b} from real exponentials, and on the modes with a
                # complex s at some momentum times e^{-i Im s .} (1 where s is real)
                e = np.multiply.outer(-rows, rate)
                f = np.exp(e, out=e).sum(2)
                return f, f if cplx is None else (e[..., cplx] * np.exp(
                    np.multiply.outer(-1j * rows, s.imag[:, cplx]))).sum(2)
            phases = [np.exp(1j * np.multiply.outer(d, p + 2 * np.pi * base))[:, :, None]
                      * table[:, None, lo - base + half:hi - base + half]
                      for d, table in self.phases]  # (points, momenta, modes)
            left, right, parts = phases[0] * (0.5 / (s * (1 - np.exp(-s)))), phases[-1].conj(), []
            for ix, iy, tx, sy in products:
                fx = factors(tx)
                fy = [f[::-1] for f in fx] if sy is None else factors(sy)
                for n in range(len(tx)):  # orientation n
                    lt, rs = left[ix] * fx[0][n], right[iy] * fy[0][n]
                    if cplx:
                        lt[..., cplx] = left[ix][..., cplx] * fx[1][n]
                        rs[..., cplx] = right[iy][..., cplx] * fy[1][n]
                    block = lt.transpose(1, 0, 2) @ rs.transpose(1, 2, 0)
                    parts.append(block.reshape(len(p), -1))
            total = total + np.concatenate(parts, axis=1)
        out = total[:, pick]
        if self.turns.any():  # the products see x1 - y1 = u + turns
            out *= np.exp(-1j * np.multiply.outer(p, self.turns))
        return out

    def static(self, p) -> np.ndarray:
        """The lam-free part of ge_split at p, kept per momentum: coef of
        shape (_ORDERS, pairs) with smooth(lam) = sum_i coef[i] lam^i minus
        both families' msum, coef the images' window sums minus full sums of
        their asymptotic terms, less LOG_COEFF log r.  gn[n] = sum_j C(j, n)
        (-q)^{j-n} d[j] is the weight of g_n.  An array of momenta adds a
        leading axis, the momenta not kept yet recombined in one pass.  The
        cores are rebuilt wider for |p| > 2 pi."""
        ps = np.atleast_1d(np.asarray(p, dtype=float)).tolist()
        keys = [round(q, 12) for q in ps]
        found = {key: self.statics[key] for key in keys if key in self.statics}
        new = {key: q for key, q in zip(keys[::-1], ps[::-1]) if key not in found}  # first momenta
        if new:
            q = np.array(list(new.values()))[:, None]
            if self.cores is None or np.max(np.abs(q)) > self.reach:
                self.reach = max(2 * np.pi, np.max(np.abs(q)))
                self.cores = [_tail_core(u, a, self.m_head, axis, self.reach)
                              for u, a, axis in self.images]
            coef = np.zeros((len(q), _ORDERS, len(self.logr)), dtype=complex)
            coef[:, 0] = -LOG_COEFF * self.logr
            for rows, u, a, d in self.cores:
                live = a * (2 * np.pi * (self.m_head + 1) - np.abs(q)) < _DECAY_CUT
                some = np.any(live, axis=0)  # each momentum keeps its own live rows
                u, a, live, gn = u[some], a[some], live[:, some], 0.0
                for dq, e, sq in ((d[0], np.exp(q * (1j * u - a)), q),
                                  (d[1], np.exp(q * (1j * u + a)), -q)):
                    shift = _BINOMIAL * (-sq[:, :, None]) ** _SHIFT_POWER
                    gn = gn + e[:, None] * _real_times(shift, np.ascontiguousarray(dq[:, some]))
                a_pow = a ** np.arange(_ORDERS)[:, None]
                tails = np.zeros((len(q), _ORDERS, len(u)), dtype=complex)
                for n, bracket in enumerate(_BRACKET):
                    for i, g in bracket.items():
                        tails[:, i] += g * a_pow[2 * i - n] * gn[:, n]
                coef[:, :, rows[some]] += np.where(live[:, None], tails, 0.0) / (4 * np.pi)
            found.update((key, _remember(self.statics, key, c)) for key, c in zip(new, coef))
        out = np.array([found[key] for key in keys])
        return out if np.ndim(p) else out[0]


_PLANS: dict = {}  # plans of the point sets evaluated again
_PLANS_MAX = 512  # entries of _PLANS, and statics of one plan


def _remember(cache: dict, key, value):
    """cache[key] = value, dropping the oldest entry past _PLANS_MAX."""
    if len(cache) >= _PLANS_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _planned(key, build):
    """The plan under ``key`` (its kind and every input), built on a miss."""
    return _PLANS[key] if key in _PLANS else _remember(_PLANS, key, build())


def _symmetric_plan(u, t1, t2, head: int):
    """_split_symmetric's orbits, and the _SplitPlan of their representatives."""
    n = len(u)
    ia, ib = np.triu_indices(n)
    own = np.arange(len(ia))
    tri_index = np.empty((n, n), dtype=int)
    tri_index[ia, ib] = own
    # the point maps of the group: the mirror, the reflection about the set's
    # x1 midpoint (conjugating) and both, each where the set is invariant
    pts = np.column_stack([u[:, 0], 0.5 * np.diagonal(t2)])
    mirror = mirror_map(pts)
    reflect = reflect_map(pts, 0.5 * (pts[:, 0].min() + pts[:, 0].max()))
    maps = [] if mirror is None else [(mirror, False)]
    if reflect is not None:
        maps += [(reflect, True)] + [(m[reflect], True) for m, _ in maps]
    # each triangle pair's source: the lowest of its images (sa, sb), swapped
    # back into the triangle when sa > sb, the first map to reach it winning;
    # conjugated when exactly one of the reflection and the swap back applies
    src, conj = own, np.zeros(len(ia), dtype=bool)
    for m, flip in maps:
        sa, sb = m[ia], m[ib]
        image = tri_index[np.minimum(sa, sb), np.maximum(sa, sb)]
        lower = image < src
        src = np.where(lower, image, src)
        conj = np.where(lower, flip ^ (sa > sb), conj)
    rep = np.flatnonzero(src == own)
    tri = np.stack([u[ia[rep], ib[rep]], t1[ia[rep], ib[rep]], t2[ia[rep], ib[rep]]])
    # every entry of the full matrix as its representative, conjugated where the
    # sign is -1: the lower triangle is the upper one's conjugate, the diagonal too
    gather, sign = np.empty((2, n, n), dtype=int)
    gather[ia, ib] = gather[ib, ia] = (np.cumsum(src == own) - 1)[src]  # rank of the rep
    sign[ia, ib] = 1 - 2 * conj
    sign[ib, ia] = -sign[ia, ib]
    return gather.ravel(), sign.ravel(), tri, _SplitPlan(*tri, head, (pts, pts, ia[rep], ib[rep]))


def _split_symmetric(u, t1, t2, p, lam, params: KernelParams):
    """ge_split over a symmetric (n, n) pair geometry, returned as full
    (value, smooth) matrices, with a leading axis for an array of momenta
    ``p``: one ge_split call, its orbit representatives scattered at once.

    The pairs are those of one point set against itself (x1 - x1_0 =
    u[:, 0], x2 = t2[i, i] / 2), and the split plan of the representatives
    is built on that set, so its head is one product per momentum.  At real
    lam the kernel is Hermitian under argument swap, unchanged by the
    mid-height mirror (geometry.mirror_map; t2 -> 1 - t2) and conjugated by
    the reflection about the set's x1 midpoint (geometry.reflect_map; module
    docstring), so one triangle pair per orbit of {mirror, swap, reflection}
    is evaluated and its images take its value, conjugated where exactly one
    of the reflection and the swap back applies: 85 of the 300 triangle
    pairs at N = 24 (157 with the mirror alone), 41 of 136 at N = 16; a
    vertical line, its own reflection pointwise, keeps the orbits of
    {mirror, swap}.  The orbits and the plan are kept across calls
    (_planned, keyed by the geometry and the head), and the plan keeps each
    folded momentum's static part, so p and 2 pi - p share it.
    """
    if np.imag(lam) != 0:
        raise DomainError(f"a symmetric split block needs real lambda, got {lam}")
    head = params.split_head
    gather, sign, tri, plan = _planned(
        ("symmetric", u.tobytes(), t1.tobytes(), t2.tobytes(), head),
        lambda: _symmetric_plan(u, t1, t2, head))
    full = np.stack(ge_split(*tri, p, float(np.real(lam)), head, plan=plan), axis=-2)[..., gather]
    full.imag *= sign  # conjugates where the sign is -1, exactly
    full = full.reshape(full.shape[:-1] + u.shape)
    return full[..., 0, :, :], full[..., 1, :, :]


def eval_Ge_uvts(u, dx2, t2, p, lam, params: KernelParams) -> np.ndarray:
    """Router on reduced coordinates u = x1-y1, dx2 = x2-y2, t2 = x2+y2 at
    every momentum of ``p`` (one lam), (P, K), or (K,) at one momentum: one
    ge_nsum for all momenta, and one ge_split for all momenta on the pairs
    closer than _AXIAL_SWITCH.  The caller checks the guards."""
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    u, dx2, t2 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (u, dx2, t2))
    shift = np.round(u)
    ur = u - shift
    phase = np.exp(1j * np.multiply.outer(ps, shift))

    if np.any(np.hypot(ur, dx2) < 1e-13):
        raise DomainError("coincident source and target (or periodic image)")

    out = np.empty((len(ps), len(ur)), dtype=complex)
    far = np.abs(ur) >= _AXIAL_SWITCH
    if np.any(far):
        out[:, far] = ge_nsum(ur[far], dx2[far], t2[far], ps, lam)
    near = ~far
    if np.any(near):
        out[:, near] = ge_split(ur[near], np.abs(dx2[near]), t2[near], ps, lam,
                                params.split_head)[0]
    out = phase * out
    return out if np.ndim(p) else out[0]


def kernel_blocks(xs, ys, p, lam, params: KernelParams) -> np.ndarray:
    """Kernel matrices G(xs_i, ys_j) at every momentum of ``p`` (one lam),
    (P, K, M), or (K, M) at one momentum; the caller checks the guards.
    The separated rows' mode count, k_n, cosines, reference points and
    axial exponentials are built once for all momenta (_kernel_rows).

    When both sets are invariant under the mid-height mirror x2 -> 1/2 - x2
    (geometry.mirror_map: xs[rx], ys[ry] are the images), the kernel obeys
    G(xs[rx_i], ys_j) = G(xs_i, ys[ry_j]), so only the rows on or below
    the centerline are evaluated and each row above it is its image's row
    with the columns permuted by ry.  Other sets take every row.
    """
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    xs, ys = _as_points(xs), _as_points(ys)
    rx = mirror_map(xs)
    ry = None if rx is None else mirror_map(ys)
    if ry is None:
        out = _kernel_rows(xs, ys, ps, lam, params)
    else:
        above = xs[:, 1] > CENTER_HEIGHT
        filled = above & ~above[rx]
        out = np.empty((len(ps), len(xs), len(ys)), dtype=complex)
        out[:, ~filled] = _kernel_rows(xs[~filled], ys, ps, lam, params)
        out[:, filled] = out[:, rx[filled]][:, :, ry]
    return out if np.ndim(p) else out[0]


def _kernel_rows(xs, ys, p, lam, params: KernelParams) -> np.ndarray:
    """kernel_blocks on every row at every momentum of the array ``p``,
    (P, K, M).

    A target row whose offsets x1 - y1 all lie in one floor, at least
    _THIN_MARGIN from both of its ends, is separated.  Separated rows are
    grouped by floor, those closer than _AXIAL_SWITCH to an end in a group
    of their own (so the others keep their mode count), and each group is
    evaluated in the separable transverse-modal form (module docstring):
    one pair of thin products for all momenta.  Every other row goes pair
    by pair, all momenta in one call per route, ge_split (for the pairs within
    _AXIAL_SWITCH of an integer offset) planned on these rows and the sources.
    """
    lo, hi = xs[:, 0] - ys[:, 0].max(), xs[:, 0] - ys[:, 0].min()
    floors = np.floor(lo)
    margin = np.minimum(lo - floors, floors + 1.0 - hi)
    out = np.empty((len(p), len(xs), len(ys)), dtype=complex)
    rest = margin < _THIN_MARGIN
    if rest.any():
        u, dx2 = (np.subtract.outer(xs[rest, a], ys[:, a]) for a in (0, 1))
        t2, shift = np.add.outer(xs[rest, 1], ys[:, 1]), np.round(u)
        near = np.abs(u - shift) < _AXIAL_SWITCH  # to ge_split, planned on these point sets
        rows = np.empty((len(p),) + u.shape, dtype=complex)
        rows[:, ~near] = eval_Ge_uvts(u[~near], dx2[~near], t2[~near], p, lam, params)
        if near.any():
            pairs = (u[near] - shift[near], np.abs(dx2[near]), t2[near])
            if np.any(np.hypot(pairs[0], pairs[1]) < 1e-13):
                raise DomainError("coincident source and target (or periodic image)")
            plan = _SplitPlan(*pairs, params.split_head, (xs[rest], ys, *np.nonzero(near)))
            rows[:, near] = np.exp(1j * np.multiply.outer(p, shift[near])) * ge_split(
                *pairs, p, lam, params.split_head, plan)[0]
        out[:, rest] = rows
    # one group per floor f, and one more (key f + 1/2) for its rows closer
    # than _AXIAL_SWITCH to an end
    group = np.where(margin < _AXIAL_SWITCH, floors + 0.5, floors)
    for key in sorted(set(group[~rest].tolist())):
        rows = ~rest & (group == key)
        f = key // 1
        x1, x2 = xs[rows, 0], xs[rows, 1]
        y1, y2 = ys[:, 0] + f, ys[:, 1]
        k, a, b = _transverse_modes(p, lam, min(x1.min() - y1.max(), y1.min() + 1.0 - x1.max()))
        c1, c2 = 0.5 * (x1.min() + y1.max()), 0.5 * (x1.max() + y1.min() + 1.0)
        n2pi = 2 * np.pi * np.arange(len(k))
        cx, cy = np.cos(np.multiply.outer(x2, n2pi)), np.cos(np.multiply.outer(y2, n2pi))

        def axial(d):
            return np.exp(1j * np.multiply.outer(d, k))

        def thin(target, weight, source):
            # one GEMM over the stacked rows of every momentum; the factor 2
            # of the cosine product rides on the weights, exactly
            left = (cx * axial(target))[None] * (2 * weight)[:, None, :]
            return left.reshape(-1, len(k)) @ (cy * axial(source)).T

        blocks = (thin(x1 - c1, a, c1 - y1) + thin(c2 - x1, b, y1 + 1.0 - c2)
                  ).reshape(len(p), len(x1), len(ys))
        out[:, rows] = blocks if f == 0 else np.exp(1j * p * f)[:, None, None] * blocks
    return out
