"""Dispersion curves, the degenerate crossing, and gap intervals.

Characteristic values of the block operator are located by counting.  At
real lambda the arc-length-weighted operator is Hermitian and decreasing
in lambda, so by Sylvester's law of inertia every characteristic value
passed turns one eigenvalue negative, and every empty-guide dispersion
sheet passed (a pole of the kernel) turns one back.  The absolute count

    B(lambda) = #negative eigenvalues + #sheets below lambda - dimension

is the number of characteristic values below lambda (the Wittrick-Williams
count; B = 0 below the first band), layerops' one rule: a counted_spectrum's
negatives plus count_offset (the fibers' LDL^H in gapgreens count the same
way, the interface junction with offset 0).  Every band point is found by
its index n, where B steps from n - 1 to n, in one rule (band_point): a
window around a center is widened until B at its ends holds band n, then
bisected on B until it holds just the wanted step and no sheet; the root
is then the zero of the crossing eigenvalue(s), found by Brent's method
(crossing_root), and the spectrum that found it certifies it and gives
the null density (certified_null_vectors, which certifies the interface
root too).  The interface root is found on its
count bracket by a secant on the Hermitian parts instead (pencil_root),
which the eigenvalues that do not cross cannot stall.  Both root finders
read the caller's memoized spectra and share one stopping rule: a step
below ROOT_RTOL returns the iterate it would have left, so the root is
always an evaluated point and no spectrum is spent to close a bracket.

For the undimerized structure the half-cell translation symmetry splits
the problem into two branches (see layerops.assemble_half); each branch
carries one smooth band through the crossing at p = pi, and the folded
bands are their pointwise min/max.  Every momentum is solved on its own
for its band index; nothing is continued in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import linalg

from .errors import (
    AmbiguousBracketError,
    AssemblyError,
    LinearAlgebraError,
    NoBandError,
    StructureViolationError,
)
from .geometry import ObstacleShape
from .layerops import (CountedSpectrum, DensityPair, assemble_T, assemble_half, count_offset,
                       counted_spectrum, null_vectors)
from .qpgreens import KernelParams

# Certified band point: sigma_min below this factor x sigma_max at the root.
# The root is a zero of the crossing eigenvalue, where sigma_min sits near
# rounding level, so a genuine band point passes with orders of magnitude
# to spare; a sign change that is no characteristic value does not.
SIGMA_CERT_FACTOR = 3e-8
DIRAC_PAIR_FACTOR = 1e-5      # double kernel: two smallest below this x sigma_max
# Kernel-dimension guard: the third singular value must stay well above the
# pair.  sigma_3 is the single-layer eigenvalue of the highest resolved
# Fourier mode, about R/N, so sigma_3/sigma_max falls like 1/N: 6.87e-3 for
# the radius-0.1 disk at N = 64 (1.39e-2 at N = 32).  The guard sits at
# 2e-3; the acceptance suite reports the ratio itself.
DIRAC_THIRD_FACTOR = 2e-3
ROOT_RTOL = 1e-11             # tolerance on a root, relative to lambda
MAX_BISECTIONS = 60
MAX_ROOT_ITERATIONS = 100     # steps of either root finder before NoBandError
SLOPE_STEP = 0.04             # p-step of band_slope_at_crossing's central difference


@dataclass
class DispersionCurve:
    band_index: int
    p_grid: np.ndarray
    lambdas: np.ndarray
    sigma_mins: np.ndarray
    delta: float

    def __post_init__(self):
        if np.any(self.lambdas <= 0):
            raise AssemblyError("dispersion values must be positive")


@dataclass(frozen=True)
class GapInterval:
    """lambda* -+ c h: the first-order gap of half-width h = delta |t*/gamma*|,
    narrowed by c.  h is stored, not derived from the ends: (e2 - e1) / 2c
    differs from it by rounding."""
    e1: float
    e2: float
    delta: float
    c: float
    h: float

    @property
    def width(self) -> float:
        return self.e2 - self.e1

    @property
    def center(self) -> float:
        return 0.5 * (self.e1 + self.e2)


def _spectrum(p, lam, delta, shape, params, branch) -> CountedSpectrum:
    """Full-cell (branch None) or half-cell branch operator at (p, lam), counted."""
    if branch is None:
        T = assemble_T(p, lam, delta, shape, params)
        action, weights = T.entries, T.weights
    else:
        action, weights = assemble_half(p, lam, branch, shape, params)
    offset = count_offset(p, lam, params, len(weights), branch)
    return counted_spectrum(action, weights, f"at p={p:.4f}, lambda={lam:.6f}", offset)


def band_count(p, lam, delta, shape: ObstacleShape, params: KernelParams,
               branch: int | None = None) -> int:
    """B(lam): the number of characteristic values below lam at momentum p."""
    return _spectrum(p, lam, delta, shape, params, branch).count


def crossing_root(spectrum, a: float, b: float, order: int = 1) -> float:
    """Energy in (a, b) where ``order`` eigenvalues of a decreasing Hermitian
    family cross zero.

    ``spectrum(lam)`` is the caller's memoized counted spectrum.  The bracket must
    hold exactly ``order`` more negative eigenvalues at b than at a and no
    pole; the crossing eigenvalues are then the ones indexed from the
    negative count at a, and Brent's method finds the zero of their sum
    (for a slightly split pair, the energy where the two are opposite,
    i.e. where the second smallest |eigenvalue| dips).

    The steps are scipy.optimize.brentq's until an accepted interpolation
    step is no longer than the tolerance ROOT_RTOL (1 + |x|) / 2: brentq
    then steps by the tolerance to close its bracket, while this returns
    the current iterate, as pencil_root stops on a sub-tolerance step.
    The interpolation has landed on the root there.  The root returned
    is always a point where ``spectrum`` was evaluated.  NoBandError when
    the ends do not change sign or after MAX_ROOT_ITERATIONS steps.
    """
    k = spectrum(a).negatives

    def f(lam):
        return float(np.sum(spectrum(lam).eigs[k:k + order]))

    # Brent-Dekker as in scipy.optimize.brentq, written out here because
    # importing scipy.optimize costs about 14 MB resident and 0.15 s
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre * fcur > 0:
        raise NoBandError(f"no sign change of the crossing eigenvalues in ({a:.6f}, {b:.6f})")
    if fpre == 0:
        return xpre
    xblk, fblk, spre, scur = 0.0, 0.0, 0.0, 0.0
    for _ in range(MAX_ROOT_ITERATIONS):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = 0.5 * ROOT_RTOL * (1.0 + abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0 or abs(sbis) < tol:
            return xcur
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - tol):
                if abs(stry) <= tol:  # the interpolation has landed: stop on it
                    return xcur
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur
        fcur = f(xcur)
    raise NoBandError(f"Brent iteration did not converge in ({a:.6f}, {b:.6f}) "
                      f"after {MAX_ROOT_ITERATIONS} iterations")


def pencil_root(spectrum, a: float, b: float) -> float:
    """Energy in (a, b) where one eigenvalue of a decreasing Hermitian
    family crosses zero, by successive linear problems.

    ``spectrum(lam)`` is the caller's memoized counted spectrum; the pencil
    reads its Hermitian part W(lam), and its count, one higher at b than at
    a with no pole between, keeps the bracket.
    From the last two iterates x_prev, x the family is taken as linear,
    W(lam) ~ W(x) + (lam - x) S with S the secant (W(x) - W(x_prev)) /
    (x - x_prev), and the next iterate is x + mu for the real eigenvalue mu
    of the pencil (W(x), -S) nearest 0 that stays inside the count bracket;
    when there is none, the bracket is bisected.  Eigenvalues that do not
    move with lam have no secant slope, so they put mu far outside the
    bracket instead of stalling the step, as they stall a root search on
    the ordered eigenvalue (Ruhe, SIAM J. Numer. Anal. 10, 1973).  Each
    iterate's count updates the bracket.  Stops when the step is below
    ROOT_RTOL (1 + |lam|) and returns the iterate: the root is always a
    point where ``spectrum`` was evaluated.  NoBandError after
    MAX_ROOT_ITERATIONS steps, or once no float is left inside the bracket.
    """
    k, end = spectrum(a).count, spectrum(b).count
    if end != k + 1:
        raise NoBandError(f"({a:.6f}, {b:.6f}) does not hold one crossing: "
                          f"counts {k}, {end} at the ends")
    lo, hi = a, b
    x_prev, x = a, b
    for it in range(1, MAX_ROOT_ITERATIONS + 1):
        tol = ROOT_RTOL * (1.0 + abs(x))
        if hi - lo < tol:
            return x
        W = spectrum(x).H
        slope = (W - spectrum(x_prev).H) / (x - x_prev)
        mu = linalg.eig(W, -slope, right=False)
        steps = mu.real[np.isfinite(mu) & (np.abs(mu.imag) <= 1e-8 * np.abs(mu) + tol)]
        if np.any(np.abs(steps) < tol):
            return x
        steps = steps[(lo < x + steps) & (x + steps < hi)]
        x_new = x + steps[np.argmin(np.abs(steps))] if len(steps) else 0.5 * (lo + hi)
        if x_new == x:  # no float left inside the bracket: the tolerance cannot be met
            break
        c = spectrum(x_new).count
        if c == k:
            lo = x_new
        elif c == k + 1:
            hi = x_new
        else:
            raise NoBandError(f"the count is not monotone in ({a:.6f}, {b:.6f}): "
                              f"{c} at lambda={x_new:.6f}, {k} and {k + 1} at the ends")
        x_prev, x = x, x_new
    raise NoBandError(f"pencil iteration did not converge in ({a:.6f}, {b:.6f}) "
                      f"after {it} iterations")


def certified_null_vectors(root: CountedSpectrum, order: int, where: str):
    """The certificate of a root of multiplicity ``order`` on the counted
    spectrum that found it, whose |eigenvalues| are W's singular values
    (Weyl: W passed the Hermitian check): sigma_order below SIGMA_CERT_FACTOR
    (order 1) or DIRAC_PAIR_FACTOR (2) x sigma_max, else NoBandError.
    Returns the three smallest singular values, sigma_max and the unit null
    densities, H's eigenvectors of the ``order`` eigenvalues nearest 0."""
    near = np.argsort(np.abs(root.eigs))
    sigs, smax = np.abs(root.eigs[near[:3]]), np.abs(root.eigs[near[-1]])
    factor = SIGMA_CERT_FACTOR if order == 1 else DIRAC_PAIR_FACTOR
    if sigs[order - 1] > factor * smax:
        raise NoBandError(f"root {where} not certified: sigma={sigs[order - 1]:.3e} "
                          f"vs {factor:.1e} x sigma_max={factor * smax:.3e}")
    try:
        _, vectors = np.linalg.eigh(root.H)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"eigendecomposition failed: {exc}") from exc
    return sigs, smax, null_vectors(vectors[:, near[:order]], root.weights)


def find_band_lambda(
    p: float,
    bracket: tuple[float, float],
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
    branch: int | None = None,
    order: int = 1,
    return_vector: bool = False,
    *,
    band: int,
    spectrum=None,
):
    """Locate band ``band`` inside ``bracket`` at fixed p: the characteristic
    value where the count steps from ``band`` - 1 to ``band``.

    ``order`` is its multiplicity (2 for the degenerate crossing of bands
    ``band`` and ``band`` + 1).  Returns (lambda, sigma_profile) where
    sigma_profile holds the three smallest weighted singular values and
    sigma_max at the root, plus the ``order`` unit null densities when
    ``return_vector`` (certified_null_vectors on the root's spectrum).
    Raises NoBandError when the bracket does not hold the band or the root
    fails the sigma_min certificate, AmbiguousBracketError when the count
    does not isolate the band.  ``spectrum`` brings the memoized spectra of
    a search that already counted at p (band_point).
    """
    lo, hi = bracket
    if not lo < hi:
        raise NoBandError(f"empty bracket {bracket}")
    spectrum = spectrum or cache(lambda lam: _spectrum(p, lam, delta, shape, params, branch))

    where = f"bracket ({lo:.6f}, {hi:.6f}) at p={p:.4f}"
    b_lo, b_hi = spectrum(lo).count, spectrum(hi).count
    if not b_lo < band <= b_hi - order + 1:
        raise NoBandError(f"band {band} not in {where} (counts {b_lo}, {b_hi} at the ends)")

    # bisect on the count until the bracket holds just the wanted step and
    # no sheet: across a sheet an eigenvalue jumps through infinity
    a, b = lo, hi
    for _ in range(MAX_BISECTIONS):
        sa, sb = spectrum(a), spectrum(b)
        if sa.count == band - 1 and sb.count == band - 1 + order and sa.offset == sb.offset:
            break
        mid = 0.5 * (a + b)
        c = spectrum(mid).count
        if c < band:
            a = mid
        elif c >= band - 1 + order:
            b = mid
        else:
            raise NoBandError(f"no {order}-fold characteristic value at band {band} in {where}: "
                              f"the count splits at lambda={mid:.6f}")
    else:
        raise AmbiguousBracketError(f"band {band} not isolated in {where} "
                                    f"after {MAX_BISECTIONS} bisections")

    lam = crossing_root(spectrum, a, b, order)
    sigs, smax, vectors = certified_null_vectors(spectrum(lam), order,
                                                 f"at p={p:.4f}, lambda={lam:.6f}")
    if not return_vector:
        return lam, (sigs, smax)
    return lam, (sigs, smax), [DensityPair.from_stacked(v) for v in vectors]


def band_point(p, band, center, delta, shape, params, branch=None, order=1,
               return_vector=False):
    """Band ``band`` at momentum p, by its count index: find_band_lambda on a
    window around ``center`` that the count widens until it holds the band.

    ``order`` = 2 asks for a crossing of bands ``band`` and ``band`` + 1:
    the window's upper end must count ``band`` + ``order`` - 1 values.
    Each end is pushed out in doubling steps; the lower end at most halves
    each step, so it stays positive.  The window's spectra serve the search.
    """
    spectrum = cache(lambda lam: _spectrum(p, lam, delta, shape, params, branch))
    lo, step = center, 1.0
    while spectrum(lo := max(center - step, 0.5 * lo)).count >= band:
        step *= 2
    step = 1.0
    while spectrum(hi := center + step).count < band + order - 1:
        step *= 2
    return find_band_lambda(p, (lo, hi), delta, shape, params, branch=branch, order=order,
                            return_vector=return_vector, band=band, spectrum=spectrum)


def trace_band(
    band_index: int,
    p_grid: np.ndarray,
    delta: float,
    shape: ObstacleShape,
    params: KernelParams,
    seed_lambda: float,
    branch: int | None = None,
) -> DispersionCurve:
    """Dispersion curve of band ``band_index`` on ``p_grid``.

    Full cell at dimerization ``delta``, or one half-cell branch of the
    undimerized structure.  Every p is solved on its own for its band
    index (band_point); the window starts around seed_lambda at the first p
    and around the previous value after that, which only saves count
    evaluations.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    lams = np.empty(len(p_grid))
    sigs = np.empty(len(p_grid))
    center = seed_lambda
    for i, p in enumerate(p_grid):
        lams[i], (prof, _) = band_point(p, band_index, center, delta, shape, params, branch)
        sigs[i] = prof[0]
        center = lams[i]
    return DispersionCurve(band_index, p_grid.copy(), lams, sigs, delta)


def trace_folded_bands(
    p_grid: np.ndarray,
    shape: ObstacleShape,
    params: KernelParams,
    dirac_lambda: float,
):
    """Both folded bands of the undimerized structure on ``p_grid``.

    Each half-cell branch carries its first band smoothly through the
    crossing energy at p = pi; folding takes the pointwise min/max.
    Returns (curve1, curve2).
    """
    plus, minus = (trace_band(1, p_grid, 0.0, shape, params, dirac_lambda, branch=b)
                   for b in (+1, -1))
    lower = plus.lambdas <= minus.lambdas
    c1 = DispersionCurve(1, plus.p_grid, np.where(lower, plus.lambdas, minus.lambdas),
                         np.where(lower, plus.sigma_mins, minus.sigma_mins), 0.0)
    c2 = DispersionCurve(2, minus.p_grid, np.where(lower, minus.lambdas, plus.lambdas),
                         np.where(lower, minus.sigma_mins, plus.sigma_mins), 0.0)
    return c1, c2


def dirac_point(hint: float, shape: ObstacleShape, params: KernelParams):
    """The degenerate crossing of the first two folded bands.

    The axial fold pins the crossing momentum at p = pi exactly; the
    energy is band 1's with order 2 (band_point, centered at ``hint``), so
    the count steps from 0 to 2 there: the crossing is of bands 1 and 2.
    Certifies the two-dimensional kernel (the order-2 certificate, and the
    third singular value above DIRAC_THIRD_FACTOR x sigma_max).  Returns
    (p_star, lambda_star, kernel): ``kernel`` is the pair of unit null
    densities spanning it.
    """
    p_star = np.pi
    lam, (sigs, smax), kernel = band_point(p_star, 1, hint, 0.0, shape, params, order=2,
                                           return_vector=True)
    if sigs[2] < DIRAC_THIRD_FACTOR * smax:
        raise StructureViolationError(
            f"third singular value {sigs[2]:.3e} too small at the crossing; "
            "kernel dimension exceeds two"
        )
    return p_star, lam, kernel


def band_slope_at_crossing(
    shape: ObstacleShape,
    params: KernelParams,
    dirac_lambda: float,
) -> float:
    """|d mu / d p| of the smooth half-cell branch at p = pi.

    The branch's band 1 passes smoothly through the crossing, so a central
    difference across pi is second order.
    """
    lam_hi, lam_lo = (band_point(p, 1, dirac_lambda, 0.0, shape, params, branch=+1)[0]
                      for p in (np.pi + SLOPE_STEP, np.pi - SLOPE_STEP))
    return abs(lam_hi - lam_lo) / (2 * SLOPE_STEP)


def gap_interval(dirac_data, delta: float, c: float = 0.9) -> GapInterval:
    """Certified-width gap interval around the crossing energy.

    Width 2 c delta |t*/gamma*|; degenerate when the dimerization
    coupling vanishes.
    """
    if not 0 < c < 1:
        raise StructureViolationError(f"c must lie in (0,1), got {c}")
    if delta <= 0:
        raise StructureViolationError("gap interval needs delta > 0")
    beta = dirac_data.beta_star
    if abs(beta) < 1e-10 * max(1.0, abs(dirac_data.lambda_star)):
        raise StructureViolationError(
            "dimerization coupling t* vanishes; no first-order gap opens"
        )
    half = c * delta * abs(beta)
    return GapInterval(
        e1=dirac_data.lambda_star - half,
        e2=dirac_data.lambda_star + half,
        delta=delta,
        c=c,
        h=abs(delta * beta),
    )


def gap_edges(dirac_data, delta: float, shape: ObstacleShape, params: KernelParams):
    """The gap's edges: bands 1 and 2 at p = pi, their maximum and minimum.

    Each is located by its count index (band_point), centered at its
    first-order value lambda* -+ delta |t*/gamma*|.  Returns
    ((lower, upper), (lower density, upper density)), the unit null
    densities of the two band-edge modes.
    """
    lam, half = dirac_data.lambda_star, abs(delta * dirac_data.beta_star)
    (lo, _, (dens_lo,)), (hi, _, (dens_hi,)) = (
        band_point(np.pi, band, lam + sign * half, delta, shape, params, return_vector=True)
        for band, sign in ((1, -1), (2, +1)))
    return (lo, hi), (dens_lo, dens_hi)
