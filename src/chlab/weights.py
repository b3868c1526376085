"""Moderate and admissible weight functions for weighted persistence estimates.

A weight ``v`` is *sub-multiplicative* when ``v(x+y) <= v(x) v(y)`` and a
positive weight ``phi`` is *v-moderate* when ``phi(x+y) <= C0 v(x) phi(y)``
for some constant ``C0`` (the usual terminology from time-frequency
analysis).  The weighted estimates for the Camassa-Holm equation hold for
*admissible* weights: locally absolutely continuous ``phi`` with
``|phi'| <= A phi`` a.e., ``phi`` v-moderate for a sub-multiplicative ``v``
with ``inf v > 0`` and ``integral of v(x) e^{-|x|} dx`` finite.

The standard family is

    phi_{a,b,c,d}(x) = exp(a |x|^b) * (1 + |x|)^c * log(e + |x|)^d ,

sub-multiplicative for ``a, c, d >= 0`` and ``0 <= b <= 1`` (up to a finite
constant for the log factor), and v-moderate with
``v = phi_{|a|,b,|c|,|d|}`` for arbitrary signs.  Certification takes
v = phi, so only that range is ``certifiable`` (b is moot when a = 0), and
a weight outside it is never certified admissible: a decaying one (a, c or
d < 0, or a < 0 for ``OneSided``) has inf v = 0 on the line, whatever its
samples on a bounded range give.

Certification here is empirical: the constants ``C0``, ``A`` and ``inf v``
are suprema over seeded uniform samples (plus analytic log-derivatives
where closed forms exist), and each certificate records its sample set so
results reproduce bit-for-bit under a fixed seed.  The settings are fixed,
and the seed is the only one a caller chooses (``chlab weights certify
--seed``):

* 20,000 seeded pairs and 20,000 seeded points on [-32, 32], drawn once
  per seed and shared, read-only, by every certificate of that seed; each
  sampled or scanned extremum (``C0``, ``inf_v``, the overflow test, the
  sup of v(x) e^{-|x|}) is a max or min of log values, exponentiated once;
* the one decay integral, of v(x) e^{-|x|}, by adaptive Gauss-Kronrod
  quadrature on [-R, R], R starting at 32 and doubling at most 12 times
  until the added tails fall below 1e-10 (else it is reported divergent,
  the correct verdict for weights growing at least like e^{|x|}), each
  fixed-R piece ([-R, 0], [0, R], each added [-2R, -R] and [R, 2R]) to the
  absolute tolerance 1e-9.  The pieces of each range advance together: log
  v is evaluated once per round, on every live subinterval;
* an even weight (log v a function of |x|: the standard family, and a
  truncation of it) is scanned and integrated on x >= 0 only, its integral
  twice the half-line one.

``certify_admissible`` returns the certificate as the plain record that
``weight_certificates.json`` stores, with the L^infinity norm of
v(x) e^{-|x|} keyed "inf".  Evaluations that overflow float
range are reported as ``+inf`` and poison the certificate rather than
silently saturating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .field import Field, convolve

__all__ = [
    "Weight",
    "StandardFamily",
    "OneSided",
    "Truncated",
    "certify_admissible",
    "weighted_lp_norm",
    "check_weighted_young",
    "threshold_weight",
]


class Weight:
    """Base class: a positive weight function on the line.

    Subclasses implement ``_log_value`` (vectorized natural log of the
    weight) and ``_log_derivative`` (vectorized a.e. value of phi'/phi).
    Working in log space keeps ratios of enormous weights finite; plain
    ``value`` may overflow to ``+inf``, which downstream certification
    treats as a poisoned evaluation, never a saturated one.
    """

    #: Whether log phi depends on |x| alone; certificates then scan and
    #: integrate x >= 0 only.  A class attribute, not a config field.
    even = False

    @property
    def obstruction(self) -> Optional[str]:
        """Why phi cannot be certified admissible against v = phi, or None."""
        return None

    @property
    def certifiable(self) -> bool:
        return self.obstruction is None

    def _log_value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x):
        with np.errstate(over="ignore"):
            arr = np.exp(self._log_value(np.asarray(x, dtype=float)))
        return float(arr) if np.isscalar(x) else arr

    def log_derivative(self, x):
        """a.e. value of phi'(x)/phi(x); may be +-inf at isolated points."""
        arr = self._log_derivative(np.asarray(x, dtype=float))
        return float(arr) if np.isscalar(x) else arr


@dataclass(frozen=True)
class StandardFamily(Weight):
    """exp(a|x|^b) (1+|x|)^c log(e+|x|)^d with closed-form log-derivative."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    even = True

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"exponent b must be >= 0, got {self.b}")

    @property
    def obstruction(self) -> Optional[str]:
        """The family is certified where v = phi is sub-multiplicative with
        inf v > 0: a, c, d >= 0, and b <= 1 unless a = 0 (b is then moot)."""
        negative = [f"{k} < 0" for k in "acd" if getattr(self, k) < 0]
        if negative:
            return (f"has a negative exponent ({', '.join(negative)}); "
                    f"v = phi is certified only for a, c, d >= 0")
        if self.a != 0 and self.b > 1:
            return "grows faster than exponential (b > 1)"
        return None

    def _log_value(self, x):
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            out = self.a * ax**self.b
        if self.c != 0.0:
            out = out + self.c * np.log1p(ax)
        if self.d != 0.0:
            out = out + self.d * np.log(np.log(math.e + ax))
        return out

    def _log_derivative(self, x):
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            # a*b*|x|^(b-1) diverges at 0 for 0 < b < 1 (a.e. bound only)
            power = np.where(
                self.a * self.b == 0.0, 0.0, self.a * self.b * ax ** (self.b - 1.0)
            )
        rho = power + self.c / (1.0 + ax)
        loge = np.log(math.e + ax)
        rho = rho + self.d / ((math.e + ax) * loge)
        return np.sign(x) * rho

    def __str__(self):
        return f"exp({self.a}|x|^{self.b})(1+|x|)^{self.c}log(e+|x|)^{self.d}"


@dataclass(frozen=True)
class OneSided(Weight):
    """exp(a*x) for x >= 0 and identically 1 for x < 0.

    Tracks one-sided decay O(e^{-a x}) as x -> +infinity while ignoring the
    other tail; admissible (with v = exp(a|x|)) for 0 <= a < 1.
    """

    a: float

    @property
    def obstruction(self) -> Optional[str]:
        if self.a < 0:
            return ("has a negative exponent (a < 0); v = phi is certified "
                    "only for a >= 0")
        return None

    def _log_value(self, x):
        return self.a * np.maximum(x, 0.0)

    def _log_derivative(self, x):
        return self.a * (x > 0.0).astype(float)

    def __str__(self):
        return f"exp({self.a}*max(x,0))"


@dataclass(frozen=True)
class Truncated(Weight):
    """min(phi, cap): the bounded surrogate that keeps Gronwall arguments
    finite; pointwise nondecreasing in the cap and equal to phi wherever
    phi <= cap."""

    base: Weight
    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ValueError(f"truncation cap must be positive, got {self.cap}")

    @property
    def even(self):
        return self.base.even

    @property
    def obstruction(self) -> Optional[str]:
        return self.base.obstruction

    def _log_value(self, x):
        return np.minimum(self.base._log_value(x), math.log(self.cap))

    def value(self, x):
        # exact clamp (exp(min(log)) can be off by an ulp)
        with np.errstate(over="ignore"):
            arr = np.minimum(
                np.exp(self.base._log_value(np.asarray(x, dtype=float))), self.cap
            )
        return float(arr) if np.isscalar(x) else arr

    def _log_derivative(self, x):
        clamped = self.base._log_value(x) >= math.log(self.cap)
        return np.where(clamped, 0.0, self.base._log_derivative(x))

    def __str__(self):
        return f"min({self.base}, {self.cap})"


# The fixed certification settings, as the module docstring states them.
SAMPLE_RANGE = 32.0
SAMPLE_COUNT = 20000
QUAD_RANGE0 = 32.0
QUAD_TOL = 1e-10
QUAD_INNER_TOL = 1e-9
MAX_DOUBLINGS = 12


# 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule embedded in
# it (QUADPACK's qk15: Piessens et al., 1983).  The Gauss nodes are every
# other Kronrod node, so _G7_WEIGHTS is zero on the Kronrod-only ones.
_K15_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_K15_NODES = np.concatenate([-_K15_HALF, [0.0], _K15_HALF[::-1]])
_K15_WEIGHTS_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649])
_K15_WEIGHTS = np.concatenate(
    [_K15_WEIGHTS_HALF, [0.209482141084727828012999174891714],
     _K15_WEIGHTS_HALF[::-1]])
_G7_WEIGHTS_HALF = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0,
    0.279705391489276667901467771423780, 0.0,
    0.381830050505118944950369775488975, 0.0])
_G7_WEIGHTS = np.concatenate(
    [_G7_WEIGHTS_HALF, [0.417959183673469387755102040816327],
     _G7_WEIGHTS_HALF[::-1]])
#: Both rules, shaped to weigh samples of shape (subintervals, 15).
_GK_RULES = np.stack([_K15_WEIGHTS, _G7_WEIGHTS])[:, None, :]


#: Work bounds of one adaptive quadrature, per piece: rounds, and live
#: subintervals.
_GK_MAX_ROUNDS = 80
_GK_MAX_LIVE = 2048


def _gauss_kronrod(log_f: Callable[[np.ndarray], np.ndarray],
                   pieces: Sequence[Tuple[float, float]],
                   tol: float) -> np.ndarray:
    """Adaptive G7/K15 quadrature of e^{log_f} on each piece (lo, hi), to
    absolute tolerance tol, all pieces advanced together.

    Each round evaluates log_f once, on the 15 Kronrod nodes of every live
    subinterval of every piece.  A subinterval is accepted when
    |K15 - G7| is at most its share tol * width / (hi - lo) of its piece's
    tolerance, and bisected otherwise.  The work is bounded per piece:
    after ``_GK_MAX_ROUNDS`` rounds, or when bisection would exceed
    ``_GK_MAX_LIVE`` subintervals, the K15 values of the live ones are
    taken as they are.  Each integral is the math.fsum of its accepted K15
    values, or +inf once one of them is not finite (a sample that is not,
    or a sum that overflows).  A piece gets the value it gets when
    integrated alone.  Returns the integrals, one per piece."""
    lo, hi = np.array(pieces, dtype=float).T
    a, b, owner = lo, hi, np.arange(lo.size)
    poisoned = np.zeros(lo.size, dtype=bool)
    owners, values = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for round_ in range(_GK_MAX_ROUNDS):
            centre = 0.5 * (a + b)
            half = 0.5 * (b - a)
            ys = np.exp(log_f((centre[:, None] + half[:, None]
                               * _K15_NODES).ravel()))
            # each row summed on its own: its value is the same in any batch
            kronrod, gauss = half * (ys.reshape(a.size, _K15_NODES.size)
                                     * _GK_RULES).sum(axis=-1)
            poisoned[owner[~np.isfinite(kronrod)]] = True
            needed = ~poisoned[owner]
            take = needed & (np.abs(kronrod - gauss)
                             <= tol * (b - a) / (hi - lo)[owner])
            needed &= ~take
            # no piece passes the live cap while all together don't
            last = round_ == _GK_MAX_ROUNDS - 1
            if last or 2 * np.count_nonzero(needed) > _GK_MAX_LIVE:
                live = np.bincount(owner[needed], minlength=lo.size)
                take |= needed & (last | (2 * live > _GK_MAX_LIVE))[owner]
                needed &= ~take
            owners.append(owner[take])
            values.append(kronrod[take])
            if not needed.any():
                break
            a, centre, b = a[needed], centre[needed], b[needed]
            a, b = np.concatenate([a, centre]), np.concatenate([centre, b])
            owner = np.tile(owner[needed], 2)
    owners, values = np.concatenate(owners), np.concatenate(values)
    sums = [math.fsum(values[owners == k]) for k in range(lo.size)]
    return np.where(poisoned, math.inf, sums)


def _decay_integral(weight: Weight) -> Tuple[float, bool, float]:
    """integral over the line of v e^{-|x|}: adaptive Gauss-Kronrod on
    [-R, R] with R doubling until the increment is below QUAD_TOL.  The
    line is split at 0 (weights usually kink there), and each fixed-R piece
    is integrated to the absolute tolerance QUAD_INNER_TOL.  An even weight
    is integrated on x >= 0 only, and each piece counts twice.  Returns
    (value, converged, R)."""

    def log_f(x):
        return weight._log_value(x) - np.abs(x)

    def over(lo, hi):
        """integral over lo <= |x| <= hi"""
        if weight.even:
            return 2.0 * _gauss_kronrod(log_f, [(lo, hi)], QUAD_INNER_TOL)[0]
        left, right = _gauss_kronrod(log_f, [(-hi, -lo), (lo, hi)],
                                     QUAD_INNER_TOL)
        return left + right

    R = QUAD_RANGE0
    total = over(0.0, R)
    for _ in range(MAX_DOUBLINGS):
        if not math.isfinite(total):
            break
        increment = over(R, 2 * R)
        R *= 2
        total += increment
        if abs(increment) < QUAD_TOL:
            return float(total), True, R
    return math.inf, False, R


#: Points per block of a blockwise maximum: each block's temporaries stay
#: small enough to be reused from the allocator instead of faulting in fresh
#: pages on every certificate.
_SCAN_BLOCK = 8192


def _blockwise_max(f: Callable[[np.ndarray], np.ndarray],
                   x: np.ndarray) -> float:
    """np.max(f(x)), taken over one _SCAN_BLOCK of x at a time.  max does
    not depend on the order of the points, and np.max carries a NaN or +inf
    from any block into the result, as the whole-array maximum would."""
    starts = range(0, x.size, _SCAN_BLOCK)
    return np.max([np.max(f(x[s:s + _SCAN_BLOCK])) for s in starts])


@cache
def _sup_scan_grid() -> np.ndarray:
    """The x >= 0 half of the sup scan's grid, read-only and built once:
    65,537 linear points on [0, QUAD_RANGE0], then 8,193 geometric ones
    out to the maximal quadrature range QUAD_RANGE0 * 2**MAX_DOUBLINGS.
    The whole grid is ``-half[::-1]`` followed by ``half``."""
    near = np.linspace(0.0, QUAD_RANGE0, 65537)
    far = QUAD_RANGE0 * 2 ** np.linspace(0.0, MAX_DOUBLINGS, 8193)
    half = np.concatenate([near, far])
    half.flags.writeable = False
    return half


def _sup_v_exp(v: Weight) -> float:
    """max of v(x) e^{-|x|} over the scan grid: the largest blockwise
    maximum of log v(x) - |x|, exponentiated once.  The half grid is read as
    x and as |x|, and for a weight that is not even also as -x (the mirrored
    half)."""
    half = _sup_scan_grid()
    with np.errstate(over="ignore"):
        peak = _blockwise_max(lambda x: v._log_value(x) - x, half)
        if not v.even:
            peak = np.max([peak, _blockwise_max(
                lambda x: v._log_value(-x) - x, half)])
        return float(np.exp(peak))


@lru_cache(maxsize=4)
def _sample_set(seed: int) -> Tuple[np.ndarray, ...]:
    """The seeded sample set of a certificate, drawn once per seed and kept
    read-only (the last few seeds; one command certifies under one): x + y,
    x and y of the SAMPLE_COUNT pairs, each contiguous, then the
    SAMPLE_COUNT single points."""
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(SAMPLE_COUNT, 2))
    points = rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=SAMPLE_COUNT)
    x, y = np.ascontiguousarray(pairs.T)
    samples = (x + y, x, y, points)
    for arr in samples:
        arr.flags.writeable = False
    return samples


def certify_admissible(weight: Weight, seed: int = 0) -> dict:
    """Empirical admissibility certificate for a weight phi as its own
    majorant v = phi, as the record ``weight_certificates.json`` stores.

    Checks, over the seeded sample set and by quadrature:
    its log-derivative bound ``A`` = sup |phi'|/phi, moderateness constant
    ``C0`` = sup phi(x+y)/(v(x)phi(y)) (v = phi, so it is also the
    sub-multiplicativity ratio of v), ``inf_v``, and the one decay integral
    ``integral_v_exp`` of v(x) e^{-|x|} (divergence reported honestly —
    e.g. v = e^{|x|} diverges but still offers the L^infinity route since
    sup v(x) e^{-|x|} = 1).  ``lp_v_exp`` holds the L^infinity norm of
    v(x) e^{-|x|}, keyed "inf".  The record also carries
    the sample set (``sample_range``, ``sample_count``, ``seed``), so
    certificates reproduce bit-for-bit.

    Every certificate of a seed reads the same sample set, drawn once.
    Each sampled or scanned extremum is taken over log values and
    exponentiated once: ``C0`` is exp of the largest
    log v(x+y) - log v(x) - log v(y), and ``inf_v`` and the overflow test
    read ``weight.value`` at the points of least and greatest log v (so a
    truncation keeps its exact clamp).  exp is monotone, so each equals the
    extremum of the exponentiated samples, a NaN or +inf included (the
    tests check it to the bit).
    """
    sums, xs, ys, points = _sample_set(seed)
    with np.errstate(over="ignore"):
        C0 = float(np.exp(np.max(weight._log_value(sums)
                                 - weight._log_value(xs)
                                 - weight._log_value(ys))))
    A = float(_blockwise_max(lambda x: np.abs(weight.log_derivative(x)),
                             points))
    # v at the extremal points of log v: its min and max over the points
    log_v = weight._log_value(points)
    inf_v, sup_v = map(float, weight.value(
        points[[np.argmin(log_v), np.argmax(log_v)]]))
    overflowed = not (math.isfinite(sup_v) and math.isfinite(C0))

    integral, converged, R_final = _decay_integral(weight)

    admissible = (
        weight.certifiable
        and inf_v > 0
        and math.isfinite(A)
        and math.isfinite(C0)
        and converged
        and math.isfinite(integral)
        and not overflowed
    )
    return {
        "C0": C0,
        "A": A,
        "inf_v": inf_v,
        "integral_v_exp": integral,
        "lp_v_exp": {"inf": _sup_v_exp(weight)},
        "admissible": admissible,
        "sample_range": SAMPLE_RANGE,
        "sample_count": SAMPLE_COUNT,
        "seed": seed,
        "quadrature_converged": converged,
        "quadrature_range": R_final,
        "overflowed": overflowed,
    }


def weighted_lp_norm(u: Field, phi_x: np.ndarray, p: float) -> float:
    """Rectangle-rule weighted norm: (sum |u_i phi(x_i)|^p dx)^(1/p), or
    max_i |u_i phi(x_i)| for p = infinity; evaluated with max-rescaling so
    large p does not overflow.  ``phi_x`` holds the weight's samples
    phi(x_i) on u's grid, evaluated once by the caller for many norms."""
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.abs(u.values) * phi_x
    peak = float(np.max(weighted)) if weighted.size else 0.0
    if peak == 0.0:
        return 0.0
    if math.isinf(p):
        return peak
    if not math.isfinite(peak):
        return math.inf
    scaled = weighted / peak
    total = float(np.sum(scaled**p)) * u.grid.dx
    return peak * total ** (1.0 / p)


@dataclass(frozen=True)
class YoungReport:
    """Outcome of one weighted-Young-inequality check
    ||(f1 * f2) phi||_p <= C0 ||f1 phi||_1 ||f2 phi||_p."""

    lhs: float
    rhs: float
    passed: bool


#: Relative roundoff allowance of the weighted Young check.
_YOUNG_SLACK = 1e-9


def check_weighted_young(f1: Field, f2: Field, phi: Weight, p: float,
                         C0: float) -> YoungReport:
    """Check ||(f1*f2) phi||_p <= C0 ||f1 phi||_1 ||f2 phi||_p on the grid.

    The discrete inequality is exact (up to roundoff, covered by the
    relative ``_YOUNG_SLACK``) whenever both fields are supported well
    inside the domain, so the moderateness inequality applies to every
    unwrapped pair of grid points entering the circular convolution.
    """
    if f1.grid is not f2.grid and f1.grid != f2.grid:
        raise ValueError("fields must share a grid")
    phi_x = phi.value(f1.grid.x)
    lhs = weighted_lp_norm(convolve(f1, f2), phi_x, p)
    rhs = (C0 * weighted_lp_norm(f1, phi_x, 1.0)
           * weighted_lp_norm(f2, phi_x, p))
    passed = lhs <= rhs * (1.0 + _YOUNG_SLACK)
    return YoungReport(lhs=lhs, rhs=rhs, passed=passed)


def threshold_weight(d: float = 1.0) -> StandardFamily:
    """The critical-growth profile e^{|x|/2} (1+|x|)^{1/2} log(e+|x|)^d.

    This sits exactly at the edge of what the square-root-of-the-kernel
    barrier allows: the exponential factor is the largest certifiable rate
    and the algebraic/log corrections are what make the decay integral of
    the majorant converge — which requires d > 1/2.
    """
    if not d > 0.5:
        raise ValueError(f"log exponent d must exceed 1/2, got {d}")
    return StandardFamily(a=0.5, b=1.0, c=0.5, d=d)
