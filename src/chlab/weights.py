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
``v = phi_{|a|,b,|c|,|d|}`` for arbitrary signs.

Certification here is empirical: the constants ``C0``, ``A`` and ``inf v``
are suprema over seeded uniform samples (plus analytic log-derivatives
where closed forms exist), and each certificate records its sample set so
results reproduce bit-for-bit under a fixed seed.  Evaluations that
overflow float range are reported as ``+inf`` and poison the certificate
rather than silently saturating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

import numpy as np

from .field import Field

__all__ = [
    "Weight",
    "StandardFamily",
    "OneSided",
    "Tabulated",
    "Truncated",
    "CertifyConfig",
    "WeightCertificate",
    "YoungReport",
    "submultiplicative_ratio",
    "moderate_ratio",
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

    def _log_value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_value(self, x):
        arr = self._log_value(np.asarray(x, dtype=float))
        return float(arr) if np.isscalar(x) else arr

    def value(self, x):
        with np.errstate(over="ignore"):
            arr = np.exp(self._log_value(np.asarray(x, dtype=float)))
        return float(arr) if np.isscalar(x) else arr

    def log_derivative(self, x):
        """a.e. value of phi'(x)/phi(x); may be +-inf at isolated points."""
        arr = self._log_derivative(np.asarray(x, dtype=float))
        return float(arr) if np.isscalar(x) else arr

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class StandardFamily(Weight):
    """exp(a|x|^b) (1+|x|)^c log(e+|x|)^d with closed-form log-derivative."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"exponent b must be >= 0, got {self.b}")

    @property
    def certifiable(self) -> bool:
        """Sub-multiplicativity/moderateness claims require 0 <= b <= 1."""
        return 0.0 <= self.b <= 1.0

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

    def _log_value(self, x):
        return self.a * np.maximum(x, 0.0)

    def _log_derivative(self, x):
        return self.a * (x > 0.0).astype(float)

    def __str__(self):
        return f"exp({self.a}*max(x,0))"


@dataclass(frozen=True, eq=False)
class Tabulated(Weight):
    """Weight given by strictly positive samples on a grid, linearly
    interpolated between nodes; evaluation outside the tabulated range is a
    domain error.  Equality is identity (the fields are arrays)."""

    x: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if x.ndim != 1 or x.shape != samples.shape or x.size < 2:
            raise ValueError("tabulated weight needs matching 1-d x and samples")
        if not np.all(np.diff(x) > 0):
            raise ValueError("tabulated x must be strictly increasing")
        if not np.all(samples > 0):
            raise ValueError("tabulated weight samples must be strictly positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "samples", samples)

    def _check_domain(self, x):
        if np.any(x < self.x[0]) or np.any(x > self.x[-1]):
            raise ValueError(
                f"tabulated weight evaluated outside [{self.x[0]}, {self.x[-1]}]"
            )

    def _log_value(self, x):
        self._check_domain(x)
        return np.log(np.interp(x, self.x, self.samples))

    def _log_derivative(self, x):
        self._check_domain(x)
        grad = np.gradient(self.samples, self.x)
        return np.interp(x, self.x, grad) / np.interp(x, self.x, self.samples)

    def __str__(self):
        return f"tabulated[{self.x[0]}, {self.x[-1]}] ({self.x.size} nodes)"


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


def submultiplicative_ratio(v: Weight, x, y):
    """v(x+y) / (v(x) v(y)), evaluated in log space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(v._log_value(x + y) - v._log_value(x) - v._log_value(y))
    return float(out) if out.ndim == 0 else out


def moderate_ratio(phi: Weight, v: Weight, x, y):
    """phi(x+y) / (v(x) phi(y)), evaluated in log space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(phi._log_value(x + y) - v._log_value(x) - phi._log_value(y))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs for empirical weight certification.

    The admissibility integral of v(x) e^{-|x|} runs adaptive trapezoid
    quadrature on [-R, R] with R doubling from ``quad_range0`` until the
    increment drops below ``quad_tol`` or ``max_doublings`` is exhausted
    (then the integral is reported divergent — the correct verdict for
    weights growing at least like e^{|x|}).  Each fixed-R integral is
    refined by uniform halving until successive trapezoid values differ by
    less than ``quad_inner_tol``.
    """

    sample_range: float = 32.0
    sample_count: int = 20000
    seed: int = 0
    p_values: Tuple[float, ...] = (2.0, math.inf)
    quad_range0: float = 32.0
    quad_tol: float = 1e-10
    quad_inner_tol: float = 1e-9
    max_doublings: int = 12


@dataclass
class WeightCertificate:
    """Empirical admissibility certificate; all constants are suprema over
    the recorded sample set (range, count, seed), so certificates reproduce
    bit-for-bit."""

    C0: float
    A: float
    inf_v: float
    integral_v_exp: float
    lp_v_exp: Dict[float, float]
    admissible: bool
    sample_range: float
    sample_count: int
    seed: int
    v_submultiplicative_ratio: float
    quadrature_converged: bool
    quadrature_range: float
    overflowed: bool

    def as_record(self) -> dict:
        """JSON-compatible key/value record."""
        return {
            "C0": self.C0,
            "A": self.A,
            "inf_v": self.inf_v,
            "integral_v_exp": self.integral_v_exp,
            "lp_v_exp": {str(p): val for p, val in self.lp_v_exp.items()},
            "admissible": self.admissible,
            "sample_range": self.sample_range,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "v_submultiplicative_ratio": self.v_submultiplicative_ratio,
            "quadrature_converged": self.quadrature_converged,
            "quadrature_range": self.quadrature_range,
            "overflowed": self.overflowed,
        }


def _trapezoid_refined(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       tol: float, n0: int = 129, max_halvings: int = 18) -> float:
    """Composite trapezoid on [lo, hi], uniformly refined until successive
    values differ by < tol; returns the finest value (+inf on overflow)."""
    xs = np.linspace(lo, hi, n0)
    ys = f(xs)
    if not np.all(np.isfinite(ys)):
        return math.inf
    h = (hi - lo) / (n0 - 1)
    total = h * (np.sum(ys) - 0.5 * (ys[0] + ys[-1]))
    for _ in range(max_halvings):
        mids = 0.5 * (xs[:-1] + xs[1:])
        fm = f(mids)
        if not np.all(np.isfinite(fm)):
            return math.inf
        refined = 0.5 * total + 0.5 * h * np.sum(fm)
        done = abs(refined - total) < tol
        xs = np.sort(np.concatenate([xs, mids]))
        h *= 0.5
        total = refined
        if done:
            break
    return float(total)


def _integral_with_doubling(
    f: Callable[[np.ndarray], np.ndarray], config: CertifyConfig
) -> Tuple[float, bool, float]:
    """integral of f over the line: adaptive trapezoid on [-R, R] with R
    doubling until the increment is below quad_tol.  The integrand is split
    at 0 (weights usually kink there).  Returns (value, converged, R)."""
    R = config.quad_range0
    total = _trapezoid_refined(f, -R, 0.0, config.quad_inner_tol) + _trapezoid_refined(
        f, 0.0, R, config.quad_inner_tol
    )
    converged = False
    for _ in range(config.max_doublings):
        if not math.isfinite(total):
            break
        increment = _trapezoid_refined(
            f, -2 * R, -R, config.quad_inner_tol
        ) + _trapezoid_refined(f, R, 2 * R, config.quad_inner_tol)
        R *= 2
        total += increment
        if math.isfinite(increment) and abs(increment) < config.quad_tol:
            converged = True
            break
    if not converged:
        total = math.inf
    return total, converged, R


def certify_admissible(
    phi: Weight, v: Weight, config: CertifyConfig = CertifyConfig()
) -> WeightCertificate:
    """Empirical admissibility certificate for phi with majorant v.

    Checks, over the seeded sample set and by quadrature:
    its log-derivative bound A = sup |phi'|/phi, moderateness constant
    C0 = sup phi(x+y)/(v(x)phi(y)), inf v, sub-multiplicativity of v, and
    the decay integral of v(x) e^{-|x|} (divergence reported honestly —
    e.g. v = e^{|x|} diverges but still offers the L^infinity route since
    sup v(x) e^{-|x|} = 1).  The L^p norms of v(x) e^{-|x|} are computed
    for each requested p.
    """
    rng = np.random.default_rng(config.seed)
    pairs = rng.uniform(
        -config.sample_range, config.sample_range, size=(config.sample_count, 2)
    )
    singles = rng.uniform(
        -config.sample_range, config.sample_range, size=config.sample_count
    )

    xs, ys = pairs[:, 0], pairs[:, 1]
    C0 = float(np.max(moderate_ratio(phi, v, xs, ys)))
    sub_ratio = float(np.max(submultiplicative_ratio(v, xs, ys)))
    A = float(np.max(np.abs(phi.log_derivative(singles))))
    v_vals = v.value(singles)
    inf_v = float(np.min(v_vals))
    overflowed = bool(
        not np.all(np.isfinite(v_vals))
        or not math.isfinite(C0)
        or not math.isfinite(sub_ratio)
    )

    def integrand(x):
        with np.errstate(over="ignore"):
            return np.exp(v._log_value(x) - np.abs(x))

    integral, converged, R_final = _integral_with_doubling(integrand, config)

    lp: Dict[float, float] = {}
    for p in config.p_values:
        if math.isinf(p):
            # dense scan: linear resolution near the origin plus a
            # geometric extension out to the maximal quadrature range
            R_max = config.quad_range0 * 2**config.max_doublings
            near = np.linspace(0.0, config.quad_range0, 65537)
            far = config.quad_range0 * 2 ** np.linspace(0.0, config.max_doublings, 8193)
            grid = np.concatenate([-far[::-1], -near[::-1], near, far])
            grid = grid[np.abs(grid) <= R_max]
            with np.errstate(over="ignore"):
                lp[p] = float(np.max(np.exp(v._log_value(grid) - np.abs(grid))))
        else:
            def integrand_p(x, p=p):
                with np.errstate(over="ignore"):
                    return np.exp(p * (v._log_value(x) - np.abs(x)))

            val, conv_p, _ = _integral_with_doubling(integrand_p, config)
            lp[p] = float(val ** (1.0 / p)) if conv_p else math.inf

    admissible = (
        inf_v > 0
        and math.isfinite(A)
        and math.isfinite(C0)
        and math.isfinite(sub_ratio)
        and converged
        and math.isfinite(integral)
        and not overflowed
    )
    return WeightCertificate(
        C0=C0,
        A=A,
        inf_v=inf_v,
        integral_v_exp=integral,
        lp_v_exp=lp,
        admissible=admissible,
        sample_range=config.sample_range,
        sample_count=config.sample_count,
        seed=config.seed,
        v_submultiplicative_ratio=sub_ratio,
        quadrature_converged=converged,
        quadrature_range=R_final,
        overflowed=overflowed,
    )


def weighted_lp_norm(u: Field, phi: Union[Weight, np.ndarray],
                     p: float) -> float:
    """Rectangle-rule weighted norm: (sum |u_i phi(x_i)|^p dx)^(1/p), or
    max_i |u_i phi(x_i)| for p = infinity; evaluated with max-rescaling so
    large p does not overflow.  ``phi`` is the weight, or its samples
    phi(x_i) on u's grid when the caller evaluates it once for many norms."""
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    phi_x = phi if isinstance(phi, np.ndarray) else phi.value(u.grid.x)
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
    ||(f1 * f2) phi||_p <= C0 ||f1 v||_1 ||f2 phi||_p."""

    lhs: float
    rhs: float
    passed: bool
    slack: float


def check_weighted_young(
    f1: Field,
    f2: Field,
    v: Weight,
    phi: Weight,
    p: float,
    C0: float,
    slack: float = 1e-9,
) -> YoungReport:
    """Check ||(f1*f2) phi||_p <= C0 ||f1 v||_1 ||f2 phi||_p on the grid.

    The discrete inequality is exact (up to roundoff, covered by the
    relative ``slack``) whenever both fields are supported well inside the
    domain, so the moderateness inequality applies to every unwrapped pair
    of grid points entering the circular convolution.
    """
    from .field import convolve

    if f1.grid is not f2.grid and f1.grid != f2.grid:
        raise ValueError("fields must share a grid")
    lhs = weighted_lp_norm(convolve(f1, f2), phi, p)
    rhs = C0 * weighted_lp_norm(f1, v, 1.0) * weighted_lp_norm(f2, phi, p)
    passed = lhs <= rhs * (1.0 + slack)
    return YoungReport(lhs=lhs, rhs=rhs, passed=passed, slack=slack)


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
