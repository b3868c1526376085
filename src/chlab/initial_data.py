"""Initial-data families for the solver scenarios.

Each closed-form datum states its formula once, as ``sample(x)``, and
inherits ``InitialData.build(grid)``, which samples it on the grid.
``FromPotential`` alone builds otherwise: u0 = G * m0, with m0 sampled from
a potential shape (``Gaussian`` serves as one too).

Everything here is sampled from closed forms (no FFT-based smoothing):
the mollified exponential e^{-a|.|} * N_w (N_w a Gaussian density of
standard deviation w) evaluates via scaled complementary error functions,
which keeps the far tails exact in relative terms.  FFT smoothing would
leave a ~1e-16 * peak noise floor that the e^{|x|}-weighted tail
diagnostics amplify beyond any signal.

The closed form: with z = (a w^2 -+ x) / (w sqrt(2)),

    (e^{-a|.|} * N_w)(x) = I_plus + I_minus,
    I_plus  = (1/2) e^{a^2 w^2 / 2 - a x} erfc((a w^2 - x)/(w sqrt(2))),
    I_minus = (1/2) e^{a^2 w^2 / 2 + a x} erfc((a w^2 + x)/(w sqrt(2))),

evaluated as (1/2) erfcx(z) e^{-x^2/(2 w^2)} whenever z >= 0 (the
exponents cancel exactly), and directly otherwise (where the plain form
cannot overflow).  The derivative is -a (I_plus - I_minus): the Gaussian
boundary terms cancel.

Both special functions are evaluated with numpy and the standard library
alone.  erfc is the C library's ``math.erfc``, mapped over the array.
erfcx(z) is e^{z^2} erfc(z) for 0 <= z < 26, with z^2 split into an
exactly squared high part and a small low part so that the exponential
sees no rounding of z^2; from z = 26 on it is the asymptotic series
1/(z sqrt(pi)) sum_k (-1)^k (2k-1)!!/(2z^2)^k (Abramowitz & Stegun
7.1.23), to k = 10.  Against 40-digit references the relative error is
at most 4.4e-16 for erfcx on [0, 1e6] and 3.5e-16 for erfc on [-30, 26].

A mollified peakon is c times the a=1 smoothed exponential, equivalently
G * (2c N_w) — the kernel applied to a mollified point mass — so it lies
in the smooth class the persistence and profile statements assume, while
converging to the peakon as w -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .field import Field, Grid, helmholtz_inverse

__all__ = [
    "MollifiedPeakon",
    "MollifiedExponential",
    "Gaussian",
    "OddGaussianDerivative",
    "TanhGaussianShape",
    "FromPotential",
    "InitialData",
]


_erfc_ufunc = np.frompyfunc(math.erfc, 1, 1)

#: Below this argument erfcx is e^{z^2} erfc(z) with both factors normal
#: doubles (erfc(26) ~ 5.7e-296); from it on, the asymptotic series.
_ERFCX_SERIES_FROM = 26.0
#: (-1)^k (2k-1)!! for k = 0..10: the terms of erfcx(z) z sqrt(pi) in
#: powers of 1/(2 z^2) (Abramowitz & Stegun 7.1.23).  At z = 26 the first
#: omitted term is below 1e-24.
_ERFCX_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2))
                      for k in range(11))


def _erfc(z: np.ndarray) -> np.ndarray:
    """erfc, elementwise: the C library's, through ``math.erfc``."""
    return _erfc_ufunc(z).astype(float)


def _erfcx(z: np.ndarray) -> np.ndarray:
    """The scaled complementary error function e^{z^2} erfc(z), for z >= 0."""
    out = np.empty_like(z)
    near = z < _ERFCX_SERIES_FROM
    zn = z[near]
    # z^2 = hi^2 + lo with hi = z to 12 fractional bits: hi^2 is exact (at
    # most 34 significant bits), so e^{z^2} carries no rounding of z^2
    hi = np.floor(zn * 4096.0) / 4096.0
    lo = (zn - hi) * (zn + hi)
    out[near] = np.exp(hi * hi) * np.exp(lo) * _erfc(zn)
    zf = z[~near]
    y = 0.5 / zf / zf
    series = np.zeros_like(zf)
    for coefficient in reversed(_ERFCX_SERIES):
        series = series * y + coefficient
    out[~near] = series / (math.sqrt(math.pi) * zf)
    return out


def _half_branch(x: np.ndarray, a: float, w: float) -> np.ndarray:
    """I_plus(x) = (1/2) e^{a^2 w^2/2 - a x} erfc((a w^2 - x)/(w sqrt(2))),
    evaluated overflow-free on both sides of z = 0."""
    z = (a * w * w - x) / (w * math.sqrt(2.0))
    out = np.empty_like(x)
    stable = z >= 0.0
    # erfcx(z) e^{-x^2/(2w^2)}: the huge e^{a^2w^2/2 - ax} cancels exactly
    out[stable] = 0.5 * _erfcx(z[stable]) * np.exp(
        -x[stable] ** 2 / (2.0 * w * w)
    )
    direct = ~stable
    out[direct] = (
        0.5
        * np.exp(a * a * w * w / 2.0 - a * x[direct])
        * _erfc(z[direct])
    )
    return out


def smoothed_exponential(
    x: np.ndarray, rate: float, width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(e^{-rate |.|} * N_width)(x) and its derivative, from closed forms.

    Converges pointwise to e^{-rate |x|} as width -> 0; always smooth and
    even, with value slightly below 1 at the origin and tails inflated by
    the factor e^{rate^2 width^2 / 2}.
    """
    if rate <= 0:
        raise ValueError(f"decay rate must be positive, got {rate}")
    if width <= 0:
        raise ValueError(f"mollification width must be positive, got {width}")
    x = np.asarray(x, dtype=float)
    plus = _half_branch(x, rate, width)
    minus = _half_branch(-x, rate, width)
    return plus + minus, -rate * (plus - minus)


class InitialData:
    """Base: subclasses are small dataclasses, each stating its closed form
    once as ``sample(x)``; ``FromPotential`` builds through the kernel."""

    def build(self, grid: Grid) -> Field:
        return Field(grid, self.sample(grid.x))


def _require_positive(params, *names: str) -> None:
    """Reject a non-positive length scale: a zero one divides by zero, and
    a negative one restates a positive one under another config hash."""
    for name in names:
        value = getattr(params, name)
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class MollifiedPeakon(InitialData):
    """c * (e^{-|.-x0|} * N_w): the smooth stand-in for a peakon used for
    time integration (raw kinked peakons are only operator-check data)."""

    c: float = 1.0
    x0: float = 0.0
    mollify_width: float = 0.05

    def __post_init__(self):
        _require_positive(self, "mollify_width")

    def sample(self, x: np.ndarray) -> np.ndarray:
        values, _ = smoothed_exponential(x - self.x0, 1.0, self.mollify_width)
        return self.c * values


@dataclass(frozen=True)
class MollifiedExponential(InitialData):
    """amplitude * (e^{-rate|.-center|} * N_w): exponential data with an
    addressable decay rate, for sweeps across the critical rate 1."""

    amplitude: float = 1.0
    rate: float = 1.0
    center: float = 0.0
    mollify_width: float = 0.05

    def __post_init__(self):
        _require_positive(self, "rate", "mollify_width")

    def sample(self, x: np.ndarray) -> np.ndarray:
        values, _ = smoothed_exponential(x - self.center, self.rate,
                                         self.mollify_width)
        return self.amplitude * values


@dataclass(frozen=True)
class Gaussian(InitialData):
    """amplitude * exp(-((x - center)/width)^2): a datum, and a potential
    shape for ``FromPotential``."""

    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        _require_positive(self, "width")

    def sample(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.center) / self.width
        return self.amplitude * np.exp(-z * z)


@dataclass(frozen=True)
class OddGaussianDerivative(InitialData):
    """-amplitude * x * exp(-(x/width)^2): odd data, slope -amplitude at the
    origin, Gaussian-fast decay (the steep-odd breakdown configuration)."""

    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        _require_positive(self, "width")

    def sample(self, x: np.ndarray) -> np.ndarray:
        z = x / self.width
        return -self.amplitude * x * np.exp(-z * z)


@dataclass(frozen=True)
class TanhGaussianShape:
    """tanh(x/slope_width) * exp(-(x/envelope_width)^2): odd, one sign
    change from negative to positive at the origin."""

    amplitude: float = 1.0
    slope_width: float = 1.0
    envelope_width: float = 10.0

    def __post_init__(self):
        _require_positive(self, "slope_width", "envelope_width")

    def sample(self, x: np.ndarray) -> np.ndarray:
        return (self.amplitude * np.tanh(x / self.slope_width)
                * np.exp(-((x / self.envelope_width) ** 2)))


@dataclass(frozen=True)
class FromPotential(InitialData):
    """u0 = G * m0 for a prescribed potential shape m0 = u0 - u0'' — the
    way to guarantee a sign pattern of the potential exactly."""

    m0: Union[Gaussian, TanhGaussianShape]

    def build(self, grid: Grid) -> Field:
        m_field = Field(grid, self.m0.sample(grid.x))
        return helmholtz_inverse(m_field)

