"""Asymptotic tail profiles: the time-averaged source h, the amplitude
pair (Phi, Psi), and the tail residuals that make the profile statement

    u(x,t) = u0(x) - e^{-x} t [Phi(t) + eps(x,t)]   (x -> +infinity)
    u(x,t) = u0(x) + e^{+x} t [Psi(t) + eps(x,t)]   (x -> -infinity)

checkable on a finite grid.  Here h(x,t) = (1/t) int_0^t F(u)(x,s) ds with
F(u) = u^2 + (1/2) u_x^2, and

    Phi(t) = (1/2) int e^{y} h(y,t) dy,
    Psi(t) = (1/2) int e^{-y} h(y,t) dy.

The accumulator also integrates the advection term, so the evolution
identity u(t) = u0 - (G * int F)_x - int u u_x (time-trapezoid over the
snapshots) can be checked against the solver state directly; both running
integrals use the rhs's symbols and dealiasing (the rhs fuses them, so
they agree with it to rounding), leaving time quadrature as the only
error source.  F reads u_x from the snapshot's Field, where the solver
already computed it.

The limit x -> infinity is operationalized as an automatic window: samples
where |u0| sits between 10x the spectral noise floor and the contamination
threshold, restricted to the outer fraction of that band.  Inside it the
residual eps(x,t) = e^{x}(u - u0 + UUx)/t - Phi(t) must be small compared
to Phi; the advection correction UUx is subtracted explicitly since at
finite x it is merely bounded, not negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .diagnostics import peak_band
from .field import Field, Grid, helmholtz_inverse_dx, source_term

__all__ = [
    "ProfileAccumulator",
    "ProfileReport",
    "TailReference",
    "phi_psi",
    "phi0_psi0",
    "tail_window",
    "tail_residual",
    "tail_remainder",
    "reconstruct",
    "profile_bounds_check",
]

# Automatic-window band for tail residuals, relative to the initial peak.
# The ceiling keeps the window deep in the asymptotic regime; the floor
# keeps it well above the numeric tail floor an evolved field carries
# (masked-band leak, observed around 1e-9 of peak on production grids), so
# that e^{|x|}-weighted residuals measure signal rather than floor.
_WINDOW_FLOOR_REL = 1e-7
_WINDOW_CEILING_REL = 1e-4


def _advection_term(u: Field, dealias: bool) -> np.ndarray:
    """(1/2) d/dx (u^2) with the rhs's dealiasing.  The rhs applies the
    same symbol fused with the nonlocal one, so the two agree to rounding
    error, not bit for bit."""
    grid = u.grid
    u2_hat = np.fft.rfft(u.values * u.values)
    if dealias:
        u2_hat = u2_hat * grid._dealias_keep
    return np.fft.irfft(0.5 * grid._sym_derivative * u2_hat, n=grid.N)


class ProfileAccumulator:
    """Running trapezoid-in-time integrals H = int F(u) ds and
    UUx = int u u_x ds on the run's grid, fed by the snapshot observer."""

    def __init__(self, grid: Grid, dealias: bool = True):
        self.grid = grid
        self.dealias = dealias
        self.H = np.zeros(grid.N)
        self.UUx = np.zeros(grid.N)
        self.t_last = 0.0
        self.n_snapshots = 0
        self._prev_F: Optional[np.ndarray] = None
        self._prev_adv: Optional[np.ndarray] = None

    def accumulate(self, u: Field, t: float) -> "ProfileAccumulator":
        """Fold in a snapshot at strictly increasing time t."""
        if self.n_snapshots > 0 and not (t > self.t_last):
            raise ValueError(
                f"non-monotone snapshot time {t} (last was {self.t_last})"
            )
        F = source_term(u, dealias=self.dealias).values
        adv = _advection_term(u, self.dealias)
        if self.n_snapshots > 0:
            half_dt = 0.5 * (t - self.t_last)
            self.H += half_dt * (self._prev_F + F)
            self.UUx += half_dt * (self._prev_adv + adv)
        self._prev_F = F
        self._prev_adv = adv
        self.t_last = t
        self.n_snapshots += 1
        return self

    def h(self, t: float) -> np.ndarray:
        """The time average h = H / t at the accumulator's current time."""
        self._require_time(t)
        return self.H / t

    def _require_time(self, t: float) -> None:
        if self.n_snapshots < 2 or not (t > 0.0):
            raise ValueError("accumulator has no time interval yet")
        if not math.isclose(t, self.t_last, rel_tol=1e-12, abs_tol=1e-15):
            raise ValueError(
                f"profile query at t={t} but accumulator is at t={self.t_last}"
            )


def _weighted_half_integral(values: np.ndarray, grid: Grid, sign: float,
                            floor_rel: float = 1e-7) -> float:
    """(1/2) int e^{sign * y} values dy by the rectangle rule.

    The integrand is cropped to the contiguous band around the peak of
    |values| where |values| > floor_rel * peak: beyond the first crossing
    the samples are numeric floor, and e^{|y|} times floor would swamp the
    genuine statistic.  The floor must sit above the dealiasing mask's
    leakage floor in evolved fields (about 1e-9 of the peak, growing
    slowly with step count), hence 1e-7; cropping a true exponential tail
    there truncates the weighted integral at relative ~3e-4, and
    faster-decaying tails lose far less.

    When the band reaches the domain edge a contamination guard applies:
    a weighted integrand still within two orders of magnitude of its peak
    at the edge means the grid cannot hold this statistic at all.
    """
    magnitude = np.abs(values)
    peak = float(magnitude.max())
    if peak == 0.0:
        return 0.0
    left, right = peak_band(magnitude, floor_rel * peak)
    band = slice(left, right + 1)
    integrand = np.exp(sign * grid.x[band]) * values[band]
    if left == 0 or right == magnitude.size - 1:
        wpeak = float(np.max(np.abs(integrand)))
        edge = max(abs(float(integrand[0])), abs(float(integrand[-1])))
        if wpeak > 0.0 and edge > 1e-2 * wpeak:
            raise ValueError(
                "weighted profile integrand is boundary-contaminated "
                f"(edge/peak = {edge / wpeak:.2e}); enlarge the domain"
            )
    return 0.5 * float(np.sum(integrand)) * grid.dx


def phi_psi(acc: ProfileAccumulator, t: float) -> Tuple[float, float]:
    """(Phi(t), Psi(t)): e^{+-y}-weighted means of h at the current time."""
    h = acc.h(t)
    return (
        _weighted_half_integral(h, acc.grid, +1.0),
        _weighted_half_integral(h, acc.grid, -1.0),
    )


def phi0_psi0(u0: Field, dealias: bool = False) -> Tuple[float, float]:
    """(Phi(0), Psi(0)): the t -> 0 limits, i.e. the weighted integrals of
    F(u0) itself; positive whenever u0 is not identically zero.

    Dealiasing is off by default: the two-thirds mask rings on data with
    derivative kinks, and the exponential weight amplifies that ringing at
    the domain edge.  For smooth band-limited data the two settings agree.
    """
    F0 = source_term(u0, dealias=dealias).values
    return (
        _weighted_half_integral(F0, u0.grid, +1.0),
        _weighted_half_integral(F0, u0.grid, -1.0),
    )


def tail_window(
    u0: Field,
    side: str,
    floor_rel: float = _WINDOW_FLOOR_REL,
    ceiling_rel: float = _WINDOW_CEILING_REL,
    outer_fraction: float = 0.2,
) -> np.ndarray:
    """Boolean mask of the automatic asymptotic window on one side.

    Candidates are samples with floor_rel * peak < |u0| < ceiling_rel *
    peak on the requested side (x > 0 for 'plus', x < 0 for 'minus'); the
    window is the outer ``outer_fraction`` of the candidate band in |x|.
    Empty when the tails never enter the band (e.g. compactly supported
    samples that jump straight from O(peak) to roundoff).
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    x = u0.grid.x
    magnitude = np.abs(u0.values)
    peak = float(np.max(magnitude))
    if peak == 0.0:
        return np.zeros(u0.grid.N, dtype=bool)
    candidates = (
        (magnitude > floor_rel * peak)
        & (magnitude < ceiling_rel * peak)
        & ((x > 0) if side == "plus" else (x < 0))
    )
    if not candidates.any():
        return candidates
    ax = np.abs(x)
    hi = float(np.max(ax[candidates]))
    lo = float(np.min(ax[candidates]))
    inner_cut = hi - outer_fraction * (hi - lo)
    return candidates & (ax >= inner_cut)


@dataclass(frozen=True, eq=False)
class TailReference:
    """What the tail statistics use of the initial datum u0, fixed for a
    run: (Phi(0), Psi(0)) and the automatic window on each side."""

    u0: Field
    Phi0: float
    Psi0: float
    window_plus: np.ndarray
    window_minus: np.ndarray

    @classmethod
    def of(cls, u0: Field) -> "TailReference":
        Phi0, Psi0 = phi0_psi0(u0)
        return cls(u0, Phi0, Psi0, tail_window(u0, "plus"),
                   tail_window(u0, "minus"))


def tail_residual(
    acc: ProfileAccumulator,
    u: Field,
    reference: TailReference,
    t: float,
    side: str,
    amplitude: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(x, eps(x,t)) over the automatic window on the requested side.

    side 'plus':  eps = e^{x} (u - u0 + UUx)/t - Phi(t)
    side 'minus': eps = -e^{-x} (u - u0 + UUx)/t - Psi(t)

    ``amplitude`` is Phi(t) for 'plus' and Psi(t) for 'minus', as
    ``phi_psi`` gives them at t.  An empty window (tails contaminated or
    below noise) is returned as empty arrays rather than an error: the
    caller reports it explicitly.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    acc._require_time(t)
    window = reference.window_plus if side == "plus" else reference.window_minus
    x = u.grid.x[window]
    if x.size == 0:
        return x, x
    drift = (u.values - reference.u0.values + acc.UUx)[window] / t
    if side == "plus":
        eps = np.exp(x) * drift - amplitude
    else:
        eps = -np.exp(-x) * drift - amplitude
    return x, eps


def tail_remainder(
    acc: ProfileAccumulator, t: float, side: str = "plus"
) -> Tuple[np.ndarray, np.ndarray]:
    """(x, R(x)) with R(x) = int_x^{edge} e^{+-y} h(y,t) dy over the
    requested half-line: the dominated-convergence bracket that must
    decrease monotonically in |x| (its integrand is nonnegative up to
    roundoff)."""
    h = acc.h(t)
    x = acc.grid.x
    if side == "plus":
        mask = x > 0
        integrand = np.exp(x[mask]) * h[mask]
        suffix = np.cumsum(integrand[::-1])[::-1] * acc.grid.dx
        return x[mask], suffix
    if side == "minus":
        mask = x < 0
        integrand = np.exp(-x[mask]) * h[mask]
        suffix = np.cumsum(integrand) * acc.grid.dx
        return x[mask], suffix
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def reconstruct(acc: ProfileAccumulator, u0: Field) -> Field:
    """u0 - (G * H)_x - UUx: the accumulated evolution identity.  Matches
    the solver state at acc.t_last up to time-quadrature error."""
    correction = helmholtz_inverse_dx(Field(acc.grid, acc.H)).values
    return Field(acc.grid, u0.values - correction - acc.UUx)


@dataclass(frozen=True)
class ProfileReport:
    """One profile observation row plus its residual tables."""

    t: float
    Phi: float
    Psi: float
    Phi0: float
    Psi0: float
    residual_plus: Tuple[np.ndarray, np.ndarray]
    residual_minus: Tuple[np.ndarray, np.ndarray]
    window_plus: Tuple[float, float]
    window_minus: Tuple[float, float]
    c1: float
    c2: float

    @property
    def max_eps_plus(self) -> float:
        _, eps = self.residual_plus
        return float(np.max(np.abs(eps))) if eps.size else math.nan

    @property
    def max_eps_minus(self) -> float:
        _, eps = self.residual_minus
        return float(np.max(np.abs(eps))) if eps.size else math.nan


def profile_bounds_check(
    amplitudes: Sequence[Tuple[float, float]]
) -> Tuple[float, float, bool]:
    """(c1, c2, passed) over a series of (Phi, Psi) pairs: c1 the smallest
    and c2 the largest amplitude seen; passes iff c1 > 0 (the two-sided
    time-uniform positivity that pins the tail profiles)."""
    if not amplitudes:
        raise ValueError("no amplitude samples")
    lows = [min(phi, psi) for phi, psi in amplitudes]
    highs = [max(phi, psi) for phi, psi in amplitudes]
    c1 = float(min(lows))
    c2 = float(max(highs))
    return c1, c2, c1 > 0.0


def profile_report(
    acc: ProfileAccumulator,
    u: Field,
    reference: TailReference,
    t: float,
    amplitude_series: Sequence[Tuple[float, float]],
) -> ProfileReport:
    """Assemble the full profile observation at time t.

    ``amplitude_series`` is the (Phi, Psi) history collected so far; its
    last pair is the one at t.  Empty residual windows surface as empty
    arrays / NaN extremes.
    """
    Phi, Psi = amplitude_series[-1]
    c1, c2, _ = profile_bounds_check(amplitude_series)

    def _window_span(xs: np.ndarray) -> Tuple[float, float]:
        if xs.size == 0:
            return (math.nan, math.nan)
        return (float(xs.min()), float(xs.max()))

    residual_plus = tail_residual(acc, u, reference, t, "plus", Phi)
    residual_minus = tail_residual(acc, u, reference, t, "minus", Psi)
    return ProfileReport(
        t=t,
        Phi=Phi,
        Psi=Psi,
        Phi0=reference.Phi0,
        Psi0=reference.Psi0,
        residual_plus=residual_plus,
        residual_minus=residual_minus,
        window_plus=_window_span(residual_plus[0]),
        window_minus=_window_span(residual_minus[0]),
        c1=c1,
        c2=c2,
    )
