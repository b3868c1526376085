"""Asymptotic tail profiles: the time-averaged source h, the amplitude
pair (Phi, Psi), and the tail residuals that make the profile statement

    u(x,t) = u0(x) + e^{-x} t [Phi(t) + eps(x,t)]   (x -> +infinity)
    u(x,t) = u0(x) - e^{+x} t [Psi(t) + eps(x,t)]   (x -> -infinity)

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

``ProfileAccumulator(u0)`` is the probe for ``solver.run`` that does all
of this along a run: it holds the datum, its windows and the running
integrals, makes one ``PROFILE_HEADER`` row per snapshot past t = 0, and
gives the reconstruction error against the terminal state.  The run
summary's profile block is read from the rows (``runner.summarize``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .diagnostics import peak_band
from .field import Field, Grid, helmholtz_inverse_dx, source_term

__all__ = [
    "ProfileAccumulator",
    "phi0_psi0",
]

#: Columns of a profile row, as ``profile.csv`` writes them.
PROFILE_HEADER = ("t", "Phi", "Psi", "c1", "c2", "max_eps_plus",
                  "max_eps_minus")

# Automatic-window band for tail residuals, relative to the initial peak.
# The ceiling keeps the window deep in the asymptotic regime; the floor
# keeps it well above the numeric tail floor an evolved field carries
# (masked-band leak, observed around 1e-9 of peak on production grids), so
# that e^{|x|}-weighted residuals measure signal rather than floor.  The
# window is the outer fraction of that band in |x|.
_WINDOW_FLOOR_REL = 1e-7
_WINDOW_CEILING_REL = 1e-4
_WINDOW_OUTER_FRACTION = 0.2

# Crop of the weighted half integrals, relative to the integrand's peak,
# and the largest weighted integrand a band may end on, relative to its
# weighted peak.
_INTEGRAND_FLOOR_REL = 1e-7
_BAND_END_MAX_REL = 1e-2


class ProfileAccumulator:
    """Probe: running trapezoid-in-time integrals H = int F(u) ds and
    UUx = int u u_x ds on the datum's grid, and past t = 0 one
    ``PROFILE_HEADER`` row per snapshot: t, Phi, Psi, the running extremes
    c1 = min and c2 = max of Phi and Psi so far, and the residual extremes
    of ``profile_report`` over the datum's ``windows``.  When the weighted
    integrals are refused (on the datum, or later when the tails leave the
    grid or the noise floor is reached) it keeps the rows collected so
    far, records why they stop in ``error``, and observes no further."""

    columns = ()

    def __init__(self, u0: Field):
        self.u0 = u0
        self.grid = u0.grid
        self.windows = tail_windows(u0)
        self.H = np.zeros(self.grid.N)
        self.UUx = np.zeros(self.grid.N)
        self.t_last = 0.0
        self.n_snapshots = 0
        self._prev_F: Optional[np.ndarray] = None
        self._prev_adv: Optional[np.ndarray] = None
        self.rows: List[Tuple[float, ...]] = []
        self.error: Optional[str] = None
        try:  # the run summary recomputes Phi0 and Psi0 from u0
            phi0_psi0(u0)
        except ValueError as exc:
            self.error = f"profiles stopped at t=0: {exc}"

    def accumulate(self, u: Field, t: float) -> "ProfileAccumulator":
        """Fold in a snapshot at strictly increasing time t."""
        if self.n_snapshots > 0 and not (t > self.t_last):
            raise ValueError(
                f"non-monotone snapshot time {t} (last was {self.t_last})"
            )
        F, adv = self._integrands(u)
        if self.n_snapshots > 0:
            half_dt = 0.5 * (t - self.t_last)
            self.H += half_dt * (self._prev_F + F)
            self.UUx += half_dt * (self._prev_adv + adv)
        self._prev_F = F
        self._prev_adv = adv
        self.t_last = t
        self.n_snapshots += 1
        return self

    def _integrands(self, u: Field) -> Tuple[np.ndarray, np.ndarray]:
        """F(u) from ``source_term`` and (1/2) d/dx (u^2), both with the
        rhs's dealiasing: the package's one dealiased F.  The rhs applies
        the same advection symbol fused with the nonlocal one, so the two
        agree to rounding error, not bit for bit.  The two forward and the
        two inverse transforms are one batched call each."""
        grid = self.grid
        v = u.values
        p = np.fft.rfft(np.stack((source_term(u).values, v * v)))
        p[:, grid._kept_band.stop:] = 0.0
        p[1] *= 0.5 * grid._sym_derivative
        F, adv = np.fft.irfft(p, n=grid.N)
        return F, adv

    def observe(self, state) -> Tuple[()]:
        if self.error is not None:
            return ()
        self.accumulate(state.u, state.t)
        if state.t <= 0.0:
            return ()
        try:
            Phi, Psi = phi_psi(self)
        except ValueError as exc:
            self.error = f"profiles stopped at t={state.t:.6g}: {exc}"
            return ()
        c1, c2 = self.rows[-1][3:5] if self.rows else (math.inf, -math.inf)
        eps_plus, eps_minus = profile_report(self, state.u, (Phi, Psi))
        self.rows.append((state.t, Phi, Psi, min(c1, Phi, Psi),
                          max(c2, Phi, Psi), eps_plus, eps_minus))
        return ()

    def reconstruction_error(self, u: Field) -> Optional[float]:
        """max|reconstruct(self) - u| / max|u| against the run's terminal
        state u; None when the rows stopped before the run did."""
        if self.error is not None or not self.rows:
            return None
        recon = reconstruct(self).values
        return float(np.max(np.abs(recon - u.values))
                     / max(np.max(np.abs(u.values)), 1e-300))


def _weighted_half_integral(values: np.ndarray, grid: Grid,
                            sign: float) -> float:
    """(1/2) int e^{sign * y} values dy by the rectangle rule.

    The integrand is cropped to the contiguous band around the peak of
    |values| where |values| > _INTEGRAND_FLOOR_REL * peak: beyond the first
    crossing the samples are numeric floor, and e^{|y|} times floor would
    swamp the genuine statistic.  The floor must sit above the dealiasing
    mask's leakage floor in evolved fields (about 1e-9 of the peak, growing
    slowly with step count), hence 1e-7; cropping a true exponential tail
    there truncates the weighted integral at relative ~3e-4, and
    faster-decaying tails lose far less.

    The band is refused when its weighted integrand at either end is above
    _BAND_END_MAX_REL of its weighted peak.  At the domain edge that means
    the grid cannot hold this statistic at all; at the crop it means the
    data decay too slowly against the weight for the crop to be harmless,
    and where they decay no faster than the weight grows, the integral the
    crop truncates diverges.
    """
    magnitude = np.abs(values)
    peak = float(magnitude.max())
    if peak == 0.0:
        return 0.0
    left, right = peak_band(magnitude, _INTEGRAND_FLOOR_REL * peak)
    integrand = np.exp(sign * grid.x[left:right + 1]) * values[left:right + 1]
    wpeak = float(np.max(np.abs(integrand)))
    for end, i in ((left, 0), (right, -1)):
        ratio = abs(float(integrand[i])) / wpeak
        if ratio <= _BAND_END_MAX_REL:
            continue
        if end in (0, grid.N - 1):
            raise ValueError(
                "weighted profile integrand is boundary-contaminated "
                f"(edge/peak = {ratio:.2e}); enlarge the domain"
            )
        raise ValueError(
            "weighted profile integrand is cut off at the crop "
            f"(end/peak = {ratio:.2e} at x = {grid.x[end]:.6g}): the data "
            "decay too slowly for the crop to hold the weighted integral"
        )
    return 0.5 * float(np.sum(integrand)) * grid.dx


def phi_psi(acc: ProfileAccumulator) -> Tuple[float, float]:
    """(Phi(t), Psi(t)): e^{+-y}-weighted means of the time average
    h = H / t at t = acc.t_last."""
    if acc.n_snapshots < 2 or not (acc.t_last > 0.0):
        raise ValueError("accumulator has no time interval yet")
    h = acc.H / acc.t_last
    return (
        _weighted_half_integral(h, acc.grid, +1.0),
        _weighted_half_integral(h, acc.grid, -1.0),
    )


def phi0_psi0(u0: Field) -> Tuple[float, float]:
    """(Phi(0), Psi(0)): the t -> 0 limits, i.e. the weighted integrals of
    the raw source F(u0) = ``source_term(u0)``; positive whenever u0 is
    not identically zero.

    F(u0) is not dealiased: the two-thirds mask rings on data with
    derivative kinks, and the exponential weight amplifies that ringing at
    the domain edge.
    """
    F0 = source_term(u0).values
    return (
        _weighted_half_integral(F0, u0.grid, +1.0),
        _weighted_half_integral(F0, u0.grid, -1.0),
    )


def tail_windows(u0: Field) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean masks (plus, minus) of the automatic asymptotic windows.

    Candidates are samples with _WINDOW_FLOOR_REL * peak < |u0| <
    _WINDOW_CEILING_REL * peak on one side (x > 0 for plus, x < 0 for
    minus); each window is the outer _WINDOW_OUTER_FRACTION of its
    candidate band in |x|.  Empty when the tails never enter the band
    (e.g. compactly supported samples that jump straight from O(peak) to
    roundoff, or u0 = 0).
    """
    x = u0.grid.x
    ax = np.abs(x)
    magnitude = np.abs(u0.values)
    peak = float(np.max(magnitude))
    band = ((magnitude > _WINDOW_FLOOR_REL * peak)
            & (magnitude < _WINDOW_CEILING_REL * peak))
    windows = []
    for candidates in (band & (x > 0), band & (x < 0)):
        if candidates.any():
            hi = float(np.max(ax[candidates]))
            lo = float(np.min(ax[candidates]))
            candidates &= ax >= hi - _WINDOW_OUTER_FRACTION * (hi - lo)
        windows.append(candidates)
    return windows[0], windows[1]


def reconstruct(acc: ProfileAccumulator) -> Field:
    """u0 - (G * H)_x - UUx: the accumulated evolution identity.  Matches
    the solver state at acc.t_last up to time-quadrature error."""
    correction = helmholtz_inverse_dx(Field(acc.grid, acc.H)).values
    return Field(acc.grid, acc.u0.values - correction - acc.UUx)


def profile_report(acc: ProfileAccumulator, u: Field,
                   amplitudes: Tuple[float, float]) -> Tuple[float, float]:
    """(max|eps_plus|, max|eps_minus|) of the snapshot u at t = acc.t_last
    over the accumulator's windows (plus, minus), where ``amplitudes`` is
    (Phi(t), Psi(t)) and

        eps_plus  =  e^{x} (u - u0 + UUx)/t - Phi(t),
        eps_minus = -e^{-x} (u - u0 + UUx)/t - Psi(t).

    A side whose window is empty (tails contaminated or below noise)
    reports NaN rather than an error.
    """
    t = acc.t_last
    change = u.values - acc.u0.values + acc.UUx
    extremes = []
    for sign, amplitude, window in zip((1.0, -1.0), amplitudes, acc.windows):
        x = u.grid.x[window]
        eps = sign * np.exp(sign * x) * (change[window] / t) - amplitude
        extremes.append(float(np.max(np.abs(eps))) if x.size else math.nan)
    return extremes[0], extremes[1]
