"""Periodic grid and spectral operators for the nonlocal Camassa-Holm system.

The evolution studied throughout this package is the nonlocal form

    u_t + u u_x + (G * F(u))_x = 0,        F(u) = u^2 + u_x^2 / 2,

with G(x) = exp(-|x|)/2 the Green's function of the Helmholtz operator
(1 - d_xx).  This module provides the spatial machinery: Fourier
differentiation, the Helmholtz solve G*, its gradient (G*)_x, the quadratic
source F(u), the momentum density m = u - u_xx and its inverse, plus exact
reference profiles (peakons), small structural helpers (reflection,
grid-aligned shifts, discrete line convolution), and the integrals the
run log records (mass, energy) with its slope monitor.  A Field carries its
samples, its spectrum and its spectral derivative, each computed once on
first use, so the solver and the diagnostics share one set of transforms.

The line is truncated to a periodic box [-L, L).  Every reference scenario
uses data decaying at least exponentially, so for L >= 20 the mismatch
between the line kernels and their periodizations sits far below the
tolerances asserted in the tests.  All Fourier symbols are diagonal in the
real FFT basis with wavenumbers k_j = pi j / L:

    derivative              i k            (Nyquist mode zeroed)
    helmholtz_inverse       1 / (1 + k^2)
    helmholtz_inverse_dx    i k / (1 + k^2)  (Nyquist mode zeroed)
    momentum_of             1 + k^2

so ``helmholtz_inverse_dx == derivative o helmholtz_inverse`` and
``momentum_of o helmholtz_inverse == id`` hold to rounding error by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "derivative",
    "helmholtz_inverse",
    "helmholtz_inverse_dx",
    "source_term",
    "momentum_of",
    "peakon",
    "convolve",
    "reflect",
    "shift_samples",
    "integral",
    "energy",
    "min_slope",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L): x_i = -L + i dx with dx = 2L/N.

    N is required to be a power of two (and at least 64) so transform sizes
    stay fast and grid-doubling studies are exact.
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        if not self.L > 0:
            raise ValueError(f"grid half-width must be positive, got L={self.L!r}")
        n = int(self.N)
        if n != self.N or n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 64, got N={self.N!r}")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def k(self) -> np.ndarray:
        """Real-FFT wavenumbers pi j / L, j = 0 .. N/2."""
        return (np.pi / self.L) * np.arange(self.N // 2 + 1)

    # Fourier symbols, cached once per grid.

    @cached_property
    def _sym_derivative(self) -> np.ndarray:
        sym = 1j * self.k
        sym[-1] = 0.0  # the Nyquist mode has no well-defined odd derivative
        return sym

    @cached_property
    def _sym_helmholtz(self) -> np.ndarray:
        return 1.0 / (1.0 + self.k**2)

    @cached_property
    def _sym_helmholtz_dx(self) -> np.ndarray:
        return self._sym_derivative * self._sym_helmholtz

    @cached_property
    def _sym_momentum(self) -> np.ndarray:
        return 1.0 + self.k**2

    @cached_property
    def _kept_band(self) -> slice:
        """The modes j <= N/3 the 2/3 rule keeps, as an rfft slice; the
        solver, ``dealias_values`` and the profile integrands zero the rest."""
        return slice(0, self.N // 3 + 1)

    @cached_property
    def _sym_rhs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fused output symbols (A, B) of the evolution's right-hand side,
        rhs^ = A (u^2)^ + B (u_x^2)^: the advection -(1/2) ik (u^2)^ and
        the nonlocal term -ik/(1+k^2) (u^2 + u_x^2/2)^ in one pair."""
        a = -(0.5 * self._sym_derivative + self._sym_helmholtz_dx)
        b = -0.5 * self._sym_helmholtz_dx
        return a, b

    def dealias_values(self, values: np.ndarray) -> np.ndarray:
        """Project sample values onto the 2/3-rule band."""
        spectrum = np.fft.rfft(values)
        spectrum[self._kept_band.stop:] = 0.0
        return np.fft.irfft(spectrum, n=self.N)


class Field:
    """Real samples of a function of x on a Grid, with their spectrum.

    A Field is built from samples, ``Field(grid, values)``, or from its
    real-FFT spectrum, ``Field.from_spectrum(grid, spectrum)``.  It holds
    three views of one function: ``values``, ``spectrum`` and
    ``derivative_values`` (samples of the spectral d/dx).  Each is computed
    at most once, on first use, and every operator in this module reads
    them from the Field, so a derivative taken by the solver is reused by
    the diagnostics that look at the same state.  A spectrum-built Field
    fills ``values`` and ``derivative_values`` together, on the first read
    of either, with one irfft call on the pair (u^, ik u^); the samples
    and the derivative are the two rows of one (2, N) array the Field
    owns.  The solver's step makes that call itself, in its own scratch,
    for its stage inputs and its new state, and passes the samples to
    ``from_spectrum``, so a Field it returns comes with all three views.
    A sample-built Field takes its derivative with one irfft of its own.

    Fields are value-semantic snapshots: operators return fresh fields and
    never mutate their input.  Writing into ``values`` after the spectrum
    or the derivative has been read leaves those views stale.
    """

    __slots__ = ("grid", "_values", "_spectrum", "_derivative")

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.N,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with N={grid.N}"
            )
        self.grid = grid
        self._values: Optional[np.ndarray] = v
        self._spectrum: Optional[np.ndarray] = None
        self._derivative: Optional[np.ndarray] = None

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum: np.ndarray,
                      samples: Optional[np.ndarray] = None) -> "Field":
        """The Field whose rfft is ``spectrum`` (N/2 + 1 coefficients).

        ``samples``, if given, is the irfft of the pair (u^, ik u^), a
        (2, N) array whose rows become the samples and the derivative;
        otherwise they are transformed back only when first read.
        """
        s = np.asarray(spectrum, dtype=complex)
        if s.shape != (grid.N // 2 + 1,):
            raise ValueError(
                f"spectrum shape {s.shape} does not match grid with N={grid.N}"
            )
        field = cls.__new__(cls)
        field.grid = grid
        field._spectrum = s
        field._values, field._derivative = (
            (None, None) if samples is None else samples)
        return field

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._transform_back()
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        """rfft of the samples."""
        if self._spectrum is None:
            self._spectrum = np.fft.rfft(self._values)
        return self._spectrum

    @property
    def derivative_values(self) -> np.ndarray:
        """Samples of the spectral derivative (symbol i k, Nyquist zeroed)."""
        if self._derivative is None:
            if self._values is None:
                self._transform_back()
            else:
                self._derivative = np.fft.irfft(
                    self.spectrum * self.grid._sym_derivative, n=self.grid.N)
        return self._derivative

    def _transform_back(self) -> None:
        """Samples and derivative of a spectrum-built Field, in one batched
        irfft of the pair (u^, ik u^); its rows equal the separate calls."""
        grid = self.grid
        s = self._spectrum
        pair = np.empty((2, s.size), dtype=complex)
        pair[0] = s
        np.multiply(s, grid._sym_derivative, out=pair[1])
        self._values, self._derivative = np.fft.irfft(pair, n=grid.N)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r})"


def _apply_symbol(u: Field, symbol: np.ndarray) -> Field:
    return Field.from_spectrum(u.grid, u.spectrum * symbol)


def derivative(u: Field) -> Field:
    """Spectral d/dx (symbol i k, Nyquist zeroed).

    Exact for band-limited data.  For kinked data (raw peakons) the result
    carries localized Gibbs oscillations near the kink; tests that consume
    it exclude a few grid spacings around the kink.
    """
    return Field(u.grid, u.derivative_values)


def helmholtz_inverse(f: Field) -> Field:
    """Solve (1 - d_xx) w = f, i.e. w = G * f with G = exp(-|x|)/2."""
    return _apply_symbol(f, f.grid._sym_helmholtz)


def helmholtz_inverse_dx(f: Field) -> Field:
    """Gradient of the Helmholtz solve, w = (G * f)_x (symbol ik/(1+k^2)).

    This is the nonlocal transport term of the evolution; it coincides with
    derivative(helmholtz_inverse(f)) up to rounding.
    """
    return _apply_symbol(f, f.grid._sym_helmholtz_dx)


def source_term(u: Field, dealias: bool = True) -> Field:
    """Quadratic source F(u) = u^2 + u_x^2 / 2 driving the nonlocal term.

    The products are formed pointwise from the spectral derivative; with
    ``dealias`` (the default) the result is projected onto the 2/3-rule
    band, the standard guard against quadratic aliasing.
    """
    ux = u.derivative_values
    f = u.values * u.values + 0.5 * ux * ux
    if dealias:
        f = u.grid.dealias_values(f)
    return Field(u.grid, f)


def momentum_of(u: Field) -> Field:
    """Momentum density m = u - u_xx (symbol 1 + k^2)."""
    return _apply_symbol(u, u.grid._sym_momentum)


def peakon(c: float, x0: float, grid: Grid) -> Field:
    """Exact peaked traveling wave u(x, 0) = c exp(-|x - x0|).

    Peakons translate at speed c and set the critical spatial decay rate:
    no nontrivial solution can decay faster than exp(-|x|) at both ends for
    a sustained time.  The profile has a kink at x0, so spectral derivatives
    of a raw peakon are only trustworthy away from the crest; time
    integration should use mollified variants instead.
    """
    if not abs(x0) < grid.L:
        raise ValueError(f"peakon center {x0!r} outside the open box (-L, L)")
    return Field(grid, c * np.exp(-np.abs(grid.x - x0)))


def convolve(f: Field, g: Field) -> Field:
    """Grid realization of the line convolution (f*g)(x) = int f(y)g(x-y) dy.

    Implemented as the dx-scaled circular convolution, so the coordinate of
    the output matches the grid (a delta-like spike at 0 acts as identity).
    Wrap-around applies: keep supports well inside the box whenever a line
    convolution reading is intended.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires both fields on the same grid")
    n = f.grid.N
    h = np.fft.irfft(np.fft.rfft(f.values) * np.fft.rfft(g.values), n=n) * f.grid.dx
    return Field(f.grid, np.roll(h, -(n // 2)))


def reflect(u: Field) -> Field:
    """Samples of x -> u(-x) on the same grid (periodic index reversal)."""
    n = u.grid.N
    return Field(u.grid, u.values[(-np.arange(n)) % n])


def shift_samples(u: Field, steps: int) -> Field:
    """Samples of x -> u(x - steps*dx): exact grid-aligned translation."""
    return Field(u.grid, np.roll(u.values, int(steps)))


def integral(u: Field) -> float:
    """Rectangle-rule integral over the box (spectrally exact for periodic data)."""
    return float(np.sum(u.values) * u.grid.dx)


def energy(u: Field) -> float:
    """The conserved H^1 energy: rectangle-rule integral of u^2 + u_x^2."""
    du = u.derivative_values
    return float(np.sum(u.values * u.values + du * du) * u.grid.dx)


def min_slope(u: Field) -> float:
    """min_x of the spectral derivative — the wave-breaking monitor."""
    return float(np.min(u.derivative_values))
