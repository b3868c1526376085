"""Grid, transforms, and the Helmholtz-kernel operator algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chlab.field import (
    Field,
    Grid,
    convolve,
    derivative,
    helmholtz_inverse,
    helmholtz_inverse_dx,
    integral,
    momentum_of,
    peakon,
    source_term,
)
from helpers import (count_transforms, dealiased_source, field_from_seed,
                     reflect, shift_samples)

GRID = Grid(20.0, 512)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestGrid:
    def test_nodes_and_spacing(self):
        g = Grid(10.0, 128)
        assert g.dx == pytest.approx(20.0 / 128)
        assert g.x[0] == -10.0
        assert g.x[g.N // 2] == 0.0
        assert np.allclose(np.diff(g.x), g.dx)
        assert g.k[0] == 0.0
        assert g.k[-1] == pytest.approx(math.pi / g.dx)

    @pytest.mark.parametrize("bad_n", [0, 63, 100, 4095, -256])
    def test_rejects_bad_sizes(self, bad_n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(10.0, bad_n)

    @pytest.mark.parametrize("bad_l", [0.0, -5.0])
    def test_rejects_bad_half_width(self, bad_l):
        with pytest.raises(ValueError, match="half-width"):
            Grid(bad_l, 128)

    def test_field_shape_must_match_grid(self):
        with pytest.raises(ValueError, match="shape"):
            Field(GRID, np.zeros(GRID.N + 1))


class TestTransforms:
    def test_single_mode_derivative_is_exact(self):
        k = 2.0 * math.pi * 3 / (2.0 * GRID.L)
        u = Field(GRID, np.sin(k * GRID.x))
        expected = k * np.cos(k * GRID.x)
        assert np.max(np.abs(derivative(u).values - expected)) < 1e-12

    def test_gaussian_derivative_matches_closed_form(self):
        u = Field(GRID, np.exp(-GRID.x**2))
        expected = -2.0 * GRID.x * np.exp(-GRID.x**2)
        assert np.max(np.abs(derivative(u).values - expected)) < 1e-12

    @given(seeds, seeds)
    def test_derivative_is_linear(self, s1, s2):
        u, v = field_from_seed(GRID, s1), field_from_seed(GRID, s2)
        lhs = derivative(Field(GRID, 2.0 * u.values - 3.0 * v.values)).values
        rhs = 2.0 * derivative(u).values - 3.0 * derivative(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(seeds)
    def test_derivative_anticommutes_with_reflection(self, seed):
        u = field_from_seed(GRID, seed)
        lhs = derivative(reflect(u)).values
        rhs = -reflect(derivative(u)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFieldViews:
    """A Field holds samples, spectrum and derivative samples, each
    computed at most once and consistent with the others."""

    @given(seeds)
    def test_from_samples_round_trip(self, seed):
        u = field_from_seed(GRID, seed)
        back = Field.from_spectrum(GRID, u.spectrum).values
        assert np.max(np.abs(back - u.values)) < 1e-14

    @given(seeds)
    def test_from_spectrum_round_trip(self, seed):
        spectrum = field_from_seed(GRID, seed).spectrum
        u = Field.from_spectrum(GRID, spectrum)
        assert u.spectrum is spectrum
        again = Field(GRID, u.values).spectrum
        assert np.max(np.abs(again - spectrum)) < 1e-13 * np.max(np.abs(spectrum))

    @given(seeds)
    def test_cached_derivative_is_the_spectral_derivative(self, seed):
        u = field_from_seed(GRID, seed)
        direct = np.fft.irfft(GRID._sym_derivative * np.fft.rfft(u.values),
                              n=GRID.N)
        assert np.max(np.abs(u.derivative_values - direct)) <= 1e-14
        assert np.array_equal(derivative(u).values, u.derivative_values)

    def test_each_view_is_computed_once(self, monkeypatch):
        counter = count_transforms(monkeypatch)
        u = Field(GRID, np.exp(-GRID.x**2))
        for _ in range(2):
            u.spectrum, u.derivative_values, u.values
        assert counter.log == [("rfft", 1), ("irfft", 1)]
        # a spectrum-built Field gets its samples and derivative from one
        # irfft of the stacked pair, whichever it is asked for first
        for first in ("values", "derivative_values"):
            counter.log.clear()
            v = Field.from_spectrum(GRID, u.spectrum)
            getattr(v, first)
            for _ in range(2):
                v.values, v.derivative_values, v.spectrum
            assert counter.log == [("irfft", 2)]

    @given(seeds)
    def test_batched_views_equal_the_separate_transforms(self, seed):
        spectrum = field_from_seed(GRID, seed).spectrum
        u = Field.from_spectrum(GRID, spectrum)
        assert np.array_equal(u.values, np.fft.irfft(spectrum, n=GRID.N))
        assert np.array_equal(
            u.derivative_values,
            np.fft.irfft(spectrum * GRID._sym_derivative, n=GRID.N))

    def test_spectrum_shape_must_match_grid(self):
        with pytest.raises(ValueError, match="spectrum shape"):
            Field.from_spectrum(GRID, np.zeros(GRID.N // 2, dtype=complex))


class TestHelmholtz:
    def test_single_mode_symbol(self):
        k = 2.0 * math.pi * 5 / (2.0 * GRID.L)
        u = Field(GRID, np.cos(k * GRID.x))
        expected = np.cos(k * GRID.x) / (1.0 + k * k)
        assert np.max(np.abs(helmholtz_inverse(u).values - expected)) < 1e-13

    @given(seeds)
    def test_momentum_roundtrip_is_identity(self, seed):
        f = field_from_seed(GRID, seed)
        back = momentum_of(helmholtz_inverse(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-10

    @given(seeds)
    def test_helmholtz_inverse_inverts_momentum_of(self, seed):
        u = field_from_seed(GRID, seed)
        back = helmholtz_inverse(momentum_of(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-10

    @given(seeds)
    def test_gradient_variant_commutes_with_derivative(self, seed):
        f = field_from_seed(GRID, seed)
        a = helmholtz_inverse_dx(f).values
        b = derivative(helmholtz_inverse(f)).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_momentum_matches_manual_second_derivative(self):
        u = Field(GRID, np.exp(-GRID.x**2))
        u_xx = derivative(derivative(u)).values
        assert np.max(np.abs(momentum_of(u).values - (u.values - u_xx))) < 1e-10

    @given(seeds)
    def test_smoothing_preserves_nonnegativity(self, seed):
        # the kernel e^{-|x|}/2 is positive, so G * (u^2) >= 0
        u = field_from_seed(GRID, seed)
        smoothed = helmholtz_inverse(Field(GRID, u.values**2))
        assert float(np.min(smoothed.values)) > -1e-12

    def test_kernel_derivative_convolution_closed_form(self):
        # (G * 1.5 e^{-2|x|})_x = -sign(x)(e^{-|x|} - e^{-2|x|}) on the line
        grid = Grid(40.0, 4096)
        f = Field(grid, 1.5 * np.exp(-2.0 * np.abs(grid.x)))
        closed = -np.sign(grid.x) * (np.exp(-np.abs(grid.x))
                                     - np.exp(-2.0 * np.abs(grid.x)))
        window = np.abs(grid.x) > 3.0 * grid.dx
        err = np.abs(helmholtz_inverse_dx(f).values - closed)[window]
        assert float(np.max(err)) < 1e-4


class TestConvolve:
    def test_gaussian_pair_closed_form(self):
        grid = Grid(20.0, 1024)
        s1, s2 = 0.7, 1.1
        f = Field(grid, np.exp(-grid.x**2 / (2 * s1**2)))
        g = Field(grid, np.exp(-grid.x**2 / (2 * s2**2)))
        s = math.hypot(s1, s2)
        closed = (math.sqrt(2 * math.pi) * s1 * s2 / s) * np.exp(
            -grid.x**2 / (2 * s**2)
        )
        assert np.max(np.abs(convolve(f, g).values - closed)) < 1e-12

    def test_delta_spike_acts_as_identity(self):
        grid = Grid(20.0, 1024)
        spike = np.zeros(grid.N)
        spike[grid.N // 2] = 1.0 / grid.dx
        f = Field(grid, np.exp(-grid.x**2))
        out = convolve(Field(grid, spike), f).values
        assert np.max(np.abs(out - f.values)) < 1e-13

    @given(seeds, seeds)
    def test_commutative(self, s1, s2):
        f, g = field_from_seed(GRID, s1), field_from_seed(GRID, s2)
        assert np.max(np.abs(convolve(f, g).values
                             - convolve(g, f).values)) < 1e-11

    def test_rejects_mismatched_grids(self):
        f = Field(GRID, np.zeros(GRID.N))
        other = Grid(20.0, 256)
        g = Field(other, np.zeros(other.N))
        with pytest.raises(ValueError, match="same grid"):
            convolve(f, g)


class TestPeakon:
    def test_profile_and_peak(self):
        x0 = 32 * GRID.dx  # a grid node, so the crest is sampled exactly
        u = peakon(1.5, x0, GRID)
        assert np.allclose(u.values, 1.5 * np.exp(-np.abs(GRID.x - x0)))
        assert float(np.max(u.values)) == pytest.approx(1.5, rel=1e-12)
        assert GRID.x[int(np.argmax(u.values))] == pytest.approx(x0)

    def test_mass_approximates_2c(self):
        grid = Grid(40.0, 4096)
        assert integral(peakon(0.7, 0.0, grid)) == pytest.approx(1.4, abs=1e-4)

    def test_grid_aligned_center_is_exact_shift(self):
        steps = 64
        x0 = steps * GRID.dx
        shifted = shift_samples(peakon(1.0, 0.0, GRID), steps)
        direct = peakon(1.0, x0, GRID)
        # identical up to periodic wrap-around of the far tail
        core = np.abs(GRID.x) < GRID.L / 2
        assert np.max(np.abs(shifted.values - direct.values)[core]) < 1e-12

    def test_center_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            peakon(1.0, 25.0, GRID)


class TestSourceTerm:
    def test_matches_manual_formula_on_smooth_data(self):
        u = Field(GRID, np.exp(-GRID.x**2))
        ux = -2.0 * GRID.x * np.exp(-GRID.x**2)
        expected = u.values**2 + 0.5 * ux**2
        got = source_term(u).values
        assert np.max(np.abs(got - expected)) < 1e-12

    @given(seeds)
    def test_nonnegative(self, seed):
        # raw F is a sum of squares; its 2/3-band projection, which the
        # profile accumulator integrates, may dip below zero by roundoff
        u = field_from_seed(GRID, seed)
        assert float(np.min(dealiased_source(u))) > -1e-10


class TestSymmetryOps:
    @given(seeds)
    def test_reflect_is_an_involution(self, seed):
        u = field_from_seed(GRID, seed)
        assert np.array_equal(reflect(reflect(u)).values, u.values)

    @given(seeds, st.integers(-600, 600), st.integers(-600, 600))
    def test_shift_composition(self, seed, a, b):
        u = field_from_seed(GRID, seed)
        lhs = shift_samples(shift_samples(u, a), b).values
        rhs = shift_samples(u, a + b).values
        assert np.array_equal(lhs, rhs)

    @given(seeds)
    def test_full_revolution_is_identity(self, seed):
        u = field_from_seed(GRID, seed)
        assert np.array_equal(shift_samples(u, GRID.N).values, u.values)

    @given(seeds, st.integers(-600, 600))
    def test_integral_is_shift_invariant(self, seed, steps):
        u = field_from_seed(GRID, seed)
        assert integral(shift_samples(u, steps)) == pytest.approx(
            integral(u), abs=1e-12
        )

    @given(seeds)
    def test_integral_is_reflection_invariant(self, seed):
        u = field_from_seed(GRID, seed)
        assert integral(reflect(u)) == pytest.approx(integral(u), abs=1e-12)
