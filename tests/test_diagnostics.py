"""Run diagnostics: norms, sign-pattern classification, breakdown
predictors, persistence traces, and the critical-decay cap."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chlab import diagnostics
from chlab.diagnostics import (
    RateCapTrace,
    decay_blowup_predict,
    h1_norm,
    local_derivative,
    mckean_classify,
    peak_band,
    peakon_rate_cap_check,
    persistence_check,
    rate_cap_check,
    slope_criterion_predict,
    weighted_pair_norm,
)
from chlab.field import (Field, Grid, energy, integral, min_slope,
                         momentum_of, peakon)
from chlab.initial_data import (
    FromPotential,
    Gaussian,
    MollifiedExponential,
    MollifiedPeakon,
    OddGaussianDerivative,
    TanhGaussianShape,
)
from chlab.solver import SolverConfig, new_state, run
from chlab.weights import StandardFamily
from helpers import field_from_seed, shift_samples

GRID = Grid(20.0, 4096)
GAUSSIAN = Gaussian(1.0, 1.0, 0.0).build(GRID)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestNorms:
    def test_gaussian_closed_forms(self):
        # u = e^{-x^2}: integral u = sqrt(pi), integral (u^2 + u_x^2) =
        # sqrt(2 pi), so the H^1 norm is (2 pi)^{1/4}
        assert integral(GAUSSIAN) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert energy(GAUSSIAN) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-12
        )
        assert h1_norm(GAUSSIAN) == pytest.approx(
            (2.0 * math.pi) ** 0.25, rel=1e-12
        )

    def test_gaussian_extremal_slope(self):
        # min of -2x e^{-x^2} is -sqrt(2) e^{-1/2}, up to grid sampling
        assert min_slope(GAUSSIAN) == pytest.approx(
            -math.sqrt(2.0) * math.exp(-0.5), abs=1e-4
        )

    def test_sup_norms_sum(self):
        # M = ||u||_inf + ||u_x||_inf, which the persistence fit reads from
        # the u_inf and ux_inf columns of the run log
        _, log = run(GAUSSIAN, SolverConfig(t_end=0.01))
        u_inf, ux_inf = log.rows[0][3:5]
        assert u_inf == pytest.approx(1.0, rel=1e-12)
        assert ux_inf == float(np.max(np.abs(GAUSSIAN.derivative_values)))

    def test_peakon_h1_energy(self):
        grid = Grid(40.0, 4096)
        u = peakon(1.0, 0.0, grid)
        # 2 c^2 for the true peakon; the kink costs a small spectral excess
        assert energy(u) == pytest.approx(2.0, rel=0.01)

    @given(seeds)
    def test_local_derivative_tracks_spectral_on_band_limited(self, seed):
        u = field_from_seed(Grid(20.0, 512), seed)
        from chlab.field import derivative

        space = u.grid.dx
        err = np.max(np.abs(local_derivative(u) - derivative(u).values))
        # central differences are second order; band-limited data with
        # modes below pi/(4 dx) keeps the constant modest
        assert err < space**2 * (math.pi / (4 * space)) ** 3


class TestMcKeanClassification:
    def test_nonnegative_potential(self):
        u = FromPotential(m0=Gaussian(1.0, 1.0, 0.0)).build(Grid(30.0, 4096))
        verdict = mckean_classify(momentum_of(u))
        assert verdict["verdict"] == "ConstantSignNonneg"
        assert verdict["x0"] is None
        assert verdict["predicts_global"]

    def test_nonpositive_potential(self):
        u = FromPotential(m0=Gaussian(1.0, 1.0, 0.0)).build(Grid(30.0, 4096))
        flipped = Field(u.grid, -u.values)
        verdict = mckean_classify(momentum_of(flipped))
        assert verdict["verdict"] == "ConstantSignNonpos"
        assert verdict["predicts_global"]

    def test_single_crossing_negative_to_positive(self):
        grid = Grid(40.0, 4096)
        u = FromPotential(m0=TanhGaussianShape(1.0, 1.0, 6.0)).build(grid)
        verdict = mckean_classify(momentum_of(u))
        assert verdict["verdict"] == "SimpleChangeNegToPos"
        assert verdict["x0"] == pytest.approx(0.0, abs=grid.dx)
        assert verdict["predicts_global"]

    def test_reversed_crossing_is_other(self):
        grid = Grid(40.0, 4096)
        u = FromPotential(m0=TanhGaussianShape(1.0, 1.0, 6.0)).build(grid)
        flipped = Field(grid, -u.values)
        verdict = mckean_classify(momentum_of(flipped))
        assert verdict["verdict"] == "Other"
        assert not verdict["predicts_global"]

    def test_tolerance_absorbs_noise(self, monkeypatch):
        grid = Grid(20.0, 512)
        m = Field(grid, np.exp(-grid.x**2) - 1e-14)
        assert mckean_classify(m)["verdict"] == "ConstantSignNonneg"
        monkeypatch.setattr(diagnostics, "_SIGN_TOL_REL", 0.0)
        assert mckean_classify(m)["verdict"] != "ConstantSignNonneg"

    @given(seeds, st.floats(0.1, 10.0), st.integers(-500, 500))
    def test_invariant_under_scaling_and_translation(self, seed, scale, steps):
        m = field_from_seed(Grid(20.0, 512), seed)
        base = mckean_classify(m)["verdict"]
        scaled = mckean_classify(Field(m.grid, scale * m.values))["verdict"]
        shifted = mckean_classify(shift_samples(m, steps))["verdict"]
        assert scaled == base
        # translation can only move a crossing, never change its pattern
        assert shifted in (base, "Other") or base == "Other"
        if base in ("ConstantSignNonneg", "ConstantSignNonpos"):
            assert shifted == base

    def test_non_finite_rejected(self):
        grid = Grid(20.0, 512)
        values = np.zeros(grid.N)
        values[0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            mckean_classify(Field(grid, values))


class TestSlopePredictor:
    def test_evidence_is_the_signed_margin(self):
        result = slope_criterion_predict(GAUSSIAN)
        expected = min_slope(GAUSSIAN) + h1_norm(GAUSSIAN) / math.sqrt(2.0)
        assert result["evidence"] == pytest.approx(expected, rel=1e-12)
        assert result["fired"] == (result["evidence"] < 0.0)

    def test_steep_odd_datum_fires_with_analytic_margin(self):
        # u = -x e^{-x^2}: min slope -1, H^1 norm (pi/2)^{1/4}, so the
        # margin is (pi/2)^{1/4}/sqrt(2) - 1 < 0
        u = OddGaussianDerivative(1.0, 1.0).build(Grid(40.0, 4096))
        result = slope_criterion_predict(u)
        assert result["fired"]
        expected = (math.pi / 2.0) ** 0.25 / math.sqrt(2.0) - 1.0
        assert result["evidence"] == pytest.approx(expected, abs=1e-7)
        assert result["evidence"] == pytest.approx(-0.2083832564569, abs=1e-9)

    def test_shallow_gaussian_stays_silent(self):
        result = slope_criterion_predict(GAUSSIAN)
        assert not result["fired"]
        assert result["evidence"] > 0.25  # measured margin 0.2618

    @given(st.floats(0.1, 5.0))
    def test_firing_is_scale_monotone(self, amplitude):
        # both min slope and the H^1 norm scale linearly in amplitude, so
        # the verdict for this datum is amplitude-independent
        u = OddGaussianDerivative(amplitude, 1.0).build(Grid(20.0, 512))
        assert slope_criterion_predict(u)["fired"]


class TestDecayPredictor:
    def test_superexponential_tail_fires(self):
        result = decay_blowup_predict(GAUSSIAN)
        assert result["fired"]
        assert result["evidence"] < 1e-100

    def test_critical_exponential_tail_stays_silent(self):
        u = peakon(1.0, 0.0, Grid(40.0, 8192))
        result = decay_blowup_predict(u)
        assert not result["fired"]
        # e^{|x|}(|u| + |u_x|) = 2 for half the samples... the windowed
        # minimum of e^{|x|} |u| alone is exactly 1 for c = 1
        assert result["evidence"] == pytest.approx(1.0, abs=1e-10)

    frozen_rates = [
        (0.5, False, 3.984181923e10),
        (0.8, False, 2.667768628e4),
        (1.2, False, 6.188610323e-06),
        (2.0, True, 8.933404014e-27),
    ]

    @pytest.mark.parametrize("rate,fired,evidence", frozen_rates)
    def test_rate_family_threshold(self, rate, fired, evidence):
        """Only decay strictly beyond e^{-|x|} (with margin below the
        relative threshold 1e-6) fires; the predictor is one-directional,
        so silence at rate 1.2 promises nothing about that run's fate."""
        u = MollifiedExponential(amplitude=1.0, rate=rate, center=0.0,
                                 mollify_width=0.1).build(Grid(60.0, 8192))
        assert decay_blowup_predict(u) == {
            "fired": fired, "evidence": pytest.approx(evidence, rel=1e-6)}

    def test_zero_datum_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            decay_blowup_predict(Field(GRID, np.zeros(GRID.N)))


class TestPersistence:
    def test_exponential_series_recovers_the_rate(self):
        times = np.linspace(0.0, 2.0, 21)
        report = persistence_check(times, 2.0 * np.exp(0.7 * times),
                                   np.ones_like(times))
        assert report["passed"] and not report["diverged"]
        assert report["C_fit"] == pytest.approx(0.7, rel=1e-9)
        assert report["W0"] == 2.0
        assert report["t_valid"] == [0.0, 2.0]

    def test_zero_trace_passes_trivially(self):
        times = np.array([0.0, 0.5, 1.0])
        report = persistence_check(times, np.zeros(3), np.ones(3))
        assert report["passed"]
        assert report["C_fit"] == 0.0

    def test_divergence_truncates_the_valid_range(self):
        report = persistence_check(np.array([0.0, 0.5, 1.0]),
                                   np.array([1.0, 2.0, math.inf]), np.ones(3))
        assert report["diverged"]
        assert report["t_valid"] == [0.0, 0.5]

    def test_bound_is_self_consistent_on_random_monotone_series(self):
        rng = np.random.default_rng(5)
        rates, M = np.array([(rng.uniform(-0.05, 0.2), rng.uniform(0.5, 2.0))
                             for _ in range(30)]).T
        report = persistence_check(0.1 * np.arange(30),
                                   np.cumprod(np.exp(rates)), M)
        assert report["passed"]
        assert report["sup_W"] >= report["W0"]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            persistence_check(np.array([]), np.array([]), np.array([]))

    def test_zero_start_of_a_nonzero_trace_rejected(self):
        # no bound W0 e^{C int M} lets W leave 0
        with pytest.raises(ValueError, match="W0 must be positive"):
            persistence_check(np.array([0.0, 0.5, 1.0]),
                              np.array([0.0, 1.0, 2.0]), np.ones(3))

    def test_weighted_pair_norm_sup_matches_direct(self):
        w = StandardFamily(c=2.0).value(GRID.x)
        u = GAUSSIAN
        direct = float(
            np.max(np.abs(u.values) * w)
            + np.max(np.abs(local_derivative(u)) * w)
        )
        assert weighted_pair_norm(u, w, math.inf) == pytest.approx(
            direct, rel=1e-12
        )


class TestRateCap:
    def test_exact_peakon_saturates_at_2c(self):
        u = peakon(1.0, 0.0, Grid(40.0, 4096))
        # e^{|x|}(|u| + |u_x|) = 2c everywhere off the crest
        assert peakon_rate_cap_check(u) == pytest.approx(2.0, abs=1e-3)

    def test_scales_linearly_in_amplitude(self):
        grid = Grid(40.0, 4096)
        one = peakon_rate_cap_check(peakon(1.0, 0.0, grid))
        half = peakon_rate_cap_check(peakon(0.5, 0.0, grid))
        assert half == pytest.approx(0.5 * one, rel=1e-12)

    def test_mollified_crest_frozen_value(self):
        grid = Grid(40.0, 8192)
        u = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.1).build(grid)
        assert peakon_rate_cap_check(u) == pytest.approx(2.0100410160,
                                                         rel=1e-9)
        magnitude = np.abs(u.values)
        left, right = peak_band(
            magnitude, diagnostics._RATE_CAP_FLOOR_REL * np.max(magnitude))
        assert grid.x[left] < -18.0 and grid.x[right] > 18.0

    def test_cap_comparison(self):
        grid = Grid(40.0, 8192)
        u = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.1).build(grid)
        assert 2.0 < peakon_rate_cap_check(u) <= 2.1

    def test_zero_field_passes(self):
        assert peakon_rate_cap_check(Field(GRID, np.zeros(GRID.N))) == 0.0

    def test_cap_must_be_positive(self):
        # the cap is the factor times the datum's statistic, so any
        # nonzero datum gets a positive one
        sup = peakon_rate_cap_check(GAUSSIAN)
        block = rate_cap_check(np.array([0.0]), np.array([sup]), 1.5)
        assert block["cap"] == 1.5 * sup > 0.0

    def test_trace_fails_above_the_cap(self):
        # the statistic of this crest is 2.0100410160: a cap just below it
        # fails on the datum itself, a cap equal to it passes
        grid = Grid(40.0, 8192)
        u0 = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.1).build(grid)
        state = new_state(u0)
        sups = np.array(RateCapTrace().observe(state))
        for factor, passed in ((0.995, False), (1.0, True)):
            block = rate_cap_check(np.array([state.t]), sups, factor)
            assert block["max_sup"] == block["sup_initial"]
            assert block["cap"] == pytest.approx(factor * 2.0100410160,
                                                 rel=1e-9)
            assert block["passed"] is passed


def _peak_band_loop(magnitude, threshold):
    """Reference: grow the band outward from the peak one sample at a time."""
    above = magnitude > threshold
    left = right = int(np.argmax(magnitude))
    while left - 1 >= 0 and above[left - 1]:
        left -= 1
    while right + 1 < magnitude.size and above[right + 1]:
        right += 1
    return left, right


class TestPeakBand:
    @given(st.lists(st.sampled_from([0.0, 1e-9, 0.3, 1.0, math.nan]),
                    min_size=1, max_size=40),
           st.sampled_from([0.0, 1e-8, 0.5, 1.0, 2.0]))
    def test_matches_the_outward_scan(self, samples, rel):
        magnitude = np.array(samples)
        threshold = rel * float(np.max(magnitude))
        assert (peak_band(magnitude, threshold)
                == _peak_band_loop(magnitude, threshold))

    def test_stops_at_the_first_crossing(self):
        magnitude = np.array([1.0, 0.0, 2.0, 3.0, 2.0, 0.0, 1.0])
        assert peak_band(magnitude, 0.5) == (2, 4)
        assert peak_band(magnitude, -1.0) == (0, 6)
