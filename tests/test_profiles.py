"""Tail-profile machinery: time-averaged source, amplitude pair,
automatic asymptotic windows, the ProfileAccumulator rows with their
running bounds and residual extremes, the run summary's profile block
read from them, and the evolution identity."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from chlab.field import Field, Grid, peakon
from chlab.initial_data import Gaussian, MollifiedExponential, MollifiedPeakon
from chlab.profiles import (
    ProfileAccumulator,
    _weighted_half_integral,
    phi0_psi0,
    phi_psi,
    profile_report,
    reconstruct,
    tail_windows,
)
from chlab.runner import _profile_block
from chlab.scenarios import builtin_scenario
from chlab.solver import SolverConfig, run
from helpers import count_transforms, dealiased_source

GRID = Grid(20.0, 1024)
GAUSSIAN = Gaussian(1.0, 1.0, 0.0).build(GRID)


def _slow_tail(rate):
    """e^{-rate|x|}, mollified, on a box that holds its crop."""
    return MollifiedExponential(amplitude=1.0, rate=rate, center=0.0,
                                mollify_width=0.1).build(Grid(60.0, 2048))


class TestAccumulator:
    def test_snapshot_times_must_increase(self):
        acc = ProfileAccumulator(GAUSSIAN).accumulate(GAUSSIAN, 0.0)
        acc.accumulate(GAUSSIAN, 0.5)
        with pytest.raises(ValueError, match="non-monotone"):
            acc.accumulate(GAUSSIAN, 0.5)

    def test_average_needs_an_interval(self):
        acc = ProfileAccumulator(GAUSSIAN)
        with pytest.raises(ValueError, match="no time interval"):
            phi_psi(acc)
        acc.accumulate(GAUSSIAN, 0.0)
        with pytest.raises(ValueError, match="no time interval"):
            phi_psi(acc)

    def test_average_only_at_current_time(self):
        # h divides by the time of the last snapshot, the one time the
        # accumulator knows, so a constant snapshot keeps h = F(u) as the
        # integral grows
        acc = ProfileAccumulator(GAUSSIAN)
        F = dealiased_source(GAUSSIAN)
        acc.accumulate(GAUSSIAN, 0.0).accumulate(GAUSSIAN, 1.0)
        assert np.array_equal(acc.H / acc.t_last, F)
        acc.accumulate(GAUSSIAN, 4.0)
        np.testing.assert_allclose(acc.H / acc.t_last, F, rtol=1e-15,
                                   atol=0.0)

    def test_stationary_average_is_the_source_itself(self):
        # trapezoid over a constant-in-time field: h = F(u) exactly, so the
        # running amplitudes are the weighted integrals of dealiased F(u)
        acc = ProfileAccumulator(GAUSSIAN)
        acc.accumulate(GAUSSIAN, 0.0).accumulate(GAUSSIAN, 2.0)
        F = dealiased_source(GAUSSIAN)
        assert np.array_equal(acc.H / acc.t_last, F)
        assert phi_psi(acc) == (_weighted_half_integral(F, GRID, +1.0),
                                _weighted_half_integral(F, GRID, -1.0))

    def test_integrands_equal_the_separate_transforms(self):
        # batched transforms give the unbatched layer's F(u) and
        # (1/2) d/dx (u^2) bit for bit; the trapezoid over [0, 2] of a
        # constant snapshot is exactly twice each
        u = Gaussian(1.0, 1.0, 0.5).build(GRID)
        acc = ProfileAccumulator(u)
        acc.accumulate(u, 0.0).accumulate(u, 2.0)
        keep = np.arange(GRID.N // 2 + 1) <= GRID.N // 3
        u2_hat = np.fft.rfft(u.values * u.values) * keep
        adv = np.fft.irfft(0.5 * GRID._sym_derivative * u2_hat, n=GRID.N)
        F = dealiased_source(u)
        assert np.array_equal(acc.H, F + F)
        assert np.array_equal(acc.UUx, adv + adv)

    def test_snapshot_makes_two_calls(self, monkeypatch):
        # a solver state arrives with u and u_x cached; F and the
        # advection term take one forward and one inverse call of a pair
        u = Gaussian(1.0, 1.0, 0.5).build(GRID)
        u.values, u.derivative_values
        acc = ProfileAccumulator(u)
        counter = count_transforms(monkeypatch)
        for snapshots, t in enumerate((0.0, 0.5, 1.0), start=1):
            acc.accumulate(u, t)
            assert counter.calls == 2 * snapshots
            assert counter.transforms == 4 * snapshots


class TestInitialAmplitudes:
    def test_gaussian_closed_form(self):
        # F(e^{-x^2}) = (1 + 2x^2) e^{-2x^2}, and the e^{+x}-weighted half
        # integral evaluates to (13/16) e^{1/8} sqrt(pi/2)
        exact = (13.0 / 16.0) * math.exp(0.125) * math.sqrt(math.pi / 2.0)
        Phi0, Psi0 = phi0_psi0(GAUSSIAN)
        assert Phi0 == pytest.approx(exact, abs=1e-6)
        # even data: the two weighted integrals agree
        assert Psi0 == pytest.approx(Phi0, rel=1e-12)

    def test_exact_peakon_normalization(self):
        # F(c e^{-|x|}) = (3/2) c^2 e^{-2|x|} integrates against e^{y}/2 to
        # exactly c^2; the kink costs a small quadrature excess
        u = peakon(1.0, 0.0, Grid(10.0, 8192))
        Phi0, _ = phi0_psi0(u)
        assert Phi0 == pytest.approx(1.0, abs=1e-3)
        assert Phi0 == pytest.approx(1.0000840375, rel=1e-9)

    def test_smooth_crest_value(self):
        u = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.05).build(
            Grid(10.0, 8192)
        )
        Phi0, _ = phi0_psi0(u)
        assert Phi0 == pytest.approx(0.9728001786, rel=1e-9)
        # the profile rows integrate the dealiased F: same Phi(0) here
        masked = _weighted_half_integral(dealiased_source(u), u.grid, +1.0)
        assert abs(Phi0 - masked) < 1e-9

    @pytest.mark.parametrize("k", [64, -96])
    def test_shifted_datum_scales_by_the_weights(self, k):
        # F(u0(. - c)) weighs in at e^{c} Phi(0) and e^{-c} Psi(0) of the
        # centred datum; swapped weights would miss by a factor e^{2c}
        c = k * GRID.dx
        Phi0, Psi0 = phi0_psi0(GAUSSIAN)
        Phi, Psi = phi0_psi0(Gaussian(1.0, 1.0, c).build(GRID))
        assert Phi == pytest.approx(math.exp(c) * Phi0, rel=1e-12)
        assert Psi == pytest.approx(math.exp(-c) * Psi0, rel=1e-12)

    def test_zero_field(self):
        assert phi0_psi0(Field(GRID, np.zeros(GRID.N))) == (0.0, 0.0)

    def test_slow_tail_is_rejected_as_contaminated(self):
        # e^{-|x|/20} on a half-width-20 box: the e^{+y}-weighted source
        # still grows at the boundary, so no finite statistic exists here
        u = MollifiedExponential(amplitude=1.0, rate=0.05, center=0.0,
                                 mollify_width=0.1).build(GRID)
        with pytest.raises(ValueError, match="boundary-contaminated"):
            phi0_psi0(u)

    @pytest.mark.parametrize("rate", [0.3, 0.4, 0.5])
    def test_divergent_weighted_integral_is_rejected(self, rate):
        # e^{-rate|x|} with rate <= 1/2: F(u) decays no faster than
        # e^{-|x|}, so the e^{+y}-weighted integrand does not decay out to
        # the crop, far inside the box, and the integral it truncates
        # diverges
        with pytest.raises(ValueError, match="cut off at the crop"):
            phi0_psi0(_slow_tail(rate))

    def test_crop_that_cuts_a_slow_tail_is_rejected(self):
        # at rate 0.6 the integral converges, but the crop cuts the
        # weighted integrand at 6.9e-2 of its peak and Phi0 reads 6% under
        # the uncropped sum; at rate 0.8 the band ends at 2.4e-3 and
        # stands.  The sign-change-momentum datum ends at 4.6e-2.
        with pytest.raises(ValueError, match="cut off at the crop"):
            phi0_psi0(_slow_tail(0.6))
        assert phi0_psi0(_slow_tail(0.8))[0] == pytest.approx(1.31866,
                                                              rel=1e-5)
        u0 = builtin_scenario("sign-change-momentum").build_initial()
        with pytest.raises(ValueError, match="cut off at the crop"):
            phi0_psi0(u0)


class TestTailWindow:
    def test_zero_field_has_no_window(self):
        plus, minus = tail_windows(Field(GRID, np.zeros(GRID.N)))
        assert not plus.any() and not minus.any()

    def test_gaussian_window_sits_in_the_outer_band(self):
        window, _ = tail_windows(GAUSSIAN)
        assert window.any()
        x = GRID.x[window]
        mag = np.abs(GAUSSIAN.values[window])
        assert np.all(x > 0)
        assert np.all((mag > 1e-7) & (mag < 1e-4))
        # the window keeps only the outer fifth of the candidate band
        candidates = (np.abs(GAUSSIAN.values) > 1e-7) & (
            np.abs(GAUSSIAN.values) < 1e-4
        ) & (GRID.x > 0)
        assert x.max() == GRID.x[candidates].max()
        assert x.min() > GRID.x[candidates].min()

    def test_minus_window_mirrors_plus_for_even_data(self):
        plus, minus = tail_windows(GAUSSIAN)
        assert np.count_nonzero(plus) == pytest.approx(
            np.count_nonzero(minus), abs=1
        )
        assert np.all(GRID.x[minus] < 0)

    def test_step_data_has_empty_window(self):
        # |u0| jumps straight from peak to zero: no samples land between
        # the floor and the ceiling, so there is no asymptotic window
        values = np.where(np.abs(GRID.x) < 5.0, 1.0, 0.0)
        assert not tail_windows(Field(GRID, values))[0].any()


@pytest.fixture(scope="module")
def evolved():
    """Short production-style run with a profile row at every step."""
    trace = ProfileAccumulator(GAUSSIAN)
    config = SolverConfig(t_end=0.25, snapshot_stride=1)
    state, _ = run(GAUSSIAN, config, [trace])
    return trace, state


def _block(trace, u):
    """The run summary's profile block of a trace whose run ended in u."""
    return _profile_block(trace.u0, trace.rows, trace.error,
                          trace.reconstruction_error(u))


def _observe(trace, u, times):
    for t in times:
        trace.observe(SimpleNamespace(t=t, u=u))
    return trace


class TestEvolutionRun:
    def test_amplitudes_stay_pinned_between_positive_bounds(self, evolved):
        trace, state = evolved
        summary = _block(trace, state.u)
        assert summary["c1_positive"]
        assert summary["c1"] == pytest.approx(1.0310717598, rel=1e-9)
        assert summary["c2"] == pytest.approx(1.3017917083, rel=1e-9)
        assert trace.rows[-1][3:5] == (summary["c1"], summary["c2"])
        # the lower bound stays a healthy fraction of the initial amplitude
        assert summary["c1"] > 0.75 * summary["Phi0"]

    def test_first_interval_amplitudes(self, evolved):
        trace, _ = evolved
        assert trace.rows[0][1] == pytest.approx(1.1602500160, rel=1e-9)
        assert trace.rows[0][2] == pytest.approx(1.1476390199, rel=1e-9)

    def test_evolution_identity_reconstructs_the_state(self, evolved):
        # u0 - (G * int F)_x - int u u_x agrees with the integrated state
        # up to time-quadrature error of the snapshot trapezoid
        trace, state = evolved
        recon = reconstruct(trace)
        err = float(np.max(np.abs(recon.values - state.u.values)))
        assert err < 1e-4
        assert err == pytest.approx(2.84182026e-05, rel=1e-6)
        assert trace.reconstruction_error(state.u) == (
            err / float(np.max(np.abs(state.u.values))))

    def test_residuals_are_small_against_the_amplitude(self, evolved):
        trace, state = evolved
        t, Phi, Psi = trace.rows[-1][:3]
        assert trace.windows[0].any() and trace.windows[1].any()
        assert t == trace.t_last
        eps_plus, eps_minus = profile_report(trace, state.u, (Phi, Psi))
        assert eps_plus < 0.01 * Phi
        assert eps_minus < 0.01 * Psi

    def test_report_assembles_the_observation(self, evolved):
        trace, state = evolved
        t, Phi, Psi, _, _, eps_plus, eps_minus = trace.rows[-1]
        assert t == state.t
        summary = _block(trace, state.u)
        assert (summary["Phi0"], summary["Psi0"]) == phi0_psi0(GAUSSIAN)
        assert summary["Phi0"] == pytest.approx(1.1539050833, rel=1e-9)
        assert (eps_plus, eps_minus) == profile_report(trace, state.u,
                                                       (Phi, Psi))
        assert eps_plus == pytest.approx(7.035067e-4, rel=1e-5)
        assert eps_minus == pytest.approx(4.921778e-4, rel=1e-5)
        x = GRID.x[trace.windows[0]]
        assert 3.0 < x.min() < x.max() < 5.0

    def test_report_extremes_degrade_to_nan_on_empty_windows(self, evolved):
        # reference data that skips the magnitude band entirely has empty
        # windows; each empty side reports NaN rather than an error
        trace, state = evolved
        Phi, Psi = trace.rows[-1][1:3]
        step = Field(GRID, np.where(np.abs(GRID.x) < 5.0, 0.5, 0.0))
        empty, _ = tail_windows(step)
        assert not empty.any()
        acc = copy.copy(trace)
        acc.u0, acc.windows = step, (empty, empty)
        both = profile_report(acc, state.u, (Phi, Psi))
        assert all(math.isnan(eps) for eps in both)
        acc.u0, acc.windows = GAUSSIAN, (trace.windows[0], empty)
        eps_plus, eps_minus = profile_report(acc, state.u, (Phi, Psi))
        assert eps_plus == trace.rows[-1][5]
        assert math.isnan(eps_minus)


class TestBoundsCheck:
    def test_empty_series_rejected(self):
        # a trace with no snapshot past t = 0 has no bounds to report
        trace = _observe(ProfileAccumulator(GAUSSIAN), GAUSSIAN, [0.0])
        assert trace.rows == []
        assert _block(trace, GAUSSIAN) == {"snapshots": 0,
                                           "error": "no snapshots past t=0"}

    def test_refused_datum_is_the_error_of_an_empty_block(self):
        # the datum's weighted integrals diverge: the trace records why
        # and observes nothing, so the run still ends with a block
        u = _slow_tail(0.4)
        trace = _observe(ProfileAccumulator(u), u, [0.0, 0.1])
        summary = _block(trace, u)
        assert trace.rows == [] and trace.n_snapshots == 0
        assert summary["snapshots"] == 0
        assert summary["error"].startswith(
            "profiles stopped at t=0: weighted profile integrand is cut off "
            "at the crop")

    def test_extremes_span_both_components(self, evolved):
        # c1 and c2 are the running min and max over Phi and Psi together
        rows = np.array(evolved[0].rows)
        lows = np.minimum.accumulate(np.minimum(rows[:, 1], rows[:, 2]))
        highs = np.maximum.accumulate(np.maximum(rows[:, 1], rows[:, 2]))
        assert np.array_equal(rows[:, 3], lows)
        assert np.array_equal(rows[:, 4], highs)
        # on this run the lower bound comes from Psi, the upper from Phi
        assert rows[-1, 3] == rows[:, 2].min() < rows[:, 1].min()
        assert rows[-1, 4] == rows[:, 1].max() > rows[:, 2].max()

    def test_positivity_is_the_pass_rule(self, evolved):
        trace, state = evolved
        assert _block(trace, state.u)["c1_positive"]
        zero = Field(GRID, np.zeros(GRID.N))
        summary = _block(_observe(ProfileAccumulator(zero), zero, [0.0, 0.1]),
                         zero)
        assert summary["c1"] == 0.0 and not summary["c1_positive"]
