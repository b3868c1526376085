"""Tail-profile machinery: time-averaged source, amplitude pair,
automatic asymptotic windows, residuals, and the evolution identity."""

import math

import numpy as np
import pytest

from chlab.field import Field, Grid, peakon, source_term
from chlab.initial_data import Gaussian, MollifiedExponential, MollifiedPeakon
from chlab.profiles import (
    ProfileAccumulator,
    ProfileReport,
    TailReference,
    phi0_psi0,
    phi_psi,
    profile_bounds_check,
    profile_report,
    reconstruct,
    tail_residual,
    tail_window,
)
from chlab.solver import SolverConfig, run

GRID = Grid(20.0, 1024)
GAUSSIAN = Gaussian(1.0, 1.0, 0.0).build(GRID)


class TestAccumulator:
    def test_snapshot_times_must_increase(self):
        acc = ProfileAccumulator(GRID).accumulate(GAUSSIAN, 0.0)
        acc.accumulate(GAUSSIAN, 0.5)
        with pytest.raises(ValueError, match="non-monotone"):
            acc.accumulate(GAUSSIAN, 0.5)

    def test_average_needs_an_interval(self):
        acc = ProfileAccumulator(GRID)
        with pytest.raises(ValueError, match="no time interval"):
            acc.h(1.0)
        acc.accumulate(GAUSSIAN, 0.0)
        with pytest.raises(ValueError, match="no time interval"):
            acc.h(1.0)

    def test_average_only_at_current_time(self):
        acc = ProfileAccumulator(GRID)
        acc.accumulate(GAUSSIAN, 0.0).accumulate(GAUSSIAN, 1.0)
        with pytest.raises(ValueError, match="query at t="):
            acc.h(0.5)

    def test_stationary_average_is_the_source_itself(self):
        # trapezoid over a constant-in-time field: h = F(u) exactly, so the
        # running amplitudes equal the t -> 0 values computed directly
        acc = ProfileAccumulator(GRID)
        acc.accumulate(GAUSSIAN, 0.0).accumulate(GAUSSIAN, 2.0)
        F = source_term(GAUSSIAN, dealias=True).values
        assert np.array_equal(acc.h(2.0), F)
        assert phi_psi(acc, 2.0) == phi0_psi0(GAUSSIAN, dealias=True)


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

    def test_smooth_crest_dealias_invariance(self):
        u = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.05).build(
            Grid(10.0, 8192)
        )
        raw = phi0_psi0(u, dealias=False)
        masked = phi0_psi0(u, dealias=True)
        assert raw[0] == pytest.approx(0.9728001786, rel=1e-9)
        assert abs(raw[0] - masked[0]) < 1e-9

    def test_zero_field(self):
        assert phi0_psi0(Field(GRID, np.zeros(GRID.N))) == (0.0, 0.0)

    def test_slow_tail_is_rejected_as_contaminated(self):
        # e^{-|x|/20} on a half-width-20 box: the e^{+y}-weighted source
        # still grows at the boundary, so no finite statistic exists here
        u = MollifiedExponential(amplitude=1.0, rate=0.05, center=0.0,
                                 mollify_width=0.1).build(GRID)
        with pytest.raises(ValueError, match="boundary-contaminated"):
            phi0_psi0(u)


class TestTailWindow:
    def test_side_validated(self):
        with pytest.raises(ValueError, match="side must be"):
            tail_window(GAUSSIAN, "right")

    def test_zero_field_has_no_window(self):
        assert not tail_window(Field(GRID, np.zeros(GRID.N)), "plus").any()

    def test_gaussian_window_sits_in_the_outer_band(self):
        window = tail_window(GAUSSIAN, "plus")
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
        plus = tail_window(GAUSSIAN, "plus")
        minus = tail_window(GAUSSIAN, "minus")
        assert np.count_nonzero(plus) == pytest.approx(
            np.count_nonzero(minus), abs=1
        )
        assert np.all(GRID.x[minus] < 0)

    def test_step_data_has_empty_window(self):
        # |u0| jumps straight from peak to zero: no samples land between
        # the floor and the ceiling, so there is no asymptotic window
        values = np.where(np.abs(GRID.x) < 5.0, 1.0, 0.0)
        assert not tail_window(Field(GRID, values), "plus").any()


class _AmplitudeProbe:
    """Accumulates every snapshot and collects (Phi, Psi) past t = 0."""

    columns = ()

    def __init__(self):
        self.acc = ProfileAccumulator(GRID)
        self.series = []

    def observe(self, state):
        self.acc.accumulate(state.u, state.t)
        if self.acc.n_snapshots >= 2:
            self.series.append(phi_psi(self.acc, state.t))
        return ()


def _evolved_gaussian():
    """Short production-style run with per-step accumulation."""
    probe = _AmplitudeProbe()
    config = SolverConfig(t_end=0.25, snapshot_stride=1)
    state, _ = run(GAUSSIAN, config, [probe])
    return probe.acc, state, probe.series


@pytest.fixture(scope="module")
def evolved():
    return _evolved_gaussian()


class TestEvolutionRun:
    def test_amplitudes_stay_pinned_between_positive_bounds(self, evolved):
        _, _, series = evolved
        c1, c2, passed = profile_bounds_check(series)
        assert passed
        assert c1 == pytest.approx(1.0310717598, rel=1e-9)
        assert c2 == pytest.approx(1.3017917083, rel=1e-9)
        # the lower bound stays a healthy fraction of the initial amplitude
        Phi0, _ = phi0_psi0(GAUSSIAN)
        assert c1 > 0.75 * Phi0

    def test_first_interval_amplitudes(self, evolved):
        _, _, series = evolved
        assert series[0][0] == pytest.approx(1.1602500160, rel=1e-9)
        assert series[0][1] == pytest.approx(1.1476390199, rel=1e-9)

    def test_evolution_identity_reconstructs_the_state(self, evolved):
        # u0 - (G * int F)_x - int u u_x agrees with the integrated state
        # up to time-quadrature error of the snapshot trapezoid
        acc, state, _ = evolved
        recon = reconstruct(acc, GAUSSIAN)
        err = float(np.max(np.abs(recon.values - state.u.values)))
        assert err < 1e-4
        assert err == pytest.approx(2.84182026e-05, rel=1e-6)

    def test_residuals_are_small_against_the_amplitude(self, evolved):
        acc, state, series = evolved
        Phi, Psi = series[-1]
        reference = TailReference.of(GAUSSIAN)
        x, eps = tail_residual(acc, state.u, reference, state.t, "plus", Phi)
        assert x.size > 0
        assert float(np.max(np.abs(eps))) < 0.01 * Phi
        _, eps_m = tail_residual(acc, state.u, reference, state.t, "minus",
                                 Psi)
        assert float(np.max(np.abs(eps_m))) < 0.01 * Psi

    def test_report_assembles_the_observation(self, evolved):
        acc, state, series = evolved
        report = profile_report(acc, state.u, TailReference.of(GAUSSIAN),
                                state.t, series)
        assert report.t == state.t
        assert (report.Phi, report.Psi) == series[-1]
        assert report.Phi0 == pytest.approx(1.1539050833, rel=1e-9)
        assert (report.c1, report.c2) == profile_bounds_check(series)[:2]
        assert report.max_eps_plus == pytest.approx(7.035067e-4, rel=1e-5)
        assert report.max_eps_minus == pytest.approx(4.921778e-4, rel=1e-5)
        lo, hi = report.window_plus
        assert 3.0 < lo < hi < 5.0

    def test_empty_window_returns_empty_residuals(self, evolved):
        # reference data that skips the magnitude band entirely yields an
        # empty window, reported as empty arrays rather than an error
        acc, state, series = evolved
        step = Field(GRID, np.where(np.abs(GRID.x) < 5.0, 0.5, 0.0))
        x, eps = tail_residual(acc, state.u, TailReference.of(step), state.t,
                               "plus", series[-1][0])
        assert x.size == 0 and eps.size == 0

    def test_report_extremes_degrade_to_nan_on_empty_windows(self):
        empty = np.array([])
        report = ProfileReport(
            t=1.0, Phi=1.0, Psi=1.0, Phi0=1.0, Psi0=1.0,
            residual_plus=(empty, empty), residual_minus=(empty, empty),
            window_plus=(math.nan, math.nan),
            window_minus=(math.nan, math.nan), c1=1.0, c2=1.0,
        )
        assert math.isnan(report.max_eps_plus)
        assert math.isnan(report.max_eps_minus)


class TestBoundsCheck:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="no amplitude samples"):
            profile_bounds_check([])

    def test_extremes_span_both_components(self):
        c1, c2, passed = profile_bounds_check([(1.0, 3.0), (2.0, 0.5)])
        assert (c1, c2) == (0.5, 3.0)
        assert passed

    def test_positivity_is_the_pass_rule(self):
        assert profile_bounds_check([(1.0, 2.0)])[2]
        assert not profile_bounds_check([(0.0, 1.0)])[2]
        assert not profile_bounds_check([(1.0, -0.1)])[2]
