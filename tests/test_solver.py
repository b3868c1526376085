"""Adaptive RK4 integration: conservation, order, and terminal statuses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chlab.field import Field, Grid, derivative, reflect, shift_samples
from chlab.initial_data import (FromPotential, Gaussian, GaussianShape,
                                MollifiedPeakon, OddGaussianDerivative)
from chlab.solver import (
    RunLog,
    SolverConfig,
    Status,
    boundary_fraction,
    new_state,
    rhs,
    run,
    step,
)
from helpers import field_from_seed

GRID = Grid(20.0, 512)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _fixed_dt_final(u0, dt, t_end):
    config = SolverConfig(t_end=t_end, cfl=1.0, dt_max=dt,
                          snapshot_stride=1_000_000)
    state, _ = run(u0, config)
    return state.u.values


class TestRhs:
    @given(seeds)
    def test_translation_equivariance(self, seed):
        u = field_from_seed(GRID, seed)
        shifted_first = rhs(shift_samples(u, 37)).values
        shifted_last = shift_samples(rhs(u), 37).values
        assert np.max(np.abs(shifted_first - shifted_last)) < 1e-10

    @given(seeds)
    def test_odd_data_stays_odd(self, seed):
        u = field_from_seed(GRID, seed)
        odd = Field(GRID, 0.5 * (u.values - reflect(u).values))
        out = rhs(odd)
        asym = out.values + reflect(out).values
        assert np.max(np.abs(asym)) < 1e-10

    def test_zero_field_is_a_fixed_point(self):
        out = rhs(Field(GRID, np.zeros(GRID.N)))
        assert np.array_equal(out.values, np.zeros(GRID.N))

    def test_matches_component_formula(self):
        # -(1/2)(u^2)_x - (G * (u^2 + u_x^2/2))_x assembled from the
        # public operators, without dealiasing so both sides are literal
        from chlab.field import helmholtz_inverse_dx, source_term

        u = Gaussian(1.0, 1.0, 0.0).build(GRID)
        u2 = Field(GRID, u.values**2)
        manual = (-0.5 * derivative(u2).values
                  - helmholtz_inverse_dx(source_term(u, dealias=False)).values)
        got = rhs(u, dealias=False).values
        assert np.max(np.abs(got - manual)) < 1e-13


class TestSpectralPipeline:
    """RK4 in Fourier space: the transform budget per step, the reuse of
    the state's u_x by the observers, and agreement with the same RK4
    taken in physical space."""

    @staticmethod
    def _count_transforms(monkeypatch):
        calls = [0]
        for name in ("rfft", "irfft"):
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, **kwargs):
                calls[0] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls

    def test_steady_state_step_makes_16_transforms(self, monkeypatch):
        # 2 forward in stage 1, 4 in each of stages 2-4, 2 inverse for the
        # new state's samples and derivative
        config = SolverConfig(t_end=10.0)
        state = step(new_state(Gaussian(1.0, 1.0, 0.0).build(GRID), config),
                     config)
        calls = self._count_transforms(monkeypatch)
        for _ in range(3):
            before = calls[0]
            state = step(state, config)
            assert calls[0] - before == 16

    def test_observed_snapshots_add_no_transform(self, monkeypatch):
        from chlab.diagnostics import (PersistenceTrace, energy, h1_norm,
                                       min_slope, peakon_rate_cap_check,
                                       sup_norms)
        from chlab.weights import StandardFamily

        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        trace = PersistenceTrace(weight=StandardFamily(c=2.0), p=2.0)

        def observe(s):
            peakon_rate_cap_check(s.u, C=math.inf)
            sup_norms(s.u), min_slope(s.u), energy(s.u), h1_norm(s.u)

        calls = self._count_transforms(monkeypatch)
        state, log = run(u0, SolverConfig(t_end=0.2, snapshot_stride=1),
                         observers=[observe], extra_log=[("W", trace.record)])
        assert len(log.rows) == state.step_count + 1
        assert len(trace.samples) == len(log.rows)
        # the datum's spectrum and derivative once, then 16 per step
        assert calls[0] == 2 + 16 * state.step_count

    @pytest.mark.parametrize("datum", [
        Gaussian(1.0, 1.0, 0.0),
        OddGaussianDerivative(amplitude=1.0, width=1.0),
        FromPotential(m0=GaussianShape(amplitude=1.0, width=0.7, center=-1.0)),
    ], ids=["gaussian", "odd", "from_potential"])
    def test_matches_physical_space_rk4(self, datum):
        u0 = datum.build(GRID)
        config = SolverConfig(t_end=10.0, dt_max=0.005, boundary_tol=1.0)
        state = new_state(u0, config)
        dts = []
        for _ in range(200):
            state = step(state, config)
            assert state.status is Status.RUNNING
            dts.append(state.dt)

        def f(v):
            return rhs(Field(GRID, v)).values

        u = u0.values.copy()
        for dt in dts:
            k1 = f(u)
            k2 = f(u + 0.5 * dt * k1)
            k3 = f(u + 0.5 * dt * k2)
            k4 = f(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        err = np.max(np.abs(state.u.values - u)) / np.max(np.abs(u))
        assert err <= 1e-12

    @given(seeds)
    def test_rhs_of_a_spectrum_built_field_matches_its_samples(self, seed):
        spectrum = field_from_seed(GRID, seed).spectrum
        from_spectrum = rhs(Field.from_spectrum(GRID, spectrum)).values
        from_samples = rhs(
            Field(GRID, Field.from_spectrum(GRID, spectrum).values)).values
        assert np.max(np.abs(from_spectrum - from_samples)) < 1e-13


class TestConfigValidation:
    def test_cfl_bounds(self):
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(t_end=1.0, cfl=1.5)

    def test_dt_floor_below_dt_max(self):
        with pytest.raises(ValueError, match="dt_floor"):
            SolverConfig(t_end=1.0, dt_max=0.01, dt_floor=0.01)

    def test_slope_stop_negative(self):
        with pytest.raises(ValueError, match="slope_stop"):
            SolverConfig(t_end=1.0, slope_stop=0.0)

    def test_t_end_positive(self):
        with pytest.raises(ValueError, match="t_end"):
            SolverConfig(t_end=0.0)

    def test_stride_at_least_one(self):
        with pytest.raises(ValueError, match="snapshot_stride"):
            SolverConfig(t_end=1.0, snapshot_stride=0)


class TestStepping:
    def test_reaches_t_end_exactly(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state, _ = run(u0, SolverConfig(t_end=0.3))
        assert state.status is Status.REACHED_T_END
        assert state.t == pytest.approx(0.3, abs=1e-12)

    def test_deterministic_rerun_is_bit_identical(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        config = SolverConfig(t_end=0.2)
        s1, log1 = run(u0, config)
        s2, log2 = run(u0, config)
        assert np.array_equal(s1.u.values, s2.u.values)
        assert [r.t for r in log1.rows] == [r.t for r in log2.rows]

    def test_stepping_terminal_state_is_an_error(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state, _ = run(u0, SolverConfig(t_end=0.05))
        with pytest.raises(RuntimeError, match="terminal"):
            step(state, SolverConfig(t_end=0.05))

    def test_new_state_copies_the_datum(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state = new_state(u0, SolverConfig(t_end=1.0))
        state.u.values[0] = 123.0
        assert u0.values[0] != 123.0

    def test_fourth_order_in_dt(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        t_end = 0.1
        ref = _fixed_dt_final(u0, t_end / 512.0, t_end)
        errors = [
            float(np.sqrt(np.sum((_fixed_dt_final(u0, dt, t_end) - ref) ** 2)
                          * GRID.dx))
            for dt in (0.01, 0.005)
        ]
        order = math.log2(errors[0] / errors[1])
        assert order == pytest.approx(4.0, abs=0.2)

    def test_energy_and_mass_conserved(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        _, log = run(u0, SolverConfig(t_end=0.5, snapshot_stride=1))
        energy = log.column("energy")
        mass = log.column("mass")
        # time error dominates at N=512 (measured 4.8e-8); 1e-6 is the
        # criterion the production scenarios are held to
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6
        assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-12


class TestTerminalStatuses:
    def test_wave_breaking_with_time_bracket(self):
        u0 = OddGaussianDerivative(amplitude=3.0, width=1.0).build(GRID)
        state, log = run(u0, SolverConfig(t_end=2.0, slope_stop=-4.0,
                                          boundary_tol=1e-3,
                                          snapshot_stride=1))
        assert state.status is Status.WAVE_BREAKING
        assert state.t == pytest.approx(0.132419164, rel=1e-6)
        assert log.rows[-2].t == pytest.approx(0.112710884, rel=1e-6)
        assert log.rows[-1].min_slope < -4.0
        assert log.rows[-2].min_slope >= -4.0

    def test_dt_collapse_when_cfl_step_underruns_floor(self):
        grid = Grid(20.0, 256)
        u0 = Gaussian(1.0, 1.0, 0.0).build(grid)
        # CFL step is 0.3 * dx / 1 = 0.047 < floor
        state, _ = run(u0, SolverConfig(t_end=1.0, dt_max=0.05, dt_floor=0.048))
        assert state.status is Status.DT_COLLAPSE
        assert state.step_count == 0

    def test_boundary_contamination_stops_the_run(self):
        grid = Grid(10.0, 512)
        u0 = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.1).build(grid)
        state, _ = run(u0, SolverConfig(t_end=6.0, boundary_tol=1e-3))
        assert state.status is Status.BOUNDARY_CONTAMINATED
        assert 0.0 < state.t < 6.0
        assert boundary_fraction(state.u) > 1e-3

    def test_contaminated_initial_datum_raises(self):
        grid = Grid(10.0, 512)
        u0 = MollifiedPeakon(c=1.0, x0=0.0, mollify_width=0.1).build(grid)
        with pytest.raises(ValueError, match="boundary-contaminated"):
            run(u0, SolverConfig(t_end=1.0, boundary_tol=1e-8))

    def test_non_finite_state_is_flagged(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state = new_state(u0, SolverConfig(t_end=1.0))
        state.u.values[3] = math.nan
        out = step(state, SolverConfig(t_end=1.0))
        assert out.status is Status.NON_FINITE

    def test_status_severity_ordering(self):
        assert not Status.RUNNING.terminal
        for s in (Status.REACHED_T_END, Status.BOUNDARY_CONTAMINATED,
                  Status.DT_COLLAPSE, Status.WAVE_BREAKING, Status.NON_FINITE):
            assert s.terminal


class TestLogging:
    def test_header_layout(self):
        log = RunLog(extra_names=("W_0",), rows=[])
        assert log.header == ("t", "dt", "min_slope", "u_inf", "ux_inf",
                              "energy", "mass", "W_0")

    def test_observer_cadence(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        seen = []
        state, log = run(u0, SolverConfig(t_end=0.2, snapshot_stride=4),
                         observers=[lambda s: seen.append(s.t)])
        assert seen[0] == 0.0
        assert seen[-1] == pytest.approx(state.t)
        assert seen == [r.t for r in log.rows]
        # stride 4: initial, every 4th step, terminal
        assert len(seen) == 2 + (state.step_count - 1) // 4

    def test_extra_log_columns(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        _, log = run(
            u0,
            SolverConfig(t_end=0.1, snapshot_stride=1),
            extra_log=[("peak", lambda s: float(np.max(s.u.values)))],
        )
        assert log.header[-1] == "peak"
        peaks = log.column("peak")
        assert peaks[0] == pytest.approx(1.0)
        assert np.all(peaks > 0.9)

    def test_column_lookup_errors_on_unknown_name(self):
        log = RunLog(extra_names=(), rows=[])
        with pytest.raises(ValueError):
            log.column("nope")

    def test_initial_row_reports_the_proposed_dt(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        _, log = run(u0, SolverConfig(t_end=0.1))
        expected = min(0.05, 0.3 * GRID.dx / 1.0)
        assert log.rows[0].dt == pytest.approx(expected, rel=1e-12)


class TestBoundaryFraction:
    def test_zero_field(self):
        assert boundary_fraction(Field(GRID, np.zeros(GRID.N))) == 0.0

    def test_relative_to_peak(self):
        values = np.zeros(GRID.N)
        values[GRID.N // 2] = 2.0
        values[0] = 0.5
        assert boundary_fraction(Field(GRID, values)) == pytest.approx(0.25)
