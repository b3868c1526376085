"""Adaptive RK4 integration: conservation, order, and terminal statuses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chlab.field import Field, Grid, derivative
from chlab.initial_data import (FromPotential, Gaussian, MollifiedPeakon,
                                OddGaussianDerivative)
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
from helpers import count_transforms, field_from_seed, reflect, shift_samples

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
                  - helmholtz_inverse_dx(source_term(u)).values)
        got = rhs(u, dealias=False).values
        assert np.max(np.abs(got - manual)) < 1e-13


class _Probe:
    """A probe from its column names and its observe function."""

    def __init__(self, columns, observe):
        self.columns = columns
        self.observe = observe


def _unbatched_steps(u0, grid, config):
    """The solver's steps from the samples u0, as (dt, u^, u, u_x) after
    each: the step works on the kept band j <= N/3 only, in its scratch;
    this works on the whole band, in fresh arrays, with the symbols times
    the 2/3-rule mask and one transform per call."""
    n = grid.N
    keep = (np.arange(n // 2 + 1) <= n // 3).astype(float)
    a, b = (symbol * keep for symbol in grid._sym_rhs)
    ik = grid._sym_derivative

    def samples(u_hat):
        return (np.fft.irfft(u_hat, n=n), np.fft.irfft(u_hat * ik, n=n))

    def rhs_hat(u, ux):
        return a * np.fft.rfft(u * u) + b * np.fft.rfft(ux * ux)

    u = u0.copy()
    u_hat = np.fft.rfft(u)
    ux = np.fft.irfft(u_hat * ik, n=n)
    while True:
        dt = min(config.dt_max,
                 config.cfl * grid.dx / max(float(np.max(np.abs(u))), 1e-12))
        k1 = rhs_hat(u, ux)
        k2 = rhs_hat(*samples(u_hat + 0.5 * dt * k1))
        k3 = rhs_hat(*samples(u_hat + 0.5 * dt * k2))
        k4 = rhs_hat(*samples(u_hat + dt * k3))
        u_hat = u_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u, ux = samples(u_hat)
        yield dt, u_hat, u, ux


class TestSpectralPipeline:
    """RK4 in Fourier space: the transform budget per step, the reuse of
    the state's u_x by the probes, bit-identity with the same step made
    with unbatched transforms, and agreement with the same RK4 taken in
    physical space."""

    def test_steady_state_step_makes_16_transforms(self, monkeypatch):
        # stage 1: one rfft of (u^2, u_x^2); stages 2-4: one irfft of
        # (u^, ik u^) and one rfft of the squares; the new state: one
        # irfft of (u^, ik u^)
        config = SolverConfig(t_end=10.0)
        state = step(new_state(Gaussian(1.0, 1.0, 0.0).build(GRID)), config)
        counter = count_transforms(monkeypatch)
        for _ in range(3):
            counter.log.clear()
            state = step(state, config)
            assert counter.calls == 8
            assert counter.transforms == 16
            assert counter.log == [("rfft", 2)] + 3 * [("irfft", 2),
                                                       ("rfft", 2)] + [
                ("irfft", 2)]

    def test_observed_snapshots_add_no_transform(self, monkeypatch):
        from chlab.diagnostics import (PersistenceTrace, h1_norm,
                                       peakon_rate_cap_check)
        from chlab.field import energy, min_slope
        from chlab.weights import StandardFamily

        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        trace = PersistenceTrace(StandardFamily(c=2.0), 2.0, GRID)

        def observe(s):
            peakon_rate_cap_check(s.u)
            min_slope(s.u), energy(s.u), h1_norm(s.u)
            return ()

        counter = count_transforms(monkeypatch)
        state, log = run(u0, SolverConfig(t_end=0.2, snapshot_stride=1),
                         [trace, _Probe((), observe)])
        assert len(log.rows) == state.step_count + 1
        assert np.all(log.column("W") > 0.0)
        # the datum's spectrum and derivative once, then 8 calls making
        # 16 transforms per step
        assert counter.calls == 2 + 8 * state.step_count
        assert counter.transforms == 2 + 16 * state.step_count

    @pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
    def test_batched_numpy_fft_rows_equal_separate_calls(self, n):
        # the pipeline batches each pair of transforms into one call and
        # relies on numpy returning the rows bit for bit
        pair = np.random.default_rng(n).standard_normal((2, n))
        forward = np.fft.rfft(pair)
        for row, samples in zip(forward, pair):
            assert np.array_equal(row, np.fft.rfft(samples))
        spectra = forward * (1.0 + 0.5j)
        back = np.fft.irfft(spectra, n=n)
        for row, spectrum in zip(back, spectra):
            assert np.array_equal(row, np.fft.irfft(spectrum, n=n))

    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("datum", [
        Gaussian(1.0, 1.0, 0.0),
        OddGaussianDerivative(amplitude=1.0, width=1.0),
        FromPotential(m0=Gaussian(amplitude=1.0, width=0.7, center=-1.0)),
    ], ids=["gaussian", "odd", "from_potential"])
    def test_bit_identical_to_unbatched_stepper(self, datum, n):
        grid = Grid(20.0, n)
        config = SolverConfig(t_end=10.0, boundary_tol=1.0)
        state = new_state(datum.build(grid))
        reference = _unbatched_steps(state.u.values, grid, config)
        for _ in range(50):
            dt, u_hat, u, ux = next(reference)
            state = step(state, config)
            assert state.status is Status.RUNNING
            assert state.dt == dt
            assert np.array_equal(state.u.spectrum, u_hat)
            assert np.array_equal(state.u.values, u)
            assert np.array_equal(state.u.derivative_values, ux)

    @pytest.mark.parametrize("datum", [
        Gaussian(1.0, 1.0, 0.0),
        OddGaussianDerivative(amplitude=1.0, width=1.0),
        FromPotential(m0=Gaussian(amplitude=1.0, width=0.7, center=-1.0)),
    ], ids=["gaussian", "odd", "from_potential"])
    def test_matches_physical_space_rk4(self, datum):
        u0 = datum.build(GRID)
        config = SolverConfig(t_end=10.0, dt_max=0.005, boundary_tol=1.0)
        state = new_state(u0)
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

    def test_steady_state_step_allocates_only_what_it_returns(self):
        # the new state's spectrum and its (2, N) samples, and a few small
        # Python objects; every pair, stage input and stage spectrum lives
        # in the solver's scratch
        import tracemalloc

        n = 4096
        grid = Grid(20.0, n)
        config = SolverConfig(t_end=10.0)
        state = new_state(Gaussian(1.0, 1.0, 0.0).build(grid))
        for _ in range(3):
            state = step(state, config)
        spectrum_bytes = (n // 2 + 1) * 16
        returned_bytes = spectrum_bytes + 2 * n * 8
        bound = returned_bytes + 4096   # 102,416 B at N = 4096
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = step(state, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert state.status is Status.RUNNING
        assert returned_bytes <= peak <= bound

    @given(seeds)
    def test_rhs_of_a_spectrum_built_field_matches_its_samples(self, seed):
        spectrum = field_from_seed(GRID, seed).spectrum
        from_spectrum = rhs(Field.from_spectrum(GRID, spectrum)).values
        from_samples = rhs(
            Field(GRID, Field.from_spectrum(GRID, spectrum).values)).values
        assert np.max(np.abs(from_spectrum - from_samples)) < 1e-13


def _workspace_arrays(grid):
    from chlab.solver import _scratch

    ws = _scratch(grid.N)
    return (ws.samples, ws.pair, ws.k1, ws.k)


def _field_arrays(u):
    return (u.spectrum, u.values, u.derivative_values)


class TestWorkspace:
    """The solver's step scratch is scratch: nothing a step or rhs returns
    lives in it, and nothing carries over from one call to the next."""

    def test_alternating_runs_on_one_grid_equal_their_separate_runs(self):
        grid = Grid(20.0, 512)
        configs = (SolverConfig(t_end=10.0, boundary_tol=1.0),
                   SolverConfig(t_end=10.0, boundary_tol=1.0, cfl=0.2))
        data = (Gaussian(1.0, 1.0, 0.0),
                OddGaussianDerivative(amplitude=1.0, width=1.0))
        shared = [new_state(d.build(grid)) for d in data]
        alone = [new_state(d.build(Grid(20.0, 512))) for d in data]
        for _ in range(20):
            shared = [step(s, c) for s, c in zip(shared, configs)]
        for i, config in enumerate(configs):
            for _ in range(20):
                alone[i] = step(alone[i], config)
        for a, b in zip(shared, alone):
            assert a.status is b.status is Status.RUNNING
            assert (a.t, a.dt, a.u_inf) == (b.t, b.dt, b.u_inf)
            for x, y in zip(_field_arrays(a.u), _field_arrays(b.u)):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_returned_arrays_do_not_share_the_workspace(self, dealias):
        config = SolverConfig(t_end=10.0)
        state = new_state(Gaussian(1.0, 1.0, 0.0).build(GRID))
        for _ in range(3):
            state = step(state, config)
            out = rhs(state.u, dealias)
            for arr in _field_arrays(state.u) + _field_arrays(out):
                for scratch in _workspace_arrays(GRID):
                    assert not np.shares_memory(arr, scratch)

    def test_two_rhs_calls_return_independent_fields(self):
        u1 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        u2 = OddGaussianDerivative(amplitude=1.0, width=1.0).build(GRID)
        r1 = rhs(u1)
        spectrum1 = r1.spectrum.copy()
        r2 = rhs(u2)
        values1 = r1.values.copy()
        rhs(u2).values
        assert np.array_equal(r1.spectrum, spectrum1)
        assert np.array_equal(r1.values, values1)
        assert np.array_equal(r1.values, rhs(u1).values)
        for x in _field_arrays(r1):
            for y in _field_arrays(r2):
                assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("order", ["alternating", "one-after-the-other"])
    def test_grids_of_one_size_and_two_boxes_keep_their_own_runs(self,
                                                                 order):
        # grids of one N share one scratch, which must carry nothing of one
        # grid into another's step: not a box's symbols, not a band left by
        # an earlier step, whether the grids alternate or the first is
        # dropped before the second is built.  Each run must equal that
        # datum's run alone, taken by the unbatched stepper, which has no
        # scratch.
        import gc

        config = SolverConfig(t_end=10.0, boundary_tol=1.0)
        runs = ((20.0, Gaussian(1.0, 1.0, 0.0)),
                (30.0, OddGaussianDerivative(amplitude=1.0, width=1.0)))

        def final(state):
            return (state.dt, *(a.copy() for a in _field_arrays(state.u)))

        if order == "alternating":
            states = [new_state(d.build(Grid(box, 512))) for box, d in runs]
            for _ in range(20):
                states = [step(s, config) for s in states]
            finals = [final(s) for s in states]
        else:
            finals = []
            for box, datum in runs:
                grid = Grid(box, 512)
                state = new_state(datum.build(grid))
                for _ in range(20):
                    state = step(state, config)
                finals.append(final(state))
                # the grid goes last, so the next one is often given its id
                del state
                gc.collect()
                del grid
        for (box, datum), got in zip(runs, finals):
            grid = Grid(box, 512)
            reference = _unbatched_steps(datum.build(grid).values, grid,
                                         config)
            for _ in range(20):
                dt, u_hat, u, ux = next(reference)
            assert got[0] == dt
            for x, y in zip(got[1:], (u_hat, u, ux)):
                assert np.array_equal(x, y)

    def test_each_step_evaluates_four_stages_through_rhs(self, monkeypatch):
        # the benchmark's solver.rhs span wraps this name and reads 4 calls
        # a step; a stage evaluated around it would read 0
        import chlab.solver

        calls = []
        original = chlab.solver.rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(chlab.solver, "rhs", counted)
        config = SolverConfig(t_end=10.0)
        state = new_state(Gaussian(1.0, 1.0, 0.0).build(GRID))
        for count in range(1, 4):
            state = step(state, config)
            assert len(calls) == 4 * count


class TestConfigValidation:
    def test_cfl_bounds(self):
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(t_end=1.0, cfl=0.0)
        with pytest.raises(ValueError, match="cfl"):
            SolverConfig(t_end=1.0, cfl=1.5)

    @pytest.mark.parametrize("dt_max, dt_floor", [(0.0, -1e-9),
                                                  (-0.01, -1.0)])
    def test_dt_max_positive(self, dt_max, dt_floor):
        # a step of at most dt_max <= 0 never advances t, whatever the
        # (ignored) dt_floor
        with pytest.raises(ValueError, match="dt_max must be positive"):
            SolverConfig(t_end=1.0, dt_max=dt_max, dt_floor=dt_floor)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_boundary_tol_positive(self, tol):
        with pytest.raises(ValueError, match="boundary_tol must be positive"):
            SolverConfig(t_end=1.0, boundary_tol=tol)

    def test_zero_dt_floor_is_valid(self):
        assert SolverConfig(t_end=1.0, dt_floor=0.0).dt_floor == 0.0

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
        assert log1.rows == log2.rows

    def test_stepping_terminal_state_is_an_error(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state, _ = run(u0, SolverConfig(t_end=0.05))
        with pytest.raises(RuntimeError, match="terminal"):
            step(state, SolverConfig(t_end=0.05))

    def test_new_state_copies_the_datum(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state = new_state(u0)
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
        t, slope = log.column("t"), log.column("min_slope")
        assert t[-2] == pytest.approx(0.112710884, rel=1e-6)
        assert slope[-1] < -4.0
        assert slope[-2] >= -4.0

    def test_dt_floor_has_no_effect(self):
        # the CFL step is 0.3 * dx / max|u| = 0.0117, below the floor
        u0 = Gaussian(1.0, 1.0, 0.0).build(Grid(20.0, 1024))
        state, log = run(u0, SolverConfig(t_end=0.5, dt_floor=0.02))
        plain, plain_log = run(u0, SolverConfig(t_end=0.5))
        assert state.status is plain.status is Status.REACHED_T_END
        assert state.step_count == plain.step_count == 43
        assert log.rows == plain_log.rows

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_initial_datum_raises(self, bad):
        values = Gaussian(1.0, 1.0, 0.0).build(GRID).values.copy()
        values[3] = bad
        with pytest.raises(ValueError, match="non-finite samples"):
            run(Field(GRID, values), SolverConfig(t_end=1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_state_is_flagged(self, bad):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        state = new_state(u0)
        state.u.values[3] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            out = step(state, SolverConfig(t_end=1.0))
        assert out.status is Status.NON_FINITE

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_data_is_not_stepped(self, bad):
        # an inf sample makes the CFL dt 0 and a NaN sample would spread:
        # neither is stepped, and both read NonFinite
        values = Gaussian(1.0, 1.0, 0.0).build(GRID).values.copy()
        values[3] = bad
        state = new_state(Field(GRID, values))
        out = step(state, SolverConfig(t_end=1.0))
        assert out.status is Status.NON_FINITE
        assert out.step_count == 0 and out.t == 0.0

    def test_status_severity_ordering(self):
        assert not Status.RUNNING.terminal
        for s in (Status.REACHED_T_END, Status.BOUNDARY_CONTAMINATED,
                  Status.WAVE_BREAKING, Status.NON_FINITE):
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
                         [_Probe((), lambda s: seen.append(s.t) or ())])
        assert seen[0] == 0.0
        assert seen[-1] == pytest.approx(state.t)
        assert seen == log.column("t").tolist()
        # stride 4: initial, every 4th step, terminal
        assert len(seen) == 2 + (state.step_count - 1) // 4

    def test_probe_columns_follow_the_fixed_ones(self):
        # probes of 0, 1 and 2 columns: their columns follow the fixed
        # ones in probe order, and each row holds what they returned
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        silent = _Probe((), lambda s: ())
        peak = _Probe(("peak",), lambda s: (float(np.max(s.u.values)),))
        clock = _Probe(("t2", "step"), lambda s: (2.0 * s.t,
                                                  float(s.step_count)))
        state, log = run(u0, SolverConfig(t_end=0.1, snapshot_stride=1),
                         [silent, peak, clock])
        assert log.header == ("t", "dt", "min_slope", "u_inf", "ux_inf",
                              "energy", "mass", "peak", "t2", "step")
        peaks = log.column("peak")
        assert peaks[0] == pytest.approx(1.0)
        assert np.all(peaks > 0.9)
        assert peaks[-1] == float(np.max(state.u.values))
        assert np.array_equal(log.column("t2"), 2.0 * log.column("t"))
        assert np.array_equal(log.column("step"),
                              np.arange(state.step_count + 1))

    def test_column_lookup_errors_on_unknown_name(self):
        log = RunLog(extra_names=(), rows=[])
        with pytest.raises(ValueError):
            log.column("nope")

    def test_initial_row_reports_the_proposed_dt(self):
        u0 = Gaussian(1.0, 1.0, 0.0).build(GRID)
        _, log = run(u0, SolverConfig(t_end=0.1))
        expected = min(0.05, 0.3 * GRID.dx / 1.0)
        assert log.column("dt")[0] == pytest.approx(expected, rel=1e-12)


class TestBoundaryFraction:
    def test_zero_field(self):
        assert boundary_fraction(Field(GRID, np.zeros(GRID.N))) == 0.0

    def test_relative_to_peak(self):
        values = np.zeros(GRID.N)
        values[GRID.N // 2] = 2.0
        values[0] = 0.5
        assert boundary_fraction(Field(GRID, values)) == pytest.approx(0.25)
