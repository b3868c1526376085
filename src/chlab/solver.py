"""Adaptive RK4 time integration of the Camassa-Holm equation in nonlocal
form

    du/dt = -(1/2) d/dx (u^2) - d/dx G * (u^2 + (1/2)(du/dx)^2),

with G(x) = (1/2) e^{-|x|}, i.e. dt u = rhs(u) with the convolution realized
by the Fourier symbol ik/(1+k^2).  The advection term is evaluated in
conservative form (1/2) d/dx (u^2); on 2/3-band-limited fields this is
bit-for-bit the same as u * du/dx, and on kink-sampled diagnostic data it
cancels the leading spectral ringing of the derivative (the ringing is
linear in the derivative jump, so c * Du and (1/2) D(u^2) ring in exact
proportion for a peakon).

Stepping is classical RK4 with dt = min(dt_max, cfl * dx / max(|u|, eps)),
carried out in Fourier space.  The state is a Field built from its real-FFT
spectrum u^, and every stage input is formed as u^ + c dt k^ from the
spectra the stages return.  Each stage evaluates rhs^ = A (u^2)^ + B (u_x^2)^
with two output symbols cached on the grid, A = -(ik/2 + ik/(1+k^2)) and
B = -(1/2) ik/(1+k^2), on the band j <= N/3 that the 2/3 rule keeps.  In
steady state a step therefore costs 16 transforms in 8 batched calls, each
a numpy.fft call on a pair: one forward call of (u^2, u_x^2) in the first
stage (its u and u_x are the state's, already computed), one inverse call
of (u^, ik u^) and one forward call of the squares in each of the other
three, and one inverse call of (u^, ik u^) for the new state.  The rows of
a batched call equal the separate calls bit for bit.

A step allocates only what it returns: the four stage spectra, which it
then combines in place, and the new state's spectrum and samples.  The
pairs of every call and the stage inputs' samples live in one workspace
per grid (``Grid._workspace``), which the calls read and write with
``out=``.  The spectral arithmetic runs on the kept band j <= N/3 only:
above it the rhs is zero, so every stage input and the new state equal
u^ there, which is copied.  After the step one max |u| serves three
checks: a non-finite sample (the max propagates NaN and inf), the
boundary fraction, and the next step's CFL dt; it is kept on the state
as ``u_inf``.  Classification, the log row, the probes and the next
step's first stage all read the new state's cached samples.

Wave breaking (slope -> -infinity while u stays bounded) is detected by a
slope threshold and reported as a time bracket, never a point estimate.
Runs never raise on blowup: breaking is an expected terminal status.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .field import Field, energy, integral, min_slope

__all__ = [
    "Status",
    "SolverConfig",
    "SolverState",
    "RunLog",
    "rhs",
    "new_state",
    "step",
    "run",
    "boundary_fraction",
]

_CFL_VELOCITY_FLOOR = 1e-12


class Status(enum.Enum):
    """Terminal and non-terminal run states, in increasing severity order
    (severity decides which status wins when several fire on one step)."""

    RUNNING = "Running"
    REACHED_T_END = "ReachedTEnd"
    BOUNDARY_CONTAMINATED = "BoundaryContaminated"
    WAVE_BREAKING = "WaveBreaking"
    NON_FINITE = "NonFinite"

    @property
    def terminal(self) -> bool:
        return self is not Status.RUNNING


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs.

    dealias must be true (the step always applies the 2/3 rule);
    boundary_tol is the relative magnitude the solution may reach in the
    outermost cells before the run is declared boundary-contaminated
    (periodicity is a numerical device here, not physics, so wrap-around
    influence invalidates the run).  dt_floor is accepted and has no effect.
    """

    t_end: float
    cfl: float = 0.3
    dt_max: float = 0.05
    dt_floor: float = 1e-9
    slope_stop: float = -100.0
    snapshot_stride: int = 8
    dealias: bool = True
    boundary_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not (self.dt_max > 0.0):
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not (self.slope_stop < 0.0):
            raise ValueError("slope_stop must be negative")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if not (self.boundary_tol > 0.0):
            raise ValueError(
                f"boundary_tol must be positive, got {self.boundary_tol}")
        if not self.dealias:
            raise ValueError(
                "dealias must be true: the step always applies the 2/3 rule")


@dataclass
class SolverState:
    """A point of the run.  dt is the step that reached it (0 before the
    first step); u_inf is max |u| over the samples of u, measured once
    when the state is made."""

    t: float
    u: Field
    dt: float
    step_count: int
    status: Status
    u_inf: float


def rhs(u: Field, dealias: bool = True) -> Field:
    """Right-hand side -(1/2)(u^2)_x - (G * (u^2 + (1/2) u_x^2))_x.

    Both terms are applied in Fourier space through the grid's two fused
    output symbols, rhs^ = A (u^2)^ + B (u_x^2)^, and the result is
    returned as a Field built from that spectrum.  It reads u and u_x from
    the Field's cache, so its only transforms are the two forward
    transforms of the quadratic products, made in one call on the pair of
    squares in the grid's workspace.  Dealiased, the returned spectrum, a
    new array, is zero above the kept band.
    """
    grid = u.grid
    ws = grid._workspace
    kept = grid._kept_band if dealias else slice(None)
    a, b = grid._sym_rhs
    v = u.values
    du = u.derivative_values
    squares = ws.samples
    np.multiply(v, v, out=squares[0])
    np.multiply(du, du, out=squares[1])
    p = np.fft.rfft(squares, out=ws.spectra)
    out = np.zeros(grid.N // 2 + 1, dtype=complex)
    np.multiply(a[kept], p[0, kept], out=out[kept])
    np.multiply(b[kept], p[1, kept], out=p[1, kept])
    np.add(out[kept], p[1, kept], out=out[kept])
    return Field.from_spectrum(grid, out)


def _edge_fraction(values: np.ndarray, peak: float) -> float:
    if peak == 0.0:
        return 0.0
    edge = max(abs(float(values[0])), abs(float(values[-1])))
    return edge / peak


def boundary_fraction(u: Field) -> float:
    """|u| in the outermost cells relative to the peak (0 for u = 0)."""
    return _edge_fraction(u.values, float(np.max(np.abs(u.values))))


def new_state(u0: Field) -> SolverState:
    """Initial solver state (status Running, dt not yet chosen)."""
    u = u0.copy()
    return SolverState(t=0.0, u=u, dt=0.0, step_count=0,
                       status=Status.RUNNING,
                       u_inf=float(np.max(np.abs(u.values))))


def _propose_dt(state: SolverState, config: SolverConfig) -> float:
    speed = max(state.u_inf, _CFL_VELOCITY_FLOOR)
    return min(config.dt_max, config.cfl * state.u.grid.dx / speed)


def _classify(u_new: Field, u_inf: float, t_new: float,
              config: SolverConfig) -> Status:
    """Post-step status, most severe condition first; u_inf = max |u_new|."""
    if not math.isfinite(u_inf):
        return Status.NON_FINITE
    if min_slope(u_new) < config.slope_stop:
        return Status.WAVE_BREAKING
    if _edge_fraction(u_new.values, u_inf) > config.boundary_tol:
        return Status.BOUNDARY_CONTAMINATED
    if t_new >= config.t_end - 1e-12 * max(1.0, config.t_end):
        return Status.REACHED_T_END
    return Status.RUNNING


def _stage_input(grid, u_hat: np.ndarray, c: float, k: np.ndarray) -> Field:
    """The stage input u^ + c k^ as a Field whose spectrum and samples are
    the workspace's; rhs overwrites them with the squares, so it serves
    one rhs call.  Above the kept band the stage spectrum holds u^."""
    ws = grid._workspace
    kept = grid._kept_band
    stage = ws.stage[kept]
    np.multiply(c, k[kept], out=stage)
    np.add(u_hat[kept], stage, out=stage)
    field = Field.from_spectrum(grid, ws.stage)
    field._transform_back(ws.samples)
    return field


def _add_doubled(acc: np.ndarray, k: np.ndarray) -> None:
    """acc + 2.0 k into acc, with 2.0 k formed in k's own storage."""
    np.multiply(2.0, k, out=k)
    np.add(acc, k, out=acc)


def _rk4_spectrum(state: SolverState, dt: float) -> np.ndarray:
    """u^ + (dt/6)(k1 + 2 k2 + 2 k3 + k4), rounded as that expression is.

    The kept band is computed in place: k1's array accumulates the sum,
    each later stage spectrum is folded in once the next stage input is
    formed, and k4's array becomes the result, which holds u^ above the
    kept band.  So at most three stage spectra are alive at once.
    """
    grid = state.u.grid
    kept = grid._kept_band
    u_hat = state.u.spectrum
    grid._workspace.stage[...] = u_hat
    k = rhs(state.u).spectrum                                        # k1
    acc = k[kept]
    stage = _stage_input(grid, u_hat, 0.5 * dt, k)
    k = rhs(stage).spectrum                                          # k2
    stage = _stage_input(grid, u_hat, 0.5 * dt, k)
    _add_doubled(acc, k[kept])
    k = rhs(stage).spectrum                                          # k3
    stage = _stage_input(grid, u_hat, dt, k)
    _add_doubled(acc, k[kept])
    k = rhs(stage).spectrum                                          # k4
    np.add(acc, k[kept], out=acc)
    np.multiply(dt / 6.0, acc, out=acc)
    k[...] = u_hat
    np.add(u_hat[kept], acc, out=k[kept])
    return k


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One adaptive classical RK4 step; never steps a terminal state.

    The stage inputs and the new state are formed in Fourier space,
    u^ + c dt k^, from the spectra the stages return (see _rk4_spectrum).
    The new state is a Field built from its spectrum; one max |u| over
    its samples classifies it and sets the next step's dt, and its
    samples and derivative serve the probes and the next step's first
    stage without another transform.
    """
    if state.status.terminal:
        raise RuntimeError(f"cannot step a terminal state ({state.status.value})")
    if not math.isfinite(state.u_inf):  # an inf sample would propose dt = 0
        return replace(state, status=Status.NON_FINITE)
    dt = _propose_dt(state, config)
    if state.t + dt > config.t_end:
        dt = config.t_end - state.t

    grid = state.u.grid
    u_new = Field.from_spectrum(grid, _rk4_spectrum(state, dt))
    t_new = state.t + dt
    u_inf = float(np.max(np.abs(u_new.values, out=grid._workspace.samples[0])))
    return SolverState(
        t=t_new,
        u=u_new,
        dt=dt,
        step_count=state.step_count + 1,
        status=_classify(u_new, u_inf, t_new, config),
        u_inf=u_inf,
    )


@dataclass
class RunLog:
    """Observation log: one tuple per row, in ``header`` order — the fixed
    columns, then the probes' columns."""

    extra_names: Tuple[str, ...]
    rows: List[Tuple[float, ...]]

    @property
    def header(self) -> Tuple[str, ...]:
        return ("t", "dt", "min_slope", "u_inf", "ux_inf", "energy",
                "mass") + self.extra_names

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([r[idx] for r in self.rows])


def _log_row(state: SolverState, config: SolverConfig,
             extra: Tuple[float, ...]) -> Tuple[float, ...]:
    u = state.u
    dt = state.dt if state.dt > 0.0 else _propose_dt(state, config)
    return (
        state.t,
        dt,
        min_slope(u),
        state.u_inf,
        float(np.max(np.abs(u.derivative_values))),
        energy(u),
        integral(u),
    ) + extra


def run(u0: Field, config: SolverConfig, probes: Sequence = ()
        ) -> Tuple[SolverState, RunLog]:
    """Integrate from u0 until t_end or a terminal condition.

    A log row is recorded, and every probe observes the state, on the
    initial state, after every snapshot_stride-th accepted step, and on
    the terminal state.  A probe has ``columns``, the names of the log
    columns it adds (possibly none), and ``observe(state)``, which returns
    one value per column; the probes' columns follow the fixed ones in
    probe order.  Deterministic given inputs; wave breaking terminates
    the run cleanly rather than raising.
    """
    state = new_state(u0)
    if not math.isfinite(state.u_inf):
        raise ValueError("initial data contains non-finite samples")
    edge = _edge_fraction(state.u.values, state.u_inf)
    if edge > config.boundary_tol:
        raise ValueError(
            "initial data is boundary-contaminated: "
            f"relative edge magnitude {edge:.3e} exceeds "
            f"boundary_tol {config.boundary_tol:.3e}"
        )

    log = RunLog(extra_names=tuple(name for probe in probes
                                   for name in probe.columns), rows=[])

    def observe(s: SolverState):
        extra = tuple(v for probe in probes for v in probe.observe(s))
        log.rows.append(_log_row(s, config, extra))

    observe(state)
    steps_since_snapshot = 0
    while not state.status.terminal:
        state = step(state, config)
        steps_since_snapshot += 1
        if state.status.terminal or steps_since_snapshot >= config.snapshot_stride:
            observe(state)
            steps_since_snapshot = 0
    return state, log
