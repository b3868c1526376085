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
with two output symbols cached on the grid, A = -(ik/2 + ik/(1+k^2)) keep
and B = -(1/2) ik/(1+k^2) keep, where keep is the 2/3-rule mask.  In steady
state a step therefore costs 16 real transforms: 2 forward in the first
stage (its u and u_x are the state's, already computed), 4 in each of the
other three (u, u_x back, and the two quadratic products forward), and 2
inverse for the new state's u and u_x.  Classification, the log row, the
observers and the next step's first stage all read those cached samples.

Wave breaking (slope -> -infinity while u stays bounded) is detected by a
slope threshold plus a dt floor, and reported as a time bracket, never a
point estimate.  Runs never raise on blowup: breaking is an expected
terminal status.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .field import Field

__all__ = [
    "Status",
    "SolverConfig",
    "SolverState",
    "LogRow",
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
    DT_COLLAPSE = "DtCollapse"
    WAVE_BREAKING = "WaveBreaking"
    NON_FINITE = "NonFinite"

    @property
    def terminal(self) -> bool:
        return self is not Status.RUNNING


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping knobs.

    dealias applies the 2/3-rule mask to the quadratic products u^2 and
    (du/dx)^2 (on by default); boundary_tol is the relative magnitude the
    solution may reach in the outermost cells before the run is declared
    boundary-contaminated (periodicity is a numerical device here, not
    physics, so wrap-around influence invalidates the run).
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
        if not (self.dt_floor < self.dt_max):
            raise ValueError("dt_floor must be below dt_max")
        if not (self.slope_stop < 0.0):
            raise ValueError("slope_stop must be negative")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass
class SolverState:
    t: float
    u: Field
    dt: float
    step_count: int
    status: Status


def rhs(u: Field, dealias: bool = True) -> Field:
    """Right-hand side -(1/2)(u^2)_x - (G * (u^2 + (1/2) u_x^2))_x.

    Both terms are applied in Fourier space through the grid's two fused
    output symbols, rhs^ = A (u^2)^ + B (u_x^2)^, and the result is
    returned as a Field built from that spectrum.  It reads u and u_x from
    the Field's cache, so the only transforms of its own are the two
    forward transforms of the quadratic products.
    """
    grid = u.grid
    v = u.values
    du = u.derivative_values
    a, b = grid._sym_rhs if dealias else grid._sym_rhs_aliased
    return Field.from_spectrum(
        grid, a * np.fft.rfft(v * v) + b * np.fft.rfft(du * du))


def boundary_fraction(u: Field) -> float:
    """|u| in the outermost cells relative to the peak (0 for u = 0)."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return 0.0
    edge = max(abs(float(u.values[0])), abs(float(u.values[-1])))
    return edge / peak


def new_state(u0: Field, config: SolverConfig) -> SolverState:
    """Initial solver state (status Running, dt not yet chosen)."""
    return SolverState(t=0.0, u=u0.copy(), dt=0.0, step_count=0,
                       status=Status.RUNNING)


def _propose_dt(u: Field, config: SolverConfig) -> float:
    speed = max(float(np.max(np.abs(u.values))), _CFL_VELOCITY_FLOOR)
    return min(config.dt_max, config.cfl * u.grid.dx / speed)


def _classify(u_new: Field, t_new: float, config: SolverConfig) -> Status:
    """Post-step status, most severe condition first."""
    if not np.all(np.isfinite(u_new.values)):
        return Status.NON_FINITE
    if float(np.min(u_new.derivative_values)) < config.slope_stop:
        return Status.WAVE_BREAKING
    if boundary_fraction(u_new) > config.boundary_tol:
        return Status.BOUNDARY_CONTAMINATED
    if t_new >= config.t_end - 1e-12 * max(1.0, config.t_end):
        return Status.REACHED_T_END
    return Status.RUNNING


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One adaptive classical RK4 step; never steps a terminal state.

    The stage inputs and the new state are formed in Fourier space,
    u^ + c dt k^, from the spectra the stages return.  The new state is a
    Field built from its spectrum; classification reads its samples and
    derivative, which then serve the observers and the next step's first
    stage without another transform.
    """
    if state.status.terminal:
        raise RuntimeError(f"cannot step a terminal state ({state.status.value})")
    dt = _propose_dt(state.u, config)
    if dt < config.dt_floor:
        return replace(state, status=Status.DT_COLLAPSE)
    if state.t + dt > config.t_end:
        dt = config.t_end - state.t

    grid = state.u.grid
    dealias = config.dealias
    u_hat = state.u.spectrum
    k1 = rhs(state.u, dealias).spectrum
    k2 = rhs(Field.from_spectrum(grid, u_hat + 0.5 * dt * k1), dealias).spectrum
    k3 = rhs(Field.from_spectrum(grid, u_hat + 0.5 * dt * k2), dealias).spectrum
    k4 = rhs(Field.from_spectrum(grid, u_hat + dt * k3), dealias).spectrum
    u_new = Field.from_spectrum(
        grid, u_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))

    t_new = state.t + dt
    return SolverState(
        t=t_new,
        u=u_new,
        dt=dt,
        step_count=state.step_count + 1,
        status=_classify(u_new, t_new, config),
    )


@dataclass(frozen=True)
class LogRow:
    """One observation record of the run log (the CSV row)."""

    t: float
    dt: float
    min_slope: float
    u_inf: float
    ux_inf: float
    energy: float
    mass: float
    extra: Tuple[float, ...] = ()


@dataclass
class RunLog:
    """Observation log: fixed columns plus caller-defined extras."""

    extra_names: Tuple[str, ...]
    rows: List[LogRow]

    @property
    def header(self) -> Tuple[str, ...]:
        return ("t", "dt", "min_slope", "u_inf", "ux_inf", "energy",
                "mass") + self.extra_names

    def column(self, name: str) -> np.ndarray:
        base = ["t", "dt", "min_slope", "u_inf", "ux_inf", "energy", "mass"]
        if name in base:
            return np.array([getattr(r, name) for r in self.rows])
        idx = self.extra_names.index(name)
        return np.array([r.extra[idx] for r in self.rows])


def _log_row(state: SolverState, config: SolverConfig,
             extra_log: Sequence[Tuple[str, Callable[[SolverState], float]]]
             ) -> LogRow:
    grid = state.u.grid
    u = state.u.values
    du = state.u.derivative_values
    dt = state.dt if state.dt > 0.0 else _propose_dt(state.u, config)
    return LogRow(
        t=state.t,
        dt=dt,
        min_slope=float(np.min(du)),
        u_inf=float(np.max(np.abs(u))),
        ux_inf=float(np.max(np.abs(du))),
        energy=float(np.sum(u * u + du * du) * grid.dx),
        mass=float(np.sum(u) * grid.dx),
        extra=tuple(fn(state) for _, fn in extra_log),
    )


def run(
    u0: Field,
    config: SolverConfig,
    observers: Sequence[Callable[[SolverState], None]] = (),
    extra_log: Sequence[Tuple[str, Callable[[SolverState], float]]] = (),
) -> Tuple[SolverState, RunLog]:
    """Integrate from u0 until t_end or a terminal condition.

    Observers are called (and a log row is recorded) on the initial state,
    after every snapshot_stride-th accepted step, and on the terminal
    state.  Deterministic given inputs; wave breaking terminates the run
    cleanly rather than raising.
    """
    if not np.all(np.isfinite(u0.values)):
        raise ValueError("initial data contains non-finite samples")
    if boundary_fraction(u0) > config.boundary_tol:
        raise ValueError(
            "initial data is boundary-contaminated: "
            f"relative edge magnitude {boundary_fraction(u0):.3e} exceeds "
            f"boundary_tol {config.boundary_tol:.3e}"
        )

    state = new_state(u0, config)
    log = RunLog(extra_names=tuple(name for name, _ in extra_log), rows=[])

    def observe(s: SolverState):
        log.rows.append(_log_row(s, config, extra_log))
        for obs in observers:
            obs(s)

    observe(state)
    steps_since_snapshot = 0
    while not state.status.terminal:
        state = step(state, config)
        steps_since_snapshot += 1
        if state.status.terminal or steps_since_snapshot >= config.snapshot_stride:
            observe(state)
            steps_since_snapshot = 0
    return state, log
