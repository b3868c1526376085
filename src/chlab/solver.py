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

A step allocates only what it returns, the new state's spectrum and its
(2, N) samples.  Everything else lives in one scratch (``_Scratch``),
which this module owns, kept for the grid size N stepped last; nothing
carries over in it from one call to the next, so the grids of one size
share it.  It holds the sample pair and the spectrum pair of every call,
which the calls read and write with ``out=``, and the stage spectra,
which ``rhs`` writes into when the step passes them as ``out``.  The
spectral arithmetic runs on the kept band j <= N/3 only: above it the
rhs is zero, so every stage input and the new state equal u^ there, and
their inverse pair holds u^ and ik u^ there, copied from the state.
After the step one max |u| serves three checks: a non-finite sample (the
max propagates NaN and inf), the boundary fraction, and the next step's
CFL dt; it is kept on the state as ``u_inf``.  Classification, the log
row, the probes and the next step's first stage all read the new state's
samples, which the step's last irfft wrote into the array the new state
owns.

Wave breaking (slope -> -infinity while u stays bounded) is detected by a
slope threshold and reported as a time bracket, never a point estimate.
Runs never raise on blowup: breaking is an expected terminal status.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .field import Field, Grid, energy, integral, min_slope

__all__ = [
    "Status",
    "SolverConfig",
    "SolverState",
    "RunLog",
    "rhs",
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


class _Scratch:
    """The arrays that RK4 steps on grids of N points read and write in
    place.

    ``samples`` (2, N) holds a stage input's u and u_x, then their squares;
    ``pair`` (2, N/2 + 1) holds the inverse pair (u^, ik u^) of a stage
    input or of the new state, then the forward transform of the squares;
    ``k1`` and ``k`` (N/2 + 1) hold the first stage spectrum, in which the
    RK4 sum accumulates, and each later one.  Above the kept band k1 and k
    are zero, and nothing writes there.  Every other use writes what it
    reads first, so nothing carries over from one call to the next, and
    nothing in it depends on a grid but its N: every grid of one size
    shares one scratch.  No Field that leaves the solver holds one of
    these arrays.  One step runs at a time in a process.
    """

    __slots__ = ("samples", "pair", "k1", "k")

    def __init__(self, n: int) -> None:
        self.samples = np.empty((2, n))
        self.pair = np.empty((2, n // 2 + 1), dtype=complex)
        self.k1 = np.zeros(n // 2 + 1, dtype=complex)
        self.k = np.zeros(n // 2 + 1, dtype=complex)


@functools.lru_cache(maxsize=1)
def _scratch(n: int) -> _Scratch:
    """The step scratch of the grids with n points.  Only the scratch of
    the size asked for last is kept, so a process holds one at a time."""
    return _Scratch(n)


def rhs(u: Field, dealias: bool = True, *,
        out: Optional[np.ndarray] = None) -> Field:
    """Right-hand side -(1/2)(u^2)_x - (G * (u^2 + (1/2) u_x^2))_x.

    Both terms are applied in Fourier space through the grid's two fused
    output symbols, rhs^ = A (u^2)^ + B (u_x^2)^, and the result is
    returned as a Field built from that spectrum.  It reads u and u_x from
    the Field's cache, so its only transforms are the two forward
    transforms of the quadratic products, made in one call on the pair of
    squares in the step scratch of the grid's size.  Dealiased, the returned spectrum
    is zero above the kept band.  It is a new array, unless the step
    passes one of its stage spectra as ``out``, which is zero there.
    """
    grid = u.grid
    scratch = _scratch(grid.N)
    kept = grid._kept_band if dealias else slice(None)
    a, b = grid._sym_rhs
    v = u.values
    du = u.derivative_values
    squares = scratch.samples
    np.multiply(v, v, out=squares[0])
    np.multiply(du, du, out=squares[1])
    p = np.fft.rfft(squares, out=scratch.pair)
    if out is None:
        out = np.zeros(grid.N // 2 + 1, dtype=complex)
    o, p0, p1 = out[kept], p[0, kept], p[1, kept]
    np.multiply(a[kept], p0, out=o)
    np.multiply(b[kept], p1, out=p1)
    np.add(o, p1, out=o)
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


def _add_doubled(acc: np.ndarray, k: np.ndarray) -> None:
    """acc + 2.0 k into acc, with 2.0 k formed in k's own storage."""
    np.multiply(2.0, k, out=k)
    np.add(acc, k, out=acc)


def _pair(grid: Grid, pair: np.ndarray, u_hat: np.ndarray, c: float,
          k: np.ndarray) -> np.ndarray:
    """The inverse pair (v^, ik v^) of v^ = u^ + c k^, written into
    ``pair``.  ``k`` is the kept band of a stage spectrum, which is zero
    above it, so there the pair is (u^, ik u^)."""
    kept = grid._kept_band
    top = slice(kept.stop, None)
    ik = grid._sym_derivative
    v = pair[0, kept]
    np.multiply(c, k, out=v)
    np.add(u_hat[kept], v, out=v)
    np.multiply(v, ik[kept], out=pair[1, kept])
    pair[0, top] = u_hat[top]
    np.multiply(u_hat[top], ik[top], out=pair[1, top])
    return pair


def _stage_input(grid: Grid, scratch: _Scratch, u_hat: np.ndarray,
                 c: float, k: np.ndarray) -> Field:
    """The stage input u^ + c k^ as a Field whose spectrum and samples are
    the scratch's; rhs overwrites them with the squares and their
    transform, so it serves one rhs call."""
    pair = _pair(grid, scratch.pair, u_hat, c, k)
    return Field.from_spectrum(grid, pair[0], samples=np.fft.irfft(
        pair, n=grid.N, out=scratch.samples))


def _rk4(state: SolverState, dt: float, scratch: _Scratch) -> Field:
    """The Field of u^ + (dt/6)(k1 + 2 k2 + 2 k3 + k4), rounded as that
    expression is.

    The kept band is computed in place in the scratch: k1 accumulates the
    sum, and each later stage spectrum is folded in once the next stage
    input is formed.  The new spectrum is formed in the inverse pair like
    a stage input, so the step's last irfft gives the new state's samples
    and derivative, in a new (2, N) array, and the new state's spectrum
    is a copy of the pair's first row.
    """
    grid = state.u.grid
    u_hat = state.u.spectrum
    acc, k = scratch.k1[grid._kept_band], scratch.k[grid._kept_band]
    rhs(state.u, out=scratch.k1)                                     # k1
    rhs(_stage_input(grid, scratch, u_hat, 0.5 * dt, acc),
        out=scratch.k)                                               # k2
    u_stage = _stage_input(grid, scratch, u_hat, 0.5 * dt, k)
    _add_doubled(acc, k)
    rhs(u_stage, out=scratch.k)                                      # k3
    u_stage = _stage_input(grid, scratch, u_hat, dt, k)
    _add_doubled(acc, k)
    rhs(u_stage, out=scratch.k)                                      # k4
    np.add(acc, k, out=acc)
    pair = _pair(grid, scratch.pair, u_hat, dt / 6.0, acc)
    return Field.from_spectrum(grid, pair[0].copy(),
                               samples=np.fft.irfft(pair, n=grid.N))


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One adaptive classical RK4 step; never steps a terminal state.

    The stage inputs and the new state are formed in Fourier space,
    u^ + c dt k^, from the spectra the stages return (see _rk4).  The new
    state is a Field that holds its spectrum, samples and derivative; one
    max |u| over its samples classifies it and sets the next step's dt,
    and its samples and derivative serve the probes and the next step's
    first stage without another transform.
    """
    if state.status.terminal:
        raise RuntimeError(f"cannot step a terminal state ({state.status.value})")
    if not math.isfinite(state.u_inf):  # an inf sample would propose dt = 0
        return replace(state, status=Status.NON_FINITE)
    dt = _propose_dt(state, config)
    if state.t + dt > config.t_end:
        dt = config.t_end - state.t

    scratch = _scratch(state.u.grid.N)
    u_new = _rk4(state, dt, scratch)
    t_new = state.t + dt
    u_inf = float(np.max(np.abs(u_new.values, out=scratch.samples[0])))
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
