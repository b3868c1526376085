"""Online monitors and a priori predictors for the solver runs: sup-norm
growth, slope tracking, sign-pattern classification of the potential
m = u - u_xx, weighted-norm persistence fits, and decay-rate caps.

The monitors that watch a run are probes for ``solver.run``: each has
``columns`` (the run-log columns it adds) and ``observe(state)`` (one
value per column).  The predictors, ``persistence_check`` and
``rate_cap_check`` return the JSON blocks the artifacts store.

Conventions that matter numerically:

* Spectral derivatives carry a flat ~1e-16 * ||u|| noise floor.  Any
  diagnostic multiplied by e^{|x|} therefore uses second-order central
  differences instead (the error then scales with the *local* magnitude of
  u, which is what an exponentially weighted tail statistic needs).
* Sign tests on m use a tolerance relative to max |m| (_SIGN_TOL_REL),
  since the (1 + k^2) multiplier amplifies roundoff by ~N^2 / L^2.
* Blowup is never reported as a point time: observed breakdown carries a
  [last-running, terminal] bracket (threshold-dependent by construction).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .field import Field, Grid, energy, min_slope, momentum_of
from .weights import Weight, weighted_lp_norm

__all__ = [
    "predictor_table",
    "PersistenceTrace",
    "persistence_check",
    "RateCapTrace",
    "rate_cap_check",
]

# The decay predictor fires below this fraction of ||u0||_inf.
_DECAY_THRESHOLD_REL = 1e-6
# The decay predictor reads this outer fraction of the box on each side.
_DECAY_TAIL_WINDOW = 0.2
# Samples of m within this fraction of max |m| count as zero.
_SIGN_TOL_REL = 1e-10
# Slack on log W against the fitted persistence bound.
_CONSISTENCY_TOL = 1e-8
# The rate cap's trustworthy band ends where |u| falls below this
# fraction of its peak.
_RATE_CAP_FLOOR_REL = 1e-8


def local_derivative(u: Field) -> np.ndarray:
    """Second-order central differences with periodic wrap.

    Used by tail diagnostics: the error is proportional to the local scale
    of u, so e^{|x|}-weighted statistics stay meaningful where spectral
    derivatives would drown in their global noise floor.
    """
    v = u.values
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * u.grid.dx)


def h1_norm(u: Field) -> float:
    """sqrt of the rectangle-rule integral of u^2 + u_x^2."""
    return math.sqrt(energy(u))


def mckean_classify(m0: Field) -> dict:
    """The ``momentum_sign`` block: the sign pattern of the initial
    potential m0, with samples inside +-_SIGN_TOL_REL * max|m0| counted as
    zero.

    ``verdict`` is ConstantSignNonneg, ConstantSignNonpos,
    SimpleChangeNegToPos (``x0`` then locates the change) or Other.
    Constant sign and a single change from negative to positive both
    predict global existence; any other pattern predicts breakdown (the
    contrapositive of the dichotomy for m0 = u0 - u0'').
    """
    values = m0.values
    if not np.all(np.isfinite(values)):
        raise ValueError("m0 contains non-finite samples")
    tol = _SIGN_TOL_REL * float(np.max(np.abs(values)))

    pos = values > tol
    neg = values < -tol
    x0 = None
    if not neg.any():
        verdict = "ConstantSignNonneg"
    elif not pos.any():
        verdict = "ConstantSignNonpos"
    else:
        last_neg = int(np.max(np.nonzero(neg)[0]))
        first_pos = int(np.min(np.nonzero(pos)[0]))
        if last_neg < first_pos:
            verdict = "SimpleChangeNegToPos"
            x0 = float(0.5 * (m0.grid.x[last_neg] + m0.grid.x[first_pos]))
        else:
            verdict = "Other"
    return {"verdict": verdict, "x0": x0,
            "predicts_global": verdict != "Other"}


def slope_criterion_predict(u0: Field) -> dict:
    """Fires when min u0' < -(1/sqrt 2) ||u0||_{H^1} (sufficient breakdown
    condition).  Evidence is the signed margin
    min_slope + ||u0||_{H^1}/sqrt(2): negative means fired."""
    slope = min_slope(u0)
    threshold = -h1_norm(u0) / math.sqrt(2.0)
    margin = slope - threshold
    return {"fired": margin < 0.0, "evidence": margin}


def decay_blowup_predict(u0: Field) -> dict:
    """Fires when the tail decay beats the critical rate e^{-|x|}.

    Evidence is the minimum of e^{|x|} (|u0| + |u0'|) over the outer
    _DECAY_TAIL_WINDOW fraction of the domain (both sides), with u0' by
    local central differences; fires when the evidence drops below
    _DECAY_THRESHOLD_REL * ||u0||_inf.  A grid cannot take liminf at
    infinity — the window makes "large x" operational and explicit.
    """
    peak = float(np.max(np.abs(u0.values)))
    if peak == 0.0:
        raise ValueError("decay predictor needs nonzero initial data")
    x = u0.grid.x
    cut = (1.0 - _DECAY_TAIL_WINDOW) * u0.grid.L
    window = np.abs(x) >= cut
    magnitude = np.abs(u0.values) + np.abs(local_derivative(u0))
    evidence = float(np.min(np.exp(np.abs(x[window])) * magnitude[window]))
    return {"fired": evidence < _DECAY_THRESHOLD_REL * peak,
            "evidence": evidence}


def predictor_table(u0: Field) -> dict:
    """All a-priori verdicts on the initial datum.

    These are one-directional sufficient conditions: a fired predictor
    means breakdown is guaranteed; a silent one promises nothing.
    """
    return {
        "momentum_sign": mckean_classify(momentum_of(u0)),
        "slope_criterion": slope_criterion_predict(u0),
        "decay_blowup": decay_blowup_predict(u0),
    }


def weighted_pair_norm(u: Field, phi_x: np.ndarray, p: float) -> float:
    """W = ||u phi||_p + ||u_x phi||_p with u_x by local central
    differences (growing weights would amplify the spectral noise floor).
    ``phi_x`` holds the weight's samples on u's grid."""
    du = Field(u.grid, local_derivative(u))
    return weighted_lp_norm(u, phi_x, p) + weighted_lp_norm(du, phi_x, p)


class PersistenceTrace:
    """Probe: one tracked weighted norm W as the log column ``name``,
    which persistence_check fits together with the log's t and M.  The
    weight is sampled once, on ``grid``, the grid of the run's states."""

    def __init__(self, weight: Weight, p: float, grid: Grid,
                 name: str = "W") -> None:
        self.p = p
        self.name = name
        self._samples = weight.value(grid.x)

    def record(self, state) -> float:
        """W of a solver state."""
        return weighted_pair_norm(state.u, self._samples, self.p)

    @property
    def columns(self) -> Tuple[str]:
        return (self.name,)

    def observe(self, state) -> Tuple[float]:
        return (self.record(state),)


def persistence_check(times: np.ndarray, W: np.ndarray, M: np.ndarray) -> dict:
    """Fit C in W(t) <= W(0) e^{C int_0^t M ds} and verify self-consistency.

    For a run's log columns t, W and M = u_inf + ux_inf, returns ``W0``,
    ``sup_W``, ``C_fit``, ``passed``, ``diverged`` and ``t_valid``.  C_fit
    is the smallest constant making the bound hold over the run (so the
    check is self-consistent by construction); its value is the
    cross-scenario regression quantity.  ``t_valid`` is the [first, last]
    time used.

    The integral of M uses trapezoid on the log times, and log W may
    exceed the fitted bound by _CONSISTENCY_TOL.  W identically zero
    passes trivially with C_fit = 0.  Non-finite W values truncate the
    valid range and set the divergence flag (expected near wave breaking).
    """
    if times.size == 0:
        raise ValueError("empty persistence trace")

    finite = np.isfinite(W)
    diverged = not bool(finite.all())
    if diverged:
        last_ok = int(np.min(np.nonzero(~finite)[0]))
        times, W, M = times[:last_ok], W[:last_ok], M[:last_ok]
    if times.size == 0:
        return {"W0": math.nan, "sup_W": math.inf, "C_fit": math.inf,
                "passed": False, "diverged": True, "t_valid": [0.0, 0.0]}

    W0 = float(W[0])
    if W0 == 0.0 and np.all(W == 0.0):
        C_fit, passed = 0.0, True
    elif not (W0 > 0.0):
        raise ValueError("W0 must be positive for a nonzero trace")
    else:
        integral_M = np.concatenate(
            [[0.0], np.cumsum(0.5 * (M[1:] + M[:-1]) * np.diff(times))]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log(W[1:] / W0) / integral_M[1:]
        ratios = ratios[np.isfinite(ratios)]
        C_fit = float(np.max(ratios)) if ratios.size else 0.0

        bound = math.log(W0) + C_fit * integral_M
        with np.errstate(divide="ignore"):
            consistent = bool(np.all(np.log(W) <= bound + _CONSISTENCY_TOL))
        passed = math.isfinite(C_fit) and consistent
    return {"W0": W0, "sup_W": float(np.max(W)), "C_fit": C_fit,
            "passed": passed, "diverged": diverged,
            "t_valid": [float(times[0]), float(times[-1])]}


def peak_band(magnitude: np.ndarray, threshold: float) -> Tuple[int, int]:
    """Inclusive index range (left, right) of the contiguous run of samples
    above ``threshold`` around the peak of ``magnitude``; it stops short of
    the first sample on each side at or below the threshold."""
    i_peak = int(np.argmax(magnitude))
    gaps = np.flatnonzero(~(magnitude > threshold))
    k_left = int(np.searchsorted(gaps, i_peak, side="left"))
    k_right = int(np.searchsorted(gaps, i_peak, side="right"))
    left = int(gaps[k_left - 1]) + 1 if k_left > 0 else 0
    right = int(gaps[k_right]) - 1 if k_right < gaps.size else magnitude.size - 1
    return left, right


def peakon_rate_cap_check(u: Field) -> float:
    """The critical-decay statistic sup_x e^{|x|} (|u| + |u_x|) over the
    trustworthy region (0 for u = 0).

    The region is the contiguous band around the crest out to the first
    sample (on each side) where |u| drops below _RATE_CAP_FLOOR_REL * peak.
    Stopping at the first crossing matters: spectral tails carry an
    oscillatory noise floor that can sit above any fixed threshold, and
    e^{|x|} times that floor — or worse, times its derivative — would
    swamp the genuine statistic.
    """
    values = np.abs(u.values)
    peak = float(np.max(values))
    if peak == 0.0:
        return 0.0
    left, right = peak_band(values, _RATE_CAP_FLOOR_REL * peak)
    band = slice(left, right + 1)
    magnitude = values[band] + np.abs(local_derivative(u)[band])
    return float(np.max(np.exp(np.abs(u.grid.x[band])) * magnitude))


class RateCapTrace:
    """Probe: the critical-decay statistic sup e^{|x|} (|u| + |u_x|) as the
    log column ``rate_cap_sup``."""

    columns = ("rate_cap_sup",)

    def observe(self, state) -> Tuple[float]:
        return (peakon_rate_cap_check(state.u),)


def rate_cap_check(times: np.ndarray, sup: np.ndarray, factor: float) -> dict:
    """The ``rate_cap`` block of a run's log columns t and rate_cap_sup:
    the cap is ``factor`` times row 0, the datum's statistic, and no
    logged value may exceed it."""
    i = int(np.argmax(sup))
    cap = factor * float(sup[0])
    return {
        "factor": factor,
        "sup_initial": float(sup[0]),
        "cap": cap,
        "max_sup": float(sup[i]),
        "t_max_sup": float(times[i]),
        "passed": bool(sup[i] <= cap),
    }
