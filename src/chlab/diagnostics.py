"""Online monitors and a priori predictors for the solver runs: sup-norm
growth, slope tracking, sign-pattern classification of the potential
m = u - u_xx, weighted-norm persistence fits, and decay-rate caps.

Conventions that matter numerically:

* Spectral derivatives carry a flat ~1e-16 * ||u|| noise floor.  Any
  diagnostic multiplied by e^{|x|} therefore uses second-order central
  differences instead (the error then scales with the *local* magnitude of
  u, which is what an exponentially weighted tail statistic needs).
* Sign tests on m use a tolerance relative to max |m| (default 1e-10),
  since the (1 + k^2) multiplier amplifies roundoff by ~N^2 / L^2.
* Blowup is never reported as a point time: observed breakdown carries a
  [last-running, terminal] bracket (threshold-dependent by construction).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple, Union

import numpy as np

from .field import Field, Grid, integral
from .weights import Weight, weighted_lp_norm

__all__ = [
    "sup_norms",
    "min_slope",
    "local_derivative",
    "h1_norm",
    "energy",
    "mass",
    "McKeanVerdict",
    "McKeanClass",
    "mckean_classify",
    "PredictorResult",
    "slope_criterion_predict",
    "decay_blowup_predict",
    "PersistenceTrace",
    "PersistenceReport",
    "persistence_check",
    "RateCapResult",
    "peakon_rate_cap_check",
    "weighted_pair_norm",
]


def sup_norms(u: Field) -> Tuple[float, float, float]:
    """(||u||_inf, ||u_x||_inf, their sum): the instantaneous value of the
    quantity M that controls persistence growth e^{C M t}."""
    u_inf = float(np.max(np.abs(u.values)))
    ux_inf = float(np.max(np.abs(u.derivative_values)))
    return u_inf, ux_inf, u_inf + ux_inf


def min_slope(u: Field) -> float:
    """min_x of the spectral derivative — the wave-breaking monitor."""
    return float(np.min(u.derivative_values))


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
    du = u.derivative_values
    return math.sqrt(float(np.sum(u.values**2 + du**2)) * u.grid.dx)


def energy(u: Field) -> float:
    """The conserved H^1 energy integral of u^2 + u_x^2."""
    du = u.derivative_values
    return float(np.sum(u.values**2 + du**2)) * u.grid.dx


def mass(u: Field) -> float:
    """The conserved integral of u."""
    return integral(u)


class McKeanVerdict(enum.Enum):
    CONSTANT_SIGN_NONNEG = "ConstantSignNonneg"
    CONSTANT_SIGN_NONPOS = "ConstantSignNonpos"
    SIMPLE_CHANGE_NEG_TO_POS = "SimpleChangeNegToPos"
    OTHER = "Other"


@dataclass(frozen=True)
class McKeanClass:
    """Sign-pattern classification of the initial potential m0.

    Constant sign and a single change from negative to positive both
    predict global existence; any other pattern predicts breakdown (the
    contrapositive of the dichotomy for m0 = u0 - u0'').
    """

    verdict: McKeanVerdict
    x0: Optional[float]
    tolerance: float

    @property
    def predicts_global(self) -> bool:
        return self.verdict is not McKeanVerdict.OTHER


def mckean_classify(m0: Field, tol: Optional[float] = None) -> McKeanClass:
    """Classify the sign pattern of m0 samples with a relative tolerance
    (default 1e-10 * max|m0|): values inside [-tol, tol] count as zero."""
    values = m0.values
    if not np.all(np.isfinite(values)):
        raise ValueError("m0 contains non-finite samples")
    peak = float(np.max(np.abs(values)))
    if tol is None:
        tol = 1e-10 * peak
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")

    pos = values > tol
    neg = values < -tol
    if not neg.any():
        return McKeanClass(McKeanVerdict.CONSTANT_SIGN_NONNEG, None, tol)
    if not pos.any():
        return McKeanClass(McKeanVerdict.CONSTANT_SIGN_NONPOS, None, tol)
    last_neg = int(np.max(np.nonzero(neg)[0]))
    first_pos = int(np.min(np.nonzero(pos)[0]))
    if last_neg < first_pos:
        x0 = 0.5 * (m0.grid.x[last_neg] + m0.grid.x[first_pos])
        return McKeanClass(McKeanVerdict.SIMPLE_CHANGE_NEG_TO_POS, float(x0), tol)
    return McKeanClass(McKeanVerdict.OTHER, None, tol)


@dataclass(frozen=True)
class PredictorResult:
    """Outcome of one a priori breakdown predictor.

    ``evidence`` is the scalar the decision was made on; its meaning is
    predictor-specific and documented at the producing function.
    """

    name: str
    fired: bool
    evidence: float


def slope_criterion_predict(u0: Field) -> PredictorResult:
    """Fires when min u0' < -(1/sqrt 2) ||u0||_{H^1} (sufficient breakdown
    condition).  Evidence is the signed margin
    min_slope + ||u0||_{H^1}/sqrt(2): negative means fired."""
    slope = min_slope(u0)
    threshold = -h1_norm(u0) / math.sqrt(2.0)
    margin = slope - threshold
    return PredictorResult("slope_criterion", fired=margin < 0.0, evidence=margin)


def decay_blowup_predict(
    u0: Field,
    tail_window: float = 0.2,
    threshold_rel: float = 1e-6,
) -> PredictorResult:
    """Fires when the tail decay beats the critical rate e^{-|x|}.

    Evidence is the minimum of e^{|x|} (|u0| + |u0'|) over the outer
    ``tail_window`` fraction of the domain (both sides), with u0' by local
    central differences; fires when the evidence drops below
    threshold_rel * ||u0||_inf.  A grid cannot take liminf at infinity —
    the window makes "large x" operational and explicit.
    """
    peak = float(np.max(np.abs(u0.values)))
    if peak == 0.0:
        raise ValueError("decay predictor needs nonzero initial data")
    if not (0.0 < tail_window < 1.0):
        raise ValueError("tail_window must be a fraction in (0, 1)")
    x = u0.grid.x
    cut = (1.0 - tail_window) * u0.grid.L
    window = np.abs(x) >= cut
    magnitude = np.abs(u0.values) + np.abs(local_derivative(u0))
    evidence = float(np.min(np.exp(np.abs(x[window])) * magnitude[window]))
    return PredictorResult(
        "decay_blowup", fired=evidence < threshold_rel * peak, evidence=evidence
    )


def weighted_pair_norm(u: Field, weight: Union[Weight, np.ndarray],
                       p: float) -> float:
    """W = ||u phi||_p + ||u_x phi||_p with u_x by local central
    differences (growing weights would amplify the spectral noise floor).
    ``weight`` is the weight or its samples on u's grid."""
    du = Field(u.grid, local_derivative(u))
    return weighted_lp_norm(u, weight, p) + weighted_lp_norm(du, weight, p)


@dataclass
class PersistenceTrace:
    """Time series of one tracked weighted norm W(t) and of M(t)."""

    weight: Weight
    p: float
    samples: List[Tuple[float, float]] = dc_field(default_factory=list)
    M_samples: List[Tuple[float, float]] = dc_field(default_factory=list)
    _sampled: Optional[Tuple[Grid, np.ndarray]] = dc_field(
        default=None, init=False, repr=False)

    def append(self, t: float, W: float, M: float) -> None:
        if self.samples and t <= self.samples[-1][0]:
            raise ValueError("trace times must be strictly increasing")
        if W < 0 or M < 0:
            raise ValueError("W and M must be nonnegative")
        self.samples.append((t, W))
        self.M_samples.append((t, M))

    def record(self, state) -> float:
        """Observer hook: append W and M from a solver state, and return W.

        The weight is sampled once per grid, and M reads the derivative
        the state already holds, so a record costs no transform.
        """
        u = state.u
        if self._sampled is None or self._sampled[0] != u.grid:
            self._sampled = (u.grid, self.weight.value(u.grid.x))
        W = weighted_pair_norm(u, self._sampled[1], self.p)
        _, _, M = sup_norms(u)
        self.append(state.t, W, M)
        return W


@dataclass(frozen=True)
class PersistenceReport:
    """Fitted growth constant and self-consistency verdict.

    C_fit is the smallest constant making W(t) <= W(0) e^{C int M ds} hold
    over the trace (so the check is self-consistent by construction); its
    value is the cross-scenario regression quantity.  ``t_valid`` is the
    time range actually used (shortened when W overflows near breaking).
    """

    C_fit: float
    passed: bool
    diverged: bool
    t_valid: Tuple[float, float]
    W0: float
    sup_W: float


def persistence_check(trace: PersistenceTrace, W0: Optional[float] = None,
                      consistency_tol: float = 1e-8) -> PersistenceReport:
    """Fit C in W(t) <= W(0) e^{C int_0^t M ds} and verify self-consistency.

    The integral of M uses trapezoid on the trace times.  W identically
    zero passes trivially with C_fit = 0.  Non-finite W values truncate the
    valid range and set the divergence flag (expected near wave breaking).
    """
    if not trace.samples:
        raise ValueError("empty persistence trace")
    times = np.array([t for t, _ in trace.samples])
    W = np.array([w for _, w in trace.samples])
    M = np.array([m for _, m in trace.M_samples])

    finite = np.isfinite(W)
    diverged = not bool(finite.all())
    if diverged:
        last_ok = int(np.min(np.nonzero(~finite)[0]))
        times, W, M = times[:last_ok], W[:last_ok], M[:last_ok]
        if times.size == 0:
            return PersistenceReport(math.inf, False, True, (0.0, 0.0),
                                     math.nan, math.inf)

    if W0 is None:
        W0 = float(W[0])
    if W0 == 0.0 and np.all(W == 0.0):
        return PersistenceReport(0.0, True, diverged,
                                 (float(times[0]), float(times[-1])),
                                 0.0, 0.0)
    if not (W0 > 0.0):
        raise ValueError("W0 must be positive for a nonzero trace")

    integral_M = np.concatenate(
        [[0.0], np.cumsum(0.5 * (M[1:] + M[:-1]) * np.diff(times))]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.log(W[1:] / W0) / integral_M[1:]
    ratios = ratios[np.isfinite(ratios)]
    C_fit = float(np.max(ratios)) if ratios.size else 0.0

    bound = math.log(W0) + C_fit * integral_M
    with np.errstate(divide="ignore"):
        consistent = bool(np.all(np.log(W) <= bound + consistency_tol))
    passed = math.isfinite(C_fit) and consistent
    return PersistenceReport(
        C_fit=C_fit,
        passed=passed,
        diverged=diverged,
        t_valid=(float(times[0]), float(times[-1])),
        W0=W0,
        sup_W=float(np.max(W)),
    )


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


@dataclass(frozen=True)
class RateCapResult:
    """Outcome of the critical-decay cap sup e^{|x|}(|u| + |u_x|) <= C."""

    passed: bool
    sup_value: float
    cap: float
    region: Tuple[float, float]


def peakon_rate_cap_check(u: Field, C: float,
                          noise_floor_rel: float = 1e-8) -> RateCapResult:
    """Verify sup_x e^{|x|} (|u| + |u_x|) <= C over the trustworthy region.

    The region is the contiguous band around the crest out to the first
    sample (on each side) where |u| drops below noise_floor_rel * peak.
    Stopping at the first crossing matters: spectral tails carry an
    oscillatory noise floor that can sit above any fixed threshold, and
    e^{|x|} times that floor — or worse, times its derivative — would
    swamp the genuine statistic.  u = 0 passes for any C > 0.
    """
    if not (C > 0):
        raise ValueError("cap C must be positive")
    values = np.abs(u.values)
    peak = float(np.max(values))
    if peak == 0.0:
        return RateCapResult(True, 0.0, C, (0.0, 0.0))
    left, right = peak_band(values, noise_floor_rel * peak)
    band = slice(left, right + 1)
    x = u.grid.x[band]
    magnitude = values[band] + np.abs(local_derivative(u)[band])
    sup_value = float(np.max(np.exp(np.abs(x)) * magnitude))
    return RateCapResult(
        passed=sup_value <= C,
        sup_value=sup_value,
        cap=C,
        region=(float(x[0]), float(x[-1])),
    )
