"""Built-in verification suite: ten numbered end-to-end checks.

Each criterion runs a complete, self-contained experiment — operator
identities, traveling-wave residuals, convergence studies, full scenario
runs — and returns its checks.  A check is a record of one compared
fact, ``Check(label, value, relation, bound)``: it holds when ``value
relation bound`` does, and a NaN or infinite value fails every ordering
relation.  Its report line is generated from the record: ``ok`` or
``FAIL``, the label, then the measured value, the relation and the
bound, so no number is typed twice.  A criterion passes when all its
checks hold; its registry entry gives it its number and title.  The same
registry backs ``chlab selftest`` and the acceptance test module, so the
command line and the test suite can never drift apart.

Criterion 10 repeats a four-run parameter sweep and is marked slow; the
default selftest skips it (pass ``--slow`` to include it).
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError, scenario_from_dict
from .field import (Field, Grid, derivative, helmholtz_inverse,
                    helmholtz_inverse_dx, momentum_of, peakon)
from .profiles import phi0_psi0
from .runner import apply_axis, run_scenario, sweep
from .scenarios import builtin_scenario
from .solver import SolverConfig, rhs, run
from .weights import (StandardFamily, certify_admissible,
                      check_weighted_young, threshold_weight)

__all__ = ["run_suite"]

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


def _show(x: Any) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


class Check(NamedTuple):
    """One compared fact of a criterion: it holds when ``value relation
    bound`` does.  ``==`` compares statuses and verdicts; the ordering
    relations also need a finite value."""

    label: str
    value: Any
    relation: str
    bound: Any

    @property
    def passed(self) -> bool:
        finite = self.relation == "==" or math.isfinite(self.value)
        return bool(finite and _RELATIONS[self.relation](self.value,
                                                        self.bound))

    def __str__(self) -> str:
        return (f"{'ok  ' if self.passed else 'FAIL'} {self.label}: "
                f"{_show(self.value)} {self.relation} {_show(self.bound)}")


class Criterion(NamedTuple):
    number: int
    title: str
    slow: bool
    checks: Callable[[], List[Check]]


def _random_band_limited(grid: Grid, rng: np.random.Generator) -> Field:
    """Random real field with spectrum confined to the lowest quarter of
    the resolvable modes (so derivatives stay exactly representable).
    One irfft of its own, so the draws do not pass through the operators
    they check."""
    n_modes = grid.N // 2 + 1
    coeff = np.zeros(n_modes, dtype=complex)
    band = slice(1, grid.N // 8)
    scale = rng.standard_normal((grid.N // 8) - 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, (grid.N // 8) - 1)
    coeff[band] = scale * np.exp(1j * phase)
    values = np.fft.irfft(coeff, n=grid.N)
    peak = np.max(np.abs(values))
    return Field(grid, values / peak)


# --------------------------------------------------------------------------
# 1. operator algebra
# --------------------------------------------------------------------------

def _criterion_operators() -> List[Check]:
    grid = Grid(20.0, 512)
    rng = np.random.default_rng(20260815)
    trials = 100
    worst_roundtrip = 0.0
    worst_commute = 0.0
    for _ in range(trials):
        f = _random_band_limited(grid, rng)
        scale = float(np.max(np.abs(f.values)))
        roundtrip = momentum_of(helmholtz_inverse(f))
        worst_roundtrip = max(worst_roundtrip, float(
            np.max(np.abs(roundtrip.values - f.values)) / scale))
        a = helmholtz_inverse_dx(f)
        b = derivative(helmholtz_inverse(f))
        worst_commute = max(worst_commute, float(
            np.max(np.abs(a.values - b.values)) / scale))
    return [
        Check(f"(1 - dxx) o smoothing = identity, max rel error over "
              f"{trials} fields", worst_roundtrip, "<", 1e-10),
        Check("kernel-derivative convolution = d/dx o smoothing, max rel "
              "error", worst_commute, "<", 1e-10),
    ]


# --------------------------------------------------------------------------
# 2. traveling-wave residuals
# --------------------------------------------------------------------------

def _criterion_peakon_oracle() -> List[Check]:
    grid = Grid(40.0, 4096)
    u = peakon(1.0, 0.0, grid)
    window = np.abs(grid.x) > 3.0 * grid.dx

    residual = rhs(u, dealias=False).values + derivative(u).values
    res_rhs = float(np.max(np.abs(residual[window])))

    amp, rate = 1.5, 2.0
    F = Field(grid, amp * np.exp(-rate * np.abs(grid.x)))
    computed = helmholtz_inverse_dx(F).values
    closed = (amp * rate / (1.0 - rate ** 2) * np.sign(grid.x)
              * (np.exp(-np.abs(grid.x)) - np.exp(-rate * np.abs(grid.x))))
    res_closed = float(np.max(np.abs((computed - closed)[window])))

    return [
        # Fails, and stays at its stated bound: the spectral u_x rings at the
        # kink, and the residual falls only first order in dx (about 6.2e-3,
        # 3.3e-3, 1.7e-3 and 8.5e-4 at N = 2048, 4096, 8192 and 16384).
        Check(f"rhs(peakon) + d/dx peakon, max off the kink at N={grid.N}",
              res_rhs, "<", 1e-3),
        Check(f"kernel-derivative convolution of {amp:g} e^(-{rate:g}|x|) "
              f"against its closed form, max error", res_closed, "<", 1e-4),
    ]


# --------------------------------------------------------------------------
# 3. conservation and convergence order
# --------------------------------------------------------------------------

def _fixed_dt_final(u0: Field, dt: float, t_end: float) -> np.ndarray:
    config = SolverConfig(t_end=t_end, cfl=1.0, dt_max=dt,
                          snapshot_stride=1_000_000)
    state, _ = run(u0, config)
    return state.u.values


def _criterion_conservation_order() -> List[Check]:
    result = run_scenario(builtin_scenario("algebraic-persistence"))
    drift = result.summary["conservation"]
    run_name = (f"the {result.scenario.name} run to "
                f"t={result.scenario.solver.t_end:g}")

    grid = Grid(20.0, 1024)
    u0 = Field(grid, np.exp(-grid.x ** 2))
    t_end = 0.2
    reference = _fixed_dt_final(u0, t_end / 1024.0, t_end)
    errors = []
    dts = (0.008, 0.004, 0.002, 0.001)
    for dt in dts:
        final = _fixed_dt_final(u0, dt, t_end)
        errors.append(float(np.sqrt(np.sum((final - reference) ** 2)
                                    * grid.dx)))

    return [
        Check(f"relative energy drift over {run_name}",
              drift["energy_drift_rel"], "<", 1e-6),
        Check(f"relative mass drift over {run_name}",
              drift["mass_drift_rel"], "<", 1e-6),
    ] + [
        Check(f"convergence order from dt={dts[i]:g} to dt={dts[i + 1]:g}",
              math.log2(errors[i] / errors[i + 1]), ">=", 3.5)
        for i in range(len(errors) - 1)
    ]


# --------------------------------------------------------------------------
# 4. weighted-norm persistence with fitted envelope
# --------------------------------------------------------------------------

def _criterion_persistence() -> List[Check]:
    base = builtin_scenario("algebraic-persistence")
    doubled = scenario_from_dict(apply_axis(base.effective_config(), "grid.N",
                                            2 * base.grid.N))

    coarse = run_scenario(base).summary["persistence"]
    fine = run_scenario(doubled).summary["persistence"]

    checks = []
    for row_c, row_f in zip(coarse, fine):
        label = f"{row_c['weight_str']} p={row_c['p']}"
        checks += [
            Check(f"{label}: sup W", row_c["sup_W"], "<", math.inf),
            Check(f"{label}: diverged", row_c["diverged"], "==", False),
            Check(f"{label}: envelope self-consistent", row_c["passed"],
                  "==", True),
            Check(f"{label}: relative change of C_fit under grid doubling",
                  abs(row_f["C_fit"] - row_c["C_fit"]) / abs(row_c["C_fit"]),
                  "<", 0.05),
        ]
    return checks


# --------------------------------------------------------------------------
# 5. critical-decay rate cap
# --------------------------------------------------------------------------

def _criterion_rate_cap() -> List[Check]:
    result = run_scenario(builtin_scenario("exponential-rate-cap"))
    cap = result.summary["rate_cap"]
    return [
        Check("run status", result.summary["status"], "==", "ReachedTEnd"),
        Check(f"max of sup e^|x|(|u|+|u_x|), against the cap "
              f"{cap['factor']:g} x its initial value", cap["max_sup"],
              "<=", cap["cap"]),
    ]


# --------------------------------------------------------------------------
# 6. fast-decay breakdown with a-priori warning
# --------------------------------------------------------------------------

def _criterion_breakdown() -> List[Check]:
    result = run_scenario(builtin_scenario("fast-decay-breakdown"))
    s = result.summary
    lo, hi = s["t_star_bracket"] or (math.nan, math.nan)
    predictors = s["predictors"]
    return [
        Check("run status", s["status"], "==", "WaveBreaking"),
        Check("breakdown bracket, lower end", lo, "<", math.inf),
        Check("breakdown bracket, upper end", hi, "<", math.inf),
        Check("fast-decay predictor fired beforehand",
              predictors["decay_blowup"]["fired"], "==", True),
        Check("momentum sign pattern (no global-existence guarantee)",
              predictors["momentum_sign"]["verdict"], "==", "Other"),
    ]


# --------------------------------------------------------------------------
# 7. single-signed momentum runs globally
# --------------------------------------------------------------------------

def _criterion_global() -> List[Check]:
    result = run_scenario(builtin_scenario("positive-momentum-global"))
    s = result.summary
    return [
        Check("run status", s["status"], "==", "ReachedTEnd"),
        Check("final time, against t_end", s["t_final"], ">=",
              result.scenario.solver.t_end),
        Check("min u_x over the run",
              float(np.min(result.log.column("min_slope"))), ">", -10.0),
        Check("momentum sign pattern (predicts global existence)",
              s["predictors"]["momentum_sign"]["verdict"], "==",
              "ConstantSignNonneg"),
    ]


# --------------------------------------------------------------------------
# 8. tail profiles and the reconstruction identity
# --------------------------------------------------------------------------

def _criterion_profiles() -> List[Check]:
    compact = Grid(10.0, 8192)
    Phi0, Psi0 = phi0_psi0(peakon(1.0, 0.0, compact))

    result = run_scenario(builtin_scenario("tail-profiles"))
    p = result.summary["profiles"]
    rows = np.array(result.profile_rows)
    worst_ratio = float(np.max(np.maximum(rows[:, 5] / rows[:, 1],
                                          rows[:, 6] / rows[:, 2])))

    return [
        Check("peakon profile amplitude |Phi0 - 1|", abs(Phi0 - 1.0), "<",
              1e-3),
        Check("peakon profile amplitude |Psi0 - 1|", abs(Psi0 - 1.0), "<",
              1e-3),
        Check("worst tail residual max|eps|/amplitude over the snapshots",
              worst_ratio, "<", 0.1),
        Check("c1_positive", p["c1_positive"], "==", True),
        Check("lower amplitude bound c1", p["c1"], ">", 0.0),
        Check("relative error of the time-integrated reconstruction of the "
              "terminal state", p["reconstruction_error_rel"], "<", 1e-4),
    ]


# --------------------------------------------------------------------------
# 9. weight certification and the weighted Young inequality
# --------------------------------------------------------------------------

def _criterion_weights() -> List[Check]:
    half = StandardFamily(a=0.5, b=1.0)
    cert_half = certify_admissible(half)

    full = StandardFamily(a=1.0, b=1.0)
    cert_full = certify_admissible(full)

    checks = [
        Check(f"{half}: admissible", cert_half["admissible"], "==", True),
        Check(f"{half}: |decay integral - 2/(1 - a)|",
              abs(cert_half["integral_v_exp"] - 2.0 / (1.0 - half.a)), "<",
              1e-12),
        Check(f"{full}: decay integral converged",
              cert_full["quadrature_converged"], "==", False),
        Check(f"{full}: |sup v e^-|x| - 1|",
              abs(cert_full["lp_v_exp"]["inf"] - 1.0), "<", 1e-6),
    ]

    grid = Grid(16.0, 512)
    rng = np.random.default_rng(7)
    pairs = 1000
    cases = [
        (half, 2.0, cert_half["C0"]),
        (StandardFamily(c=2.0), math.inf, None),
        (threshold_weight(1.0), math.inf, None),
    ]
    for phi, p, C0 in cases:
        if C0 is None:
            C0 = certify_admissible(phi)["C0"]
        violations = 0
        for _ in range(pairs):
            f1 = _compact_random(grid, rng)
            f2 = _compact_random(grid, rng)
            violations += not check_weighted_young(f1, f2, phi, p, C0).passed
        checks.append(Check(
            f"Young inequality, phi={phi}, p={p}: violations in {pairs} "
            f"random pairs", violations, "==", 0))
    return checks


def _compact_random(grid: Grid, rng: np.random.Generator) -> Field:
    """Random field supported in |x| < L/4 (so circular convolution agrees
    with the line convolution the inequality is about)."""
    values = rng.standard_normal(grid.N)
    values[np.abs(grid.x) >= grid.L / 4.0] = 0.0
    return Field(grid, values)


# --------------------------------------------------------------------------
# 10. decay-rate threshold sweep (slow)
# --------------------------------------------------------------------------

def _criterion_threshold_sweep() -> List[Check]:
    base = builtin_scenario("decay-threshold-sweep")
    rates = [0.5, 0.8, 1.2, 2.0]
    table = sweep(base, "initial_data.rate", rates, workers=4)

    checks = []
    for row in table["rows"]:
        rate = row["value"]
        # decay faster than the critical e^{-|x|} breaks, slower survives
        expected = "WaveBreaking" if rate > 1.0 else "ReachedTEnd"
        checks += [Check(f"rate {rate}: run error", row["error"], "==", None),
                   Check(f"rate {rate}: status", row["status"], "==",
                         expected)]
        predictors = row["predictors"]  # None on an error row
        if predictors and predictors["decay_blowup"]["fired"]:
            # the predictor must stay sufficient
            checks.append(Check(f"rate {rate}: status once the decay "
                                f"predictor fired", row["status"], "==",
                                "WaveBreaking"))
    return checks


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

CRITERIA: Tuple[Criterion, ...] = (
    Criterion(1, "operator algebra", False, _criterion_operators),
    Criterion(2, "peakon traveling-wave identity", False,
              _criterion_peakon_oracle),
    Criterion(3, "conservation and convergence order", False,
              _criterion_conservation_order),
    Criterion(4, "weighted-norm persistence", False, _criterion_persistence),
    Criterion(5, "exponential rate cap", False, _criterion_rate_cap),
    Criterion(6, "fast-decay breakdown", False, _criterion_breakdown),
    Criterion(7, "single-signed momentum, global run", False,
              _criterion_global),
    Criterion(8, "asymptotic tail profiles", False, _criterion_profiles),
    Criterion(9, "weight certification and Young inequality", False,
              _criterion_weights),
    Criterion(10, "decay-threshold sweep", True, _criterion_threshold_sweep),
)


def run_suite(include_slow: bool = False,
              numbers: Optional[Sequence[int]] = None,
              report: Optional[Callable[[str], None]] = None
              ) -> List[Tuple[Criterion, List[Check]]]:
    """Run the selected criteria in order, each with its checks, and hand
    each one's formatted result to ``report`` as it finishes."""
    known = [c.number for c in CRITERIA]
    unknown = sorted(set(numbers or ()) - set(known))
    if unknown:
        raise ConfigError("criterion", f"no criterion {unknown}; valid: {known}")
    results = []
    for criterion in CRITERIA:
        if numbers is not None and criterion.number not in numbers:
            continue
        if numbers is None and criterion.slow and not include_slow:
            continue
        checks = criterion.checks()
        results.append((criterion, checks))
        if report is not None:
            report(format_result(criterion, checks))
    return results


def format_result(criterion: Criterion, checks: Sequence[Check]) -> str:
    """A PASS/FAIL head line, then one generated line per check."""
    passed = all(check.passed for check in checks)
    head = f"{'PASS' if passed else 'FAIL'} {criterion.number:2d}: " \
           f"{criterion.title}"
    return head + "".join(f"\n       {check}" for check in checks)
