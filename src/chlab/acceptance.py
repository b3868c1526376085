"""Built-in verification suite: ten numbered end-to-end checks.

Each criterion runs a complete, self-contained experiment — operator
identities, traveling-wave residuals, convergence studies, full scenario
runs — and returns its checks, each a pass/fail flag with the measured
numbers; its registry entry gives it its number and title.  The same
registry backs ``chlab selftest`` and the acceptance test module, so the
command line and the test suite can never drift apart.

Criterion 10 repeats a four-run parameter sweep and is marked slow; the
default selftest skips it (pass ``--slow`` to include it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

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

__all__ = ["CRITERIA", "run_suite", "format_result"]

#: One measured check of a criterion: whether it holds, and what it measured.
Check = Tuple[bool, str]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    slow: bool
    checks: Callable[[], List[Check]]

    def run(self) -> CriterionResult:
        """Run the experiment; it passes when every check holds."""
        checks = self.checks()
        return CriterionResult(
            number=self.number, title=self.title,
            passed=all(ok for ok, _ in checks),
            details=[f"{'ok  ' if ok else 'FAIL'} {msg}" for ok, msg in checks])


def _random_band_limited(grid: Grid, rng: np.random.Generator) -> Field:
    """Random real field with spectrum confined to the lowest quarter of
    the resolvable modes (so derivatives stay exactly representable)."""
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
    worst_roundtrip = 0.0
    worst_commute = 0.0
    for _ in range(100):
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
        (worst_roundtrip < 1e-10,
         f"(1 - dxx) o smoothing = identity: max rel error "
         f"{worst_roundtrip:.3e} < 1e-10 over 100 fields"),
        (worst_commute < 1e-10,
         f"kernel-derivative convolution = d/dx o smoothing: max rel error "
         f"{worst_commute:.3e} < 1e-10"),
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

    F = Field(grid, 1.5 * np.exp(-2.0 * np.abs(grid.x)))
    computed = helmholtz_inverse_dx(F).values
    closed = -np.sign(grid.x) * (np.exp(-np.abs(grid.x))
                                 - np.exp(-2.0 * np.abs(grid.x)))
    res_closed = float(np.max(np.abs((computed - closed)[window])))

    return [
        (res_rhs < 1e-3,
         f"rhs(peakon) + d/dx peakon off-kink max {res_rhs:.3e} < 1e-3 "
         f"at N=4096 (the spectral u_x rings at the kink, and the "
         f"residual falls only first order in dx: about 6.2e-3, 3.3e-3, "
         f"1.7e-3, 8.5e-4 at N = 2048, 4096, 8192, 16384)"),
        (res_closed < 1e-4,
         f"kernel-derivative convolution of 1.5 e^(-2|x|) matches its "
         f"closed form to {res_closed:.3e} < 1e-4"),
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
    orders = [math.log2(errors[i] / errors[i + 1])
              for i in range(len(errors) - 1)]

    return [
        (drift["energy_drift_rel"] < 1e-6,
         f"energy drift {drift['energy_drift_rel']:.3e} < 1e-6 over the "
         f"Gaussian run to t=0.5"),
        (drift["mass_drift_rel"] < 1e-6,
         f"mass drift {drift['mass_drift_rel']:.3e} < 1e-6"),
        (all(o >= 3.5 for o in orders),
         "dt-halving orders " + ", ".join(f"{o:.3f}" for o in orders)
         + " all >= 3.5 (errors "
         + ", ".join(f"{e:.3e}" for e in errors) + ")"),
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
        rel_change = abs(row_f["C_fit"] - row_c["C_fit"]) / abs(row_c["C_fit"])
        checks.append((
            row_c["passed"] and not row_c["diverged"]
            and math.isfinite(row_c["sup_W"]),
            f"{label}: W stays finite (sup {row_c['sup_W']:.4f}, "
            f"W0 {row_c['W0']:.4f}) and the envelope is self-consistent "
            f"(C_fit {row_c['C_fit']:.6f})"))
        checks.append((
            rel_change < 0.05,
            f"{label}: C_fit changes {100 * rel_change:.3f}% < 5% under "
            f"grid doubling ({row_c['C_fit']:.6f} -> {row_f['C_fit']:.6f})"))
    return checks


# --------------------------------------------------------------------------
# 5. critical-decay rate cap
# --------------------------------------------------------------------------

def _criterion_rate_cap() -> List[Check]:
    result = run_scenario(builtin_scenario("exponential-rate-cap"))
    cap = result.summary["rate_cap"]
    status = result.summary["status"]
    return [
        (status == "ReachedTEnd", f"run completed: status {status}"),
        (cap["passed"],
         f"sup e^|x|(|u|+|u_x|) stayed at {cap['max_sup']:.4f} <= cap "
         f"{cap['cap']:.4f} (3 x initial {cap['sup_initial']:.4f}, worst at "
         f"t={cap['t_max_sup']:.3f})"),
    ]


# --------------------------------------------------------------------------
# 6. fast-decay breakdown with a-priori warning
# --------------------------------------------------------------------------

def _criterion_breakdown() -> List[Check]:
    result = run_scenario(builtin_scenario("fast-decay-breakdown"))
    s = result.summary
    bracket = s["t_star_bracket"]
    predictors = s["predictors"]
    return [
        (s["status"] == "WaveBreaking",
         f"run terminated by breakdown: status {s['status']}"),
        (bracket is not None and all(math.isfinite(b) for b in bracket),
         f"breakdown time bracketed in [{bracket[0]:.4f}, {bracket[1]:.4f}]"
         if bracket else "no breakdown bracket recorded"),
        (predictors["decay_blowup"]["fired"],
         f"fast-decay predictor fired beforehand (evidence "
         f"{predictors['decay_blowup']['evidence']:.3e})"),
        (predictors["momentum_sign"]["verdict"] == "Other",
         f"momentum sign pattern {predictors['momentum_sign']['verdict']} "
         f"(no global-existence guarantee)"),
    ]


# --------------------------------------------------------------------------
# 7. single-signed momentum runs globally
# --------------------------------------------------------------------------

def _criterion_global() -> List[Check]:
    result = run_scenario(builtin_scenario("positive-momentum-global"))
    s = result.summary
    min_slope = float(np.min(result.log.column("min_slope")))
    verdict = s["predictors"]["momentum_sign"]["verdict"]
    return [
        (s["status"] == "ReachedTEnd" and s["t_final"] >= 10.0,
         f"reached t_end: status {s['status']} at t={s['t_final']:.3f}"),
        (min_slope > -10.0,
         f"slope stayed bounded: min u_x = {min_slope:.4f} > -10 throughout"),
        (verdict == "ConstantSignNonneg",
         f"momentum sign pattern {verdict} predicted global existence"),
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
        (abs(Phi0 - 1.0) < 1e-3 and abs(Psi0 - 1.0) < 1e-3,
         f"peakon profile amplitudes ({Phi0:.6f}, {Psi0:.6f}) match the "
         f"analytic value (1, 1) within 1e-3"),
        (worst_ratio < 0.1,
         f"tail residual stayed below its allowance at every snapshot: "
         f"worst max|eps|/amplitude = {worst_ratio:.3e} < 0.1"),
        (p["c1_positive"] and p["c1"] > 0.0,
         f"two-sided amplitude bounds recorded with c1 = {p['c1']:.6f} > 0 "
         f"(c2 = {p['c2']:.6f})"),
        (p["reconstruction_error_rel"] < 1e-4,
         f"time-integrated reconstruction matches the terminal state to "
         f"{p['reconstruction_error_rel']:.3e} < 1e-4 relative"),
    ]


# --------------------------------------------------------------------------
# 9. weight certification and the weighted Young inequality
# --------------------------------------------------------------------------

def _criterion_weights() -> List[Check]:
    half = StandardFamily(a=0.5, b=1.0)
    cert_half = certify_admissible(half)

    full = StandardFamily(a=1.0, b=1.0)
    cert_full = certify_admissible(full)
    sup_route = cert_full["lp_v_exp"]["inf"]

    checks = [
        (cert_half["admissible"]
         and abs(cert_half["integral_v_exp"] - 4.0) < 1e-12,
         f"e^(|x|/2): admissible, decay integral "
         f"{cert_half['integral_v_exp']!r} = 4 within 1e-12"),
        (not cert_full["quadrature_converged"],
         f"e^|x|: decay integral correctly reported divergent "
         f"(reached R = {cert_full['quadrature_range']:.0f})"),
        (math.isfinite(sup_route) and abs(sup_route - 1.0) < 1e-6,
         f"e^|x|: sup-norm route still available, "
         f"sup v e^-|x| = {sup_route:.6f}"),
    ]

    grid = Grid(16.0, 512)
    rng = np.random.default_rng(7)
    cases = [
        (half, 2.0, cert_half["C0"]),
        (StandardFamily(c=2.0), math.inf, None),
        (threshold_weight(1.0), math.inf, None),
    ]
    for phi, p, C0 in cases:
        if C0 is None:
            C0 = certify_admissible(phi)["C0"]
        violations = 0
        worst = 0.0
        for _ in range(1000):
            f1 = _compact_random(grid, rng)
            f2 = _compact_random(grid, rng)
            report = check_weighted_young(f1, f2, phi, p, C0)
            worst = max(worst, report.lhs / report.rhs)
            violations += not report.passed
        checks.append((
            violations == 0,
            f"Young inequality, phi={phi}, p={'inf' if math.isinf(p) else p}:"
            f" 0/1000 violations (worst lhs/rhs {worst:.6f})"))
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
        if row["error"]:
            checks.append((False, f"rate {rate}: run failed: {row['error']}"))
            continue
        expect_breaking = rate > 1.0
        broke = row["status"] == "WaveBreaking"
        survived = row["status"] == "ReachedTEnd"
        ok = broke if expect_breaking else survived
        bracket = row["t_star_bracket"]
        where = (f", breakdown in [{bracket[0]:.3f}, {bracket[1]:.3f}]"
                 if bracket else "")
        checks.append((ok,
                       f"rate {rate}: status {row['status']}{where} "
                       f"({'faster' if rate > 1 else 'slower'} than critical "
                       f"decay)"))
        fired = row["predictors"]["decay_blowup"]["fired"]
        if fired and not broke:
            checks.append((False,
                           f"rate {rate}: decay predictor fired but the run "
                           f"did not break (predictor must stay sufficient)"))
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
              report: Optional[Callable[[CriterionResult], None]] = None
              ) -> List[CriterionResult]:
    """Run the selected criteria in order, reporting each as it finishes."""
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
        result = criterion.run()
        results.append(result)
        if report is not None:
            report(result)
    return results


def format_result(result: CriterionResult) -> str:
    head = f"{'PASS' if result.passed else 'FAIL'} {result.number:2d}: " \
           f"{result.title}"
    return head + "".join(f"\n       {line}" for line in result.details)
