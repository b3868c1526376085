"""Acceptance gate: every numbered criterion of the built-in verification
suite, one test per criterion, each printing its pass/fail detail lines.

One criterion is currently an honest failure: the traveling-wave residual
check (criterion 2) measures the spectral ringing at the peakon kink at
3.3e-3 for N = 4096, above its stated 1e-3 tolerance; the residual is
first order in dx.  The check is kept at its stated tolerance rather than
loosened to make this suite green; see the comment beside the check.

The remaining tests pin the check record: its verdict, and that its line
reports the numbers the criterion measured, not a copy typed beside them.
"""

import math
import operator

import pytest

from chlab import acceptance
from chlab.acceptance import CRITERIA, Check, format_result
from chlab.config import scenario_from_dict
from chlab.runner import apply_axis
from chlab.weights import YoungReport

# the relations as the record documents them, independent of its code
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge}


def _holds(check: Check) -> bool:
    if check.relation == "==":
        return check.value == check.bound
    return math.isfinite(check.value) and bool(
        _ORDERINGS[check.relation](check.value, check.bound))


def _id(criterion) -> str:
    slug = criterion.title.replace(" ", "-").replace(",", "")
    return f"C{criterion.number:02d}-{slug}"


def _criterion(number: int):
    return next(c for c in CRITERIA if c.number == number)


@pytest.mark.parametrize(
    "criterion",
    [pytest.param(c, marks=pytest.mark.slow, id=_id(c)) if c.slow
     else pytest.param(c, id=_id(c))
     for c in CRITERIA],
)
def test_criterion(criterion):
    checks = criterion.checks()
    text = format_result(criterion, checks)
    print()
    print(text)
    assert checks, "criterion reported no checks"
    for check in checks:
        # a verdict written by hand instead of a record fails here
        assert isinstance(check, Check), check
        assert check.passed == _holds(check), check
    assert all(check.passed for check in checks), text


@pytest.mark.parametrize("relation", sorted(_ORDERINGS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
def test_a_nonfinite_value_fails_every_ordering(value, relation):
    # each infinity satisfies two of the four relations against 0
    assert not Check("x", value, relation, 0.0).passed
    assert not Check("x", value, relation, value).passed


def test_equality_compares_statuses():
    assert Check("run status", "ReachedTEnd", "==", "ReachedTEnd").passed
    assert not Check("run status", "WaveBreaking", "==",
                     "ReachedTEnd").passed


def test_the_line_shows_value_relation_and_bound():
    assert str(Check("residual", 3.267e-3, "<", 1e-3)) == \
        "FAIL residual: 0.003267 < 0.001"
    assert str(Check("order", 4.0012, ">=", 3.5)) == "ok   order: 4.001 >= 3.5"
    assert str(Check("run status", "ReachedTEnd", "==", "ReachedTEnd")) == \
        "ok   run status: ReachedTEnd == ReachedTEnd"


def test_young_line_reports_the_violations(monkeypatch):
    failing = 5
    real = acceptance.check_weighted_young
    calls = []

    def check_weighted_young(*args):
        report = real(*args)
        calls.append(report)
        if len(calls) > failing:
            return report
        return YoungReport(lhs=report.lhs, rhs=report.rhs, passed=False)

    monkeypatch.setattr(acceptance, "check_weighted_young",
                        check_weighted_young)
    young = [c for c in _criterion(9).checks() if "Young" in c.label]
    assert [c.value for c in young] == [failing, 0, 0]
    assert str(young[0]).startswith("FAIL ")
    assert str(young[0]).endswith(f": {failing} == 0")


def _patched_builtin(monkeypatch, name: str, paths: dict):
    """Let the criteria read builtin ``name`` with each dotted config path
    in ``paths`` set to its value."""
    config = acceptance.builtin_scenario(name).effective_config()
    for path, value in paths.items():
        config = apply_axis(config, path, value)
    scenario = scenario_from_dict(config)
    monkeypatch.setattr(acceptance, "builtin_scenario", lambda _: scenario)


def test_rate_cap_line_reports_the_run_factor(monkeypatch):
    _patched_builtin(monkeypatch, "exponential-rate-cap",
                     {"rate_cap_factor": 2.5, "solver.t_end": 0.1})
    cap = _criterion(5).checks()[1]
    assert "2.5 x its initial value" in cap.label
    assert str(cap).endswith(f"<= {cap.bound:.4g}")


def test_drift_lines_report_the_run_t_end(monkeypatch):
    _patched_builtin(monkeypatch, "algebraic-persistence",
                     {"solver.t_end": 0.125})
    energy, mass = _criterion(3).checks()[:2]
    assert energy.label.endswith("run to t=0.125")
    assert mass.label.endswith("run to t=0.125")
