"""The benchmark's span map names functions that exist, and the probe
methods it pins run on every snapshot.

``perfbench/spans.py`` times chlab's layers by replacing the functions its
``FUNCTION_SPANS`` table names.  A target that no longer resolves (a
renamed function, a method moved off its class), or a probe that no longer
goes through it, is only reported as a missing span or as 0 calls in a
traced benchmark run; these tests make it fail the suite.  The table is
read from the file's source, so nothing of the benchmark is imported or
run.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from chlab.config import scenario_from_dict
from chlab.runner import run_scenario

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _function_spans() -> dict:
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "FUNCTION_SPANS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTION_SPANS table in {SPANS_FILE}")


FUNCTION_SPANS = _function_spans()


def test_span_map_is_not_empty():
    assert FUNCTION_SPANS


def _span_owner(span):
    """(owner, attribute) of a span's target, looked up the way the
    recorder looks it up: in the module's (or the class's) own namespace,
    so an inherited method would not count."""
    module_name, attr = FUNCTION_SPANS[span]
    owner = importlib.import_module(module_name)
    class_name, _, attr = attr.rpartition(".")
    if class_name:
        owner = vars(owner).get(class_name)
        assert isinstance(owner, type), f"{module_name}.{class_name}"
    return owner, attr


@pytest.mark.parametrize("span", sorted(FUNCTION_SPANS))
def test_span_target_resolves(span):
    owner, attr = _span_owner(span)
    assert callable(vars(owner).get(attr)), f"{span} -> {owner}.{attr}"


def test_pinned_probe_methods_run_on_every_snapshot(monkeypatch):
    calls = Counter()
    for span in ("profiles.accumulate", "profiles.phi_psi",
                 "profiles.report", "diagnostics.persistence_record"):
        owner, attr = _span_owner(span)

        def counted(*args, _fn=vars(owner)[attr], _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    result = run_scenario(scenario_from_dict({
        "name": "spans", "grid": {"L": 20.0, "N": 1024},
        "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        "solver": {"t_end": 0.1, "snapshot_stride": 2},
        "weights_to_track": [{"weight": {"kind": "standard", "c": 2.0},
                              "p": "inf"},
                             {"weight": {"kind": "standard", "c": 1.0},
                              "p": 2.0}],
        "profiles_enabled": True,
    }))
    log_rows, profile_rows = len(result.log.rows), len(result.profile_rows)
    assert result.summary["profiles"]["error"] is None
    assert profile_rows == log_rows - 1 > 2
    assert calls == {"profiles.accumulate": log_rows,
                     "profiles.phi_psi": profile_rows,
                     "profiles.report": profile_rows,
                     "diagnostics.persistence_record": 2 * log_rows}
