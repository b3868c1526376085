"""The benchmark's span map names functions that exist.

``perfbench/spans.py`` times chlab's layers by replacing the functions its
``FUNCTION_SPANS`` table names.  A target that no longer resolves (a
renamed function, a method moved off its class) is only reported as a
missing span in a traced benchmark run; this test makes it fail the suite.
The table is read from the file's source, so nothing of the benchmark is
imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("span", sorted(FUNCTION_SPANS))
def test_span_target_resolves(span):
    # the recorder looks the attribute up in the module's (or the class's)
    # own namespace, so an inherited method would not count
    module_name, attr = FUNCTION_SPANS[span]
    owner = importlib.import_module(module_name)
    class_name, _, attr = attr.rpartition(".")
    if class_name:
        owner = vars(owner).get(class_name)
        assert isinstance(owner, type), f"{module_name}.{class_name}"
    assert callable(vars(owner).get(attr)), f"{span} -> {module_name}.{attr}"
