"""Acceptance gate: every numbered criterion of the built-in verification
suite, one test per criterion, each printing its pass/fail detail lines.

One criterion is currently an honest failure: the traveling-wave residual
check (criterion 2) measures the spectral ringing at the peakon kink at
3.3e-3 for N = 4096, above its stated 1e-3 tolerance; the residual is
first order in dx.  The check is kept at
its stated tolerance rather than loosened to make this suite green; see
the companion note in the criterion's detail line.
"""

import pytest

from chlab.acceptance import CRITERIA, format_result


def _id(criterion) -> str:
    slug = criterion.title.replace(" ", "-").replace(",", "")
    return f"C{criterion.number:02d}-{slug}"


@pytest.mark.parametrize(
    "criterion",
    [pytest.param(c, marks=pytest.mark.slow, id=_id(c)) if c.slow
     else pytest.param(c, id=_id(c))
     for c in CRITERIA],
)
def test_criterion(criterion):
    result = criterion.run()
    print()
    print(format_result(result))
    assert result.details, "criterion reported no checks"
    assert result.passed, "\n".join(result.details)
