"""Runs every acceptance criterion at its stated tolerance and runtime bound.

``pytest -v tests/test_acceptance.py`` shows one line per criterion; the same
registry backs ``hatlab verify``.
"""

from types import SimpleNamespace

import pytest

from hatlab import acceptance
from hatlab.acceptance import CRITERIA, CriterionResult, run_criteria


@pytest.mark.parametrize("cid", [cid for cid, _, _ in CRITERIA])
def test_criterion(cid):
    result = run_criteria(only=cid)[0]
    print(f"{'PASS' if result.passed else 'FAIL'} {cid} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{cid}: {result.detail}"


def test_registry_is_complete_and_unique():
    ids = [cid for cid, _, _ in CRITERIA]
    assert len(ids) == 10
    assert len(set(ids)) == 10
    assert run_criteria(only="no-such-criterion") == []


def test_failing_and_slow_criteria_fail(monkeypatch):
    def wrong():
        raise AssertionError("off by one")

    monkeypatch.setattr(acceptance, "CRITERIA", (("wrong", wrong, None), ("slow", lambda: "done", 1.0)))
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=iter([0.0, 0.25, 1.0, 6.0]).__next__))
    assert run_criteria() == [
        CriterionResult("wrong", False, "off by one", 0.25),
        CriterionResult("slow", False, "finished correctly but took 5.00s (limit 1s)", 5.0),
    ]
