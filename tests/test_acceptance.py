"""Acceptance suite: each spec criterion runs at its pinned tolerance and
prints one pass/fail line per check."""

import itertools
from types import SimpleNamespace

import pytest

from scancell import acceptance
from scancell.acceptance import CHECKS, CheckResult


@pytest.mark.parametrize("label,check", CHECKS, ids=[label for label, _ in CHECKS])
def test_criterion(label, check):
    results = check()
    assert results, f"criterion {label} produced no checks"
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.criterion} :: {r.name} :: {r.detail}")
    failures = [r for r in results if not r.passed]
    assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)


def test_simulation_property_failures_fail_both_checks(monkeypatch):
    # six cases, each trace with a violation and each run a different CSV:
    # cases 0 and 5 are rerun, and both reruns differ
    runs = itertools.count()

    def simulate(config, seed, horizon_seconds):
        csv = f"run {next(runs)}"
        return SimpleNamespace(to_csv=lambda: csv), None

    monkeypatch.setattr(acceptance, "simulation_property_cases", lambda: [(None, 1, 60.0)] * 6)
    monkeypatch.setattr(acceptance, "check_trace_invariants", lambda trace, config: ["lost a print"])
    monkeypatch.setattr(acceptance, "simulate", simulate)
    invariants, determinism = acceptance.check_simulation_properties()
    assert (invariants.passed, invariants.detail) == (False, "case 0: lost a print")
    assert (determinism.passed, determinism.detail) == (False, "2 mismatching reruns")


def test_run_all_returns_every_result_in_check_order(monkeypatch):
    first = [CheckResult("1 a", "one", True, "1")]
    second = [CheckResult("2 b", "two", False, "2"), CheckResult("2 b", "three", True, "3")]
    monkeypatch.setattr(acceptance, "CHECKS", (("a", lambda: first), ("b", lambda: second)))
    assert acceptance.run_all() == first + second
