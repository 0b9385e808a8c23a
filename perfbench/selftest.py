"""Self-tests of the benchmark itself (not of optquad).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package suite's default collection: the
last test runs every workload once (about a minute, 1.1 GB for `bulk`).
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from checks import Checker, is_known_defect  # noqa: E402
from run import END_TO_END, PER_LAYER, Ledger, benchmark, import_cli, run_op  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return Checker(reference.load())


@pytest.fixture(scope="module")
def cli():
    return import_cli()


def _apply_output(**changes) -> str:
    payload = {"command": "apply", "function": "exp", "n": 1024, "h": 1 / 1024,
               "quad_value": 1.7182818287476895, "true_value": 1.718281828459045,
               "abs_error": 2.8864444168164027e-10, "norm_bound": 1.1940017246843766e-07,
               "bound_satisfied": True}
    payload.update(changes)
    return json.dumps(payload, indent=2) + "\n"


APPLY = ("apply", "--n", "1024", "--function", "exp")


def test_real_outputs_pass(checker, cli):
    for argv in [("apply", "--n", "64", "--function", "sin"),
                 ("norm", "--methods", "all", "--n", "64"),
                 ("validate", "--max-n", "4", "--tol", "1e-9"),
                 ("coeffs", "--method", "system", "--n", "256", "--format", "csv")]:
        rc, text, _ = run_op(cli, argv)
        outcome = checker.check(argv, rc, text)
        assert outcome.failures == [], argv
        assert all(e < 1e-5 for e in outcome.errors), (argv, outcome.errors)


@pytest.mark.parametrize("argv, rc, text, reason", [
    (APPLY, 0, _apply_output(bound_satisfied=False), "bound_satisfied"),
    (APPLY, 0, _apply_output(norm_bound=math.nan), "non-finite"),
    (APPLY, 2, "", "exit code"),
    (APPLY, "ArithmeticError: boom", "", "exit code"),
    (APPLY, 0, "{not json", "does not parse"),
    (APPLY, 0, json.dumps({"command": "apply"}), "does not parse"),
    (("norm", "--methods", "quadform", "--n", "1024"), 0,
     json.dumps({"n": 1024, "via_quadratic_form": -1e-17}), "non-positive"),
    (("norm", "--methods", "all", "--n", "64"), 0,
     json.dumps({"n": 64, "verdict": "consistent"}), "verdict"),
    (("validate", "--max-n", "4", "--tol", "1e-9"), 0, "", "exit code"),
])
def test_classifier_flags_synthetic_bad_output(checker, argv, rc, text, reason):
    outcome = checker.check(argv, rc, text)
    assert outcome.failed
    assert any(reason in f for f in outcome.failures), outcome.failures


def test_classifier_flags_validate_with_unexpected_failures(checker, cli):
    argv = ("validate", "--max-n", "4", "--tol", "1e-9")
    rc, text, _ = run_op(cli, argv)
    bad = text.replace("PASS", "FAIL", 1)
    assert any("validate failed" in f for f in checker.check(argv, rc, bad).failures)


def test_ledger_flags_changed_repeat_and_tells_known_defects(checker):
    ledger = Ledger(checker)
    ledger.record(APPLY, 0, _apply_output())
    ledger.record(APPLY, 0, _apply_output(quad_value=1.0))
    assert (ledger.attempted, ledger.failed, ledger.unexpected) == (2, 1, 1)

    known = ("apply", "--n", "2048", "--function", "exp")
    outcome = checker.check(known, 0, _apply_output(n=2048, norm_bound=0.0,
                                                    bound_satisfied=False))
    assert is_known_defect(known, outcome)
    assert not is_known_defect(APPLY, checker.check(APPLY, 0, _apply_output(
        bound_satisfied=False)))


def test_null_space_functions_are_checked_absolutely(checker):
    argv = ("apply", "--n", "1024", "--function", "exp_neg")
    outcome = checker.check(argv, 0, _apply_output(function="exp_neg", norm_bound=0.0,
                                                   abs_error=3e-16))
    assert outcome.errors == [0.0, 3e-16]


def test_reference_table_regenerates():
    stored, fresh = reference.load(), reference.generate()

    def flat(table, prefix=""):
        for key, value in table.items():
            if isinstance(value, dict):
                yield from flat(value, f"{prefix}{key}/")
            else:
                yield f"{prefix}{key}", value

    stored, fresh = dict(flat(stored)), dict(flat(fresh))
    assert stored.keys() == fresh.keys()
    with mp.workdps(reference.DPS):
        for key, value in stored.items():
            a, b = mp.mpf(value), mp.mpf(fresh[key])
            assert abs(a - b) <= mp.mpf(10) ** -40 * abs(b), key


def test_seed_only_draws_functions():
    for workload in WORKLOADS:
        a, b = build_ops(workload, random.Random(1)), build_ops(workload, random.Random(2))
        assert [op[:-1] if op[0] in ("apply", "convergence") else op for op in a] == \
               [op[:-1] if op[0] in ("apply", "convergence") else op for op in b]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_completes_a_pass(workload):
    for traced, names in ((False, END_TO_END), (True, PER_LAYER)):
        result, ledger = benchmark(workload, seed=7, seconds=0, traced=traced, min_passes=1)
        assert set(result["metrics"]) == set(names)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert ledger.attempted >= len(build_ops(workload, random.Random(7)))
        assert ledger.unexpected == 0
