import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import optquad
from optquad import kernel
from optquad.cli import main

GOLDEN = Path(__file__).with_name("golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_closed_n1_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "1", "--method", "closed", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["c"]) == pytest.approx(0.4180233, abs=1e-6)
    assert float(rows[1]["c"]) == pytest.approx(0.5819767, abs=1e-6)


def test_coeffs_system_n2_reports_the_actual_solution(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--method", "system")
    assert code == 0
    payload = json.loads(out)
    cs = [row["c"] for row in payload["rows"]]
    # the dense solve does NOT reproduce the closed form; emit what it solves
    assert cs == pytest.approx([0.18147809599809316, 0.62654229512702072, 0.19197960887488613], rel=1e-9)
    assert payload["residual_inf"] <= 1e-10
    assert "b0" in payload and "d" in payload


def test_coeffs_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--n", "0")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "coeffs", "--n", "514", "--method", "system")
    assert code == 2


def test_coeffs_system_accepts_the_cap(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "513", "--method", "system", "--format", "csv")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 514


def test_norm_quadform(capsys):
    code, out, _ = run_cli(capsys, "norm", "--n", "2", "--methods", "quadform")
    assert code == 0
    payload = json.loads(out)
    assert payload["via_quadratic_form"] == pytest.approx(2.75e-4, abs=1e-5)
    code, out, _ = run_cli(capsys, "norm", "--n", "1", "--methods", "quadform")
    assert json.loads(out)["via_quadratic_form"] > 0.0


def test_norm_all_verdict(capsys):
    code, out, _ = run_cli(capsys, "norm", "--n", "2", "--methods", "all")
    assert code == 0  # a discrepant verdict is data, not a failure
    payload = json.loads(out)
    assert payload["verdict"] == "theorem2_discrepant"
    assert payload["via_theorem2"] == pytest.approx(11.70, rel=0.01)
    assert payload["multiplier_source"] == "dense_solve"


def test_norm_single_routes(capsys):
    code, out, _ = run_cli(capsys, "norm", "--n", "2", "--methods", "multiplier")
    assert code == 0
    assert json.loads(out)["via_multipliers"] == pytest.approx(1.9522972545e-4, rel=1e-8)
    code, out, _ = run_cli(capsys, "norm", "--n", "2", "--methods", "theorem2")
    assert json.loads(out)["via_theorem2"] == pytest.approx(11.7013424445, rel=1e-9)


def test_validate_reports_the_coefficient_defect(capsys):
    # the closed form genuinely disagrees with the dense solve, so the
    # validation suite must fail and must name that check first
    code, out, _ = run_cli(capsys, "validate", "--max-n", "4", "--tol", "1e-9")
    assert code == 1
    assert "first failing check: coefficient_agreement" in out
    assert "FAIL" in out
    # every other check passes at this tolerance
    for line in out.splitlines():
        if line.startswith(("constraint_residuals", "norm_route_agreement",
                            "exactness_annihilated_span", "geometric_sum_identities")):
            assert "PASS" in line, line


def test_validate_audit_rows_are_the_minimizer_audits_worst(capsys):
    # validate's coefficient and norm-route rows are the worst of
    # minimizer_audit(n), the report's own audit, over n = 1..max-n
    from optquad.norm import minimizer_audit

    audits = [minimizer_audit(n) for n in range(1, optquad.DENSE_MAX_N + 1)]
    for max_n in (8, 64, optquad.DENSE_MAX_N):
        _, out, _ = run_cli(capsys, "validate", "--max-n", str(max_n), "--tol", "1e-9")
        worst = dict(line.split()[:2] for line in out.splitlines()[1:5])
        for row, key in (("coefficient_agreement", "coefficient_max_deviation"),
                         ("norm_route_agreement", "rel_diff_qf_mult")):
            assert worst[row] == f"{max(a[key] for a in audits[:max_n]):.6e}", (max_n, row)


def test_validate_constraint_rows_match_the_numpy_sums(monkeypatch, capsys):
    # validate sums each grid's printed weights with math.fsum and math.exp;
    # numpy's exp differs from math.exp in the last bit at some grids (17 of
    # 513 moved a sum), but the printed worst values do not move.  The
    # reference is the loop validate ran on numpy arrays; the audit rows
    # are not under test here, so the exact audit is stubbed out.
    from optquad import cli
    from optquad.coefficients import constraint_sums, optimal_coefficients

    monkeypatch.setattr(cli, "minimizer_audit", lambda n: {
        "coefficient_max_deviation": 0.0, "rel_diff_qf_mult": 0.0})
    rng = random.Random(1234)
    pairs = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(20)]
    cons = exact = 0.0
    expected = {}
    for n in range(1, cli.DENSE_MAX_N + 1):
        s1, s2 = constraint_sums(optimal_coefficients(n))
        cons = max(cons, abs(s1 - 1.0), abs(s2 + math.expm1(-1.0)))
        for a, b in pairs:
            err = abs(a * s1 + b * s2 - (a - b * math.expm1(-1.0)))
            exact = max(exact, err / (abs(a) + abs(b)))
        expected[n] = [f"{cons:.6e}", f"{exact:.6e}"]
    for max_n in (*range(1, 65), cli.DENSE_MAX_N):
        _, out, _ = run_cli(capsys, "validate", "--max-n", str(max_n), "--tol", "1e-9")
        worst = dict(line.split()[:2] for line in out.splitlines()[1:5])
        assert [worst["constraint_residuals"], worst["exactness_annihilated_span"]] == \
            expected[max_n], max_n


def test_validate_unattainable_tolerance(capsys):
    code, out, _ = run_cli(capsys, "validate", "--max-n", "2", "--tol", "1e-30")
    assert code == 1


def test_validate_rejects_bad_args(capsys):
    code, _, _ = run_cli(capsys, "validate", "--max-n", "0", "--tol", "1e-9")
    assert code == 2
    code, _, _ = run_cli(capsys, "validate", "--max-n", "4", "--tol", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "validate", "--max-n", "514", "--tol", "1e-9")
    assert code == 2


def test_convergence_table(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--n-list", "2,4,8,16", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    values = [float(r["norm_sq"]) for r in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert rows[0]["ratio"] == ""
    assert float(rows[1]["ratio"]) < 0.25


def test_convergence_exp_neg(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--n-list", "2,4", "--function", "exp_neg")
    assert code == 0
    payload = json.loads(out)
    assert all(row["abs_error"] <= 1e-12 for row in payload["rows"])


def test_convergence_rejects_bad_list(capsys):
    code, _, _ = run_cli(capsys, "convergence", "--n-list", "4,2")
    assert code == 2
    code, _, _ = run_cli(capsys, "convergence", "--n-list", "2,x")
    assert code == 2


@pytest.mark.parametrize("n_list", [",", ""])
def test_convergence_rejects_an_empty_list(capsys, n_list):
    code, out, err = run_cli(capsys, "convergence", "--n-list", n_list)
    assert (code, out) == (2, "")
    assert err == "error: the list of grid sizes is empty\n"


def test_apply_known_functions(capsys):
    code, out, _ = run_cli(capsys, "apply", "--n", "8", "--function", "const1")
    assert code == 0
    assert json.loads(out)["abs_error"] <= 1e-12
    code, out, _ = run_cli(capsys, "apply", "--n", "8", "--function", "exp_neg")
    assert json.loads(out)["abs_error"] <= 1e-12
    code, out, _ = run_cli(capsys, "apply", "--n", "2", "--function", "x")
    payload = json.loads(out)
    assert payload["abs_error"] == pytest.approx(0.013, abs=5e-4)
    assert payload["bound_satisfied"] is True


def test_apply_unknown_function_lists_catalog(capsys):
    code, _, err = run_cli(capsys, "apply", "--n", "8", "--function", "nope")
    assert code == 2
    assert "exp_neg" in err and "const1" in err
    assert run_cli(capsys, "convergence", "--n-list", "2", "--function", "nope") == (2, "", err)


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "norm", "--n", "3", "--methods", "all")
    _, out2, _ = run_cli(capsys, "norm", "--n", "3", "--methods", "all")
    assert out1 == out2
    _, out1, _ = run_cli(capsys, "coeffs", "--n", "5", "--format", "csv")
    _, out2, _ = run_cli(capsys, "coeffs", "--n", "5", "--format", "csv")
    assert out1 == out2


def test_csv_json_round_trip(capsys):
    _, json_out, _ = run_cli(capsys, "coeffs", "--n", "3", "--format", "json")
    _, csv_out, _ = run_cli(capsys, "coeffs", "--n", "3", "--format", "csv")
    payload = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    for json_row, csv_row in zip(payload["rows"], rows):
        for key in ("x", "c"):
            assert float(csv_row[key]) == json_row[key]  # 17 digits round-trip
    assert float(rows[0]["lambda1"]) == payload["lambda1"]
    assert float(rows[0]["k_scaled"]) == payload["k_scaled"]


def test_norm_csv_single_row(capsys):
    code, out, _ = run_cli(capsys, "norm", "--n", "2", "--methods", "all", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["verdict"] == "theorem2_discrepant"
    assert float(rows[0]["via_theorem2"]) == pytest.approx(11.7013, rel=1e-4)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["n"] == 2
    assert math.isfinite(payload["lambda1"])


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "coeffs.json"
    code, out, err = run_cli(capsys, "coeffs", "--n", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_pipe_on_both_streams_exits_2(fmt):
    # stderr on the same closed pipe cannot take the error message either;
    # the exit code still reports an output failure, not a failed check
    src = str(Path(optquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "optquad", "coeffs", "--n", "20000", "--format", fmt],
            stdout=write_end, stderr=write_end, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


@pytest.mark.parametrize(
    "target, exc, argv",
    [
        ("optquad.cli.constants", OverflowError("math range error"), ("coeffs", "--n", "4")),
        ("optquad.cli.norm_theorem2", ZeroDivisionError("float division by zero"),
         ("norm", "--n", "4", "--methods", "theorem2")),
        ("optquad.cli.closed_rule_norm", MemoryError(),
         ("norm", "--n", "4", "--methods", "quadform")),
    ],
)
def test_failures_exit_2_without_traceback(monkeypatch, capsys, target, exc, argv):
    monkeypatch.setattr(target, _raiser(exc))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.strip() != "error:"


def test_apply_and_convergence_at_a_million_nodes(capsys):
    # O(n) end to end: an (n+1)^2 temporary would be 8 TB here
    code, out, _ = run_cli(capsys, "apply", "--n", "1000000", "--function", "sin")
    assert code == 0
    assert json.loads(out)["bound_satisfied"] is True
    code, out, _ = run_cli(capsys, "convergence", "--n-list", "1000,1000000")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == [1000, 1000000]
    assert rows[1]["order_estimate"] == pytest.approx(4.0, abs=1e-3)


def test_quadform_norm_range(capsys):
    # past 10^9 nodes the 56-digit route 1 no longer holds a float64 result
    code, out, _ = run_cli(capsys, "norm", "--methods", "quadform", "--n", "1000000000")
    assert code == 0
    assert json.loads(out)["via_quadratic_form"] > 0.0
    code, out, err = run_cli(capsys, "norm", "--methods", "quadform", "--n", "1000000001")
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_norm_report_rejects_n_before_the_audit(monkeypatch, capsys):
    # the report checks its own range first: past 10^9 it runs no 56-digit
    # minimizer audit, and the message names the report
    from optquad import norm

    def refused(n):
        raise AssertionError(f"minimizer_audit({n})")

    monkeypatch.setattr(norm, "minimizer_audit", refused)
    code, out, err = run_cli(capsys, "norm", "--n", "1000000001")
    assert (code, out) == (2, "")
    assert err == "error: the norm report is evaluated for 1 <= n <= 10^9, got 1000000001\n"


def test_quadform_norm_builds_no_weights(capsys):
    # O(1) memory: 10^7 float64 weights alone would take 80 MB
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "norm", "--methods", "quadform", "--n", "10000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20, peak


def test_coeffs_system_forms_the_residual_once(monkeypatch, capsys):
    # the residual in the unfiltered system that `coeffs --method system`
    # prints takes one O(n^2) convolution and one moment over every node
    n = 512
    calls = {"convolve": 0, "moment": 0}

    def counted(name, fn, full=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[name] += full(*args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "convolve", counted("convolve", np.convolve))
    moment = kernel.moment
    full_moment = counted("moment", moment, lambda y: np.size(y) == n + 1)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("optquad") \
                and getattr(module, "moment", None) is moment:
            monkeypatch.setattr(module, "moment", full_moment)
    assert run_cli(capsys, "coeffs", "--method", "system", "--n", str(n))[0] == 0
    assert calls == {"convolve": 1, "moment": 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 512, 513, 514, 600, 10**6, 10**7])
def test_single_routes_print_the_report_values(capsys, n):
    # one evaluator: `norm --methods multiplier|expanded` prints route 2 or 3
    # of the report's own exact solve, the same bits on both sides of the
    # system-solve cap, and a positive squared norm at every n
    code, out, _ = run_cli(capsys, "norm", "--n", str(n))
    assert code == 0
    report = json.loads(out)
    for methods, key in (("multiplier", "via_multipliers"), ("expanded", "via_expanded")):
        code, out, _ = run_cli(capsys, "norm", "--methods", methods, "--n", str(n))
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplier_source"] == report["multiplier_source"] == "dense_solve"
        assert payload[key].hex() == report[key].hex(), (methods, n)
        assert payload[key] > 0.0, (methods, n)


def test_apply_rejects_n_before_building_the_weights(monkeypatch, capsys):
    # past the norm's 10^9 the printed weights alone would take 8 GB
    from optquad import coefficients

    assert run_cli(capsys, "apply", "--n", "8", "--function", "sin")[0] == 0  # warm the imports

    def refused(n):
        raise AssertionError(f"optimal_coefficients({n})")

    monkeypatch.setattr(coefficients, "optimal_coefficients", refused)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "apply", "--n", "1000000001", "--function", "sin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "1 <= n <= 10^9" in err
    assert peak < 2**20, peak


def test_the_parser_is_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "norm", "--n", "4", "--methods", "theorem2")[0] == 0
    built.clear()
    for argv in (("coeffs", "--n", "4"), ("norm", "--n", "4", "--methods", "quadform"),
                 ("apply", "--n", "4", "--function", "sin"),
                 ("convergence", "--n-list", "2,4"), ("coeffs", "--n", "0")):
        run_cli(capsys, *argv)
    assert built == []


def test_in_process_calls_share_no_state(capsys):
    # a rejected call between two accepted ones leaves their output as in
    # a fresh process
    code, out, _ = run_cli(capsys, "coeffs", "--n", "8", "--format", "csv")
    assert (code, out) == (0, (GOLDEN / "coeffs_n8.csv").read_text(encoding="utf-8"))
    with pytest.raises(SystemExit) as rejected:
        main(["norm", "--n", "8", "--methods", "bogus"])
    assert rejected.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "coeffs", "--n", "8")
    assert (code, out) == (0, (GOLDEN / "coeffs_n8.json").read_text(encoding="utf-8"))


def test_a_replaced_handler_runs_on_the_next_call(monkeypatch, capsys):
    assert run_cli(capsys, "norm", "--n", "4", "--methods", "theorem2")[0] == 0
    seen = []
    monkeypatch.setattr("optquad.cli.cmd_norm", lambda args: seen.append(args.n) or 7)
    assert run_cli(capsys, "norm", "--n", "5") == (7, "", "")
    assert seen == [5]


def test_help_exits_0_on_stdout(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: optquad")
