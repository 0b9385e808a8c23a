import csv
import io
import json
import math

import pytest

from optquad.cli import main


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
