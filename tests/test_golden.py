"""Frozen CLI outputs: the stdout bytes and exit code of fixed invocations.

Each file under tests/golden/ is the exact stdout of `optquad.cli.main(argv)`
for the argv recorded in CASES, and the exact file that argv plus
`--out FILE` writes.  A refactor leaves every file byte-identical;
a change that moves a number on purpose regenerates only the affected files
and records which fields changed, and by how much, in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

With no NAME every file is rewritten.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from optquad.cli import main

GOLDEN = Path(__file__).with_name("golden")

# file name -> (argv, expected exit code)
CASES = {
    "coeffs_n8.json": (["coeffs", "--n", "8"], 0),
    "coeffs_n8.csv": (["coeffs", "--n", "8", "--format", "csv"], 0),
    "coeffs_system_n16.json": (["coeffs", "--n", "16", "--method", "system"], 0),
    "coeffs_system_n16.csv": (["coeffs", "--n", "16", "--method", "system", "--format", "csv"], 0),
    "norm_n16.json": (["norm", "--n", "16"], 0),
    "norm_n16.csv": (["norm", "--n", "16", "--format", "csv"], 0),
    "norm_n600.json": (["norm", "--n", "600"], 0),
    "norm_n16_quadform.json": (["norm", "--n", "16", "--methods", "quadform"], 0),
    "norm_n16_theorem2.json": (["norm", "--n", "16", "--methods", "theorem2"], 0),
    "norm_n16_multiplier.json": (["norm", "--n", "16", "--methods", "multiplier"], 0),
    "norm_n16_expanded.json": (["norm", "--n", "16", "--methods", "expanded"], 0),
    "norm_n600_multiplier.json": (["norm", "--n", "600", "--methods", "multiplier"], 0),
    "norm_n1000000_multiplier.json": (["norm", "--n", "1000000", "--methods", "multiplier"], 0),
    # the benchmark's oracle ops
    "coeffs_system_n512.json": (["coeffs", "--method", "system", "--n", "512"], 0),
    "coeffs_system_n256.csv": (["coeffs", "--method", "system", "--n", "256", "--format", "csv"], 0),
    "norm_n512_multiplier.json": (["norm", "--methods", "multiplier", "--n", "512"], 0),
    "norm_n384_expanded.json": (["norm", "--methods", "expanded", "--n", "384"], 0),
    # the benchmark's report ops
    "norm_n64.json": (["norm", "--methods", "all", "--n", "64"], 0),
    "norm_n128.json": (["norm", "--methods", "all", "--n", "128"], 0),
    "norm_n256.json": (["norm", "--methods", "all", "--n", "256"], 0),
    # exit 1 by design: the printed weights fail coefficient_agreement
    "validate_n16.txt": (["validate", "--max-n", "16", "--tol", "1e-9"], 1),
    "validate_n8.txt": (["validate", "--max-n", "8", "--tol", "1e-9"], 1),
    "convergence_sin.json": (["convergence", "--n-list", "2,4,8,16", "--function", "sin"], 0),
    "convergence.csv": (["convergence", "--n-list", "2,4,8,16", "--format", "csv"], 0),
    "apply_n16_exp.json": (["apply", "--n", "16", "--function", "exp"], 0),
    "apply_n16_affine_exp_neg.csv": (
        ["apply", "--n", "16", "--function", "affine_exp_neg", "--format", "csv"],
        0,
    ),
}


def run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    argv, expected_code = CASES[name]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_with_out_file(name, tmp_path):
    argv, expected_code = CASES[name]
    target = tmp_path / name
    code, out = run([*argv, "--out", str(target)])
    assert code == expected_code
    assert out == b""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        argv, expected_code = CASES[name]
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / name).write_bytes(out)
