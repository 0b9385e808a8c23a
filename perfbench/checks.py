"""Per-op failure classifier and accuracy comparison against reference.json.

An op fails when
  * its exit code differs from the documented one (`validate` exits 1 with
    only `coefficient_agreement` failing, by design; every other op exits 0),
  * its output does not parse,
  * it prints a non-finite number or a non-positive squared norm,
  * `apply` reports `bound_satisfied: false`,
  * a `norm --methods all` report has a verdict other than
    `theorem2_discrepant`,
  * or a repeat of the same op in a run prints different stdout bytes
    (checked by the runner).

Known defects count as failures; KNOWN_DEFECTS only marks which failures
the package documents, so the run's `correct` flag stays about new ones.

Accuracy: every printed norm, norm bound, quadrature error and sampled
weight is compared with the stored high-precision value of the same
quantity.  The error is relative, or absolute where the exact value is 0
(null-space functions).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath as mp

from reference import NULL_FUNCTIONS

VALIDATE_DESIGNED_FAILURES = {"coefficient_agreement"}
VALIDATE_CHECKS = {
    "coefficient_agreement",
    "constraint_residuals",
    "norm_route_agreement",
    "exactness_annihilated_span",
    "geometric_sum_identities",
}

BOUND_VIOLATED = "bound_satisfied is false"

# (command, --n) -> the failure the package is known to show on that op.
# apply at n=2048: the float64 quadratic form is negative, so the printed
# bound is 0 (ROADMAP aim 3).
KNOWN_DEFECTS = {("apply", "2048"): BOUND_VIOLATED}

SQUARED_NORM_KEYS = ("via_quadratic_form", "via_multipliers", "via_expanded",
                     "via_theorem2", "closed_rule_quadratic_form")


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def option(argv, name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def is_known_defect(argv, outcome: Outcome) -> bool:
    known = KNOWN_DEFECTS.get((argv[0], option(argv, "--n")))
    return known is not None and outcome.failures == [known]


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return [{k: float(v) for k, v in row.items()} for row in rows]


def _parse_validate(text: str) -> dict[str, tuple[float, str]]:
    """check name -> (worst value, PASS or FAIL), from the validate table."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("check"):
        raise ValueError("missing validate header")
    worst = {}
    for line in lines[1:]:
        parts = line.split()
        if parts[:3] == ["first", "failing", "check:"]:
            continue
        name, value, _tol, status = parts
        if status not in ("PASS", "FAIL"):
            raise ValueError(f"bad status {status!r}")
        worst[name] = (float(value), status)
    if set(worst) != VALIDATE_CHECKS:
        raise ValueError(f"validate printed checks {sorted(worst)}")
    return worst


def _err(value: float, exact: mp.mpf) -> float:
    if exact == 0:
        return abs(value)
    return float(abs(mp.mpf(value) - exact) / abs(exact))


class Checker:
    """Classifies op outputs; holds the reference table as mp numbers."""

    def __init__(self, table: dict):
        self.dps = table["dps"]
        with mp.workdps(self.dps):
            self.ref = {k: _to_mp(v) for k, v in table.items() if k != "dps"}

    def check(self, argv, rc: int, text: str) -> Outcome:
        out = Outcome()
        command = argv[0]
        expected_rc = 1 if command == "validate" else 0
        if rc != expected_rc:
            out.failures.append(f"exit code {rc}, expected {expected_rc}")
            return out
        try:
            if command == "validate":
                parsed = _parse_validate(text)
            elif option(argv, "--format") == "csv":
                parsed = _parse_csv(text)
            else:
                parsed = json.loads(text)
            with mp.workdps(self.dps):
                getattr(self, "_" + command)(argv, parsed, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            out.failures.append(f"output does not parse: {exc!r}")
        return out

    # ------------------------------------------------------ per command

    def _finite(self, parsed, out: Outcome) -> bool:
        if all(math.isfinite(v) for v in _numbers(parsed)):
            return True
        out.failures.append("non-finite number in output")
        return False

    def _positive(self, value, out: Outcome) -> None:
        if not value > 0.0:
            out.failures.append(f"non-positive squared norm {value!r}")

    def _validate(self, argv, parsed, out):
        if not all(math.isfinite(v) for v, _ in parsed.values()):
            out.failures.append("non-finite number in output")
        failing = {name for name, (_, status) in parsed.items() if status == "FAIL"}
        if failing != VALIDATE_DESIGNED_FAILURES:
            out.failures.append(f"validate failed {sorted(failing)}, expected "
                                f"{sorted(VALIDATE_DESIGNED_FAILURES)}")

    def _coeffs(self, argv, parsed, out):
        rows = parsed if isinstance(parsed, list) else parsed["rows"]
        n = int(option(argv, "--n"))
        if len(rows) != n + 1:
            out.failures.append(f"{len(rows)} rows, expected {n + 1}")
            return
        if not self._finite(parsed, out):
            return
        key = "closed_c" if option(argv, "--method") == "closed" else "dense_c"
        for b, exact in self.ref[key][str(n)].items():
            out.errors.append(_err(rows[int(b)]["c"], exact))

    def _norm(self, argv, parsed, out):
        if not self._finite(parsed, out):
            return
        n = str(parsed["n"])
        methods = option(argv, "--methods")
        for key in SQUARED_NORM_KEYS:
            if key in parsed:
                self._positive(parsed[key], out)
        exact_for = {
            "via_quadratic_form": self.ref["min_qf" if methods == "all" else "closed_qf"],
            "via_multipliers": self.ref["min_qf"],
            "via_expanded": self.ref["min_qf"],
            "via_theorem2": self.ref["thm2"],
            "closed_rule_quadratic_form": self.ref["closed_qf"],
            "coefficient_max_deviation": self.ref["coef_dev"],
        }
        for key, table in exact_for.items():
            if key in parsed:
                out.errors.append(_err(parsed[key], table[n]))
        if methods == "all" and parsed["verdict"] != "theorem2_discrepant":
            out.failures.append(f"verdict {parsed['verdict']!r}")

    def _quad_error(self, function: str, n: int):
        if function in NULL_FUNCTIONS:
            return mp.mpf(0)
        return abs(self.ref["quad_err"][function][str(n)])

    def _convergence(self, argv, parsed, out):
        if not self._finite(parsed, out):
            return
        function = option(argv, "--function")
        for row in parsed["rows"]:
            self._positive(row["norm_sq"], out)
            out.errors.append(_err(row["norm_sq"], self.ref["closed_qf"][str(row["n"])]))
            if function is not None:
                out.errors.append(_err(row["abs_error"], self._quad_error(function, row["n"])))

    def _apply(self, argv, parsed, out):
        if not self._finite(parsed, out):
            return
        function, n = parsed["function"], parsed["n"]
        if function in NULL_FUNCTIONS:
            bound = mp.mpf(0)
        else:
            bound = mp.sqrt(self.ref["closed_qf"][str(n)]) * self.ref["seminorm"][function]
        out.errors.append(_err(parsed["norm_bound"], bound))
        out.errors.append(_err(parsed["abs_error"], self._quad_error(function, n)))
        if parsed["bound_satisfied"] is not True:
            out.failures.append(BOUND_VIOLATED)


def _to_mp(value):
    if isinstance(value, dict):
        return {k: _to_mp(v) for k, v in value.items()}
    return mp.mpf(value)
