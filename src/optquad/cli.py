"""Command-line interface: coefficients, norms, validation, convergence, apply.

Exit codes: 0 success (a discrepant verdict is data, not failure), 1 a
validation check failed, 2 usage or domain error.  Output is JSON or CSV on
stdout (or --out FILE); identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import asdict

import numpy as np

from .coefficients import constraint_residuals, make_rule, optimal_coefficients
from .norm import (
    build_report,
    geometric_sums,
    multiplier_routes,
    norm_quadratic_form,
    norm_theorem2,
)
from .quadrature import CATALOG, convergence_table, error_check
from .spectral import constants
from .wiener_hopf import DENSE_MAX_N, solve_uniform


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, rows_key: str | None, fmt: str, out: str | None) -> None:
    """Serialize payload as JSON, or as CSV with one header row.

    For CSV, scalar fields are repeated on every row alongside the per-row
    columns named in `rows_key` (or emitted as a single row when None).
    """
    if fmt == "json":
        _write(json.dumps(payload, indent=2) + "\n", out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    scalars = {k: v for k, v in payload.items() if k != rows_key}
    if rows_key is None:
        writer.writerow(scalars.keys())
        writer.writerow([_fmt_cell(v) for v in scalars.values()])
    else:
        rows = payload[rows_key]
        row_fields = list(rows[0].keys()) if rows else []
        scalar_fields = [k for k in scalars if k not in ("command", "method", "function")]
        writer.writerow(row_fields + scalar_fields)
        for row in rows:
            writer.writerow(
                [_fmt_cell(row[k]) for k in row_fields]
                + [_fmt_cell(scalars[k]) for k in scalar_fields]
            )
    _write(buf.getvalue(), out)


# ----------------------------------------------------------------- commands


def cmd_coeffs(args) -> int:
    n = args.n
    sc = constants(n)  # validates n >= 1
    payload: dict = {
        "command": "coeffs",
        "method": args.method,
        "n": n,
        "h": sc.h,
        "lambda1": sc.lambda1,
        "q": sc.q,
        "k_scaled": sc.k_scaled,
    }
    if args.method == "closed":
        rule = optimal_coefficients(n)
    else:
        sol = solve_uniform(n)
        rule = make_rule(sol.nodes, sol.c)
        payload.update(b0=sol.b0, d=sol.d, residual_inf=sol.residual_inf)
    nodes, c = rule.nodes, rule.coefficients
    r1, r2 = constraint_residuals(rule)
    payload["residual_constraint_sum"] = r1
    payload["residual_constraint_exp_neg"] = r2
    payload["rows"] = [
        {"beta": int(b), "x": float(nodes[b]), "c": float(c[b])} for b in range(n + 1)
    ]
    _emit(payload, "rows", args.format, args.out)
    return 0


def cmd_norm(args) -> int:
    n = args.n
    payload: dict = {"command": "norm", "methods": args.methods, "n": n, "h": 1.0 / n if n >= 1 else None}
    if n < 1:
        raise ValueError("--n must be >= 1")
    if args.methods == "all":
        report = build_report(n)
        payload.update(asdict(report))
    elif args.methods == "quadform":
        payload["via_quadratic_form"] = norm_quadratic_form(optimal_coefficients(n))
    elif args.methods == "theorem2":
        payload["via_theorem2"] = norm_theorem2(n)
    else:
        source, mult, expanded = multiplier_routes(n)
        payload["multiplier_source"] = source
        if args.methods == "multiplier":
            payload["via_multipliers"] = mult
        else:
            payload["via_expanded"] = expanded
    _emit(payload, None, args.format, args.out)
    return 0


def cmd_validate(args) -> int:
    max_n = args.max_n
    tol = args.tol
    if max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if max_n > DENSE_MAX_N:
        raise ValueError(f"--max-n is capped at {DENSE_MAX_N} (dense oracle cost)")
    if not tol > 0.0:
        raise ValueError("--tol must be positive")

    rng = random.Random(1234)
    pairs = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(20)]
    coef = cons = route = exact = 0.0
    for n in range(1, max_n + 1):
        rule = optimal_coefficients(n)
        coef = max(coef, float(np.abs(rule.coefficients - solve_uniform(n).c).max()))
        cons = max(cons, *constraint_residuals(rule))
        route = max(route, build_report(n).rel_diff_qf_mult)
        s1 = math.fsum(rule.coefficients)
        s2 = math.fsum(rule.coefficients * np.exp(-rule.nodes))
        for a, b in pairs:
            err = abs(a * s1 + b * s2 - (a - b * math.expm1(-1.0)))
            exact = max(exact, err / (abs(a) + abs(b)))
    checks = [
        ("coefficient_agreement", coef),
        ("constraint_residuals", cons),
        ("norm_route_agreement", route),
        ("exactness_annihilated_span", exact),
    ]

    rng = random.Random(4321)
    worst = 0.0
    for _ in range(200):
        lam = 0.0
        while abs(lam) < 1e-3:
            lam = rng.uniform(-0.9, 0.9)
        n = rng.randint(2, 50)
        s1, s2 = geometric_sums(lam, n)
        b1 = math.fsum(lam**g * g for g in range(1, n))
        b2 = math.fsum(lam**g * g * g for g in range(1, n))
        worst = max(
            worst,
            abs(s1 - b1) / max(abs(b1), 1e-300),
            abs(s2 - b2) / max(abs(b2), 1e-300),
        )
    checks.append(("geometric_sum_identities", worst))

    width = max(len(name) for name, _ in checks)
    lines = [f"{'check':<{width}}  {'worst':>13}  {'tol':>9}  status"]
    failed: list[str] = []
    for name, value in checks:
        ok = value <= tol
        if not ok:
            failed.append(name)
        lines.append(f"{name:<{width}}  {value:13.6e}  {tol:9.1e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        lines.append(f"first failing check: {failed[0]}")
    _write("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_convergence(args) -> int:
    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--n-list must be comma-separated integers: {exc}") from None
    f = None
    if args.function is not None:
        f = CATALOG.get(args.function)
        if f is None:
            raise ValueError(
                f"unknown function {args.function!r}; catalog: {', '.join(sorted(CATALOG))}"
            )
    rows = convergence_table(ns, f)
    payload: dict = {
        "command": "convergence",
        "function": args.function,
        "rows": [asdict(r) for r in rows],
    }
    if f is None:
        for row in payload["rows"]:
            row.pop("abs_error")
    _emit(payload, "rows", args.format, args.out)
    return 0


def cmd_apply(args) -> int:
    f = CATALOG.get(args.function)
    if f is None:
        raise ValueError(
            f"unknown function {args.function!r}; catalog: {', '.join(sorted(CATALOG))}"
        )
    rule = optimal_coefficients(args.n)
    check = error_check(rule, f, norm_quadratic_form(rule))
    payload = {"command": "apply", "function": args.function, "n": args.n, "h": rule.h}
    payload.update(asdict(check))
    _emit(payload, None, args.format, args.out)
    return 0


# --------------------------------------------------------------- argparse


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optquad",
        description="Optimal uniform-grid quadrature for the (f''+f') seminorm: "
        "weights, error-norm evaluations, and consistency validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the rule weights")
    p.add_argument("--n", type=int, required=True, help="number of subintervals")
    p.add_argument("--method", choices=("closed", "system"), default="closed")
    _add_format(p)
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("norm", help="evaluate the squared error-functional norm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--methods",
        choices=("all", "quadform", "multiplier", "expanded", "theorem2"),
        default="all",
    )
    _add_format(p)
    p.set_defaults(handler=cmd_norm)

    p = sub.add_parser("validate", help="run the consistency suite")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("convergence", help="norm decay across grid refinements")
    p.add_argument("--n-list", required=True, dest="n_list",
                   help="comma-separated, strictly increasing grid sizes")
    p.add_argument("--function", default=None)
    _add_format(p)
    p.set_defaults(handler=cmd_convergence)

    p = sub.add_parser("apply", help="apply the rule to a catalog function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_apply)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
