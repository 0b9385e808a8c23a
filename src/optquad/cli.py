"""Command-line interface: coefficients, norms, validation, convergence, apply.

Exit codes: 0 success (a discrepant verdict is data, not failure), 1 a
validation check failed, 2 usage or domain error, or an arithmetic, memory
or output (OSError, e.g. a closed pipe) failure (reported on stderr, no
traceback); `main` catches exactly these four exception types.  Output is
JSON or CSV on stdout (or --out FILE), written as it is formatted;
identical invocations produce byte-identical output.  `main` may be called
repeatedly in one process, and it builds its parser once.

The module imports the standard library and the numpy-free modules (norm,
spectral) alone, so `norm` and `validate` run without numpy.  The handlers
that build O(n) float64 arrays (coeffs, apply, convergence) import the
array modules where they run.  Every record in the package is a
namedtuple, turned into a dict with _asdict(), so no command loads
dataclasses.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import operator
import random
import sys
from itertools import chain, repeat

from .norm import (
    build_report,
    closed_rule_norm,
    geometric_sums,
    minimizer_audit,
    multiplier_routes,
    norm_theorem2,
)
from .spectral import DENSE_MAX_N, closed_weights, constants


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # numpy's float64 included
        return f"{float(value):.16e}"
    return str(value)


# Rows formatted and written per write call; the output does not depend on it.
_ROWS_PER_CHUNK = 4096

# Scalars that name the call; CSV does not repeat them on every row.
_CSV_OMITTED = ("command", "method", "function")


@contextlib.contextmanager
def _sink(out: str | None):
    """Yield the write function of --out FILE, or of sys.stdout as bound now."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _directive(column, fmt: str) -> str:
    """The %-directive that spells one value of a column.

    Float arrays take 17 significant digits in CSV, as _fmt_cell does, and
    float.__repr__ in JSON, the spelling json uses for finite floats; ranges
    and signed-integer arrays take %d.  Every other column takes %s and is
    spelled cell by cell in _column_cells.  Only the array commands emit
    rows, so numpy is loaded here already.
    """
    import numpy as np

    if isinstance(column, range):
        return "%d"
    if isinstance(column, np.ndarray):
        return {"f": "%.16e" if fmt == "csv" else "%r", "i": "%d"}.get(column.dtype.kind, "%s")
    return "%s"


def _column_cells(column, start: int, fmt: str) -> tuple[str, list | range]:
    """One chunk of a column from row `start`: the directive and its cells.

    A numeric array chunk spells each distinct value once and gathers the
    spellings by index, unless every value is distinct: then its values go
    to the row template's own directive.
    """
    import numpy as np

    part = column[start:start + _ROWS_PER_CHUNK]
    directive = _directive(column, fmt)
    if isinstance(part, range):
        return directive, part
    if directive == "%s":
        values = part.tolist() if isinstance(part, np.ndarray) else list(part)
        if fmt == "json":
            # the C encoder spells numbers, booleans and None as json.dumps
            # does inside a payload; none of those spellings contains ", "
            return directive, json.dumps(values)[1:-1].split(", ")
        return directive, list(map(_fmt_cell, values))
    # distinct bit patterns, so that -0.0 and 0.0 keep their own spellings
    bits, index = np.unique(part.view(f"u{part.itemsize}"), return_inverse=True)
    distinct = bits.view(part.dtype)
    nonfinite = np.flatnonzero(~np.isfinite(distinct)) if fmt == "json" else ()
    if distinct.size == part.size and not len(nonfinite):
        return directive, part.tolist()
    values = distinct.tolist()
    spelled = ((directive + " ") * len(values) % tuple(values)).split()
    for i in nonfinite:
        spelled[i] = json.dumps(values[i])  # NaN, Infinity, -Infinity
    return "%s", np.array(spelled, dtype=object)[index].tolist()


def _emit(scalars: dict, fmt: str, out: str | None, rows: dict | None = None) -> None:
    """Serialize scalars, and optionally a table of rows, as JSON or CSV.

    `rows` maps each row field to its column: a numpy array, range, list
    or tuple of numbers, booleans or None, all of one length >= 1.  JSON
    prints the table last, under "rows", as one object per row, laid out as
    by json.dumps(indent=2).  CSV prints one header row; with a table, each
    row holds its cells followed by every scalar not in _CSV_OMITTED;
    without one, a single row holds all scalars.  Scalars are formatted once and
    rows _ROWS_PER_CHUNK at a time, each chunk written as soon as it is
    formatted, so the extra memory does not grow with the table.
    """
    with _sink(out) as write:
        if rows is None:
            if fmt == "json":
                write(json.dumps(scalars, indent=2) + "\n")
            else:
                write(_csv_line(scalars) + _csv_line(map(_fmt_cell, scalars.values())))
            return
        columns = list(rows.values())
        # each chunk fills the directives of this row template first, so
        # text in it is escaped twice: "%%%%" prints "%"
        suffix_args = ()  # text that ends every row, spelled once per call
        if fmt == "json":
            head = json.dumps({**scalars, "rows": []}, indent=2)  # ends in "[]\n}"
            write(head[:-4] + "[\n")
            fields = ",\n".join(f"      {json.dumps(k).replace('%', '%%%%')}: %s" for k in rows)
            row, sep, tail = "    {\n" + fields + "\n    }", ",\n", "\n  ]\n}\n"
        else:
            kept = [k for k in scalars if k not in _CSV_OMITTED]
            write(_csv_line([*rows, *kept]))
            # csv quotes a lone empty cell but not one among others: the
            # leading empty cell gives each scalar its mid-row spelling
            suffix = _csv_line(["", *(_fmt_cell(scalars[k]) for k in kept)])[:-1] if kept else ""
            # the suffix goes in as one argument per row, so % copies it
            # rather than scanning it for directives
            row = ",".join(["%s"] * len(columns)) + "%%s\n"
            sep, tail, suffix_args = "", "", (suffix,)
        for start in range(0, len(columns[0]), _ROWS_PER_CHUNK):
            directives, cells = zip(*(_column_cells(c, start, fmt) for c in columns))
            chunk = sep.join([row % directives] * len(cells[0]))
            values = zip(*cells, *map(repeat, suffix_args))
            write((sep if start else "") + chunk % tuple(chain.from_iterable(values)))
        write(tail)


# ----------------------------------------------------------------- commands


def _catalog_function(name: str):
    from .quadrature import CATALOG

    f = CATALOG.get(name)
    if f is None:
        raise ValueError(f"unknown function {name!r}; catalog: {', '.join(sorted(CATALOG))}")
    return f


def cmd_coeffs(args) -> int:
    from .coefficients import constraint_residuals, optimal_coefficients

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
        nodes, c = rule.nodes, rule.coefficients
        r1, r2 = constraint_residuals(rule)
    else:
        from .wiener_hopf import solve_uniform  # loads the kernel for its residual
        sol = solve_uniform(n)
        nodes, c = sol.nodes, sol.c
        payload.update(b0=sol.b0, d=sol.d, residual_inf=sol.residual_inf)
        r1, r2 = sol.residual_constraint_sum, sol.residual_constraint_exp_neg
    payload.update(residual_constraint_sum=r1, residual_constraint_exp_neg=r2)
    columns = {"beta": range(n + 1), "x": nodes, "c": c}
    _emit(payload, args.format, args.out, columns)
    return 0


def cmd_norm(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError("--n must be >= 1")
    payload: dict = {"command": "norm", "methods": args.methods, "n": n, "h": 1.0 / n}
    if args.methods == "all":
        report = build_report(n)
        payload.update(report._asdict())
    elif args.methods == "quadform":
        payload["via_quadratic_form"] = closed_rule_norm(n)
    elif args.methods == "theorem2":
        payload["via_theorem2"] = norm_theorem2(n)
    else:
        # the report's field: its routes 2 and 3 read the system's solution too
        payload["multiplier_source"] = "dense_solve"
        key = "via_multipliers" if args.methods == "multiplier" else "via_expanded"
        payload[key] = multiplier_routes(n, args.methods)
    _emit(payload, args.format, args.out)
    return 0


def cmd_validate(args) -> int:
    max_n = args.max_n
    tol = args.tol
    if max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if max_n > DENSE_MAX_N:
        raise ValueError(
            f"--max-n is capped at {DENSE_MAX_N} to bound the run: "
            "it makes one 56-digit exact solve per n"
        )
    if not tol > 0.0:
        raise ValueError("--tol must be positive")

    rng = random.Random(1234)
    pairs = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(20)]
    em1 = math.expm1(-1.0)  # sum c e^(-x) is exactly -em1 = 1 - 1/e
    # each pair (a, b) with the exact a s1 + b s2 and the scale |a| + |b|
    pairs = [(a, b, a - b * em1, abs(a) + abs(b)) for a, b in pairs]
    coef = cons = route = exact = 0.0
    for n in range(1, max_n + 1):
        sc = constants(n)
        c = closed_weights(sc, 0, n)  # the printed rule's weights, as optimal_coefficients(n)
        audit = minimizer_audit(n)  # deviation from the system's solution
        coef = max(coef, audit["coefficient_max_deviation"])
        route = max(route, audit["rel_diff_qf_mult"])
        # the constraint sums, compensated, at the nodes of optimal_coefficients(n)
        e_neg = map(math.exp, [-j * sc.h for j in range(n)] + [-1.0])
        s1, s2 = math.fsum(c), math.fsum(map(operator.mul, c, e_neg))
        cons = max(cons, abs(s1 - 1.0), abs(s2 + em1))
        for a, b, target, scale in pairs:
            exact = max(exact, abs(a * s1 + b * s2 - target) / scale)
    checks = [
        ("coefficient_agreement", coef),
        ("constraint_residuals", cons),
        ("norm_route_agreement", route),
        ("exactness_annihilated_span", exact),
    ]

    rng = random.Random(4321)
    worst = 0.0
    # g = 1 .. 49 as floats, each exactly g: float ** float and float * float
    # take the same doubles as with an int g, without converting it each time
    exponents = [float(g) for g in range(1, 50)]
    for _ in range(200):
        lam = 0.0
        while abs(lam) < 1e-3:
            lam = rng.uniform(-0.9, 0.9)
        n = rng.randint(2, 50)
        s1, s2 = geometric_sums(lam, n)
        gs = exponents[:n - 1]
        terms = [lam**g * g for g in gs]
        ref1 = math.fsum(terms)
        ref2 = math.fsum(map(operator.mul, terms, gs))  # the g^2 terms, t * g
        worst = max(
            worst,
            abs(s1 - ref1) / max(abs(ref1), 1e-300),
            abs(s2 - ref2) / max(abs(ref2), 1e-300),
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
    with _sink(args.out) as write:
        write("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_convergence(args) -> int:
    from .quadrature import convergence_table

    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--n-list must be comma-separated integers: {exc}") from None
    f = None if args.function is None else _catalog_function(args.function)
    rows = convergence_table(ns, f)
    columns = dict(zip(rows[0]._fields, zip(*rows)))  # one column per field
    if f is None:
        del columns["abs_error"]
    _emit({"command": "convergence", "function": args.function}, args.format, args.out, columns)
    return 0


def cmd_apply(args) -> int:
    from .coefficients import optimal_coefficients
    from .quadrature import error_check

    f = _catalog_function(args.function)
    norm_sq = closed_rule_norm(args.n)  # rejects n before the O(n) weights are built
    rule = optimal_coefficients(args.n)
    check = error_check(rule, f, norm_sq)
    payload = {"command": "apply", "function": args.function, "n": args.n, "h": rule.h}
    payload.update(check._asdict())
    _emit(payload, args.format, args.out)
    return 0


# --------------------------------------------------------------- argparse


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write to FILE instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by the later ones."""
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

    p = sub.add_parser("norm", help="evaluate the squared error-functional norm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--methods",
        choices=("all", "quadform", "multiplier", "expanded", "theorem2"),
        default="all",
    )
    _add_format(p)

    p = sub.add_parser("validate", help="run the consistency suite")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("convergence", help="norm decay across grid refinements")
    p.add_argument("--n-list", required=True, dest="n_list",
                   help="comma-separated, strictly increasing grid sizes")
    p.add_argument("--function", default=None)
    _add_format(p)

    p = sub.add_parser("apply", help="apply the rule to a catalog function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True)
    _add_format(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # resolved per call, so a handler replaced at module level is the one run
    handlers = {
        "coeffs": cmd_coeffs,
        "norm": cmd_norm,
        "validate": cmd_validate,
        "convergence": cmd_convergence,
        "apply": cmd_apply,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        # stderr may be the same closed pipe as stdout
        with contextlib.suppress(OSError):
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
