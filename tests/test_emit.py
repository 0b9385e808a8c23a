"""The streaming CLI writer against the row-dict reference serializer.

`cli._emit` formats columns a chunk of rows at a time; `emit_ref.emit_ref`
is the serializer it replaced, fed the payloads the commands used to build
(every row a dict).  Their bytes must be equal.
"""
import contextlib
import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emit_ref import emit_ref
from optquad import cli
from optquad.coefficients import constraint_residuals, optimal_coefficients
from optquad.quadrature import CATALOG, convergence_table
from optquad.spectral import constants
from optquad.wiener_hopf import solve_uniform
from oracles import make_rule

CHUNK = cli._ROWS_PER_CHUNK


def run(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def coeffs_payload(n: int, method: str) -> dict:
    """The `coeffs` payload, built as the command built it before streaming."""
    sc = constants(n)
    payload = {"command": "coeffs", "method": method, "n": n, "h": sc.h,
               "lambda1": sc.lambda1, "q": sc.q, "k_scaled": sc.k_scaled}
    if method == "closed":
        rule = optimal_coefficients(n)
    else:
        sol = solve_uniform(n)
        rule = make_rule(sol.nodes, sol.c)
        payload.update(b0=sol.b0, d=sol.d, residual_inf=sol.residual_inf)
    r1, r2 = constraint_residuals(rule)
    payload["residual_constraint_sum"] = r1
    payload["residual_constraint_exp_neg"] = r2
    payload["rows"] = [
        {"beta": int(b), "x": float(rule.nodes[b]), "c": float(rule.coefficients[b])}
        for b in range(n + 1)
    ]
    return payload


def convergence_payload(ns: list[int], function: str | None) -> dict:
    """The `convergence` payload, built as the command built it before streaming."""
    f = None if function is None else CATALOG[function]
    payload = {"command": "convergence", "function": function,
               "rows": [r._asdict() for r in convergence_table(ns, f)]}
    if f is None:
        for row in payload["rows"]:
            row.pop("abs_error")
    return payload


def coeffs_argv(n, method, fmt):
    return ("coeffs", "--n", str(n), "--method", method, "--format", fmt)


FORMATS = st.sampled_from(["json", "csv"])


@settings(max_examples=40, deadline=None)
@given(chunk=st.integers(1, 9), data=st.data(), fmt=FORMATS)
def test_coeffs_closed_matches_reference(chunk, data, fmt):
    # n + 1 rows span one to a little over three chunks
    n = data.draw(st.integers(1, 3 * chunk + 1), label="n")
    with mock.patch.object(cli, "_ROWS_PER_CHUNK", chunk):
        out = run(*coeffs_argv(n, "closed", fmt))
    assert out == emit_ref(coeffs_payload(n, "closed"), "rows", fmt)


@pytest.mark.parametrize("n, fmt", [(CHUNK - 1, "csv"), (CHUNK, "json"), (3 * CHUNK, "json")])
def test_coeffs_closed_matches_reference_at_the_chunk_edges(n, fmt):
    # n + 1 rows: exactly one chunk, one chunk and one row, three and one
    assert run(*coeffs_argv(n, "closed", fmt)) == emit_ref(coeffs_payload(n, "closed"), "rows", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_coeffs_closed_matches_reference_where_weights_repeat(fmt):
    # the weights are h from a few nodes in: most chunks repeat h thousands of times
    n = 10_000
    rule = optimal_coefficients(n)
    assert np.unique(rule.coefficients[:CHUNK]).size < CHUNK // 10
    assert run(*coeffs_argv(n, "closed", fmt)) == emit_ref(coeffs_payload(n, "closed"), "rows", fmt)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 64), fmt=FORMATS)
def test_coeffs_system_matches_reference(n, fmt):
    assert run(*coeffs_argv(n, "system", fmt)) == emit_ref(coeffs_payload(n, "system"), "rows", fmt)


@settings(max_examples=20, deadline=None)
@given(
    ns=st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True).map(sorted),
    function=st.one_of(st.none(), st.sampled_from(sorted(CATALOG))),
    fmt=FORMATS,
)
def test_convergence_matches_reference(ns, function, fmt):
    argv = ["convergence", "--n-list", ",".join(map(str, ns)), "--format", fmt]
    if function is not None:
        argv += ["--function", function]
    # the first row's ratio and order_estimate are None: null / empty cells
    assert run(*argv) == emit_ref(convergence_payload(ns, function), "rows", fmt)


# Names and strings with the characters that JSON escapes, CSV quotes, or
# the row templates would read as format directives.
TEXT = st.text(st.sampled_from(list('ab,"%{} \né')), max_size=6)
SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), TEXT,
)
ARRAYS = {"float_array": float, "int_array": np.int64, "bool_array": bool}
CELLS = {
    "float_array": st.floats(allow_nan=True, allow_infinity=True),
    "int_array": st.integers(-2**63, 2**63 - 1),
    "bool_array": st.booleans(),
    "floats": st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    "ints": st.one_of(st.none(), st.integers(-10**20, 10**20)),
    "bools": st.one_of(st.none(), st.booleans()),
}


@st.composite
def tables(draw):
    """(scalars, columns as passed to _emit, the same rows as dicts)."""
    scalars = {"command": draw(TEXT)}
    scalars.update(draw(st.dictionaries(TEXT.filter(lambda k: k != "rows"), SCALAR, max_size=4)))
    n_rows = draw(st.integers(1, 25))
    kinds = draw(st.dictionaries(TEXT, st.sampled_from([*CELLS, "range"]), min_size=1, max_size=4))
    kept = [k for k in scalars if k not in cli._CSV_OMITTED]
    # a CSV row of one cell needs csv's lone-empty-cell quoting; no command
    # prints a table that narrow
    if len(kinds) + len(kept) < 2:
        kinds[draw(TEXT.filter(lambda k: k not in kinds))] = "range"
    columns, lists = {}, []
    for name, kind in kinds.items():
        if kind == "range":
            columns[name] = range(n_rows)
            lists.append(list(range(n_rows)))
            continue
        cells = draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        columns[name] = np.array(cells, dtype=ARRAYS[kind]) if kind in ARRAYS else cells
        lists.append(cells)
    rows = [dict(zip(columns, values)) for values in zip(*lists)]
    return scalars, columns, rows


def emitted(scalars, fmt, rows=None) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(scalars, fmt, None, rows)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(table=tables(), chunk=st.integers(1, 9), fmt=FORMATS)
def test_synthetic_tables_match_reference(table, chunk, fmt):
    scalars, columns, rows = table
    with mock.patch.object(cli, "_ROWS_PER_CHUNK", chunk):
        out = emitted(scalars, fmt, columns)
    assert out == emit_ref({**scalars, "rows": rows}, "rows", fmt)


@st.composite
def pooled_tables(draw):
    """(columns, rows as dicts): a range and float and integer arrays whose
    values come from small pools, so that chunks mix repeats and distinct
    values."""
    n_rows = draw(st.integers(1, 40))
    columns = {"beta": range(n_rows)}
    for name, cells, dtype in (("c", CELLS["float_array"], float),
                               ("k", CELLS["int_array"], np.int64)):
        pool = draw(st.lists(cells, min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns[name] = np.array(values, dtype=dtype)
    rows = [{"beta": b, "c": c, "k": k}
            for b, c, k in zip(columns["beta"], columns["c"].tolist(), columns["k"].tolist())]
    return columns, rows


@settings(max_examples=100, deadline=None)
@given(table=pooled_tables(), chunk=st.integers(1, 9), fmt=FORMATS)
def test_pooled_columns_match_reference(table, chunk, fmt):
    columns, rows = table
    scalars = {"command": "pooled", "n": len(rows)}
    with mock.patch.object(cli, "_ROWS_PER_CHUNK", chunk):
        out = emitted(scalars, fmt, columns)
    assert out == emit_ref({**scalars, "rows": rows}, "rows", fmt)


@pytest.mark.parametrize("chunk", [3, 8, CHUNK])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_and_signed_zero_match_reference(chunk, fmt):
    # chunks of 3: all distinct and non-finite, all distinct and finite, mixed
    nan, inf = float("nan"), float("inf")
    c = np.array([nan, inf, -inf, -0.0, 0.0, 1.0, -0.0, nan])
    columns = {"beta": range(c.size), "c": c}
    rows = [{"beta": b, "c": v} for b, v in enumerate(c.tolist())]
    with mock.patch.object(cli, "_ROWS_PER_CHUNK", chunk):
        out = emitted({"command": "edge"}, fmt, columns)
    assert out == emit_ref({"command": "edge", "rows": rows}, "rows", fmt)


@settings(max_examples=50, deadline=None)
@given(scalars=st.dictionaries(TEXT, SCALAR, min_size=1, max_size=6), fmt=FORMATS)
def test_synthetic_scalars_match_reference(scalars, fmt):
    assert emitted(scalars, fmt) == emit_ref(scalars, None, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_does_not_depend_on_chunk_size(monkeypatch, fmt):
    argv = coeffs_argv(2 * CHUNK + 5, "closed", fmt)
    default = run(*argv)
    monkeypatch.setattr(cli, "_ROWS_PER_CHUNK", 7)
    assert run(*argv) == default


def test_streaming_memory_does_not_grow_with_the_table(tmp_path):
    # 19.8 MB of CSV; writing it whole took several times that
    target = tmp_path / "coeffs.csv"
    tracemalloc.start()
    try:
        assert cli.main(["coeffs", "--n", "100000", "--format", "csv", "--out", str(target)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 19_000_000
    assert peak < 8_000_000


def test_coeffs_csv_at_a_million_nodes(tmp_path):
    n = 1_000_000
    target = tmp_path / "coeffs.csv"
    assert cli.main(["coeffs", "--n", str(n), "--format", "csv", "--out", str(target)]) == 0
    with target.open("rb") as fh:
        lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
        fh.seek(0)
        header, first = fh.readline(), fh.readline()
        fh.seek(-400, io.SEEK_END)
        last = fh.read().splitlines()[-1]
    assert lines == n + 2  # the header and n + 1 rows
    assert header.startswith(b"beta,x,c,n,")
    rule = optimal_coefficients(n)
    for b, line in ((0, first), (n, last)):
        row = next(csv.reader([line.decode()]))
        assert int(row[0]) == b
        assert float(row[1]) == rule.nodes[b]
        assert float(row[2]) == rule.coefficients[b]
