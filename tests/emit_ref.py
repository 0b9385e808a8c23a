"""Reference serializer: the CLI's row-dict `_emit`, kept as a test oracle.

`optquad.cli._emit` streams columns in chunks; its output must equal, byte
for byte, what this function returns for the same payload with the rows as
a list of dicts.  The body is the CLI's former serializer, unchanged except
that it returns the text instead of writing it.
"""
import csv
import io
import json

import numpy as np


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def emit_ref(payload: dict, rows_key: str | None, fmt: str) -> str:
    """Serialize payload as JSON, or as CSV with one header row.

    For CSV, scalar fields are repeated on every row alongside the per-row
    columns named in `rows_key` (or emitted as a single row when None).
    """
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
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
    return buf.getvalue()
