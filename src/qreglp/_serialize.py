"""JSON/CSV emission with pinned float formatting.

JSON output carries 17 significant digits (round-trip fidelity), CSV 12
(readability).  The tiny JSON emitter exists because the stdlib encoder
offers no control over float formatting.
"""

from __future__ import annotations

import json

import numpy as np

JSON_FLOAT_FMT = ".17g"
CSV_FLOAT_FMT = ".12g"


def _fmt_float(x: float, fmt: str) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    s = format(x, fmt)
    # Keep a float marker so the value reads back as a float.
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s


def dumps(obj, indent: int | None = None) -> str:
    """Serialize nested dict/list/scalar structures to JSON text."""

    def emit(o, depth):
        pad = "" if indent is None else "\n" + " " * (indent * depth)
        pad_close = "" if indent is None else "\n" + " " * (indent * (depth - 1))
        if o is None:
            return "null"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_float(float(o), JSON_FLOAT_FMT)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = ",".join(pad + emit(v, depth + 1) for v in o)
            return "[" + inner + pad_close + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = ",".join(
                pad + json.dumps(str(k)) + ": " + emit(v, depth + 1) for k, v in o.items()
            )
            return "{" + inner + pad_close + "}"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return emit(obj, 1)


def csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), CSV_FLOAT_FMT)
    return str(v)


def write_csv(handle, header: str, rows) -> None:
    """Write a CSV with a bit-exact header line."""
    handle.write(header + "\n")
    for row in rows:
        handle.write(",".join(csv_cell(v) for v in row) + "\n")
