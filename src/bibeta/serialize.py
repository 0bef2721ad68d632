"""Shared bit-stable CSV/JSON formatting.

CSV cells carry 12 significant digits with '.' decimals; JSON documents are
one top-level object {"meta": ..., "data": ...} with sorted keys.  Identical
inputs therefore serialize to identical bytes, which the CLI determinism
contract and the regression tests rely on.

Float arrays are written with one %-format per array: csv_rows with "%.12g"
per cell, the same text as fmt, and json_text with "%r" per value, laid out
as json.dumps(indent=2) lays out the array's nested lists, with json's NaN,
Infinity and -Infinity for the non-finite values.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence, Union

import numpy as np


def fmt(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _cell(x: Any) -> str:
    text = fmt(x)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_rows(a: np.ndarray) -> str:
    """The CSV lines of a 2-D float array, one row per line, each ending in a newline."""
    rows, cols = a.shape
    return ((",".join(["%.12g"] * cols) + "\n") * rows) % tuple(a.ravel().tolist())


def csv_text(header: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence[Any]]]) -> str:
    """A header line and one line per row; rows is an iterable of rows or a 2-D float array."""
    head = ",".join(_cell(h) for h in header) + "\n"
    if isinstance(rows, np.ndarray):
        return head + csv_rows(rows)
    return head + "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def _json_array(a: np.ndarray, depth: int) -> str:
    """A float array as json.dumps(a.tolist(), indent=2) writes it at this nesting depth."""
    template = "%r"
    for level in range(a.ndim - 1, -1, -1):
        pad = "\n" + "  " * (depth + level + 1)
        n = a.shape[level]
        template = "[" + pad + (template + "," + pad) * (n - 1) + template + pad[:-2] + "]" if n else "[]"
    text = template % tuple(a.ravel().tolist())
    if not np.isfinite(a).all():
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_value(value: Any, depth: int) -> str:
    if isinstance(value, np.ndarray):
        return _json_array(value, depth)
    if isinstance(value, Mapping) and value:
        pad = "\n" + "  " * (depth + 1)
        items = (f"{pad}{json.dumps(key)}: {_json_value(value[key], depth + 1)}" for key in sorted(value))
        return "{" + ",".join(items) + pad[:-2] + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def json_text(meta: Mapping[str, Any], data: Mapping[str, Any]) -> str:
    """json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=2) and a newline.

    Mapping keys are strings.  A value of data, or of a mapping nested in
    it, may be a float array, written as json writes its nested lists.
    """
    return _json_value({"meta": meta, "data": data}, 0) + "\n"


def write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text, or each string of an iterable in order, to path."""
    with open(path, "w", newline="") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)
