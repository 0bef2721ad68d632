"""Shared bit-stable CSV/JSON formatting.

CSV cells carry 12 significant digits with '.' decimals; JSON documents are
one top-level object {"meta": ..., "data": ...} with sorted keys.  Identical
inputs therefore serialize to identical bytes, which the CLI determinism
contract and the regression tests rely on.

Float arrays are written with one %-format per array: csv_rows with "%.12g"
per cell, the same text as fmt, and json_text with "%r" per value, laid out
as json.dumps(indent=2) lays out the array's nested lists, with json's NaN,
Infinity and -Infinity for the non-finite values.

Only the smallest index box outside which every value is +0.0 is formatted
cell by cell; the template carries the literal zero text ("%.12g" % 0.0 or
"%r" % 0.0) outside it.  A concentrated posterior is mostly +0.0, so most of
its cells cost no formatting.  Only the +0.0 bit pattern counts as zero:
-0.0 prints as "-0" or "-0.0", and NaN is not equal to 0, so both stay
inside the box.  A box that is the whole array gives the plain template.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence, Tuple, Union

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


def _box(a: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    """Per axis, the bounds lo, hi of the smallest box outside which every value of a is +0.0.

    Every axis of an all-+0.0 or empty array has the empty bounds 0, 0.
    """
    kept = (a != 0) | np.signbit(a)
    bounds = []
    for axis in range(a.ndim):
        hit = np.flatnonzero(kept.any(axis=tuple(i for i in range(a.ndim) if i != axis)))
        bounds.append((int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0))
    return tuple(bounds)


def _csv(head: str, a: np.ndarray) -> str:
    """head, then the CSV lines of a 2-D float array, built by one %-format."""
    rows, cols = a.shape
    (r0, r1), (c0, c1) = _box(a)
    zero = "%.12g" % 0.0
    line = ",".join([zero] * c0 + ["%.12g"] * (c1 - c0) + [zero] * (cols - c1)) + "\n"
    blank = ",".join([zero] * cols) + "\n"
    template = head.replace("%", "%%") + blank * r0 + line * (r1 - r0) + blank * (rows - r1)
    return template % tuple(a[r0:r1, c0:c1].ravel().tolist())


def csv_rows(a: np.ndarray) -> str:
    """The CSV lines of a 2-D float array, one row per line, each ending in a newline."""
    return _csv("", a)


def csv_text(header: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence[Any]]]) -> str:
    """A header line and one line per row; rows is an iterable of rows or a 2-D float array."""
    head = ",".join(_cell(h) for h in header) + "\n"
    if isinstance(rows, np.ndarray):
        return _csv(head, rows)
    return head + "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def _json_list(items: Sequence[str], pad: str) -> str:
    return f"[{pad}{(',' + pad).join(items)}{pad[:-2]}]" if items else "[]"


def _json_array(a: np.ndarray, depth: int) -> str:
    """A float array as json.dumps(a.tolist(), indent=2) writes it at this nesting depth.

    Walking up from the last axis, template is the layout of the box's part of a
    sub-array and zero the text of an all-+0.0 sub-array, built only where an
    axis above leaves some of its elements outside the box.
    """
    box = _box(a)
    cut = [b != (0, n) for b, n in zip(box, a.shape)]
    template, zero = "%r", "%r" % 0.0
    for level in range(a.ndim - 1, -1, -1):
        pad = "\n" + "  " * (depth + level + 1)
        n, (lo, hi) = a.shape[level], box[level]
        items = [zero] * lo + [template] * (hi - lo) + [zero] * (n - hi)
        if any(cut[:level]):
            zero = _json_list([zero] * n, pad)
        template = _json_list(items, pad)
    values = a[tuple(slice(lo, hi) for lo, hi in box)]
    text = template % tuple(values.ravel().tolist())
    if not np.isfinite(values).all():
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
