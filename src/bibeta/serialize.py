"""Shared bit-stable CSV/JSON formatting.

CSV cells carry 12 significant digits with '.' decimals; JSON documents are
one top-level object {"meta": ..., "data": ...} with sorted keys.  Identical
inputs therefore serialize to identical bytes, which the CLI determinism
contract and the regression tests rely on.

CSV float arrays are written by a numpy kernel with the bytes of "%.12g" per
cell: the fast path with an exact fallback of Loitsch (PLDI 2010).  Each
value is scaled by exact powers of ten, at most 1e22 per step, to 12 digits
before the point and rounded to an integer, whose digits are read four at a
time from a 10^4-entry ASCII table.  Each part of a cell's text (sign and
leading "0.000", digits with a place for the point after each, exponent,
separator) has a fixed place in 40 NUL-padded bytes, and bytes.translate
strips the NULs.  NaN, +-inf, subnormals, and every value whose scaled form
lies within the scaling error (one rounding per step) of a half-way point,
where "%.12g" rounds the exact binary value half to even, go through "%.12g"
one at a time.  Arrays are worked through in slices of whole rows of at most
2^14 cells: the temporaries stay small, and numpy releases the GIL, so
threads that write CSV format at once.  The tables are built on first use.

json_text writes float arrays with one %-format per array, "%r" per value,
laid out as json.dumps(indent=2) lays out the array's nested lists, with
json's NaN, Infinity and -Infinity for the non-finite values.

Only the smallest index box outside which every value is +0.0 is formatted;
the literal zero text ("%.12g" % 0.0 or "%r" % 0.0) stands outside it.  A
concentrated posterior is mostly +0.0, so most of its cells cost no
formatting.  Only the +0.0 bit pattern counts as zero: -0.0 prints as "-0"
or "-0.0", and NaN is not equal to 0, so both stay inside the box.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, Tuple

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


_SLICE = 1 << 14  # cells per slice: whole rows, unless one row has more
_E0 = 330  # offset of the decimal exponent e in the per-exponent tables, which cover -330..330
_WORD = np.dtype("<u8")  # 8 bytes of text in order; a cell is 5 words, NUL-padded


def _words(text: str) -> np.ndarray:
    """text, NUL-padded to whole 8-byte words."""
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), _WORD)


class _Tables(NamedTuple):
    """Lookup tables of the CSV kernel.  A cell's words are: its sign and, below 1, "0." and the leading
    zeros; 12 digits in the even bytes of 3 words, with a place for the point after each; its exponent."""

    digits: np.ndarray  # [v] the 4 digits of v < 10^4 in bytes 0, 2, 4, 6, trailing zeros NUL; [10^4 + v] in full
    marks: np.ndarray  # [word, 2 (e + _E0) + dot] "0" for the NUL digits before the point, and "." if dot
    prefix: np.ndarray  # [2 (e + _E0) + negative] the sign and, for -4 <= e < 0, "0." and e's leading zeros
    suffix: np.ndarray  # [e + _E0] "e+XX" for scientific exponents, NUL for fixed ones
    unit: np.ndarray  # [e + _E0] 10^(12 - digits before the point): no digit follows it where unit divides
    tens: np.ndarray  # [k] 10^k, exact for k <= 22


@lru_cache(maxsize=None)
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use so that importing the package stays cheap."""
    d = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    significant = np.cumsum(d[:, ::-1], axis=1)[:, ::-1] > 0
    lanes = np.left_shift(np.uint64(1), np.arange(0, 64, 16, dtype=np.uint64))
    digits = np.concatenate([((d + 48) * significant).astype(np.uint64) @ lanes, (d + 48).astype(np.uint64) @ lanes])
    # "%.12g" is fixed for -4 <= e < 12, with e + 1 digits before the point (none below 1), else scientific
    e = np.arange(-_E0, _E0 + 1)
    fixed = (e >= -4) & (e < 12)
    point = np.where(fixed, np.maximum(e + 1, 0), 1)[:, None, None]
    place, dot = np.arange(12), np.arange(2)[:, None]
    marks = ((place < point) * 48 + (place == point - 1) * dot * (46 << 8)).astype(np.uint64)
    lead = ["0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in e.tolist()]
    prefix = np.array([sign + text for text in lead for sign in ("", "-")], "S8").view(_WORD)
    suffix = np.array(["" if f else "e%+03d" % k for k, f in zip(e.tolist(), fixed)], "S8").view(_WORD)
    tens = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    marks = (marks.reshape(-1, 3, 4) @ lanes).T.astype(_WORD)
    tables = _Tables(digits.astype(_WORD), marks, prefix, suffix, tens[12 - point.ravel()], tens)
    for t in tables:
        t.flags.writeable = False
    return tables


def _scale(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * 10^p, by exact powers of ten of at most 22 decades each: one rounding per step."""
    tens = _tables().tens
    s = a * tens[np.clip(p, 0, 22)]
    if p.min(initial=0) < 0:
        s /= tens[np.clip(-p, 0, 22)]
    far = np.flatnonzero(np.abs(p) > 22)
    if far.size:
        s[far] = _scale(s[far], p[far] - np.clip(p[far], -22, 22))
    return s


def _cells(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The "%.12g" text of each value of the 2-D float array x in 5 NUL-padded words, or-ed with sep[column].

    The separator words hold their character in the last byte, which no text reaches.
    """
    t = _tables()
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    odd = np.flatnonzero(~((a >= sys.float_info.min) & (a <= sys.float_info.max)))  # 0, NaN, inf, subnormals
    a[odd] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = _scale(a, 11 - e)  # 12 digits before the point
    # log10 rounds values just below a power of ten up to it: take e from s, so that log10 need
    # only be within one decade
    off = np.flatnonzero((s < 1e11) | (s >= 1e12))
    if off.size:
        e[off] += np.where(s[off] < 1e11, -1, 1)
        s[off] = _scale(a[off], 11 - e[off])
    q = np.rint(s)
    # each step rounds s by at most 2^-53 of s < 1e12: q is the nearest integer of the exact scaled
    # value unless s lies within 2 (steps + 1) such roundings of a half-way point, steps being the
    # most any value of the slice took; there "%.12g" rounds the exact value, half to even
    steps = -(-int(np.abs(11 - e).max(initial=0)) // 22)
    near = np.flatnonzero(np.abs(s - q) >= 0.5 - (steps + 1) * 2.0**-52 * 1e12)
    carry = np.flatnonzero(q >= 1e12)  # 999999999999.5 and up round to one digit more
    q[carry], e[carry] = 1e11, e[carry] + 1
    zero = x[odd] == 0.0  # "0" or "-0": no digits, and the "0" before the point
    q[odd[zero]], e[odd[zero]] = 0.0, 0
    hi = np.floor(q / 1e8)
    r = (q - hi * 1e8).astype(np.intp)
    hi = hi.astype(np.intp)
    mid = r // 10_000
    lo = r - mid * 10_000
    e += _E0
    w = q / t.unit[e]
    e2 = e + e
    out = np.empty((x.size, 5), _WORD)
    out[:, 0] = t.prefix[e2 + np.signbit(x)]
    e2 += w != np.floor(w)
    # a group's trailing zeros are NUL unless a later group has a digit that is not 0
    for word, (digits, more) in enumerate(((hi, (mid | lo) != 0), (mid, lo != 0), (lo, 0)), 1):
        np.bitwise_or(t.digits[digits + 10_000 * more], t.marks[word - 1][e2], out=out[:, word])
    out = out.reshape(*shape, 5)
    np.bitwise_or(t.suffix[e].reshape(shape), sep, out=out[..., 4])
    redo = np.concatenate([odd[~zero], near])
    if redo.size:
        text = np.array(["%.12g" % v for v in x[redo].tolist()], "S39")
        out.reshape(-1, 5).view(np.uint8)[redo, :39] = text.view(np.uint8).reshape(-1, 39)
    return out


def _csv_slices(a: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float array, in strings of whole rows of at most _SLICE cells unless a row has more."""
    rows, cols = a.shape
    (r0, r1), (c0, c1) = _box(a)
    zero = "%.12g" % 0.0
    blank, step = ",".join([zero] * cols) + "\n", max(1, _SLICE // max(cols, 1))
    for i in range(0, r0, step):
        yield blank * (min(i + step, r0) - i)
    # the +0.0 cells left and right of the box are literal text; each box cell ends in its separator
    head, tail = _words((zero + ",") * c0), _words(",".join([zero] * (cols - c1)) + "\n" if c1 < cols else "")
    sep = np.repeat(_words("\0" * 7 + ","), c1 - c0)
    if c1 == cols and c1 > c0:
        sep[-1] = _words("\0" * 7 + "\n")[0]
    box_step = max(1, _SLICE // max(c1 - c0, 1))
    for i in range(r0, r1, box_step):
        words = _cells(a[i:min(i + box_step, r1), c0:c1], sep)
        words = words.reshape(len(words), -1)
        if head.size or tail.size:
            words = np.hstack([np.broadcast_to(head, (len(words), head.size)), words,
                               np.broadcast_to(tail, (len(words), tail.size))])
        yield words.tobytes().translate(None, b"\0").decode("ascii")
    for i in range(r1, rows, step):
        yield blank * (min(i + step, rows) - i)


def csv_rows(a: np.ndarray) -> str:
    """The CSV lines of a 2-D float array, one row per line, each ending in a newline."""
    return "".join(_csv_slices(a))


def csv_chunks(header: Sequence[Any], a: np.ndarray) -> Iterator[str]:
    """csv_text of a 2-D float array as the header line, written by fmt, then strings of whole rows of one slice each."""
    yield ",".join(_cell(h) for h in header) + "\n"
    yield from _csv_slices(a)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A header line and one line per row of mixed values, each written by fmt (see csv_chunks for float arrays)."""
    head = ",".join(_cell(h) for h in header) + "\n"
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


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write each string of chunks, in order, to path."""
    with open(path, "w", newline="") as fh:
        fh.writelines(chunks)
