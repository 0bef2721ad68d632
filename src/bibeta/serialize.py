"""Shared bit-stable CSV/JSON formatting.

CSV cells carry 12 significant digits with '.' decimals; JSON documents are
one top-level object {"meta": ..., "data": ...} with sorted keys.  Identical
inputs therefore serialize to identical bytes, which the CLI determinism
contract and the regression tests rely on.

Float arrays are written by numpy kernels in slices of whole rows, at most
2^14 cells for CSV and 2^12 for JSON (whose cells are wider) or one longer
row; a 1-D array is a column, one value a row.  The temporaries stay small,
the text is never built whole, and numpy releases the GIL, so threads that
write CSV format at once.  A kernel finds each value's significant digits as
an integer and its decimal exponent; one renderer turns them into text.  Each
part of a value's text (sign and leading "0.000", digits with a place for the
point after each, exponent) has a fixed place in NUL-padded 8-byte words: the
digits are read four at a time from a 10^4-entry ASCII table, the rest from
tables per decimal exponent.  The separators follow, and bytes.translate
strips the NULs.  The tables are built on first use.

CSV writes "%.12g" per cell: the fast path with an exact fallback of Loitsch
(PLDI 2010).  Each value is scaled by exact powers of ten, at most 1e22 per
step, to 12 digits before the point and rounded to an integer.  NaN, +-inf,
subnormals, and every value whose scaled form lies within the scaling error
(one rounding per step) of a half-way point, where "%.12g" rounds the exact
binary value half to even, go through "%.12g" one at a time.

JSON writes each float as json.dumps does: repr, the shortest text that reads
back as the same float and, of those, the nearest (ties to an even digit),
and NaN, Infinity or -Infinity, which alone go through json.dumps one at a
time.  The digits are found by Schubfach (Giulietti, 2020; a relative of Ryu,
Adams, PLDI 2018) in exact integer arithmetic: the binary value and the ends
of its rounding interval are multiplied by a 128-bit power of ten, rounded
up, in 64x64-bit products built from 32-bit halves, and rounded to odd, which
keeps enough of the exact products to compare them with the candidate
decimals.  repr's layout is fixed for 1e-4 <= |x| < 1e16, with ".0" after
integral values, and scientific with at least two exponent digits otherwise.
1-D and 2-D arrays are laid out as json.dumps(indent=2) lays out their lists,
and float arrays of other shapes go through json.dumps; json_chunks yields a
document's text a slice at a time, and json_text joins it.

Only the smallest index box outside which every value is +0.0 is formatted;
the literal zero text ("%.12g" % 0.0 or repr(0.0)) stands outside it.  A
concentrated posterior is mostly +0.0, so most of its cells cost no
formatting.  Only the +0.0 bit pattern counts as zero: -0.0 prints as "-0"
or "-0.0", and NaN is not equal to 0, so both stay inside the box.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

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


def _box(a: np.ndarray) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The rows r0, r1 and columns c0, c1 of the smallest box of the 2-D array a outside which every value is +0.0.

    Both axes of an all-+0.0 or empty array have the empty bounds 0, 0.
    """
    if a.size and np.count_nonzero(a) == a.size:  # no +0.0 nor -0.0: the box is the whole array
        return (0, a.shape[0]), (0, a.shape[1])
    kept = (a != 0) | np.signbit(a)
    hits = (np.flatnonzero(kept.any(axis=1 - axis)) for axis in (0, 1))
    return tuple((int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0) for hit in hits)


_SLICE = 1 << 14  # cells per slice of whole rows; a longer row is one slice
# the same for JSON, whose cells are wider and whose kernel keeps more temporaries.  A 1-D array is a column, one
# value a row: at 1 << 14, `sample --format json --n 1000000` took 1.09 s, not 0.94, and 57.1 MB, not 54.2 (2 cores)
_JSON_SLICE = 1 << 12
_E0 = 330  # offset of the decimal exponent e in the per-exponent tables, which cover -330..330
_WORD = np.dtype("<u8")  # 8 bytes of text in order
_TENS = np.array([float(f"1e{k}") for k in range(23)])  # [k] 10^k, exact for k <= 22
_G12, _REPR = 12, 17  # the formats, by their most significant digits: "%.12g" and repr


def _words(text: str) -> np.ndarray:
    """text, NUL-padded to whole 8-byte words."""
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), _WORD)


@lru_cache(maxsize=None)
def _digit_words() -> np.ndarray:
    """[v] the 4 digits of v < 10^4 in bytes 0, 2, 4, 6 of a word, trailing zeros NUL; [10^4 + v] in full."""
    d = np.arange(10_000, dtype="<u2")[:, None] // np.array([1000, 100, 10, 1], "<u2") % 10 + 48
    significant = np.cumsum(d[:, ::-1] > 48, axis=1)[:, ::-1] > 0
    # a digit and a NUL per 2-byte lane, four lanes to a word
    digits = np.concatenate([d * significant, d]).view(_WORD).ravel()
    digits.flags.writeable = False
    return digits


class _Layout(NamedTuple):
    """Per-exponent tables of one format.  A value's words are: its sign and, below 1, "0." and the leading
    zeros; its digits, four in the even bytes of each word, with a place for the point after each; its exponent."""

    marks: np.ndarray  # [word, 2 (e + _E0) + more] "0" for the NUL digits before the point, and ".", where more
    # tells whether a digit follows the point (repr's fixed notation always has one: its ".0")
    prefix: np.ndarray  # [2 (e + _E0) + negative] the sign and, for -4 <= e < 0, "0." and e's leading zeros
    suffix: np.ndarray  # [e + _E0] "e+XX" for scientific exponents, NUL for fixed ones
    unit: np.ndarray  # [e + _E0] 10^(places - digits before the point): no digit follows it where unit divides


@lru_cache(maxsize=None)
def _layout(places: int) -> _Layout:
    """The tables of "%.12g" (places 12), fixed for -4 <= e < 12, or of repr (places 17), fixed for -4 <= e < 16."""
    e = np.arange(-_E0, _E0 + 1)
    fixed = (e >= -4) & (e < (12 if places == _G12 else 16))
    point = np.where(fixed, np.maximum(e + 1, 0), 1)
    place, more = np.arange(-(-places // 4) * 4), np.arange(2)[:, None, None]
    p = point[:, None]
    zeros = place < p
    dot = (place == p - 1) & (more == 1)
    if places == _REPR:
        zeros |= (place == p) & (e[:, None] >= 0) & fixed[:, None]
        dot |= (place == p - 1) & fixed[:, None]
    marks = (zeros * 48 + dot * (46 << 8)).astype("<u2").transpose(1, 0, 2)  # [e, more, place]: 2 bytes a place
    marks = np.ascontiguousarray(marks).reshape(2 * len(e), -1).view(_WORD).T
    lead = ["0." + "0" * (-k - 1) if -4 <= k < 0 else "" for k in e.tolist()]
    prefix = np.array([sign + text for text in lead for sign in ("", "-")], "S8").view(_WORD)
    suffix = np.array(["" if f else "e%+03d" % k for k, f in zip(e.tolist(), fixed)], "S8").view(_WORD)
    layout = _Layout(np.ascontiguousarray(marks), prefix, suffix, _TENS[places - point])
    for t in layout:
        t.flags.writeable = False
    return layout


def _render(places: int, groups: Sequence[np.ndarray], e: np.ndarray, negative: np.ndarray, more: np.ndarray,
            sep: Any, out: np.ndarray) -> None:
    """Write the text of values with these digits into the first 2 + len(groups) words of out's cells.

    groups are the digits, four to a group (the last padded with zeros), leading digit first; e is
    the decimal exponent of the leading digit plus _E0; more tells whether a digit follows the point.
    A group's trailing zeros are NUL unless a later group has a digit that is not 0.  The last
    word, the exponent's, is or-ed with sep.
    """
    t, digits = _layout(places), _digit_words()
    flat = out.reshape(-1, out.shape[-1])
    e2 = e + e
    flat[:, 0] = t.prefix[e2 + negative]
    e2 += more
    later = None
    for word in range(len(groups), 0, -1):
        g = groups[word - 1]
        index = g if later is None else g + 10_000 * (later != 0)
        np.bitwise_or(digits[index], t.marks[word - 1][e2], out=flat[:, word])
        later = g if later is None else later | g
    np.bitwise_or(t.suffix[e].reshape(out.shape[:-1]), sep, out=out[..., len(groups) + 1])


def _scale(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * 10^p, by exact powers of ten of at most 22 decades each: one rounding per step."""
    s = a * _TENS[np.clip(p, 0, 22)]
    if p.min(initial=0) < 0:
        s /= _TENS[np.clip(-p, 0, 22)]
    far = np.flatnonzero(np.abs(p) > 22)
    if far.size:
        s[far] = _scale(s[far], p[far] - np.clip(p[far], -22, 22))
    return s


def _g12_digits(x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The "%.12g" digits of each value of the 1-D float array x: 3 groups of 4, the exponent plus _E0,
    whether a digit follows the point, and the indices of the values to write one at a time."""
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
    e += _E0
    w = q / _layout(_G12).unit[e]
    return [hi, mid, r - mid * 10_000], e, w != np.floor(w), np.concatenate([odd[~zero], near])


@lru_cache(maxsize=None)
def _powers_of_ten() -> np.ndarray:
    """[limb, j + 292] for -292 <= j <= 324, g = floor(10^j 2^(127 - floor(log2 10^j))) + 1: 10^j to 128
    bits, rounded up.  Rows 0-3 are g's 32-bit limbs, low first, and row 4 its high 64 bits."""
    rows = []
    for j in range(-292, 325):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        shift = 127 - (num.bit_length() - 1 if j >= 0 else -den.bit_length())
        g = ((num << shift) // den if shift >= 0 else num // (den << -shift)) + 1
        rows.append([g >> s & 0xFFFFFFFF for s in (0, 32, 64, 96)] + [g >> 64])
    table = np.array(rows, np.uint64).T.copy()
    table.flags.writeable = False
    return table


_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128), or-ed with 1 unless bits 64 to 127 of g cp are all 0, for cp < 2^59."""
    b0, b1 = cp & _LOW, cp >> _HALF
    # x: the high 64 bits of g's low 64 bits times cp, from the 32-bit halves
    u = g[0] * b0
    u >>= _HALF
    u += g[1] * b0
    v = g[0] * b1
    v += u & _LOW
    x = g[1] * b1
    x += u >> _HALF
    x += v >> _HALF
    # y: the high 64 bits of g's high 64 bits times cp, then y + x in two words
    u = g[2] * b0
    u >>= _HALF
    u += g[3] * b0
    v = g[2] * b1
    v += u & _LOW
    y = g[3] * b1
    y += u >> _HALF
    y += v >> _HALF
    z = g[4] * cp
    z += x
    y += z < x
    y |= z != 0
    return y


def _shortest(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The shortest decimal d 10^k that reads back as each finite, nonzero value of the 1-D float array x,
    and of those the nearest, ties to even: Schubfach."""
    bits = x.view(np.int64)
    be = bits >> 52 & 0x7FF
    c = bits & (1 << 52) - 1
    # x = c 2^q; its rounding interval is half as wide below as above at a power of two
    closer = (c == 0) & (be > 1)
    c |= np.minimum(be, 1) << 52
    q = np.maximum(be, 1) - 1075
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at a power of two, and h = q + floor(log2(10^-k)) + 1
    k = q * 1262611 - closer * 524031 >> 22
    h = q + (-k * 1741647 >> 19) + 1
    g = _powers_of_ten()[:, 292 - k]
    # vb, vbl, vbr: 4 x 10^-k and the ends of its rounding interval, rounded to odd
    cb = c << 2
    vb, vbl, vbr = (_round_to_odd(g, (v << h).view(np.uint64)) for v in (cb, cb - 2 + closer, cb + 2))
    odd = (c & 1).view(np.uint64)  # an even c reads back from the ends of its interval
    vbl += odd
    vbr -= odd
    s = vb >> np.uint64(2)
    # a decimal one digit shorter, if one of 10 s' and 10 s' + 10 lies in the interval
    sp = vb // np.uint64(40)
    up_in = vbl <= sp * np.uint64(40)
    wp_in = sp * np.uint64(40) + np.uint64(40) <= vbr
    shorter = (up_in != wp_in) & (s >= np.uint64(10))
    # else s or s + 1: the one in the interval, or the nearer, ties to even
    u_in = vbl <= s << np.uint64(2)
    w_in = (s << np.uint64(2)) + np.uint64(4) <= vbr
    s += np.where(u_in != w_in, w_in, (vb & np.uint64(3)) + (s & np.uint64(1)) > np.uint64(2))
    return np.where(shorter, sp + wp_in, s).view(np.int64), k + shorter


_POW10 = np.array([10**k for k in range(18)])


def _repr_digits(x: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The repr digits of each value of the 1-D float array x: 5 groups of 4, the exponent plus _E0,
    whether a scientific text has a point, and the indices of the values to write one at a time (NaN
    and +-inf)."""
    d, e = _shortest(x)
    # the digits from the leading one, padded to 17 with zeros
    n = np.searchsorted(_POW10, d, side="right")
    d *= _POW10[17 - n]
    e += n + (_E0 - 1)
    zero, odd = x == 0.0, np.flatnonzero(~np.isfinite(x))
    d[zero], e[zero], d[odd] = 0, _E0, 0
    hi, lo = np.divmod(d, 10**9)
    lo *= 1000
    g0, g1 = np.divmod(hi, 10_000)
    g2, lo = np.divmod(lo, 10**8)
    g3, g4 = np.divmod(lo, 10_000)
    return [g0, g1, g2, g3, g4], e, d % 10**16 != 0, odd


def _cells(x: np.ndarray, places: int, digits: Callable, fallback: Callable[[List[float]], List[str]],
           sep: Any = 0, after: np.ndarray = np.empty(0, _WORD)) -> np.ndarray:
    """The text of each value of the 2-D float array x in NUL-padded words, followed by the words after.

    digits is the format's kernel; fallback writes the values it leaves, one at a time.  The last word of
    a text is or-ed with sep[column]: a separator word holds its character in the last byte, which no
    text reaches.
    """
    shape, x = x.shape, x.ravel()
    groups, e, more, redo = digits(x)
    words = len(groups) + 2
    out = np.empty((*shape, words + after.size), _WORD)
    _render(places, groups, e, np.signbit(x), more, sep, out)
    out[..., words:] = after
    if redo.size:
        width = 8 * words - 1
        text = np.array(fallback(x[redo].tolist()), f"S{width}")
        out.reshape(x.size, -1).view(np.uint8)[redo, :width] = text.view(np.uint8).reshape(-1, width)
    return out


def _slices(a: np.ndarray, box: Tuple[Tuple[int, int], Tuple[int, int]], size: int, zero: str, sep: str,
            head: str, tail: str, write: Callable[[np.ndarray], np.ndarray]) -> Iterator[str]:
    """The rows of the 2-D float array a, each but the last followed by sep, in strings of whole rows of at
    most size cells, or of one row if it has more.

    A row outside the box is the text zero.  A row of the box is head, the words that write(block) gives
    for the block of its cells in the box's columns, and tail.
    """
    rows, cols = a.shape
    (r0, r1), (c0, c1) = box
    step = max(1, size // max(cols, 1))

    def blank(lo: int, hi: int) -> Iterator[str]:
        for i in range(lo, hi, step):
            n = min(i + step, hi) - i
            yield (zero + sep) * n if i + n < rows else (zero + sep) * (n - 1) + zero

    yield from blank(0, r0)
    head_words = _words(head)
    # the last row has no separator after it; both tails are padded to one width
    tails = np.stack([_words(text.ljust(len(tail + sep), "\0")) for text in (tail + sep, tail)])
    box_step = max(1, size // max(c1 - c0, 1))
    for i in range(r0, r1, box_step):
        i1 = min(i + box_step, r1)
        words = [np.broadcast_to(head_words, (i1 - i, head_words.size)), write(a[i:i1, c0:c1]).reshape(i1 - i, -1),
                 tails[(np.arange(i, i1) == rows - 1).astype(np.intp)]]
        words = [w for w in words if w.size]
        words = np.hstack(words) if len(words) > 1 else words[0]
        yield words.tobytes().translate(None, b"\0").decode("ascii")
    yield from blank(r1, rows)


def _g12_texts(values: List[float]) -> List[str]:
    return [fmt(v) for v in values]


def _csv_slices(a: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D float array, in strings of whole rows of at most _SLICE cells, or of one longer row."""
    cols = a.shape[1]
    box = _box(a)
    (c0, c1), zero = box[1], fmt(0.0)
    # the +0.0 cells left and right of the box are literal text; each box cell ends in its separator
    sep = np.repeat(_words("\0" * 7 + ","), c1 - c0)
    if c1 == cols and c1 > c0:
        sep[-1] = _words("\0" * 7 + "\n")[0]
    tail = ",".join([zero] * (cols - c1)) + "\n" if c1 < cols else ""
    return _slices(a, box, _SLICE, ",".join([zero] * cols) + "\n", "", (zero + ",") * c0, tail,
                   lambda block: _cells(block, _G12, _g12_digits, _g12_texts, sep))


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


def _json_texts(values: List[float]) -> List[str]:
    """Floats as json.dumps writes them: repr, or NaN, Infinity or -Infinity."""
    return [json.dumps(v) for v in values]


def _json_array(a: np.ndarray, depth: int) -> Iterator[str]:
    """A 1-D or 2-D float array with a value, as json.dumps(indent=2) writes its list at this depth.

    A 2-D array's rows are lists; a 1-D array is written as the rows of a[:, None], one value a row.
    """
    pad, z = "\n" + "  " * (depth + 1), repr(0.0)
    if a.ndim == 1:
        a, start, end, cell_sep = a[:, None], "", "", ""
    else:
        start, end, cell_sep = "[" + pad + "  ", pad + "]", "," + pad + "  "
    cols, box, after = a.shape[1], _box(a), _words(cell_sep)
    c0, c1 = box[1]

    def write(block: np.ndarray) -> np.ndarray:
        cells = _cells(block, _REPR, _repr_digits, _json_texts, after=after)
        cells[:, -1, cells.shape[-1] - after.size:] = 0  # the box's last value: the row's tail follows
        return cells

    yield "[" + pad
    yield from _slices(a, box, _JSON_SLICE, start + cell_sep.join([z] * cols) + end, "," + pad,
                       start + (z + cell_sep) * c0, (cell_sep + z) * (cols - c1) + end, write)
    yield pad[:-2] + "]"


def _json_value(value: Any, depth: int) -> Iterator[str]:
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2) and value.size:
        yield from _json_array(value, depth)
    elif isinstance(value, Mapping) and value:
        pad = "\n" + "  " * (depth + 1)
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + f"{pad}{json.dumps(key)}: "
            yield from _json_value(value[key], depth + 1)
        yield pad[:-2] + "}"
    else:
        value = value.tolist() if isinstance(value, np.ndarray) else value
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def json_chunks(meta: Mapping[str, Any], data: Mapping[str, Any]) -> Iterator[str]:
    """json_text in strings; a float array's rows come a slice of at most _JSON_SLICE cells at a time."""
    yield from _json_value({"meta": meta, "data": data}, 0)
    yield "\n"


def json_text(meta: Mapping[str, Any], data: Mapping[str, Any]) -> str:
    """json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=2) and a newline.

    Mapping keys are strings.  A value of data, or of a mapping nested in
    it, may be a float array, written as json writes its nested lists.
    """
    return "".join(json_chunks(meta, data))


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write each string of chunks, in order, to path."""
    with open(path, "w", newline="") as fh:
        fh.writelines(chunks)
