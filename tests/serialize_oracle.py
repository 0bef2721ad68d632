"""The earlier per-cell CSV/JSON writers, kept as a test oracle.

csv_text formatted every cell with fmt and joined the cells and lines in
Python; json_text sent the whole document, arrays as nested lists of floats,
through json.dumps(indent=2, sort_keys=True).  Tests compare the package's
numpy kernels and streamed layouts against these, byte for byte.
"""

import json
from typing import Any, Iterable, Mapping, Sequence


def fmt(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _cell(x: Any) -> str:
    text = fmt(x)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(_cell(h) for h in header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(meta: Mapping[str, Any], data: Mapping[str, Any]) -> str:
    return json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=2) + "\n"
