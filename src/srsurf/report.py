"""Report records and input parsing for the command-line front end."""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii
from typing import List, Tuple

import numpy as np

SCHEMA = "srs/1"

Point = Tuple[float, float, float]


# A record's scalar fields, in CSV column order after the point's x, y, z; the
# vectors (residuals, V) and the diagnostics have no column.
CSV_COLUMNS = tuple("branch contact lam M K D EQ1 EQ2 lnf Q112 Q212 error".split())
CSV_HEADER = "x,y,z," + ",".join(CSV_COLUMNS)


_SLOT = re.compile(r'"\\u0000(\d+)"')  # a slot of the template, as json.dumps writes it
# a column's values as text, by their type: as json writes them, and as str() does
_JSON = {float: float.__repr__, int: int.__repr__, bool: ("false", "true").__getitem__,
         str: encode_basestring_ascii}
_CSV = {float: float.__repr__, int: int.__repr__, bool: bool.__repr__, str: str}


def map_arrays(record, f):
    """The fields of `record`, with f(a) in place of each array a in them."""
    if isinstance(record, dict):
        return {k: map_arrays(v, f) for k, v in record.items()}
    if isinstance(record, list):
        return [map_arrays(v, f) for v in record]
    return f(record) if isinstance(record, np.ndarray) else record


def render(fields: dict, csv: bool = False) -> List[str]:
    """The lines of the records `fields` gives, each field a constant or an array
    of one value per record, which fills a slot of one %-template.  The JSON one is
    json.dumps of the fields, so key order, separators and escapes are json's own,
    and floats are written by float.__repr__, as json writes them; a non-finite
    value raises ValueError, since NaN and inf are not JSON.  CSV writes str()."""
    columns = {}

    def slot(a):  # a column of values, and its place in the template
        columns[f"\0{len(columns)}"] = a.tolist()
        return f"\0{len(columns) - 1}"

    fields = map_arrays({"schema": SCHEMA, **fields}, slot)
    if csv:
        cells = [*fields["point"], *(fields.get(c, "") for c in CSV_COLUMNS)]
        template = ",".join("%s" if c in columns else str(c).replace("%", "%%") for c in cells)
        order = [c for c in cells if c in columns]
    else:
        parts = _SLOT.split(json.dumps(fields, sort_keys=True, allow_nan=False).replace("%", "%%"))
        template, order = "%s".join(parts[::2]), ["\0" + k for k in parts[1::2]]
    texts = {}
    for k in set(order):
        kind = type(columns[k][0])
        texts[k] = text = list(map((_CSV if csv else _JSON)[kind], columns[k]))
        if kind is float and not csv and "n" in "".join(text):  # no finite float has an n
            raise ValueError("Out of range float values are not JSON compliant")
    return [template % row for row in zip(*map(texts.__getitem__, order))]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"coordinate must be finite, got {text.strip()!r}")
    return value


def parse_point(text: str) -> Point:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 3:
        raise ValueError(f"point must have 3 coordinates: {text!r}")
    return tuple(_finite(p) for p in parts)


def parse_points(text: str) -> List[Point]:
    """Semicolon-separated list of comma-separated triples."""
    chunks = text.split(";")
    try:  # chunks of three finite numbers are split at once; any other text point by point
        v = list(map(float, text.replace(";", ",").split(",")))
        if all(chunk.count(",") == 2 for chunk in chunks) and all(map(math.isfinite, v)):
            return list(zip(v[::3], v[1::3], v[2::3]))
    except ValueError:
        pass
    return [parse_point(chunk) for chunk in chunks if chunk.strip()]


def parse_probe(text: str) -> Tuple[Point, Point]:
    """Segment syntax: 'x0,y0,z0 : x1,y1,z1'."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"probe must be 'p0 : p1': {text!r}")
    return parse_point(parts[0]), parse_point(parts[1])


_GRID_AXIS = re.compile(r"^\s*([xyz])\s*=\s*(.+?)\s*$")


def parse_grid(text: str) -> List[Point]:
    """Grid spec 'x=-1:1:5, y=-1:1:5, z=0' (start:stop:count or a scalar)."""
    axes = {}
    for chunk in text.split(","):
        m = _GRID_AXIS.match(chunk)
        if not m:
            raise ValueError(f"bad grid axis spec: {chunk!r}")
        name, spec = m.group(1), m.group(2)
        if name in axes:
            raise ValueError(f"axis {name!r} specified twice")
        if ":" in spec:
            try:
                lo, hi, cnt = spec.split(":")
                n = int(cnt)
            except ValueError:
                raise ValueError(f"grid range must be start:stop:count with an integer "
                                 f"count on axis {name!r}, got {spec!r}") from None
            if n < 1:
                raise ValueError(f"grid count must be >= 1 on axis {name!r}")
            axes[name] = list(np.linspace(_finite(lo), _finite(hi), n))
        else:
            axes[name] = [_finite(spec)]
    for name in "xyz":
        if name not in axes:
            raise ValueError(f"grid is missing axis {name!r}")
    return [(x, y, z) for x in axes["x"] for y in axes["y"] for z in axes["z"]]
