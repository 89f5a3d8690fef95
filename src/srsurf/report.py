"""Report records and input parsing for the command-line front end."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

SCHEMA = "srs/1"

Point = Tuple[float, float, float]
Segment = Tuple[Point, Point]


@dataclass
class PointReport:
    point: Point
    branch: str = "regular"  # regular | degenerate | noncontact
    contact: Optional[bool] = None
    lam: Optional[float] = None
    M: Optional[float] = None
    K: Optional[float] = None
    D: Optional[float] = None
    EQ1: Optional[float] = None
    EQ2: Optional[float] = None
    residuals: Optional[Tuple[float, float, float]] = None
    lnf: Optional[float] = None
    V: Optional[Tuple[float, float, float]] = None
    Q112: Optional[float] = None
    Q212: Optional[float] = None
    error: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields that are set, vectors as lists; None and {} are left out."""
        out = {"schema": SCHEMA}
        for key in _FIELDS:
            val = getattr(self, key)
            if val is not None and val != {}:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out

    def to_json(self) -> str:
        """One JSON line; a non-finite value raises ValueError, because
        NaN and Infinity are not JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


_FIELDS = tuple(f.name for f in fields(PointReport))
# CSV flattens scalars only: the point is its x,y,z columns, and the vectors
# and diagnostics have none.
CSV_COLUMNS = tuple(f.name for f in fields(PointReport)
                    if f.type in ("str", "Optional[bool]", "Optional[float]",
                                  "Optional[str]"))


def csv_header() -> str:
    return "x,y,z," + ",".join(CSV_COLUMNS)


def csv_row(r: PointReport) -> str:
    vals = [*r.point, *(getattr(r, c) for c in CSV_COLUMNS)]
    return ",".join("" if v is None else str(v) for v in vals)


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
    return [parse_point(chunk) for chunk in text.split(";") if chunk.strip()]


def parse_probe(text: str) -> Segment:
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
