"""Report records and run configuration for the command-line front end."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
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
        out = {"schema": SCHEMA, "point": list(self.point), "branch": self.branch}
        for key in ("contact", "lam", "M", "K", "D", "EQ1", "EQ2", "lnf",
                    "Q112", "Q212", "error"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.residuals is not None:
            out["residuals"] = list(self.residuals)
        if self.V is not None:
            out["V"] = list(self.V)
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out

    def to_json(self) -> str:
        """One JSON line; a non-finite value raises ValueError, because
        NaN and Infinity are not JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @staticmethod
    def from_json(text: str) -> "PointReport":
        d = json.loads(text)
        return PointReport(
            point=tuple(d["point"]), branch=d["branch"],
            contact=d.get("contact"), lam=d.get("lam"), M=d.get("M"),
            K=d.get("K"), D=d.get("D"), EQ1=d.get("EQ1"), EQ2=d.get("EQ2"),
            residuals=tuple(d["residuals"]) if "residuals" in d else None,
            lnf=d.get("lnf"), V=tuple(d["V"]) if "V" in d else None,
            Q112=d.get("Q112"), Q212=d.get("Q212"), error=d.get("error"),
            diagnostics=d.get("diagnostics", {}))

    def to_csv_row(self, columns) -> str:
        vals = []
        for c in columns:
            v = getattr(self, c)
            if isinstance(v, (tuple, list)):
                v = None  # csv flattens scalars only
            vals.append("" if v is None else str(v))
        return ",".join(vals)


CSV_COLUMNS = ("branch", "contact", "lam", "M", "K", "D", "EQ1", "EQ2",
               "lnf", "Q112", "Q212", "error")


def csv_header() -> str:
    return "x,y,z," + ",".join(CSV_COLUMNS)


def csv_row(r: PointReport) -> str:
    return (",".join(str(c) for c in r.point) + "," + r.to_csv_row(CSV_COLUMNS))


@dataclass
class RunConfig:
    omega_text: str = ""
    metric_text: str = ""
    eps_contact: float = 1e-9
    eps_D: float = 1e-9
    root_tol: float = 1e-10
    quad_tol: float = 1e-9
    points: List[Point] = field(default_factory=list)
    probes: List[Segment] = field(default_factory=list)
    reconstruct: bool = False
    base: Optional[Point] = None
    out_format: str = "json"

    def validate(self):
        if self.out_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.out_format!r}")
        for tol_name in ("eps_contact", "eps_D", "root_tol", "quad_tol"):
            if not getattr(self, tol_name) > 0:  # also rejects NaN
                raise ValueError(f"{tol_name} must be positive")
        if self.reconstruct != (self.base is not None):
            raise ValueError("--reconstruct and --base need each other")


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
            lo, hi, cnt = spec.split(":")
            n = int(cnt)
            if n < 1:
                raise ValueError(f"grid count must be >= 1 on axis {name!r}")
            axes[name] = list(np.linspace(_finite(lo), _finite(hi), n))
        else:
            axes[name] = [_finite(spec)]
    for name in "xyz":
        if name not in axes:
            raise ValueError(f"grid is missing axis {name!r}")
    return [(x, y, z) for x in axes["x"] for y in axes["y"] for z in axes["z"]]
