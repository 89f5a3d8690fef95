"""Seeded workload generator for the srsurf CLI benchmark.

Every workload turns a seed into an endless stream of CLI calls.  A call is
the argv a user would type (plus the metric file it names) and, for each
item of the call, the record this commit's program emits for it.  The
expected records come from the reference pools in `reference/`, written by
`make_reference.py`; the program under test sees only the argv.

Run as a script to write the inputs for one seed:

    python3 perfbench/workloads.py --workload invariants-grid --seed 1 --calls 2

Seed 1 is for development; seed 2 is held out for claims.
"""

from __future__ import annotations

import argparse
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

DEV_SEED = 1
HELDOUT_SEED = 2

# Both Σ fixtures use this metric; the selftest's regular symmetry fixture
# uses it too.
METRIC_TEXT = "1 + x^2\n0\n0\n1\n0\n1\n"
OMEGA_SINGULAR = "dy + x^2*dz"   # Σ = {x = 0}; ω and g depend on x alone
OMEGA_REGULAR = "dz + y*dx"      # contact everywhere; z-translation symmetry
BASE = (0.1, 0.2, 0.0)


@dataclass
class Call:
    """One CLI invocation and the record expected for each of its items."""

    argv: List[str]
    expected: List[dict]

    @property
    def items(self) -> int:
        return len(self.expected)


def fmt_point(p) -> str:
    """Coordinates as the shortest text that parses back to the same floats."""
    return ",".join(repr(float(c)) for c in p)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def lnf_oracle(point) -> float:
    """Closed-form ln f for the regular fixture's z-translation symmetry.

    With g = diag(1 + x^2, 1, 1), ker(dz + y dx) has the g-orthonormal basis
    d_y, (d_x - y d_z)/sqrt(1 + x^2 + y^2), so |lambda| = (1 + x^2 + y^2)^-1/2
    and ln f = ln(lambda(base)/lambda(point)).
    """
    x, y, _ = point
    bx, by, _ = BASE
    return 0.5 * math.log((1.0 + x * x + y * y) / (1.0 + bx * bx + by * by))


def _shuffled_forever(rng: np.random.Generator, size: int) -> Iterator[int]:
    """Pool indices in seeded order, reshuffled after each pass."""
    while True:
        yield from rng.permutation(size).tolist()


class Workload:
    """Base class: subclasses build argv and expected records from a pool.

    Values go in as --opt=VALUE, since a value starting with "-" would read
    as an option.
    """

    name = ""

    def __init__(self, work_dir: Path):
        self.ref = load_reference(self.name)
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.metric_path = str(self.work_dir / "metric.txt")
        Path(self.metric_path).write_text(METRIC_TEXT)

    def rng(self, seed: int) -> np.random.Generator:
        # The mask maps a negative seed to a distinct valid one.
        return np.random.default_rng([int(seed) & (2**64 - 1),
                                      zlib.crc32(self.name.encode())])

    def setup_call(self) -> Call:
        raise NotImplementedError

    def calls(self, seed: int) -> Iterator[Call]:
        raise NotImplementedError

    def oracle(self, record: dict) -> List[str]:
        """Problems found by a check independent of the reference pool."""
        return []


class InvariantsGrid(Workload):
    """`srsurf invariants` on seeded points of the Σ fixture.

    ω and g depend on x alone, so every result field except `point` is a
    function of x; the pool stores them per x, and y, z are drawn fresh for
    every point, so no point repeats within a run.
    """

    name = "invariants-grid"

    points, on_sigma = 400, 40

    def _call(self, items) -> Call:
        argv = ["invariants", "--omega", OMEGA_SINGULAR,
                "--metric-file", self.metric_path,
                "--points=" + ";".join(fmt_point(p) for p, _ in items)]
        return Call(argv, [dict(rec, point=list(p)) for p, rec in items])

    def setup_call(self) -> Call:
        return self._call([((self.ref["x"][0], 0.5, -0.5), self.ref["records"][0])])

    def calls(self, seed):
        rng = self.rng(seed)
        xs, recs, sigma = self.ref["x"], self.ref["records"], self.ref["sigma_record"]
        n_off = self.points - self.on_sigma
        while True:
            pick = rng.choice(len(xs), n_off, replace=False)
            pool = [(xs[i], recs[i]) for i in pick] + [(0.0, sigma)] * self.on_sigma
            yz = np.round(rng.uniform(-1.5, 1.5, (self.points, 2)), 6)
            items = [((pool[j][0], yz[k, 0], yz[k, 1]), pool[j][1])
                     for k, j in enumerate(rng.permutation(self.points))]
            yield self._call(items)


class SymmetryReconstruct(Workload):
    """`srsurf symmetry --reconstruct` on seeded targets of the regular
    fixture; ln f is also checked against its closed form."""

    name = "symmetry-reconstruct"
    LNF_TOL = 1e-7  # the selftest's tolerance for the same oracle

    targets = 1

    def _call(self, records) -> Call:
        argv = ["symmetry", "--omega", OMEGA_REGULAR,
                "--metric-file", self.metric_path,
                "--points=" + ";".join(fmt_point(r["point"]) for r in records),
                "--reconstruct", "--base=" + fmt_point(BASE)]
        return Call(argv, list(records))

    def setup_call(self) -> Call:
        # The target is the base itself: one point's system and residuals,
        # with an empty ln f segment, so set-up is not a quadrature.
        return self._call([self.ref["setup_record"]])

    def calls(self, seed):
        pool = self.ref["records"]
        draw = _shuffled_forever(self.rng(seed), len(pool))
        while True:
            yield self._call([pool[next(draw)] for _ in range(self.targets)])

    @staticmethod
    def oracle(record):
        if "lnf" not in record:
            return ["lnf missing"]
        ref = lnf_oracle(record["point"])
        if abs(record["lnf"] - ref) > SymmetryReconstruct.LNF_TOL:
            return [f"lnf {record['lnf']!r} vs closed form {ref!r}"]
        return []


class SingularProbes(Workload):
    """`srsurf singular` on seeded probe segments of the Σ fixture, 3 in 4
    crossing Σ in every call so that each call costs about the same."""

    name = "singular-probes"

    crossing, missing = 6, 2

    def _call(self, entries) -> Call:
        argv = ["singular", "--omega", OMEGA_SINGULAR,
                "--metric-file", self.metric_path]
        for e in entries:
            argv.append(f"--probe={fmt_point(e['probe'][0])} : {fmt_point(e['probe'][1])}")
        return Call(argv, [e["record"] for e in entries])

    def setup_call(self) -> Call:
        return self._call([self.ref["crossing"][0]])

    def calls(self, seed):
        rng = self.rng(seed)
        cross, miss = self.ref["crossing"], self.ref["missing"]
        draw_cross = _shuffled_forever(rng, len(cross))
        draw_miss = _shuffled_forever(rng, len(miss))
        while True:
            entries = ([cross[next(draw_cross)] for _ in range(self.crossing)]
                       + [miss[next(draw_miss)] for _ in range(self.missing)])
            yield self._call([entries[j] for j in rng.permutation(len(entries))])


WORKLOADS = {w.name: w for w in (InvariantsGrid, SymmetryReconstruct, SingularProbes)}


def make(name: str, work_dir: Path) -> Workload:
    return WORKLOADS[name](work_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--calls", type=int, default=1)
    args = ap.parse_args(argv)
    out = OUT_DIR / f"{args.workload}-{args.seed}"
    wl = make(args.workload, out)
    stream = wl.calls(args.seed)
    for i in range(args.calls):
        call = next(stream)
        with open(out / f"call-{i}.json", "w") as fh:
            json.dump({"argv": call.argv, "expected": call.expected}, fh)
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
