"""Alternating per-op timing of the jets of two srsurf source trees.

Imports the `srsurf` of each tree under its own package name with
`tools/pair_time.py`'s loader, builds the same random jets on both sides,
and times each jet op at each width (points) and order:

    scalar product    a * b, two scalar jets
    (3,)x scalar      v * a, a (3,) jet times a scalar jet
    index             v[0]
    sum               v.sum()
    stack             Jet.stack([a, b, c])
    grad              a.grad()
    pow(-0.5)         a.pow(-0.5)
    reciprocal        a.reciprocal()
    compose_series    a.compose_series(1/k!, k = 0..order)

For each op, width and order the two sides run alternately, `--rounds` times
each; a round times `number` calls, as many as take about 2 ms, and the best
round's time per call is kept.  Prints one line per op, width and order: the
best time of each side in microseconds and their ratio a / b.  The two sides'
coefficients must agree in every bit, signed zeros and NaNs included, or the
run stops:

    python3 tools/op_time.py --a ../parent/src --b src
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pair_time import SIDES, at_least_one, load_cli  # noqa: E402

OPS = {
    "scalar product": lambda J, a, b, c, v: a * b,
    "(3,)x scalar": lambda J, a, b, c, v: v * a,
    "index": lambda J, a, b, c, v: v[0],
    "sum": lambda J, a, b, c, v: v.sum(),
    "stack": lambda J, a, b, c, v: J.stack([a, b, c]),
    "grad": lambda J, a, b, c, v: a.grad(),
    "pow(-0.5)": lambda J, a, b, c, v: a.pow(-0.5),
    "reciprocal": lambda J, a, b, c, v: a.reciprocal(),
    "compose_series": lambda J, a, b, c, v: a.compose_series(
        [1.0 / math.factorial(k) for k in range(a.order + 1)]),
}


def fixture(jets, width: int, order: int):
    """(Jet, a, b, c, v): three scalar jets with values in 0.5..2 and the (3,) jet
    of them, from the same random numbers on every side."""
    rng = np.random.default_rng(0)
    point = rng.uniform(-1, 1, (width, 3))
    scalars = []
    for _ in range(3):
        coeffs = rng.uniform(-0.5, 0.5, (jets.n_coeffs(order), width))
        coeffs[0] = rng.uniform(0.5, 2.0, width)
        scalars.append(jets.Jet(point, order, coeffs))
    return (jets.Jet, *scalars, jets.Jet.stack(scalars))


def round_time(op, args, number: int) -> float:
    """Seconds per call over one round of `number` calls."""
    t0 = time.perf_counter()
    for _ in range(number):
        op(*args)
    return (time.perf_counter() - t0) / number


def same_bits(x, y) -> bool:
    return (x.order == y.order and x.coeffs.shape == y.coeffs.shape
            and np.ascontiguousarray(x.coeffs).tobytes()
            == np.ascontiguousarray(y.coeffs).tobytes())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="the first source tree (the base)")
    ap.add_argument("--b", type=Path, required=True, help="the second source tree")
    ap.add_argument("--rounds", type=at_least_one, default=7,
                    help="timed rounds per side and cell")
    ap.add_argument("--widths", type=int, nargs="+", default=[1, 21, 400])
    ap.add_argument("--orders", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--ops", nargs="+", choices=sorted(OPS), default=list(OPS))
    args = ap.parse_args(argv)
    jets = {}
    for side, src in zip(SIDES, (args.a, args.b)):
        load_cli(src, f"srsurf_{side}")
        jets[side] = importlib.import_module(f"srsurf_{side}.jets")

    print(f"{'op':<16}{'width':>6}{'order':>6}{'a us':>11}{'b us':>11}{'a / b':>8}")
    for name, width, order in itertools.product(args.ops, args.widths, args.orders):
        op = OPS[name]
        fixtures = {side: fixture(jets[side], width, order) for side in SIDES}
        results = {side: op(*fixtures[side]) for side in SIDES}  # also warms both sides up
        if not same_bits(*results.values()):
            raise SystemExit(f"{name} at width {width}, order {order}: "
                             "the two trees give different coefficients")
        t1 = round_time(op, fixtures["a"], 1)
        number = max(1, int(2e-3 / max(t1, 1e-7)))
        best = dict.fromkeys(SIDES, math.inf)
        for r in range(args.rounds):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                best[side] = min(best[side], round_time(op, fixtures[side], number))
        a, b = best["a"] * 1e6, best["b"] * 1e6
        print(f"{name:<16}{width:>6}{order:>6}{a:>11.2f}{b:>11.2f}{a / b:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
