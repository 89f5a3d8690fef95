"""Alternating in-process timing of two srsurf source trees on one workload.

Imports the `srsurf` of each tree under its own package name, `srsurf_a` and
`srsurf_b`, into one process.  Takes the first `--calls` seed-2 calls of a
workload of `perfbench/workloads.py`, the calls `perfbench/run.py` times,
runs them once on each side untimed, then for `--rounds` rounds times each
side's pass over them, the two sides in alternating order (a then b, then b
then a).  Every call's stdout must be byte-identical on the two sides, or the
run stops.  Prints each side's median and quartiles of a pass, in ms, the
rounds it won, and the ratio of the medians:

    python3 tools/pair_time.py --a ../parent/src --b src --workload singular-probes

The metric files the calls name go to a temporary directory; nothing is
written under `perfbench/`.  A call that exits nonzero stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def load_cli(src: Path, name: str):
    """The `cli` module of the srsurf package in `src`, imported as the package `name`."""
    package = src.resolve() / "srsurf"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(main, argvs) -> tuple:
    """(seconds, the stdout of each call) of one pass of `main` over `argvs`."""
    outputs, t0 = [], time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"exit {code} on {argv}")
        outputs.append(out.getvalue())
    return time.perf_counter() - t0, outputs


def summary(times, wins: int) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"median {median * 1e3:.3f} ms  quartiles {q1 * 1e3:.3f} .. {q3 * 1e3:.3f}  wins {wins}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, required=True, help="the first source tree (the base)")
    ap.add_argument("--b", type=Path, required=True, help="the second source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--calls", type=int, default=20, help="seed-2 calls a pass")
    ap.add_argument("--rounds", type=int, default=20, help="timed passes per side")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    mains = {side: load_cli(src, f"srsurf_{side}").main
             for side, src in zip(SIDES, (args.a, args.b))}

    times, wins = {side: [] for side in SIDES}, dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.make(args.workload, Path(tmp))
        argvs = [call.argv for call in itertools.islice(wl.calls(workloads.HELDOUT_SEED),
                                                        args.calls)]
        for r in range(-1, args.rounds):  # round -1 warms both sides up, untimed
            passes = {side: run_pass(mains[side], argvs)
                      for side in (SIDES if r % 2 == 0 else SIDES[::-1])}
            for argv, x, y in zip(argvs, *(passes[side][1] for side in SIDES)):
                if x != y:
                    raise SystemExit(f"the two trees print different stdout on {argv}")
            if r >= 0:
                for side in SIDES:
                    times[side].append(passes[side][0])
                a, b = (passes[side][0] for side in SIDES)
                wins["a"], wins["b"] = wins["a"] + (a < b), wins["b"] + (b < a)
    for side, src in zip(SIDES, (args.a, args.b)):
        print(f"{side} ({src}): {summary(times[side], wins[side])}")
    ratio = statistics.median(times["a"]) / statistics.median(times["b"])
    print(f"{args.workload}: {len(argvs)} calls a pass, {args.rounds} rounds, "
          f"byte-identical stdout; median a / b = {ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
