"""Benchmark of the srsurf CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload invariants-grid --seed 1 --seconds 27 --trace 0

Drives `srsurf.cli.main(argv)` in this process with the argv a user would
type: a closed loop, one client, one thread.  Every record is checked
against the reference (see check.py).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`:

  --trace 0  end-to-end metrics: items_per_s, setup_s, peak_rss_mb
  --trace 1  per-layer metrics per item, from a traced run

Metric names and units are those of BENCHMARK.json.

The sources measured are the `src/` tree next to this directory; without it
the run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from check import check_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_RUNS = 7
# The speed of a shared VM drifts by 20-40% over tens of seconds.  A fixed
# calibration loop, run before and after every timed call, measures that
# drift, and each call's time is scaled to the speed at which the loop takes
# CALIBRATION_REF_S.  The constant only sets the unit: it is about the loop's
# time on the 2-core Xeon VM where the benchmark was defined.
CALIBRATION_REF_S = 0.025
CALIBRATION_REPEATS = 3
# Set-up time is mostly a fresh interpreter importing numpy and scipy, whose
# speed drifts apart from that of the loop above.  It is scaled instead by the
# time a fresh interpreter takes to import those same installed packages, run
# before every third set-up call and after the last; the reference is about
# that time on the same VM.  Nothing of srsurf is imported.
IMPORT_CALIBRATION = "import numpy, scipy.optimize"
IMPORT_CALIBRATION_REF_S = 0.74

# Counts cover the leading calls of a traced run that hold at least this
# many items, so they repeat exactly for a seed; times cover every call.
COUNT_ITEMS = 8


def bootstrap():
    """Put this checkout's src/ first on sys.path, or exit without a result."""
    if not (SRC / "srsurf" / "cli.py").is_file():
        raise SystemExit(f"error: no srsurf sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import srsurf
    if Path(srsurf.__file__).resolve().parent != SRC / "srsurf":
        raise SystemExit(f"error: imported srsurf from {srsurf.__file__}, not {SRC}")


def _product_table(order: int = 4):
    """Index table of a dense product of 3-variable Taylor coefficients."""
    mis = [(i, j, d - i - j) for d in range(order + 1)
           for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
    pos = {m: k for k, m in enumerate(mis)}
    table = [(a, b, pos[(x[0] + y[0], x[1] + y[1], x[2] + y[2])])
             for a, x in enumerate(mis) for b, y in enumerate(mis)
             if sum(x) + sum(y) <= order]
    return [np.array(col) for col in zip(*table)]


class _Box:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)


def calibrate() -> list:
    """Seconds, CALIBRATION_REPEATS times, for a fixed loop of the kind of
    work srsurf does: small objects, fancy indexing and `np.add.at` over a
    product table.  It is frozen here and touches nothing of srsurf."""
    ia, ib, io = _product_table()
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        x, y = _Box(np.linspace(0.1, 1.0, 35)), _Box(np.linspace(1.0, 0.5, 35))
        for _ in range(2500):
            out = np.zeros(35)
            np.add.at(out, io, x.c[ia] * y.c[ib])
            x, y = y, _Box((out * 1e-3 + y.c) / (1.0 + abs(out[0])))
        times.append(time.perf_counter() - t0)
    return times


def slowness(before, after) -> float:
    """Machine slowness around one measurement, from the calibrations that
    bracket it: 1 at the reference speed, 1.2 when 20% slower."""
    return statistics.median(before + after) / CALIBRATION_REF_S


def import_calibration() -> float:
    """Seconds for a fresh interpreter to run IMPORT_CALIBRATION."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CALIBRATION], cwd=ROOT,
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t0


def run_cli(argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    import srsurf.cli
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = srsurf.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), time.perf_counter() - t0


class Run:
    """Attempted and failed items of one run, with the problems found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems: list = []

    def check(self, call, code, output):
        failed, problems = check_call(code, output, call.expected, self.workload.oracle)
        self.attempted += call.items
        self.failed += failed
        self.problems += problems

    def fail(self, call, problem):
        self.attempted += call.items
        self.failed += call.items
        self.problems.append(problem)


def measure_setup(wl, run: Run) -> float:
    """Median time from a fresh interpreter to the end of a one-item call,
    scaled by the import calibration around the set-up calls."""
    call = wl.setup_call()
    argv_file = wl.work_dir / "setup-argv.json"
    argv_file.write_text(json.dumps(call.argv))
    times, cals = [], []
    for i in range(SETUP_RUNS):
        if i % 3 == 0:
            cals.append(import_calibration())
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "setup_call.py"), str(argv_file)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            run.fail(call, "set-up call: " + proc.stderr.strip()[-500:])
            continue
        doc = json.loads(proc.stdout.splitlines()[-1])
        run.check(call, doc["exit"], doc["output"])
        times.append(doc["end"] - start)
    if not times:
        raise SystemExit("error: every set-up call failed: " + "; ".join(run.problems[-1:]))
    cals.append(import_calibration())
    import_slowness = statistics.median(cals) / IMPORT_CALIBRATION_REF_S
    print(f"# setup_s as timed: {' '.join(f'{t:.4g}' for t in times)}; import calibration: "
          f"{' '.join(f'{c:.4g}' for c in cals)}; slowness {import_slowness:.3g}")
    return statistics.median(times) / import_slowness


def untraced(wl, seed, seconds, run: Run) -> dict:
    setup_s = measure_setup(wl, run)
    warm = wl.setup_call()
    run.check(warm, *run_cli(warm.argv)[:2])
    timed, cal, stream = [], calibrate(), wl.calls(seed)
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        call = next(stream)
        code, output, dt = run_cli(call.argv)
        before, cal = cal, calibrate()
        run.check(call, code, output)
        timed.append((call.items / dt, slowness(before, cal)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# calls={len(timed)} items/s as timed / slowness: "
          + " ".join(f"{r:.4g}/{s:.3g}" for r, s in timed))
    return {"items_per_s": statistics.median(r * s for r, s in timed),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb}


def layer_value(name, counts, count_items, self_s, time_items):
    """Per item: a "_calls" metric counts a layer's calls, a "_s" metric is
    its self time, any other name is a counter of the tracer."""
    if name == "symmetry.systems_per_point":
        outside = counts.get("symmetry.build_system", 0) - counts.get("symmetry.integrand_evals", 0)
        return outside / count_items
    if name == "cli.self_s":
        return self_s.get("cli.main", 0.0) / time_items
    if name.endswith("_s"):
        return self_s.get(name[:-2], 0.0) / time_items
    if name.endswith("_calls"):
        return counts.get(name[:-6], 0) / count_items
    return counts.get(name, 0) / count_items


def traced(wl, seed, seconds, run: Run, spans_path: Path) -> dict:
    from tracing import Tracer
    warm = wl.setup_call()
    run.check(warm, *run_cli(warm.argv)[:2])
    tracer, stream = Tracer(), wl.calls(seed)
    counts = None
    plain_s = traced_s = 0.0
    items = calls = 0
    deadline = time.perf_counter() + seconds
    while counts is None or time.perf_counter() < deadline:
        call = next(stream)
        code, plain_out, dt = run_cli(call.argv)
        plain_s += dt
        tracer.call_id = calls
        with tracer.installed():
            code_t, traced_out, dt = run_cli(call.argv)
        traced_s += dt
        if (code_t, traced_out) == (code, plain_out):
            run.check(call, code_t, traced_out)
        else:
            run.fail(call, f"call {calls}: traced records differ from untraced ones")
        items += call.items
        calls += 1
        if counts is None and items >= COUNT_ITEMS:
            counts, count_items = dict(tracer.calls), items
    tracer.write_spans(spans_path)
    metrics = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            metrics[name] = traced_s / plain_s
        elif name == "trace.coverage":
            metrics[name] = tracer.covered_s() / traced_s
        else:
            metrics[name] = layer_value(name, counts, count_items, tracer.self_s, items)
    print(f"# traced calls={calls} items={items} spans={len(tracer.spans)} -> {spans_path}")
    if tracer.absent:
        print("# absent (reported as 0): " + ", ".join(sorted(tracer.absent)))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bootstrap()
    out_dir = workloads.OUT_DIR / f"{args.workload}-{args.seed}"
    wl = workloads.make(args.workload, out_dir)
    run = Run(wl)
    if args.trace:
        metrics = traced(wl, args.seed, args.seconds, run, out_dir / "spans.jsonl")
    else:
        metrics = untraced(wl, args.seed, args.seconds, run)

    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"failed_frac={run.failed / max(run.attempted, 1):.6g}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
