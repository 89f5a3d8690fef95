"""Run every workload and print every metric with its unit and the verdict.

    python3 perfbench/report.py                      # dev seed, untraced + traced
    python3 perfbench/report.py --seeds 1 2 3 --save this.json
    python3 perfbench/report.py --compare parent.json change.json

Each run is `run.py` in its own process, as BENCHMARK.json's command runs it.
Values are medians over the seeds given.  `--compare` prints, per workload,
each metric's median in both files and the change as a share of the first,
flagging end-to-end changes for the worse beyond the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(seeds):
    results = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            results.setdefault(w, []).extend(
                dict(run_once(w, s, trace), seed=s, trace=trace) for s in seeds)
    return results


def medians(runs):
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {n: (statistics.median(v), u) for n, (v, u) in values.items()}


def print_report(results):
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        verdict = "correct" if all(r["correct"] for r in runs) else "INCORRECT"
        print(f"\n{w}: {verdict}, seeds {sorted({r['seed'] for r in runs})}")
        print(f"  {'failed_frac':42s} {failed / attempted:<14.6g} ({failed}/{attempted} items)")
        for name, (value, unit) in medians(runs).items():
            print(f"  {name:42s} {value:<14.6g} {unit}")


def compare(a, b):
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    for w in a:
        print(f"\n{w}")
        ma, mb = medians(a[w]), medians(b.get(w, []))
        for name, (va, unit) in ma.items():
            vb = mb.get(name, (float("nan"), unit))[0]
            change = (vb - va) / va if va else float("nan")
            flag = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                flag = "WORSE THAN BOUND" if worse > bounds[name]["bound"] else "within bound"
            print(f"  {name:42s} {va:<12.5g} {vb:<12.5g} {change:+8.2%} {unit:10s} {flag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--save", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        compare(a, b)
        return 0
    results = collect(args.seeds)
    print_report(results)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
