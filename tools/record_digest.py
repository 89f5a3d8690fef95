"""Digest of the records the benchmark's workloads print.

For each workload of `perfbench/workloads.py` and seeds 1 and 2, runs the
workload's set-up call and its first `--calls` calls through
`srsurf.cli.main` in this process, once with `--format json` and once with
`--format csv`, and prints one SHA-1 of all that stdout and its line count;
then one more line, `selftest: ...`, over the stdout of `srsurf selftest`
and `srsurf selftest --json`.  Two source trees that print the same digests
print the same records and the same selftest report, byte for byte:

    python3 tools/record_digest.py --src src > new.txt
    python3 tools/record_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

The metric files the calls name go to a temporary directory; nothing is
written under `perfbench/`.  A call that exits nonzero stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(main, calls) -> str:
    """The SHA-1 and line count of the stdout of `main(argv)` for each argv of `calls`."""
    sha1, lines = hashlib.sha1(), 0
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"exit {code} on {argv}")
        sha1.update(out.getvalue().encode())
        lines += out.getvalue().count("\n")
    return f"sha1 {sha1.hexdigest()} lines {lines}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree whose srsurf runs (default: this checkout's)")
    ap.add_argument("--calls", type=int, default=4, help="calls per workload after set-up")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import srsurf.cli
    import workloads
    if not Path(srsurf.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"srsurf was imported from {srsurf.cli.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in (workloads.DEV_SEED, workloads.HELDOUT_SEED):
                wl = workloads.make(name, Path(tmp) / name)
                calls = [wl.setup_call(), *itertools.islice(wl.calls(seed), args.calls)]
                print(f"{name} seed {seed}: " + digest(srsurf.cli.main, [
                    call.argv + ["--format", fmt]
                    for fmt, call in itertools.product(("json", "csv"), calls)]))
    print("selftest: " + digest(srsurf.cli.main, [["selftest"], ["selftest", "--json"]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
