"""The records of the benchmark's workloads (`perfbench/`) against their
reference pools: the set-up call and the first call of each workload on the
development seed and on the held-out seed run through the CLI and the
benchmark's own gate, so that a record drifting beyond the gate's 1e-12
tolerance fails here and not only in the benchmark; and every function the
benchmark's tracer wraps exists, so that renaming one fails here instead of
silently dropping its per-layer metric."""

import sys
from pathlib import Path

import pytest

from srsurf.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_records_pass_the_gate(capsys, tmp_path, name):
    wl = workloads.make(name, tmp_path)
    for call in (wl.setup_call(), next(wl.calls(workloads.DEV_SEED)),
                 next(wl.calls(workloads.HELDOUT_SEED))):
        code = main(list(call.argv))
        out = capsys.readouterr().out
        assert check.check_call(code, out, call.expected, wl.oracle) == (0, [])


# Layers the program no longer calls, whose names the tracer keeps until the
# benchmark re-maps them: Sigma roots are polished by a batched Newton in
# `singular._polish`, not by scipy's `brentq`.
RETIRED = {"srsurf.singular.brentq"}


def test_every_traced_layer_exists():
    with tracing.Tracer().installed() as tracer:
        pass
    assert tracer.absent == RETIRED
