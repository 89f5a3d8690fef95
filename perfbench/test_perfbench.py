"""Self-tests of the benchmark (not of srsurf).

    python3 -m pytest -q perfbench

Each traced run here makes the calls that hold run.COUNT_ITEMS items, each
untraced and then traced.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.bootstrap()

NAMES = sorted(workloads.WORKLOADS)
SPEC = run.SPEC
INV, SYM, SING = "invariants-grid", "symmetry-reconstruct", "singular-probes"
# The workloads on which each per-layer metric must be nonzero: those whose
# items_per_s (setup_s for fields.parse_s) it should move.
MAPPED = {
    "jets.mul_calls": (INV, SYM), "jets.mul_s": (INV, SYM), "jets.mul_terms": (SING,),
    "jets.partial_calls": (INV, SYM), "jets.partial_s": (INV, SYM),
    "jets.compose_calls": (INV, SYM), "jets.compose_s": (INV, SYM), "jets.alloc": (INV, SYM),
    "fields.evaluate_calls": (INV, SING), "fields.evaluate_s": (INV, SING),
    "fields.parse_s": (INV, SYM, SING),
    "frame.delta_basis_calls": (SING,), "frame.delta_basis_s": (SING,),
    "frame.nonholonomity_calls": (SING,), "frame.nonholonomity_s": (SING,),
    "frame.contact_frame_calls": (INV, SYM), "frame.contact_frame_s": (INV, SYM),
    "frame.structure_functions_s": (INV, SYM), "frame.lie_bracket_calls": (INV, SYM),
    "invariants.invariants_at_s": (INV,), "invariants.directional_derivative_calls": (SYM,),
    "symmetry.build_system_calls": (SYM,), "symmetry.build_system_s": (SYM,),
    "symmetry.residuals_s": (SYM,), "symmetry.reconstruct_s": (SYM,),
    "symmetry.integrand_evals": (SYM,), "symmetry.systems_per_point": (SYM,),
    "singular.locate_sigma_s": (SING,), "singular.lambda_evals": (SING,),
    "singular.brent_s": (SING,), "singular.singular_frame_calls": (SING,),
    "singular.singular_frame_s": (SING,), "singular.characteristic_field_s": (SING,),
    "cli.self_s": (INV,), "report.emit_s": (INV,),
    "trace.overhead_ratio": (INV, SYM, SING), "trace.coverage": (INV, SYM, SING),
}


def traced_run(name, work_dir, seed=workloads.DEV_SEED):
    wl = workloads.make(name, work_dir)
    r = run.Run(wl)
    return r, run.traced(wl, seed, 0, r, work_dir / "spans.jsonl")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {name: traced_run(name, tmp_path_factory.mktemp(name)) for name in NAMES}


def test_generator_is_deterministic(tmp_path):
    for name in NAMES:
        a = workloads.make(name, tmp_path / "a").calls(7)
        b = workloads.make(name, tmp_path / "b").calls(7)
        c = workloads.make(name, tmp_path / "c").calls(8)
        for _ in range(2):
            ca, cb, cc = next(a), next(b), next(c)
            assert ca.argv[ca.argv.index("--metric-file") + 2:] == \
                cb.argv[cb.argv.index("--metric-file") + 2:]
            assert ca.expected == cb.expected
            assert ca.argv != cc.argv


def test_generated_inputs_pass_the_gate(tmp_path):
    for name in NAMES:
        wl = workloads.make(name, tmp_path / name)
        for call in (wl.setup_call(), next(wl.calls(workloads.HELDOUT_SEED))):
            code, out, _ = run.run_cli(call.argv)
            assert check.check_call(code, out, call.expected, wl.oracle) == (0, [])


def test_traced_and_untraced_records_are_identical(traced, tmp_path):
    for name, (r, _) in traced.items():
        assert r.failed == 0 and r.problems == [], (name, r.problems)
    call = next(workloads.make("singular-probes", tmp_path).calls(3))
    plain = run.run_cli(call.argv)[:2]
    with tracing.Tracer().installed():
        assert run.run_cli(call.argv)[:2] == plain


def test_every_layer_metric_is_reported(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for _, metrics in traced.values():
        assert list(metrics) == names


def test_layer_metrics_move_on_their_workloads(traced):
    for m in SPEC["per_layer"]:
        for workload in MAPPED[m["name"]]:
            assert traced[workload][1][m["name"]] > 0, (m["name"], workload)
    for workload, (_, metrics) in traced.items():
        for name, value in metrics.items():
            layer = name.split(".")[0]
            if layer in ("symmetry", "singular") and not workload.startswith(layer):
                assert value == 0, (name, workload)


def test_known_counts(traced):
    sym = traced["symmetry-reconstruct"][1]
    assert sym["symmetry.systems_per_point"] == 2
    assert sym["symmetry.integrand_evals"] * run.COUNT_ITEMS % 32 == 0  # 1 target a call
    sing = traced["singular-probes"][1]
    assert sing["singular.singular_frame_calls"] == 2 * 6 / 8  # 2 per root, 6 roots


def test_counts_repeat_exactly(traced, tmp_path):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count/item"]
    for name in NAMES:
        _, again = traced_run(name, tmp_path / name)
        first = traced[name][1]
        assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_removed_name_is_reported_absent():
    tracer = tracing.Tracer()
    tracer._install("frame.gone", "srsurf.frame", "no_such_function", tracer._span)
    tracer._install("jets.gone", "srsurf.jets", "Jet.no_such_method", tracer._jet_op)
    assert tracer.absent == {"srsurf.frame.no_such_function",
                             "srsurf.jets.Jet.no_such_method"}


def test_gate_compares_result_fields_only():
    ref = {"point": [0.5, 0.1, 0.0], "branch": "regular", "contact": True,
           "lam": 0.25, "M": 3.0, "residuals": [1e-17, 0.0, -2e-17]}
    ok = dict(ref, diagnostics={"jet_order": 4}, new_key=1, M=3.0 + 1e-12)
    assert check.compare(ok, ref) == []
    assert check.compare(dict(ref, M=3.0 + 1e-11), ref)
    assert check.compare(dict(ref, residuals=[1e-11, 0.0, 0.0]), ref)
    assert check.compare(dict(ref, branch="degenerate"), ref)
    assert check.compare(dict(ref, error="boom"), ref)
    assert check.compare({k: v for k, v in ref.items() if k != "lam"}, ref)
    assert check.check_call(1, "", [ref]) == (1, ["exit code 1"])
    assert check.check_call(0, "", [ref])[0] == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "invariants-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
