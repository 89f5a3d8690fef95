"""Smoke tests of tools/pair_time.py, the alternating timing of two source trees."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pair_time(a, b, rounds="2", calls="1"):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "pair_time.py"), "--a", str(a),
                           "--b", str(b), "--workload", "singular-probes", "--rounds", rounds,
                           "--calls", calls], capture_output=True, text=True, timeout=120)


def test_pair_time_of_a_tree_against_itself():
    run = pair_time(ROOT / "src", ROOT / "src")
    assert run.returncode == 0, run.stderr
    a, b, total = run.stdout.splitlines()
    assert a.startswith("a (") and b.startswith("b (") and "median" in a and "wins" in b
    assert total.startswith("singular-probes: 1 calls a pass, 2 rounds, byte-identical stdout")


def test_pair_time_stops_on_different_stdout(tmp_path):
    shutil.copytree(ROOT / "src" / "srsurf", tmp_path / "srsurf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "srsurf" / "report.py"
    report.write_text(report.read_text().replace('SCHEMA = "srs/1"', 'SCHEMA = "srs/0"'))
    run = pair_time(ROOT / "src", tmp_path)
    assert run.returncode != 0 and "print different stdout" in run.stderr


@pytest.mark.parametrize("option", ["rounds", "calls"])
def test_pair_time_refuses_fewer_than_one(option):
    # --calls 0 would compare nothing and call it byte-identical; --rounds 0
    # would have no times to summarize
    run = pair_time(ROOT / "src", ROOT / "src", **{option: "0"})
    assert run.returncode == 2 and not run.stdout
    assert f"--{option}: must be at least 1, got 0" in run.stderr
