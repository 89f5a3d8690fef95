"""Smoke tests of tools/pair_time.py, the alternating timing of two source trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pair_time(a, b):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "pair_time.py"), "--a", str(a),
                           "--b", str(b), "--workload", "singular-probes", "--rounds", "2",
                           "--calls", "1"], capture_output=True, text=True, timeout=120)


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
