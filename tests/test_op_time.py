"""Smoke tests of tools/op_time.py, the alternating per-op timing of two trees' jets."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from srsurf import Jet

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import op_time  # noqa: E402


def run_op_time(a, b, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "op_time.py"), "--a", str(a),
                           "--b", str(b), "--rounds", "1", *args],
                          capture_output=True, text=True, timeout=300)


def test_op_time_of_a_tree_against_itself():
    run = run_op_time(ROOT / "src", ROOT / "src")
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["op", "width", "order", "a", "us", "b", "us", "a", "/", "b"]
    cells = [(row[:16].strip(), *map(int, row[16:28].split())) for row in rows]
    assert cells == [(op, width, order) for op in op_time.OPS
                     for width in (1, 21, 400) for order in (1, 2, 3, 4, 5)]


def test_op_time_stops_on_different_bits(tmp_path):
    shutil.copytree(ROOT / "src" / "srsurf", tmp_path / "srsurf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "srsurf" / "jets.py"
    text = source.read_text()
    assert text.count("(r - j) / (j + 1)") == 1
    source.write_text(text.replace("(r - j) / (j + 1)", "(r - j) / (j + 1.0000001)"))
    run = run_op_time(ROOT / "src", tmp_path, "--ops", "pow(-0.5)", "--widths", "1",
                      "--orders", "2")
    assert run.returncode != 0 and "give different coefficients" in run.stderr


def test_same_bits_tells_signed_zeros_apart():
    zero = Jet.constant(0.0, (0.1, 0.2, 0.3), 2)
    assert op_time.same_bits(zero, zero) and op_time.same_bits(zero * np.nan, zero * np.nan)
    assert not op_time.same_bits(zero, -zero)
    assert not op_time.same_bits(zero, zero.cut(1))


def test_op_time_refuses_fewer_than_one_round():
    run = run_op_time(ROOT / "src", ROOT / "src", "--rounds", "0")
    assert run.returncode == 2 and not run.stdout
    assert "--rounds: must be at least 1, got 0" in run.stderr
