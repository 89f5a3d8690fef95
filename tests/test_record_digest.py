"""Smoke tests of tools/record_digest.py, the digest of the benchmark workloads' records."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(.+): sha1 ([0-9a-f]{40}) lines ([0-9]+)")
NAMES = [f"{name} seed {seed}"
         for name in ("invariants-grid", "singular-probes", "symmetry-reconstruct")
         for seed in (1, 2)] + ["selftest"]


def record_digest(src) -> dict:
    """{line name: (sha1, line count)} of one run of the tool on the tree `src`."""
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "record_digest.py"), "--src",
                          str(src), "--calls", "1"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [LINE.fullmatch(line) for line in run.stdout.splitlines()]
    assert all(lines), run.stdout
    return {m[1]: (m[2], int(m[3])) for m in lines}


@pytest.fixture(scope="module")
def digests():
    return record_digest(ROOT / "src")


def test_record_digest_names_every_workload_seed_and_the_selftest(digests):
    assert list(digests) == NAMES
    assert all(count > 0 for _, count in digests.values())


def test_record_digest_sees_a_changed_record(digests, tmp_path):
    # the schema tag is in every record, JSON and CSV, but not in the selftest report
    shutil.copytree(ROOT / "src" / "srsurf", tmp_path / "srsurf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "srsurf" / "report.py"
    report.write_text(report.read_text().replace('SCHEMA = "srs/1"', 'SCHEMA = "srs/0"'))
    new = record_digest(tmp_path)
    assert list(new) == NAMES
    for name in NAMES[:-1]:
        assert new[name][0] != digests[name][0] and new[name][1] == digests[name][1], name
    assert new["selftest"] == digests["selftest"]
