"""Correctness gate: compare CLI records with the expected records.

Only the result fields are compared; `diagnostics` and keys added later are
ignored.  `branch` and `contact` must match exactly, numbers within
1e-12 * max(1, |ref|).  An `error` is allowed only where the reference has
one; its wording is not compared.
"""

from __future__ import annotations

import json
from typing import List, Tuple

RESULT_FIELDS = ("point", "branch", "contact", "lam", "M", "K", "D", "EQ1",
                 "EQ2", "residuals", "lnf", "V", "Q112", "Q212")
REL_TOL = 1e-12


def _close(actual, expected) -> bool:
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(_close(a, e) for a, e in zip(actual, expected)))
    if isinstance(expected, (bool, str)):
        return type(actual) is type(expected) and actual == expected
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return False
    return abs(actual - expected) <= REL_TOL * max(1.0, abs(expected))


def compare(actual: dict, expected: dict) -> List[str]:
    """Problems with one record; empty when it matches."""
    problems = []
    if "error" in actual and "error" not in expected:
        problems.append(f"unexpected error: {actual['error']}")
    elif "error" in expected and "error" not in actual:
        problems.append("expected an error record")
    for key in RESULT_FIELDS:
        if key not in expected and key not in actual:
            continue
        if key not in actual:
            problems.append(f"{key} missing")
        elif key not in expected:
            problems.append(f"{key} unexpected: {actual[key]!r}")
        elif not _close(actual[key], expected[key]):
            problems.append(f"{key}: {actual[key]!r} != reference {expected[key]!r}")
    return problems


def result_fields(record: dict) -> dict:
    """The part of a record the gate compares, plus any error."""
    keep = RESULT_FIELDS + ("error",)
    return {k: v for k, v in record.items() if k in keep}


def check_call(exit_code: int, output: str, expected: List[dict],
               oracle=lambda rec: []) -> Tuple[int, List[str]]:
    """(failed items, problems) for one CLI call.

    Every item fails on a nonzero exit or when the record count is not the
    item count; otherwise an item fails on a mismatch or an oracle problem.
    """
    if exit_code != 0:
        return len(expected), [f"exit code {exit_code}"]
    try:
        records = [json.loads(line) for line in output.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return len(expected), [f"output is not JSON lines: {exc}"]
    if len(records) != len(expected):
        return len(expected), [f"{len(records)} records for {len(expected)} items"]
    failed, problems = 0, []
    for i, (rec, exp) in enumerate(zip(records, expected)):
        found = compare(rec, exp) + oracle(rec)
        if found:
            failed += 1
            problems.append(f"item {i} at {exp.get('point')}: " + "; ".join(found))
    return failed, problems
