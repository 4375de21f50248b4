"""The verify reports at q = 3, 5 and 7, pinned check by check.

Every check of `verify --suite all --q Q` is compared with a golden file of
(id, anchor, status, lhs, rhs).  A change of coefficient type or of the
canonical form shows up here as a changed lhs or rhs string even when both
sides still agree.  The comparisons raise explicitly, so the test keeps its
teeth under `python -O`.
"""

import json
from pathlib import Path

import pytest

from hermdens.verify import run_suite


@pytest.mark.parametrize("q", (3, 5, 7))
def test_verify_all_matches_golden(q):
    golden = Path(__file__).with_name(f"verify_all_q{q}_golden.json")
    want = [tuple(row) for row in json.loads(golden.read_text())]
    report = run_suite("all", q=q)
    got = [(c["id"], c["anchor"], c["status"], c["lhs"], c["rhs"]) for c in report["checks"]]
    if len(got) != len(want):
        raise AssertionError(f"{len(got)} checks, golden has {len(want)}")
    diff = [(g, w) for g, w in zip(got, want) if g != w]
    if diff:
        raise AssertionError(f"{len(diff)} checks differ from the golden report, first: {diff[0]}")
