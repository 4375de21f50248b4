"""The verify report at q = 3, pinned check by check.

Every check of `verify --suite all --q 3` is compared with a golden file of
(id, anchor, status, lhs, rhs).  A change of coefficient type or of the
canonical form shows up here as a changed lhs or rhs string even when both
sides still agree.  The comparisons raise explicitly, so the test keeps its
teeth under `python -O`.
"""

import json
from pathlib import Path

from hermdens.verify import run_suite

GOLDEN = Path(__file__).with_name("verify_all_q3_golden.json")


def test_verify_all_q3_matches_golden():
    want = [tuple(row) for row in json.loads(GOLDEN.read_text())]
    report = run_suite("all", q=3)
    got = [(c["id"], c["anchor"], c["status"], c["lhs"], c["rhs"]) for c in report["checks"]]
    if len(got) != len(want):
        raise AssertionError(f"{len(got)} checks, golden has {len(want)}")
    diff = [(g, w) for g, w in zip(got, want) if g != w]
    if diff:
        raise AssertionError(f"{len(diff)} checks differ from the golden report, first: {diff[0]}")
