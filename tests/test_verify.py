"""The gram-duality suite draws its n = 3 sample by index, not from a list."""

import random
import tracemalloc

from hermdens import verify
from hermdens.reps import diagonal, dual_vee, dual_wedge, enumerate_reps
from hermdens.verify import Recorder, _suite_gram_duality


def test_n3_sample_same_as_choice_over_listed_forms(monkeypatch):
    seen = []
    fingerprint = verify.gram_fingerprint

    def spy(Y, B):
        seen.append((Y, B))
        return fingerprint(Y, B)

    monkeypatch.setattr(verify, "gram_fingerprint", spy)
    rec = Recorder()
    _suite_gram_duality(rec, 3)
    assert rec.checks[-1]["lhs"] == "0 mismatches of 100"

    rng = random.Random(17)
    reps3 = list(enumerate_reps(3, -1, 1))
    want = []
    for _ in range(100):
        Y = rng.choice(reps3)
        h = rng.randint(0, 6)
        B = diagonal(tuple(sorted(rng.randint(-1, 2) for _ in range(6))))
        want += [(Y, B), (dual_wedge(Y, h), dual_vee(B, h))]
    assert seen[-200:] == want


def test_gram_duality_suite_lists_no_n3_forms():
    # a first run fills the process-wide plan caches; the second shows what the suite builds
    _suite_gram_duality(Recorder(), 3)
    tracemalloc.start()
    try:
        _suite_gram_duality(Recorder(), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8,424 listed size-6 forms alone took about 1.4 MiB
    assert peak < 0.75 * 2 ** 20, peak
