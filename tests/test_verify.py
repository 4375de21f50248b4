"""The gram-duality and profile-forms suites draw their n = 2 and n = 3 samples by index,
not from a list."""

import random
import tracemalloc

from hermdens import verify
from hermdens.reps import WeightProfile, diagonal, dual_vee, dual_wedge, enumerate_reps
from hermdens.verify import Recorder, _suite_gram_duality, _suite_profile_forms


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


def test_n2_gram_sample_same_as_sample_over_listed_forms(monkeypatch):
    seen = []
    fingerprint = verify.gram_fingerprint

    def spy(Y, B):
        seen.append((Y, B))
        return fingerprint(Y, B)

    monkeypatch.setattr(verify, "gram_fingerprint", spy)
    _suite_gram_duality(Recorder(), 3)

    # the n = 2 sweep comes just before the 200 calls of the n = 3 sweep
    rng = random.Random(11)
    ys2 = rng.sample(list(enumerate_reps(2, -1, 1)), 25)
    # the diagonal forms drawn after the sample pin the generator's state
    bs2 = [diagonal(tuple(rng.randint(-1, 2) for _ in range(4))) for _ in range(4)]
    want = [pair for h in (1, 2, 3) for Y in ys2 for B in bs2
            for pair in ((Y, B), (dual_wedge(Y, h), dual_vee(B, h)))]
    assert seen[-200 - len(want):-200] == want


def test_n2_profile_sample_same_as_sample_over_listed_forms(monkeypatch):
    seen = []
    profile_f = verify.profile_f

    def spy(Y, prof):
        if prof.n == 2:
            seen.append((Y, prof))
        return profile_f(Y, prof)

    monkeypatch.setattr(verify, "profile_f", spy)
    _suite_profile_forms(Recorder(), 3)

    ys2 = random.Random(3).sample(list(enumerate_reps(2, -2, 1)), 30)
    assert seen == [(Y, WeightProfile(2, h, t, 0)) for h in (0, 2, 3) for t in (0, 1, 2)
                    for Y in ys2]


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
