import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import a_t
from hermdens import whit
from hermdens.errors import BudgetError, InvariantError
from hermdens.locint import norm_integral, trace_pair_integral
from hermdens.reps import (
    WeightProfile,
    classify,
    diagonal,
    dual_vee,
    dual_wedge,
    enumerate_reps,
    is_in_Rh,
    make_monomial,
)
from hermdens.symb import SL_ONE, SR_ZERO, SignedLaurent, SignedRational, npq
from hermdens.whit import (
    alpha_iwahori_brute,
    alpha_iwahori_n1,
    dual_slope,
    f_plain,
    gram_fingerprint,
    gram_g,
    profile_f,
    profile_f_prime,
    profile_statement,
    slope_of,
    w_density_n1,
    w_density_truncated,
)

A1 = a_t(1, 1)


def anti(e):
    return make_monomial((2, 1), (e, e))


def n1_forms(lo, hi):
    out = [diagonal((m1, m2)) for m1 in range(lo, hi + 1) for m2 in range(lo, hi + 1)]
    out += [anti(e) for e in range(lo, hi + 1)]
    return out


def test_gram_products_go_through_gram_fingerprint(monkeypatch):
    # the trace counts this one routine, so every gram product must reach it
    calls = []
    fingerprint = whit.gram_fingerprint

    def counted(Y, B):
        calls.append((Y, B))
        return fingerprint(Y, B)
    monkeypatch.setattr(whit, "gram_fingerprint", counted)
    whit.w_density_n1.__wrapped__(diagonal((0, -1)), 1, 1)
    assert calls
    del calls[:]
    gram_g(anti(0), A1)
    assert calls == [(anti(0), A1)]


def test_gram_size_mismatch():
    with pytest.raises(ValueError):
        gram_g(diagonal((0, 0)), diagonal((0, 0, 0, 0)))


def test_gram_diag_factorization():
    # diagonal Y against A_1 splits into two unit integrals and two
    # off-diagonal monomial factors
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            want = (norm_integral("O_unit", m1) * norm_integral("O_unit", m2 - 1)
                    * SignedRational(npq(min(0, m2) + min(0, m1 + 1) - 2)))
            assert gram_g(diagonal((m1, m2)), A1) == want


def test_gram_fingerprint_tracks_value_equality():
    rng = random.Random(3)
    ys = list(enumerate_reps(2, -2, 2))
    bs = list(enumerate_reps(2, -1, 2))
    for _ in range(250):
        a = (rng.choice(ys), rng.choice(bs))
        b = (rng.choice(ys), rng.choice(bs))
        assert ((gram_fingerprint(*a) == gram_fingerprint(*b))
                == (gram_g(*a) == gram_g(*b)))
    for Y in n1_forms(-3, 1):
        for B in n1_forms(-2, 1):
            assert (gram_fingerprint(Y, B) == (0, 0)) == gram_g(Y, B).is_zero()


def test_gram_antidiag_value():
    unit_vol = SignedRational(SL_ONE - npq(-2))
    want = SignedRational(npq(-2)) * unit_vol * unit_vol
    for e in range(0, 3):
        assert gram_g(anti(e), A1) == want
    for e in range(-3, 0):
        assert gram_g(anti(e), A1) == SignedRational(0)
    assert want.evaluate(3) == Fraction(64, 729)


def test_gram_duality_n1_full():
    ys = n1_forms(-2, 2)
    for h in (0, 1, 2):
        bs = [diagonal((l1, l2)) for l1 in range(-1, 3) for l2 in range(-1, 3)]
        bs += [anti(l) for l in range(-1, 3) if is_in_Rh(anti(l), h)[0]]
        for Y in ys:
            for B in bs:
                assert gram_g(Y, B) == gram_g(dual_wedge(Y, h), dual_vee(B, h)), (h, Y, B)


def test_gram_duality_n2_sample():
    random.seed(11)
    ys = list(enumerate_reps(2, -1, 1))
    for h in (1, 2, 3):
        bs = [diagonal(tuple(random.randint(-1, 2) for _ in range(4))) for _ in range(4)]
        for Y in random.sample(ys, 25):
            for B in bs:
                assert gram_g(Y, B) == gram_g(dual_wedge(Y, h), dual_vee(B, h))


def _slot_table_product(Y, B):
    # reference gram value straight from the slot tables: the slot (k, j) lies
    # in O above the diagonal, O_unit on it and pi O below it, and its orbit
    # under (k, j) -> (tau(k), sigma(j)) carries the exponent e_j + lam_k
    def region(k, j):
        return "O" if k < j else "O_unit" if k == j else "piO"

    acc = SignedRational(1)
    seen = set()
    for k in range(1, Y.size + 1):
        for j in range(1, Y.size + 1):
            if (k, j) in seen:
                continue
            pk, pj = B.sigma[k - 1], Y.sigma[j - 1]
            seen |= {(k, j), (pk, pj)}
            exp = Y.e[j - 1] + B.e[k - 1]
            if (pk, pj) == (k, j):
                acc = acc * norm_integral(region(k, j), exp)
            else:
                acc = acc * trace_pair_integral(region(k, j), region(pk, pj), exp)
    return acc


def test_gram_matches_slot_table_product():
    pairs = [(Y, B) for Y in n1_forms(-3, 3) for B in n1_forms(-2, 3)]
    rng = random.Random(17)
    for n, count in ((2, 200), (3, 50)):
        ys = list(enumerate_reps(n, -2, 2))
        bs = list(enumerate_reps(n, -1, 2))
        pairs += [(rng.choice(ys), rng.choice(bs)) for _ in range(count)]
    for Y, B in pairs:
        assert gram_g(Y, B) == _slot_table_product(Y, B), (Y, B)


def test_profile_forms_agree():
    for h in (0, 1, 2):
        for t in (0, 1):
            prof = WeightProfile(1, h, t, 0)
            for Y in n1_forms(-2, 2):
                f_base, slope, value = profile_f(Y, prof)
                assert f_base == value
                assert value == profile_statement(Y, prof), (h, t, Y)


def test_profile_forms_agree_n2():
    random.seed(3)
    ys = random.sample(list(enumerate_reps(2, -2, 1)), 30)
    for h in (0, 2, 3):
        for t in (0, 1, 2):
            prof = WeightProfile(2, h, t, 0)
            for Y in ys:
                _, _, value = profile_f(Y, prof)
                assert value == profile_statement(Y, prof)


def _literal_profile_exponent(Y, h, t, r):
    """Power of s in the profile of Y, summed index by index from the cut.

    An index and its sigma image both above the cut (a1/a2) read e + 1 and
    carry -2 T; both below (c1/c2) read e - 1; a crossing pair (b1/b2) reads
    e and carries -T on each side.  M = 2n - t + 2r and T = t.
    """
    size = len(Y.sigma)
    cut = size - h
    big_m, big_t = size - t + 2 * r, t
    total = 0
    for j in range(1, size + 1):
        e = Y.e[j - 1]
        top, image_top = j <= cut, Y.sigma[j - 1] <= cut
        if top and image_top:
            shift, const = 1, -2
        elif not top and not image_top:
            shift, const = -1, 0
        else:
            shift, const = 0, -1
        total += big_m * min(e, 0) + big_t * (min(e + shift, 0) + const)
    return total


def test_profile_matches_literal_classes():
    # shares no code with classify or _profile_plan
    for n in (1, 2):
        ys = list(enumerate_reps(n, -2, 2))
        for h in range(2 * n + 1):
            for t in (0, 1):
                for r in (0, 1):
                    prof = WeightProfile(n, h, t, r)
                    for Y in ys:
                        _, slope, value = profile_f(Y, prof)
                        want = _literal_profile_exponent(Y, h, t, r)
                        assert value == SignedRational(npq(want)), (Y, prof)
                        assert slope == sum(min(e, 0) for e in Y.e), (Y, prof)


def test_profile_r_scaling():
    for Y in n1_forms(-2, 1):
        for r in (1, 2):
            prof0 = WeightProfile(1, 1, 1, 0)
            prof = WeightProfile(1, 1, 1, r)
            f_base, slope, _ = profile_f(Y, prof0)
            _, _, value = profile_f(Y, prof)
            assert value == f_base * SignedRational(npq(2 * r * slope))


def test_profile_helpers_build_no_quotient(rational_builds):
    for h in (0, 1, 2):
        for Y in n1_forms(-2, 2):
            prof = WeightProfile(1, h, 1, 0)
            values = (*profile_f(Y, prof)[::2], f_plain(Y, h), profile_statement(Y, prof),
                      profile_f_prime(Y, prof))
            assert all(isinstance(x, SignedLaurent) for x in values), (h, Y)
    assert rational_builds[0] == 0


def test_slope_and_dual_slope():
    for h in (0, 1, 2):
        for Y in n1_forms(-2, 2):
            cls = classify(Y, h)
            assert dual_slope(Y, h) == slope_of(Y) - (cls.frak_c - cls.frak_a)
            assert slope_of(dual_wedge(Y, h)) == dual_slope(Y, h)


def test_profile_prime():
    prof = WeightProfile(1, 1, 1, 0)
    for Y in n1_forms(-2, 1):
        _, slope, value = profile_f(Y, prof)
        assert profile_f_prime(Y, prof) == SignedRational(slope) * value
    with pytest.raises(ValueError):
        profile_f_prime(A1, WeightProfile(1, 1, 1, 1))


def test_prime_difference_identity_n1():
    # prime(Y)/alpha(Y) - prime(dual)/alpha(dual) collapses to the class
    # counter difference times the plain profile
    for h in (0, 1, 2):
        for Y in n1_forms(-2, 2):
            Yd = dual_wedge(Y, h)
            cls = classify(Y, h)
            lhs = (profile_f_prime(Y, WeightProfile(1, h, 1, 0)) / alpha_iwahori_n1(Y)
                   - profile_f_prime(Yd, WeightProfile(1, 2 - h, 1, 0)) / alpha_iwahori_n1(Yd))
            rhs = (SignedRational(cls.frak_c - cls.frak_a) * f_plain(Y, h)
                   * SignedRational(npq(-2 * (2 - h))) / alpha_iwahori_n1(Y))
            assert lhs == rhs, (h, Y)


ALPHA_CASES = [
    (diagonal((0, 0)), Fraction(16, 81)),
    (diagonal((1, 0)), Fraction(16, 27)),
    (diagonal((0, 1)), Fraction(16, 3)),
    (diagonal((1, 1)), Fraction(16)),
    (anti(0), Fraction(8, 27)),
    (anti(1), Fraction(24)),
]


@pytest.mark.parametrize("Y,value", ALPHA_CASES)
def test_alpha_closed_forms_q3(Y, value):
    assert alpha_iwahori_n1(Y).evaluate(3) == value


def test_alpha_brute_matches_closed():
    for Y in (diagonal((0, 0)), diagonal((1, 0)), anti(0)):
        assert alpha_iwahori_brute(Y, 3, 2) == alpha_iwahori_n1(Y).evaluate(3)
    # already stable at depth 1 for the unimodular ones
    assert alpha_iwahori_brute(diagonal((0, 0)), 3, 1) == Fraction(16, 81)
    assert alpha_iwahori_brute(anti(0), 3, 1) == Fraction(8, 27)


def test_alpha_brute_guards():
    # locint.count_modulus: p^(4 d) <= COUNT_MAX_VECTORS, so p <= 23 at d = 1 and p <= 5 at d = 2
    for p, d in ((29, 1), (7, 2), (3, 4)):
        with pytest.raises(BudgetError, match="vectors"):
            alpha_iwahori_brute(diagonal((0, 0)), p, d)
    # 3^12 vectors pass that limit, and the two one-coordinate blocks join 96,228 key pairs
    assert alpha_iwahori_brute(diagonal((0, 0)), 3, 3) == alpha_iwahori_n1(diagonal((0, 0))).evaluate(3)
    with pytest.raises(ValueError):
        alpha_iwahori_brute(diagonal((-1, 0)), 3, 1)


@pytest.mark.parametrize("p", [7, 23])
def test_alpha_brute_matches_closed_at_larger_p(p):
    # depth 1 is stable for the unimodular forms; the antidiagonal's one 2-cycle block
    # joins 6,412,032 key pairs at p = 23, over locint.PAIR_BUDGET
    for Y in (diagonal((0, 0)), anti(0)):
        if p == 23 and Y.sigma == (2, 1):
            with pytest.raises(BudgetError, match="checks"):
                alpha_iwahori_brute(Y, p, 1)
        else:
            assert alpha_iwahori_brute(Y, p, 1) == alpha_iwahori_n1(Y).evaluate(p)


def test_alpha_brute_pair_budget_message():
    # one 2-cycle block with 15000 x 3000 keys, counted before any cross value
    with pytest.raises(BudgetError) as err:
        alpha_iwahori_brute(anti(0), 5, 2)
    assert str(err.value) == "pair counting budget exceeded: 45000000 > 5000000 checks"


def test_density_unimodular_anchor():
    value, prime = w_density_n1(A1, 1, 1)
    assert value == SignedRational(SignedLaurent({-3: -1, -4: 2, -5: -1}))
    assert value.evaluate(3) == Fraction(16, 243)
    # regression pin for the prime at the same point
    assert prime == SignedRational(SignedLaurent({-4: -1, -5: 1}))
    assert prime.evaluate(3) == Fraction(-4, 243)


def test_density_vanishes_at_t0():
    value, prime = w_density_n1(A1, 1, 0)
    assert value == SignedRational(0)


def test_density_kink_pad_invariance(monkeypatch):
    inputs = ((A1, 1, 1, 0), (diagonal((2, -1)), 1, 1, 0), (diagonal((0, 1)), 2, 1, 0),
              (A1, 1, 1, 1), (diagonal((2, -1)), 0, 1, 1), (anti(1), 1, 1, 0),
              (anti(0), 2, 1, 1))
    at_4 = [w_density_n1.__wrapped__(*args) for args in inputs]
    monkeypatch.setattr(whit, "KINK_PAD", 6)
    assert [w_density_n1.__wrapped__(*args) for args in inputs] == at_4


DENSITY_INPUTS = ((A1, 1, 1, 0), (A1, 1, 0, 0), (diagonal((2, -1)), 0, 1, 1),
                  (diagonal((0, 1)), 2, 1, 0), (anti(1), 1, 1, 0), (anti(0), 2, 0, 1))


@pytest.mark.parametrize("B,h,t,r", DENSITY_INPUTS)
def test_density_memo_matches_uncached(B, h, t, r):
    first = w_density_n1(B, h, t, r)
    assert w_density_n1.__wrapped__(B, h, t, r) == first
    assert w_density_n1(B, h, t, r) is first


def test_density_budget_error_not_cached():
    B = diagonal((whit.DENSITY_MAX_EXP + 1, 0))
    for _ in range(2):
        with pytest.raises(BudgetError):
            w_density_n1(B, 1, 1)


def test_any_r_at_small_exponents_stays_sparse():
    # any r is accepted at max|e| <= 17; at r = 10^8 the canonicalization divides
    # numerators of degree about 7.2e9, so one slot per degree would never fit
    tracemalloc.start()
    try:
        w_density_n1.__wrapped__(diagonal((17, 17)), 1, 1, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_profile_plan_cached_per_involution_and_h(monkeypatch):
    from hermdens.verify import run_suite

    pairs = set()
    sums = whit._profile_sums

    def spy(Y, h):
        pairs.add((Y.sigma, h))
        return sums(Y, h)

    monkeypatch.setattr(whit, "_profile_sums", spy)
    whit._profile_plan.cache_clear()
    whit.w_density_n1.cache_clear()
    report = run_suite("all", q=3)
    assert report["failed"] == 0
    assert 0 < whit._profile_plan.cache_info().currsize <= len(pairs)


def test_factored_term_matches_product():
    # independent route: gram, profile and stabilizer as SignedRationals
    bs = [diagonal((l1, l2)) for l1 in (-1, 0, 2) for l2 in (-1, 0, 2)]
    bs += [anti(l) for l in (-1, 0, 2)]
    for h in (0, 1, 2):
        for t in (0, 1):
            for r in (0, 1):
                prof = WeightProfile(1, h, t, r)
                for Y in n1_forms(-2, 2):
                    for B in bs:
                        got = whit._density_term(Y, B, prof)
                        want = gram_g(Y, B) * profile_f(Y, prof)[2] / alpha_iwahori_n1(Y)
                        if got is None:
                            assert want.is_zero(), (Y, B, prof)
                        else:
                            assert whit._expand(got) == want, (Y, B, prof)


def test_kernel_matches_per_form_terms():
    # every table entry the exact route reads, against the per-form route
    bs = [diagonal((l1, l2)) for l1 in (-1, 0, 2) for l2 in (-1, 0, 2)]
    bs += [anti(l) for l in (-1, 0, 2)]
    for B in bs:
        K = max(abs(l) for l in B.e) + whit.KINK_PAD
        span = range(-K - 1, K + 4)
        for h in (0, 1, 2):
            for t in (0, 1):
                for r in (0, 1):
                    prof = WeightProfile(1, h, t, r)
                    (x, y), (u, v), anti_table = whit._n1_tables(B, prof, -K - 1, K + 3)
                    for m1 in span:
                        for m2 in span:
                            a, b = (x[m1], y[m2]) if m1 >= m2 else (u[m1], v[m2])
                            got = None if a is None or b is None else whit._tmul(a, b)
                            want = whit._density_term(diagonal((m1, m2)), B, prof)
                            assert got == want, (B, prof, m1, m2)
                    for e in span:
                        assert anti_table[e] == whit._density_term(anti(e), B, prof), (B, prof, e)
                    assert set(x) == set(anti_table) == set(span)


# bends one entry of one _n1_tables table for diag:0,-1, where K = 5
BENT_SCRIPT = """
import sys
from hermdens import whit
from hermdens.errors import InvariantError
from hermdens.reps import diagonal
# argv: the table (x, y, u, v or anti), a factor (0 zeroes the entry) and its exponent
name, factor, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
plain = whit._n1_tables
def bent_tables(B, prof, lo, hi):
    (x, y), (u, v), anti = tables = plain(B, prof, lo, hi)
    table = dict(x=x, y=y, u=u, v=v, anti=anti)[name]
    tm = table[m]
    table[m] = (factor * tm[0],) + tm[1:] if factor else None
    return tables
whit._n1_tables = bent_tables
try:
    whit.w_density_n1(diagonal((0, -1)), 1, 1)
except InvariantError as exc:
    print("raised", sys.flags.optimize, exc)
"""


def _run_bent(flags, *mutation):
    # in a child process, so the check is also seen with asserts stripped
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, *flags, "-c", BENT_SCRIPT, *mutation], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("flags,optimize", [([], 0), (["-O"], 1)])
def test_non_geometric_tail_raises(flags, optimize):
    # x at m1 = K + 3, the second step of the tail every strip along m1 reads
    assert _run_bent(flags, "x", "2", "8") == f"raised {optimize} tail is not geometric"


# each names the series that first reads the entry: the strips along m1 (x)
# or m2 (v), the half quadrants m1 >= m2 > K (x and y) and m2 > m1 > K
# (u and v), and the antidiagonal
CONE_MUTATIONS = {
    "quadrant-1-far": (("y", "2", "8"), "tail is not geometric"),
    "quadrant-1-mixed": (("y", "2", "7"), "tail is not geometric"),
    "quadrant-2-far": (("u", "2", "8"), "tail is not geometric"),
    "strip-2-far": (("v", "2", "8"), "tail is not geometric"),
    "antidiagonal-far": (("anti", "2", "8"), "tail is not geometric"),
    "quadrant-start": (("y", "0", "6"), "tail vanishes"),
    "strip-start": (("x", "0", "6"), "tail vanishes"),
    "strip-next": (("x", "0", "7"), "tail vanishes"),
}


@pytest.mark.parametrize("name", CONE_MUTATIONS)
@pytest.mark.parametrize("flags,optimize", [([], 0), (["-O"], 1)])
def test_mutated_cone_raises(flags, optimize, name):
    mutation, message = CONE_MUTATIONS[name]
    assert _run_bent(flags, *mutation) == f"raised {optimize} {message}"


def test_cone_keys_first_term_by_its_ratios():
    table = {m: (3, -m, 0, 0) for m in (1, 2, 3)}
    assert whit._tail(table, 1) == (1, -1, 0, 0)
    for m in (1, 2, 3):
        with pytest.raises(InvariantError, match="tail vanishes"):
            whit._tail({**table, m: None}, 1)
    with pytest.raises(InvariantError, match="does not contract"):
        whit._tail({m: (1, m, 0, 0) for m in (1, 2, 3)}, 1)
    with pytest.raises(InvariantError, match="does not contract"):
        whit._tail({m: (2 ** m, -m, 0, 0) for m in (1, 2, 3)}, 1)
    with pytest.raises(InvariantError, match="not monomial"):
        whit._tail({m: (1, -m, m, 0) for m in (1, 2, 3)}, 1)


# every diagonal and antidiagonal B with |e| <= 8, at every h and t and at r <= 2
TAIL_GRID = [(B, h, t, r) for B in [diagonal((l1, l2)) for l1 in range(-8, 9) for l2 in range(-8, 9)]
             + [anti(l) for l in range(-8, 9)]
             for h in (0, 1, 2) for t in (0, 1) for r in (0, 1, 2)]


def test_tables_past_the_box_are_nonzero_and_contract():
    # the exact route reads every table at K + 1..K + 3 and sums each as a geometric tail
    for B, h, t, r in TAIL_GRID:
        K = max(abs(l) for l in B.e) + whit.KINK_PAD
        (x, y), (u, v), anti_table = whit._n1_tables(B, WeightProfile(1, h, t, r), K + 1, K + 3)
        # the ratios are +-s^-1 on x and v, +-s^-3 on y and u and +-s^-4 on anti
        for table, k in ((x, -1), (y, -3), (u, -3), (v, -1), (anti_table, -4)):
            first, nxt, third = (table[m] for m in range(K + 1, K + 4))
            assert None not in (first, nxt, third), (B, h, t, r)
            c, n = Fraction(nxt[0], first[0]), nxt[1] - first[1]
            assert nxt[2:] == first[2:] and third[2:] == nxt[2:], (B, h, t, r)
            assert (third[0], third[1]) == (nxt[0] * c, nxt[1] + n), (B, h, t, r)
            assert n == k and abs(c) == 1, (B, h, t, r)


def test_exact_route_sums_integer_coefficients(monkeypatch):
    coeffs = []
    close = whit._close

    def spy(sums):
        coeffs.extend(c for group in sums.values() for c in group.values())
        return close(sums)

    monkeypatch.setattr(whit, "_close", spy)
    for args in TAIL_GRID:
        w_density_n1.__wrapped__(*args)
    assert coeffs and all(c.__class__ is int for c in coeffs)


def test_density_truncated_report():
    rep = w_density_truncated(A1, WeightProfile(1, 1, 1, 0), 3, 20)
    assert abs(rep["value"] - Fraction(16, 243)) < Fraction(1, 10 ** 9)
    assert rep["tail_report"]["window"] == 20
    assert rep["tail_report"]["value_shift"] < 1e-9


def _truncated_reference(B, prof, q, w):
    # per-form partial sums at s = -q over the box the numeric route reads,
    # widened downward to the cutoff -K, K = max|e| + 4
    K = max(abs(l) for l in B.e) + 4
    value = deriv = Fraction(0)
    for Y in n1_forms(-max(w, K), w):
        tm = whit._density_term(Y, B, prof)
        if tm is not None:
            x = whit._evaluate(tm, q)
            value += x
            deriv += slope_of(Y) * x
    return value, deriv


TRUNCATED_INPUTS = ((A1, WeightProfile(1, 1, 1, 0)), (diagonal((2, -1)), WeightProfile(1, 0, 1, 1)),
                    (anti(1), WeightProfile(1, 0, 1, 1)))


@pytest.mark.parametrize("q", (3, 5, 7, 59))
@pytest.mark.parametrize("B,prof", TRUNCATED_INPUTS)
def test_density_truncated_matches_per_form_sums(B, prof, q):
    # windows below, at and above K = max|e| + 4
    for w in (2, 6, 20):
        v1, d1 = _truncated_reference(B, prof, q, w)
        v2, d2 = _truncated_reference(B, prof, q, w + 2)
        rep = w_density_truncated(B, prof, q, w)
        assert (rep["value"], rep["derivative"]) == (v1, d1), (B, prof, q, w)
        assert rep["tail_report"] == {"window": w, "value_shift": float(abs(v2 - v1)),
                                      "derivative_shift": float(abs(d2 - d1))}


@pytest.mark.parametrize("B,prof", TRUNCATED_INPUTS)
def test_density_truncated_derivative_matches_symbolic(B, prof):
    value, prime = w_density_n1(B, prof.h, prof.t, prof.r)
    rep = w_density_truncated(B, prof, 3, 20)
    assert rep["tail_report"]["derivative_shift"] < 1e-9
    assert abs(rep["derivative"] - prime.evaluate(3)) < Fraction(1, 10 ** 9)
    assert abs(rep["value"] - value.evaluate(3)) < Fraction(1, 10 ** 9)


def test_close_merged_sum_with_cancellation():
    # the second and fourth terms share (N, A, B) and cancel in the merged
    # box; the tail group cancels in part
    terms = [(1, -2, 1, 0), (Fraction(1, 2), 0, -1, 2), (3, 1, 0, -1), (Fraction(-1, 2), 0, -1, 2),
             (2, 0, 2, 2)]
    group = [(2, 0, 1, 0), (1, 3, 0, 1), (-2, 0, 1, 0)]
    rho = (-1, -2, 0, 0)
    box, first = {}, {}
    for tm in terms:
        whit._add(box, 1, tm)
    for tm in group:
        whit._add(first, 1, tm)
    assert len(box) == 3 and len(first) == 1
    want = sum((whit._expand(tm) for tm in terms), SignedRational(0))
    assert whit._close({(): box}) == want
    series = sum((whit._expand(tm) for tm in group), SignedRational(0))
    series = series / SignedRational(SL_ONE - npq(-2, -1))
    assert whit._close({(): box, (rho,): first}) == want + series

    # weights enter as multipliers, and a sum that cancels entirely is zero
    acc = {}
    whit._add(acc, 2, (3, 1, 0, -1))
    whit._add(acc, -3, (2, 1, 0, -1))
    assert acc == {}
    assert whit._close({(): acc}) == SR_ZERO
    assert whit._close({(rho,): acc}) == SR_ZERO
