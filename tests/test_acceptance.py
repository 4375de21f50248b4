"""Package acceptance gate.

Twelve checks, one per release criterion.  Each enforces its stated
tolerance and time budget and prints a single verdict line (run with
pytest -s to see them stream; they also appear in failure output).
"""

import random
import time
from fractions import Fraction

from conftest import a_t
from hermdens.beta import (
    beta_closed_last,
    build_system,
    solve_constants,
    vandermonde_factor_check,
    vandermonde_inverse_route,
    verify_thm314,
)
from hermdens.cdens import (
    alpha_brute,
    alpha_diag_unimodular,
    alpha_prime,
    alpha_value,
    appendix_compat,
    factorization_check,
    hironaka_coeffs,
    jcount_oracle,
    jfun_n1,
    san_alpha2,
    san_alpha2_prime,
    thm42_display,
)
from hermdens.locint import charsum_oracle, norm_integral, trace_pair_integral
from hermdens.reps import (
    WeightProfile,
    classify,
    count_reps,
    diagonal,
    dual_vee,
    dual_wedge,
    enumerate_reps,
    is_in_Rh,
    make_monomial,
    rep_at,
)
from hermdens.symb import SL_ONE, SignedRational, npq, qpow, sr_solve_linear
from hermdens.tree import TreeInstance, fk_buckets, intersect_zy, vertical_pairing
from hermdens.whit import (
    alpha_iwahori_brute,
    alpha_iwahori_n1,
    f_plain,
    gram_fingerprint,
    gram_g,
    profile_f,
    profile_f_prime,
    profile_statement,
    w_density_n1,
    w_density_truncated,
)

A1 = a_t(1, 1)
TOL = Fraction(1, 10 ** 9)
REGIONS = ("O", "O_unit", "piO")


def _verdict(num: int, slug: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")


def _n1_forms(lo, hi):
    out = [diagonal((e1, e2)) for e1 in range(lo, hi + 1) for e2 in range(lo, hi + 1)]
    out += [make_monomial((2, 1), (e, e)) for e in range(lo, hi + 1)]
    return out


def test_a01_rank_one_density_anchor():
    t0 = time.monotonic()
    value, _ = w_density_n1(A1, 1, 1)
    closed = SignedRational(qpow(-5)) * SignedRational(SL_ONE - npq(1)) ** 2
    sym_ok = value == closed
    got = w_density_truncated(A1, WeightProfile(1, 1, 1, 0), 3, 20)["value"]
    num_ok = abs(got - Fraction(16, 243)) <= TOL
    elapsed = time.monotonic() - t0
    ok = sym_ok and num_ok and elapsed < 5.0
    _verdict(1, "rank-one-density-anchor", ok, elapsed)
    assert sym_ok
    assert num_ok
    assert elapsed < 5.0


def test_a02_integral_tables_vs_oracle():
    t0 = time.monotonic()
    bad = 0
    for p in (3, 5):
        for e in range(-4, 5):
            d = abs(e) + 2
            for r in REGIONS:
                if norm_integral(r, e).evaluate(p) != charsum_oracle(p, "norm", r, e, d):
                    bad += 1
            for i, r1 in enumerate(REGIONS):
                for r2 in REGIONS[i:]:
                    want = charsum_oracle(p, "trace_pair", (r1, r2), e, d)
                    if trace_pair_integral(r1, r2, e).evaluate(p) != want:
                        bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 30.0
    _verdict(2, "integral-tables-vs-oracle", ok, elapsed)
    assert bad == 0
    assert elapsed < 30.0


def test_a03_pairing_duality_sweep():
    t0 = time.monotonic()
    bad = 0
    ys1 = _n1_forms(-2, 2)
    bs1 = list(enumerate_reps(1, -1, 2))
    for h in (0, 1, 2):
        in_shape = [B for B in bs1 if is_in_Rh(B, h)[0]]
        for Y in ys1:
            Yw = dual_wedge(Y, h)
            for B in in_shape:
                if gram_g(Y, B) != gram_g(Yw, dual_vee(B, h)):
                    bad += 1
    ys2 = list(enumerate_reps(2, -2, 2))
    bs2 = list(enumerate_reps(2, -1, 2))
    sampled = 0
    for h in range(0, 5):
        in_shape = [(B, dual_vee(B, h)) for B in bs2 if is_in_Rh(B, h)[0]]
        for i, Y in enumerate(ys2):
            Yw = dual_wedge(Y, h)
            for B, Bv in in_shape:
                if gram_fingerprint(Y, B) != gram_fingerprint(Yw, Bv):
                    bad += 1
            if i % 97 == 0:
                B, Bv = in_shape[i % len(in_shape)]
                if gram_g(Y, B) != gram_g(Yw, Bv):
                    bad += 1
                sampled += 1
    rng = random.Random(20260814)
    total3 = count_reps(3, -2, 2)
    count3 = 0
    while count3 < 500:
        # the same draw as rng.choice over the listed forms, without the list
        Y = rep_at(3, -2, 2, rng.randrange(total3))
        h = rng.randint(0, 6)
        B = diagonal(tuple(sorted((rng.randint(-1, 2) for _ in range(6)), reverse=True)))
        if not is_in_Rh(B, h)[0]:
            continue
        count3 += 1
        if gram_g(Y, B) != gram_g(dual_wedge(Y, h), dual_vee(B, h)):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and sampled >= 50 and elapsed < 120.0
    _verdict(3, "pairing-duality-sweep", ok, elapsed)
    assert bad == 0
    assert sampled >= 50
    assert elapsed < 120.0


def test_a04_profile_forms_and_prime_difference():
    t0 = time.monotonic()
    bad = 0
    ys1 = _n1_forms(-2, 2)
    for h in (0, 1, 2):
        for t in (0, 1):
            prof = WeightProfile(1, h, t, 0)
            for Y in ys1:
                if profile_f(Y, prof)[2] != profile_statement(Y, prof):
                    bad += 1
    ys2 = list(enumerate_reps(2, -2, 2))
    for h in range(0, 5):
        for t in (0, 1, 2):
            prof = WeightProfile(2, h, t, 0)
            for Y in ys2:
                if profile_f(Y, prof)[2] != profile_statement(Y, prof):
                    bad += 1
    for h in (0, 1, 2):
        for Y in ys1:
            Yd = dual_wedge(Y, h)
            cls = classify(Y, h)
            lhs = (profile_f_prime(Y, WeightProfile(1, h, 1, 0)) / alpha_iwahori_n1(Y)
                   - profile_f_prime(Yd, WeightProfile(1, 2 - h, 1, 0)) / alpha_iwahori_n1(Yd))
            rhs = (SignedRational(cls.frak_c - cls.frak_a) * f_plain(Y, h)
                   * SignedRational(npq(-2 * (2 - h))) / alpha_iwahori_n1(Y))
            if lhs != rhs:
                bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    _verdict(4, "profile-forms-and-prime-difference", ok, elapsed)
    assert bad == 0


def test_a05_stabilizer_density_duality():
    t0 = time.monotonic()
    bad = 0
    for h in (0, 1, 2):
        scale = SignedRational(qpow((2 - h) ** 2 - h * h))
        ys = [diagonal((e1, e2)) for e1 in range(-2, 4) for e2 in range(-2, 4)]
        ys += [make_monomial((2, 1), (e, e)) for e in range(-2, 4)]
        for Y in ys:
            if scale * alpha_iwahori_n1(Y) != alpha_iwahori_n1(dual_wedge(Y, h)):
                bad += 1
    spot = diagonal((1, 0))
    brute_ok = alpha_iwahori_brute(spot, 3, 2) == alpha_iwahori_n1(spot).evaluate(3)
    elapsed = time.monotonic() - t0
    ok = bad == 0 and brute_ok
    _verdict(5, "stabilizer-density-duality", ok, elapsed)
    assert bad == 0
    assert brute_ok


def test_a06_correction_constants():
    t0 = time.monotonic()
    b00 = solve_constants(1, 0).beta_h[0]
    first_ok = b00 == SignedRational(npq(-2)) / SignedRational(npq(2) - SL_ONE)
    b01 = solve_constants(1, 1).beta_h[0]
    first_ok &= b01 == SignedRational(-1) / (SignedRational(qpow(1))
                                             * SignedRational(qpow(2) - SL_ONE))
    first_ok &= b00.evaluate(3) == Fraction(1, 72)
    first_ok &= b01.evaluate(3) == Fraction(-1, 24)
    closed_ok = all(solve_constants(n, n - 1).beta_h[n - 1] == beta_closed_last(n)
                    for n in (1, 2, 3, 4))
    vand_ok = True
    for n in (1, 2, 3):
        for h in range(0, 2 * n + 1):
            vand_ok &= vandermonde_factor_check(n, h)
            mat, rhs = build_system(n, h)
            vand_ok &= vandermonde_inverse_route(n, h) == sr_solve_linear(mat, rhs)
    identity_bad = 0
    identity_total = 0
    for h in (0, 1, 2):
        bs = [diagonal((a, b)) for a in range(0, 5) for b in range(0, 5)]
        bs = [B for B in bs if is_in_Rh(B, h)[0]][:20]
        for B in bs:
            identity_total += 1
            if not verify_thm314(B, h)["match"]:
                identity_bad += 1
    elapsed = time.monotonic() - t0
    ok = first_ok and closed_ok and vand_ok and identity_bad == 0 and identity_total >= 60
    _verdict(6, "correction-constants", ok, elapsed)
    assert first_ok
    assert closed_ok
    assert vand_ok
    assert identity_bad == 0
    assert identity_total >= 60


def test_a07_jfun_unimodular_and_duality():
    t0 = time.monotonic()
    base = alpha_value(hironaka_coeffs((0,), (0,)))
    route_ok = all(
        jfun_n1(1, diagonal((a, -1))) == alpha_prime(hironaka_coeffs((0,), (a,))) / base
        for a in (0, 2, 4))
    dual_ok = all(jfun_n1(1, B) == jfun_n1(1, dual_vee(B, 1))
                  for B in (diagonal((2, -1)), diagonal((0, 1)),
                            make_monomial((2, 1), (1, 1)), diagonal((3, 0))))
    vanish_ok = w_density_n1(A1, 1, 0)[0] == SignedRational(0)
    elapsed = time.monotonic() - t0
    ok = route_ok and dual_ok and vanish_ok
    _verdict(7, "jfun-unimodular-and-duality", ok, elapsed)
    assert route_ok
    assert dual_ok
    assert vanish_ok


def test_a08_jfun_assembly_and_display():
    t0 = time.monotonic()
    pairs = ((0, 0), (2, 0), (1, 1), (3, 1), (4, 2))
    assembly_ok = all(
        jfun_n1(1, diagonal((a, b))) == SignedRational(Fraction(a + b, 2) + 1)
        for a, b in pairs)
    display_ok = all(thm42_display(a, b)["match"] for a, b in pairs)
    elapsed = time.monotonic() - t0
    ok = assembly_ok and display_ok
    _verdict(8, "jfun-assembly-and-display", ok, elapsed)
    assert assembly_ok
    assert display_ok


def test_a09_tree_intersection_sweep():
    t0 = time.monotonic()
    bad = 0
    case3 = case12 = 0
    for q in (3, 5):
        for m_x in range(0, 7):
            for m_y in range(0, 7):
                for d in range(0, 14):
                    for extra in (0, 2, 4):
                        try:
                            inst = TreeInstance(q, m_x, m_y, d,
                                                vdet=m_x + m_y - d + extra)
                        except ValueError:
                            continue
                        res = intersect_zy(inst)
                        if inst.case == 3:
                            case3 += 1
                            if res["total"] != inst.r + 1:
                                bad += 1
                        else:
                            case12 += 1
                            if res["total"] != Fraction(inst.vdet, 2) + 1:
                                bad += 1
    bucket_hits = 0
    for q in (3, 5):
        for m_x in range(0, 10):
            for m_y in range(0, 9):
                for d in range(0, 17):
                    try:
                        inst = TreeInstance(q, m_x, m_y, d)
                    except ValueError:
                        continue
                    if inst.case != 3 or m_y + 1 >= m_x:
                        continue
                    r = inst.r
                    if r % 2 or m_y - r > r:
                        continue
                    b = fk_buckets(inst)
                    if sum(b.values()) != vertical_pairing(inst):
                        bad += 1
                    if b.get(-1, Fraction(0)) != 0:
                        bad += 1
                    last = m_y - r
                    for k in range(0, last + 1):
                        if k == last:
                            want = Fraction(m_y + 2, 2) if m_y % 2 == 0 else Fraction(0)
                        elif k % 2 == 0:
                            want = Fraction(r + k + 2, 2)
                        else:
                            want = Fraction(-(r + k + 1), 2)
                        if b.get(k, Fraction(0)) != want:
                            bad += 1
                        bucket_hits += 1
    elapsed = time.monotonic() - t0
    ok = (bad == 0 and case3 >= 200 and case12 >= 100 and bucket_hits >= 30
          and elapsed < 60.0)
    _verdict(9, "tree-intersection-sweep", ok, elapsed)
    assert bad == 0
    assert case3 >= 200 and case12 >= 100 and bucket_hits >= 30
    assert elapsed < 60.0


def test_a10_classical_product_bridge():
    t0 = time.monotonic()
    bad = 0
    for m in (1, 2):
        for k in range(0, m + 1):
            for n in range(1, m + 1):
                xi = (1,) * k + (0,) * (m - k)
                poly = alpha_value(hironaka_coeffs(xi, (0,) * n))
                if poly != alpha_diag_unimodular(k, m, n):
                    bad += 1
                if alpha_brute(xi, (0,) * n, 3, 2) != poly.evaluate(3):
                    bad += 1
    san_ok = all(
        san_alpha2(a, b) == alpha_value(hironaka_coeffs((0, 0), (a, b)))
        and san_alpha2_prime(a, b) == alpha_prime(hironaka_coeffs((1, 0), (a, b)))
        for a, b in ((0, 0), (2, 0), (1, 1)))
    elapsed = time.monotonic() - t0
    ok = bad == 0 and san_ok
    _verdict(10, "classical-product-bridge", ok, elapsed)
    assert bad == 0
    assert san_ok


def test_a11_appendix_compatibility():
    t0 = time.monotonic()
    bad = 0
    swept = 0
    for n in (1, 2):
        size = n + 1
        def tuples(size, hi=4):
            if size == 1:
                for v in range(hi + 1):
                    yield (v,)
                return
            for head in range(hi + 1):
                for rest in tuples(size - 1, hi):
                    if rest[0] <= head:
                        yield (head,) + rest
        for exps in tuples(size):
            if sum(exps) % 2:
                continue
            swept += 1
            if not appendix_compat(n, exps)["match"]:
                bad += 1
    cross_bad = 0
    for exps in ((0, 0), (2, 0), (1, 1)):
        out = appendix_compat(1, exps)
        B = diagonal(exps)
        pairs = [(out["w_top"], w_density_n1(A1, 1, 1)[0]),
                 (out["w_prime"], w_density_n1(B, 0, 1)[1]),
                 (out["w_low"], w_density_n1(B, 0, 0)[0])]
        for got, want in pairs:
            if abs(got.evaluate(3) - want.evaluate(3)) > TOL:
                cross_bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and cross_bad == 0 and swept >= 20
    _verdict(11, "appendix-compatibility", ok, elapsed)
    assert bad == 0
    assert cross_bad == 0
    assert swept >= 20


def test_a12_lattice_count_bridge():
    t0 = time.monotonic()
    s1 = jcount_oracle((0, 0), (0, 0), 3, 1, "I").scaled
    s2 = jcount_oracle((0, 0), (0, 0), 3, 2, "I").scaled
    stable_ok = s1 == s2
    pipeline_ok = (jcount_oracle((1, 0), (1, 0), 3, 2, "J").scaled
                   == w_density_n1(A1, 1, 1)[0].evaluate(3))
    restricted_ok = all(jcount_oracle((1, 0), (1, 0), 3, d, "J1").count == 0
                        for d in (1, 2))
    fact_ok = all(factorization_check(a, 3, d)["match"]
                  for a in (0, 2) for d in (1, 2))
    elapsed = time.monotonic() - t0
    ok = stable_ok and pipeline_ok and restricted_ok and fact_ok and elapsed < 600.0
    _verdict(12, "lattice-count-bridge", ok, elapsed)
    assert stable_ok
    assert pipeline_ok
    assert restricted_ok
    assert fact_ok
    assert elapsed < 600.0
