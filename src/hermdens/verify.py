"""Curated identity suites for the command line verifier.

Each suite replays a family of exact identities at desk scale and reports
one record per check.  A check carries a stable anchor slug (these are
indexed in the README), the two compared values as strings, and its own
compute time.  Sweep checks compress many comparisons into a mismatch
count so reports stay readable.  Suite code does its work inside the
checks, so an error it raises fails one check and the run goes on.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

from .beta import (
    beta_closed_last,
    build_system,
    solve_constants,
    vandermonde_factor_check,
    verify_thm314,
)
from .cdens import (
    alpha_brute,
    alpha_diag_unimodular,
    alpha_prime,
    alpha_value,
    appendix_compat,
    factorization_check,
    hironaka_coeffs,
    jcount_oracle,
    jfun_n1,
    prop_a5_value,
    san_alpha2,
    san_alpha2_prime,
    thm42_display,
)
from .errors import BudgetError
from .locint import REGIONS, _check_prime, charsum_oracle, norm_integral, trace_integral_J1, trace_pair_integral
from .reps import (
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
from .symb import SL_ONE, SignedRational, npq, qpow, sr_solve_linear
from .tree import TreeInstance, bfs_census, enumerate_ball_intersection, fk_buckets, intersect_zy, vertical_pairing
from .whit import (
    _alpha_factor,
    _tmul,
    alpha_iwahori_brute,
    alpha_iwahori_n1,
    f_plain,
    gram_fingerprint,
    profile_f,
    profile_f_prime,
    profile_statement,
    w_density_n1,
    w_density_truncated,
)

A1 = diagonal((0, -1))


class Recorder:
    def __init__(self):
        # one dict per check: id, anchor, status, lhs, rhs, elapsed
        self.checks: list[dict] = []

    def _record(self, cid: str, anchor: str, judge):
        """judge returns (passed, lhs, rhs); an error it raises fails this check only."""
        t0 = time.perf_counter()
        try:
            passed, lhs, rhs = judge()
        except Exception as exc:
            passed, lhs, rhs = False, f"{type(exc).__name__}: {exc}", "no error"
        el = time.perf_counter() - t0
        self.checks.append({"id": cid, "anchor": anchor,
                            "status": "pass" if passed else "fail",
                            "lhs": str(lhs), "rhs": str(rhs), "elapsed": round(el, 6)})

    def equal(self, cid: str, anchor: str, fn):
        """fn returns (lhs, rhs); pass means exact equality."""
        def judge():
            lhs, rhs = fn()
            return lhs == rhs, lhs, rhs
        self._record(cid, anchor, judge)

    def close(self, cid: str, anchor: str, fn, tol: Fraction):
        def judge():
            lhs, rhs = fn()
            return abs(Fraction(lhs) - Fraction(rhs)) <= tol, lhs, rhs
        self._record(cid, anchor, judge)

    def sweep(self, cid: str, anchor: str, pairs):
        """pairs yields (lhs, rhs) comparisons; pass means no mismatch."""
        def judge():
            total = bad = 0
            for lhs, rhs in pairs:
                total += 1
                if lhs != rhs:
                    bad += 1
            return bad == 0 and total > 0, f"{bad} mismatches of {total}", "0 mismatches"
        self._record(cid, anchor, judge)


# ---------------------------------------------------------------------------
# integral tables

def _suite_integrals(rec: Recorder, q: int):
    es = range(-3, 4) if q <= 5 else range(-2, 3)
    for r in REGIONS:
        for e in es:
            rec.equal(f"norm[{r};e={e};p={q}]", "integrals/norm-table",
                      lambda: (norm_integral(r, e).evaluate(q),
                               charsum_oracle(q, "norm", r, e, abs(e) + 2)))
    for i, r1 in enumerate(REGIONS):
        for r2 in REGIONS[i:]:
            for e in es:
                rec.equal(f"trace_pair[{r1},{r2};e={e};p={q}]", "integrals/trace-table",
                          lambda: (trace_pair_integral(r1, r2, e).evaluate(q),
                                   charsum_oracle(q, "trace_pair", (r1, r2), e, abs(e) + 2)))
    rec.sweep("j1-indicator[e=-3..3]", "integrals/j1-indicator",
              ((trace_integral_J1(e), SignedRational(1 if e >= 0 else 0))
               for e in range(-3, 4)))


# ---------------------------------------------------------------------------
# slot integral symmetry of the pairing

def _suite_gram_duality(rec: Recorder, q: int):
    # gram products compare as factored terms, equal exactly when the values are
    def swap_pairs(h, ys, bs):
        bvs = [(B, dual_vee(B, h)) for B in bs]
        for Y in ys:
            Yw = dual_wedge(Y, h)
            for B, Bv in bvs:
                yield gram_fingerprint(Y, B), gram_fingerprint(Yw, Bv)

    ys1 = list(enumerate_reps(1, -2, 2))
    for h in (0, 1, 2):
        # a diagonal 2x2 form is in R^h for every h
        bs1 = [B for B in enumerate_reps(1, -1, 2) if is_in_Rh(B, h)[0]]
        rec.sweep(f"pairing-swap-n1[h={h}]", "gram-duality/n1-full", swap_pairs(h, ys1, bs1))
    rng = random.Random(11)
    ys2 = [rep_at(2, -1, 1, j) for j in rng.sample(range(count_reps(2, -1, 1)), 25)]
    bs2 = [diagonal(tuple(rng.randint(-1, 2) for _ in range(4))) for _ in range(4)]
    rec.sweep("pairing-swap-n2[sampled]", "gram-duality/n2-sample",
              (pair for h in (1, 2, 3) for pair in swap_pairs(h, ys2, bs2)))

    def pairs3():
        rng3 = random.Random(17)
        total = count_reps(3, -1, 1)
        for _ in range(100):
            # draws as rng3.choice over the listed forms would, so the sample stays the same
            Y = rep_at(3, -1, 1, rng3.randrange(total))
            h = rng3.randint(0, 6)
            B = diagonal(tuple(sorted(rng3.randint(-1, 2) for _ in range(6))))
            yield gram_fingerprint(Y, B), gram_fingerprint(dual_wedge(Y, h), dual_vee(B, h))
    rec.sweep("pairing-swap-n3[random-100]", "gram-duality/n3-random", pairs3())


def _suite_alpha_duality(rec: Recorder, q: int):
    ys = list(enumerate_reps(1, -2, 3))
    for h in (0, 1, 2):
        k = (2 - h) ** 2 - h * h
        scale = (-1 if k % 2 else 1, k, 0, 0)  # q^k as a factored term
        rec.sweep(f"stabilizer-scale[h={h}]", "alpha-duality/closed-scale",
                  ((_tmul(scale, _alpha_factor(Y)), _alpha_factor(dual_wedge(Y, h)))
                   for Y in ys))
    p = q if q <= 5 else 3
    rec.equal(f"stabilizer-brute-spot[p={p},d=2]", "alpha-duality/brute-spot",
              lambda: (alpha_iwahori_brute(diagonal((1, 0)), p, 2),
                       alpha_iwahori_n1(diagonal((1, 0))).evaluate(p)))


def _suite_profile_forms(rec: Recorder, q: int):
    ys1 = list(enumerate_reps(1, -2, 2))
    for h in (0, 1, 2):
        for t in (0, 1):
            prof = WeightProfile(1, h, t, 0)
            rec.sweep(f"two-forms-n1[h={h},t={t}]", "profile-forms/two-expressions",
                      ((profile_f(Y, prof)[2], profile_statement(Y, prof)) for Y in ys1))
    rng = random.Random(3)
    ys2 = [rep_at(2, -2, 1, j) for j in rng.sample(range(count_reps(2, -2, 1)), 30)]
    rec.sweep("two-forms-n2[sampled]", "profile-forms/two-expressions",
              ((profile_f(Y, WeightProfile(2, h, t, 0))[2],
                profile_statement(Y, WeightProfile(2, h, t, 0)))
               for h in (0, 2, 3) for t in (0, 1, 2) for Y in ys2))

    def diff_pairs():
        for h in (0, 1, 2):
            for Y in ys1:
                Yd = dual_wedge(Y, h)
                cls = classify(Y, h)
                lhs = (profile_f_prime(Y, WeightProfile(1, h, 1, 0)) / alpha_iwahori_n1(Y)
                       - profile_f_prime(Yd, WeightProfile(1, 2 - h, 1, 0)) / alpha_iwahori_n1(Yd))
                rhs = (SignedRational(cls.frak_c - cls.frak_a) * f_plain(Y, h)
                       * SignedRational(npq(-2 * (2 - h))) / alpha_iwahori_n1(Y))
                yield lhs, rhs
    rec.sweep("prime-difference-n1[all-h]", "profile-forms/prime-difference", diff_pairs())


def _suite_iwahori_sum(rec: Recorder, q: int):
    unit_sq = SignedRational(SL_ONE - npq(1)) ** 2
    rec.equal("top-density-closed[A1]", "iwahori-sum/top-closed",
              lambda: (w_density_n1(A1, 1, 1)[0], SignedRational(qpow(-5)) * unit_sq))
    rec.equal("low-density-vanishes[A1]", "iwahori-sum/low-vanishes",
              lambda: (w_density_n1(A1, 1, 0)[0], SignedRational(0)))
    rec.equal("top-prime[q=3]", "iwahori-sum/top-prime",
              lambda: (w_density_n1(A1, 1, 1)[1].evaluate(3), Fraction(-4, 243)))

    @lru_cache(maxsize=None)
    def densities():
        """(truncated, exact) density, computed by the first check that asks."""
        return (w_density_truncated(A1, WeightProfile(1, 1, 1, 0), q, 20),
                w_density_n1(A1, 1, 1))
    tol = Fraction(1, 10 ** 9)
    rec.close(f"truncated-value[q={q},window=20]", "iwahori-sum/truncated",
              lambda: (densities()[0]["value"], densities()[1][0].evaluate(q)), tol)
    rec.close(f"truncated-prime[q={q},window=20]", "iwahori-sum/truncated",
              lambda: (densities()[0]["derivative"], densities()[1][1].evaluate(q)), tol)


# ---------------------------------------------------------------------------
# correction constants

def _suite_beta_system(rec: Recorder, q: int):
    rec.equal("first-constant[h=0]", "beta-system/first-constants",
              lambda: (solve_constants(1, 0).beta_h[0],
                       SignedRational(npq(-2)) / SignedRational(npq(2) - SL_ONE)))
    rec.equal("first-constant[h=1]", "beta-system/first-constants",
              lambda: (solve_constants(1, 1).beta_h[0],
                       SignedRational(-1) / (SignedRational(qpow(1))
                                             * SignedRational(qpow(2) - SL_ONE))))
    rec.sweep("delta-triple[n=1]", "beta-system/first-constants",
              ((solve_constants(1, h).delta, SignedRational(h - 1)) for h in (0, 1, 2)))
    for h in (0, 1, 2):
        bs = [diagonal((a, b)) for a in range(0, 3) for b in range(0, 3)]
        bs = [B for B in bs if is_in_Rh(B, h)[0]][:6]
        if is_in_Rh(make_monomial((2, 1), (1, 1)), h)[0]:
            bs.append(make_monomial((2, 1), (1, 1)))
        rec.sweep(f"derivative-correction[h={h}]", "beta-system/derivative-correction",
                  ((r["lhs"], r["rhs"]) for r in (verify_thm314(B, h) for B in bs)))
    rec.sweep("cross-system[n=2]", "beta-system/cross-coherence",
              ((solve_constants(2, h).beta_dual, solve_constants(2, 4 - h).beta_h)
               for h in range(0, 5)))


def _suite_beta_closed_form(rec: Recorder, q: int):
    rec.sweep("closed-last[n=1..4]", "beta-closed/top-constant",
              ((solve_constants(n, n - 1).beta_h[n - 1], beta_closed_last(n))
               for n in (1, 2, 3, 4)))
    rec.sweep("vandermonde-shape[n<=3]", "beta-closed/vandermonde",
              ((vandermonde_factor_check(n, h), True)
               for n in (1, 2, 3) for h in range(0, 2 * n + 1)))

    def inverse_pairs():
        for n in (1, 2, 3):
            for h in range(0, 2 * n + 1):
                sol = solve_constants(n, h)
                mat, rhs = build_system(n, h)
                yield ([*sol.beta_h, *(-v for v in sol.beta_dual), sol.delta],
                       sr_solve_linear(mat, rhs))
    rec.sweep("lagrange-inverse[n<=3]", "beta-closed/vandermonde", inverse_pairs())


# ---------------------------------------------------------------------------
# the derivative functional at n = 1

def _alpha_ratio(target_exps):
    num = alpha_prime(hironaka_coeffs((0,), target_exps))
    den = alpha_value(hironaka_coeffs((0,), (0,)))
    return num / den


def _suite_jfun_unimodular(rec: Recorder, q: int):
    for a in (0, 2, 4):
        rec.equal(f"coset-route[a={a}]", "jfun/unimodular-route",
                  lambda a=a: (jfun_n1(1, diagonal((a, -1))), _alpha_ratio((a,))))
    rec.equal("low-term-vanishes[A1]", "jfun/low-vanishes",
              lambda: (w_density_n1(A1, 1, 0)[0], SignedRational(0)))
    rec.equal("base-point[A1]", "jfun/base-point",
              lambda: (jfun_n1(1, A1),
                       SignedRational(-1) / SignedRational(SL_ONE - npq(1))))


def _suite_jfun_duality(rec: Recorder, q: int):
    forms = [diagonal((0, 0)), diagonal((2, 0)), diagonal((1, 1)), A1]
    rec.sweep("vee-invariance[4-forms]", "jfun/vee-invariance",
              ((jfun_n1(1, B), jfun_n1(1, dual_vee(B, 1))) for B in forms))
    for c in (1, 3):
        rec.equal(f"odd-route[c={c}]", "jfun/odd-route",
                  lambda c=c: (jfun_n1(1, diagonal((0, c))), _alpha_ratio((c + 1,))))


def _suite_jfun_h0(rec: Recorder, q: int):
    for a, b in ((0, 0), (1, 1), (2, 0)):
        rec.equal(f"h0-display[a={a},b={b}]", "jfun/h0-display",
                  lambda a=a, b=b: ((lambda d: (d["lhs"], d["rhs"]))(thm42_display(a, b))))


def _suite_jfun_assembly(rec: Recorder, q: int):
    pairs = ((0, 0), (2, 0), (1, 1), (3, 1), (4, 2))
    rec.sweep("assembled-value[5-pairs]", "jfun/assembly",
              ((jfun_n1(1, diagonal((a, b))), SignedRational(Fraction(a + b, 2) + 1))
               for a, b in pairs))


# ---------------------------------------------------------------------------
# tree side

def _tree_instance(*args, **kw):
    """The instance, or None for a geometry TreeInstance rejects; a BudgetError propagates."""
    try:
        return TreeInstance(*args, **kw)
    except BudgetError:
        raise
    except ValueError:
        return None


def _suite_tree(rec: Recorder, q: int):
    def case3_pairs():
        for m_x in range(0, 6):
            for m_y in range(0, 6):
                for d in range(0, 12):
                    inst = _tree_instance(q, m_x, m_y, d)
                    if inst is not None and inst.case == 3:
                        yield intersect_zy(inst)["total"], Fraction(inst.r + 1)
    rec.sweep(f"case3-totals[q={q},m<=5,d<=11]", "tree/case3-closed", case3_pairs())

    def engulfed_pairs():
        for m_x in range(0, 6):
            for m_y in range(0, 6):
                for d in range(0, 12):
                    for extra in (0, 2, 4):
                        vd = m_x + m_y - d + extra if d <= m_x + m_y else extra
                        inst = _tree_instance(q, m_x, m_y, d, vdet=vd)
                        if inst is not None and inst.case in (1, 2):
                            yield (intersect_zy(inst)["total"],
                                   Fraction(inst.vdet, 2) + 1)
    rec.sweep(f"engulfed-totals[q={q}]", "tree/engulfed-closed", engulfed_pairs())

    def bucket_pairs():
        for m_y in range(0, 7):
            for r2 in range(0, m_y + 3, 2):
                m_x = m_y + 2 + r2
                d = m_x + m_y - 2 * r2
                inst = _tree_instance(q, m_x, m_y, d)
                if inst is None or inst.case != 3 or inst.m_y + 1 >= inst.m_x:
                    continue
                r = inst.r
                if r % 2 or m_y - r > r:
                    continue
                b = fk_buckets(inst)
                yield sum(b.values()), vertical_pairing(inst)
                yield b.get(-1, Fraction(0)), Fraction(0)
                last = m_y - r
                for k in range(0, last + 1):
                    want = (Fraction(m_y + 2, 2) if m_y % 2 == 0 else Fraction(0)) \
                        if k == last else \
                        (Fraction(r + k + 2, 2) if k % 2 == 0 else Fraction(-(r + k + 1), 2))
                    yield b.get(k, Fraction(0)), want
    rec.sweep("bucket-closed-forms[r-even]", "tree/bucket-forms", bucket_pairs())

    def census_pairs(inst):
        census = bfs_census(inst.q, inst.d, inst.m_x, inst.m_y + 1)
        for cls in enumerate_ball_intersection(inst, inst.m_x, inst.m_y + 1):
            yield census.get((cls.d1, cls.d2), 0), cls.count
    rec.sweep("census-vs-classes[q=3]", "tree/census", census_pairs(TreeInstance(3, 3, 2, 1)))
    # at d = 2 the geodesic has an interior vertex, with (q - 1) q^(t - 1) branch vertices at offset t
    rec.sweep("census-vs-classes[q=3,d=2]", "tree/census", census_pairs(TreeInstance(3, 3, 1, 2)))


# ---------------------------------------------------------------------------
# classical densities

def _suite_closed_products(rec: Recorder, q: int):
    def a5_pairs():
        for n in (1, 2, 3):
            for r in (0, 1, 2):
                exps = (1,) * (n + 2 * r) + (0,) * n
                yield alpha_value(hironaka_coeffs(exps, (0,) * n)), prop_a5_value(n, n)
                if n > 1:
                    yield (alpha_value(hironaka_coeffs(exps, (0,) * (n - 1))),
                           prop_a5_value(n, n - 1))
    rec.sweep("padded-pillar[n<=3,r<=2]", "cdens/padded-pillar", a5_pairs())

    def unimodular_pairs():
        for m in (1, 2):
            for k in range(0, m + 1):
                for n in range(1, m + 1):
                    xi = (1,) * k + (0,) * (m - k)
                    yield (alpha_value(hironaka_coeffs(xi, (0,) * n)),
                           alpha_diag_unimodular(k, m, n))
    rec.sweep("product-form[m<=2]", "cdens/product-form", unimodular_pairs())


def _suite_partition_sums(rec: Recorder, q: int):
    rec.equal("pinned-coefficients", "cdens/pinned-case",
              lambda: (tuple(str(c) for c in hironaka_coeffs((1, 0), (0, 0))),
                       tuple(str(c) for c in (
                           SignedRational(1),
                           SignedRational(-(SL_ONE + npq(-1))),
                           SignedRational(npq(-1))))))
    san = ((0, 0), (2, 0), (1, 1), (3, 1), (4, 2))
    rec.sweep("rank2-closed[5-pairs]", "cdens/rank2-closed",
              ((san_alpha2(a, b), alpha_value(hironaka_coeffs((0, 0), (a, b))))
               for a, b in san))
    rec.sweep("rank2-closed-prime[5-pairs]", "cdens/rank2-closed",
              ((san_alpha2_prime(a, b), alpha_prime(hironaka_coeffs((1, 0), (a, b))))
               for a, b in san))
    p = q if q <= 5 else 3
    rec.equal(f"brute-spot[p={p},d=2]", "cdens/brute-spot",
              lambda: (alpha_brute((1, 0), (1, 0), p, 2),
                       alpha_value(hironaka_coeffs((1, 0), (1, 0))).evaluate(p)))

    def pad_pairs():
        for n in (1, 2):
            for r in (1, 2):
                xi = (1,) * n + (0,) * n
                padded = xi + (0,) * (2 * r)
                yield (alpha_value(hironaka_coeffs(padded, (0,) * n)),
                       alpha_value(hironaka_coeffs(xi, (0,) * n), r=r))
    rec.sweep("padding-independence[n<=2,r<=2]", "cdens/padding", pad_pairs())


def _suite_appendix_compat(rec: Recorder, q: int):
    def identity_pairs():
        for n in (1, 2):
            for top in range(0, 4):
                exps = tuple([top] + [0] * n)
                out = appendix_compat(n, exps)
                yield out["lhs"], out["rhs"]
    rec.sweep("compat-identity[n<=2]", "appendix/compat-identity", identity_pairs())

    def product_pairs():
        w_top = w_density_n1(A1, 1, 1)[0]
        for exps in ((0, 0), (2, 0), (1, 1)):
            out = appendix_compat(1, exps)
            B1 = diagonal(exps)
            yield out["w_top"], w_top
            yield out["w_prime"], w_density_n1(B1, 0, 1)[1]
            yield out["w_low"], w_density_n1(B1, 0, 0)[0]
    rec.sweep("products-vs-direct[n=1]", "appendix/products-direct", product_pairs())
    rec.equal(f"numeric-anchor[q={q}]", "appendix/numeric-anchor",
              lambda: (appendix_compat(1, (0, 0))["w_prime"].evaluate(q),
                       w_density_n1(diagonal((0, 0)), 0, 1)[1].evaluate(q)))


def _suite_count_bridge(rec: Recorder, q: int):
    rec.equal("unimodular-stabilization[d=1,2]", "bridge/stabilization",
              lambda: (jcount_oracle((0, 0), (0, 0), 3, 1, kind="I").scaled,
                       jcount_oracle((0, 0), (0, 0), 3, 2, kind="I").scaled))
    rec.equal("count-vs-density[d=2]", "bridge/density-match",
              lambda: (jcount_oracle((1, 0), (1, 0), 3, 2, kind="J").scaled,
                       w_density_n1(A1, 1, 1)[0].evaluate(3)))
    rec.equal("restricted-count-vanishes", "bridge/density-match",
              lambda: (jcount_oracle((1, 0), (1, 0), 3, 2, kind="J1").scaled,
                       Fraction(0)))

    def fact_pairs():
        for a in (0, 2):
            for d in (1, 2):
                out = factorization_check(a, 3, d)
                yield out["full"], out["split"]
    rec.sweep("column-factorization[a in 0,2]", "bridge/factorization", fact_pairs())


SUITES = {
    "integrals": _suite_integrals,
    "gram-duality": _suite_gram_duality,
    "alpha-duality": _suite_alpha_duality,
    "profile-forms": _suite_profile_forms,
    "iwahori-sum": _suite_iwahori_sum,
    "beta-system": _suite_beta_system,
    "beta-closed-form": _suite_beta_closed_form,
    "jfun-unimodular": _suite_jfun_unimodular,
    "jfun-duality": _suite_jfun_duality,
    "jfun-h0": _suite_jfun_h0,
    "jfun-assembly": _suite_jfun_assembly,
    "tree-intersections": _suite_tree,
    "closed-products": _suite_closed_products,
    "partition-sums": _suite_partition_sums,
    "appendix-compat": _suite_appendix_compat,
    "count-bridge": _suite_count_bridge,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def resolve_suite(name: str) -> str:
    name = name.strip()
    if name in SUITES or name == "all":
        return name
    raise ValueError(f"unknown suite {name!r}; try one of {', '.join(suite_names())}")


# largest q a suite runs at: the integrals oracle grows as q^4, and q = 53 takes about 1 s
VERIFY_MAX_Q = 53


def run_suite(name: str, q: int = 3) -> dict:
    canonical = resolve_suite(name)
    if q > VERIFY_MAX_Q:
        raise BudgetError(f"verify limited to q <= {VERIFY_MAX_Q}, got {q}")
    _check_prime(q)
    rec = Recorder()
    t0 = time.perf_counter()
    targets = list(SUITES) if canonical == "all" else [canonical]
    for t in targets:
        SUITES[t](rec, q)
    elapsed = time.perf_counter() - t0
    failed = sum(1 for c in rec.checks if c["status"] != "pass")
    return {
        "suite": canonical,
        "q": q,
        "checks": rec.checks,
        "passed": len(rec.checks) - failed,
        "failed": failed,
        "elapsed": round(elapsed, 6),
    }
