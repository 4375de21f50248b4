import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from conftest import a_t
from hermdens import locint
from hermdens.cdens import (
    HIRONAKA_MAX_STEPS,
    JCount,
    _transition_factor,
    alpha_brute,
    alpha_diag_unimodular,
    alpha_prime,
    alpha_value,
    appendix_compat,
    conjugate_partition,
    factorization_check,
    gauss_bracket,
    hironaka_coeffs,
    jcount_oracle,
    jfun_n1,
    prop_a5_value,
    san_alpha2,
    san_alpha2_prime,
    thm42_display,
)
from hermdens.errors import BudgetError
from hermdens.reps import diagonal, dual_vee, make_monomial
from hermdens.symb import SL_ONE, SL_ZERO, SignedLaurent, SignedRational, npq, qpow
from hermdens.whit import alpha_iwahori_brute, w_density_n1

SAN_PAIRS = [(0, 0), (2, 0), (1, 1), (3, 1), (4, 2)]

ODD_PRIMES = [p for p in range(3, 800, 2) if all(p % k for k in range(3, p, 2))]
# per (m, d), the largest p with p^(2 d m) within locint.COUNT_MAX_VECTORS
VECTOR_EDGE = [(m, d, max(p for p in ODD_PRIMES if p ** (2 * d * m) <= locint.COUNT_MAX_VECTORS))
               for m in range(1, 7) for d in range(1, 7) if 3 ** (2 * d * m) <= locint.COUNT_MAX_VECTORS]


def pi_an_exponents(n: int, r: int) -> tuple[int, ...]:
    """Exponents of pi * (A_n padded by 2r unimodular slots)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return (1,) * (n + 2 * r) + (0,) * n


def scale_alpha(value: SignedRational, k: int) -> SignedRational:
    """Turn alpha(C, D) into alpha(pi C, pi D) when D has size k."""
    return value * SignedRational(qpow(k * k))


def _subpartitions(bound):
    """All partitions mu with mu_i <= bound_i, bound decreasing, padded to len(bound)."""
    if not bound:
        yield ()
        return
    for v in range(bound[0], -1, -1):
        for rest in _subpartitions(tuple(min(b, v) for b in bound[1:])):
            yield (v,) + rest


def expanded_coeffs(xi, lam):
    """hironaka_coeffs as one product of column factors per subpartition mu of lam + 1."""
    m, n = len(xi), len(lam)
    lt = tuple(x + 1 for x in lam)
    lt_c, xi_c = conjugate_partition(lt), conjugate_partition(xi)

    def part(parts, j):  # part j (from 0) with zero padding past the end
        return parts[j] if j < len(parts) else 0

    coeffs = [SL_ZERO] * (sum(lt) + 1)
    for mu in _subpartitions(lt):
        k = sum(mu)
        mu_c = conjugate_partition(mu)
        exp = (-sum(i * p for i, p in enumerate(mu)) + (n - m - 1) * k
               + sum(a * b for a, b in zip(xi_c, mu_c)))
        prod = npq(exp, -1 if k % 2 else 1)
        for j in range(lt[0]):
            prod = prod * _transition_factor(part(lt_c, j), part(lt_c, j + 1),
                                             part(mu_c, j), part(mu_c, j + 1))
        coeffs[k] = coeffs[k] + prod
    return coeffs


# subpartition-column products that expanded_coeffs forms at most in walk_sample
EXPANSION_MAX_TERMS = 20_000


def expansion_terms(lam, cap=EXPANSION_MAX_TERMS):
    """Products expanded_coeffs forms for lam, or more than cap once that many are reached."""
    columns = lam[0] + 1
    return len(list(islice(_subpartitions(tuple(x + 1 for x in lam)), cap // columns + 1))) * columns


def walk_steps(lam):
    """Steps of hironaka_coeffs's column walk, from its states alone: one per state per
    column and one per transition."""
    lt = tuple(x + 1 for x in lam)
    lt_c = conjugate_partition(lt) + (0,)
    states, steps = {(h, h) for h in range(1, len(lt) + 1)}, 0
    for nxt in lt_c[1:]:
        steps += sum(1 + min(h, nxt) for h, _ in states)
        states = {(h1, k + h1) for h, k in states for h1 in range(1, min(h, nxt) + 1)}
    return steps


def walk_sample():
    """150 (xi, lam) within the expansion's term bound from a fixed seed, and two at its edge."""
    rng = random.Random(26)
    sample = []
    while len(sample) < 150:
        top = rng.choice((1, 2, 3, 5, 8))
        lam = tuple(sorted((rng.randint(0, top) for _ in range(rng.randint(1, 7))), reverse=True))
        xi = tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(1, 5))), reverse=True))
        if expansion_terms(lam) <= EXPANSION_MAX_TERMS:
            sample.append((xi, lam))
    return sample + [((0,), (139,)), ((0,) * 12, (3,) * 12)]


class TestPolynomial:
    def test_pinned_mixed_form(self):
        cs = hironaka_coeffs((1, 0), (0, 0))
        one = SignedRational(1)
        assert cs == [one,
                      SignedRational(SL_ONE + npq(-1)) * SignedRational(-1),
                      SignedRational(npq(-1))]
        assert alpha_value(cs) == SignedRational(0)  # odd determinant at r = 0
        assert alpha_prime(cs) == SignedRational(SL_ONE - npq(-1))
        assert alpha_prime(cs).evaluate(3) == Fraction(4, 3)

    def test_unit_rank_one(self):
        cs = hironaka_coeffs((0,), (0,))
        assert alpha_value(cs) == SignedRational(SL_ONE - npq(-1))
        assert alpha_value(cs).evaluate(3) == Fraction(4, 3)

    def test_closed_product_all_small(self):
        for m in (1, 2):
            for k in range(0, m + 1):
                for n in range(1, m + 1):
                    xi = (1,) * k + (0,) * (m - k)
                    got = alpha_value(hironaka_coeffs(xi, (0,) * n))
                    assert got == alpha_diag_unimodular(k, m, n), (k, m, n)

    @pytest.mark.parametrize("kmn", [(0, 3, 2), (1, 3, 3), (2, 4, 2), (3, 3, 1)])
    def test_closed_product_larger(self, kmn):
        k, m, n = kmn
        xi = tuple(sorted((1,) * k + (0,) * (m - k), reverse=True))
        assert alpha_value(hironaka_coeffs(xi, (0,) * n)) == alpha_diag_unimodular(k, m, n)

    def test_padding_independence(self):
        # the scaled split ambient absorbs extra hyperbolic slots
        for n in (1, 2, 3):
            for r in (0, 1, 2):
                xi = pi_an_exponents(n, r)
                targets = [n] if n == 1 else [n - 1, n]
                for tgt in targets:
                    got = alpha_value(hironaka_coeffs(xi, (0,) * tgt))
                    assert got == prop_a5_value(n, tgt), (n, r, tgt)

    def test_column_walk_matches_expansion(self):
        # the walk shares column factors between subpartitions; the expansion
        # multiplies them out for each one, so only the recombination is checked here
        for xi, lam in walk_sample():
            assert hironaka_coeffs(xi, lam) == expanded_coeffs(xi, lam), (xi, lam)

    def test_partition_sum_budget(self):
        # 12 parts pass, and lam = (140,) and (400,) walk 281 and 801 steps
        assert len(hironaka_coeffs((0,), (0,) * 12)) == 13
        for lam in ((140,), (400,)):
            assert hironaka_coeffs((0,), lam) == expanded_coeffs((0,), lam), lam
        with pytest.raises(BudgetError):
            hironaka_coeffs((0,), (0,) * 13)

    def test_walk_step_edge(self):
        # lam = (L,) walks 2 L + 1 steps, so L = 954 is the last first part that passes
        edge = (4,) * 8 + (3, 3, 0)
        assert [walk_steps(lam) for lam in ((954,), edge, (955,), (10, 9, 8, 6, 4, 2, 2))] \
            == [HIRONAKA_MAX_STEPS, HIRONAKA_MAX_STEPS, HIRONAKA_MAX_STEPS + 2, HIRONAKA_MAX_STEPS + 1]
        assert len(hironaka_coeffs((0,), (954,))) == 956
        assert len(hironaka_coeffs((0,), edge)) == sum(edge) + len(edge) + 1
        for lam in ((955,), (10, 9, 8, 6, 4, 2, 2), (8,) * 12):
            with pytest.raises(BudgetError, match=f"limited to {HIRONAKA_MAX_STEPS} walk steps"):
                hironaka_coeffs((0,), lam)

    def test_huge_first_part_refused_at_once(self):
        # the walk has a state at each of its lam[0] + 1 columns, so no list is built
        for lam in ((HIRONAKA_MAX_STEPS,), (10 ** 12,)):
            start = time.perf_counter()
            with pytest.raises(BudgetError):
                hironaka_coeffs((0,), lam)
            assert time.perf_counter() - start < 0.1

    def test_large_xi_parts_cut_at_lam(self):
        # parts of xi above lam[0] + 1 meet no subpartition column
        assert hironaka_coeffs((10 ** 12, 3), (2, 1)) == hironaka_coeffs((3, 3), (2, 1))

    def test_partition_sums_build_one_quotient(self, rational_builds):
        gauss_bracket.cache_clear()
        _transition_factor.cache_clear()
        coeffs = hironaka_coeffs((2, 1, 0), (3, 2, 2))
        assert rational_builds[0] == 0
        alpha_value(coeffs, r=1)
        assert rational_builds[0] == 1
        alpha_prime(coeffs)
        assert rational_builds[0] == 2

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            hironaka_coeffs((0, 1), (0,))
        with pytest.raises(ValueError):
            hironaka_coeffs((0,), (-1,))
        with pytest.raises(ValueError):
            prop_a5_value(2, 0)


class TestGaussBracket:
    def test_matches_reduced_product_quotient(self):
        # the product form prod (1 - s^-i) over its two lower products, reduced
        # by the polynomial gcd; the bracket itself runs the q-Pascal rule
        def units(k):
            prod = SL_ONE
            for i in range(1, k + 1):
                prod = prod * (SL_ONE - npq(-i))
            return prod

        for u in range(13):
            for v in range(u + 1):
                want = SignedRational(units(u), units(v) * units(u - v))
                got = gauss_bracket(u, v)
                assert isinstance(got, SignedLaurent) and want.den == SL_ONE, (u, v)
                assert got == want.num, (u, v)
            assert gauss_bracket(u, -1).is_zero() and gauss_bracket(u, u + 1).is_zero()


class TestRank2Closed:
    @pytest.mark.parametrize("pair", SAN_PAIRS)
    def test_alpha_matches_polynomial(self, pair):
        a, b = pair
        assert san_alpha2(a, b) == alpha_value(hironaka_coeffs((0, 0), (a, b)))

    @pytest.mark.parametrize("pair", SAN_PAIRS)
    def test_prime_matches_polynomial(self, pair):
        a, b = pair
        assert san_alpha2_prime(a, b) == alpha_prime(hironaka_coeffs((1, 0), (a, b)))

    def test_frozen_values(self):
        vals = {(0, 0): (Fraction(32, 27), Fraction(4, 3)),
                (2, 0): (Fraction(32, 27), Fraction(20, 3)),
                (1, 1): (Fraction(128, 27), Fraction(-16, 3)),
                (3, 1): (Fraction(128, 27), Fraction(0)),
                (4, 2): (Fraction(416, 27), Fraction(-92, 3))}
        for (a, b), (al, alp) in vals.items():
            assert san_alpha2(a, b).evaluate(3) == al
            assert san_alpha2_prime(a, b).evaluate(3) == alp

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            san_alpha2(0, 2)
        with pytest.raises(ValueError):
            san_alpha2(1, 0)


class TestBrute:
    CASES = [
        ((0,), (0,)),
        ((1, 0), (0,)),
        ((0, 0), (0,)),
        ((0, 0), (1,)),
        ((0, 0), (0, 0)),
        ((0, 0), (1, 1)),
        ((1, 0), (1, 0)),
        ((1, 0), (0, 0)),
        ((1, 1), (1, 1)),
    ]

    @pytest.mark.parametrize("amb,tgt", CASES)
    def test_counts_match_polynomial(self, amb, tgt):
        want = alpha_value(hironaka_coeffs(amb, tgt)).evaluate(3)
        assert alpha_brute(amb, tgt, 3, 2) == want

    def test_depth_stabilization(self):
        # exponent-2 target needs depth 3; depth 2 still reports a stale count
        cs = hironaka_coeffs((0, 0), (2,))
        assert alpha_value(cs).evaluate(3) == Fraction(104, 81)
        assert alpha_brute((0, 0), (2,), 3, 2) == Fraction(35, 27)
        assert alpha_brute((0, 0), (2,), 3, 3) == Fraction(104, 81)

    def test_scaling_relation(self):
        got = alpha_value(hironaka_coeffs((1, 1), (1, 1)))
        base = alpha_value(hironaka_coeffs((0, 0), (0, 0)))
        assert got == scale_alpha(base, 2)
        assert alpha_brute((1,), (1,), 3, 2) == Fraction(4)

    def test_budget_guards(self):
        with pytest.raises(ValueError):
            alpha_brute((0,) * 4, (0,), 3, 2)
        with pytest.raises(ValueError):
            alpha_brute((0, 0), (0, 0, 0), 3, 1)
        with pytest.raises(ValueError):
            alpha_brute((0, 0), (-1,), 3, 1)

    def test_padding(self):
        # pad unimodular slots count as zeros appended to the ambient form
        assert alpha_brute((1,), (1,), 3, 1, pad=2) == alpha_brute((1, 0, 0), (1,), 3, 1)
        # a long padding is refused from its length, before anything is built
        with pytest.raises(BudgetError):
            alpha_brute((0,), (0,), 3, 1, pad=10 ** 7)
        with pytest.raises(ValueError):
            alpha_brute((0,), (0,), 3, 1, pad=-2)

    def test_empty_forms_rejected(self):
        # an empty form is refused before min() and before any power
        for amb, tgt in (((), (0,)), ((), ())):
            with pytest.raises(ValueError, match="both forms must be nonempty"):
                alpha_brute(amb, tgt, 3, 1)
        assert alpha_brute((), (0,), 3, 1, pad=2) == Fraction(8, 9)

    def test_pair_budget(self, monkeypatch):
        # every vector solves the diagonal (all values vanish mod 9), so the density is
        # 81^4 / 3^8: 6561^2 vector pairs, but each of the two blocks joins one key pair
        assert alpha_brute((2, 2), (2, 2), 3, 2) == 6561
        # (1, 0) into itself at p = 5 joins 4,375 key pairs, counted before any cross value
        want = alpha_value(hironaka_coeffs((1, 0), (1, 0))).evaluate(5)
        monkeypatch.setattr(locint, "PAIR_BUDGET", 4375)
        assert alpha_brute((1, 0), (1, 0), 5, 2) == want
        monkeypatch.setattr(locint, "PAIR_BUDGET", 4374)
        with pytest.raises(BudgetError, match="4375 > 4374 checks"):
            alpha_brute((1, 0), (1, 0), 5, 2)

    @pytest.mark.parametrize("m,d,p", VECTOR_EDGE)
    def test_two_columns_at_the_vector_edge(self, m, d, p):
        # the largest p for each (m, d): diagonal blocks join about COUNT_MAX_VECTORS
        # key pairs at most (599,076 at m = 1, p = 773), under locint.PAIR_BUDGET
        xi = (0,) * m
        assert alpha_brute(xi, (0, 0), p, d) == alpha_value(hironaka_coeffs(xi, (0, 0))).evaluate(p)


class TestJFunctional:
    def test_base_point_value(self):
        j = jfun_n1(1, a_t(1, 1))
        assert j == SignedRational(SL_ONE) / SignedRational(SL_ONE - npq(1)) * SignedRational(-1)
        assert j.evaluate(3) == Fraction(-1, 4)

    @pytest.mark.parametrize("a", [0, 2, 4])
    def test_unimodular_route(self, a):
        lhs = jfun_n1(1, diagonal((a, -1)))
        rhs = alpha_prime(hironaka_coeffs((0,), (a,))) \
            / alpha_value(hironaka_coeffs((0,), (0,)))
        assert lhs == rhs

    @pytest.mark.parametrize("B", [diagonal((2, -1)), diagonal((0, 1)),
                                   make_monomial((2, 1), (1, 1)), diagonal((3, 0))])
    def test_dual_invariance(self, B):
        assert jfun_n1(1, B) == jfun_n1(1, dual_vee(B, 1))

    @pytest.mark.parametrize("c", [1, 3])
    def test_odd_exponent_route(self, c):
        lhs = jfun_n1(1, diagonal((0, c)))
        rhs = alpha_prime(hironaka_coeffs((0,), (c + 1,))) \
            / alpha_value(hironaka_coeffs((0,), (0,)))
        assert lhs == rhs

    @pytest.mark.parametrize("pair", SAN_PAIRS)
    def test_assembly_constant(self, pair):
        a, b = pair
        want = SignedRational(Fraction((a + b) // 2 + 1))
        assert jfun_n1(1, diagonal((a, b))) == want

    @pytest.mark.parametrize("pair", [(0, 0), (1, 1), (2, 0), (3, 1)])
    def test_display_identity(self, pair):
        assert thm42_display(*pair)["match"]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            jfun_n1(3, diagonal((0, 0)))

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_odd_valuation_pins(self, t):
        # regression pins of the printed value, not intersection numbers: at an
        # odd determinant valuation no identity above checks jfun_n1
        pins = {(1, 0): "(s - 2)/(-s + 1)",
                (3, 0): "(2*s - 3)/(-s + 1)",
                (2, 1): "(2*s - 3)/(-s + 1)"}
        for exps, want in pins.items():
            assert str(jfun_n1(t, diagonal(exps))) == want, exps


class TestAppendixCompat:
    @pytest.mark.parametrize("n,exps", [(1, (0, 0)), (1, (1, 1)), (1, (2, 0)),
                                        (1, (4, 2)), (2, (0, 0, 0)), (2, (2, 1, 1))])
    def test_identity(self, n, exps):
        assert appendix_compat(n, exps)["match"]

    def test_products_equal_direct_densities(self):
        # at rank one the product formulas reproduce the summed densities exactly
        wtop = w_density_n1(a_t(1, 1), 1, 1)[0]
        for exps in [(0, 0), (1, 1), (2, 0)]:
            r = appendix_compat(1, exps)
            B = diagonal(exps)
            assert r["w_top"] == wtop
            assert r["w_prime"] == w_density_n1(B, 0, 1)[1]
            assert r["w_low"] == w_density_n1(B, 0, 0)[0]

    def test_numeric_anchor(self):
        r = appendix_compat(1, (0, 0))
        got = float(r["w_prime"].evaluate(3))
        assert abs(got - 4 / 243) < 1e-9

    def test_size_validation(self):
        with pytest.raises(ValueError):
            appendix_compat(1, (0, 0, 0))


class TestLatticeCounts:
    def test_unimodular_stabilization(self):
        s1 = jcount_oracle((0, 0), (0, 0), 3, 1, "I")
        s2 = jcount_oracle((0, 0), (0, 0), 3, 2, "I")
        assert s1.scaled == s2.scaled == Fraction(32, 2187)
        for kind in ("J", "J1"):
            for d in (1, 2):
                assert jcount_oracle((0, 0), (0, 0), 3, d, kind).scaled == 0

    def test_scaled_count_hits_density(self):
        got = jcount_oracle((1, 0), (1, 0), 3, 2, "J").scaled
        want = w_density_n1(a_t(1, 1), 1, 1)[0].evaluate(3)
        assert got == want == Fraction(16, 243)

    def test_restricted_kind_vanishes(self):
        # all-column membership mirrors the t = 0 density, which is zero here
        assert w_density_n1(a_t(1, 1), 1, 0)[0] == SignedRational(0)
        for d in (1, 2):
            assert jcount_oracle((1, 0), (1, 0), 3, d, "J1").count == 0

    @pytest.mark.parametrize("a", [0, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_factorization(self, a, d):
        assert factorization_check(a, 3, d)["match"]

    @pytest.mark.parametrize("d", [0, -1])
    def test_depth_below_one_rejected(self, d):
        # count_solutions rejects the depth, so every oracle on it does too
        with pytest.raises(ValueError, match="depth"):
            alpha_brute((1, 0), (0, 0), 3, d)
        with pytest.raises(ValueError, match="depth"):
            jcount_oracle((1, 0), (1, 0), 3, d, "J")
        with pytest.raises(ValueError, match="depth"):
            alpha_iwahori_brute(make_monomial((2, 1), (1, 1)), 3, d)

    def test_validation(self):
        with pytest.raises(ValueError):
            jcount_oracle((0,), (0, 0), 3, 1, "J")  # odd rank membership
        with pytest.raises(ValueError):
            jcount_oracle((0, 0), (0, 0), 3, 1, "X")
        with pytest.raises(ValueError):
            jcount_oracle((0, 0), (0, 0, 0), 3, 3, "I")

    def test_pair_budget(self):
        # every map solves (all values vanish mod 3): all 9^8 vector pairs, and each
        # of the four one-coordinate blocks joins a single key pair
        assert jcount_oracle((1, 1), (1, 1, 1, 1), 3, 1, "I") == JCount(9 ** 8, Fraction(1))

    def test_huge_depth_refused_before_its_power(self):
        # 3^(2 * 10^7) would take seconds to build; 2 d m > 12 is refused first,
        # and at m = 0, one vector at any d, the modulus 3^(10^7) is refused the same way
        for m_exps in ((0,), ()):
            start = time.perf_counter()
            with pytest.raises(BudgetError):
                jcount_oracle((0,), m_exps, 3, 10 ** 7, "I")
            assert time.perf_counter() - start < 1
        # the largest accepted depth at m = 1 still counts
        assert jcount_oracle((0,), (0,), 3, 5, "I") == JCount(324, Fraction(4, 9))

    def test_huge_target_exponent_read_mod_p_to_the_d(self):
        # the targets are built as p^b mod p^d, so a huge b costs nothing
        start = time.perf_counter()
        assert jcount_oracle((10 ** 8,), (0,), 3, 1, "I") == jcount_oracle((1,), (0,), 3, 1, "I")
        assert alpha_brute((0,), (10 ** 12,), 3, 1) == alpha_brute((0,), (1,), 3, 1)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [1, 2, 4, 9])
def test_brute_oracles_need_odd_prime(p):
    # each oracle rejects p before any budget check or counting
    with pytest.raises(ValueError, match="odd prime"):
        alpha_brute((1, 0), (1, 0), p, 1)
    with pytest.raises(ValueError, match="odd prime"):
        jcount_oracle((1, 0), (1, 0), p, 1, "J")
    with pytest.raises(ValueError, match="odd prime"):
        alpha_iwahori_brute(diagonal((0, 0)), p, 1)
