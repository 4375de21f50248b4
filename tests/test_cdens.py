from fractions import Fraction

import pytest

from hermdens.cdens import (
    _count_subpartitions,
    _subpartitions,
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
from hermdens.errors import BudgetError
from hermdens.reps import a_t, diagonal, dual_vee, make_monomial
from hermdens.symb import SL_ONE, SignedRational, npq, qpow
from hermdens.whit import alpha_iwahori_brute, w_density_n1

SAN_PAIRS = [(0, 0), (2, 0), (1, 1), (3, 1), (4, 2)]


def pi_an_exponents(n: int, r: int) -> tuple[int, ...]:
    """Exponents of pi * (A_n padded by 2r unimodular slots)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return (1,) * (n + 2 * r) + (0,) * n


def scale_alpha(value: SignedRational, k: int) -> SignedRational:
    """Turn alpha(C, D) into alpha(pi C, pi D) when D has size k."""
    return value * SignedRational(qpow(k * k))


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

    def test_subpartition_count(self):
        for bound in [(0,), (3,), (4, 2), (5, 5, 1), (3, 3, 3, 2, 1), (7, 4, 4, 2, 2, 1, 1)]:
            assert _count_subpartitions(bound) == sum(1 for _ in _subpartitions(bound)), bound

    def test_partition_sum_budget(self):
        # 12 parts pass, and so do 141 subpartitions x 140 columns = 19,740 terms
        assert len(hironaka_coeffs((0,), (0,) * 12)) == 13
        assert len(hironaka_coeffs((0,), (139,))) == 141
        with pytest.raises(BudgetError):
            hironaka_coeffs((0,), (0,) * 13)
        with pytest.raises(BudgetError):
            hironaka_coeffs((0,), (140,))  # 142 subpartitions x 141 columns
        with pytest.raises(BudgetError):
            hironaka_coeffs((0,), (10 ** 12,))  # rejected before the count

    def test_large_xi_parts_cut_at_lam(self):
        # parts of xi above lam[0] + 1 meet no subpartition column
        assert hironaka_coeffs((10 ** 12, 3), (2, 1)) == hironaka_coeffs((3, 3), (2, 1))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            hironaka_coeffs((0, 1), (0,))
        with pytest.raises(ValueError):
            hironaka_coeffs((0,), (-1,))
        with pytest.raises(ValueError):
            prop_a5_value(2, 0)


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

    def test_pair_budget(self):
        # every vector solves the diagonal (all values vanish mod 9): 6561^2 pairs
        with pytest.raises(BudgetError, match="checks"):
            alpha_brute((2, 2), (2, 2), 3, 2)


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
        with pytest.raises(BudgetError, match="checks"):
            jcount_oracle((1, 1), (1, 1, 1, 1), 3, 1, "I")


@pytest.mark.parametrize("p", [1, 2, 4, 9])
def test_brute_oracles_need_odd_prime(p):
    # each oracle rejects p before any budget check or counting
    with pytest.raises(ValueError, match="odd prime"):
        alpha_brute((1, 0), (1, 0), p, 1)
    with pytest.raises(ValueError, match="odd prime"):
        jcount_oracle((1, 0), (1, 0), p, 1, "J")
    with pytest.raises(ValueError, match="odd prime"):
        alpha_iwahori_brute(diagonal((0, 0)), p, 1)
