import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermdens.symb import (
    SignedLaurent,
    SignedRational,
    npq,
    qpow,
    sr_solve_linear,
)

S = SignedLaurent.monomial(1)
ONE = SignedLaurent.one()

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
exponents = st.integers(min_value=-6, max_value=6)
laurents = st.dictionaries(exponents, coeffs, max_size=5).map(SignedLaurent)
eval_points = st.sampled_from([3, 5, 7, 9, 11, 13])


def test_zero_coefficients_dropped():
    p = SignedLaurent({2: Fraction(0), 1: 3, -4: Fraction(1, 2), 0: 0})
    assert set(p.coeffs) == {1, -4}
    assert SignedLaurent({0: 0}).is_zero()


def test_monomial_and_range():
    m = SignedLaurent.monomial(-3, 7)
    assert m.is_monomial() and m.min_exp() == m.max_exp() == -3
    with pytest.raises(ValueError):
        SignedLaurent.zero().min_exp()


def test_sign_convention():
    # q = -s, so q^k = (-1)^k s^k and (-q)^k = s^k
    assert npq(3).evaluate(3) == -27
    assert qpow(3).evaluate(3) == 27
    assert qpow(-2).evaluate(3) == Fraction(1, 9)


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == SignedLaurent.zero()


@given(laurents, laurents, eval_points)
def test_evaluation_is_ring_hom(a, b, q):
    assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
    assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)


def test_negative_power_requires_monomial():
    assert (S ** -3) == SignedLaurent.monomial(-3)
    with pytest.raises(ValueError):
        (ONE + S) ** -1


def test_rational_canonical_form():
    # common polynomial factors cancel, denominator gets constant term 1
    g = ONE - S
    a = SignedRational((ONE + S) * g, (S ** 2) * g)
    b = SignedRational(ONE + S, S ** 2)
    assert a == b
    assert a.den.min_exp() == 0
    assert a.den.coeffs.get(0) in (None, Fraction(1)) or a.den == ONE
    # denominator constant coefficient is exactly 1
    r = SignedRational(ONE, SignedLaurent({0: 3, 1: 5}))
    assert r.den.coeffs[0] == 1


def test_rational_q_plus_one_squared_over_q5():
    Q = SignedRational(qpow(1))
    v = (Q + 1) ** 2 / Q ** 5
    assert v.evaluate(3) == Fraction(16, 243)
    assert v == SignedRational(SignedLaurent({-3: -1, -4: 2, -5: -1}))


@given(laurents, laurents)
def test_rational_cross_multiplication_consistency(a, b):
    # canonical equality agrees with cross multiplication
    if b.is_zero():
        return
    x = SignedRational(a, b)
    assert x.num * b == a * x.den


@given(laurents, laurents, eval_points)
def test_rational_eval(a, b, q):
    if b.is_zero() or b.evaluate(q) == 0:
        return
    x = SignedRational(a, b)
    assert x.evaluate(q) == a.evaluate(q) / b.evaluate(q)


@given(laurents)
def test_json_round_trip(a):
    p = SignedRational(a, ONE + S ** 2)
    assert SignedRational.from_json(p.to_json()) == p


def test_solve_linear_2x2():
    M = [[S, ONE], [ONE, S]]
    rhs = [S * S + 1, S.scaled(2)]
    x = sr_solve_linear(M, rhs)
    assert x[0] == SignedRational(S)
    assert x[1] == SignedRational(1)


def test_solve_linear_singular_names_column():
    M = [[S, S], [S, S]]
    with pytest.raises(ValueError, match="column 1"):
        sr_solve_linear(M, [ONE, ONE])
    M = [[SignedLaurent.zero(), ONE], [SignedLaurent.zero(), S]]
    with pytest.raises(ValueError, match="column 0"):
        sr_solve_linear(M, [ONE, ONE])


@settings(max_examples=25)
@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_solve_linear_random_systems(rows):
    M = [[SignedLaurent.monomial(v, 1) if v else ONE for v in row] for row in rows]
    rhs = [ONE, S, S ** 2]
    try:
        x = sr_solve_linear(M, rhs)
    except ValueError:
        return
    for i in range(3):
        acc = SignedRational(0)
        for j in range(3):
            acc = acc + SignedRational(M[i][j]) * x[j]
        assert acc == SignedRational(rhs[i])


def test_canonical_form_matches_sympy():
    sp = pytest.importorskip("sympy")
    s = sp.Symbol("s")
    rng = random.Random(29)

    def to_sympy(p):
        return sum((sp.Rational(c.numerator, c.denominator) * s ** e
                    for e, c in p.coeffs.items()), sp.Integer(0))

    def laurent():
        while True:
            p = SignedLaurent({rng.randint(-3, 3): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(rng.randint(1, 3))})
            if not p.is_zero():
                return SignedRational(p), to_sympy(p)

    def combine(depth):
        if depth == 0:
            return laurent()
        (x, ex), (y, ey) = combine(depth - 1), combine(depth - 1)
        op = rng.choice("+-*/")
        if op == "+":
            return x + y, ex + ey
        if op == "-":
            return x - y, ex - ey
        if op == "*" or y.is_zero():
            return x * y, ex * ey
        return x / y, ex / ey

    def reroute(x, ex):
        # the same value by another route, or a value off by one monomial
        z, ez = laurent()
        kind = rng.randrange(3)
        if kind == 0:
            return x * z / z, ex * ez / ez
        if kind == 1:
            return x - z + z, ex - ez + ez
        m = SignedLaurent.monomial(rng.randint(-2, 2), rng.choice([-1, 1]))
        return x + SignedRational(m), ex + to_sympy(m)

    values = []
    for _ in range(100):
        x, ex = combine(rng.randint(1, 2))
        values += [(x, ex), reroute(x, ex)]
    for x, ex in values:
        num, den = to_sympy(x.num), to_sympy(x.den)
        assert x.den.min_exp() == 0 and x.den.coeffs[0] == 1
        assert sp.cancel(num / den - ex) == 0
        # cancel keeps powers of s in its denominator; ours go to the numerator
        _, sden = sp.fraction(sp.cancel(ex))
        _, sden = sp.Poly(sden, s).terms_gcd()
        assert sp.Poly(den, s).monic() == sden.monic()
    for i in range(len(values) - 1):
        (x, ex), (y, ey) = values[i], values[i + 1]
        assert (x == y) == (sp.cancel(ex - ey) == 0), (x, y)
