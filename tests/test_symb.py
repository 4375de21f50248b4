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


def _fraction_coeffs(p):
    """The same polynomial with every coefficient a Fraction, set past __init__."""
    r = SignedLaurent.__new__(SignedLaurent)
    r.coeffs = {e: Fraction(c) for e, c in p.coeffs.items()}
    return r


def _fraction_rational(x):
    r = SignedRational.__new__(SignedRational)
    r.num, r.den = _fraction_coeffs(x.num), _fraction_coeffs(x.den)
    return r


def _coeff_types(x):
    parts = (x.num, x.den) if isinstance(x, SignedRational) else (x,)
    return {type(c) for p in parts for c in p.coeffs.values()}


def _normalized(x):
    # canonical values keep an integral coefficient as int
    parts = (x.num, x.den) if isinstance(x, SignedRational) else (x,)
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for p in parts for c in p.coeffs.values())


def test_init_normalizes_coefficients():
    p = SignedLaurent({0: Fraction(4, 2), 1: Fraction(1, 3), 2: "5", 3: Fraction(0)})
    assert p.coeffs == {0: 2, 1: Fraction(1, 3), 2: 5}
    assert _normalized(p)
    assert (SignedLaurent.monomial(2, 3) ** -2).coeffs == {-4: Fraction(1, 9)}
    assert SignedRational(SignedLaurent({0: 6, 1: 4}), SignedLaurent({0: 2})).num.coeffs == {0: 3, 1: 2}
    assert SignedLaurent({0: 2}).evaluate(3) == 2 and type(SignedLaurent().evaluate(3)) is Fraction


# mostly integral coefficients, so both the int and the Fraction paths run
small_coeffs = st.one_of(st.integers(min_value=-4, max_value=4),
                         st.fractions(min_value=-3, max_value=3, max_denominator=3))
small_laurents = st.dictionaries(st.integers(min_value=-3, max_value=3), small_coeffs,
                                 max_size=3).map(SignedLaurent)


@settings(max_examples=100, deadline=None)
@given(small_laurents, small_laurents, small_laurents, st.integers(min_value=0, max_value=2))
def test_int_and_fraction_coefficients_agree(a, b, c, k):
    """Int-normalized values and all-Fraction values give the same results."""
    fa, fb, fc = map(_fraction_coeffs, (a, b, c))
    pairs = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (a ** k, fa ** k),
             (a * b - c, fa * fb - fc), (-a + 3, -fa + 3)]
    if a.is_monomial():
        pairs.append((a ** -k, fa ** -k))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert x.to_json() == y.to_json() and repr(x) == repr(y)
        assert float not in _coeff_types(x) | _coeff_types(y)
    if b.is_zero() or c.is_zero() or (b * c + a).is_zero():
        return
    x, y = SignedRational(a, b), SignedRational(fa, fb)
    z = SignedRational(c, b * c + a)
    rationals = [(x, y), (z, SignedRational(fc, fb * fc + fa))]
    fx, fz = _fraction_rational(x), _fraction_rational(z)
    rationals += [(x + z, fx + fz), (x - z, fx - fz), (x * z, fx * fz), (x ** k, fx ** k)]
    if not z.is_zero():
        rationals += [(x / z, fx / fz), (z ** -k, fz ** -k)]
    for x, y in rationals:
        assert x == y and hash(x) == hash(y)
        assert x.to_json() == y.to_json() and repr(x) == repr(y)
        assert _normalized(x) and _normalized(y)
