import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermdens.errors import BudgetError, InvariantError
from hermdens.symb import (
    EVAL_MAX_BITS,
    SL_ONE,
    SL_ZERO,
    SignedLaurent,
    SignedRational,
    _pdivexact,
    _pdivmod,
    npq,
    qpow,
    sr_solve_linear,
)

S = npq(1)
ONE = SL_ONE

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
exponents = st.integers(min_value=-6, max_value=6)
laurents = st.dictionaries(exponents, coeffs, max_size=5).map(SignedLaurent)
eval_points = st.sampled_from([3, 5, 7, 9, 11, 13])


def test_zero_coefficients_dropped():
    p = SignedLaurent({2: Fraction(0), 1: 3, -4: Fraction(1, 2), 0: 0})
    assert set(p.coeffs) == {1, -4}
    assert SignedLaurent({0: 0}).is_zero()


def test_evaluation_size_budget():
    # |e| * bit_length(q) at the limit evaluates; one exponent step more is refused
    top = EVAL_MAX_BITS // 2
    assert qpow(-top).evaluate(3) == Fraction(1, 3 ** top)
    for big in (npq(top + 1), npq(-top - 1) + 1, SignedRational(ONE, npq(top + 1) + 1)):
        with pytest.raises(BudgetError, match="evaluation limited"):
            big.evaluate(3)
    with pytest.raises(BudgetError):
        npq(2).evaluate(2 ** EVAL_MAX_BITS)


def test_monomial_and_range():
    m = npq(-3, 7)
    assert m.is_monomial() and min(m.coeffs) == -3
    assert SL_ZERO.is_zero() and not SL_ZERO.is_monomial()


def test_sign_convention():
    # q = -s, so q^k = (-1)^k s^k and (-q)^k = s^k
    assert npq(3).evaluate(3) == -27
    assert qpow(3).evaluate(3) == 27
    assert qpow(-2).evaluate(3) == Fraction(1, 9)


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == SL_ZERO


@given(laurents, laurents, eval_points)
def test_evaluation_is_ring_hom(a, b, q):
    assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
    assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)


def test_negative_power_requires_monomial():
    assert (S ** -3) == npq(-3)
    with pytest.raises(ValueError):
        (ONE + S) ** -1


def test_rational_canonical_form():
    # common polynomial factors cancel, denominator gets constant term 1
    g = ONE - S
    a = SignedRational((ONE + S) * g, (S ** 2) * g)
    b = SignedRational(ONE + S, S ** 2)
    assert a == b
    assert min(a.den.coeffs) == 0
    assert a.den.coeffs.get(0) in (None, Fraction(1)) or a.den == ONE
    # denominator constant coefficient is exactly 1
    r = SignedRational(ONE, SignedLaurent({0: 3, 1: 5}))
    assert r.den.coeffs[0] == 1


def test_equal_values_hash_equal_across_types():
    # int, Fraction, SignedLaurent and SignedRational compare equal across
    # types, so a value must hash alike in every type it is written in
    groups = [[x, Fraction(x), SignedLaurent({0: x}), SignedRational(x)]
              for x in (0, 3, -1, Fraction(5, 7))]
    for p in (3 * S ** 2, npq(-4, Fraction(-1, 2)), 2 * S - ONE, S ** 3 + Fraction(1, 3) * S ** -2):
        groups.append([p, SignedRational(p), SignedRational(p * (S + ONE), S + ONE)])
    quotient = SignedRational(ONE - S, S + 2 * S ** 2)
    groups.append([quotient, SignedRational((ONE - S) * (S - 3), (S + 2 * S ** 2) * (S - 3))])
    for group in groups:
        for x in group:
            assert all(x == y for y in group), group
        assert len({hash(x) for x in group}) == 1, group
        assert len(set(group)) == 1, group


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


def test_inexact_division_is_an_invariant_error():
    # 1 + s is not a multiple of 1 + s^2; verify records this as one failed check
    with pytest.raises(InvariantError, match="inexact polynomial division"):
        _pdivexact({0: 1, 1: 1}, {0: 1, 2: 1})


def test_solve_linear_2x2():
    M = [[S, ONE], [ONE, S]]
    rhs = [S * S + 1, S * 2]
    x = sr_solve_linear(M, rhs)
    assert x[0] == SignedRational(S)
    assert x[1] == SignedRational(1)


def test_solve_linear_singular_names_column():
    M = [[S, S], [S, S]]
    with pytest.raises(ValueError, match="column 1"):
        sr_solve_linear(M, [ONE, ONE])
    M = [[SL_ZERO, ONE], [SL_ZERO, S]]
    with pytest.raises(ValueError, match="column 0"):
        sr_solve_linear(M, [ONE, ONE])


def test_coercion_rejects_other_types():
    for bad in (1.5, "s", [1]):
        with pytest.raises(TypeError):
            SignedRational(bad)
        with pytest.raises(TypeError):
            SignedRational(ONE, bad)
        with pytest.raises(TypeError):
            sr_solve_linear([[ONE, bad], [ONE, S]], [ONE, ONE])
        with pytest.raises(TypeError):
            sr_solve_linear([[ONE]], [bad])
    # the ring operations hand other types back to Python instead
    assert (S == 1.5) is False and (SignedRational(S) == "s") is False
    with pytest.raises(TypeError):
        S + 1.5


@settings(max_examples=25)
@given(st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3), min_size=3, max_size=3))
def test_solve_linear_random_systems(rows):
    M = [[npq(v) if v else ONE for v in row] for row in rows]
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
        m = npq(rng.randint(-2, 2), rng.choice([-1, 1]))
        return x + SignedRational(m), ex + to_sympy(m)

    values = []
    for _ in range(100):
        x, ex = combine(rng.randint(1, 2))
        values += [(x, ex), reroute(x, ex)]
    for x, ex in values:
        num, den = to_sympy(x.num), to_sympy(x.den)
        assert min(x.den.coeffs) == 0 and x.den.coeffs[0] == 1
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
    assert (npq(2, 3) ** -2).coeffs == {-4: Fraction(1, 9)}
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


def _product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


# denominators that share factors: products of s^k +- 1 and small integer polynomials
binomials = st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from([1, -1])).map(
    lambda kc: npq(kc[0]) + kc[1])
small_int_polys = st.dictionaries(st.integers(min_value=0, max_value=2),
                                  st.integers(min_value=-2, max_value=2),
                                  max_size=3).map(SignedLaurent).filter(lambda p: not p.is_zero())
factor_products = st.lists(st.one_of(binomials, small_int_polys), max_size=3).map(_product)
rationals = st.builds(lambda c, p, d: SignedRational(c * p, d),
                      small_laurents.filter(lambda p: not p.is_zero()),
                      factor_products, factor_products)


@settings(max_examples=150, deadline=None)
@given(rationals, rationals)
def test_operations_match_the_constructor_route(x, y):
    """Each operation reduces only by the factors its parts can share, and agrees with
    a full canonicalization of the cross products."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    routes = [(x + y, SignedRational(n1 * d2 + n2 * d1, d1 * d2)),
              (x - y, SignedRational(n1 * d2 - n2 * d1, d1 * d2)),
              (x * y, SignedRational(n1 * n2, d1 * d2))]
    # x + y - y and x * y / y must shed the factors they share with y again
    routes.append((x + y - y, x))
    if not y.is_zero():
        routes += [(x / y, SignedRational(n1 * d2, d1 * n2)), (x * y / y, x)]
    for got, want in routes:
        assert got == want and hash(got) == hash(want)
        assert got.to_json() == want.to_json() and repr(got) == repr(want)
        assert _normalized(got) and _normalized(want)


def test_sparse_division_allocates_by_terms():
    # (s^(2N) - 1) / (s^N + 1) in a few steps, with nothing dense of degree N
    big = 10 ** 8
    tracemalloc.start()
    try:
        quo, rem = _pdivmod({0: -1, 2 * big: 1}, {0: 1, big: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quo == {big: 1, 0: -1} and rem == {}
    assert peak < 1 << 20


def _schoolbook_divmod(a, b):
    """Long division over dense coefficient lists, from the top degree down."""
    rem = [Fraction(a.get(e, 0)) for e in range(max(a, default=0) + 1)]
    db, quo = max(b), {}
    for d in range(len(rem) - 1, db - 1, -1):
        f = rem[d] / b[db]
        if f:
            quo[d - db] = f
            for e, c in b.items():
                rem[e + d - db] -= f * c
    return quo, {e: c for e, c in enumerate(rem) if c}


polys = st.dictionaries(st.integers(min_value=0, max_value=8), small_coeffs,
                        max_size=6).map(lambda d: SignedLaurent(d).coeffs)


@settings(max_examples=150, deadline=None)
@given(polys, polys.filter(bool))
def test_division_matches_schoolbook(a, b):
    quo, rem = _pdivmod(a, b)
    assert (quo, rem) == _schoolbook_divmod(a, b)
    assert all(type(c) is int or c.denominator > 1 for c in quo.values())
