import pytest
from hypothesis import given, strategies as st

from conftest import a_t
from hermdens.reps import (
    MonomialHermitian,
    WeightProfile,
    classify,
    count_reps,
    diagonal,
    dual_vee,
    dual_wedge,
    enumerate_reps,
    is_in_Rh,
    make_monomial,
    parse_monomial,
    rep_at,
)


def involutions(size):
    return st.permutations(list(range(1, size + 1))).filter(
        lambda p: all(p[p[i] - 1] == i + 1 for i in range(size)))


def random_monomial(size, lo=-2, hi=2):
    def build(args):
        sigma, vals = args
        e = [0] * size
        k = 0
        for i in range(1, size + 1):
            if sigma[i - 1] >= i:
                e[i - 1] = vals[k]
                e[sigma[i - 1] - 1] = vals[k]
                k += 1
        return make_monomial(sigma, e)
    return st.tuples(involutions(size),
                     st.lists(st.integers(lo, hi), min_size=size, max_size=size)).map(build)


def test_make_monomial_validation():
    with pytest.raises(ValueError, match="even"):
        make_monomial((1, 3, 2), (0, 0, 0))
    with pytest.raises(ValueError, match="permutation"):
        make_monomial((1, 1), (0, 0))
    with pytest.raises(ValueError, match="involution"):
        make_monomial((2, 3, 4, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="orbit"):
        make_monomial((2, 1), (0, 1))
    Y = make_monomial((2, 1), (3, 3))
    assert Y.sigma_of(1) == 2 and Y.e_of(2) == 3


def test_a_t_shape():
    A1 = a_t(1, 1)
    assert A1.e == (0, -1) and A1.is_diagonal()
    assert a_t(2, 2).e == (0, 0, -1, -1)
    with pytest.raises(ValueError):
        a_t(1, 3)


def test_text_forms_round_trip():
    Y = parse_monomial("mono:sigma=[2,1];e=[0,0]")
    assert Y.sigma == (2, 1) and Y.e == (0, 0)
    assert parse_monomial(str(Y)) == Y
    D = parse_monomial("diag:0,-1")
    assert D == a_t(1, 1)
    assert parse_monomial(str(D)) == D
    with pytest.raises(ValueError):
        parse_monomial("weird:1,2")


def test_enumerate_counts_n1():
    assert len(list(enumerate_reps(1, 0, 0))) == 2
    reps = list(enumerate_reps(1, 0, 1))
    assert len(reps) == 6
    # diagonal involution first (rank 0), then the swap
    assert all(Y.is_diagonal() for Y in reps[:4])
    assert all(not Y.is_diagonal() for Y in reps[4:])
    assert list(enumerate_reps(1, 1, 0)) == []


def test_enumerate_deterministic_and_valid():
    a = list(enumerate_reps(2, -1, 1))
    b = list(enumerate_reps(2, -1, 1))
    assert a == b
    assert len(set(a)) == len(a)
    # involution count for size 4 is 10; orbit counts give the total
    assert len(a) == sum(3 ** ((4 - 2 * k) + k) * c for k, c in [(0, 1), (1, 6), (2, 3)])


@pytest.mark.parametrize("n,lo,hi", [(1, 0, 0), (1, 1, 0), (1, -2, 2), (2, -1, 1), (2, 0, 2), (3, -1, 0)])
def test_rep_at_follows_enumeration_order(n, lo, hi):
    reps = list(enumerate_reps(n, lo, hi))
    assert count_reps(n, lo, hi) == len(reps)
    assert [rep_at(n, lo, hi, k) for k in range(len(reps))] == reps
    for k in (len(reps), -1):
        with pytest.raises(IndexError):
            rep_at(n, lo, hi, k)


def test_classify_spec_cases():
    Y = diagonal((0, 0))
    ic = classify(Y, 1)
    assert ic.a1 == {1} and ic.c1 == {2}
    assert ic.frak_a == 0 and ic.frak_c == 1 and ic.xi == 0
    W = make_monomial((2, 1), (0, 0))
    ic = classify(W, 1)
    assert ic.b1 == {1} and ic.b2 == {2} and ic.xi == 1
    assert ic.frak_a == 0 and ic.frak_c == 0
    ic0 = classify(W, 0)
    assert ic0.a2 == {1, 2}
    assert not ic0.b1 and not ic0.b2 and not ic0.c1 and not ic0.c2


@given(random_monomial(4), st.integers(0, 4))
def test_classify_partitions(Y, h):
    ic = classify(Y, h)
    sets = [ic.a1, ic.a2, ic.b1, ic.b2, ic.c1, ic.c2]
    union = set()
    total = 0
    for s in sets:
        union |= s
        total += len(s)
    assert union == set(range(1, 5)) and total == 4
    assert len(ic.b1) == len(ic.b2) == ic.xi


def test_dual_wedge_spec_example():
    Y = diagonal((0, 0))
    W = dual_wedge(Y, 1)
    assert W == diagonal((-1, 1))


def test_dual_vee_spec_examples():
    B = diagonal((2, -1))
    assert dual_vee(B, 1) == diagonal((0, 1))
    A1 = a_t(1, 1)
    assert dual_vee(A1, 1) == A1
    anti = make_monomial((2, 1), (0, 0))
    assert dual_vee(anti, 1) == anti


def test_dual_vee_requires_rh():
    anti = make_monomial((2, 1), (0, 0))
    with pytest.raises(ValueError, match="R\\^h"):
        dual_vee(anti, 0)


@given(random_monomial(4), st.integers(0, 4))
def test_wedge_round_trip(Y, h):
    assert dual_wedge(dual_wedge(Y, h), 4 - h) == Y


@given(random_monomial(6), st.integers(0, 6))
def test_wedge_swaps_classes(Y, h):
    ic = classify(Y, h)
    icw = classify(dual_wedge(Y, h), 6 - h)
    assert len(icw.a1) == len(ic.c1) and len(icw.a2) == len(ic.c2)
    assert len(icw.c1) == len(ic.a1) and len(icw.c2) == len(ic.a2)
    assert len(icw.b1) == len(ic.b2) and len(icw.b2) == len(ic.b1)


@given(random_monomial(4), st.integers(0, 4))
def test_wedge_exponent_shift(Y, h):
    # frak counters swap through the e shift: A-indices gain 1, C-indices lose 1
    ic = classify(Y, h)
    W = dual_wedge(Y, h)
    icw = classify(W, 4 - h)
    assert icw.frak_a == sum(1 for j in ic.c1 | ic.c2 if Y.e_of(j) - 1 <= -1)
    assert icw.frak_c == sum(1 for j in ic.a1 | ic.a2 if Y.e_of(j) + 1 <= 0)


def test_is_in_rh():
    assert is_in_Rh(a_t(1, 1), 1) == (True, 0)
    assert is_in_Rh(a_t(1, 1), 0) == (True, 0)
    anti = make_monomial((2, 1), (3, 3))
    assert is_in_Rh(anti, 1) == (True, 1)
    assert is_in_Rh(anti, 0) == (False, None)
    assert is_in_Rh(anti, 2) == (False, None)
    # size 4, h=2, one swap crossing the cut at distance h
    Y = make_monomial((1, 4, 3, 2), (0, 1, 0, 1))
    assert is_in_Rh(Y, 2) == (True, 1)
    assert is_in_Rh(Y, 1) == (False, None)


def test_vee_on_diagonal_matches_exponent_table():
    # diagonal B in R^h has s=0: top exponents shift by -1 into the bottom,
    # bottom exponents shift by +1 into the top
    B = diagonal((2, 1, 0, -1))
    for h in range(5):
        V = dual_vee(B, h)
        cut = 4 - h
        expect = [B.e_of(k - h) - 1 if k > h else B.e_of(k + cut) + 1
                  for k in range(1, 5)]
        assert list(V.e) == expect


def test_weight_profile_validation():
    WeightProfile(2, 3, 1)
    with pytest.raises(ValueError):
        WeightProfile(1, 3, 0)
    with pytest.raises(ValueError):
        WeightProfile(1, 1, 2)
    with pytest.raises(ValueError):
        WeightProfile(1, 1, 1, -1)
