import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from hermdens import locint
from hermdens.errors import BudgetError, InvariantError
from hermdens.locint import (
    COUNT_MAX_VECTORS,
    _collapse,
    _trace_brute,
    charsum_oracle,
    count_modulus,
    count_solutions,
    norm_integral,
    trace_integral_J1,
    trace_pair_integral,
)
from hermdens.symb import SL_ONE, SignedRational, npq

REGIONS = ["O", "O_unit", "piO"]


def test_region_validation():
    with pytest.raises(ValueError, match="units"):
        norm_integral("units", 0)
    with pytest.raises(ValueError, match="units"):
        trace_pair_integral("O", "units", 0)
    with pytest.raises(ValueError, match="units"):
        charsum_oracle(3, "norm", "units", 0, 2)


def test_norm_volumes():
    # e large positive: the character is trivial, integral = volume
    assert norm_integral("O", 5).evaluate(3) == 1
    assert norm_integral("piO", 5).evaluate(3) == Fraction(1, 9)
    assert norm_integral("O_unit", 5).evaluate(3) == Fraction(8, 9)


def test_norm_sign_convention():
    # piO at e=-3 lands on an odd power of s
    assert norm_integral("piO", -3) == SignedRational(npq(-3))
    assert norm_integral("piO", -3).evaluate(3) == Fraction(-1, 27)


def test_norm_oracle_example():
    assert charsum_oracle(3, "norm", "O", -1, 3) == Fraction(-1, 3)
    assert norm_integral("O", -1).evaluate(3) == Fraction(-1, 3)


def test_norm_matches_oracle_p3():
    for e in range(-3, 4):
        for r in REGIONS:
            got = charsum_oracle(3, "norm", r, e, depth=abs(e) + 2)
            assert got == norm_integral(r, e).evaluate(3), (r, e)


def _norm_points(p, region, e):
    """The norm oracle as a literal walk over the p^(2m) residue points of O_E / p^m."""
    mp = max(0, -e)
    m = max(1, mp)
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)  # w^2 = c
    pm, pmp = p ** m, p ** mp
    sq = [a * a % pm for a in range(pm)]
    fibers = {}
    coords = range(0, pm, p) if region == "piO" else range(pm)
    for a in coords:
        for b in coords:
            if region == "O_unit" and a % p == 0 and b % p == 0:
                continue
            v = (sq[a] - c * sq[b]) % pmp if mp else 0
            fibers[v] = fibers.get(v, 0) + 1
    return _collapse(fibers, p, mp) * Fraction(1, pm * pm)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_oracle_matches_point_walk(p):
    # the oracle counts squares per signed region part; the walk visits every point once
    for e in range(-3, 3):
        for r in REGIONS:
            assert charsum_oracle(p, "norm", r, e, abs(e) + 2) == _norm_points(p, r, e), (r, e)


def test_trace_pair_matches_oracle_p3():
    for e in range(-3, 4):
        for r1, r2 in combinations_with_replacement(REGIONS, 2):
            got = charsum_oracle(3, "trace_pair", (r1, r2), e, depth=abs(e) + 2)
            assert got == trace_pair_integral(r1, r2, e).evaluate(3), (r1, r2, e)


def test_trace_pair_oracle_at_p53_e_minus3():
    # at most 8 x 53^3 loop iterations, though the 53^6 residue points are over the limit
    for r1, r2 in combinations_with_replacement(REGIONS, 2):
        got = charsum_oracle(53, "trace_pair", (r1, r2), -3, depth=5)
        assert got == trace_pair_integral(r1, r2, -3).evaluate(53), (r1, r2)


def test_oracle_budget_counts_each_kinds_loop(monkeypatch):
    # the norm kind is held to the 53^2 residue points whose squares it pairs at e = -1,
    # the trace pair kind to 8 x 53^3 loop iterations
    for kind, regions, e, steps in (("norm", "O", -1, 53 ** 2),
                                    ("trace_pair", ("O_unit", "O_unit"), -3, 8 * 53 ** 3)):
        monkeypatch.setattr(locint, "ORACLE_MAX_POINTS", steps)
        assert charsum_oracle(53, kind, regions, e, abs(e) + 2) is not None
        monkeypatch.setattr(locint, "ORACLE_MAX_POINTS", steps - 1)
        with pytest.raises(BudgetError, match=f"limited to {steps - 1} "):
            charsum_oracle(53, kind, regions, e, abs(e) + 2)


def test_oracle_budget_refuses_at_once():
    start = time.perf_counter()
    for kind, regions in (("norm", "O"), ("trace_pair", ("O", "O"))):
        with pytest.raises(BudgetError):
            charsum_oracle(3, kind, regions, -10 ** 12, 10 ** 12 + 2)
    with pytest.raises(BudgetError, match="residue points"):
        charsum_oracle(1000003, "norm", "O", -1, 3)
    # 8 x 1250003 > 10^7; 1249999 is the largest prime accepted at e = -1
    with pytest.raises(BudgetError, match="loop iterations"):
        charsum_oracle(1250003, "trace_pair", ("O", "O"), -1, 3)
    assert time.perf_counter() - start < 1


def test_trace_pair_symmetric():
    for e in range(-4, 3):
        for r1 in REGIONS:
            for r2 in REGIONS:
                assert trace_pair_integral(r1, r2, e) == trace_pair_integral(r2, r1, e)


# unit-region trace values were pinned by the oracle before the closed forms
# went in; the exact fractions at q=3 stay frozen here.

UNIT_FROZEN = [
    ("O_unit", "O", 0, Fraction(8, 9)),
    ("O_unit", "O", -1, Fraction(0)),
    ("O_unit", "piO", 0, Fraction(8, 81)),
    ("O_unit", "piO", -1, Fraction(8, 81)),
    ("O_unit", "piO", -2, Fraction(0)),
    ("O_unit", "O_unit", 0, Fraction(64, 81)),
    ("O_unit", "O_unit", -1, Fraction(-8, 81)),
    ("O_unit", "O_unit", -2, Fraction(0)),
]


@pytest.mark.parametrize("r1,r2,e,value", UNIT_FROZEN)
def test_unit_trace_values_frozen(r1, r2, e, value):
    assert charsum_oracle(3, "trace_pair", (r1, r2), e, depth=abs(e) + 2) == value
    assert trace_pair_integral(r1, r2, e).evaluate(3) == value


def test_unit_trace_symbolic_forms():
    unit_vol = SignedRational(SL_ONE - npq(-2))
    assert trace_pair_integral("O_unit", "O", 3) == unit_vol
    assert trace_pair_integral("O_unit", "piO", -1) == SignedRational(npq(-2)) * unit_vol
    assert trace_pair_integral("O_unit", "O_unit", 0) == unit_vol * unit_vol
    assert trace_pair_integral("O_unit", "O_unit", -1) == \
        SignedRational(npq(-2)) * unit_vol * SignedRational(-1)


def test_factored_trace_equals_quadruple_brute():
    for e in (-1, -2):
        for r1, r2 in combinations_with_replacement(REGIONS, 2):
            a = charsum_oracle(3, "trace_pair", (r1, r2), e, depth=abs(e) + 2)
            assert a == _trace_brute(3, r1, r2, e), (r1, r2, e)


def test_j1_indicator():
    assert trace_integral_J1(0) == SignedRational(1)
    assert trace_integral_J1(4) == SignedRational(1)
    assert trace_integral_J1(-1) == SignedRational(0)


def test_oracle_depth_validation():
    with pytest.raises(ValueError, match="depth"):
        charsum_oracle(3, "norm", "O", -3, 4)
    with pytest.raises(ValueError, match="prime"):
        charsum_oracle(9, "norm", "O", 0, 2)
    with pytest.raises(ValueError):
        charsum_oracle(3, "spin", "O", 0, 2)
    with pytest.raises(ValueError):
        charsum_oracle(3, "trace_pair", "O", 0, 2)


def test_collapse_rejects_orbit_variant_fibers():
    # v = 1 and v = 2 are Galois conjugate mod 3 but carry different counts
    with pytest.raises(InvariantError, match="Galois"):
        _collapse({1: 1}, 3, 1)


def _literal_count(sigma, exps, target, regions, p, d):
    """count_solutions by its definition, with O_E / p^d arithmetic of its own."""
    P = p ** d
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)  # w^2 = c

    def elements(kind):
        points = [(x, y) for x in range(P) for y in range(P)]
        if kind == "O_unit":
            return [(x, y) for x, y in points if x % p or y % p]
        if kind == "piO":
            return [(x, y) for x, y in points if x % p == 0 and y % p == 0]
        return points

    def form(v, u):
        # v A u^* = sum_j v[sigma j] p^exps[j] conj(u[j]), as (real, w) parts
        re = im = 0
        for j, s in enumerate(sigma):
            (x1, y1), (x2, y2) = v[s], u[j]
            re += p ** exps[j] * (x1 * x2 - c * y1 * y2)
            im += p ** exps[j] * (y1 * x2 - x1 * y2)
        return re % P, im % P

    kept = [[v for v in product(*map(elements, reg)) if form(v, v) == (target[i][i] % P, 0)]
            for i, reg in enumerate(regions)]
    if len(regions) == 1:
        return len(kept[0])
    return sum(form(v, u) == (target[0][1] % P, 0) for v in kept[0] for u in kept[1])


def test_count_solutions_matches_literal_count():
    # sigma identity and swap; exps with e = 0, 0 < e < d and e >= d; every region kind
    cases = [
        ((0, 1), (1, 0), [[3, 0], [0, 1]], [("O", "O")] * 2, 3, 2),
        ((1, 0), (0, 1), [[1, 2], [2, 3]], [("O", "O_unit"), ("O_unit", "piO")], 3, 2),
        ((0, 1), (0, 3), [[1, 3], [3, 0]], [("O_unit", "piO"), ("piO", "piO")], 3, 2),
        ((1, 0), (2, 0), [[2, 0], [0, 0]], [("O", "O_unit"), ("O", "O")], 3, 2),
        ((1, 0), (1, 2), [[0, 3], [3, 3]], [("O_unit", "O_unit"), ("O_unit", "O")], 3, 1),
        ((0, 1), (0, 0), [[0, 2], [2, 3]], [("O_unit", "O"), ("O_unit", "O")], 5, 1),
        ((1, 0), (0, 2), [[0, 0], [0, 0]], [("O", "piO"), ("O_unit", "O")], 5, 1),
        ((0, 1), (0, 1), [[1]], [("O", "O_unit")], 3, 2),
        ((1, 0), (0, 2), [[0]], [("piO", "O")], 3, 2),
        ((1, 0), (1, 0), [[2]], [("O", "O")], 3, 1),
        ((0, 1), (0, 0), [[1]], [("O_unit", "O_unit")], 5, 1),
    ]
    for case in cases:
        assert count_solutions(*case) == _literal_count(*case), case


@st.composite
def counting_inputs(draw):
    """Inputs small enough for _literal_count: p^d in {3, 5, 9} and P^(2m) <= 729."""
    p, d = draw(st.sampled_from([(3, 1), (5, 1), (3, 2)]))
    P = p ** d
    m = draw(st.sampled_from([n for n in (3, 2, 1, 0) if P ** (2 * n) <= 729]))
    # the identity, or the first two coordinates swapped (unequal exponents allowed)
    swap = m >= 2 and draw(st.booleans())
    sigma = (1, 0, *range(2, m)) if swap else tuple(range(m))
    exps = tuple(draw(st.integers(0, d + 1)) for _ in range(m))
    k = draw(st.integers(1, 2))
    regions = [tuple(draw(st.sampled_from(REGIONS)) for _ in range(m)) for _ in range(k)]
    target = [[draw(st.integers(0, P - 1)) for _ in range(k)] for _ in range(k)]
    return sigma, exps, target, regions, p, d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(counting_inputs())
def test_count_solutions_matches_literal_count_property(case):
    assert count_solutions(*case) == _literal_count(*case)


def test_count_solutions_rejects_non_involution():
    with pytest.raises(ValueError, match="involution"):
        count_solutions((1, 2, 0), (0, 0, 0), [[1]], [("O",) * 3], 3, 1)


@pytest.mark.parametrize("case", [
    ((0, 1), (0, 0), [[1]], [("O",)], 3, 1),             # region tuple shorter than the form
    ((0,), (0,), [[1]], [("O", "O")], 3, 1),             # longer: was cut and counted
    ((0,), (0,), [[1, 0]], [("O",), ("O",)], 3, 1),      # 1x2 target for two vectors
    ((0,), (0, 0), [[1]], [("O",)], 3, 1),               # more exponents than coordinates
])
def test_count_solutions_rejects_shape_mismatch(case):
    with pytest.raises(ValueError, match="size|target"):
        count_solutions(*case)


def test_count_solutions_rejects_unknown_region():
    # counted as "O" above block modulus 1 and a KeyError at modulus 1 before
    for exps, target in (((0,), [[1]]), ((1,), [[0]])):
        with pytest.raises(ValueError, match="unknown region kind 'units'"):
            count_solutions((0,), exps, target, [("units",)], 3, 1)


def _old_rules_admit(p, d, m, k):
    """Whether one of the three brute-force oracles admitted (p, d, m, k) under the rule
    it kept before count_modulus held the one vector limit."""
    v = p ** (2 * d * m)
    alpha = m >= 1 and p <= 5 and d <= 3 and d * m <= 6 and v <= 6 * 10 ** 5 and (k == 1 or v <= 10 ** 4)
    lattice = d * m <= 5 and v <= 10 ** 5
    stabilizer = m == 2 and k == 2 and d <= 2 and p <= 5
    return alpha or lattice or stabilizer


def test_count_modulus_admits_every_old_oracle_input():
    admitted = [(p, d, m) for p in (3, 5, 7) for d in range(1, 7) for m in range(7)
                for k in (1, 2) if _old_rules_admit(p, d, m, k)]
    assert len(admitted) > 20
    for p, d, m in admitted:
        assert count_modulus(p, d, m) == p ** d


def test_count_modulus_edge():
    assert 773 ** 2 <= COUNT_MAX_VECTORS < 787 ** 2
    assert count_modulus(773, 1, 1) == 773
    assert count_modulus(3, 6, 1) == 3 ** 6
    assert count_modulus(3, 1, 6) == 3
    # m = 0 has one vector at any d, so p^d itself is held to the limit
    assert count_modulus(7, 6, 0) == 7 ** 6
    for p, d, m in ((787, 1, 1), (3, 7, 1), (3, 1, 7), (3, 10 ** 7, 1), (5, 2, 3),
                    (3, 10 ** 7, 0), (3, 13, 0)):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"limited to {COUNT_MAX_VECTORS} vectors"):
            count_modulus(p, d, m)
        assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="odd prime"):
        count_modulus(9, 1, 1)
    with pytest.raises(ValueError, match="depth"):
        count_modulus(3, 0, 1)
