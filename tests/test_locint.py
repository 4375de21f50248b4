from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hermdens.errors import InvariantError
from hermdens.locint import (
    _collapse,
    _trace_brute,
    charsum_oracle,
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


def test_trace_pair_matches_oracle_p3():
    for e in range(-3, 4):
        for r1, r2 in combinations_with_replacement(REGIONS, 2):
            got = charsum_oracle(3, "trace_pair", (r1, r2), e, depth=abs(e) + 2)
            assert got == trace_pair_integral(r1, r2, e).evaluate(3), (r1, r2, e)


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
