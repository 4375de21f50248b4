from fractions import Fraction

import pytest

from hermdens.beta import (
    beta_closed_last,
    build_system,
    solve_constants,
    vandermonde_factor_check,
    vandermonde_inverse_route,
    verify_thm314,
)
from hermdens.errors import BudgetError
from hermdens.reps import diagonal, make_monomial
from hermdens.symb import SL_ONE, SignedLaurent, SignedRational, npq, sr_solve_linear


def test_system_frozen_n1_h1():
    mat, rhs = build_system(1, 1)
    want = [
        [npq(-1), npq(1), npq(-2)],
        [SL_ONE, SL_ONE, npq(-2)],
        [npq(1), npq(-1), npq(-2)],
    ]
    assert mat == [[SignedRational(w) for w in row] for row in want]
    assert rhs == [SignedRational(npq(-2)) * SignedRational(-1),
                   SignedRational(0),
                   SignedRational(npq(-2))]


def test_system_frozen_n1_h0():
    mat, rhs = build_system(1, 0)
    want = [
        [npq(-2), npq(-2), npq(-4)],
        [npq(-1), npq(-3), npq(-4)],
        [SL_ONE, npq(-4), npq(-4)],
    ]
    assert mat == [[SignedRational(w) for w in row] for row in want]
    # offsets run c = -2, -1, 0 here, so the zero lands in the last slot
    assert rhs[2] == SignedRational(0)
    assert rhs[0] == SignedRational(npq(-4)) * SignedRational(-2)


def test_system_builds_no_quotient(rational_builds):
    for n, h in ((1, 0), (2, 1), (3, 6)):
        mat, rhs = build_system(n, h)
        assert all(isinstance(x, SignedLaurent) for row in (*mat, rhs) for x in row)
    assert rational_builds[0] == 0


def test_system_validation():
    with pytest.raises(ValueError):
        build_system(0, 0)
    with pytest.raises(ValueError):
        build_system(1, 3)


def test_beta_first_constants():
    b00 = solve_constants(1, 0).beta_h[0]
    b01 = solve_constants(1, 1).beta_h[0]
    # q^-2 (q^2-1)^-1 and -1/(q(q^2-1))
    assert b00 == SignedRational(npq(-2)) / SignedRational(npq(2) - SL_ONE)
    assert b00.evaluate(3) == Fraction(1, 72)
    assert b01.evaluate(3) == Fraction(-1, 24)
    assert b01.evaluate(5) == Fraction(-1, 120)


def test_delta_values_n1():
    assert solve_constants(1, 0).delta == SignedRational(-1)
    assert solve_constants(1, 1).delta == SignedRational(0)
    assert solve_constants(1, 2).delta == SignedRational(1)


def test_cross_system_coherence():
    # the dual block of the h system is the main block of the 2n-h system
    for n in (1, 2):
        for h in range(0, 2 * n + 1):
            a = solve_constants(n, h)
            b = solve_constants(n, 2 * n - h)
            assert a.beta_dual == b.beta_h, (n, h)


def test_beta_closed_last():
    for n in range(1, 5):
        assert solve_constants(n, n - 1).beta_h[n - 1] == beta_closed_last(n)


def test_vandermonde_factorization():
    for n in (1, 2, 3):
        for h in range(0, 2 * n + 1):
            assert vandermonde_factor_check(n, h)


def test_vandermonde_inverse_route_matches_solver():
    for n in (1, 2, 3):
        for h in range(0, 2 * n + 1):
            mat, rhs = build_system(n, h)
            assert vandermonde_inverse_route(n, h) == sr_solve_linear(mat, rhs)


def test_thm314_identity_spot():
    anti = make_monomial((2, 1), (1, 1))
    for h in (0, 1, 2):
        for B in (diagonal((0, 0)), diagonal((1, -1)), diagonal((2, 1))):
            assert verify_thm314(B, h)["match"], (h, B)
    assert verify_thm314(anti, 1)["match"]


@pytest.mark.parametrize("n,hs", [(1, range(3)), (2, range(5)), (3, range(7)),
                                  (4, range(9)), (6, (0, 5, 12))])
def test_solution_residual(n, hs):
    # multiply back through the system; uses neither solver
    for h in hs:
        mat, rhs = build_system(n, h)
        sol = solve_constants(n, h)
        vec = list(sol.beta_h) + [-b for b in sol.beta_dual] + [sol.delta]
        for row, want in zip(mat, rhs):
            acc = SignedRational(0)
            for a, x in zip(row, vec):
                acc = acc + a * x
            assert acc == want, (n, h)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_beta_closed_last_large_n(n):
    assert solve_constants(n, n - 1).beta_h[n - 1] == beta_closed_last(n)


def test_solve_constants_rejections():
    with pytest.raises(ValueError) as exc:
        solve_constants(1, 3)
    assert not isinstance(exc.value, BudgetError)
    with pytest.raises(BudgetError):
        solve_constants(9, 1)
    # the budget is checked before the range
    with pytest.raises(BudgetError):
        solve_constants(9, 100)


def test_solve_constants_memoized():
    first = solve_constants(2, 1)
    assert solve_constants(2, 1) is first
    assert solve_constants.__wrapped__(2, 1) == first


def test_solve_constants_budget_error_not_cached():
    for _ in range(2):
        with pytest.raises(BudgetError):
            solve_constants(9, 0)


@pytest.mark.parametrize("n,h", [(1, 0), (3, 2), (4, 8)])
def test_one_canonicalization_per_unknown(n, h, monkeypatch):
    calls = []
    init = SignedRational.__init__

    def counting(self, *args, **kw):
        calls.append(1)
        init(self, *args, **kw)
    monkeypatch.setattr(SignedRational, "__init__", counting)
    # the uncached solve: an earlier test may have memoized this (n, h)
    solve_constants.__wrapped__(n, h)
    assert len(calls) == 2 * n + 1
