from fractions import Fraction

import pytest

from hermdens.beta import (
    SOLVE_MAX_N,
    _nodes,
    beta_closed_last,
    build_system,
    solve_constants,
    vandermonde_factor_check,
    vandermonde_inverse_route,
    verify_thm314,
)
from hermdens.errors import BudgetError
from hermdens.reps import diagonal, make_monomial
from hermdens.symb import SL_ONE, SL_ZERO, SignedLaurent, SignedRational, npq, sr_solve_linear


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


def _lagrange_reference(n, h):
    """The system solved by expanding Lagrange coefficients, the route's closed form unexpanded.

    Scaling by s^{2n(2n-h)} turns row i (0-based) of the right hand side into
    the integer c_i = i - (2n-h).  With l_ij the z^{2n-j} coefficient of
    prod_{m != i} (1 - x_m z), unknown i is
    sum_j c_j l_ij / (alpha_i prod_{m != i} (x_m - x_i)).
    """
    xs, al = _nodes(n, h)
    N = 2 * n + 1
    cut = 2 * n - h
    out = []
    for i in range(N):
        coeffs = [SL_ONE]
        den = al[i]
        for m in range(N):
            if m == i:
                continue
            grown = coeffs + [SL_ZERO]
            for k, ck in enumerate(coeffs):
                grown[k + 1] = grown[k + 1] - ck * xs[m]
            coeffs = grown
            den = den * (xs[m] - xs[i])
        num = SL_ZERO
        for j in range(N):
            num = num + coeffs[N - 1 - j] * (j - cut)
        out.append(SignedRational(num, den))
    return out


def _coeff_types(x):
    return [type(c) for part in (x.num, x.den) for _, c in sorted(part.coeffs.items())]


@pytest.mark.parametrize("n,hs", [(n, range(2 * n + 1)) for n in range(1, 7)]
                         + [(8, (0, 7, 8, 16))])
def test_closed_products_match_lagrange_reference(n, hs):
    for h in hs:
        got = vandermonde_inverse_route(n, h)
        want = _lagrange_reference(n, h)
        assert len(got) == len(want) == 2 * n + 1
        for x, y in zip(got, want):
            assert repr(x) == repr(y), (n, h)
            assert x.to_json() == y.to_json(), (n, h)
            assert _coeff_types(x) == _coeff_types(y), (n, h)


@pytest.mark.parametrize("n", range(1, SOLVE_MAX_N + 1))
def test_edge_residual_at_primes_and_duality(n):
    # M x = b in Fractions at three primes, every h up to the solve limit
    for h in range(2 * n + 1):
        mat, rhs = build_system(n, h)
        sol = solve_constants(n, h)
        vec = [*sol.beta_h, *(-b for b in sol.beta_dual), sol.delta]
        for q in (3, 5, 7):
            xs = [x.evaluate(q) for x in vec]
            for row, want in zip(mat, rhs):
                assert sum(a.evaluate(q) * x for a, x in zip(row, xs)) == want.evaluate(q), (n, h, q)
        # the dual block of the h system is the main block of the 2n-h system
        assert sol.beta_dual == solve_constants(n, 2 * n - h).beta_h, (n, h)


def test_elimination_gives_delta_h_minus_n():
    for n in range(1, 5):
        for h in range(2 * n + 1):
            mat, rhs = build_system(n, h)
            assert sr_solve_linear(mat, rhs)[-1] == SignedRational(h - n), (n, h)


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
