"""Classical representation densities for diagonal hermitian forms.

alpha(A, B) counts solutions of x* A x = B over shrinking residue rings,
normalized so the limit exists: with A of size m, B of size k,

    alpha = lim_d (q^-d)^(k(2m-k)) #{x in M_{m,k}(O_E / pi^d) : A[x] = B}.

Growing the ambient form by unimodular hyperbolic padding turns alpha into
a polynomial in X = s^(-2r), where 2r is the number of padded slots.  The
closed evaluation used here sums over the partitions inside the shifted
target exponents, one column at a time, so partitions that share a column
share its factor; each coefficient is a SignedLaurent, and alpha_value and
alpha_prime canonicalize their sum once into a SignedRational.  Derivatives
follow the same convention as the weighted densities: prime means -d/dX at X = 1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import BudgetError
from .locint import count_modulus, count_solutions
from .symb import SL_ONE, SL_ZERO, SignedLaurent, SignedRational, _unit_prod, npq, qpow


def _check_partition(parts: Sequence[int], what: str) -> tuple[int, ...]:
    t = tuple(int(x) for x in parts)
    if any(x < 0 for x in t):
        raise ValueError(f"{what} must have nonnegative entries, got {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"{what} must be sorted in decreasing order, got {t}")
    return t


def conjugate_partition(parts: Sequence[int]) -> tuple[int, ...]:
    if not parts or parts[0] == 0:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


@lru_cache(maxsize=None)
def gauss_bracket(u: int, v: int) -> SignedLaurent:
    """Gaussian binomial in s^-1, [u-1, v-1] + s^-v [u-1, v]; zero outside 0<=v<=u."""
    if v < 0 or v > u:
        return SL_ZERO
    if v == 0 or v == u:
        return SL_ONE
    return gauss_bracket(u - 1, v - 1) + gauss_bracket(u - 1, v).shifted(-v)


@lru_cache(maxsize=None)
def _transition_factor(top: int, nxt: int, mj: int, mj1: int) -> SignedLaurent:
    """Factor of column j: top, nxt are parts j, j+1 of lt_c, and mj, mj1 those of mu_c."""
    total = SL_ZERO
    for i in range(mj1, min(nxt, mj) + 1):
        # i and 2 nxt + 1 - i differ in parity, so their product is even
        twice = i * (2 * nxt + 1 - i)
        term = gauss_bracket(nxt - mj1, nxt - i) * gauss_bracket(top - i, top - mj)
        total = total + term.shifted(twice // 2)
    return total


# the gauss brackets of a transition factor have degree up to about
# len(lam)^2 / 4.  The walk takes one step per state per column and one per
# transition; 1,909 is the most that any input under the former limit of
# 20,000 subpartition-column terms took, at lam = (4,) * 8 + (3, 3, 0)
HIRONAKA_MAX_PARTS = 12
HIRONAKA_MAX_STEPS = 1_909


def hironaka_coeffs(xi: Sequence[int], lam: Sequence[int]) -> list[SignedLaurent]:
    """Coefficients of the padding polynomial P(X) for alpha(form xi, target lam).

    xi and lam are the diagonal pi-exponents of the two forms, sorted
    decreasing, all nonnegative.  P evaluated at X = s^(-2r) gives alpha
    after padding the xi side with 2r unimodular slots.  BudgetError for more
    than HIRONAKA_MAX_PARTS target exponents, and as soon as the column walk
    takes more than HIRONAKA_MAX_STEPS steps.
    """
    xi_t = _check_partition(xi, "xi")
    lam_t = _check_partition(lam, "lam")
    m = len(xi_t)
    n = len(lam_t)
    if n == 0 or m == 0:
        raise ValueError("both forms must be nonempty")
    lt = tuple(x + 1 for x in lam_t)
    if n > HIRONAKA_MAX_PARTS:
        raise BudgetError(f"partition sum limited to {HIRONAKA_MAX_PARTS} target exponents, got {n}")
    # the walk has a state at each of its lt[0] columns, so a larger first part is refused before any list
    if lt[0] > HIRONAKA_MAX_STEPS:
        raise BudgetError(f"partition sum limited to {HIRONAKA_MAX_STEPS} walk steps")
    lt_c = conjugate_partition(lt) + (0,)
    # only the first lt[0] parts of xi_c meet a mu_c, so larger xi parts are cut there
    xi_c = conjugate_partition(tuple(min(x, lt[0]) for x in xi_t))
    xi_c += (0,) * (lt[0] - len(xi_c))

    def weight(j: int, h: int) -> SignedLaurent:
        # column j (from 0) of mu of height h: (-1)^h s^(-C(h, 2) + (n - m - 1 + xi_c[j]) h)
        return npq((n - m - 1 + xi_c[j]) * h - h * (h - 1) // 2, -1 if h % 2 else 1)

    # walk the columns of mu: a state (h, k) has last column h and |mu| = k so far.  A
    # next column of height 0 ends mu and every later factor is 1, so it goes to coeffs[k]
    coeffs = [SL_ONE] + [SL_ZERO] * sum(lt)
    walk = {(h, h): weight(0, h) for h in range(1, n + 1)}
    steps = 0
    for j in range(1, lt[0] + 1):
        top, nxt = lt_c[j - 1], lt_c[j]
        steps += sum(1 + min(h, nxt) for h, _ in walk)
        if steps > HIRONAKA_MAX_STEPS:
            raise BudgetError(f"partition sum limited to {HIRONAKA_MAX_STEPS} walk steps")
        step: dict[tuple[int, int], SignedLaurent] = {}
        for (h, k), val in walk.items():
            coeffs[k] = coeffs[k] + val * _transition_factor(top, nxt, h, 0)
            for h1 in range(1, min(h, nxt) + 1):
                key = (h1, k + h1)
                term = val * (_transition_factor(top, nxt, h, h1) * weight(j, h1))
                step[key] = step.get(key, SL_ZERO) + term
        walk = step
    return coeffs


def alpha_value(coeffs: Sequence[SignedLaurent], r: int = 0) -> SignedRational:
    if r < 0:
        raise ValueError("padding radius must be nonnegative")
    return SignedRational(sum((c.shifted(-2 * r * k) for k, c in enumerate(coeffs)), SL_ZERO))


def alpha_prime(coeffs: Sequence[SignedLaurent]) -> SignedRational:
    return SignedRational(sum((c * -k for k, c in enumerate(coeffs)), SL_ZERO))


def alpha_diag_unimodular(k: int, m: int, n: int) -> SignedRational:
    """alpha of embedding the unit form of size n into diag(pi 1_k, 1_{m-k})."""
    if not (0 <= k <= m and 1 <= n <= m):
        raise ValueError(f"need 0 <= k <= m and 1 <= n <= m, got {(k, m, n)}")
    r = m - n
    return SignedRational(_unit_prod(range(1 - k + r, n + 1 - k + r)))


def prop_a5_value(n: int, target_size: int) -> SignedRational:
    """Padding-independent alpha of the unit form of size n or n-1 in pi*A_n."""
    if target_size == n:
        shifts = range(1, n + 1)
    elif target_size == n - 1:
        shifts = range(2, n + 1)
    else:
        raise ValueError("target size must be n or n-1")
    return SignedRational(_unit_prod(shifts))


def san_alpha2(a: int, b: int) -> SignedRational:
    """alpha(1_2, diag(pi^a, pi^b)) for a >= b >= 0 with a + b even."""
    _check_san_pair(a, b)
    return SignedRational((SL_ONE - npq(1)) ** 2 * qpow(-3) * (qpow(b + 1) - SL_ONE))


def san_alpha2_prime(a: int, b: int) -> SignedRational:
    """alpha'(diag(1, pi), diag(pi^a, pi^b)) for a >= b >= 0 with a + b even."""
    _check_san_pair(a, b)
    qp1sq = (SL_ONE - npq(1)) ** 2
    first = qp1sq * qpow(-1) * Fraction(a + b, 2)
    inner = qpow(b + 2) - qpow(2) - qpow(1) + SL_ONE
    den = qpow(1) * (qpow(2) - SL_ONE)
    return SignedRational(first * den - qp1sq * inner, den)


def _check_san_pair(a: int, b: int) -> None:
    if not (a >= b >= 0):
        raise ValueError(f"need a >= b >= 0, got {(a, b)}")
    if (a + b) % 2:
        raise ValueError(f"odd determinant valuation {(a, b)} gives density zero")


# ---------------------------------------------------------------------------
# brute counting over O_E / pi^d with O_E = Z_p[w], w^2 a nonresidue


def alpha_brute(ambient: Sequence[int], target: Sequence[int], p: int, d: int,
                pad: int = 0) -> Fraction:
    """Direct solution count for diagonal forms, feasible for k <= 2 columns.

    The ambient form is padded with pad unimodular slots.  The count only
    stabilizes to the true density once d exceeds every target exponent;
    callers pick d accordingly.
    """
    a_exps = tuple(int(x) for x in ambient)
    b_exps = tuple(int(x) for x in target)
    if len(a_exps) + pad == 0 or not b_exps:
        raise ValueError("both forms must be nonempty")
    if min(a_exps + b_exps) < 0:
        raise ValueError("brute counting needs nonnegative exponents")
    if pad < 0:
        raise ValueError("padding must be nonnegative")
    m, k = len(a_exps) + pad, len(b_exps)
    if k > 2:
        raise ValueError("brute counting supports at most 2 target columns")
    # a long padded form is refused before its exponent tuple is built
    P = count_modulus(p, d, m)
    gram = [[pow(p, b, P) if i == j else 0 for j, b in enumerate(b_exps)] for i in range(k)]
    a_exps += (0,) * pad
    count = count_solutions(range(m), a_exps, gram, [("O",) * m] * k, p, d)
    return Fraction(count, p ** (d * k * (2 * m - k)))


# ---------------------------------------------------------------------------
# the J functional at n = 1 and its classical-side evaluations


def jfun_n1(t: int, B) -> SignedRational:
    """(W'_{t,1}(B) - beta_0^t W_{t,0}(B)) * q^5 / (q+1)^2 for 2x2 forms B."""
    from .beta import solve_constants
    from .whit import w_density_n1

    if t not in (0, 1, 2):
        raise ValueError("t must be 0, 1 or 2 at this rank")
    beta0 = solve_constants(1, t).beta_h[0]
    val1, prime1 = w_density_n1(B, t, 1)
    val0, _ = w_density_n1(B, t, 0)
    return (prime1 - beta0 * val0) * SignedRational(qpow(5), (SL_ONE - npq(1)) ** 2)


def thm42_display(a: int, b: int) -> dict:
    """Compare jfun at t = 0 on diag(pi^a, pi^b) with its classical closed form."""
    from .reps import diagonal

    lam = tuple(sorted((a, b), reverse=True))
    lhs = jfun_n1(0, diagonal((a, b)))
    al = alpha_value(hironaka_coeffs((0, 0), lam))
    alp = alpha_prime(hironaka_coeffs((1, 0), lam))
    norm = SignedRational(qpow(1), (SL_ONE - npq(1)) ** 2)
    corr = SignedRational(qpow(2), qpow(2) - SL_ONE)
    rhs = norm * (alp - corr * al)
    return {"lhs": lhs, "rhs": rhs, "match": lhs == rhs}


# ---------------------------------------------------------------------------
# compatibility layer: density products against the classical polynomials


def appendix_compat(n: int, b1_exps: Sequence[int]) -> dict:
    """Cross-check the bottom-rank derivative identity on split forms.

    B1 is the diagonal top block (size n+1, nonnegative exponents); the
    full form appends pi^-1 unit blocks which the product formulas absorb.
    Returns both sides of the identity together with the three densities.
    """
    from .beta import _check_system, solve_constants

    if n < 1:
        raise ValueError(f"appendix needs n >= 1, got n={n}")
    # the constant's system sets the one limit on n, before any partition sum
    _check_system(n, n - 1)
    b1 = _check_partition(tuple(sorted(b1_exps, reverse=True)), "b1")
    if len(b1) != n + 1:
        raise ValueError(f"top block must have size n+1 = {n + 1}")

    al_top = alpha_value(hironaka_coeffs(((0,) * (n + 1)), b1))
    alp_mixed = alpha_prime(hironaka_coeffs((1,) + (0,) * n, b1))

    units = _unit_prod(range(1, n + 1))
    q_m4nn = qpow(-4 * n * n)
    q_n1sq = qpow((n + 1) ** 2)
    w_nn = SignedRational(q_m4nn * units * qpow(n * n) * units)
    w_prime = SignedRational(q_m4nn * qpow(-2 * (n + 1)) * _unit_prod(range(2, n + 1)) * q_n1sq
                             * alp_mixed.num, alp_mixed.den)
    w_low = SignedRational(q_m4nn * _unit_prod(range(1, n)) * q_n1sq * al_top.num, al_top.den)

    beta_last = solve_constants(n, n - 1).beta_h[n - 1]
    lhs = w_prime / w_nn - beta_last * (w_low / w_nn)
    rhs = (alp_mixed / units - al_top / _unit_prod(range(1, n + 2))) / (SL_ONE - npq(1))
    return {
        "w_top": w_nn,
        "w_prime": w_prime,
        "w_low": w_low,
        "lhs": lhs,
        "rhs": rhs,
        "match": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# lattice-map counting oracle


# the number of maps (an int) and its normalized value (a Fraction)
JCount = namedtuple("JCount", "count scaled")


def jcount_oracle(l_exps: Sequence[int], m_exps: Sequence[int], p: int, d: int,
                  kind: str = "J") -> JCount:
    """Count Gram-compatible maps between diagonal lattices mod pi^d.

    kind selects the membership constraint: "J" restricts the image of the
    first basis vector to pi * (dual of M), "J1" restricts the first
    rank/2 + 1 vectors the same way, "I" imposes nothing extra.  The scaled
    value normalizes the count so it stabilizes once d is large enough.
    """
    lv = tuple(int(x) for x in l_exps)
    mv = tuple(int(x) for x in m_exps)
    if min(lv + mv) < 0:
        raise ValueError("exponents must be nonnegative")
    if kind not in ("J", "J1", "I"):
        raise ValueError(f"unknown kind {kind!r}")
    k, m = len(lv), len(mv)
    if kind in ("J", "J1") and k % 2:
        raise ValueError("membership kinds need even rank")
    P = count_modulus(p, d, m)
    restricted = {"J": 1, "J1": k // 2 + 1, "I": 0}[kind]
    # restricted columns lie in pi * (dual of M): coordinate i in pi^max(0, 1 - g_i) O
    member = tuple("piO" if e == 0 else "O" for e in mv)
    gram = [[pow(p, l, P) if i == j else 0 for j, l in enumerate(lv)] for i in range(k)]
    regions = [member if j < restricted else ("O",) * m for j in range(k)]
    count = count_solutions(range(m), mv, gram, regions, p, d)
    scale = Fraction(p) ** (-2 * d * m * k) * Fraction(p) ** ((d - 1) * k * k)
    return JCount(count, count * scale)


def factorization_check(a: int, p: int, d: int) -> dict:
    """Split counting for diag(pi^(a+1), 1) into two rank-one counts."""
    if a < 0 or a % 2:
        raise ValueError("need even a >= 0")
    full = jcount_oracle((a + 1, 0), (1, 0), p, d, kind="J")
    unit_part = jcount_oracle((0,), (1, 0), p, d, kind="I")
    norm_part = jcount_oracle((a + 1,), (1,), p, d, kind="I")
    return {
        "full": full.count,
        "split": unit_part.count * norm_part.count,
        "match": full.count == unit_part.count * norm_part.count,
    }
