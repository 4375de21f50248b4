"""Classical representation densities for diagonal hermitian forms.

alpha(A, B) counts solutions of x* A x = B over shrinking residue rings,
normalized so the limit exists: with A of size m, B of size k,

    alpha = lim_d (q^-d)^(k(2m-k)) #{x in M_{m,k}(O_E / pi^d) : A[x] = B}.

Growing the ambient form by unimodular hyperbolic padding turns alpha into
a polynomial in X = s^(-2r), where 2r is the number of padded slots.  The
closed evaluation used here expands over subpartitions of the shifted
target exponents; each coefficient is exact in s.  Derivatives follow the
same convention as the weighted densities: prime means -d/dX at X = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import BudgetError, InvariantError
from .locint import _check_prime, count_solutions
from .symb import SL_ONE, SR_ONE, SR_ZERO, SignedRational, npq, qpow


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


def _part_at(parts: Sequence[int], j: int) -> int:
    # 1-indexed with zero padding past the end
    return parts[j - 1] if 1 <= j <= len(parts) else 0


def partition_weight_n(mu: Sequence[int]) -> int:
    return sum(i * p for i, p in enumerate(mu))


def _subpartitions(bound: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # all partitions mu with mu_i <= bound_i, bound decreasing
    n = len(bound)

    def rec(i: int, prev: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(acc)
            return
        for v in range(min(prev, bound[i]), -1, -1):
            acc.append(v)
            yield from rec(i + 1, v, acc)
            acc.pop()

    yield from rec(0, bound[0] if n else 0, [])


def _count_subpartitions(bound: Sequence[int]) -> int:
    """Number of partitions _subpartitions(bound) yields, without listing them."""
    # ways[v]: decreasing prefixes ending in the part v
    ways = [1] * (bound[0] + 1)
    for b in bound[1:]:
        acc, nxt = 0, [0] * (b + 1)
        for v in range(len(ways) - 1, -1, -1):
            acc += ways[v]
            if v <= b:
                nxt[v] = acc
        ways = nxt
    return sum(ways)


@lru_cache(maxsize=None)
def gauss_bracket(u: int, v: int) -> SignedRational:
    """Product-form binomial built from (1 - s^-i) factors; zero outside 0<=v<=u."""
    if v < 0 or v > u:
        return SR_ZERO
    num = SL_ONE
    for i in range(1, u + 1):
        num = num * (SL_ONE - npq(-i))
    den = SL_ONE
    for i in range(1, v + 1):
        den = den * (SL_ONE - npq(-i))
    for i in range(1, u - v + 1):
        den = den * (SL_ONE - npq(-i))
    return SignedRational(num, den)


@lru_cache(maxsize=None)
def _transition_factor(top: int, nxt: int, mj: int, mj1: int) -> SignedRational:
    """Factor of column j: top, nxt are parts j, j+1 of lt_c, and mj, mj1 those of mu_c."""
    total = SR_ZERO
    for i in range(mj1, min(nxt, mj) + 1):
        twice = i * (2 * nxt + 1 - i)
        if twice % 2:
            raise InvariantError(f"odd exponent {twice}/2 at i={i}, next part {nxt}")
        term = SignedRational(npq(twice // 2))
        term = term * gauss_bracket(nxt - mj1, nxt - i)
        term = term * gauss_bracket(top - i, top - mj)
        total = total + term
    return total


# the gauss brackets of a transition factor have degree up to about
# len(lam)^2 / 4, and the expansion multiplies one factor per subpartition
# of lam + 1 and column (lam[0] + 1 of them); both are checked before any work
HIRONAKA_MAX_PARTS = 12
HIRONAKA_MAX_TERMS = 20_000


def hironaka_coeffs(xi: Sequence[int], lam: Sequence[int]) -> list[SignedRational]:
    """Coefficients of the padding polynomial P(X) for alpha(form xi, target lam).

    xi and lam are the diagonal pi-exponents of the two forms, sorted
    decreasing, all nonnegative.  P evaluated at X = s^(-2r) gives alpha
    after padding the xi side with 2r unimodular slots.
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
    # (v, 0, ..., 0) is a subpartition for every v <= lt[0], so a first part
    # over the square root of the limit fails without counting
    if lt[0] ** 2 > HIRONAKA_MAX_TERMS or _count_subpartitions(lt) * lt[0] > HIRONAKA_MAX_TERMS:
        raise BudgetError(f"partition sum limited to {HIRONAKA_MAX_TERMS} subpartition-column terms")
    lt_c = conjugate_partition(lt)
    # only the first lt[0] parts of xi_c meet a mu_c, so larger xi parts are cut there
    xi_c = conjugate_partition(tuple(min(x, lt[0]) for x in xi_t))
    coeffs = [SR_ZERO] * (sum(lt) + 1)
    for mu in _subpartitions(lt):
        k = sum(mu)
        mu_c = conjugate_partition(mu)
        pair = sum(a * b for a, b in zip(xi_c, mu_c))
        exp = -partition_weight_n(mu) + (n - m - 1) * k + pair
        base = SignedRational(npq(exp))
        if k % 2:
            base = base * SignedRational(-1)
        prod = base
        for j in range(1, lam_t[0] + 2):
            prod = prod * _transition_factor(_part_at(lt_c, j), _part_at(lt_c, j + 1),
                                             _part_at(mu_c, j), _part_at(mu_c, j + 1))
            if prod == SR_ZERO:
                break
        coeffs[k] = coeffs[k] + prod
    return coeffs


def alpha_value(coeffs: Sequence[SignedRational], r: int = 0) -> SignedRational:
    if r < 0:
        raise ValueError("padding radius must be nonnegative")
    total = SR_ZERO
    for k, c in enumerate(coeffs):
        total = total + c * SignedRational(npq(-2 * r * k))
    return total


def alpha_prime(coeffs: Sequence[SignedRational]) -> SignedRational:
    total = SR_ZERO
    for k, c in enumerate(coeffs):
        if k:
            total = total + c * SignedRational(-k)
    return total


def alpha_diag_unimodular(k: int, m: int, n: int) -> SignedRational:
    """alpha of embedding the unit form of size n into diag(pi 1_k, 1_{m-k})."""
    if not (0 <= k <= m and 1 <= n <= m):
        raise ValueError(f"need 0 <= k <= m and 1 <= n <= m, got {(k, m, n)}")
    r = m - n
    prod = SR_ONE
    for l in range(1, n + 1):
        prod = prod * SignedRational(SL_ONE - npq(-l + k - r))
    return prod


def prop_a5_value(n: int, target_size: int) -> SignedRational:
    """Padding-independent alpha of the unit form of size n or n-1 in pi*A_n."""
    if target_size == n:
        shifts = range(1, n + 1)
    elif target_size == n - 1:
        shifts = range(2, n + 1)
    else:
        raise ValueError("target size must be n or n-1")
    prod = SR_ONE
    for l in shifts:
        prod = prod * SignedRational(SL_ONE - npq(-l))
    return prod


def san_alpha2(a: int, b: int) -> SignedRational:
    """alpha(1_2, diag(pi^a, pi^b)) for a >= b >= 0 with a + b even."""
    _check_san_pair(a, b)
    qp1sq = (SL_ONE - npq(1)) ** 2
    val = SignedRational(qp1sq) * SignedRational(qpow(-3))
    return val * SignedRational(qpow(b + 1) - SL_ONE)


def san_alpha2_prime(a: int, b: int) -> SignedRational:
    """alpha'(diag(1, pi), diag(pi^a, pi^b)) for a >= b >= 0 with a + b even."""
    _check_san_pair(a, b)
    qp1sq = SignedRational((SL_ONE - npq(1)) ** 2)
    first = qp1sq * SignedRational(qpow(-1)) * SignedRational(Fraction(a + b, 2))
    inner = qpow(b + 2) - qpow(2) - qpow(1) + SL_ONE
    second = qp1sq / SignedRational(qpow(1) * (qpow(2) - SL_ONE)) * SignedRational(inner)
    return first - second


def _check_san_pair(a: int, b: int) -> None:
    if not (a >= b >= 0):
        raise ValueError(f"need a >= b >= 0, got {(a, b)}")
    if (a + b) % 2:
        raise ValueError(f"odd determinant valuation {(a, b)} gives density zero")


# ---------------------------------------------------------------------------
# brute counting over O_E / pi^d with O_E = Z_p[w], w^2 a nonresidue


def alpha_brute(ambient: Sequence[int], target: Sequence[int], p: int, d: int) -> Fraction:
    """Direct solution count for diagonal forms, feasible for k <= 2 columns.

    The count only stabilizes to the true density once d exceeds every
    target exponent; callers pick d accordingly.
    """
    a_exps = tuple(int(x) for x in ambient)
    b_exps = tuple(int(x) for x in target)
    if min(a_exps + b_exps) < 0:
        raise ValueError("brute counting needs nonnegative exponents")
    m, k = len(a_exps), len(b_exps)
    if k > 2:
        raise ValueError("brute counting supports at most 2 target columns")
    _check_prime(p)
    if p > 5 or d > 3 or p ** (2 * d * m) > 6 * 10 ** 5:
        raise BudgetError("brute counting budget exceeded")
    if k == 2 and p ** (2 * d * m) > 10 ** 4:
        raise BudgetError("pair counting budget exceeded")
    gram = [[pow(p, b) if i == j else 0 for j, b in enumerate(b_exps)] for i in range(k)]
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
    norm = SignedRational(qpow(5)) / SignedRational((SL_ONE - npq(1)) ** 2)
    return (prime1 - beta0 * val0) * norm


def thm42_display(a: int, b: int) -> dict:
    """Compare jfun at t = 0 on diag(pi^a, pi^b) with its classical closed form."""
    from .reps import diagonal

    lam = tuple(sorted((a, b), reverse=True))
    lhs = jfun_n1(0, diagonal((a, b)))
    al = alpha_value(hironaka_coeffs((0, 0), lam))
    alp = alpha_prime(hironaka_coeffs((1, 0), lam))
    norm = SignedRational(qpow(1)) / SignedRational((SL_ONE - npq(1)) ** 2)
    corr = SignedRational(qpow(2)) / SignedRational(qpow(2) - SL_ONE)
    rhs = norm * (alp - corr * al)
    return {"lhs": lhs, "rhs": rhs, "match": lhs == rhs}


# ---------------------------------------------------------------------------
# compatibility layer: density products against the classical polynomials


# appendix --n; its correction constant also needs n <= beta.SOLVE_MAX_N, and
# its partition sums stay within the hironaka_coeffs limits
APPENDIX_MAX_N = 8


def appendix_compat(n: int, b1_exps: Sequence[int]) -> dict:
    """Cross-check the bottom-rank derivative identity on split forms.

    B1 is the diagonal top block (size n+1, nonnegative exponents); the
    full form appends pi^-1 unit blocks which the product formulas absorb.
    Returns both sides of the identity together with the three densities.
    """
    from .beta import solve_constants

    if n > APPENDIX_MAX_N:
        raise BudgetError(f"appendix identity limited to n <= {APPENDIX_MAX_N}, got n={n}")
    b1 = _check_partition(tuple(sorted(b1_exps, reverse=True)), "b1")
    if len(b1) != n + 1:
        raise ValueError(f"top block must have size n+1 = {n + 1}")

    def unit_prod(shifts) -> SignedRational:
        prod = SR_ONE
        for l in shifts:
            prod = prod * SignedRational(SL_ONE - npq(-l))
        return prod

    q_m4nn = SignedRational(qpow(-4 * n * n))
    xi_mixed = _check_partition((1,) + (0,) * n, "xi")
    al_top = alpha_value(hironaka_coeffs(((0,) * (n + 1)), b1))
    alp_mixed = alpha_prime(hironaka_coeffs(xi_mixed, b1))

    w_nn = q_m4nn * unit_prod(range(1, n + 1)) * SignedRational(qpow(n * n)) \
        * unit_prod(range(1, n + 1))
    w_prime = q_m4nn * SignedRational(qpow(-2 * (n + 1))) \
        * unit_prod(range(2, n + 1)) * SignedRational(qpow((n + 1) ** 2)) * alp_mixed
    w_low = q_m4nn * unit_prod(range(1, n)) * SignedRational(qpow((n + 1) ** 2)) * al_top

    beta_last = solve_constants(n, n - 1).beta_h[n - 1]
    lhs = w_prime / w_nn - beta_last * (w_low / w_nn)
    qp1 = SignedRational(SL_ONE - npq(1))
    rhs = (alp_mixed / unit_prod(range(1, n + 1))
           - al_top / unit_prod(range(1, n + 2))) / qp1
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


@dataclass(frozen=True)
class JCount:
    count: int
    scaled: Fraction


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
    _check_prime(p)
    if p ** (2 * d * m) > 10 ** 5 or k > 2:
        raise BudgetError("counting budget exceeded")
    restricted = {"J": 1, "J1": k // 2 + 1, "I": 0}[kind]
    # restricted columns lie in pi * (dual of M): coordinate i in pi^max(0, 1 - g_i) O
    member = tuple("piO" if e == 0 else "O" for e in mv)
    gram = [[pow(p, l) if i == j else 0 for j, l in enumerate(lv)] for i in range(k)]
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
