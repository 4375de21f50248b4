"""Weighted representation densities for hermitian monomial forms.

The density W_{h,t}(B, r) is an infinite sum over monomial hermitian forms Y
of a product of three factors:

    gram_g(Y, B)       local character integrals over the entry slots
    profile value      a pure power of s = -q controlled by the index classes
    1 / alpha(Y)       the Iwahori stabilizer density of Y

Everything stays exact.  Each of the three factors, and so each term, has
the form c s^N (s-1)^A (s+1)^B and is carried as the tuple (c, N, A, B) with c
a nonzero rational (an int for slot and gram values); the form is unique, so
tuple equality is value equality.
The finite kink region is summed over one common denominator and
canonicalized once; the tails beyond it are geometric, which the code checks
as exponent differences before summing them in closed form.

Derivatives are taken against the lattice scaling variable X = s^{-2r} with
the sign convention  prime = -d/dX at X = 1,  so a monomial c X^m has prime
-m c.  Profile values are c X^{-S} with S the slope, hence prime = S c.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import BudgetError, InvariantError
from .locint import _check_prime, count_solutions, norm_term, trace_pair_term
from .reps import MonomialHermitian, WeightProfile, classify, diagonal, make_monomial
from .symb import SL_ONE, SR_ZERO, SignedLaurent, SignedRational, _expand, _pm_coeffs, _pm_poly, npq


def _min0(x: int) -> int:
    return x if x < 0 else 0


# ---------------------------------------------------------------------------
# factored terms: the tuple (c, N, A, B) stands for c s^N (s-1)^A (s+1)^B


def _tmul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


def _numerator(weighted: list, low: tuple) -> SignedLaurent:
    """Sum of w * term times s^-N0 (s-1)^-A0 (s+1)^-B0, low = (N0, A0, B0).

    low is at most every term's exponents, so each summand is a polynomial;
    coefficients accumulate as integers over the common denominator of the c.
    """
    n0, a0, b0 = low
    den = 1
    for _, t in weighted:
        den = lcm(den, t[0].denominator)
    acc: dict[int, int] = {}
    for w, (c, n, a, b) in weighted:
        k = w * c.numerator * (den // c.denominator)
        for e, x in enumerate(_pm_coeffs(a - a0, b - b0), n - n0):
            if x:
                acc[e] = acc.get(e, 0) + k * x
    return SignedLaurent({e: Fraction(v, den) for e, v in acc.items()})


def _evaluate(term: tuple, q: int) -> Fraction:
    """Value of a factored term at s = -q."""
    s = -Fraction(q)
    if s == 0:
        raise ValueError("cannot evaluate at q = 0")
    c, n, a, b = term
    return c * s ** n * (s - 1) ** a * (s + 1) ** b


# ---------------------------------------------------------------------------
# gram products


def _slot_region(k: int, j: int) -> str:
    if k < j:
        return "O"
    if k == j:
        return "O_unit"
    return "piO"


@lru_cache(maxsize=None)
def _slot_factor(r1: str, r2, exp: int):
    """Slot table value as a factored term, None when zero; r2 is None on a fixed slot."""
    return norm_term(r1, exp) if r2 is None else trace_pair_term(r1, r2, exp)


@lru_cache(maxsize=None)
def _gram_plan(ysigma: tuple, bsigma: tuple) -> tuple:
    """The slot orbits a gram product visits, one (r1, r2, j, k) per orbit.

    Slot (k, j) pairs with (tau(k), sigma(j)); the orbit's exponent is
    Y.e[j] + B.e[k] (0-based j, k) and r2 is None on a fixed slot.  Only the
    exponents vary between pairs sharing the two involutions.
    """
    plan = []
    for k in range(1, len(bsigma) + 1):
        for j in range(1, len(ysigma) + 1):
            pk, pj = bsigma[k - 1], ysigma[j - 1]
            if (pk, pj) < (k, j):
                continue
            r2 = None if (pk, pj) == (k, j) else _slot_region(pk, pj)
            plan.append((_slot_region(k, j), r2, j - 1, k - 1))
    return tuple(plan)


def _gram_factor(Y: MonomialHermitian, B: MonomialHermitian):
    """gram_g(Y, B) as a factored term, None when it vanishes."""
    if Y.size != B.size:
        raise ValueError("size mismatch")
    ye, be = Y.e, B.e
    c, n, a, b = 1, 0, 0, 0
    for r1, r2, j, k in _gram_plan(Y.sigma, B.sigma):
        f = _slot_factor(r1, r2, ye[j] + be[k])
        if f is None:
            return None
        c *= f[0]
        n += f[1]
        a += f[2]
        b += f[3]
    return c, n, a, b


def gram_g(Y: MonomialHermitian, B: MonomialHermitian) -> SignedRational:
    """Product of slot integrals for the pair (Y, B).

    Slots (k, j) are paired by (k, j) -> (tau(k), sigma(j)); fixed slots give
    norm integrals, two-element orbits give trace pair integrals.  The slot
    exponent e_j + lam_k is orbit constant.
    """
    g = _gram_factor(Y, B)
    return SR_ZERO if g is None else _expand(g)


def gram_fingerprint(Y: MonomialHermitian, B: MonomialHermitian) -> tuple:
    """Canonical encoding of gram_g(Y, B) for bulk equality sweeps.

    Returns the factored term (c, N, A, B) of the product, (0, 0) when it
    vanishes.  The form c s^N (s-1)^A (s+1)^B of a nonzero value is unique,
    so fingerprints are equal exactly when the gram values are equal, at a
    fraction of the cost of building them.
    """
    g = _gram_factor(Y, B)
    return (0, 0) if g is None else g


# ---------------------------------------------------------------------------
# profile exponents


def _profile_items(Y: MonomialHermitian, h: int):
    """Per-orbit exponent contributions (m_coef, t_coef, t_const).

    The full profile exponent is sum(M*m_coef + T*t_coef + T*t_const) with
    M = 2n - t + 2r and T = t.
    """
    cls = classify(Y, h)
    items = []
    for j in sorted(cls.a1):
        e = Y.e_of(j)
        items.append((_min0(e), _min0(e + 1), -2))
    for j in sorted(cls.a2):
        if Y.sigma_of(j) > j:
            e = Y.e_of(j)
            items.append((2 * _min0(e), 2 * _min0(e + 1), -4))
    for j in sorted(cls.b1):
        e = Y.e_of(j)
        items.append((2 * _min0(e), 2 * _min0(e), -2))
    for j in sorted(cls.c1):
        e = Y.e_of(j)
        items.append((_min0(e), _min0(e - 1), 0))
    for j in sorted(cls.c2):
        if Y.sigma_of(j) > j:
            e = Y.e_of(j)
            items.append((2 * _min0(e), 2 * _min0(e - 1), 0))
    return items


def slope_of(Y: MonomialHermitian) -> int:
    """Power of X = s^{-2r} in the profile, negated: sum of min(0, e_j)."""
    return sum(_min0(e) for e in Y.e)


def profile_f(Y: MonomialHermitian, prof: WeightProfile):
    """Product form of the profile factor.

    Returns (f_base, slope, value): value = s^N at the profile's r,
    f_base the same at r = 0, slope the X-exponent sign-flipped so that
    value = f_base * X^{-slope}.
    """
    base_exp, m_sum = _profile_exps(Y, prof)
    value = SignedRational(npq(base_exp + 2 * prof.r * m_sum))
    return SignedRational(npq(base_exp)), m_sum, value


def _profile_exps(Y: MonomialHermitian, prof: WeightProfile) -> tuple[int, int]:
    """(base_exp, slope): the profile value is s^(base_exp + 2 r slope)."""
    if Y.size != 2 * prof.n:
        raise ValueError("size mismatch")
    items = _profile_items(Y, prof.h)
    t = prof.t
    m_sum = sum(a for a, _, _ in items)
    base_exp = (2 * prof.n - t) * m_sum + sum(t * b + t * c for _, b, c in items)
    return base_exp, m_sum


def f_plain(Y: MonomialHermitian, h: int) -> SignedRational:
    """Profile with both multipliers set to n and no constant terms."""
    n = Y.n
    items = _profile_items(Y, h)
    return SignedRational(npq(sum(n * a + n * b for a, b, _ in items)))


def profile_statement(Y: MonomialHermitian, prof: WeightProfile) -> SignedRational:
    """Closed rearrangement of profile_f at r = 0 via the class counters."""
    cls = classify(Y, prof.h)
    n, t, h = prof.n, prof.t, prof.h
    shift = (n - t) * (cls.frak_c - cls.frak_a) - 2 * t * (2 * n - h)
    return SignedRational(npq(shift)) * f_plain(Y, prof.h)


def profile_f_prime(Y: MonomialHermitian, prof: WeightProfile) -> SignedRational:
    """prime of the profile at X = 1; only meaningful with prof.r == 0."""
    if prof.r != 0:
        raise ValueError("prime is taken at r = 0")
    _, slope, value = profile_f(Y, prof)
    return SignedRational(slope) * value


def dual_slope(Y: MonomialHermitian, h: int) -> int:
    """Slope of the wedge dual, computed on Y itself by shifting the mins."""
    cls = classify(Y, h)
    total = 0
    for j in range(1, Y.size + 1):
        e = Y.e_of(j)
        if j in cls.a1 or j in cls.a2:
            total += _min0(e + 1)
        elif j in cls.c1 or j in cls.c2:
            total += _min0(e - 1)
        else:
            total += _min0(e)
    return total


# ---------------------------------------------------------------------------
# Iwahori stabilizer density, n = 1


def _alpha_factor(Y: MonomialHermitian) -> tuple:
    """alpha_iwahori_n1(Y) as a factored term (c, N, A, B)."""
    if Y.size != 2:
        raise ValueError("closed forms cover 2x2 only")
    if Y.is_diagonal():
        m1, m2 = Y.e
        k = -4 + m1 + 3 * m2 if m1 >= m2 else -2 + 3 * m1 + m2
        # (q + 1)^2 q^k = (s - 1)^2 (-1)^k s^k
        return Fraction(-1 if k % 2 else 1), k, 2, 0
    # q (q^2 - 1) q^(4e - 4) = -s (s - 1) (s + 1) s^(4e - 4)
    return Fraction(-1), 4 * Y.e_of(1) - 3, 1, 1


def alpha_iwahori_n1(Y: MonomialHermitian) -> SignedRational:
    return _expand(_alpha_factor(Y))


def alpha_iwahori_brute(Y: MonomialHermitian, p: int, d: int) -> Fraction:
    """Count Iwahori cosets mod pi^d stabilizing Y, scaled by q^{-4d}.

    Entries live in the unramified quadratic extension modulo p^d, written
    x + y w with w^2 a nonresidue.  Exponents of Y must be nonnegative so the
    congruence closes over integers.  Small budgets only.
    """
    if Y.size != 2:
        raise ValueError("brute force covers 2x2 only")
    _check_prime(p)
    if d > 2 or p > 5:
        raise BudgetError("budget: d <= 2 and p <= 5")
    if min(Y.e) < 0:
        raise ValueError("nonnegative exponents only")

    sigma = [s - 1 for s in Y.sigma]
    ymat = [[pow(p, Y.e[j]) if sigma[j] == i else 0 for j in range(2)] for i in range(2)]
    count = count_solutions(sigma, Y.e, ymat, [("O_unit", "O"), ("piO", "O_unit")], p, d)
    return Fraction(count, p ** (4 * d))


# ---------------------------------------------------------------------------
# the weighted density, n = 1


def _antidiag(e: int) -> MonomialHermitian:
    return make_monomial((2, 1), (e, e))


def _density_term(Y: MonomialHermitian, B: MonomialHermitian, prof: WeightProfile):
    """gram_g(Y, B) * profile / alpha_iwahori_n1(Y) factored, None when zero."""
    g = _gram_factor(Y, B)
    if g is None:
        return None
    base_exp, slope = _profile_exps(Y, prof)
    a = _alpha_factor(Y)
    return g[0] / a[0], g[1] + base_exp + 2 * prof.r * slope - a[1], g[2] - a[2], g[3] - a[3]


def _ratio(later, first: tuple) -> tuple:
    if later is None:
        raise InvariantError("tail vanishes after a nonzero term")
    return (later[0] / first[0], later[1] - first[1], later[2] - first[2],
            later[3] - first[3])


def _check_contracting(rho: tuple) -> None:
    """The tail ratio must be c s^k with k < 0 and |c| <= 1, so the series converges at every prime."""
    c, n, a, b = rho
    if a or b:
        raise InvariantError(f"tail ratio not monomial: {rho!r}")
    if n >= 0 or abs(c) > 1:
        raise InvariantError(f"tail ratio does not contract: {rho!r}")


def _close(box: list, tails: dict) -> SignedRational:
    """Exact sum of weighted box terms plus the tails.

    box holds (weight, term) pairs; tails maps a tuple of ratios to the
    (weight, first term) pairs of the series sharing them, each series
    summing to first / prod(1 - ratio).  Everything goes over one common
    denominator and is canonicalized once.
    """
    every = box + [x for group in tails.values() for x in group]
    if not every:
        return SR_ZERO
    low = tuple(min(t[i] for _, t in every) for i in (1, 2, 3))
    num = _numerator(box, low)
    den = SL_ONE
    for ratios, group in tails.items():
        prod = SL_ONE
        for c, n, _, _ in ratios:
            prod = prod * (SL_ONE - SignedLaurent.monomial(n, c))
        num = num * prod + _numerator(group, low) * den
        den = den * prod
    n0, a0, b0 = low
    num = num.shifted(n0) * _pm_poly(max(a0, 0), max(b0, 0))
    den = den * _pm_poly(max(-a0, 0), max(-b0, 0))
    return SignedRational(num, den)


# the summed box has (2K + 1)^2 terms with K = max|e| + kink_pad
DENSITY_MAX_EXP = 300
# numeric partial sums carry q-adic numerators, so their cost grows with q;
# this admits every prime that verify (q <= 53) evaluates at
NUMERIC_MAX_Q = 53


def w_density_n1(B: MonomialHermitian, h: int, t: int, r: int = 0,
                 kink_pad: int = 4):
    """Exact value and prime of the weighted density over all 2x2 forms.

    Terms vanish identically below -K and follow exact geometric
    progressions above +K in each exponent direction, where K exceeds every
    kink of the piecewise structure; kink_pad sets the safety margin and the
    result does not depend on it (there is a test for that).
    """
    if B.size != 2:
        raise ValueError("n = 1 only")
    top = max(abs(l) for l in B.e)
    if top > DENSITY_MAX_EXP:
        raise BudgetError(f"exact density limited to max|e| <= {DENSITY_MAX_EXP}, got {top}")
    prof = WeightProfile(1, h, t, r)
    K = top + kink_pad

    # the tail probes and corner walks revisit terms; memo per call only
    @lru_cache(maxsize=None)
    def dterm(m1, m2):
        return _density_term(diagonal((m1, m2)), B, prof)

    @lru_cache(maxsize=None)
    def aterm(e):
        return _density_term(_antidiag(e), B, prof)

    box, dbox = [], []
    for m1 in range(-K, K + 1):
        for m2 in range(-K, K + 1):
            tm = dterm(m1, m2)
            if tm is None:
                continue
            box.append((1, tm))
            s = _min0(m1) + _min0(m2)
            if s:
                dbox.append((s, tm))
    for e in range(-K, K + 1):
        tm = aterm(e)
        if tm is None:
            continue
        box.append((1, tm))
        s = 2 * _min0(e)
        if s:
            dbox.append((s, tm))

    # below -K every term dies on a unit-region integral; spot check
    for probe in (dterm(-K - 1, 0), dterm(0, -K - 1), dterm(-K - 1, K + 1),
                  aterm(-K - 1)):
        if probe is not None:
            raise InvariantError("term survives below the cutoff")

    tails: dict = {}
    dtails: dict = {}

    def strip(t1, t2, t3, slope):
        if t1 is None:
            if t2 is not None:
                raise InvariantError("tail restarts after a zero")
            return
        rho = _ratio(t2, t1)
        if t3 != _tmul(t2, rho):
            raise InvariantError("tail is not geometric")
        _check_contracting(rho)
        tails.setdefault((rho,), []).append((1, t1))
        if slope:
            dtails.setdefault((rho,), []).append((slope, t1))

    for m2 in range(-K, K + 1):
        strip(dterm(K + 1, m2), dterm(K + 2, m2), dterm(K + 3, m2), _min0(m2))
    for m1 in range(-K, K + 1):
        strip(dterm(m1, K + 1), dterm(m1, K + 2), dterm(m1, K + 3), _min0(m1))
    strip(aterm(K + 1), aterm(K + 2), aterm(K + 3), 0)

    def corner(i, j, di, dj):
        # the cone from (i, j), walked along (di, dj) and along the diagonal
        v, step, diag = dterm(i, j), dterm(i + di, j + dj), dterm(i + 1, j + 1)
        if v is None:
            if step is not None or diag is not None:
                raise InvariantError("corner restarts after a zero")
            return
        rho, rhod = _ratio(step, v), _ratio(diag, v)
        if (dterm(i + 2 * di, j + 2 * dj) != _tmul(step, rho)
                or dterm(i + 1 + di, j + 1 + dj) != _tmul(diag, rho)
                or dterm(i + 2, j + 2) != _tmul(diag, rhod)):
            raise InvariantError("corner is not geometric")
        _check_contracting(rho)
        _check_contracting(rhod)
        tails.setdefault((rho, rhod), []).append((1, v))

    corner(K + 1, K + 1, 1, 0)  # m1 >= m2 > K
    corner(K + 1, K + 2, 0, 1)  # m2 > m1 > K

    return _close(box, tails), _close(dbox, dtails)


def w_density_truncated(B: MonomialHermitian, prof: WeightProfile, q: int,
                        e_window: int) -> dict:
    """Numeric partial sums at a concrete prime, with a tail report.

    The window is widened downward to the vanishing cutoff so that only the
    upper tail is actually truncated.
    """
    if B.size != 2 or prof.n != 1:
        raise ValueError("n = 1 only")
    top = max(abs(l) for l in B.e)
    if max(e_window, top) > DENSITY_MAX_EXP:
        raise BudgetError(f"numeric density limited to window, max|e| <= {DENSITY_MAX_EXP}")
    if q > NUMERIC_MAX_Q:
        raise BudgetError(f"numeric density limited to q <= {NUMERIC_MAX_Q}, got {q}")
    _check_prime(q)
    K = top + 4

    @lru_cache(maxsize=None)
    def at_q(Y):
        tm = _density_term(Y, B, prof)
        return None if tm is None else _evaluate(tm, q)

    def partial(w):
        lo = -max(w, K)
        value = Fraction(0)
        deriv = Fraction(0)
        for m1 in range(lo, w + 1):
            for m2 in range(lo, w + 1):
                x = at_q(diagonal((m1, m2)))
                if x is None:
                    continue
                value += x
                deriv += (_min0(m1) + _min0(m2)) * x
        for e in range(lo, w + 1):
            x = at_q(_antidiag(e))
            if x is None:
                continue
            value += x
            deriv += 2 * _min0(e) * x
        return value, deriv

    v1, d1 = partial(e_window)
    v2, d2 = partial(e_window + 2)
    return {
        "value": v1,
        "derivative": d1,
        "tail_report": {
            "window": e_window,
            "value_shift": float(abs(v2 - v1)),
            "derivative_shift": float(abs(d2 - d1)),
        },
    }
