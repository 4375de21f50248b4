"""Weighted representation densities for hermitian monomial forms.

The density W_{h,t}(B, r) is an infinite sum over monomial hermitian forms Y
of a product of three factors:

    gram_g(Y, B)       local character integrals over the entry slots
    profile value      a pure power of s = -q controlled by the index classes
    1 / alpha(Y)       the Iwahori stabilizer density of Y

Everything stays exact.  Each of the three factors, and so each term, has
the form c s^N (s-1)^A (s+1)^B and is carried as the tuple (c, N, A, B) with c
a nonzero rational, an int when integral (symb._div); the form is unique, so
tuple equality is value equality.
The gram and profile factors read per-involution plans (_gram_plan,
_profile_plan), so a term costs one walk over each plan with the exponents.
At n = 1 the terms of a (B, profile) come from axis tables (_n1_tables): a
diagonal term is the product of two entries, and the antidiagonal terms are
one more table.  Both density routes walk the finite box of forms (_box)
and merge its terms into sums {(N, A, B): c}; the numeric route evaluates
each distinct (N, A, B) once at s = -q.  The exact route adds the series
beyond the box, read off tails that never vanish and contract (_tail), and
puts the lot over one common denominator (_close); every coefficient is a
product or quotient of +-1, so the numerators are integers.

Derivatives are taken against the lattice scaling variable X = s^{-2r} with
the sign convention  prime = -d/dX at X = 1,  so a monomial c X^m has prime
-m c.  Profile values are c X^{-S} with S the slope, hence prime = S c.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import BudgetError, InvariantError
from .locint import _check_prime, count_modulus, count_solutions, norm_term, trace_pair_term
from .reps import MonomialHermitian, WeightProfile, classify
from .symb import (SL_ONE, SL_ZERO, SR_ZERO, SignedLaurent, SignedRational, _div, _eval_point,
                   _expand, _float, _pm_coeffs, _pm_poly, npq)


def _min0(x: int) -> int:
    return x if x < 0 else 0


# ---------------------------------------------------------------------------
# factored terms: the tuple (c, N, A, B) stands for c s^N (s-1)^A (s+1)^B


def _tmul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


def _add(acc: dict, w: int, term: tuple) -> None:
    """Add w * term to the merged sum acc = {(N, A, B): c}, dropping a 0 entry."""
    key = term[1:]
    c = acc.get(key, 0) + w * term[0]
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def _numerator(acc: dict, low: tuple) -> SignedLaurent:
    """Sum of the merged terms of acc times s^-N0 (s-1)^-A0 (s+1)^-B0, low = (N0, A0, B0).

    low is at most every key's exponents, so each summand is a polynomial; the
    density's coefficients are ints, though a Fraction would sum correctly too.
    """
    n0, a0, b0 = low
    out: dict[int, int] = {}
    for (n, a, b), c in acc.items():
        for e, x in enumerate(_pm_coeffs(a - a0, b - b0), n - n0):
            if x:
                out[e] = out.get(e, 0) + c * x
    return SignedLaurent(out)


def _evaluate(term: tuple, q: int) -> Fraction:
    """Value of a factored term at s = -q, within symb.EVAL_MAX_BITS."""
    c, n, a, b = term
    # |s - 1| = q + 1 is the largest of the three factors
    s = _eval_point(q, abs(n) + abs(a) + abs(b), 1)
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


def gram_g(Y: MonomialHermitian, B: MonomialHermitian) -> SignedRational:
    """Product of slot integrals for the pair (Y, B).

    Slots (k, j) are paired by (k, j) -> (tau(k), sigma(j)); fixed slots give
    norm integrals, two-element orbits give trace pair integrals.  The slot
    exponent e_j + lam_k is orbit constant.
    """
    g = gram_fingerprint(Y, B)
    return _expand(g if g[0] else None)


def gram_fingerprint(Y: MonomialHermitian, B: MonomialHermitian) -> tuple:
    """gram_g(Y, B) as a factored term (c, N, A, B), (0, 0) when it vanishes.

    The one gram product of the package: gram_g expands it and the density
    terms multiply it in.  The form c s^N (s-1)^A (s+1)^B of a nonzero value
    is unique, so fingerprints are equal exactly when the gram values are
    equal, at a fraction of the cost of building them.
    """
    if Y.size != B.size:
        raise ValueError("size mismatch")
    ye, be = Y.e, B.e
    c, n, a, b = 1, 0, 0, 0
    for r1, r2, j, k in _gram_plan(Y.sigma, B.sigma):
        f = _slot_factor(r1, r2, ye[j] + be[k])
        if f is None:
            return 0, 0
        c *= f[0]
        n += f[1]
        a += f[2]
        b += f[3]
    return c, n, a, b


# ---------------------------------------------------------------------------
# profile exponents


@lru_cache(maxsize=None)
def _profile_plan(sigma: tuple, h: int) -> tuple:
    """The orbits a profile reads, one (j, mult, shift, t_const) per orbit.

    The orbit of index j + 1 (0-based j) adds mult * min(0, e) to the M
    coefficient and mult * min(0, e + shift) to the T coefficient, with
    e = Y.e[j].  The index classes depend only on sigma and the cut size - h,
    so pairs sharing the involution and h share the plan.
    """
    size = len(sigma)
    cls = classify(MonomialHermitian(size, sigma, (0,) * size), h)
    plan = [(j - 1, 1, 1, -2) for j in sorted(cls.a1)]
    plan += [(j - 1, 2, 1, -4) for j in sorted(cls.a2) if sigma[j - 1] > j]
    plan += [(j - 1, 2, 0, -2) for j in sorted(cls.b1)]
    plan += [(j - 1, 1, -1, 0) for j in sorted(cls.c1)]
    plan += [(j - 1, 2, -1, 0) for j in sorted(cls.c2) if sigma[j - 1] > j]
    return tuple(plan)


def _profile_sums(Y: MonomialHermitian, h: int) -> tuple[int, int, int]:
    """(m_sum, t_sum, c_sum): the profile plan's orbits summed in one pass.

    Each orbit adds mult * min(0, e) to m_sum, mult * min(0, e + shift) to
    t_sum and t_const to c_sum; the full profile exponent is
    M*m_sum + T*(t_sum + c_sum) with M = 2n - t + 2r and T = t.
    """
    e = Y.e
    m_sum = t_sum = c_sum = 0
    for j, mult, shift, t_const in _profile_plan(Y.sigma, h):
        m_sum += mult * _min0(e[j])
        t_sum += mult * _min0(e[j] + shift)
        c_sum += t_const
    return m_sum, t_sum, c_sum


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
    return npq(base_exp), m_sum, npq(base_exp + 2 * prof.r * m_sum)


def _profile_exps(Y: MonomialHermitian, prof: WeightProfile) -> tuple[int, int]:
    """(base_exp, slope): the profile value is s^(base_exp + 2 r slope)."""
    if Y.size != 2 * prof.n:
        raise ValueError("size mismatch")
    m_sum, t_sum, c_sum = _profile_sums(Y, prof.h)
    t = prof.t
    return (2 * prof.n - t) * m_sum + t * (t_sum + c_sum), m_sum


def f_plain(Y: MonomialHermitian, h: int) -> SignedLaurent:
    """Profile with both multipliers set to n and no constant terms."""
    m_sum, t_sum, _ = _profile_sums(Y, h)
    return npq(Y.n * (m_sum + t_sum))


def profile_statement(Y: MonomialHermitian, prof: WeightProfile) -> SignedLaurent:
    """Closed rearrangement of profile_f at r = 0 via the class counters."""
    cls = classify(Y, prof.h)
    n, t, h = prof.n, prof.t, prof.h
    shift = (n - t) * (cls.frak_c - cls.frak_a) - 2 * t * (2 * n - h)
    return f_plain(Y, prof.h).shifted(shift)


def profile_f_prime(Y: MonomialHermitian, prof: WeightProfile) -> SignedLaurent:
    """prime of the profile at X = 1; only meaningful with prof.r == 0."""
    if prof.r != 0:
        raise ValueError("prime is taken at r = 0")
    _, slope, value = profile_f(Y, prof)
    return value * slope


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
    if Y.sigma == (1, 2):
        m1, m2 = Y.e
        k = -4 + m1 + 3 * m2 if m1 >= m2 else -2 + 3 * m1 + m2
        # (q + 1)^2 q^k = (s - 1)^2 (-1)^k s^k
        return -1 if k % 2 else 1, k, 2, 0
    # q (q^2 - 1) q^(4e - 4) = -s (s - 1) (s + 1) s^(4e - 4)
    return -1, 4 * Y.e_of(1) - 3, 1, 1


def alpha_iwahori_n1(Y: MonomialHermitian) -> SignedRational:
    return _expand(_alpha_factor(Y))


def alpha_iwahori_brute(Y: MonomialHermitian, p: int, d: int) -> Fraction:
    """Count Iwahori cosets mod pi^d stabilizing Y, scaled by q^{-4d}.

    Entries live in the unramified quadratic extension modulo p^d, written
    x + y w with w^2 a nonresidue.  Exponents of Y must be nonnegative so the
    congruence closes over integers.  locint.count_modulus bounds p and d,
    and locint.PAIR_BUDGET the key pairs of the antidiagonal's one 2-cycle
    block: 45,000,000 at (p, d) = (5, 2) and 6,412,032 at (23, 1) are refused.
    """
    if Y.size != 2:
        raise ValueError("brute force covers 2x2 only")
    P = count_modulus(p, d, 2)
    if min(Y.e) < 0:
        raise ValueError("nonnegative exponents only")

    sigma = [s - 1 for s in Y.sigma]
    ymat = [[pow(p, Y.e[j], P) if sigma[j] == i else 0 for j in range(2)] for i in range(2)]
    count = count_solutions(sigma, Y.e, ymat, [("O_unit", "O"), ("piO", "O_unit")], p, d)
    return Fraction(count, p ** (4 * d))


# ---------------------------------------------------------------------------
# the weighted density, n = 1


def _density_term(Y: MonomialHermitian, B: MonomialHermitian, prof: WeightProfile):
    """gram_g(Y, B) * profile / alpha_iwahori_n1(Y) factored, None when zero."""
    g = gram_fingerprint(Y, B)
    if not g[0]:
        return None
    base_exp, slope = _profile_exps(Y, prof)
    a = _alpha_factor(Y)
    return _div(g[0], a[0]), g[1] + base_exp + 2 * prof.r * slope - a[1], g[2] - a[2], g[3] - a[3]


def _tail(table: dict, start: int) -> tuple:
    """The ratio of the series table[start], table[start + 1], ...

    Its first three entries must be nonzero and follow one ratio c s^k with
    k < 0 and |c| <= 1, so the series converges at every prime, and a
    product of such ratios contracts too.
    """
    first, nxt, third = table[start], table[start + 1], table[start + 2]
    if first is None or nxt is None or third is None:
        raise InvariantError("tail vanishes")
    rho = _div(nxt[0], first[0]), nxt[1] - first[1], nxt[2] - first[2], nxt[3] - first[3]
    if third != _tmul(nxt, rho):
        raise InvariantError("tail is not geometric")
    c, n, a, b = rho
    if a or b:
        raise InvariantError(f"tail ratio not monomial: {rho!r}")
    if n >= 0 or abs(c) > 1:
        raise InvariantError(f"tail ratio does not contract: {rho!r}")
    return rho


def _close(sums: dict) -> SignedRational:
    """Exact sum of merged geometric series.

    sums maps a tuple of ratios to the merged first terms {(N, A, B): c} of
    the series sharing them, each series summing to first / prod(1 - ratio);
    a finite sum is the series with no ratio, ().  Everything goes over one
    common denominator and is canonicalized once.
    """
    keys = [k for part in sums.values() for k in part]
    if not keys:
        return SR_ZERO
    low = tuple(min(k[i] for k in keys) for i in (0, 1, 2))
    num, den = SL_ZERO, SL_ONE
    for ratios, group in sums.items():
        prod = SL_ONE
        for c, n, _, _ in ratios:
            prod = prod * (SL_ONE - npq(n, c))
        num = num * prod + _numerator(group, low) * den
        den = den * prod
    n0, a0, b0 = low
    num = num.shifted(n0) * _pm_poly(max(a0, 0), max(b0, 0))
    den = den * _pm_poly(max(-a0, 0), max(-b0, 0))
    return SignedRational(num, den)


def _n1_tables(B: MonomialHermitian, prof: WeightProfile, lo: int, hi: int):
    """The n = 1 terms for exponents in [lo, hi] as ((x, y), (u, v), anti).

    Entries are factored terms, None when zero.  The diagonal form (m1, m2)
    has the term x[m1] * y[m2] when m1 >= m2 and u[m1] * v[m2] otherwise;
    anti[e] is the antidiagonal (e, e), from _density_term.  The gram and
    profile orbits of a diagonal form each read one exponent, and the
    stabilizer (s - 1)^2 (-1)^k s^k has k = m1 + 3 m2 - 4 when m1 >= m2 and
    3 m1 + m2 - 2 otherwise, so each half-table takes its axis's entry, the
    sign (-1)^m and its share of the stabilizer: x and v take s^-m, y takes
    s^(4 - 3m) (s - 1)^-2 and u takes s^(2 - 3m) (s - 1)^-2.
    """
    t = prof.t
    m_weight = 2 - t + 2 * prof.r  # M = 2n - t, plus the X = s^(-2r) scaling

    def axis(col, shares):
        slots = [(r1, r2, B.e[k]) for r1, r2, j, k in _gram_plan((1, 2), B.sigma) if j == col]
        orbits = [o[1:] for o in _profile_plan((1, 2), prof.h) if o[0] == col]
        tables = ({}, {})
        for m in range(lo, hi + 1):
            n = sum(m_weight * mult * _min0(m) + t * (mult * _min0(m + shift) + t_const)
                    for mult, shift, t_const in orbits)
            tm = (-1 if m % 2 else 1, n, 0, 0)
            for r1, r2, l in slots:
                f = _slot_factor(r1, r2, m + l)
                if f is None:
                    tm = None
                    break
                tm = _tmul(tm, f)
            for table, (n0, dn, a0) in zip(tables, shares):
                table[m] = tm and (tm[0], tm[1] + n0 + dn * m, tm[2] + a0, tm[3])
        return tables

    (x, u), (y, v) = axis(0, ((0, -1, 0), (2, -3, -2))), axis(1, ((4, -3, -2), (0, -1, 0)))
    anti = {e: _density_term(MonomialHermitian(2, (2, 1), (e, e)), B, prof)
            for e in range(lo, hi + 1)}
    return (x, y), (u, v), anti


def _box(tables, lo: int, hi: int):
    """Yield (top, slope, term) for each nonzero term of _n1_tables with exponents in [lo, hi].

    The diagonal forms come first, one triangle at a time: m1 >= m2 reads
    x[m1] * y[m2] and m2 > m1 reads v[m2] * u[m1].  Each triangle runs over
    its larger exponent, so a row whose far entry is zero is skipped whole.
    The antidiagonal (e, e) follows; top is the larger exponent and slope
    the derivative weight.
    """
    (x, y), (u, v), anti = tables
    for far, near, off in ((x, y, 0), (v, u, 1)):
        for a in range(lo + off, hi + 1):
            if (fa := far[a]) is not None:
                for b in range(lo, a - off + 1):
                    if (nb := near[b]) is not None:
                        yield a, _min0(a) + _min0(b), _tmul(fa, nb)
    for e in range(lo, hi + 1):
        tm = anti[e]
        if tm is not None:
            yield e, 2 * _min0(e), tm


def _box_degree(tables, lo: int, hi: int) -> int:
    """The largest |N| + |A| + |B| of a term _box yields, read from the tables alone.

    |N| + |A| + |B| is the largest of the eight sums +-N +-A +-B, and in a
    triangle each of them adds one far and one near entry, so one pass per
    sign keeps the best near entry so far.
    """
    (x, y), (u, v), anti = tables
    top = max((abs(tm[1]) + abs(tm[2]) + abs(tm[3]) for tm in anti.values() if tm), default=0)
    for far, near, off in ((x, y, 0), (v, u, 1)):
        for sn, sa, sb in product((1, -1), repeat=3):
            best = None
            for a in range(lo + off, hi + 1):
                if (nb := near[a - off]) is not None:
                    w = sn * nb[1] + sa * nb[2] + sb * nb[3]
                    best = w if best is None else max(best, w)
                if best is not None and (fa := far[a]) is not None:
                    top = max(top, best + sn * fa[1] + sa * fa[2] + sb * fa[3])
    return top


# K = max|e| + KINK_PAD passes every kink of the piecewise terms; the
# exact result does not depend on it (there is a test for that)
KINK_PAD = 4
# the summed box has (2K + 1)^2 terms; the exact sum's numerator has about
# K * min(r, K) terms, so w_density_n1 also caps max|e| * min(r, max|e|) at
# this value (set when canonicalizing that numerator cost the square of its
# terms; the heap-ordered remainder of symb._pdivmod costs far less)
DENSITY_MAX_EXP = 300


def _density_top(B: MonomialHermitian) -> int:
    """max|e| of the 2x2 form B, refused with BudgetError over DENSITY_MAX_EXP.

    The entry check of both density routes, exact and numeric.
    """
    if B.size != 2:
        raise ValueError("n = 1 only")
    top = max(abs(l) for l in B.e)
    if top > DENSITY_MAX_EXP:
        raise BudgetError(f"density limited to max|e| <= {DENSITY_MAX_EXP}, got {top}")
    return top


@lru_cache(maxsize=None)
def w_density_n1(B: MonomialHermitian, h: int, t: int, r: int = 0):
    """Exact value and prime of the weighted density over all 2x2 forms.

    Terms vanish identically below -K and follow exact geometric
    progressions above +K in each exponent direction, K = max|e| + KINK_PAD,
    so the sum is the box |m| <= K plus geometric series beyond it.

    Memoized for the life of the process: verify, jfun_n1 and the bridges
    ask for the same (B, h, t, r) again, and the result is an immutable pair
    of SignedRationals.  A raised BudgetError is not cached.
    """
    top = _density_top(B)
    prof = WeightProfile(1, h, t, r)
    spread = top * min(r, top)
    if spread > DENSITY_MAX_EXP:
        raise BudgetError(f"exact density limited to max|e| * min(r, max|e|) <= "
                          f"{DENSITY_MAX_EXP}, got {spread}")
    K = top + KINK_PAD
    # the box, the zeros below it and two steps of every tail
    (x, y), (u, v), anti = tables = _n1_tables(B, prof, -K - 1, K + 3)
    # below -K every term dies on a unit-region integral; spot check
    if any(table[-K - 1] is not None for table in (x, y, anti)):
        raise InvariantError("term survives below the cutoff")

    # every series, the box being the one with no ratio
    sums, dsums = {}, {}

    def series(first, slope, *rhos):
        _add(sums.setdefault(rhos, {}), 1, first)
        if slope:
            _add(dsums.setdefault(rhos, {}), slope, first)

    for _, slope, tm in _box(tables, -K, K):
        series(tm, slope)
    # past the box, each triangle far[a] * near[b], a >= b + off, is a strip
    # along a from every row b <= K and the half quadrant b > K
    for far, near, off in ((x, y, 0), (v, u, 1)):
        rf, rn = _tail(far, K + 1), _tail(near, K + 1)
        for b in range(-K, K + 1):
            if near[b] is not None:
                series(_tmul(far[K + 1], near[b]), _min0(b), rf)
        series(_tmul(far[K + 1 + off], near[K + 1]), 0, rf, _tmul(rf, rn))
    series(anti[K + 1], 0, _tail(anti, K + 1))
    return _close(sums), _close(dsums)


def w_density_truncated(B: MonomialHermitian, prof: WeightProfile, q: int,
                        e_window: int) -> dict:
    """Numeric partial sums at a concrete prime, with a tail report.

    The window is widened downward to the vanishing cutoff so that only the
    upper tail is actually truncated.  One pass over the box up to
    e_window + 2 fills the sums inside the window and in the ring beyond
    it; the ring's sums are the shifts the tail report gives.
    """
    if prof.n != 1:
        raise ValueError("n = 1 only")
    top = _density_top(B)
    if e_window > DENSITY_MAX_EXP:
        raise BudgetError(f"numeric density limited to window <= {DENSITY_MAX_EXP}, got {e_window}")
    _check_prime(q)
    lo, hi = -max(e_window + 2, top + KINK_PAD), e_window + 2

    tables = _n1_tables(B, prof, lo, hi)
    # the largest term evaluated must fit EVAL_MAX_BITS: refuse before the walk
    _eval_point(q, _box_degree(tables, lo, hi), 1)
    inner, ring = ({}, {}), ({}, {})
    for m, slope, tm in _box(tables, lo, hi):
        value, deriv = ring if m > e_window else inner
        _add(value, 1, tm)
        _add(deriv, slope, tm)
    sums = inner + ring
    at = {k: _evaluate((1, *k), q) for acc in sums for k in acc}
    v, d, dv, dd = (sum((c * at[k] for k, c in acc.items()), Fraction(0)) for acc in sums)
    return {
        "value": v,
        "derivative": d,
        "tail_report": {
            "window": e_window,
            "value_shift": _float(abs(dv)),
            "derivative_shift": _float(abs(dd)),
        },
    }
