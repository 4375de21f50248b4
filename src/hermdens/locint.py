"""Local additive character integrals over the unramified quadratic extension.

Two families of integrals appear in the Gram factor products:

    norm kind:        int_R psi(pi^e Nm(x)) dx           for one region R
    trace_pair kind:  int_{R1 x R2} psi(pi^e Tr(x y)) dx dy

with regions O (the full ring of integers), O_unit (units), and piO (the
maximal ideal).  psi has conductor exactly the base ring, the residue field
of the extension has q^2 elements, and vol(O) = 1.

Closed forms are expressed in the signed variable s = -q and stored as
factored terms (norm_term, trace_pair_term); norm_integral and
trace_pair_integral expand them.  The independent oracle charsum_oracle
recomputes every value by summing actual character values over residue
rings of Z_p[w]/(w^2 - c): root-of-unity bookkeeping is done exactly (fiber counts must be constant on Galois orbits, and sums of
primitive p^l-th roots collapse to 1, -1, or 0), so the result is a Fraction
with no numerical cancellation anywhere.

count_solutions counts solutions of hermitian equations v_i A v_j^* = t_ij
over O_E / p^d with coordinates restricted to these regions; the three
brute-force density oracles in cdens and whit are thin callers of it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import mod, mul

from .errors import BudgetError, InvariantError
from .symb import SR_ZERO, SignedRational, _expand

REGIONS = ("O", "O_unit", "piO")


def _check_region(region: str) -> str:
    if region not in REGIONS:
        raise ValueError(f"unknown region kind {region!r}")
    return region


# ---------------------------------------------------------------------------
# closed forms, as factored terms (c, N, A, B) = c s^N (s-1)^A (s+1)^B


_UNIT_VOL = (1, -2, 1, 1)  # 1 - q^-2 in s


def norm_term(region: str, e: int):
    """The norm integral over one region as a factored term, None when zero."""
    _check_region(region)
    if region == "O":
        return 1, min(0, e), 0, 0
    if region == "piO":
        return 1, min(0, e + 2) - 2, 0, 0
    # units: nonzero only for e >= -1
    if e >= 0:
        return _UNIT_VOL
    if e == -1:
        return 1, -2, 1, 0  # -q^-1 - q^-2
    return None


def trace_pair_term(r1: str, r2: str, e: int):
    """The trace pair integral as a factored term, None when zero; symmetric in the regions."""
    pair = tuple(sorted((_check_region(r1), _check_region(r2))))
    if pair == ("O", "O"):
        return 1, 2 * min(0, e), 0, 0
    if pair == ("O", "piO"):
        return 1, 2 * min(0, e + 1) - 2, 0, 0
    if pair == ("piO", "piO"):
        return 1, 2 * min(0, e + 2) - 4, 0, 0
    if pair == ("O", "O_unit"):
        return _UNIT_VOL if e >= 0 else None
    if pair == ("O_unit", "piO"):
        return (1, -4, 1, 1) if e >= -1 else None  # q^-2 (1 - q^-2)
    # both unit
    if e >= 0:
        return 1, -4, 2, 2  # (1 - q^-2)^2
    if e == -1:
        return -1, -4, 1, 1  # -q^-2 (1 - q^-2)
    return None


def norm_integral(region: str, e: int) -> SignedRational:
    term = norm_term(region, e)
    return SR_ZERO if term is None else _expand(term)


def trace_pair_integral(r1: str, r2: str, e: int) -> SignedRational:
    term = trace_pair_term(r1, r2, e)
    return SR_ZERO if term is None else _expand(term)


def trace_integral_J1(e: int) -> SignedRational:
    return SignedRational(1 if e >= 0 else 0)


# ---------------------------------------------------------------------------
# character sum oracle


# largest p that _check_prime tries to factor: at most about 23k trial divisions
PRIME_MAX = 2 ** 31


def _check_prime(p: int):
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > PRIME_MAX:
        raise BudgetError(f"primality check limited to p <= {PRIME_MAX}, got {p}")
    if any(p % k == 0 for k in range(3, isqrt(p) + 1, 2)):
        raise ValueError(f"p must be an odd prime, got {p}")


def _nonresidue(p: int) -> int:
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise InvariantError(f"no quadratic nonresidue mod {p}")


def _collapse(fibers: dict, p: int, mp: int) -> Fraction:
    """Sum N_v zeta_{p^mp}^v exactly.

    Requires the counts to be constant on each Galois orbit (v of fixed
    p-valuation); sums of all primitive p^l-th roots are 1, -1, 0 for
    l = 0, 1, >=2.
    """
    if mp == 0:
        return Fraction(sum(fibers.values()))
    total = Fraction(0)
    for l in range(mp + 1):
        # v with valuation mp - l
        if l == 0:
            members = [0]
        else:
            step = p ** (mp - l)
            members = [v for v in range(step, p ** mp, step) if v % (p ** (mp - l + 1)) != 0]
        counts = {fibers.get(v, 0) for v in members}
        if len(counts) != 1:
            raise InvariantError(
                f"fiber counts not Galois invariant at level {l}: {sorted(counts)}")
        n = counts.pop()
        if l == 0:
            total += n
        elif l == 1:
            total -= n
        # primitive p^l-th roots sum to 0 for l >= 2
    return total


def _region_coord_depth(kind: str):
    """Region as signed combination of coordinate-wise divisibility depths.

    Each part constrains both coordinates of x = a + b w to p^depth Z.
    O_unit is O minus piO.
    """
    if kind == "O":
        return [(0, 1)]
    if kind == "piO":
        return [(1, 1)]
    return [(0, 1), (1, -1)]


# residue points of O_E / p^m one charsum_oracle call may range over
ORACLE_MAX_POINTS = 10 ** 7


def charsum_oracle(p: int, kind: str, regions, e: int, depth: int) -> Fraction:
    """Recompute a table integral by explicit character sums.

    regions: one region for kind='norm', a pair for kind='trace_pair'.
    depth bounds the residue precision the caller vouches for; the
    enumeration itself runs at the exact modulus max(1, -e), which the
    integrand depends on.  Raises BudgetError before any work when O_E / p^m
    has more than ORACLE_MAX_POINTS points.
    """
    _check_prime(p)
    e = int(e)
    if depth < abs(e) + 2:
        raise ValueError(f"depth {depth} too small: need at least |e|+2 = {abs(e) + 2}")
    mp = max(0, -e)
    m = max(1, mp)
    # capping m keeps the power small: p^128 is over the limit for every p
    if p ** (2 * min(m, 64)) > ORACLE_MAX_POINTS:
        raise BudgetError(f"character sum oracle limited to {ORACLE_MAX_POINTS} "
                          f"residue points, got {p}^{2 * m}")
    c = _nonresidue(p)
    pm = p ** m
    pmp = p ** mp

    if kind == "norm":
        if isinstance(regions, (tuple, list)):
            if len(regions) != 1:
                raise ValueError("norm kind takes exactly one region")
            regions = regions[0]
        r = _check_region(regions)
        sq = [a * a % pm for a in range(pm)]
        fibers: dict[int, int] = {}
        if r == "piO":
            coords = range(0, pm, p)
        else:
            coords = range(pm)
        for a in coords:
            fa = sq[a]
            for b in coords:
                if r == "O_unit" and a % p == 0 and b % p == 0:
                    continue
                v = (fa - c * sq[b]) % pmp if mp else 0
                fibers[v] = fibers.get(v, 0) + 1
        return _collapse(fibers, p, mp) * Fraction(1, pm * pm)

    if kind == "trace_pair":
        if not isinstance(regions, (tuple, list)) or len(regions) != 2:
            raise ValueError("trace_pair kind takes a pair of regions")
        k1, k2 = map(_check_region, regions)
        total = Fraction(0)
        for d1, s1 in _region_coord_depth(k1):
            for d2, s2 in _region_coord_depth(k2):
                ta = _coord_double_sum(p, m, mp, 2, d1, d2)
                tb = _coord_double_sum(p, m, mp, 2 * c, d1, d2)
                total += s1 * s2 * ta * tb
        return total * Fraction(1, p ** (4 * m))

    raise ValueError(f"unknown kind {kind!r}")


def _coord_double_sum(p: int, m: int, mp: int, k: int, da: int, du: int) -> int:
    """Sum of zeta_{p^mp}^{k a u} over a in p^da Z/p^m, u in p^du Z/p^m.

    The inner complete sum over u is p^{m-du} when p^mp divides k a p^du
    and zero otherwise (valid since m >= mp).
    """
    pmp = p ** mp
    if mp == 0:
        return p ** (m - da) * p ** (m - du)
    inner = p ** (m - du)
    step = p ** da
    pdu = p ** du
    total = 0
    for a in range(0, p ** m, step):
        if (k * a * pdu) % pmp == 0:
            total += inner
    return total


def _trace_brute(p: int, k1: str, k2: str, e: int) -> Fraction:
    """Quadruple loop reference for the trace pair oracle.  Small p^m only."""
    mp = max(0, -e)
    m = max(1, mp)
    c = _nonresidue(p)
    pm = p ** m
    pmp = p ** mp

    def points(kind):
        for a in range(pm):
            for b in range(pm):
                ok = True
                if kind == "piO":
                    ok = a % p == 0 and b % p == 0
                elif kind == "O_unit":
                    ok = not (a % p == 0 and b % p == 0)
                if ok:
                    yield a, b

    fibers: dict[int, int] = {}
    for a, b in points(k1):
        for u, v in points(k2):
            t = (2 * (a * u + c * b * v)) % pmp if mp else 0
            fibers[t] = fibers.get(t, 0) + 1
    return _collapse(fibers, p, mp) * Fraction(1, p ** (4 * m))


# ---------------------------------------------------------------------------
# solution counting over O_E / p^d


# vector pairs one count_solutions pair stage may stand for: the product of
# the two roles' vector counts, however few distinct key pairs it checks
PAIR_BUDGET = 5_000_000


def _residues(kind: str, p: int, P: int) -> list:
    """Elements x + y w of one region of O_E / P, as pairs (x, y)."""
    step = p if kind == "piO" else 1
    points = [(x, y) for x in range(0, P, step) for y in range(0, P, step)]
    if kind == "O_unit":
        return [(x, y) for x, y in points if x % p or y % p]
    return points


def count_solutions(sigma, exps, target, regions, p: int, d: int) -> int:
    """Count tuples of 1 or 2 row vectors v_i over O_E / p^d with
    v_i A v_j^* = target[i][j].

    O_E = Z_p[w] with w^2 a nonresidue.  A is the hermitian monomial form
    with p^exps[j] in row sigma[j], column j (rows counted from 0), target a
    hermitian matrix of rational integers, and coordinate j of v_i ranges
    over regions[i][j], one of "O", "O_unit", "piO".

    The pair stage reads a first vector only through the coefficients
    (re, im) mod p^d of u -> v A u^*, and a second vector only through
    coordinate j mod p^(d - min(exps[j], d)), the factor that p^exps[j]
    does not kill.  Each role is kept as a Counter of those keys and the
    stage runs over distinct key pairs.  It raises BudgetError before it
    runs when the vector pairs would exceed PAIR_BUDGET.
    """
    k = len(regions)
    if k not in (1, 2):
        raise ValueError(f"count_solutions takes 1 or 2 vectors, got {k}")
    if d < 1:
        raise ValueError(f"counting depth must be at least 1, got d={d}")
    P = p ** d
    c = _nonresidue(p)
    a = [pow(p, e, P) for e in exps]
    mods = [P // p ** min(e, d) for e in exps for _ in "xy"]
    roles = [Counter() for _ in range(k)]
    # each distinct region tuple is enumerated once; a vector counts for
    # role i only when its own value is target[i][i]
    for reg in dict.fromkeys(tuple(r) for r in regions):
        wanted = {}
        for i in range(k):
            if tuple(regions[i]) == reg:
                wanted.setdefault(target[i][i] % P, []).append(i)
        for v in product(*(_residues(kind, p, P) for kind in reg)):
            re, im = [], []
            for a_j, s in zip(a, sigma):
                wx, wy = a_j * v[s][0], a_j * v[s][1]
                re += (wx, -c * wy)
                im += (wy, -wx)
            flat = sum(v, ())
            hits = wanted.get(sum(map(mul, re, flat)) % P)
            if hits and sum(map(mul, im, flat)) % P == 0:
                for i in hits:
                    if i:
                        roles[i][tuple(map(mod, flat, mods))] += 1
                    else:
                        roles[i][tuple(x % P for x in re), tuple(x % P for x in im)] += 1
    if k == 1:
        return roles[0].total()
    first, second = roles
    pairs = first.total() * second.total()
    if pairs > PAIR_BUDGET:
        raise BudgetError(f"pair counting budget exceeded: {pairs} > {PAIR_BUDGET} checks")
    t = target[0][1] % P
    return sum(mu * mv for (re, im), mu in first.items() for u, mv in second.items()
               if sum(map(mul, re, u)) % P == t and sum(map(mul, im, u)) % P == 0)
