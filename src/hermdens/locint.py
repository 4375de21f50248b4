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
rings of Z_p[w]/(w^2 - c), one signed part of a region at a time (O_unit
is O minus piO).  Fiber counts must be constant on Galois orbits, and sums
of primitive p^l-th roots collapse to 1, -1 or 0, so the result is an exact
Fraction with no numerical cancellation anywhere.

count_solutions counts solutions of hermitian equations v_i A v_j^* = t_ij
over O_E / p^d with coordinates restricted to these regions; the three
brute-force density oracles in cdens and whit are thin callers of it.
count_modulus holds the vector limit they share, and PAIR_BUDGET bounds
the key pairs a count of two vectors joins.  It
enumerates residue classes, not vectors: the Gram matrix of a pair is a sum
of one contribution per orbit of the form's involution, so each orbit's
classes are counted once and the orbits' histograms of Gram values are
combined.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from math import isqrt, prod
from operator import mod, mul

from .errors import BudgetError, InvariantError
from .symb import SignedRational, _expand

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
    return _expand(norm_term(region, e))


def trace_pair_integral(r1: str, r2: str, e: int) -> SignedRational:
    return _expand(trace_pair_term(r1, r2, e))


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


# steps one charsum_oracle call may take: for the norm kind the p^(2m) residue points
# of O_E / p^m, which bound its square pairs, for the trace pair kind 8 p^m iterations
ORACLE_MAX_POINTS = 10 ** 7


def charsum_oracle(p: int, kind: str, regions, e: int, depth: int) -> Fraction:
    """Recompute a table integral by explicit character sums.

    regions: one region for kind='norm', a pair for kind='trace_pair'.
    depth bounds the residue precision the caller vouches for; the
    enumeration itself runs at the exact modulus max(1, -e), which the
    integrand depends on.  Both kinds sum over the signed region parts of
    _region_coord_depth; the norm kind pairs each part's squares mod p^mp.
    Raises BudgetError before any sum when the norm kind's O_E / p^m has
    more than ORACLE_MAX_POINTS points, or the trace pair kind's coordinate
    loops may take more than that many iterations.
    """
    _check_prime(p)
    e = int(e)
    if depth < abs(e) + 2:
        raise ValueError(f"depth {depth} too small: need at least |e|+2 = {abs(e) + 2}")
    mp = max(0, -e)
    m = max(1, mp)
    # capping m keeps the power small: p^64 is over the limit for every p.  The norm
    # kind's square pairs are at most its p^(2m) residue points; the trace pair kind sums
    # up to four pairs of region parts, each by two loops over at most p^m coordinates
    pm_cap = p ** min(m, 64)
    if kind == "norm":
        steps, what = pm_cap ** 2, f"residue points, got {p}^{2 * m}"
    else:
        steps, what = 8 * pm_cap, f"loop iterations, got 8 x {p}^{m}"
    if steps > ORACLE_MAX_POINTS:
        raise BudgetError(f"character sum oracle limited to {ORACLE_MAX_POINTS} {what}")
    c = _nonresidue(p)
    pm = p ** m
    pmp = p ** mp

    if kind == "norm":
        fibers = defaultdict(int)
        for d, sign in _region_coord_depth(_check_region(regions)):
            squares = Counter(a * a % pmp for a in range(0, pm, p ** d)).items()
            for x, nx in squares:
                for y, ny in squares:
                    fibers[(x - c * y) % pmp] += sign * nx * ny
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


# key pairs one count_solutions call may join at k = 2, summed over its blocks
# and taken from their tallies before any cross value is formed
PAIR_BUDGET = 5_000_000

# vectors one count may range over: the p^(2 d m) points of (O_E / p^d)^m
COUNT_MAX_VECTORS = 600_000


def count_modulus(p: int, d: int, m: int) -> int:
    """p^d, for a count of m coordinates over O_E / p^d.

    ValueError unless p is an odd prime and d >= 1; BudgetError when
    (O_E / p^d)^m has more than COUNT_MAX_VECTORS points, or p^d is over that
    number (m = 0 gives one point at any d).
    """
    _check_prime(p)
    if d < 1:
        raise ValueError(f"counting depth must be at least 1, got d={d}")
    n = max(2 * d * m, d)
    # p >= 3 and 3^13 > COUNT_MAX_VECTORS, so n > 12 is refused before its power is built
    if n > 12 or p ** n > COUNT_MAX_VECTORS:
        raise BudgetError(f"brute counting limited to {COUNT_MAX_VECTORS} vectors, got {p}^{n}")
    return p ** d


def _coordinate_classes(kind: str, p: int, P: int, M: int) -> list:
    """Residues (x, y) mod M of one region of O_E / P, each with its number of lifts mod P.

    M is 1 or a multiple of p, so a residue decides whether it lies in the region.
    """
    if M == 1:
        full, inner = P * P, (P // p) ** 2
        return [((0, 0), {"O": full, "piO": inner, "O_unit": full - inner}[kind])]
    step = p if kind == "piO" else 1
    lifts = (P // M) ** 2
    return [((x, y), lifts) for x in range(0, M, step) for y in range(0, M, step)
            if kind != "O_unit" or x % p or y % p]


def count_solutions(sigma, exps, target, regions, p: int, d: int) -> int:
    """Count tuples of 1 or 2 row vectors v_i over O_E / p^d with
    v_i A v_j^* = target[i][j].

    O_E = Z_p[w] with w^2 a nonresidue.  A is the monomial form with
    p^exps[j] in row sigma[j], column j (rows counted from 0), sigma an
    involution of range(m) (ValueError otherwise), target a k x k matrix of
    rational integers, and coordinate j of v_i ranges over regions[i][j],
    one of "O", "O_unit", "piO" (ValueError otherwise).  A shape that does
    not match (exps or a region tuple not of length m, target not k x k)
    raises ValueError before any work; count_modulus checks p and d and
    refuses more than COUNT_MAX_VECTORS vectors (BudgetError).  Values are
    compared as (re, im) mod p^d, so A need not be hermitian.

    The blocks are the orbits of sigma: a fixed point or a 2-cycle.  The
    Gram matrix of (v1, v2) is a sum of one contribution per block, and a
    block's contribution reads its coordinates only mod p^(d - min(e_b, d)),
    e_b the smallest exponent in the block.  Each block is enumerated once
    per region tuple over these residue classes, each class weighted by its
    number of lifts mod p^d.  At k = 1 the blocks' own-value histograms are
    convolved and read at (t11, 0).  At k = 2 every block has one
    (own1, own2, cross) histogram; the last one, the block with the most
    classes, keeps only the own values the others leave it to reach.  The
    others' histograms are convolved and joined with the last one's at
    (t11, 0, t22, 0, t12, 0).  Within a block a first vector is read through
    the coefficients (re, im) of u -> v A u^* and a second through
    coordinate j mod p^(d - min(exps[j], d)), so the cross values are
    counted over distinct keys, once per pair of own values.  The key pairs
    of all blocks are summed from the tallies and checked against
    PAIR_BUDGET (BudgetError) before any cross value is formed.
    """
    k = len(regions)
    if k not in (1, 2):
        raise ValueError(f"count_solutions takes 1 or 2 vectors, got {k}")
    sigma = tuple(sigma)
    m = len(sigma)
    if len(exps) != m or any(len(reg) != m for reg in regions):
        raise ValueError(f"a form of size {m} needs {m} exponents and {m} regions per vector")
    if len(target) != k or any(len(row) != k for row in target):
        raise ValueError(f"the target of {k} vectors must be {k}x{k}")
    for reg in regions:
        for kind in reg:
            _check_region(kind)
    P = count_modulus(p, d, m)
    if sorted(sigma) != list(range(m)) or any(sigma[s] != j for j, s in enumerate(sigma)):
        raise ValueError(f"sigma must be an involution of range({m}), got {sigma}")
    c = _nonresidue(p)
    a = [pow(p, e, P) for e in exps]
    mods = [P // p ** min(e, d) for e in exps]
    blocks = [(j,) if s == j else (j, s) for j, s in enumerate(sigma) if s >= j]
    # per block: each role's region tuple, and per distinct tuple the
    # coordinate classes mod p^(d - min(e_b, d))
    regs = {b: [tuple(regions[i][j] for j in b) for i in range(k)] for b in blocks}
    grids = {b: {reg: [_coordinate_classes(kind, p, P, P // p ** min(min(exps[j] for j in b), d))
                       for kind in reg] for reg in regs[b]} for b in blocks}

    def sub(x, y):
        return tuple((s - t) % P for s, t in zip(x, y))

    def convolve(first, second):
        out = Counter()
        for x, m in first.items():
            for y, n in second.items():
                out[tuple((s + t) % P for s, t in zip(x, y))] += m * n
        return out

    def classes(b, grid):
        """(own, u, n) per class of block b: own is v A v^* on the block."""
        if len(b) == 1:
            aj = a[b[0]]
            for (x, y), n in grid[0]:
                yield (aj * (x * x - c * y * y) % P, 0), (x, y), n
            return
        # v_l conj(v_j) p^e_j + v_j conj(v_l) p^e_l for the 2-cycle (j, l)
        plus, minus = a[b[0]] + a[b[1]], a[b[0]] - a[b[1]]
        for (x1, y1), n1 in grid[0]:
            for (x2, y2), n2 in grid[1]:
                yield ((plus * (x1 * x2 - c * y1 * y2) % P, minus * (x1 * y2 - x2 * y1) % P),
                       (x1, y1, x2, y2), n1 * n2)

    def tally(b, keep):
        """Each role's classes on block b whose own value lies in keep[i]
        (every one when keep[i] is None), as own -> Counter(pairing key ->
        multiplicity); at k = 1 the key is ()."""
        keyed = [defaultdict(Counter) for _ in range(k)]
        partner = [b.index(sigma[j]) for j in b]
        flat_mods = [mods[j] for j in b for _ in "xy"]
        for reg, grid in grids[b].items():
            roles = [i for i in range(k) if regs[b][i] == reg]
            for own, u, n in classes(b, grid):
                for i in roles:
                    if keep[i] is not None and own not in keep[i]:
                        continue
                    if k == 1:
                        key = ()
                    elif i:
                        key = tuple(map(mod, u, flat_mods))
                    else:
                        re, im = [], []
                        for j, s in zip(b, partner):
                            wx, wy = a[j] * u[2 * s] % P, a[j] * u[2 * s + 1] % P
                            re += (wx, -c * wy % P)
                            im += (wy, -wx % P)
                        key = tuple(re), tuple(im)
                    keyed[i][own][key] += n
        return keyed

    def own_hist(keyed):
        return Counter({own: keys.total() for own, keys in keyed.items()})

    wanted = [(target[i][i] % P, 0) for i in range(k)]
    if not blocks:
        # no coordinates: the empty vectors have every value 0
        return int(all(w == (0, 0) for w in wanted) and (k == 1 or target[0][1] % P == 0))
    *rest, last = sorted(blocks, key=lambda b: sum(prod(map(len, g)) for g in grids[b].values()))
    tallies = [tally(b, [None] * k) for b in rest]
    others = [reduce(convolve, (own_hist(kd[i]) for kd in tallies), Counter({(0, 0): 1}))
              for i in range(k)]
    # the last block keeps only the own values the others leave it to reach
    keyed = tally(last, [{sub(wanted[i], o) for o in others[i]} for i in range(k)])
    if k == 1:
        last_hist = own_hist(keyed[0])
        return sum(n * last_hist[sub(wanted[0], o)] for o, n in others[0].items())
    # the join below forms one cross value per pair of a block's keys
    pairs = sum(sum(map(len, kd[0].values())) * sum(map(len, kd[1].values()))
                for kd in tallies + [keyed])
    if pairs > PAIR_BUDGET:
        raise BudgetError(f"pair counting budget exceeded: {pairs} > {PAIR_BUDGET} checks")

    def cross(keys1, keys2):
        """Cross values (re, im) of every key pair, weighted by multiplicity."""
        out = defaultdict(int)
        for (re, im), m in keys1.items():
            for u, n in keys2.items():
                out[sum(map(mul, re, u)) % P, sum(map(mul, im, u)) % P] += m * n
        return out

    def joint(b_keyed):
        """Histogram of (own1, own2, cross) on one block."""
        return Counter({o1 + o2 + x: n for o1, keys1 in b_keyed[0].items()
                        for o2, keys2 in b_keyed[1].items()
                        for x, n in cross(keys1, keys2).items()})

    rest_joint = reduce(convolve, map(joint, tallies), Counter({(0,) * 6: 1}))
    last_joint = joint(keyed)
    want = wanted[0] + wanted[1] + (target[0][1] % P, 0)
    return sum(n * last_joint[sub(want, key)] for key, n in rest_joint.items())
