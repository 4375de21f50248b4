"""Intersection counts on the (q+1)-regular tree.

Two special vertices sit at distance d apart.  A cycle supported on the
ball of radius m_x around the first meets a weighted divisor built from
the ball of radius m_y + 1 around the second; the pairing decomposes over
vertex classes indexed by position along the connecting geodesic and
branch depth off it.  Totals come out as r + 1 where 2r is the
determinant valuation of the underlying pair of vectors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterator

from .errors import BudgetError, InvariantError

# the pairings sum O(d * radius) vertex classes with counts up to q^radius
TREE_MAX_RADIUS = 500
TREE_MAX_Q = 2 ** 31


class TreeInstance(namedtuple("TreeInstance", "q m_x m_y d vdet")):
    """Two balls of radii m_x, m_y at distance d on the (q+1)-regular tree."""

    __slots__ = ()

    def __new__(cls, q: int, m_x: int, m_y: int, d: int, vdet: int = -1):
        # vdet = -1 means derive it from the ball data
        if max(m_x, m_y, d) > TREE_MAX_RADIUS or q > TREE_MAX_Q:
            raise BudgetError(f"tree instances take radii and distance <= {TREE_MAX_RADIUS} "
                              f"and q <= {TREE_MAX_Q}")
        if q < 2:
            raise ValueError("q must be at least 2")
        if m_x < 0 or m_y < 0 or d < 0:
            raise ValueError("radii and distance must be nonnegative")
        if (d - m_x - m_y) % 2:
            raise ValueError("distance parity must match m_x + m_y")
        if d > m_x + m_y:
            raise ValueError("balls must overlap: d <= m_x + m_y")
        if vdet == -1:
            vdet = m_x + m_y - d
        if vdet < 0 or vdet % 2:
            raise ValueError("determinant valuation must be even and nonnegative")
        inst = super().__new__(cls, q, m_x, m_y, d, vdet)
        if inst.case == 3 and vdet != m_x + m_y - d:
            raise ValueError("overlapping balls force vdet = m_x + m_y - d")
        return inst

    @property
    def case(self) -> int:
        if self.m_y + 1 + self.d <= self.m_x:
            return 1
        if self.m_x + self.d <= self.m_y + 1:
            return 2
        return 3

    @property
    def r(self) -> int:
        return min((self.m_x + self.m_y - self.d) // 2, self.m_x, self.m_y + 1)


# u: geodesic position, 0 at the x-center; t_off: branch depth off the
# geodesic; count: vertices in the class; d1, d2: distances to the two centers
VertexClass = namedtuple("VertexClass", "u t_off count d1 d2")


def mult_m(m_c: int, dist: int) -> int:
    """Multiplicity profile of a ball cycle: linear decay, parity rounded."""
    if dist > m_c:
        raise ValueError("vertex outside the ball has no multiplicity")
    if (m_c - dist) % 2 == 0:
        return (m_c - dist) // 2
    return (m_c + 1 - dist) // 2

def weight_pz(inst: TreeInstance, d1: int) -> Fraction:
    if d1 > inst.m_x:
        return Fraction(0)
    return Fraction(1) if (inst.m_x - d1) % 2 == 0 else Fraction(-inst.q)


def enumerate_ball_intersection(inst: TreeInstance, rx: int, ry: int) -> Iterator[VertexClass]:
    """Vertex classes with d1 <= rx and d2 <= ry, grouped by (u, t_off)."""
    q, d = inst.q, inst.d
    for u in range(d + 1):
        max_off = min(rx - u, ry - (d - u))
        for t_off in range(max(0, max_off) + 1):
            if u + t_off > rx or (d - u) + t_off > ry:
                continue
            if t_off == 0:
                count = 1
            elif d == 0:
                count = (q + 1) * q ** (t_off - 1)
            elif u in (0, d):
                count = q ** t_off
            else:
                count = (q - 1) * q ** (t_off - 1)
            yield VertexClass(u, t_off, count, u + t_off, (d - u) + t_off)


def vertical_pairing(inst: TreeInstance) -> Fraction:
    total = Fraction(0)
    for cls in enumerate_ball_intersection(inst, inst.m_x, inst.m_y + 1):
        mv = mult_m(inst.m_y + 1, cls.d2)
        total += cls.count * mv * weight_pz(inst, cls.d1)
    return total


def _engulfed_sum(inst: TreeInstance) -> Fraction:
    # weights over the radius-m_y ball with the matching parity slice
    total = Fraction(0)
    for cls in enumerate_ball_intersection(inst, inst.d + inst.m_y, inst.m_y):
        if (cls.d2 - inst.m_y) % 2 == 0:
            total += cls.count * weight_pz(inst, cls.d1)
    return total


def intersect_zy(inst: TreeInstance) -> dict:
    """Total pairing, split into its vertical and horizontal pieces."""
    q = Fraction(inst.q)
    if inst.case in (1, 2):
        lo = min(inst.m_x, inst.m_y)
        diff_sum = _engulfed_sum(inst)
        total = Fraction(inst.vdet, 2) - q * (q ** lo - 1) / (q - 1) + diff_sum
        out = {"case": inst.case, "total": total, "diff_sum": diff_sum}
        if inst.case == 1:
            closed = 1 + q * (q ** inst.m_y - 1) / (q - 1)
            if diff_sum != closed:
                raise InvariantError(f"engulfed sum {diff_sum} is not its closed form {closed}: {inst}")
        return out
    vert = vertical_pairing(inst)
    horiz = Fraction(mult_m(inst.m_x, inst.d)) if inst.d <= inst.m_x else Fraction(0)
    total = vert + horiz
    if total != inst.r + 1:
        raise InvariantError(f"overlapping total {total} is not r + 1 = {inst.r + 1}: {inst}")
    return {"case": 3, "total": total, "vertical": vert, "horizontal": horiz}


def fk_buckets(inst: TreeInstance) -> dict[int, Fraction]:
    """Vertical pairing regrouped by distance past the shrinking radius.

    Partitions the vertical pairing only.  A vertex joins bucket k when
    the path from it to the far center first meets the marked geodesic
    chain at depth k; everything funneling through the near-side boundary
    vertex lands in bucket -1.
    """
    if inst.case != 3 or inst.m_y + 1 >= inst.m_x:
        raise ValueError("bucket decomposition needs case 3 with m_y + 1 < m_x")
    r = inst.r
    buckets: dict[int, Fraction] = {}
    for cls in enumerate_ball_intersection(inst, inst.m_x, inst.m_y + 1):
        u_y = inst.d - cls.u
        k = -1 if u_y >= inst.m_y + 1 - r else inst.m_y - r - u_y
        mv = mult_m(inst.m_y + 1, cls.d2)
        buckets[k] = buckets.get(k, Fraction(0)) \
            + cls.count * mv * weight_pz(inst, cls.d1)
    return buckets


def bfs_census(q: int, d: int, rx: int, ry: int) -> dict[tuple[int, int], int]:
    """Literal tree walk counting vertices by distance pair, for small radii.

    Vertices are reduced words in the letters 0..q (no letter twice in a
    row).  The first center is the empty word, the second is 0101... of
    length d, and a word meets it in its common prefix k, so its distances
    are len(w) and len(w) + d - 2k.  The walk grows words up to length rx;
    BudgetError when there are more than 10^5 of them, before any is built.
    """
    # 1 word of length 0, q + 1 of length 1, and q times as many at each further length
    words = at_length = 1
    for length in range(1, rx + 1):
        at_length *= q if length > 1 else q + 1
        words += at_length
        if words > 10 ** 5:
            raise BudgetError("census budget exceeded")
    center = [i % 2 for i in range(min(d, rx))]
    census: dict[tuple[int, int], int] = {}
    level = [((), 0)]  # (word, common prefix with the second center)
    for d1 in range(rx + 1):
        for _, k in level:
            d2 = d1 + d - 2 * k
            if d2 <= ry:
                census[(d1, d2)] = census.get((d1, d2), 0) + 1
        if d1 < rx:
            # a word on the path to the second center (k == d1) stays on it with its next letter
            level = [(w + (a,), k + (k == d1 and d1 < len(center) and a == center[d1]))
                     for w, k in level for a in range(q + 1) if not w or a != w[-1]]
    return census
