"""Monomial hermitian matrices, index classes, and the two dualities.

A monomial hermitian matrix of size 2n is determined by an involution sigma
of {1..2n} and integers e with e_i = e_{sigma(i)}: the matrix has pi^{e_i}
in row sigma(i), column i and zeros elsewhere.  All indices here are
1-based to match the combinatorics; tuples are 0-indexed internally.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import lru_cache

from .errors import InvariantError


class MonomialHermitian(namedtuple("MonomialHermitian", "size sigma e")):
    """Images sigma[i-1] = sigma(i) and exponents e[i-1] = e_i of a form of this size."""

    __slots__ = ()

    def sigma_of(self, i: int) -> int:
        return self.sigma[i - 1]

    def e_of(self, i: int) -> int:
        return self.e[i - 1]

    @property
    def n(self) -> int:
        return self.size // 2

    def is_diagonal(self) -> bool:
        return all(self.sigma[i] == i + 1 for i in range(self.size))

    def __str__(self):
        if self.is_diagonal():
            return "diag:" + ",".join(str(v) for v in self.e)
        return ("mono:sigma=[" + ",".join(str(v) for v in self.sigma)
                + "];e=[" + ",".join(str(v) for v in self.e) + "]")


def make_monomial(sigma, e) -> MonomialHermitian:
    sigma = tuple(int(v) for v in sigma)
    e = tuple(int(v) for v in e)
    size = len(sigma)
    if size == 0 or size % 2:
        raise ValueError(f"size must be a positive even integer, got {size}")
    if len(e) != size:
        raise ValueError(f"sigma and e lengths differ: {size} vs {len(e)}")
    if sorted(sigma) != list(range(1, size + 1)):
        raise ValueError("sigma is not a permutation of 1..size")
    for i in range(1, size + 1):
        if sigma[sigma[i - 1] - 1] != i:
            raise ValueError(f"sigma is not an involution (breaks at index {i})")
        if e[i - 1] != e[sigma[i - 1] - 1]:
            raise ValueError(f"exponents not constant on the orbit of {i}")
    return MonomialHermitian(size, sigma, e)


def diagonal(exps) -> MonomialHermitian:
    exps = tuple(int(v) for v in exps)
    return make_monomial(tuple(range(1, len(exps) + 1)), exps)


_MONO_RE = re.compile(r"^mono:sigma=\[([0-9,\s-]*)\];e=\[([0-9,\s-]*)\]$")


def parse_monomial(text: str) -> MonomialHermitian:
    """Parse 'diag:e1,...,e2n' or 'mono:sigma=[...];e=[...]'."""
    text = text.strip()
    if text.startswith("diag:"):
        exps = [int(v) for v in text[5:].split(",") if v.strip() != ""]
        return diagonal(exps)
    m = _MONO_RE.match(text)
    if m:
        sigma = [int(v) for v in m.group(1).split(",") if v.strip() != ""]
        e = [int(v) for v in m.group(2).split(",") if v.strip() != ""]
        return make_monomial(sigma, e)
    raise ValueError(f"unrecognized matrix literal: {text!r}")


def enumerate_reps(n: int, e_min: int, e_max: int):
    """All monomial hermitian matrices of size 2n with exponents in range.

    Deterministic order: involutions sorted by number of 2-cycles then by
    image tuple, exponents in lexicographic order over sorted orbit
    representatives.  `rep_at` returns the k-th of them and `count_reps`
    their number, without listing any.
    """
    if e_min > e_max:
        return
    values = range(e_min, e_max + 1)
    for sigma in _sorted_involutions(2 * n):
        orbits = _orbits(sigma)
        for assignment in itertools.product(values, repeat=len(orbits)):
            yield _form(sigma, orbits, assignment)


def count_reps(n: int, e_min: int, e_max: int) -> int:
    """The number of forms enumerate_reps(n, e_min, e_max) yields."""
    if e_min > e_max:
        return 0
    width = e_max - e_min + 1
    return sum(width ** len(_orbits(sigma)) for sigma in _sorted_involutions(2 * n))


def rep_at(n: int, e_min: int, e_max: int, k: int) -> MonomialHermitian:
    """The k-th form of enumerate_reps(n, e_min, e_max), without listing those before it."""
    rest = k
    if e_min <= e_max and rest >= 0:
        width = e_max - e_min + 1
        for sigma in _sorted_involutions(2 * n):
            orbits = _orbits(sigma)
            block = width ** len(orbits)
            if rest < block:
                # the last orbit's value varies fastest, as in itertools.product
                values = []
                for _ in orbits:
                    rest, d = divmod(rest, width)
                    values.append(e_min + d)
                return _form(sigma, orbits, reversed(values))
            rest -= block
    raise IndexError(f"form index {k} out of range for n={n}, exponents {e_min}..{e_max}")


def _orbits(sigma):
    """The orbits (i, sigma(i)) of an involution with i <= sigma(i), by i."""
    return [(i, j) for i, j in enumerate(sigma, 1) if j >= i]


def _form(sigma, orbits, values) -> MonomialHermitian:
    """The form with involution sigma taking each orbit's value as its exponent."""
    e = [0] * len(sigma)
    for (i, j), v in zip(orbits, values):
        e[i - 1] = v
        e[j - 1] = v
    return MonomialHermitian(len(sigma), sigma, tuple(e))


@lru_cache(maxsize=None)
def _sorted_involutions(size: int) -> tuple:
    out = []

    def build(done, remaining):
        if not remaining:
            img = [0] * size
            for i, j in done:
                img[i - 1] = j
                img[j - 1] = i
            out.append(tuple(img))
            return
        i = remaining[0]
        build(done + [(i, i)], remaining[1:])
        for k, j in enumerate(remaining[1:]):
            build(done + [(i, j)], remaining[1:k + 1] + remaining[k + 2:])

    build([], list(range(1, size + 1)))
    out.sort(key=lambda img: (sum(1 for i in range(size) if img[i] != i + 1), img))
    return tuple(out)


# ---------------------------------------------------------------------------
# index classes


class IndexClasses(namedtuple("IndexClasses", "a1 a2 b1 b2 c1 c2 frak_a frak_c xi")):
    """Partition of {1..2n} relative to the block cut at 2n-h.

    a1/a2: top indices with sigma staying in the top block (fixed / moved),
    b1/b2: indices whose orbit crosses the cut (top side / bottom side),
    c1/c2: bottom indices with sigma staying in the bottom block.
    frak_a counts a-indices with e <= -1, frak_c counts c-indices with
    e <= 0, xi = |b1| = |b2|.  The six classes are frozensets.
    """

    __slots__ = ()


def classify(Y: MonomialHermitian, h: int) -> IndexClasses:
    size = Y.size
    if not 0 <= h <= size:
        raise ValueError(f"need 0 <= h <= {size}, got {h}")
    cut = size - h
    a1, a2, b1, b2, c1, c2 = set(), set(), set(), set(), set(), set()
    for j in range(1, size + 1):
        sj = Y.sigma_of(j)
        if j <= cut:
            if sj == j:
                a1.add(j)
            elif sj <= cut:
                a2.add(j)
            else:
                b1.add(j)
        else:
            if sj == j:
                c1.add(j)
            elif sj > cut:
                c2.add(j)
            else:
                b2.add(j)
    frak_a = sum(1 for j in a1 | a2 if Y.e_of(j) <= -1)
    frak_c = sum(1 for j in c1 | c2 if Y.e_of(j) <= 0)
    if len(b1) != len(b2):
        raise InvariantError(f"unbalanced crossing classes {sorted(b1)} and {sorted(b2)}")
    return IndexClasses(frozenset(a1), frozenset(a2), frozenset(b1),
                        frozenset(b2), frozenset(c1), frozenset(c2),
                        frak_a, frak_c, len(b1))


# ---------------------------------------------------------------------------
# dualities


def _rotate(i: int, size: int, h: int) -> int:
    # the index rotation sending the top block past the bottom block
    return i + h if i <= size - h else i - (size - h)


def _conjugate_dual(Y: MonomialHermitian, h: int, top_shift: int) -> MonomialHermitian:
    """Block swap [[A,B],[C,D]] -> [[pi^{-s}D, C],[B, pi^{s}A]] with s=top_shift."""
    size = Y.size
    cut = size - h
    sigma = [0] * size
    e = [0] * size
    for j in range(1, size + 1):
        sj = Y.sigma_of(j)
        jr = _rotate(j, size, h)
        sigma[jr - 1] = _rotate(sj, size, h)
        if j <= cut and sj <= cut:
            delta = top_shift
        elif j > cut and sj > cut:
            delta = -top_shift
        else:
            delta = 0
        e[jr - 1] = Y.e_of(j) + delta
    return make_monomial(sigma, e)


def dual_wedge(Y: MonomialHermitian, h: int) -> MonomialHermitian:
    """[[A,B],[C,D]] -> [[pi^{-1}D, C],[B, pi A]] with top block of size 2n-h."""
    if not 0 <= h <= Y.size:
        raise ValueError(f"need 0 <= h <= {Y.size}, got {h}")
    return _conjugate_dual(Y, h, +1)


def dual_vee(B: MonomialHermitian, h: int) -> MonomialHermitian:
    """[[A,B],[C,D]] -> [[pi D, C],[B, pi^{-1} A]]; defined on R^h matrices."""
    ok, _ = is_in_Rh(B, h)
    if not ok:
        raise ValueError(f"matrix not of R^h shape for h={h}: {B}")
    return _conjugate_dual(B, h, -1)


def is_in_Rh(B: MonomialHermitian, h: int):
    """Check the R^h involution shape; returns (bool, s) with s the swap count."""
    size = B.size
    if not 0 <= h <= size:
        raise ValueError(f"need 0 <= h <= {size}, got {h}")
    cut = size - h
    s = sum(1 for i in range(1, cut + 1) if B.sigma_of(i) != i)
    if s > min(h, cut):
        return False, None
    for i in range(1, size + 1):
        if i <= cut - s:
            want = i
        elif i <= cut:
            want = i + h
        elif i <= size - s:
            want = i
        else:
            want = i - h
        if B.sigma_of(i) != want:
            return False, None
    return True, s


class WeightProfile(namedtuple("WeightProfile", "n h t r")):
    """Parameters (n, h, t, r) of a weighted density computation."""

    __slots__ = ()

    def __new__(cls, n: int, h: int, t: int, r: int = 0):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not 0 <= h <= 2 * n:
            raise ValueError(f"need 0 <= h <= 2n, got h={h}, n={n}")
        if not 0 <= t <= n:
            raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
        if r < 0:
            raise ValueError(f"need r >= 0, got {r}")
        return super().__new__(cls, n, h, t, r)
