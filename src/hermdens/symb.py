"""Exact arithmetic in one signed indeterminate s.

Every closed form in this package lives in Q(s), where evaluating at an odd
prime power q means substituting s = -q.  Keeping the sign inside the
indeterminate makes parity bookkeeping automatic: a quantity written (-q)^k
on paper is stored as the monomial s^k, and q^k is (-1)^k s^k.

Coefficients are exact rationals.  An integral coefficient is stored as a
Python int, and a fractions.Fraction only when its denominator is above 1:
most values here have integer coefficients, and int arithmetic is several
times cheaper.  SignedLaurent.__init__ normalizes its input to that form,
and every division goes through _div, which returns an int when the
quotient is exact and a Fraction otherwise, so no float can appear.  Ring
operations skip __init__ and may carry a Fraction(k, 1); int and Fraction
compare, hash and print alike, so equality, hashing and to_json do not
see the difference.

Canonical form of a SignedRational: numerator and denominator share no
polynomial factor (not just no power of s), the denominator has minimal
exponent 0, and its constant coefficient is +1.  That makes the
representation unique, so equality is dict comparison.  The constructor
reaches it through a full Euclidean gcd of the two parts it is given.  The
field operations start from canonical operands, so Euclid runs only on the
parts that can share a factor (Henrici's method): a sum with a
denominator-1 operand or over coprime denominators is reduced as it
stands, a sum otherwise divides by gcd(d1, d2) and then by the gcd of the
new numerator with it, a product divides by gcd(n1, d2) and gcd(n2, d1),
and an inverse or a power needs no gcd at all.

Table values, gram products and density terms travel as factored terms
(c, N, A, B), standing for c s^N (s-1)^A (s+1)^B; _expand is the one place
that turns such a term into a SignedRational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush

from .errors import BudgetError, InvariantError

# a term c s^e at s = -q is a number of about |e| log2(q) bits; _eval_point
# refuses a term over this size before any power is built, for
# SignedLaurent.evaluate and for the factored terms of whit's numeric sums.
# verify at q = 3, 5, 7 and the tests need under 50 bits; at the limit a
# thousand terms evaluate in about 0.1 s
EVAL_MAX_BITS = 1 << 14


class SignedLaurent:
    """Laurent polynomial in s: maps exponent -> nonzero int or Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c.__class__ is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[int(exp)] = c
        self.coeffs = clean

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def shifted(self, k: int) -> "SignedLaurent":
        """Multiply by s^k."""
        return SignedLaurent({e + k: c for e, c in self.coeffs.items()})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_sl(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return _sl(out)

    __radd__ = __add__

    def __neg__(self):
        return _sl({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _as_sl(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_sl(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_sl(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SignedLaurent()
        if len(a) == 1:
            (ea, ca), = a.items()
            return _sl({e + ea: c * ca for e, c in b.items()})
        if len(b) == 1:
            (eb, cb), = b.items()
            return _sl({e + eb: c * cb for e, c in a.items()})
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return _sl(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (e, c), = self.coeffs.items()
            return SignedLaurent({e * n: Fraction(c) ** n})
        result = SL_ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        other = _as_sl(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the int, Fraction or SignedRational it equals
        c = self.coeffs
        if not c or (len(c) == 1 and 0 in c):
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    # -- evaluation and IO ----------------------------------------------

    def evaluate(self, q) -> Fraction:
        """Substitute s = -q; BudgetError when a term would exceed EVAL_MAX_BITS."""
        s = _eval_point(q, max(map(abs, self.coeffs), default=0))
        total = _F0
        for e, c in self.coeffs.items():
            total += c * s ** e
        return total

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                mag = "s" if e == 1 else f"s^{e}"
                if c == 1:
                    term = mag
                elif c == -1:
                    term = "-" + mag
                else:
                    term = f"{c}*{mag}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


_F0 = Fraction(0)


def _sl(coeffs: dict) -> SignedLaurent:
    """A SignedLaurent holding coeffs itself: no copy and no normalization."""
    r = SignedLaurent.__new__(SignedLaurent)
    r.coeffs = coeffs
    return r


def _eval_point(q, degree: int, pad: int = 0) -> Fraction:
    """s = -q for terms of total degree <= degree in factors of size <= |q| + pad.

    BudgetError, before any power is built, when such a term is over EVAL_MAX_BITS.
    """
    s = -Fraction(q)
    if s == 0:
        raise ValueError("cannot evaluate at q = 0")
    bits = degree * (max(abs(s.numerator), s.denominator) + pad).bit_length()
    if bits > EVAL_MAX_BITS:
        raise BudgetError(f"evaluation limited to {EVAL_MAX_BITS}-bit terms, "
                          f"got about {bits} bits")
    return s


def _float(x) -> float:
    """float(x) for an exact value x; BudgetError when x is outside the float range."""
    try:
        return float(x)
    except OverflowError:
        raise BudgetError("value outside the float range") from None


def _div(a, b):
    """Exact quotient of two int/Fraction coefficients: an int when it is integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _as_sl(x):
    """x as a SignedLaurent, NotImplemented for any other type."""
    if isinstance(x, SignedLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return SignedLaurent({0: x}) if x else SignedLaurent()
    return NotImplemented


# ---------------------------------------------------------------------------
# polynomial helpers on plain dicts with min exponent 0


def _strip(a: dict) -> tuple[int, dict]:
    """a = s^m * P with P of minimal exponent 0, for a nonzero a: (m, P), P is a when m is 0."""
    m = min(a)
    return m, (a if m == 0 else {e - m: c for e, c in a.items()})


def _pdivmod(a: dict, b: dict) -> tuple[dict, dict]:
    """Quotient and remainder of a by b, both min-exp-0 dicts, b nonzero.

    The remainder's exponents wait in a max-heap; one that cancels is left
    there and skipped when it comes up, so the cost follows the term counts
    and a sparse dividend of large degree allocates nothing dense.
    """
    a = dict(a)
    out = {}
    db = max(b)
    lb = b[db]
    heap = [-e for e in a]
    heapify(heap)
    while heap:
        da = -heappop(heap)
        if da < db:
            break
        if da not in a:
            continue
        f = _div(a[da], lb)
        shift = da - db
        out[shift] = f
        for e, c in b.items():
            e2 = e + shift
            v = a.get(e2, 0) - f * c
            if v:
                if e2 not in a:
                    heappush(heap, -e2)
                a[e2] = v
            else:
                a.pop(e2, None)
    return out, a


def _pdivexact(a: dict, b: dict) -> dict:
    # exact quotient a / b; InvariantError if not divisible
    out, rem = _pdivmod(a, b)
    if rem:
        raise InvariantError("inexact polynomial division")
    return out


def _pgcd(a: dict, b: dict) -> dict:
    # Euclid on min-exp-0 dicts; result min-exp-0 with constant term 1
    while b:
        r = _pdivmod(a, b)[1]
        a, b = b, (_strip(r)[1] if r else {})
    lo = a[min(a)]
    return {e: _div(c, lo) for e, c in a.items()}


def _gcd(a: dict, b: dict):
    """The polynomial gcd of two Laurent dicts with constant term 1, None when it is 1."""
    if len(a) < 2 or len(b) < 2:
        return None
    g = _pgcd(_strip(a)[1], _strip(b)[1])
    return g if len(g) > 1 else None


def _quo(a: SignedLaurent, g) -> SignedLaurent:
    """a / g for a divisor g of a from _gcd; a itself when g is None."""
    if g is None:
        return a
    m, p = _strip(a.coeffs)
    return _sl({e + m: c for e, c in _pdivexact(p, g).items()})


def _ints(x: SignedLaurent) -> SignedLaurent:
    """x with every integral Fraction coefficient made an int; x itself when there is none."""
    for c in x.coeffs.values():
        if c.__class__ is not int:
            return _sl({e: c if c.__class__ is int or c.denominator > 1 else c.numerator
                        for e, c in x.coeffs.items()})
    return x


def _sr(num: SignedLaurent, den: SignedLaurent) -> "SignedRational":
    """num / den for coprime parts, den canonical: no gcd, only the int normalization."""
    r = SignedRational.__new__(SignedRational)
    r.num, r.den = _ints(num), _ints(den)
    return r


class SignedRational:
    """Quotient of two SignedLaurents, kept in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_sl(num)
        den = SL_ONE if den is None else _as_sl(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("SignedRational parts must be SignedLaurent, int or Fraction")
        if den.is_zero():
            raise ZeroDivisionError("SignedRational with zero denominator")
        if num.is_zero():
            self.num = SignedLaurent()
            self.den = SL_ONE
            return
        sn, pn = _strip(num.coeffs)
        sd, pd = _strip(den.coeffs)
        g = _gcd(pn, pd)
        if g:
            pn, pd = _pdivexact(pn, g), _pdivexact(pd, g)
        c0 = pd[0]
        if c0 != 1:
            pn = {e: _div(c, c0) for e, c in pn.items()}
            pd = {e: _div(c, c0) for e, c in pd.items()}
        shift = sn - sd
        self.num = _ints(_sl({e + shift: c for e, c in pn.items()} if shift else pn))
        self.den = _ints(_sl(pd))

    # -- helpers --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations ------------------------------------------------
    # Both operands are canonical, so a result is reduced only by the
    # factors its parts can share (Henrici; Knuth, TAOCP 2, 4.5.1).

    def __add__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            if len(d1.coeffs) == 1:
                return _sr(n1 + n2, d1)
            g, e1, e2 = d1.coeffs, SL_ONE, SL_ONE
        else:
            g = _gcd(d1.coeffs, d2.coeffs)
            if g is None:
                # over coprime denominators the sum is reduced as it stands
                return _sr(n1 * d2 + n2 * d1, d1 * d2)
            e1, e2 = _quo(d1, g), _quo(d2, g)
        # num / (e1 e2 g) with num coprime to e1 e2: only g can share a factor
        num = n1 * e2 + n2 * e1
        if num.is_zero():
            return SR_ZERO
        g2 = _gcd(num.coeffs, g)
        return _sr(_quo(num, g2), e1 * _quo(d2, g2))

    __radd__ = __add__

    def __neg__(self):
        return _sr(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n1.is_zero() or n2.is_zero():
            return SR_ZERO
        g1, g2 = _gcd(n1.coeffs, d2.coeffs), _gcd(n2.coeffs, d1.coeffs)
        return _sr(_quo(n1, g1) * _quo(n2, g2), _quo(d1, g2) * _quo(d2, g1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero SignedRational")
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inv(self) -> "SignedRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m, p = _strip(self.num.coeffs)
        c0 = p[0]
        return _sr(_sl({e - m: _div(c, c0) for e, c in self.den.coeffs.items()}),
                   _sl({e: _div(c, c0) for e, c in p.items()}))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return _sr(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a canonical one-term denominator is 1, and the value hashes as its numerator
        return hash(self.num) if len(self.den.coeffs) == 1 else hash((self.num, self.den))

    # -- evaluation and IO ------------------------------------------------

    def evaluate(self, q) -> Fraction:
        d = self.den.evaluate(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return self.num.evaluate(q) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        if self.den == SL_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _coerce_sr(x):
    """x as a SignedRational, NotImplemented for any other type."""
    if isinstance(x, SignedRational):
        return x
    if isinstance(x, (SignedLaurent, int, Fraction)):
        # a value over 1 is canonical as it stands
        return _sr(_as_sl(x), SL_ONE)
    return NotImplemented


# ---------------------------------------------------------------------------
# named operations


def sr_solve_linear(matrix, rhs) -> list[SignedRational]:
    """Solve a square linear system over Q(s) by exact Gaussian elimination.

    A singular matrix raises ValueError naming the first column that fails
    to produce a pivot.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    a = [[_coerce_sr(x) for x in row] for row in matrix]
    b = [_coerce_sr(x) for x in rhs]
    if any(x is NotImplemented for row in (*a, b) for x in row):
        raise TypeError("entries must be SignedRational, SignedLaurent, int or Fraction")
    perm = list(range(n))
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[perm[r]][col].is_zero():
                piv = r
                break
        if piv is None:
            raise ValueError(f"singular system: column {col} has no pivot (first dependent column)")
        perm[col], perm[piv] = perm[piv], perm[col]
        prow = perm[col]
        inv = a[prow][col].inv()
        for r in range(col + 1, n):
            rr = perm[r]
            if a[rr][col].is_zero():
                continue
            f = a[rr][col] * inv
            # column col below the pivot is never read again, and a zero
            # of the pivot row leaves its entry as it is
            for c in range(col + 1, n):
                if not a[prow][c].is_zero():
                    a[rr][c] = a[rr][c] - f * a[prow][c]
            b[rr] = b[rr] - f * b[prow]
    x: list[SignedRational] = [SignedRational(0)] * n
    for col in range(n - 1, -1, -1):
        prow = perm[col]
        acc = b[prow]
        for c in range(col + 1, n):
            acc = acc - a[prow][c] * x[c]
        x[col] = acc / a[prow][col]
    return x


# ---------------------------------------------------------------------------
# small constructors used all over the package


def npq(k: int, coeff=1) -> SignedLaurent:
    """(-q)^k as a monomial, optionally scaled."""
    return SignedLaurent({k: coeff})


def qpow(k: int, coeff=1) -> SignedLaurent:
    """q^k = (-1)^k s^k, optionally scaled."""
    return SignedLaurent({k: -coeff if k % 2 else coeff})


SL_ONE = SignedLaurent({0: 1})
SL_ZERO = SignedLaurent()
SR_ZERO = SignedRational(0)


# ---------------------------------------------------------------------------
# factored terms: the tuple (c, N, A, B) stands for c s^N (s-1)^A (s+1)^B


@lru_cache(maxsize=None)
def _pm_coeffs(a: int, b: int) -> tuple:
    """Integer coefficients of (s - 1)^a (s + 1)^b, constant term first."""
    out = [1]
    for root in (1,) * a + (-1,) * b:
        out = [x - root * y for x, y in zip([0] + out, out + [0])]
    return tuple(out)


def _pm_poly(a: int, b: int) -> SignedLaurent:
    return SignedLaurent(dict(enumerate(_pm_coeffs(a, b))))


def _unit_prod(shifts) -> SignedLaurent:
    """prod (1 - s^-l) over the shifts l, as one Laurent polynomial."""
    prod = SL_ONE
    for l in shifts:
        prod = prod * (SL_ONE - npq(-l))
    return prod


def _expand(term) -> SignedRational:
    """The factored term as a SignedRational; None stands for zero."""
    if term is None:
        return SR_ZERO
    c, n, a, b = term
    num = SignedLaurent({e: c * x for e, x in enumerate(_pm_coeffs(max(a, 0), max(b, 0)), n)})
    return SignedRational(num, _pm_poly(max(-a, 0), max(-b, 0)))
