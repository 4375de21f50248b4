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
polynomial factor (full Euclidean gcd, not just monomial gcd), the
denominator has minimal exponent 0, and its constant coefficient is +1.
That makes the representation unique, so equality is dict comparison.

Table values, gram products and density terms travel as factored terms
(c, N, A, B), standing for c s^N (s-1)^A (s+1)^B; _expand is the one place
that turns such a term into a SignedRational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, exp: int = 0, coeff=1) -> "SignedLaurent":
        return cls({exp: coeff})

    @classmethod
    def zero(cls) -> "SignedLaurent":
        return cls()

    @classmethod
    def one(cls) -> "SignedLaurent":
        return cls({0: 1})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponent range")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponent range")
        return max(self.coeffs)

    def shifted(self, k: int) -> "SignedLaurent":
        """Multiply by s^k."""
        return SignedLaurent({e + k: c for e, c in self.coeffs.items()})

    def scaled(self, c) -> "SignedLaurent":
        return self * SignedLaurent({0: c})

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
        r = SignedLaurent.__new__(SignedLaurent)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = SignedLaurent.__new__(SignedLaurent)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

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
            r = SignedLaurent.__new__(SignedLaurent)
            r.coeffs = {e + ea: c * ca for e, c in b.items()}
            return r
        if len(b) == 1:
            (eb, cb), = b.items()
            r = SignedLaurent.__new__(SignedLaurent)
            r.coeffs = {e + eb: c * cb for e, c in a.items()}
            return r
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        r = SignedLaurent.__new__(SignedLaurent)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (e, c), = self.coeffs.items()
            return SignedLaurent({e * n: Fraction(c) ** n})
        result = SignedLaurent.one()
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
        return hash(frozenset(self.coeffs.items()))

    # -- evaluation and IO ----------------------------------------------

    def evaluate(self, q) -> Fraction:
        """Substitute s = -q."""
        s = -Fraction(q)
        if s == 0:
            raise ValueError("cannot evaluate at q = 0")
        total = _F0
        for e, c in self.coeffs.items():
            total += c * s ** e
        return total

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data: dict) -> "SignedLaurent":
        return cls({int(e): Fraction(c) for e, c in data.items()})

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


def _div(a, b):
    """Exact quotient of two int/Fraction coefficients: an int when it is integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _as_sl(x):
    if isinstance(x, SignedLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return SignedLaurent({0: x}) if x else SignedLaurent()
    return NotImplemented


# ---------------------------------------------------------------------------
# polynomial helpers on plain dicts with min exponent 0


def _split_monomial(p: SignedLaurent):
    """p = s^shift * P with P of minimal exponent 0.  Returns (shift, P dict)."""
    m = p.min_exp()
    return m, {e - m: c for e, c in p.coeffs.items()}


def _pdeg(a: dict) -> int:
    return max(a)


def _pmod(a: dict, b: dict) -> dict:
    # remainder of a by b, both min-exp-0 dicts, b nonzero
    a = dict(a)
    db, lb = _pdeg(b), b[_pdeg(b)]
    while a and _pdeg(a) >= db:
        da, la = _pdeg(a), a[_pdeg(a)]
        f = _div(la, lb)
        shift = da - db
        for e, c in b.items():
            e2 = e + shift
            v = a.get(e2, 0) - f * c
            if v:
                a[e2] = v
            else:
                a.pop(e2, None)
    return a

def _pdivexact(a: dict, b: dict) -> dict:
    # exact quotient a / b; raises if not divisible
    a = dict(a)
    out = {}
    db, lb = _pdeg(b), b[_pdeg(b)]
    while a:
        da = _pdeg(a)
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        f = _div(a[da], lb)
        shift = da - db
        out[shift] = f
        for e, c in b.items():
            e2 = e + shift
            v = a.get(e2, 0) - f * c
            if v:
                a[e2] = v
            else:
                a.pop(e2, None)
    return out


def _strip(a: dict) -> dict:
    m = min(a)
    if m == 0:
        return a
    return {e - m: c for e, c in a.items()}


def _pgcd(a: dict, b: dict) -> dict:
    # Euclid on min-exp-0 dicts; result min-exp-0 with constant term 1
    while b:
        r = _pmod(a, b)
        a, b = b, (_strip(r) if r else {})
    lo = a[min(a)]
    return {e: _div(c, lo) for e, c in a.items()}


class SignedRational:
    """Quotient of two SignedLaurents, kept in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_sl(num)
        den = SignedLaurent.one() if den is None else _coerce_sl(den)
        if den.is_zero():
            raise ZeroDivisionError("SignedRational with zero denominator")
        if num.is_zero():
            self.num = SignedLaurent()
            self.den = SignedLaurent.one()
            return
        sn, pn = _split_monomial(num)
        sd, pd = _split_monomial(den)
        if len(pd) == 1:
            # monomial denominator: fast path, no gcd needed
            q = pn
        else:
            g = _pgcd(dict(pn), dict(pd))
            if len(g) > 1 or g.get(0) != 1:
                pn = _pdivexact(pn, g)
                pd = _pdivexact(pd, g)
            q = pn
        c0 = pd[0]
        shift = sn - sd
        self.num = SignedLaurent({e + shift: _div(c, c0) for e, c in q.items()})
        self.den = SignedLaurent({e: _div(c, c0) for e, c in pd.items()})

    # -- helpers --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_monomial(self) -> bool:
        return self.num.is_monomial() and self.den == SignedLaurent.one()

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return SignedRational(self.num + other.num, self.den)
        return SignedRational(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = SignedRational.__new__(SignedRational)
        r.num = -self.num
        r.den = self.den
        return r

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
        return SignedRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero SignedRational")
        return SignedRational(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inv(self) -> "SignedRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return SignedRational(self.den, self.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return SignedRational(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce_sr(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation and IO ------------------------------------------------

    def evaluate(self, q) -> Fraction:
        d = self.den.evaluate(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return self.num.evaluate(q) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "SignedRational":
        return cls(SignedLaurent.from_json(data["num"]),
                   SignedLaurent.from_json(data["den"]))

    def __repr__(self):
        if self.den == SignedLaurent.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _coerce_sl(x) -> SignedLaurent:
    if isinstance(x, SignedLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return SignedLaurent({0: x}) if x else SignedLaurent()
    raise TypeError(f"cannot coerce {type(x).__name__} to SignedLaurent")


def _coerce_sr(x):
    if isinstance(x, SignedRational):
        return x
    if isinstance(x, (SignedLaurent, int, Fraction)):
        return SignedRational(x)
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
    a = [[_must_sr(x) for x in row] for row in matrix]
    b = [_must_sr(x) for x in rhs]
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
            for c in range(col, n):
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


def _must_sr(x) -> SignedRational:
    r = _coerce_sr(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to SignedRational")
    return r


# ---------------------------------------------------------------------------
# small constructors used all over the package


def npq(k: int, coeff=1) -> SignedLaurent:
    """(-q)^k as a monomial, optionally scaled."""
    return SignedLaurent.monomial(k, coeff)


def qpow(k: int, coeff=1) -> SignedLaurent:
    """q^k = (-1)^k s^k, optionally scaled."""
    return SignedLaurent.monomial(k, -coeff if k % 2 else coeff)


SL_ONE = SignedLaurent.one()
SL_ZERO = SignedLaurent.zero()
SR_ONE = SignedRational(1)
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


def _expand(term: tuple) -> SignedRational:
    c, n, a, b = term
    num = SignedLaurent({e: c * x for e, x in enumerate(_pm_coeffs(max(a, 0), max(b, 0)), n)})
    return SignedRational(num, _pm_poly(max(-a, 0), max(-b, 0)))
