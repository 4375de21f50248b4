"""Correction constants linking derivative densities across the duality.

The constants come out of a (2n+1) x (2n+1) linear system whose rows are
indexed by the class counter difference c = frak_c - frak_a, which ranges
over [-(2n-h), h] as i runs from 1 to 2n+1.  Columns hold the profile
monomials of the two dual towers at t = 0..n-1 plus one final column for the
t = n term; the right hand side carries the counter itself.  build_system
returns these monomials as SignedLaurents.

The matrix is a scaled two-node Vandermonde in disguise: with nodes x_j and
column scalings alpha_j as below, s^{2n(2n-h)} B_{ij} = x_j^{i-1} alpha_j.
Its Lagrange inverse is a closed product of factors (1 - s^j) per constant,
and delta = h - n, since the node 1 is a root of every Lagrange numerator
but delta's (vandermonde_inverse_route).  Exact Gaussian elimination
(symb.sr_solve_linear on build_system) shares no solving code with that
route and is kept as the independent check in the tests and the verify suites.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import BudgetError
from .symb import SL_ONE, SignedRational, _unit_prod, npq

# one solve at n = 8 takes 0.025-0.041 s at h = 0, 5, 8, 12 and 16 on a 2-core
# x86-64 machine with Python 3.11, most of it the one Euclid per unknown, and
# 1.4-2.8x more per step in n (BENCH_products.json); appendix --n is checked
# against this limit too, through _check_system
SOLVE_MAX_N = 8


def _check_system(n: int, h: int) -> None:
    """Budget and range checks shared by both routes, before any work."""
    if n > SOLVE_MAX_N:
        raise BudgetError(f"exact solve limited to n <= {SOLVE_MAX_N}, got n={n}")
    if not (1 <= n and 0 <= h <= 2 * n):
        raise ValueError(f"need n >= 1 and 0 <= h <= 2n, got n={n}, h={h}")


def build_system(n: int, h: int):
    """Matrix and right hand side of the constant system."""
    _check_system(n, h)
    N = 2 * n + 1
    cut = 2 * n - h
    dual_pref = -4 * n * (n - h)  # h^2 - (2n - h)^2
    mat, rhs = [], []
    for i in range(1, N + 1):
        c = i - (cut + 1)
        row = [npq((n - t) * c - 2 * t * cut) for t in range(n)]
        row += [npq(dual_pref - (n - t) * c - 2 * t * h) for t in range(n)]
        row.append(npq(-2 * n * cut))
        mat.append(row)
        rhs.append(npq(-2 * n * cut, c))
    return mat, rhs


# beta_h and beta_dual are tuples of n SignedRationals, delta one SignedRational
BetaSolution = namedtuple("BetaSolution", "n h beta_h beta_dual delta")


@lru_cache(maxsize=None)
def solve_constants(n: int, h: int) -> BetaSolution:
    """Solve the system; the middle block carries a sign flip by convention.

    Memoized: the solution is a tuple of immutable values, and a raised
    budget or range error is not cached.
    """
    vec = vandermonde_inverse_route(n, h)
    return BetaSolution(n, h, tuple(vec[:n]), tuple(-v for v in vec[n:2 * n]), vec[2 * n])


def beta_closed_last(n: int) -> SignedRational:
    """Closed form for the top constant of the h = n - 1 system."""
    return SignedRational(SL_ONE - npq(n),
                          npq(3 * n + 1) * (SL_ONE - npq(1)) * (SL_ONE - npq(-(n + 1))))


def _nodes(n: int, h: int):
    xs, al = [], []
    for j in range(1, 2 * n + 2):
        if j <= n:
            xs.append(npq(n + 1 - j))
            al.append(npq((n + 1 - j) * (2 * n - h)))
        elif j <= 2 * n:
            xs.append(npq(j - 2 * n - 1))
            al.append(npq((2 * n + 1 - j) * (2 * n + h)))
        else:
            xs.append(SL_ONE)
            al.append(SL_ONE)
    return xs, al


def vandermonde_factor_check(n: int, h: int) -> bool:
    """Entrywise check of s^{2n(2n-h)} B_ij = x_j^{i-1} alpha_j."""
    mat, _ = build_system(n, h)
    xs, al = _nodes(n, h)
    scale = 2 * n * (2 * n - h)
    return all(mat[i][j].shifted(scale) == xs[j] ** i * al[j]
               for i in range(2 * n + 1) for j in range(2 * n + 1))


def vandermonde_inverse_route(n: int, h: int) -> list[SignedRational]:
    """Solve the system in closed form, from the Lagrange inverse of its shape.

    The unknown at the node s^a (sign +) or s^-a (sign -), 1 <= a <= n, is
    ±(-1)^a s^(a(a+1)/2 - a c) prod_{j=n-a+1..n} (1 - s^j) / ((1 - s^a)
    prod_{j=n+1..n+a} (1 - s^j)), with c = 3n - h or n + h; the last one, at
    the node 1, is delta = h - n.  Proof sketch: 1 is a root of every other
    Lagrange numerator prod_{m != i} (1 - x_m z), so one term of its
    derivative at 1 survives and cancels against s^k - s^j = ±s^min(k, j)
    (1 - s^|k-j|); delta is h + sum_{k != 0} s^k / (1 - s^k), and the terms
    for k and -k add to -1.  Each unknown is canonicalized once.
    """
    _check_system(n, h)
    out = []
    for sign, c in ((1, 3 * n - h), (-1, n + h)):
        for a in range(n, 0, -1):
            # _unit_prod's shifts -n..a-n-1 give prod_{j=n-a+1..n} (1 - s^j)
            num = npq(a * (a + 1) // 2 - a * c, sign * (-1) ** a) * _unit_prod(range(-n, a - n))
            out.append(SignedRational(num, _unit_prod((-a, *range(-n - a, -n)))))
    out.append(SignedRational(h - n))
    return out


def verify_thm314(B, h: int) -> dict:
    """Both sides of the derivative correction identity at n = 1.

    Needs B in the h-shape so the vee dual exists.
    """
    from .reps import dual_vee
    from .whit import _density_top, w_density_n1

    sol = solve_constants(1, h)
    Bd = dual_vee(B, h)
    # the dual's exponents can exceed B's: refuse either before the first density
    _density_top(B)
    _density_top(Bd)
    w_h1, w_h1p = w_density_n1(B, h, 1)
    w_d1, w_d1p = w_density_n1(Bd, 2 - h, 1)
    w_h0, _ = w_density_n1(B, h, 0)
    w_d0, _ = w_density_n1(Bd, 2 - h, 0)
    lhs = w_h1p - w_d1p
    rhs = (sol.beta_h[0] * w_h0 - sol.beta_dual[0] * w_d0
           + sol.delta * w_h1)
    return {"lhs": lhs, "rhs": rhs, "match": lhs == rhs}
