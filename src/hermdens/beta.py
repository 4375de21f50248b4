"""Correction constants linking derivative densities across the duality.

The constants come out of a (2n+1) x (2n+1) linear system whose rows are
indexed by the class counter difference c = frak_c - frak_a, which ranges
over [-(2n-h), h] as i runs from 1 to 2n+1.  Columns hold the profile
monomials of the two dual towers at t = 0..n-1 plus one final column for the
t = n term; the right hand side carries the counter itself.  build_system
returns these monomials as SignedLaurents.

The matrix is a scaled two-node Vandermonde in disguise: with nodes x_j and
column scalings alpha_j as below, s^{2n(2n-h)} B_{ij} = x_j^{i-1} alpha_j.
solve_constants solves it by Lagrange coefficient inversion
(vandermonde_inverse_route).  Exact Gaussian elimination (symb.sr_solve_linear
on build_system) shares no solving code with that route and is kept as the
independent check in the tests and the verify suites.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import BudgetError
from .symb import SL_ONE, SL_ZERO, SignedRational, npq

# the Lagrange route costs 1.4-1.8x more per step in n (one solve at n = 8 takes
# 0.10-0.11 s at h = 0, 5, 8, 12 and 16 on a 2-core x86-64 machine with
# Python 3.11, most of it the one Euclid per unknown); appendix --n is
# checked against this limit too, through _check_system
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
    """Solve the system through Lagrange coefficients instead of elimination.

    Scaling by s^{2n(2n-h)} turns row i (0-based) of the right hand side into
    the integer c_i = i - (2n-h).  With l_ij the z^{2n-j} coefficient of
    prod_{m != i} (1 - x_m z), unknown i is
    sum_j c_j l_ij / (alpha_i prod_{m != i} (x_m - x_i)).  Numerator and
    denominator stay Laurent polynomials, so each unknown is canonicalized once.
    """
    _check_system(n, h)
    xs, al = _nodes(n, h)
    N = 2 * n + 1
    cut = 2 * n - h
    out = []
    for i in range(N):
        coeffs = [SL_ONE]
        den = al[i]
        for m in range(N):
            if m == i:
                continue
            grown = coeffs + [SL_ZERO]
            for k, ck in enumerate(coeffs):
                grown[k + 1] = grown[k + 1] - ck * xs[m]
            coeffs = grown
            den = den * (xs[m] - xs[i])
        num = SL_ZERO
        for j in range(N):
            num = num + coeffs[N - 1 - j] * (j - cut)
        out.append(SignedRational(num, den))
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
