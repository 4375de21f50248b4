"""Exact local density computations for hermitian lattices over p-adic rings.

Modules:
    symb    exact arithmetic in the signed indeterminate s (s = -q)
    reps    monomial hermitian matrices, index classes, dualities
    locint  local integral tables and the character-sum oracle
    whit    Gram factors, profile factors, Iwahori densities, weighted densities
    beta    correction constant linear systems and closed forms
    cdens   classical representation densities and derivative identities
    tree    intersection numbers on the (q+1)-regular lattice tree
    verify  the identity suites behind the verify command
    cli     command line interface
    errors  BudgetError and InvariantError
"""

from .symb import (
    SignedLaurent,
    SignedRational,
    sr_solve_linear,
)

__all__ = [
    "SignedLaurent",
    "SignedRational",
    "sr_solve_linear",
]

__version__ = "0.1.0"
