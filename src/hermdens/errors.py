"""Shared exception types.

BudgetError subclasses ValueError so existing guard call sites keep their
contract; the command line layer tells the two apart for exit codes.
InvariantError marks a broken internal identity (a tail that is not
geometric); it is raised explicitly so the check survives `python -O`, and
the command line maps it to exit 1.
"""


class BudgetError(ValueError):
    """A request exceeds a built-in safety budget."""


class InvariantError(ArithmeticError):
    """An exact computation broke an invariant it relies on."""
