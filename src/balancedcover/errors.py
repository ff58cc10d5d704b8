"""Shared exception types.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
"""


class InputError(ValueError):
    """Invalid input data: bad matrices, sequences, parameters out of range."""


class BudgetExceededError(RuntimeError):
    """An exhaustive computation was refused because it would enumerate too
    many subsets.  ``count`` holds the number that would have been visited."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class SolverError(RuntimeError):
    """The LP solver failed: a slack start that violates a row, a singular
    or infeasible warm start, an unbounded objective, a pivoting stall past
    the iteration limit, or an optimum whose residual certificate fails (x*
    violates a row or a bound by more than 1e-7 * max(1, max |rhs|))."""
