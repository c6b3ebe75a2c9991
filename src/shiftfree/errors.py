"""Exception types shared across the library, and the default wall-clock budget.

DEFAULT_BUDGET_MS lives here, beside the BudgetExceededError its overrun
raises, so the command line reads the --budget-ms default without loading
the solver.
"""

__all__ = [
    "ShiftfreeError",
    "InvalidGroupError",
    "DomainMismatchError",
    "EmptySetError",
    "NotCosetUnionError",
    "DivisibilityError",
    "ParseError",
    "BudgetExceededError",
    "SearchExhaustedError",
]

# Milliseconds an exact solve, or an avoider search's exact phase, may run.
DEFAULT_BUDGET_MS = 10_000


class ShiftfreeError(Exception):
    """Base class for all library errors."""


class InvalidGroupError(ShiftfreeError, ValueError):
    """Group built from an empty or non-positive list of orders, or too large."""


class DomainMismatchError(ShiftfreeError, ValueError):
    """Element or subset used with a group it does not belong to."""


class EmptySetError(ShiftfreeError, ValueError):
    """Operation requires a nonempty pattern set."""


class NotCosetUnionError(ShiftfreeError, ValueError):
    """Subset is not a union of cosets of the given subgroup."""


class DivisibilityError(ShiftfreeError, ValueError):
    """Integer arguments violate a required divisibility relation."""


class ParseError(ShiftfreeError, ValueError):
    """Textual group or set spec could not be parsed."""


class BudgetExceededError(ShiftfreeError, RuntimeError):
    """Exact solve or avoider search refused: group too large or wall-clock budget exhausted."""


class SearchExhaustedError(ShiftfreeError, RuntimeError):
    """Avoider search found no set of the size asked for, or proved that none exists."""
