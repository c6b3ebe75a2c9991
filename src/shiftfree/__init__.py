"""Translate-avoidance numbers of finite abelian groups.

For a group G and a nonempty pattern S, the threshold N is the least size at
which every N-element subset of G contains a translate g + S.  The library
computes N exactly when G/H is small (minimum hitting set over the translate
family), evaluates four proven bounds in exact integer arithmetic, and builds
certified avoiding sets witnessing the lower bounds.

The exact and construct names load their modules on first access, so a
process that only evaluates bounds never imports the solver.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    ceil_root_power,
    lemma_lower,
    thm1_lower,
    thm2_lower,
    upper_bound,
)
from .errors import (
    BudgetExceededError,
    DivisibilityError,
    DomainMismatchError,
    EmptySetError,
    InvalidGroupError,
    NotCosetUnionError,
    ParseError,
    SearchExhaustedError,
    ShiftfreeError,
)
from .groups import (
    Group,
    GroupSubset,
    Quotient,
    Subgroup,
    preimage_subset,
    project_subset,
    quotient_view,
    stabilizer,
    subgroup_generated,
)

__version__ = "0.1.0"

# Each name resolved by __getattr__, and the submodule that defines it.
_LAZY = {
    "Certificate": "exact",
    "verify_avoids": "exact",
    "translate_family": "exact",
    "ExactResult": "exact",
    "exact_N": "exact",
    "construct_thm1": "construct",
    "construct_thm2": "construct",
    "search_avoider": "construct",
}


def __getattr__(name: str):
    """Import the submodule behind a lazy name, then bind the name here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "Group",
    "GroupSubset",
    "Quotient",
    "Subgroup",
    "stabilizer",
    "quotient_view",
    "project_subset",
    "preimage_subset",
    "subgroup_generated",
    "BoundsReport",
    "bounds_report",
    "thm1_lower",
    "lemma_lower",
    "thm2_lower",
    "upper_bound",
    "ceil_root_power",
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "construct_thm2",
    "search_avoider",
    "translate_family",
    "ExactResult",
    "exact_N",
    "ShiftfreeError",
    "InvalidGroupError",
    "DomainMismatchError",
    "EmptySetError",
    "NotCosetUnionError",
    "DivisibilityError",
    "ParseError",
    "BudgetExceededError",
    "SearchExhaustedError",
    "__version__",
]
