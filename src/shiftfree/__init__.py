"""Translate-avoidance numbers of finite abelian groups.

For a group G and a nonempty pattern S, the threshold N is the least size at
which every N-element subset of G contains a translate g + S.  The library
computes N exactly when G/H is small (minimum hitting set over the translate
family), evaluates four proven bounds in exact integer arithmetic, and builds
certified avoiding sets witnessing the lower bounds.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    ceil_root_power,
    lemma_lower,
    proposition_check,
    proposition_margin_grid,
    thm1_lower,
    thm2_lower,
    upper_bound,
)
from .construct import (
    Certificate,
    construct_thm1,
    construct_thm2,
    search_avoider,
    verify_avoids,
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
from .exact import (
    ExactResult,
    TranslateFamily,
    exact_N,
    min_hitting_set,
    naive_exact,
    translate_family,
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
    "proposition_check",
    "proposition_margin_grid",
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "construct_thm2",
    "search_avoider",
    "TranslateFamily",
    "translate_family",
    "min_hitting_set",
    "ExactResult",
    "exact_N",
    "naive_exact",
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
