"""Avoiding-set constructions and the seeded randomized search.

An avoiding set for a pattern S is a subset containing no translate g + S.
Everything returned here is a Certificate from exact.certify: an actual
verify_avoids pass over the stabilizer transversal, never the construction's
own bookkeeping.  Certificate and verify_avoids live in exact and are
re-exported here.

The randomized search runs on plain int masks, one per translate: of S in G
for search_avoider, of S/H in G/H as class-index masks for construct_thm2.
"""

from __future__ import annotations

import random

from .bounds import ceil_root_power, thm2_lower
from .errors import BudgetExceededError, EmptySetError, SearchExhaustedError
from .exact import Certificate, _solve_hitting_set, certify, verify_avoids
from .groups import GroupSubset, _bit_indices, _lift, project_subset, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "search_avoider",
    "construct_thm2",
]

# Search budgets: random samples, repair steps, the largest group the
# hitting-set fallback is tried on, and the largest group searched at all (the
# search keeps all g translate masks, g bits each).
MAX_RANDOM_RESTARTS = 64
MAX_REPAIR_STEPS = 2000
EXACT_FALLBACK_LIMIT = 64
MAX_SEARCH_ORDER = 2**14


def construct_thm1(pattern: GroupSubset) -> Certificate:
    """Avoiding set of size g - g/h: drop the max flat index of every H-coset.

    Every translate of the pattern is a union of stabilizer cosets, and every
    coset here misses one element, so no translate fits.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    view = quotient_view(pattern.group, stabilizer(pattern))
    return certify(_lift(view, 0), pattern)


def _check_search_args(order: int, seed: int) -> None:
    if order > MAX_SEARCH_ORDER:
        raise BudgetExceededError(
            f"quotient order {order} exceeds the avoider-search cap {MAX_SEARCH_ORDER}"
        )
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def search_avoider(pattern: GroupSubset, target_size: int, *, seed: int = 0) -> Certificate:
    """Find a verified avoiding set of exactly target_size elements.

    Requires the pattern's stabilizer to be trivial; construct_thm2 runs the
    same search on G/H for any pattern.  Groups above MAX_SEARCH_ORDER raise
    BudgetExceededError, and SearchExhaustedError means every phase of
    _search failed.  The whole schedule is a pure function of seed.
    """
    if pattern.bits == 0:
        raise EmptySetError("search needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    _check_search_args(g, seed)
    h = stabilizer(pattern).order
    if h != 1:
        raise ValueError(f"search needs a trivial stabilizer, but this pattern's has order {h}; "
                         "use construct_thm2 (--method thm2), which searches G/H")
    if not 0 <= target_size <= g:
        raise ValueError(f"target size must lie in [0, {g}], got {target_size}")
    found = _search([pattern.translate(t).bits for t in range(g)], target_size, seed)
    return certify(GroupSubset(grp, found), pattern)


def _search(masks: list[int], target_size: int, seed: int) -> int:
    """A target_size-element bitmask over [0, len(masks)) containing no mask.

    Mask t is one pattern's translate by element t.  Uniform random subsets,
    then local repair of the last sample, then, with at most
    EXACT_FALLBACK_LIMIT elements, a hitting-set solve bounded by
    len(masks) - target_size whose complement is trimmed to size; raises
    SearchExhaustedError otherwise.
    """
    g = len(masks)
    full = (1 << g) - 1

    def violation(bits: int) -> int:
        """Smallest translate index whose translate is inside bits, else -1."""
        for t in range(g):
            if masks[t] & ~bits == 0:
                return t
        return -1

    if target_size == 0:
        return 0
    found = -1
    rng = random.Random(seed)
    sample = 0
    for _ in range(MAX_RANDOM_RESTARTS):
        sample = 0
        for e in rng.sample(range(g), target_size):
            sample |= 1 << e
        if violation(sample) < 0:
            found = sample
            break
    if found < 0:
        bits = sample
        for _ in range(MAX_REPAIR_STEPS):
            t = violation(bits)
            if t < 0:
                found = bits
                break
            outside = _bit_indices(full ^ bits)
            if not outside:
                break  # target_size == g: no room to repair
            inside = _bit_indices(masks[t])
            bits ^= 1 << rng.choice(inside)
            bits |= 1 << rng.choice(outside)
    if found < 0 and g <= EXACT_FALLBACK_LIMIT:
        # B avoids every translate iff its complement hits every translate.
        size, hitting, _ = _solve_hitting_set(masks, g, None, g - target_size)
        if size <= g - target_size:
            found = full ^ hitting
            while found.bit_count() > target_size:
                found ^= 1 << (found.bit_length() - 1)
    if found < 0:
        raise SearchExhaustedError(f"no avoiding set of size {target_size} found within budgets")
    return found


def construct_thm2(pattern: GroupSubset, *, seed: int = 0) -> Certificate:
    """Avoiding set of size thm2_lower - 1 built from a quotient avoider.

    With H the pattern's stabilizer, search G/H for a set of classes avoiding
    S/H, on int class masks (mask t: the classes of representatives[t] + S),
    then take its full preimage and adjoin every other coset minus its
    maximum flat index (_lift).  A translate of the pattern is a union of
    H-cosets whose class set is one of the masks, so it meets a punctured
    coset and cannot fit; only the lift is verified, in G.  A quotient above
    MAX_SEARCH_ORDER raises BudgetExceededError before the quotient is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    grp = pattern.group
    sub = stabilizer(pattern)
    _check_search_args(grp.size // sub.order, seed)
    view = quotient_view(grp, sub)
    classes = project_subset(pattern, view)
    k = classes.bit_count()  # |S/H|
    target = ceil_root_power(view.size, k - 1, k) - 1

    members = [view.representatives[c] for c in _bit_indices(classes)]
    projection, add = view.projection, grp.add
    masks = []
    for r in view.representatives:
        mask = 0
        for x in members:
            mask |= 1 << projection[add(r, x)]
        masks.append(mask)
    candidate = _lift(view, _search(masks, target, seed))

    expected = thm2_lower(grp.size, sub.order, pattern.size) - 1
    if candidate.size != expected:
        raise AssertionError(
            f"construction size {candidate.size} != thm2_lower - 1 = {expected}; this is a bug"
        )
    return certify(candidate, pattern)
