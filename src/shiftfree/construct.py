"""Avoiding-set constructions and the seeded randomized search.

An avoiding set for a pattern S is a subset containing no translate g + S.
Everything returned here is a Certificate from exact.certify: an actual
verify_avoids pass over the stabilizer transversal, never the construction's
own bookkeeping.  Certificate and verify_avoids live in exact and are
re-exported here.

construct_thm2 is deterministic: it lifts the complement of exact's greedy
hitting set in G/H.  Only search_avoider is randomized, on plain int masks,
one per translate of S in G, as a pure function of its seed.
"""

from __future__ import annotations

import random

from .bounds import ceil_root_power, thm2_lower
from .errors import BudgetExceededError, EmptySetError, SearchExhaustedError
from .exact import Certificate, _greedy_hitting_set, _solve_hitting_set, certify, verify_avoids
from .groups import GroupSubset, _bit_indices, _lift, project_subset, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "search_avoider",
    "construct_thm2",
]

# Search budgets: random samples, repair steps, the largest group the
# hitting-set fallback is tried on, and the largest group or quotient either
# builder accepts (search_avoider keeps g translate masks of g bits each,
# construct_thm2 keeps q element masks of q bits each, q = |G/H|).
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


def _check_order(order: int) -> None:
    if order > MAX_SEARCH_ORDER:
        raise BudgetExceededError(
            f"quotient order {order} exceeds the avoider-search cap {MAX_SEARCH_ORDER}"
        )


def search_avoider(pattern: GroupSubset, target_size: int, *, seed: int = 0) -> Certificate:
    """Find a verified avoiding set of exactly target_size elements.

    Requires the pattern's stabilizer to be trivial; construct_thm2 covers
    any pattern at its own size.  Groups above MAX_SEARCH_ORDER raise
    BudgetExceededError, and SearchExhaustedError means every phase of
    _search failed.  The whole schedule is a pure function of seed.
    """
    if pattern.bits == 0:
        raise EmptySetError("search needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    _check_order(g)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
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


def construct_thm2(pattern: GroupSubset) -> Certificate:
    """Avoiding set of size thm2_lower - 1 built from a quotient avoider.

    With H the pattern's stabilizer, q = |G/H| and k = |S/H|, take the
    greedy hitting set of the translates of S/H in G/H (class c's mask holds
    the translates at the classes of representatives[c] - x, x in S/H).  Each
    class lies in k translates, so by Chvatal's bound greedy takes at most
    floor(H(k) q/k) classes, and for 2 <= k < q <= MAX_SEARCH_ORDER that
    leaves ceil(q**((k-1)/k)) - 1 outside it (a test proves the inequality).
    The complement, trimmed to that size, avoids S/H; _lift takes its full
    preimage plus every other coset minus its maximum flat index.  Each
    translate of the pattern holds a whole coset outside those classes, so
    it misses a dropped maximum; only the lift is verified, in G.  A quotient
    above MAX_SEARCH_ORDER raises BudgetExceededError before it is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    grp = pattern.group
    sub = stabilizer(pattern)
    _check_order(grp.size // sub.order)
    view = quotient_view(grp, sub)
    classes = project_subset(pattern, view)
    k = classes.bit_count()  # |S/H|
    target = ceil_root_power(view.size, k - 1, k) - 1

    negated = [grp.neg(view.representatives[c]) for c in _bit_indices(classes)]
    projection, add = view.projection, grp.add
    elem_sets = []
    for r in view.representatives:
        mask = 0
        for x in negated:
            mask |= 1 << projection[add(r, x)]
        elem_sets.append(mask)
    avoider = ((1 << view.size) - 1) ^ _greedy_hitting_set(elem_sets, view.size)
    for _ in range(avoider.bit_count() - target):
        avoider ^= 1 << (avoider.bit_length() - 1)
    candidate = _lift(view, avoider)

    expected = thm2_lower(grp.size, sub.order, pattern.size) - 1
    if candidate.size != expected:
        raise AssertionError(
            f"construction size {candidate.size} != thm2_lower - 1 = {expected}; this is a bug"
        )
    return certify(candidate, pattern)
