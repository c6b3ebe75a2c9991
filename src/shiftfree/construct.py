"""Avoiding-set constructions and the seeded avoider search.

An avoiding set for a pattern S is a subset containing no translate g + S.
Everything returned here is a Certificate from exact.certify: an actual
verify_avoids pass over the stabilizer transversal, never the construction's
own bookkeeping.  Certificate and verify_avoids live in exact and are
re-exported here.

There is one avoider builder, search_avoider.  With H the pattern's
stabilizer and q = |G/H|, an avoider of S/H in G/H lifts to one of g - q more
elements in G, so it searches G/H: the complement of exact's greedy hitting
set first, then a bounded exact solve on small quotients and seeded random
samples and repair on the others.
construct_thm2 is search_avoider at the theorem-2 size, which the greedy
always reaches, so it never draws from the seed.
"""

from __future__ import annotations

import random

from .bounds import thm2_lower
from .errors import BudgetExceededError, EmptySetError, SearchExhaustedError
from .exact import Certificate, certify, verify_avoids
from .exact import _check_verify_work, _element_sets, _greedy_hitting_set, _solve_hitting_set
from .groups import GroupSubset, _bit_indices, _lift, _sums, project_subset, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "search_avoider",
    "construct_thm2",
]

# Search budgets: random samples, repair steps, the largest quotient solved
# by an exact hitting-set search in their place, and the largest quotient
# q = |G/H| the search accepts (it keeps q element masks of q bits each, and
# their transposes once the greedy falls short).
MAX_RANDOM_RESTARTS = 64
MAX_REPAIR_STEPS = 2000
EXACT_FALLBACK_LIMIT = 64
MAX_SEARCH_ORDER = 2**14


def construct_thm1(pattern: GroupSubset) -> Certificate:
    """Avoiding set of size g - g/h: drop the max flat index of every H-coset.

    Every translate of the pattern is a union of stabilizer cosets, and every
    coset here misses one element, so no translate fits.  Its verification's
    cap is checked before the quotient is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    sub = stabilizer(pattern)
    _check_verify_work(pattern.group.size, sub.order)
    view = quotient_view(pattern.group, sub)
    return certify(_lift(view, 0), pattern)


def _check_order(order: int) -> None:
    if order > MAX_SEARCH_ORDER:
        raise BudgetExceededError(
            f"quotient order {order} exceeds the avoider-search cap {MAX_SEARCH_ORDER}"
        )


def _lowest(bits: int, count: int) -> int:
    """The lowest count set bits of bits; all of them if it has no more."""
    positions = _bit_indices(bits)
    return bits if count >= len(positions) else bits & ((1 << positions[count]) - 1)


def search_avoider(pattern: GroupSubset, target_size: int, *, seed: int = 0) -> Certificate:
    """Find a verified avoiding set of exactly target_size elements.

    With H the pattern's stabilizer and q = |G/H|, class c's mask holds the
    translates of S/H at the classes of representatives[c] - x, x in S/H.
    _search finds target_size - (g - q) classes avoiding S/H (at least 0),
    and _lift adds every other coset minus its maximum, cut to the lowest
    target_size elements when there are more.
    A translate of the pattern is a union of H-cosets, so it fits in the lift
    only if all its classes were found.  A quotient above MAX_SEARCH_ORDER
    raises BudgetExceededError before it is built.  SearchExhaustedError
    means every phase failed, which proves no such avoider exists when
    q <= EXACT_FALLBACK_LIMIT.  The result is a pure function of seed, and
    does not depend on it when q <= EXACT_FALLBACK_LIMIT.
    """
    if pattern.bits == 0:
        raise EmptySetError("search needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    sub = stabilizer(pattern)
    q = g // sub.order
    _check_order(q)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= target_size <= g:
        raise ValueError(f"target size must lie in [0, {g}], got {target_size}")
    view = quotient_view(grp, sub)
    members = project_subset(pattern, view)  # S/H, as class indices
    negated = [grp.neg(view.representatives[c]) for c in _bit_indices(members)]
    projection = view.projection
    elem_masks = [0] * q  # built transposed: one pass over the classes per x
    for x in negated:
        sums = _sums(grp, x, view.representatives)
        elem_masks = [mask | 1 << projection[b] for mask, b in zip(elem_masks, sums)]
    classes = _search(elem_masks, max(0, target_size - (g - q)), seed)
    if classes < 0:
        known = "exists" if q <= EXACT_FALLBACK_LIMIT else "found within budgets"
        raise SearchExhaustedError(f"no avoiding set of size {target_size} {known}")
    bits = _lift(view, classes).bits
    if target_size < g - q:
        bits = _lowest(bits, target_size)
    if bits.bit_count() != target_size:
        raise AssertionError(
            f"search built {bits.bit_count()} elements, not {target_size}; this is a bug"
        )
    return certify(GroupSubset(grp, bits), pattern)


def _search(elem_masks: list[int], target: int, seed: int) -> int:
    """A target-element mask over [0, q) holding no translate, or -1.

    elem_masks[c] masks the translates, q of them, that hold element c.  The
    greedy hitting set's complement comes first.  When it is too small, the
    masks are transposed to one per translate.  With q <= EXACT_FALLBACK_LIMIT
    an exact hitting-set solve bounded by q - target then answers; larger
    quotients get uniform random subsets and local repair of the last
    sample, the only steps that draw from the seed.  Surplus elements are
    trimmed from the top.
    """
    q = len(elem_masks)
    full = (1 << q) - 1
    found = full ^ _greedy_hitting_set(elem_masks, q)
    if found.bit_count() >= target:
        return _lowest(found, target)
    masks = _element_sets(elem_masks, q)
    if q <= EXACT_FALLBACK_LIMIT:
        # B avoids every translate iff its complement hits every translate.
        size, hitting, _ = _solve_hitting_set(masks, q, None, q - target)
        return _lowest(full ^ hitting, target) if size <= q - target else -1

    def violation(bits: int) -> int:
        """Smallest translate index whose translate is inside bits, else -1."""
        for t in range(q):
            if masks[t] & ~bits == 0:
                return t
        return -1

    rng = random.Random(seed)
    sample = 0
    for _ in range(MAX_RANDOM_RESTARTS):
        sample = 0
        for e in rng.sample(range(q), target):
            sample |= 1 << e
        if violation(sample) < 0:
            return sample
    bits = sample
    for _ in range(MAX_REPAIR_STEPS):
        t = violation(bits)
        if t < 0:
            return bits
        outside = _bit_indices(full ^ bits)
        if not outside:
            break  # target == q: no room to repair
        inside = _bit_indices(masks[t])
        bits ^= 1 << rng.choice(inside)
        bits |= 1 << rng.choice(outside)
    return -1


def construct_thm2(pattern: GroupSubset) -> Certificate:
    """Avoiding set of size thm2_lower - 1: search_avoider at that size.

    With k = |S/H|, that is g - q plus ceil(q**((k-1)/k)) - 1 classes, which
    the greedy always leaves: each class lies in k translates, so by Chvatal's
    bound it takes at most floor(H(k) q/k) classes, few enough for every
    2 <= k < q <= MAX_SEARCH_ORDER (a test proves it), and the seed is never
    drawn from.  The cap is checked before any root arithmetic.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    g = pattern.group.size
    h = stabilizer(pattern).order
    _check_order(g // h)
    return search_avoider(pattern, thm2_lower(g, h, pattern.size) - 1)
