"""Avoiding-set constructions and the seeded randomized search.

An avoiding set for a pattern S is a subset containing no translate g + S.
Everything returned here is a Certificate from exact.certify: an actual
verify_avoids pass over the stabilizer transversal, never the construction's
own bookkeeping.  Certificate and verify_avoids live in exact and are
re-exported here.
"""

from __future__ import annotations

import random

from .bounds import ceil_root_power, thm2_lower
from .errors import BudgetExceededError, EmptySetError, SearchExhaustedError
from .exact import Certificate, _solve_hitting_set, certify, translate_family, verify_avoids
from .groups import GroupSubset, _lift, project_subset, quotient_view, stabilizer

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

    Requires the pattern's stabilizer to be trivial (callers hand in quotient
    data, where that always holds).  Strategy: uniform random subsets, then
    local repair of the last sample, then, when the group is small enough, a
    hitting-set solve bounded by |G| - target_size whose complement is
    trimmed to size; raises SearchExhaustedError otherwise.  Groups above
    MAX_SEARCH_ORDER raise BudgetExceededError.  The whole schedule is a pure
    function of seed.
    """
    if pattern.bits == 0:
        raise EmptySetError("search needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    _check_search_args(g, seed)
    if stabilizer(pattern).order != 1:
        raise ValueError("search_avoider requires a trivial stabilizer; pass quotient data")
    if not 0 <= target_size <= g:
        raise ValueError(f"target size must lie in [0, {g}], got {target_size}")

    masks = [pattern.translate(t).bits for t in range(g)]
    full = (1 << g) - 1

    def violation(bits: int) -> int:
        """Smallest translate index whose translate is inside bits, else -1."""
        for t in range(g):
            if masks[t] & ~bits == 0:
                return t
        return -1

    found = -1
    if target_size == 0:
        found = 0
    else:
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
                outside = GroupSubset(grp, full ^ bits).indices()
                if not outside:
                    break  # target_size == |G|: no room to repair
                inside = GroupSubset(grp, masks[t]).indices()
                bits ^= 1 << rng.choice(inside)
                bits |= 1 << rng.choice(outside)
        if found < 0 and g <= EXACT_FALLBACK_LIMIT:
            # B avoids every translate iff its complement hits every translate.
            size, hitting, _ = _solve_hitting_set(translate_family(pattern), None, g - target_size)
            if size <= g - target_size:
                found = full ^ hitting
                while found.bit_count() > target_size:
                    found ^= 1 << (found.bit_length() - 1)
        if found < 0:
            raise SearchExhaustedError(
                f"no avoiding set of size {target_size} found within budgets"
            )

    return certify(GroupSubset(grp, found), pattern)


def construct_thm2(pattern: GroupSubset, *, seed: int = 0) -> Certificate:
    """Avoiding set of size thm2_lower - 1 built from a quotient avoider.

    With H the pattern's stabilizer, search the quotient G/H for a set of
    classes avoiding the projected pattern, take its full preimage, and adjoin
    every other coset minus its maximum flat index.  A translate of the
    pattern is a union of H-cosets; its class set is a quotient translate, so
    it meets a punctured coset and cannot fit.  A quotient above
    MAX_SEARCH_ORDER raises BudgetExceededError before the quotient is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    grp = pattern.group
    sub = stabilizer(pattern)
    _check_search_args(grp.size // sub.order, seed)
    view = quotient_view(grp, sub)
    projected = project_subset(pattern, view)
    target = ceil_root_power(view.size, projected.size - 1, projected.size) - 1

    inner = search_avoider(projected, target, seed=seed)
    candidate = _lift(view, inner.avoiding_set.bits)

    expected = thm2_lower(grp.size, sub.order, pattern.size) - 1
    if candidate.size != expected:
        raise AssertionError(
            f"construction size {candidate.size} != thm2_lower - 1 = {expected}; this is a bug"
        )
    return certify(candidate, pattern)
