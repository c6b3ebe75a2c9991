"""Avoiding-set constructions and the seeded avoider search.

An avoiding set for a pattern S is a subset containing no translate g + S.
Everything returned here is a Certificate from exact.certify: an actual
verify_avoids pass, which rotates the H-cosets inside the candidate once
per H-coset in S, never the construction's own bookkeeping.  Certificate
and verify_avoids live in exact and are re-exported here.

There is one avoider builder, search_avoider.  With H the pattern's
stabilizer and q = |G/H|, an avoider of S/H in G/H lifts to one of g - q more
elements in G, so it searches G/H for the classes it needs.  The lowest
classes come first: when no translate of S/H lies inside the lowest need
classes (_inside, k kernel rotations), those classes are the answer, with no
class mask and no greedy.  Otherwise it searches only a window, the lowest m
classes, with m the fewest for which Chvatal's bound guarantees that the
complement of exact's greedy hitting set of the translates inside the window
keeps enough (_window): a class set inside the window that holds none of
those translates holds none at all.  When the window is all of G/H and the
greedy falls short, a bounded exact solve follows when
q <= exact.MAX_EXACT_ORDER (the quotients exact_N answers), and seeded random
samples and repair on the others.  A target of at most g - q
needs no class, so it searches nothing and MAX_SEARCH_ORDER does not apply:
construct_thm1 is search_avoider at g - q, the lift of the empty class set.
construct_thm2 is search_avoider at the theorem-2 size, which the greedy
always reaches, so it never draws from the seed.
"""

from __future__ import annotations

import random
import time
from math import ceil, log
from typing import Callable

from .bounds import thm2_lower
from .errors import DEFAULT_BUDGET_MS, BudgetExceededError, EmptySetError, SearchExhaustedError
from .exact import MAX_EXACT_ORDER, Certificate, certify, verify_avoids
from .exact import _check_verify_work, _element_sets, _greedy_hitting_set, _solve_hitting_set
from .groups import GroupSubset, _bit_indices, _close, _lift, _ranks, _rotation
from .groups import Quotient, preimage_subset, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "construct_thm1",
    "search_avoider",
    "construct_thm2",
]

# Search budgets: random samples, repair steps, and the largest quotient
# q = |G/H| the search accepts for a target that needs classes (it keeps q
# element masks of q bits each, and their transposes once the greedy falls
# short).  Quotients up to exact.MAX_EXACT_ORDER get an exact hitting-set
# solve in place of the samples.
MAX_RANDOM_RESTARTS = 64
MAX_REPAIR_STEPS = 2000
MAX_SEARCH_ORDER = 2**14


def construct_thm1(pattern: GroupSubset) -> Certificate:
    """Avoiding set of size g - g/h: search_avoider at that size.

    It lifts no class: every H-coset minus its max flat index.  Every
    translate of the pattern is a union of stabilizer cosets, and every coset
    here misses one element, so no translate fits.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    g = pattern.group.size
    return search_avoider(pattern, g - g // stabilizer(pattern).order)


def _check_order(order: int) -> None:
    if order > MAX_SEARCH_ORDER:
        raise BudgetExceededError(
            f"quotient order {order} exceeds the avoider-search cap {MAX_SEARCH_ORDER}"
        )


def _lowest(bits: int, count: int) -> int:
    """The lowest count set bits of bits; all of them if it has no more."""
    positions = _bit_indices(bits)
    return bits if count >= len(positions) else bits & ((1 << positions[count]) - 1)


def search_avoider(
    pattern: GroupSubset, target_size: int, *, seed: int = 0, budget_ms: int | None = None
) -> Certificate:
    """Find a verified avoiding set of exactly target_size elements.

    With H the pattern's stabilizer and q = |G/H|, class c's mask holds the
    translates of S/H at the classes of representatives[c] - S: the ranks of
    the coset minima in one kernel rotation of -S (the negated minima of S
    closed under H's pivots), as exact_N ranks its family.  First, when no
    translate of S/H lies inside the lowest need = target_size - (g - q)
    classes (_inside: no t with t + x in their preimage for each of the k
    minima x of S, one rotation each), those classes are the answer and no
    mask is built.  Otherwise only the classes of the window [0, m) get a
    mask (_window), and it keeps only the translates inside the window, by
    the same k rotations of the window's preimage.  _search finds need
    classes avoiding S/H, and _lift adds every other coset minus its
    maximum.  A target of at most g - q needs no class: it lifts the empty
    class set, cut to the lowest target_size elements, and builds no mask.
    A translate of the pattern is a union of H-cosets, so it fits in the lift
    only if all its classes were found.  A bad seed or target_size raises
    ValueError before the stabilizer is computed.  A target that needs
    classes in a quotient above MAX_SEARCH_ORDER raises BudgetExceededError
    before the quotient is built, and so does an exact phase past budget_ms
    milliseconds (errors.DEFAULT_BUDGET_MS when None).  SearchExhaustedError
    means every phase ran and failed, which proves no such avoider exists
    when q <= MAX_EXACT_ORDER, exactly where exact_N answers.  The result is
    a pure function of seed, and does not depend on it when
    q <= MAX_EXACT_ORDER.
    """
    if pattern.bits == 0:
        raise EmptySetError("search needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= target_size <= g:
        raise ValueError(f"target size must lie in [0, {g}], got {target_size}")
    sub = stabilizer(pattern)
    q = g // sub.order
    need = target_size - (g - q)  # classes to find
    if need <= 0:  # no class needed, no search
        _check_verify_work(g, sub.order)  # before the quotient is built
        view = quotient_view(grp, sub)
        classes = 0
    else:
        _check_order(q)
        view = quotient_view(grp, sub)
        minima = _bit_indices(pattern.bits & view.minima)  # S/H
        rotate, neg = _rotation(grp), grp.neg
        if need < q and not _inside(view, minima, need, rotate):
            classes = (1 << need) - 1  # the lowest need classes hold no translate
        else:
            m = _window(need, len(minima), q)
            inside = -1  # the translates inside the window [0, m), all when m = q
            if m < q:
                inside = _ranks(view, _inside(view, minima, m, rotate) & view.minima)
            minus = _close(grp, GroupSubset.from_indices(grp, map(neg, minima)).bits, view.pivots)
            elem_masks = [
                _ranks(view, rotate(minus, r) & view.minima) & inside
                for r in view.representatives[:m]
            ]
            classes = _search(elem_masks, q, need, seed, budget_ms)
            if classes < 0:
                known = "exists" if q <= MAX_EXACT_ORDER else "found within budgets"
                raise SearchExhaustedError(f"no avoiding set of size {target_size} {known}")
    bits = _lift(view, classes).bits
    if need < 0:
        bits = _lowest(bits, target_size)
    if bits.bit_count() != target_size:
        raise AssertionError(
            f"search built {bits.bit_count()} elements, not {target_size}; this is a bug"
        )
    return certify(GroupSubset(grp, bits), pattern)


def _inside(view: Quotient, minima: list[int], m: int, rotate: Callable[[int, int], int]) -> int:
    """The elements t with t + x in the lowest m classes for each minimum x of S.

    One kernel rotation of the classes' preimage per minimum, stopping once
    none is left: a union of H-cosets, one per translate of S/H lying inside
    those classes.
    """
    neg = view.base.neg
    window = preimage_subset((1 << m) - 1, view).bits
    inside = -1
    for s in minima:
        inside &= rotate(window, neg(s))
        if not inside:
            break
    return inside


def _window(need: int, k: int, q: int) -> int:
    """The number m of lowest classes whose greedy leaves need classes, by Chvatal's bound.

    Each translate of S/H inside the classes [0, m) has k of them and each
    class lies in at most k such translates, so the greedy hitting set of
    those translates has at most H(k) m/k classes (Chvatal 1979) and leaves
    m - H(k) m/k >= need once m >= need k/(k - H(k)).  That holds for
    k >= 2 with H(k) < ln k + gamma + 1/(2k); the 1e-9 outweighs rounding,
    so m can only come out large.  k = 1 gets all q classes.
    """
    if k < 2:
        return q
    return min(q, ceil(need * k / (k - (log(k) + 0.5772156649015329 + 0.5 / k + 1e-9))))


def _search(
    elem_masks: list[int], n_sets: int, target: int, seed: int, budget_ms: int | None
) -> int:
    """A target-element mask over [0, len(elem_masks)) holding no translate, or -1.

    elem_masks[c] masks the translates, n_sets of them, that hold element c
    and lie inside the elements given.  The greedy hitting set's complement
    comes first; on a window of fewer than n_sets elements it always reaches
    the target (_window), and falling short there is a bug.  On all of them,
    when the greedy is too small, the masks are transposed to one per
    translate.  With q <= MAX_EXACT_ORDER an exact hitting-set solve bounded
    by q - target (and by budget_ms, DEFAULT_BUDGET_MS when None, as in
    exact_N) then answers; larger quotients get uniform random subsets and
    local repair of the last sample, the only steps that draw from the seed.
    Surplus elements are trimmed from the top.
    """
    q = len(elem_masks)
    full = (1 << q) - 1
    found = full ^ _greedy_hitting_set(elem_masks, n_sets)
    if found.bit_count() >= target:
        return _lowest(found, target)
    if q < n_sets:
        raise AssertionError(
            f"greedy left {found.bit_count()} of {q} window classes, not {target}; this is a bug"
        )
    masks = _element_sets(elem_masks, q)
    if q <= MAX_EXACT_ORDER:
        # B avoids every translate iff its complement hits every translate.
        budget_ms = DEFAULT_BUDGET_MS if budget_ms is None else budget_ms
        deadline = time.monotonic_ns() + budget_ms * 1_000_000
        size, hitting, _ = _solve_hitting_set(masks, q, deadline, q - target)
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
    2 <= k < q <= MAX_SEARCH_ORDER (a test proves it).  The search's window
    keeps that guarantee (_window), so the seed is never drawn from.  The cap
    is checked before any root arithmetic.
    """
    if pattern.bits == 0:
        raise EmptySetError("construction needs a nonempty pattern")
    g = pattern.group.size
    h = stabilizer(pattern).order
    _check_order(g // h)
    return search_avoider(pattern, thm2_lower(g, h, pattern.size) - 1)
