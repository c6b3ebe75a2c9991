"""Exact N values via a minimum hitting set, and the one avoidance verifier.

A subset B avoids every translate of S iff its complement meets every
translate, so the largest avoiding set is |G| minus the minimum hitting set
of the family {g + S : g in T} with T a stabilizer transversal (translates
repeat inside a stabilizer coset, so the transversal family is the whole
family).  N is then |G| - tau + 1.

translate_family builds that family as bitsets, one rotation of the kernel
groups._rotation per class and no GroupSubset per set; exact_N solves it.

exact_N reduces, solves, then lifts.  Reduce: every translate is a union of
cosets of the stabilizer H, so a set hits it iff its image in G/H does:
N(G, S) = g - g/h + N(G/H, S/H).  Every family set is read as its mask of
G/H classes, class i being the coset whose minimum has rank i (as in
groups.Quotient), so the search has at most |G/H| candidates and the order
cap MAX_EXACT_ORDER applies to |G/H|.  A single coset of H needs no search:
every translate is one class, so every class is hit.  Solve: the search
below finds a minimum set of classes hitting every translate's mask.  Lift:
groups._lift keeps every unhit class whole and every hit class minus its
maximum, so the hitting set in G is the maximum of each hit class's coset,
and the avoider is built as every other avoider in the library is, one
_lift of a class set.

The solver is a memoized frontier search: greedy incumbent first, then a
depth-first search that always branches on the first uncovered set, over
all of its elements in ascending order, with the admissible bound
ceil(uncovered / max_sets_per_element).  Every class of G/H lies in exactly
|S|/|H| family sets, which makes that bound exact to compute.  The sets are
first put in Cuthill-McKee order (Cuthill and McKee, 1969), breadth-first
over their overlap graph, so the sets a partial choice has covered beyond
the first uncovered one form a narrow band.  The subtree below a node
depends only on its covered-set mask, so a table from mask to the fewest
elements that reached it cuts every repeat: on short-span patterns the
search behaves like a transfer-matrix dynamic program over that band.  The
table is bounded (MEMO_MAX_ENTRIES); once full it stops growing, and the
search stays exact with less pruning.

A second admissible bound counts fresh elements, those no covered set
holds.  A fresh element covers at most per_elem = max_sets_per_element new
sets and any other at most per_elem - 1, so finishing with need more
elements, w = need * per_elem - uncovered >= 0 sets of slack, takes at
least need - w fresh ones; a child with fewer is cut.  The search carries
dead, the elements of the covered sets, as the OR of each chosen element's
neighbours (the elements sharing a set with it, built on first use).  dead
is a function of the covered mask, so the table above stays sound.  Deep
in the tree few elements are fresh, and the bound proves the gaps of one
or two elements above ceil(uncovered / per_elem) that the first bound
cannot see: it halves the nodes on the exact-cap benchmark's families.

The search starts with the lowest candidate element z already chosen.
Every family solved here is closed under a group of symmetries that moves
any candidate onto any other: G/H acts on the classes, and a shift by a
class maps the class mask of t + S onto that of the shifted translate.  A
symmetry maps a hitting set to a hitting set of the same size, so whenever
one of some size exists, one of that size contains z.  The search below z
is therefore complete, for the minimum and for a size limit alike, and the
root's equivalent branches are not searched again.

_fitting is the one avoidance kernel: which t have t + S inside a union of
H-cosets, by |S/H| <= min(|S|, |G/H|) rotations of a |G|-bit set.
verify_avoids asks it of a candidate's H-interior, plus ceil(log2 |<p>|) + 1
rotations for each pivot p of H, and construct's search asks it of class
sets.  Every avoiding set the library builds, here and in construct, passes
through certify, which calls verify_avoids and treats a failure as a bug: a
returned avoider is re-verified, never trusted from its construction.
"""

from __future__ import annotations

import time
from typing import Callable

from .errors import DEFAULT_BUDGET_MS, BudgetExceededError, DomainMismatchError, EmptySetError
from .groups import GroupSubset, _bit_indices, _close, _Frozen, _lift, _rotation
from .groups import _ranks, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "certify",
    "translate_family",
    "ExactResult",
    "exact_N",
]

# The largest |G/H| solved by _solve_hitting_set, for exact_N and for the
# avoider search's exact phase alike: _bandwidth_order tests the family's
# sets for overlap pair by pair, at most 64 * 63 / 2 = 2,016 tests.
MAX_EXACT_ORDER = 64
# Covered-set masks _solve_hitting_set remembers; 2**18 of them take about 20 MB.
MEMO_MAX_ENTRIES = 2**18
# Cap on q * g for q translates of a g-bit set, an upper bound on the bit
# operations verify_avoids spends (min(|S|, q) rotations plus a few per
# pivot of H); it stays q * g until the printed output is bounded.  It equals
# construct.MAX_SEARCH_ORDER * groups.MAX_GROUP_ORDER, so no avoider search or
# hitting-set solve is refused by it.
MAX_VERIFY_WORK = 2**38


class Certificate(_Frozen):
    """Outcome of verifying a candidate avoiding set against a pattern.

    witness is the smallest transversal element g whose translate g + S lies
    inside the candidate, or None when no translate does.
    """

    __slots__ = __match_args__ = ("avoiding_set", "pattern", "witness")

    @property
    def verified(self) -> bool:
        return self.witness is None

    @property
    def size(self) -> int:
        return self.avoiding_set.size


def _check_verify_work(g: int, h: int) -> None:
    """Refuse to verify the q = g/h translates of a pattern above MAX_VERIFY_WORK."""
    q = g // h
    if q * g > MAX_VERIFY_WORK:
        raise BudgetExceededError(
            f"verifying {q} translates in a group of order {g} exceeds the verification cap "
            f"q*g <= {MAX_VERIFY_WORK}"
        )


def verify_avoids(candidate: GroupSubset, pattern: GroupSubset) -> Certificate:
    """Check that no translate of pattern lies inside candidate.

    With H the pattern's stabilizer, every translate t + S is a union of
    H-cosets, so it fits in C iff it fits in C's H-interior, the H-cosets C
    holds whole: G minus the complement of C closed under H's pivots.
    _fitting gives the t whose translate fits there, a union of H-cosets
    whose lowest element is the witness, the smallest transversal element
    whose translate fits, by at most k = |S/H| <= min(|S|, |G/H|) rotations
    of a g-bit set, plus ceil(log2 |<p>|) + 1 per pivot p.  Above
    q*g = MAX_VERIFY_WORK it raises BudgetExceededError before it translates.
    """
    if candidate.group != pattern.group:
        raise DomainMismatchError("candidate and pattern live in different groups")
    if pattern.bits == 0:
        raise EmptySetError("cannot verify against an empty pattern")
    grp = pattern.group
    sub = stabilizer(pattern)
    _check_verify_work(grp.size, sub.order)
    view = quotient_view(grp, sub)
    full = (1 << grp.size) - 1
    inside = full ^ _close(grp, full ^ candidate.bits, view.pivots)
    fits = _fitting(inside, _bit_indices(pattern.bits & view.minima), _rotation(grp), grp.neg)
    witness = (fits & -fits).bit_length() - 1 if fits else None
    return Certificate(candidate, pattern, witness)


def _fitting(
    host: int, minima: list[int], rotate: Callable[[int, int], int], neg: Callable[[int], int]
) -> int:
    """The t with t + x in host for every x in minima, 0 once none is left.

    The one avoidance loop: host rotated by each -x, intersected.  For an
    H-periodic host and the coset minima of S, it is the union of the
    cosets t + H whose translate t + S lies inside host.
    """
    fits = -1  # every t, before any x is checked
    for x in minima:
        fits &= rotate(host, neg(x))
        if not fits:
            break
    return fits


def certify(candidate: GroupSubset, pattern: GroupSubset) -> Certificate:
    """verify_avoids for a set the library built; a failure is a bug, not an input error."""
    cert = verify_avoids(candidate, pattern)
    if not cert.verified:
        raise AssertionError(
            f"built avoider contains the translate at {cert.witness}; this is a bug"
        )
    return cert


def translate_family(pattern: GroupSubset) -> tuple[int, ...]:
    """Bitsets of all distinct translates, one per stabilizer-transversal element, in its order."""
    if pattern.bits == 0:
        raise EmptySetError("translate family needs a nonempty pattern")
    reps = quotient_view(pattern.group, stabilizer(pattern)).representatives
    rotate, bits = _rotation(pattern.group), pattern.bits
    return tuple(rotate(bits, r) for r in reps)


def _element_sets(set_bits: list[int], universe: int) -> list[int]:
    """For each element of [0, universe), the mask of the sets that hold it."""
    elem_sets = [0] * universe
    for j, sb in enumerate(set_bits):
        bit = 1 << j
        while sb:
            low = sb & -sb
            elem_sets[low.bit_length() - 1] |= bit
            sb ^= low
    return elem_sets


def _greedy_hitting_set(elem_sets: list[int], n_sets: int) -> int:
    """Greedy hitting set of the sets among [0, n_sets) some element holds, as an element mask.

    elem_sets[e] masks the sets element e holds; a set none holds is left
    unhit, so n_sets only names the family's size.  Each step takes the element
    hitting the most unhit sets, smallest index on ties.  Gains only fall, so
    a bucket queue files each element under its last gain, an upper bound,
    and one ascending pass over a level's bucket makes that level's picks.
    It returns once every such set is hit: no pick can follow.
    """
    uncovered = 0
    for es in elem_sets:
        uncovered |= es
    gains = [es.bit_count() for es in elem_sets]
    top = max(gains, default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for e, gain in enumerate(gains):
        buckets[gain].append(e)
    picked = 0
    for level in range(top, 0, -1):
        for e in sorted(buckets[level]):  # ascending runs, one per earlier level
            gain = (elem_sets[e] & uncovered).bit_count()
            if gain == level:
                picked |= 1 << e
                uncovered &= ~elem_sets[e]
                if not uncovered:
                    return picked
            else:
                buckets[gain].append(e)
    return picked


def _bandwidth_order(set_bits: list[int]) -> list[int]:
    """Cuthill-McKee order of the sets: breadth-first over their overlap graph.

    Cuthill-McKee starts each component at a peripheral set and takes new
    neighbours by ascending degree.  Every family solved here is transitive
    on the sets of each component (a translation moves any translate onto
    any other), so all of them share one degree and one eccentricity: the
    component's lowest set is peripheral, and neighbours go by index.  A
    set's neighbours are the unplaced sets it overlaps, tested pair by pair:
    every family solved here has at most MAX_EXACT_ORDER = 64 sets, so that
    is at most 2,016 overlap tests.
    """
    order: list[int] = []
    rest = list(range(len(set_bits)))  # the unplaced sets, ascending
    while rest:
        queue = [rest.pop(0)]
        for j in queue:
            sj, far = set_bits[j], []
            for k in rest:
                if set_bits[k] & sj:
                    queue.append(k)
                else:
                    far.append(k)
            rest = far
        order += queue
    return order


def _solve_hitting_set(
    set_bits: list[int], universe: int, deadline: int | None, limit: int | None = None
) -> tuple[int, int, int]:
    """(size, bits, nodes) of a minimum hitting set of the masks over elements [0, universe).

    The elements are G/H class indices from exact_N and construct.  With a
    limit, stop at the first hitting set of size <= limit instead of proving a
    minimum; a returned size above limit means none exists.  Some group of
    symmetries of the masks must act transitively on the elements they cover
    (G/H here), or the result can exceed the minimum.  nodes counts the
    search nodes expanded; the search is the module docstring's memoized
    frontier search, from _greedy_hitting_set's incumbent, and it cuts a
    child by the uncovered count and by the fresh-element count alike (dead
    is a function of the covered mask, so the memo's subtrees stay equal).
    Past deadline, a time.monotonic_ns() reading, or deeper than Python's
    recursion limit, it raises BudgetExceededError.  An empty mask, which
    nothing can hit, raises EmptySetError.
    """
    if not all(set_bits):
        raise EmptySetError("a family holding the empty set has no hitting set")
    if deadline is not None and time.monotonic_ns() > deadline:
        raise BudgetExceededError("hitting-set search exceeded its wall-clock budget")
    n_sets = len(set_bits)
    all_covered = (1 << n_sets) - 1

    set_bits = [set_bits[j] for j in _bandwidth_order(set_bits)]
    elem_sets = _element_sets(set_bits, universe)
    candidates = [e for e in range(universe) if elem_sets[e]]  # the elements some set holds
    # Admissible pruning cap: no element hits more sets than this.  On a
    # translate family the regularity invariant makes it exactly |S|/|H|, so
    # once k sets are covered at least more[k] further elements are needed.
    per_elem = max(elem_sets[e].bit_count() for e in candidates)
    more = [-(-(n_sets - k) // per_elem) for k in range(n_sets + 1)]

    best_bits = _greedy_hitting_set(elem_sets, n_sets)
    best_size = best_bits.bit_count()
    if limit is not None:
        if best_size <= limit:
            return best_size, best_bits, 0
        best_size = limit + 1

    nodes = 0
    fewest: dict[int, int] = {}  # covered mask -> fewest elements it was reached with
    reached = fewest.get
    nbr = [0] * universe  # element -> the elements sharing a set with it, built on first use
    n_cand = len(candidates)

    def near(e: int) -> int:
        sets, mask = elem_sets[e], 0
        while sets:
            low = sets & -sets
            mask |= set_bits[low.bit_length() - 1]
            sets ^= low
        nbr[e] = mask
        return mask

    def dfs(chosen_bits: int, count: int, covered: int, dead: int) -> bool:
        """Expand a node that may still beat best_size; True once a limited solve may stop.

        dead masks the elements some covered set holds, the OR of nbr over the
        chosen elements; the other candidates, n_cand - |dead| of them, are fresh.
        """
        nonlocal best_bits, best_size, nodes
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic_ns() > deadline:
            raise BudgetExceededError("hitting-set search exceeded its wall-clock budget")
        rem = all_covered ^ covered
        count += 1
        need = best_size - count - 1  # the most further elements a child may still take
        b = set_bits[(rem & -rem).bit_length() - 1]  # the first uncovered set
        while b:
            low = b & -b
            b ^= low
            e = low.bit_length() - 1
            child = covered | elem_sets[e]
            if child == all_covered:
                if count < best_size:
                    best_size, best_bits = count, chosen_bits | low
                    if limit is not None:
                        return True
                    need = best_size - count - 1
            elif count + more[c := child.bit_count()] < best_size:
                # need more elements hit at most need * per_elem = uncovered + w
                # sets, and one that is not fresh hits one fewer: at most w of
                # them may be stale, so need - w must still be fresh.
                child_dead = dead | (nbr[e] or near(e))
                if n_cand - child_dead.bit_count() < n_sets - c - need * (per_elem - 1):
                    continue
                seen = reached(child)
                if seen is None or count < seen:
                    if seen is not None or len(fewest) < MEMO_MAX_ENTRIES:
                        fewest[child] = count
                    if dfs(chosen_bits | low, count, child, child_dead):
                        return True
                    need = best_size - count - 1
        return False

    # Some hitting set of every achievable size holds the lowest candidate z:
    # the family's symmetries move any candidate onto z (module docstring).
    z = candidates[0]
    if elem_sets[z] != all_covered:  # else greedy took an element hitting every set
        try:
            dfs(1 << z, 1, elem_sets[z], near(z))
        except RecursionError:
            raise BudgetExceededError("hitting-set search outran the recursion limit") from None
        finally:
            fewest.clear()  # dfs refers to itself, so its memo would wait for the cycle collector
    return best_size, best_bits, nodes


class ExactResult(_Frozen):
    """Exact N certified by a maximum avoider; its complement is a minimum hitting set."""

    __slots__ = __match_args__ = ("max_avoider", "nodes")

    @property
    def n_value(self) -> int:
        return self.max_avoider.size + 1

    @property
    def min_hitting_set(self) -> GroupSubset:
        return self.max_avoider.complement()


def exact_N(pattern: GroupSubset, *, budget_ms: int | None = DEFAULT_BUDGET_MS) -> ExactResult:
    """Exact threshold N for the pattern, or BudgetExceededError; never partial.

    The search runs on the class-index masks of the whole translate family
    (groups._ranks), and the avoider is groups._lift of the unhit classes:
    the hitting set is the coset maximum of each class hit.
    MAX_EXACT_ORDER caps |G/H|, as it caps construct's exact phase; a single
    coset of the stabilizer H hits every class with no search at any order.
    Verification's own cap (MAX_VERIFY_WORK) is checked before the quotient
    is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("exact solve needs a nonempty pattern")
    grp, g = pattern.group, pattern.group.size
    sub = stabilizer(pattern)
    one_coset = pattern.size == sub.order
    if not one_coset and g // sub.order > MAX_EXACT_ORDER:
        raise BudgetExceededError(
            f"quotient order {g // sub.order} exceeds the exact-solver cap {MAX_EXACT_ORDER}"
        )
    _check_verify_work(g, sub.order)  # refuse before the quotient is built
    # In integer nanoseconds: a float deadline overflows on a budget of 309 digits.
    deadline = None if budget_ms is None else time.monotonic_ns() + budget_ms * 1_000_000
    view = quotient_view(grp, sub)
    full_q = (1 << view.size) - 1
    hit, nodes = full_q, 0  # a single coset: each translate is one class, all hit
    if not one_coset:
        classes = [_ranks(view, t & view.minima) for t in translate_family(pattern)]
        _, hit, nodes = _solve_hitting_set(classes, view.size, deadline)
    avoider = certify(_lift(view, full_q ^ hit), pattern).avoiding_set
    return ExactResult(max_avoider=avoider, nodes=nodes)
