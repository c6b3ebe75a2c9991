"""Exact N values via a minimum hitting set, and the one avoidance verifier.

A subset B avoids every translate of S iff its complement meets every
translate, so the largest avoiding set is |G| minus the minimum hitting set
of the family {g + S : g in T} with T a stabilizer transversal (translates
repeat inside a stabilizer coset, so the transversal family is the whole
family).  N is then |G| - tau + 1.

The family comes from the rotation kernel groups._translates, one rotation
per class; exact_N takes its bitsets straight from the kernel, with no
GroupSubset per set.

exact_N reduces, solves, then lifts.  Reduce: every translate is a union of
cosets of the stabilizer H, so a set hits it iff its image in G/H does:
N(G, S) = g - g/h + N(G/H, S/H).  Every family set is masked to one element
per H-coset (its max flat index, the one construct_thm1 punctures), so the
search has at most |G/H| candidates and the order cap applies to |G/H|.  A
single coset of H needs no search: every translate is one coset, hit by its
one maximum.  Each translate t + S also lies in one coset of the difference
subgroup K = <S - S> (K contains H), and translates overlap only inside one,
so the family is [G:K] disjoint translated copies of the translates inside
s0 + K.  That coset is the connected component of S itself, found by ORing
overlapping family sets.  Solve: the search runs on that component's
masked sets alone, at most |K/H| candidates.  Lift: the witness is
translated onto every other K-coset by the first family element's shift
there, so tau(G, S) = [G:K] tau(K, S - s0).

The solver is a memoized frontier search: greedy incumbent first, then a
depth-first search that always branches on the first uncovered set, over
all of its elements in ascending flat order, with the admissible bound
ceil(uncovered / max_sets_per_element).  Every element of G lies in exactly
|S|/|H| family sets, which makes that bound exact to compute.  The sets are
first put in Cuthill-McKee order (Cuthill and McKee, 1969), breadth-first
over their overlap graph, so the sets a partial choice has covered beyond
the first uncovered one form a narrow band.  The subtree below a node
depends only on its covered-set mask, so a table from mask to the fewest
elements that reached it cuts every repeat: on short-span patterns the
search behaves like a transfer-matrix dynamic program over that band.  The
table is bounded (MEMO_MAX_ENTRIES); once full it stops growing, and the
search stays exact with less pruning.

The search starts with the lowest candidate element z already chosen.  Every
family solved here is closed under a group of symmetries that moves any
candidate onto any other: G acts on its translate family, and K/H acts on
the masked component through the coset <-> maximum bijection.  A symmetry
maps a hitting set to a hitting set of the same size, so whenever one of
some size exists, one of that size contains z.  The search below z is
therefore complete, for the minimum and for a size limit alike, and the
root's equivalent branches are not searched again.

verify_avoids is the only test of a candidate against the pattern's
translates.  Every avoiding set the library builds, here and in construct,
passes through certify, which calls it and treats a failure as a bug: a
returned avoider is re-verified, never trusted from its construction.  It
rotates the smaller side, the candidate once per element of S or S once per
class of G/H, so it costs min(|S|, |G/H|) rotations of a |G|-bit set.

naive_exact is the independent oracle: it enumerates all 2^|G| subsets and
checks all |G| translates with plain set arithmetic, no transversal, no
bitsets, no duality.  It exists to disagree with exact_N if either is wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, DomainMismatchError, EmptySetError
from .groups import Group, GroupSubset, _bit_indices, _lift, _translates, quotient_view, stabilizer

__all__ = [
    "Certificate",
    "verify_avoids",
    "certify",
    "TranslateFamily",
    "translate_family",
    "min_hitting_set",
    "ExactResult",
    "exact_N",
    "naive_exact",
]

DEFAULT_MAX_ORDER = 40
DEFAULT_BUDGET_MS = 10_000
NAIVE_MAX_ORDER = 16
# Covered-set masks _solve_hitting_set remembers; 2**18 of them take about 20 MB.
MEMO_MAX_ENTRIES = 2**18
# Largest family _bandwidth_order tests pair by pair (n**2/2 overlap tests);
# every family the solvers build has at most EXACT_FALLBACK_LIMIT = 64 sets.
PAIRWISE_ORDER_MAX = 64
# Most bit operations verify_avoids may spend, q * g for q translates of a
# g-bit set: construct.MAX_SEARCH_ORDER * groups.MAX_GROUP_ORDER, so no
# avoider search or hitting-set solve is refused by it.
MAX_VERIFY_WORK = 2**38


@dataclass(frozen=True)
class Certificate:
    """Outcome of verifying a candidate avoiding set against a pattern.

    witness is the smallest transversal element g whose translate g + S lies
    inside the candidate, or None when no translate does.
    """

    avoiding_set: GroupSubset
    pattern: GroupSubset
    witness: Optional[int]

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

    It rotates whichever side is smaller, with H the pattern's stabilizer,
    s = |S| and q = |G/H|.  When s <= q, t + S lies inside C iff t lies in
    C - x for every x in S, so it intersects the s translates C - x.  That
    intersection is a union of H-cosets (t + h + S = t + S), so its lowest
    element is the smallest transversal element whose translate fits, and
    no quotient is built.  Otherwise it translates S by each transversal
    element: translating by a stabilizer element reproduces the same set, so
    the transversal covers every distinct translate.  Either way it costs
    min(s, q) rotations of a g-bit set.  Above q*g = MAX_VERIFY_WORK it raises
    BudgetExceededError before it translates anything.
    """
    if candidate.group != pattern.group:
        raise DomainMismatchError("candidate and pattern live in different groups")
    if pattern.bits == 0:
        raise EmptySetError("cannot verify against an empty pattern")
    grp = pattern.group
    sub = stabilizer(pattern)
    _check_verify_work(grp.size, sub.order)
    if pattern.size <= grp.size // sub.order:
        neg = grp.neg
        fits = -1  # every t, before any x is checked
        for shifted in _translates(candidate, [neg(x) for x in pattern.indices()]):
            fits &= shifted
            if not fits:
                return Certificate(candidate, pattern, witness=None)
        return Certificate(candidate, pattern, witness=(fits & -fits).bit_length() - 1)
    reps = quotient_view(grp, sub).representatives
    outside = candidate.complement().bits
    for t, bits in zip(reps, _translates(pattern, reps)):
        if bits & outside == 0:
            return Certificate(candidate, pattern, witness=t)
    return Certificate(candidate, pattern, witness=None)


def certify(candidate: GroupSubset, pattern: GroupSubset) -> Certificate:
    """verify_avoids for a set the library built; a failure is a bug, not an input error."""
    cert = verify_avoids(candidate, pattern)
    if not cert.verified:
        raise AssertionError(
            f"built avoider contains the translate at {cert.witness}; this is a bug"
        )
    return cert


@dataclass(frozen=True)
class TranslateFamily:
    """The distinct translates of one pattern, indexed by transversal order.

    Translation by G moves any element its sets cover onto any other, the
    invariant min_hitting_set needs (see _solve_hitting_set).
    """

    universe_size: int
    sets: tuple[GroupSubset, ...]

    @property
    def group(self) -> Group:
        return self.sets[0].group


def translate_family(pattern: GroupSubset) -> TranslateFamily:
    """Family of all distinct translates, one per stabilizer-transversal element."""
    if pattern.bits == 0:
        raise EmptySetError("translate family needs a nonempty pattern")
    grp = pattern.group
    reps = quotient_view(grp, stabilizer(pattern)).representatives
    sets = tuple(GroupSubset(grp, bits) for bits in _translates(pattern, reps))
    return TranslateFamily(universe_size=grp.size, sets=sets)


def min_hitting_set(family: TranslateFamily) -> tuple[int, GroupSubset]:
    """Minimum-size subset of the universe meeting every family set."""
    sets = [s.bits for s in family.sets]
    size, bits, _ = _solve_hitting_set(sets, family.universe_size, None)
    return size, GroupSubset(family.group, bits)


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
    """Greedy hitting set of sets [0, n_sets), as a mask over the elements.

    elem_sets[e] masks the sets element e holds.  Each step takes the element
    hitting the most unhit sets, smallest index on ties.  Gains only fall, so
    a bucket queue files each element under its last gain, an upper bound,
    and one ascending pass over a level's bucket makes that level's picks.
    """
    uncovered = (1 << n_sets) - 1
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
            else:
                buckets[gain].append(e)
    return picked


def _bandwidth_order(set_bits: list[int], universe: int) -> list[int]:
    """Cuthill-McKee order of the sets: breadth-first over their overlap graph.

    Cuthill-McKee starts each component at a peripheral set and takes new
    neighbours by ascending degree.  Every family solved here is transitive
    on the sets of each component (a translation moves any translate onto
    any other), so all of them share one degree and one eccentricity: the
    component's lowest set is peripheral, and neighbours go by index.  A
    set's neighbours are the unplaced sets it overlaps, tested pair by pair
    up to PAIRWISE_ORDER_MAX sets and found through the element masks above.
    """
    order: list[int] = []
    if len(set_bits) > PAIRWISE_ORDER_MAX:
        elem_sets = _element_sets(set_bits, universe)
        placed = 0
        for root in range(len(set_bits)):
            if placed >> root & 1:
                continue
            placed |= 1 << root
            queue = [root]
            for j in queue:
                fresh = 0
                for e in _bit_indices(set_bits[j]):
                    fresh |= elem_sets[e]
                fresh &= ~placed
                placed |= fresh
                queue += _bit_indices(fresh)
            order += queue
        return order
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

    With a limit, stop at the first hitting set of size <= limit instead of
    proving a minimum; a returned size above limit means none exists.  Some
    group of symmetries of the masks must act transitively on the elements
    they cover (G, G/H or K/H here), or the result can exceed the minimum.
    nodes counts the search nodes expanded; the search is the module
    docstring's memoized frontier search, from _greedy_hitting_set's
    incumbent.  Past deadline, a time.monotonic_ns() reading, or deeper than
    Python's recursion limit, it raises BudgetExceededError.  An empty mask,
    which nothing can hit, raises EmptySetError.
    """
    if not all(set_bits):
        raise EmptySetError("a family holding the empty set has no hitting set")
    if deadline is not None and time.monotonic_ns() > deadline:
        raise BudgetExceededError("hitting-set search exceeded its wall-clock budget")
    n_sets = len(set_bits)
    all_covered = (1 << n_sets) - 1

    set_bits = [set_bits[j] for j in _bandwidth_order(set_bits, universe)]
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

    def dfs(chosen_bits: int, count: int, covered: int) -> bool:
        """Expand a node that may still beat best_size; True once a limited solve may stop."""
        nonlocal best_bits, best_size, nodes
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic_ns() > deadline:
            raise BudgetExceededError("hitting-set search exceeded its wall-clock budget")
        rem = all_covered ^ covered
        count += 1
        b = set_bits[(rem & -rem).bit_length() - 1]  # the first uncovered set
        while b:
            low = b & -b
            b ^= low
            child = covered | elem_sets[low.bit_length() - 1]
            if child == all_covered:
                if count < best_size:
                    best_size, best_bits = count, chosen_bits | low
                    if limit is not None:
                        return True
            elif count + more[child.bit_count()] < best_size:
                seen = reached(child)
                if seen is None or count < seen:
                    if seen is not None or len(fewest) < MEMO_MAX_ENTRIES:
                        fewest[child] = count
                    if dfs(chosen_bits | low, count, child):
                        return True
        return False

    # Some hitting set of every achievable size holds the lowest candidate z:
    # the family's symmetries move any candidate onto z (module docstring).
    z = candidates[0]
    if elem_sets[z] != all_covered:  # else greedy took an element hitting every set
        try:
            dfs(1 << z, 1, elem_sets[z])
        except RecursionError:
            raise BudgetExceededError("hitting-set search outran the recursion limit") from None
        finally:
            fewest.clear()  # dfs refers to itself, so its memo would wait for the cycle collector
    return best_size, best_bits, nodes


@dataclass(frozen=True)
class ExactResult:
    """Exact N certified by a maximum avoider; its complement is a minimum hitting set."""

    max_avoider: GroupSubset
    nodes: int

    @property
    def n_value(self) -> int:
        return self.max_avoider.size + 1

    @property
    def min_hitting_set(self) -> GroupSubset:
        return self.max_avoider.complement()


def exact_N(pattern: GroupSubset, *, budget_ms: int | None = DEFAULT_BUDGET_MS) -> ExactResult:
    """Exact threshold N for the pattern, or BudgetExceededError; never partial.

    DEFAULT_MAX_ORDER caps |G/H|; a single coset of the stabilizer H needs no
    search.  Verification's own cap (MAX_VERIFY_WORK) is checked before the
    quotient is built.
    """
    if pattern.bits == 0:
        raise EmptySetError("exact solve needs a nonempty pattern")
    grp, g = pattern.group, pattern.group.size
    sub = stabilizer(pattern)
    one_coset = pattern.size == sub.order
    if not one_coset and g // sub.order > DEFAULT_MAX_ORDER:
        raise BudgetExceededError(
            f"quotient order {g // sub.order} exceeds the exact-solver cap {DEFAULT_MAX_ORDER}"
        )
    _check_verify_work(g, sub.order)  # refuse before the quotient is built
    # In integer nanoseconds: a float deadline overflows on a budget of 309 digits.
    deadline = None if budget_ms is None else time.monotonic_ns() + budget_ms * 1_000_000
    view = quotient_view(grp, sub)
    maxima = _lift(view, 0).complement().bits  # one element per H-coset
    if one_coset:
        # Each translate is one H-coset, hit by its one maximum.
        witness_bits, nodes = maxima, 0
    else:
        family = list(_translates(pattern, view.representatives))
        # S's connected component, by overlap, is the K-coset s0 + K.
        block, prev = family[0], 0
        while block != prev:
            prev = block
            for t in family:
                if t & block:
                    block |= t
        core = [t & maxima for t in family if t & block]
        _, witness_bits, nodes = _solve_hitting_set(core, g, deadline)
        if len(core) < len(family):
            # Lift: r + witness hits the whole copy r + S lies in; the copies
            # are disjoint, so each K-coset gets exactly one.  The shifts are
            # drawn lazily, so each test sees every lift made before it.
            witness = GroupSubset(grp, witness_bits)
            shifts = (r for r, t in zip(view.representatives, family) if not t & witness_bits)
            for lifted in _translates(witness, shifts):
                witness_bits |= lifted
    avoider = certify(GroupSubset(grp, witness_bits).complement(), pattern).avoiding_set
    return ExactResult(max_avoider=avoider, nodes=nodes)


def naive_exact(pattern: GroupSubset) -> int:
    """Brute-force N: try all subsets against all |G| translates, sets only."""
    if pattern.bits == 0:
        raise EmptySetError("exact solve needs a nonempty pattern")
    grp = pattern.group
    g = grp.size
    if g > NAIVE_MAX_ORDER:
        raise BudgetExceededError(f"naive oracle capped at order {NAIVE_MAX_ORDER}, got {g}")
    members = pattern.indices()
    translates = [frozenset(grp.add(t, x) for x in members) for t in range(g)]
    # Any set smaller than the pattern avoids vacuously.
    best = len(members) - 1
    for mask in range(1 << g):
        if mask.bit_count() <= best:
            continue
        subset = {i for i in range(g) if (mask >> i) & 1}
        if not any(tr <= subset for tr in translates):
            best = len(subset)
    return best + 1
