"""Exact solver: translate families, the hitting-set search on them, and exact_N.

translate_family returns bitsets, and the search is the private
exact._solve_hitting_set, so the hitting-set tests call it on a translate
family, the only kind of family the search is sound on.  exact_N is checked
against the naive oracle and against the solve of the G-level family.
"""

import itertools
import random
import sys
import time
import traceback

import pytest

from oracles import (
    NAIVE_MAX_ORDER,
    all_subgroups,
    check_value_semantics,
    closure_reference,
    naive_exact,
    presentations,
)
from shiftfree import exact
from shiftfree.bounds import bounds_report
from shiftfree.cli import parse_group, parse_set
from shiftfree.construct import construct_thm1, verify_avoids
from shiftfree.errors import BudgetExceededError, EmptySetError
from shiftfree.exact import MAX_EXACT_ORDER, Certificate, ExactResult, exact_N, translate_family
from shiftfree.groups import (
    Group,
    GroupSubset,
    _rotation,
    quotient_view,
    stabilizer,
    subgroup_generated,
)


def solve_family(pattern: GroupSubset) -> tuple[int, int]:
    """(size, bits) of a minimum hitting set of the pattern's translate family."""
    return exact._solve_hitting_set(list(translate_family(pattern)), pattern.group.size, None)[:2]


def brute_min_hitting_size(family: tuple[int, ...], universe: int) -> int:
    for k in range(universe + 1):
        for combo in itertools.combinations(range(universe), k):
            chosen = sum(1 << a for a in combo)
            if all(chosen & s for s in family):
                return k
    raise AssertionError("the full universe always hits")


# Every group of order <= 12, one presentation per multiset of factor orders.
ORDERS_UP_TO_12 = [
    [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [11], [12], [2, 6],
]


def coset_union(group: Group, order: int, reps: list[int]) -> GroupSubset:
    """Union of r + H over reps, H the order-`order` subgroup of a cyclic group."""
    sub = subgroup_generated(group, [group.size // order])
    bits = 0
    for r in reps:
        bits |= sub.translate(r).bits
    return GroupSubset(group, bits)


# -- translate family ------------------------------------------------------------


def test_translates_kernel_matches_translate_on_every_small_group():
    # Every operation of the rotation kernel is linear in the bitset, so the
    # singletons pin it down for every subset; random subsets check that too.
    rng = random.Random(29)
    groups = [Group(o) for n in range(1, 17) for o in presentations(n)]
    groups += [Group([2, 1, 3]), Group([1, 4])]  # order-1 factors
    for grp in groups:
        g = grp.size
        rotate = _rotation(grp)
        subsets = [1 << a for a in range(g)] + [rng.randrange(1 << g) for _ in range(8)]
        for bits in subsets + [0, (1 << g) - 1]:
            s = GroupSubset(grp, bits)
            want = [s.translate(t).bits for t in range(g)]
            assert [rotate(bits, t) for t in range(g)] == want, (grp, bits)


def test_translate_family_anchors():
    z6 = Group([6])
    fam = translate_family(GroupSubset.from_indices(z6, [0, 1]))
    assert len(fam) == 6
    assert fam[:3] == (0b11, 0b110, 0b1100)

    z4 = Group([4])
    fam = translate_family(GroupSubset.from_indices(z4, [0, 2]))
    assert fam == (0b101, 0b1010)

    whole = translate_family(GroupSubset.full(z4))
    assert whole == (0b1111,)


def test_translate_family_regularity():
    # Every element lies in exactly |S|/|H| of the family's sets.
    rng = random.Random(29)
    for orders in ([6], [8], [2, 4], [12], [2, 2, 3]):
        grp = Group(orders)
        for _ in range(20):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            fam = translate_family(pattern)
            for a in grp.elements():
                hits = sum(s >> a & 1 for s in fam)
                assert hits == pattern.size // stabilizer(pattern).order


def test_translate_family_rejects_empty():
    with pytest.raises(EmptySetError):
        translate_family(GroupSubset.empty(Group([5])))


# -- minimum hitting set -----------------------------------------------------


def test_min_hitting_set_anchors():
    z6 = Group([6])
    size, witness = solve_family(GroupSubset.from_indices(z6, [0, 1]))
    assert size == 3
    assert witness.bit_count() == 3

    z4 = Group([4])
    size, witness = solve_family(GroupSubset.from_indices(z4, [0, 2]))
    assert size == 2  # the two translates are disjoint

    assert solve_family(GroupSubset.full(z6))[0] == 1


def test_min_hitting_set_refuses_an_empty_set():
    # Nothing hits the empty set: the greedy incumbent used to loop forever
    # on the first family and reach max() of no candidates on the second.
    for sets in ([0b11, 0], [0, 0]):
        with pytest.raises(EmptySetError):
            exact._solve_hitting_set(sets, 4, None)


def test_min_hitting_set_too_deep_is_a_budget_error():
    # The depth-first search recurses once per chosen element: a search that
    # outruns Python's recursion limit is a named budget refusal (exit 3), not
    # a RecursionError.  The limit is lowered to 16 frames above the solve's
    # caller, room for the solver's setup but not for Z64 {0,1,3}'s search
    # (tau = 26 against a greedy 32), and restored before pytest checks.
    z64 = Group([64])

    def solve_near_the_limit(indices: list[int]) -> int:
        sets = list(translate_family(GroupSubset.from_indices(z64, indices)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 16)
        try:
            return exact._solve_hitting_set(sets, 64, None)[0]
        finally:
            sys.setrecursionlimit(limit)

    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="recursion limit"):
        solve_near_the_limit([0, 1, 3])
    assert time.monotonic() - started < 1.0
    # Where the greedy incumbent is already optimal the search stays shallow.
    assert solve_near_the_limit([0, 1]) == 32


def test_min_hitting_set_witness_hits_every_set():
    rng = random.Random(41)
    for orders in ([7], [9], [2, 5], [3, 3]):
        grp = Group(orders)
        for _ in range(15):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            size, witness = solve_family(pattern)
            assert witness.bit_count() == size
            for s in translate_family(pattern):
                assert witness & s


def test_min_hitting_set_matches_brute_force():
    rng = random.Random(43)
    for orders in ([6], [8], [9], [2, 4], [10], [2, 5]):
        grp = Group(orders)
        for _ in range(12):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            assert solve_family(pattern)[0] == brute_min_hitting_size(
                translate_family(pattern), grp.size)


def test_limited_solve_fits_the_limit_exactly_when_the_minimum_does():
    # construct's search falls back to _solve_hitting_set with a size limit:
    # it must find a hitting set within the limit iff the minimum fits.
    rng = random.Random(47)
    for orders in ([6], [8], [9], [2, 4], [10], [2, 5], [3, 3]):
        grp = Group(orders)
        for _ in range(8):
            sets = list(translate_family(GroupSubset(grp, rng.randrange(1, 1 << grp.size))))
            tau = brute_min_hitting_size(sets, grp.size)
            for limit in range(tau + 2):
                size, bits, _ = exact._solve_hitting_set(sets, grp.size, None, limit)
                assert (size <= limit) == (tau <= limit), (sets, limit)
                if size <= limit:
                    assert bits.bit_count() == size
                    assert all(bits & s for s in sets)



def rescan_greedy(elem_sets: list[int], n_sets: int) -> int:
    """Reference greedy: rescan every element for the largest gain, lowest index on ties."""
    uncovered, picked = (1 << n_sets) - 1, 0
    while uncovered:
        gains = [(es & uncovered).bit_count() for es in elem_sets]
        pick = gains.index(max(gains))
        picked |= 1 << pick
        uncovered &= ~elem_sets[pick]
    return picked


class Recorded(Exception):
    """Raised by a recording greedy, so that no search runs after it."""


def test_greedy_hitting_set_matches_rescan_exhaustive(monkeypatch):
    # _greedy_hitting_set scans each gain level in one ascending pass; it must
    # pick exactly what a full rescan per pick does, or exact_N's incumbent,
    # and with it its node count, moves.  Every greedy input that
    # the whole-family solve and exact_N produce on one pattern per translation orbit
    # in every group of order <= 12: whole translate families, and the class
    # families of G/H exact_N solves.
    inputs = []
    greedy = exact._greedy_hitting_set

    def recording(elem_sets, n_sets):
        inputs.append((list(elem_sets), n_sets))
        raise Recorded

    monkeypatch.setattr(exact, "_greedy_hitting_set", recording)
    for orders in ORDERS_UP_TO_12:
        grp = Group(orders)
        seen = set()
        for bits in range(1, 1 << grp.size, 2):
            if bits in seen:
                continue
            pattern = GroupSubset(grp, bits)
            seen.update(pattern.translate(t).bits for t in range(grp.size))
            for solve in (lambda: solve_family(pattern),
                          lambda: exact_N(pattern)):
                try:
                    solve()
                except Recorded:
                    pass
    assert len(inputs) == 2526
    for elem_sets, n_sets in inputs:
        assert greedy(elem_sets, n_sets) == rescan_greedy(elem_sets, n_sets), elem_sets

def test_min_hitting_set_is_deterministic():
    pattern = GroupSubset.from_indices(Group([12]), [0, 2, 3])
    assert solve_family(pattern) == solve_family(pattern)


# -- exact threshold ------------------------------------------------------------


def test_exact_n_anchor_z6_pair():
    z6 = Group([6])
    result = exact_N(GroupSubset.from_indices(z6, [0, 1]))
    assert result.n_value == 4
    assert result.nodes >= 1


def test_exact_n_anchor_z4_coset():
    result = exact_N(GroupSubset.from_indices(Group([4]), [0, 2]))
    assert result.n_value == 3


def test_certificate_and_result_are_immutable_values():
    z6 = Group([6])
    pattern = GroupSubset(z6, 0b11)
    check_value_semantics(
        verify_avoids(GroupSubset(z6, 0b100100), pattern),
        Certificate(GroupSubset(z6, 0b100100), GroupSubset(z6, 0b11), None),
        "Certificate(avoiding_set=GroupSubset(Group(orders=[6]), {2, 5}), "
        "pattern=GroupSubset(Group(orders=[6]), {0, 1}), witness=None)",
    )
    check_value_semantics(
        exact_N(pattern),
        ExactResult(max_avoider=GroupSubset(z6, 0b101010), nodes=1),
        "ExactResult(max_avoider=GroupSubset(Group(orders=[6]), {1, 3, 5}), nodes=1)",
    )
    # One constructor binds the fields by position or keyword, and nothing else.
    avoider = GroupSubset(z6, 0b101010)
    assert ExactResult(avoider, nodes=1) == ExactResult(nodes=1, max_avoider=avoider)
    for args, kwargs in (
        ((avoider,), {}),  # missing
        ((avoider, 1), {"nodes": 1}),  # repeated
        ((avoider, 1), {"optimal": True}),  # unknown
        ((avoider, 1, True), {}),  # one too many
    ):
        with pytest.raises(TypeError, match="ExactResult takes the fields max_avoider, nodes"):
            ExactResult(*args, **kwargs)


def test_exact_n_full_group_pattern():
    for g in (1, 5, 9):
        grp = Group([g])
        assert exact_N(GroupSubset.full(grp)).n_value == g


def test_exact_n_singleton_pattern():
    result = exact_N(GroupSubset.from_indices(Group([7]), [3]))
    assert result.n_value == 1
    assert naive_exact(GroupSubset.from_indices(Group([7]), [3])) == 1


def test_exact_n_certificates_are_dual():
    rng = random.Random(47)
    for orders in ([6], [10], [12], [2, 6], [3, 4]):
        grp = Group(orders)
        for _ in range(10):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            result = exact_N(pattern)
            avoider, hitting = result.max_avoider, result.min_hitting_set
            assert avoider.bits & hitting.bits == 0
            assert avoider.bits | hitting.bits == (1 << grp.size) - 1
            assert avoider.size == result.n_value - 1
            assert verify_avoids(avoider, pattern).verified
            report = bounds_report(pattern)
            assert report.thm2_lower <= result.n_value <= report.upper


def test_exact_n_translation_invariant():
    grp = Group([10])
    base = GroupSubset.from_indices(grp, [0, 1, 4])
    reference = exact_N(base).n_value
    for t in grp.elements():
        assert exact_N(base.translate(t)).n_value == reference


def test_exact_n_matches_naive_oracle_sampled():
    # The full sweep over every group of order <= 10 lives in the acceptance
    # suite; this samples the larger orders the naive oracle can still reach.
    rng = random.Random(53)
    for orders in ([11], [12], [2, 6], [2, 2, 3], [13], [14], [2, 7]):
        grp = Group(orders)
        for _ in range(12):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            assert exact_N(pattern).n_value == naive_exact(pattern)


def test_exact_n_adjacent_pair_closed_form():
    # For S = {0,1} in a cycle the maximum avoider is a maximum independent
    # set of the cycle graph, so N = floor(g/2) + 1.
    for g in (4, 6, 9, 13, 41, MAX_EXACT_ORDER):
        grp = Group([g])
        result = exact_N(GroupSubset.from_indices(grp, [0, 1]))
        assert result.n_value == g // 2 + 1


def test_exact_n_quotient_path_matches_naive_oracle_exhaustive():
    # The search runs on G/H, so only a nontrivial stabilizer exercises the
    # reduction: every such pattern holding 0, in every presentation of order
    # <= 12, against the oracle, with the avoider checked independently.
    checked = 0
    for n in range(1, 13):
        for orders in presentations(n):
            grp = Group(orders)
            for bits in range(1, 1 << grp.size, 2):
                pattern = GroupSubset(grp, bits)
                if stabilizer(pattern).order == 1:
                    continue
                result = exact_N(pattern)
                assert result.n_value == naive_exact(pattern), pattern
                assert result.max_avoider.size == result.n_value - 1
                assert verify_avoids(result.max_avoider, pattern).verified, pattern
                checked += 1
    assert checked == 752


def trivial_stabilizer_sweep() -> tuple[int, int]:
    """(patterns, total nodes): exact_N against the oracle, one pattern per
    translation orbit holding 0 with a trivial stabilizer, in every
    presentation of order <= 11."""
    checked = nodes = 0
    for n in range(1, 12):
        for orders in presentations(n):
            grp = Group(orders)
            seen = set()
            for bits in range(1, 1 << grp.size, 2):
                if bits in seen:
                    continue
                pattern = GroupSubset(grp, bits)
                seen.update(pattern.translate(t).bits for t in range(grp.size))
                if stabilizer(pattern).order != 1:
                    continue
                result = exact_N(pattern)
                assert result.n_value == naive_exact(pattern), pattern
                assert result.max_avoider.size == result.n_value - 1
                assert verify_avoids(result.max_avoider, pattern).verified, pattern
                checked += 1
                nodes += result.nodes
    return checked, nodes


def test_exact_n_trivial_stabilizer_matches_naive_oracle_exhaustive():
    # The search fixes the lowest candidate at its root, which is valid only
    # because the family is translation-invariant.
    assert trivial_stabilizer_sweep()[0] == 760


def test_exact_n_saturated_memo_matches_naive_oracle_exhaustive(monkeypatch):
    # Once the memo is full the search stops remembering masks and must stay
    # exact: the same sweep with room for 8 masks, and for none (a table full
    # from the start).
    totals = {}
    for bound in (8, 0):
        monkeypatch.setattr(exact, "MEMO_MAX_ENTRIES", bound)
        checked, totals[bound] = trivial_stabilizer_sweep()
        assert checked == 760
    assert totals[0] > totals[8]  # the memo prunes in this sweep


def test_exact_n_hard_instances_within_default_budget():
    # A branch and bound with a banned set and fewest-candidates branching ran
    # out of the 10 s default budget on the first and took 825,398 and 155,393
    # nodes on the other two.
    for group, spec, n in (("Z2xZ20", "{0,1,3}", 21), ("Z2xZ17", "{0,1,16}", 18),
                           ("Z30", "{0,8,15}", 16)):
        pattern = parse_set(spec, parse_group(group))
        result = exact_N(pattern)
        assert result.n_value == n, group
        assert verify_avoids(result.max_avoider, pattern).verified, group
        assert result.nodes < 1_000, group


def test_fresh_bound_cuts_nodes():
    # Deep in the tree few elements are fresh (in no covered set), so the
    # bound that counts them proves the integrality gaps ceil(uncovered /
    # per_elem) cannot see.  Without it these took 5,427 and 21,179 nodes;
    # with it 1,830 and 10,639, about half of the second.
    for group, spec, n, most in (("Z36", "{0,1,4,9}", 25, 2_000),
                                 ("Z48", "{0,1,5,11}", 34, 10_700)):
        pattern = parse_set(spec, parse_group(group))
        result = exact_N(pattern)
        assert result.n_value == n, group
        assert result.nodes <= most, (group, result.nodes)


def maximal_subgroups(grp: Group) -> set[int]:
    """Bitsets of the kernels of every map onto some Z_p, x -> sum c_i x_i mod p."""
    out = set()
    for p in range(2, grp.size + 1):
        if grp.size % p or any(p % q == 0 for q in range(2, p)):
            continue
        axes = [i for i, m in enumerate(grp.orders) if m % p == 0]
        for coeffs in itertools.product(range(p), repeat=len(axes)):
            if any(coeffs):
                out.add(sum(1 << a for a in grp.elements()
                            if sum(c * grp.coords(a)[i] for c, i in zip(coeffs, axes)) % p == 0))
    return out


def test_exact_n_on_proper_difference_subgroups_matches_whole_family_solve():
    # With K = <S - S> != G the translates fall into [G:K] disjoint copies,
    # one per K-coset, and exact_N still solves the whole class family of
    # G/H.  A pattern holding 0 has K = <S>, and K != G iff S lies in a
    # maximal subgroup.  One pattern per translation orbit, in every
    # presentation of order <= 16, against the G-level family's minimum.
    # The hitting set holds only coset maxima, the minima reflected as
    # groups._lift reflects them.
    checked = 0
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            seen = set()
            for maximal in sorted(maximal_subgroups(grp)):
                members = GroupSubset(grp, maximal).indices()[1:]
                for chosen in range(1 << len(members)):
                    bits = 1 | sum(1 << a for j, a in enumerate(members) if chosen >> j & 1)
                    if bits in seen:
                        continue
                    pattern = GroupSubset(grp, bits)
                    seen.update(pattern.translate(t).bits for t in grp.elements())
                    result = exact_N(pattern)
                    tau = solve_family(pattern)[0]
                    assert grp.size - result.max_avoider.size == tau, pattern
                    assert verify_avoids(result.max_avoider, pattern).verified, pattern
                    minima = quotient_view(grp, stabilizer(pattern)).minima
                    maxima = int(format(minima, f"0{grp.size}b")[::-1], 2)
                    assert result.min_hitting_set.bits & ~maxima == 0, pattern
                    checked += 1
    assert checked == 1847


def test_exact_n_single_coset_at_any_order():
    # A single coset needs no search, so the quotient cap does not apply.
    pattern = coset_union(Group([2024]), 8, [0])
    result = exact_N(pattern)
    assert result.n_value == 1772
    assert result.nodes == 0
    assert result.max_avoider == construct_thm1(pattern).avoiding_set


def test_exact_n_coset_union_solves_on_the_quotient():
    # N(G, S) = g - g/h + N(G/H, S/H): Z320 mod its order-8 subgroup is Z40.
    z40 = Group([40])
    for reps, expected in (([0, 1], 301), ([0, 1, 3], 305)):
        result = exact_N(coset_union(Group([320]), 8, reps))
        quotient = exact_N(GroupSubset.from_indices(z40, reps))
        assert result.n_value == expected == 320 - 40 + quotient.n_value
        assert result.nodes == quotient.nodes


def test_exact_n_solves_over_the_core_elements_only(monkeypatch):
    # Z2048 mod its order-64 subgroup: the family's masks name the 32 classes
    # of G/H, so the solve's universe is 32 elements, not 2048, and the
    # answer is the quotient's.
    universes = []
    solve = exact._solve_hitting_set

    def recording(sets, universe, *args):
        universes.append(universe)
        assert all(b.bit_length() <= universe for b in sets)
        return solve(sets, universe, *args)

    monkeypatch.setattr(exact, "_solve_hitting_set", recording)
    result = exact_N(coset_union(Group([2048]), 64, [0, 1, 3]))
    monkeypatch.undo()
    quotient = exact_N(GroupSubset.from_indices(Group([32]), [0, 1, 3]))
    assert universes == [32]
    assert result.n_value == 2048 - 32 + quotient.n_value
    assert result.nodes == quotient.nodes


def test_exact_n_on_every_non_box_stabilizer_matches_the_unreduced_solve():
    # exact_N searches G/H with each class labelled by the rank of its coset
    # minimum.  H is a box when it is the product of its parts on the axes;
    # otherwise minimum order and maximum order of the cosets can differ.
    # Every coset union holding 0 whose stabilizer is not a box, in every
    # presentation of order <= 16, against the minimum hitting set of the
    # G-level family, with the avoider checked by plain set arithmetic.
    # The single cosets among them take no search: every class is hit.
    checked, searched, shapes = 0, 0, set()
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            for sub in all_subgroups(grp):
                on_axes = [a for a in sub.indices() if sum(map(bool, grp.coords(a))) <= 1]
                if closure_reference(grp, on_axes) == sub.bits:
                    continue
                others = sorted({sub.translate(r).bits for r in grp.elements()} - {sub.bits})
                for chosen in range(1 << len(others)):
                    bits = sub.bits | sum(c for j, c in enumerate(others) if chosen >> j & 1)
                    pattern = GroupSubset(grp, bits)
                    if stabilizer(pattern).bits != sub.bits:
                        continue
                    result = exact_N(pattern)
                    assert result.n_value == grp.size - solve_family(pattern)[0] + 1, pattern
                    avoider = set(result.max_avoider.indices())
                    assert len(avoider) == result.n_value - 1
                    members = pattern.indices()
                    for t in grp.elements():
                        assert not {grp.add(t, x) for x in members} <= avoider, (pattern, t)
                    checked += 1
                    if chosen:
                        searched += 1
                        shapes.add(tuple(orders))
    assert (searched, checked - searched, len(shapes)) == (2984, 133, 16)


def test_exact_n_builds_its_family_through_translate_family(monkeypatch):
    # One family builder: exact_N asks translate_family for the translates
    # once when it searches, and not at all for a single coset.
    calls = []
    build = exact.translate_family

    def recording(pattern):
        calls.append(pattern)
        return build(pattern)

    monkeypatch.setattr(exact, "translate_family", recording)
    pattern = coset_union(Group([12]), 2, [0, 1, 3])
    assert exact_N(pattern).n_value == naive_exact(pattern)
    assert calls == [pattern]
    calls.clear()
    assert exact_N(coset_union(Group([12]), 4, [0])).n_value == 10
    assert calls == []


# -- budgets --------------------------------------------------------------------


def test_exact_n_order_cap():
    grp = Group([MAX_EXACT_ORDER + 1])
    with pytest.raises(BudgetExceededError):
        exact_N(GroupSubset.from_indices(grp, [0, 1]))
    # Refused before any quotient or translate family is built.
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="quotient order 16777216"):
        exact_N(GroupSubset.from_indices(Group([2**24]), [0, 1]))
    assert time.perf_counter() - started < 1.0


def test_exact_n_zero_budget_never_returns_partial():
    pattern = GroupSubset.from_indices(Group([12]), [0, 1, 5])
    with pytest.raises(BudgetExceededError):
        exact_N(pattern, budget_ms=0)


def test_exact_n_no_wall_clock_when_budget_none():
    pattern = GroupSubset.from_indices(Group([8]), [0, 1])
    assert exact_N(pattern, budget_ms=None).n_value == 5


def test_naive_oracle_order_cap():
    grp = Group([NAIVE_MAX_ORDER + 1])
    with pytest.raises(BudgetExceededError):
        naive_exact(GroupSubset.from_indices(grp, [0, 1]))


def test_empty_pattern_rejected_everywhere():
    grp = Group([6])
    with pytest.raises(EmptySetError):
        exact_N(GroupSubset.empty(grp))
    with pytest.raises(EmptySetError):
        naive_exact(GroupSubset.empty(grp))
