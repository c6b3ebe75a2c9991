"""Group arithmetic, subsets, stabilizers, transversals, quotients."""

import random
import time
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from oracles import (
    all_subgroups,
    check_value_semantics,
    closure_reference,
    presentations,
    validate_subgroup,
)
from shiftfree.errors import (
    DomainMismatchError,
    EmptySetError,
    InvalidGroupError,
    NotCosetUnionError,
)
from shiftfree.groups import (
    MAX_GROUP_ORDER,
    Group,
    GroupSubset,
    Quotient,
    Subgroup,
    _DENSE_SHARE,
    _bit_indices,
    _close,
    _lift,
    preimage_subset,
    project_subset,
    quotient_view,
    stabilizer,
    subgroup_generated,
)

# Every presentation of every order <= 8, plus a couple of order-12 shapes.
SMALL_ORDERS = [
    [1], [2], [3], [4], [2, 2], [5], [6], [2, 3], [7], [8], [2, 4], [2, 2, 2],
]
MEDIUM_ORDERS = SMALL_ORDERS + [[9], [3, 3], [12], [2, 6], [2, 2, 3], [4, 3]]


@lru_cache(maxsize=None)
def addition_table(grp: Group) -> list[list[int]]:
    return [[grp.add(t, y) for y in grp.elements()] for t in grp.elements()]


def brute_stabilizer(subset: GroupSubset) -> set[int]:
    bits, members = subset.bits, subset.indices()
    return {
        t for t, row in enumerate(addition_table(subset.group))
        if all((bits >> row[y]) & 1 for y in members)
    }


# -- construction --------------------------------------------------------------


def test_make_group_sizes():
    assert Group([2024]).size == 2024
    assert Group([1]).size == 1
    assert Group([2, 3]).size == 6
    assert Group([4, 2]).orders == (4, 2)
    a, b = Group([3, 4]), Group((3, 4))
    assert a is not b and a == b and hash(a) == hash(b)
    assert Group([4, 3]) != a
    stabilizer.cache_clear()
    assert stabilizer(GroupSubset.from_indices(a, [0, 3, 6, 9])).order == 4
    assert stabilizer(GroupSubset.from_indices(b, [0, 3, 6, 9])).order == 4
    assert stabilizer.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_make_group_keeps_order_one_factors():
    grp = Group([1, 4])
    assert grp.size == 4
    assert grp.coords(3) == (0, 3)


def test_make_group_rejects_bad_orders():
    with pytest.raises(InvalidGroupError):
        Group([])
    with pytest.raises(InvalidGroupError):
        Group([0])
    with pytest.raises(InvalidGroupError):
        Group([3, -2])
    assert Group([MAX_GROUP_ORDER]).size == MAX_GROUP_ORDER
    with pytest.raises(InvalidGroupError):
        Group([MAX_GROUP_ORDER + 1])
    with pytest.raises(InvalidGroupError):
        Group([2**12, 2**12, 2])


# -- element arithmetic --------------------------------------------------------


def test_add_anchor_z6():
    assert Group([6]).add(4, 5) == 3


def test_add_zero_is_identity():
    grp = Group([5])
    for a in grp.elements():
        assert grp.add(a, grp.zero) == a


def test_neg_anchor_z4x_z2():
    grp = Group([4, 2])
    assert grp.coords(grp.neg(grp.flat_index((1, 1)))) == (3, 1)


def test_add_neg_cancels():
    for orders in SMALL_ORDERS:
        grp = Group(orders)
        for a in grp.elements():
            assert grp.add(a, grp.neg(a)) == grp.zero


def test_group_axioms_exhaustive():
    # Commutativity and associativity, checked on every triple for |G| <= 12.
    for orders in ([12], [2, 6], [2, 2, 3], [4, 3]):
        grp = Group(orders)
        for a in grp.elements():
            for b in grp.elements():
                assert grp.add(a, b) == grp.add(b, a)
                for c in grp.elements():
                    assert grp.add(grp.add(a, b), c) == grp.add(a, grp.add(b, c))


def test_coords_flat_bijection():
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        seen = set()
        for a in grp.elements():
            cs = grp.coords(a)
            assert all(0 <= c < m for c, m in zip(cs, grp.orders))
            assert grp.flat_index(cs) == a
            seen.add(cs)
        assert len(seen) == grp.size


def test_element_range_checks():
    grp = Group([4, 2])
    with pytest.raises(DomainMismatchError):
        grp.add(8, 0)
    with pytest.raises(DomainMismatchError):
        grp.neg(-1)
    with pytest.raises(DomainMismatchError):
        grp.flat_index((1,))
    with pytest.raises(DomainMismatchError):
        grp.flat_index((4, 0))


@st.composite
def group_and_elements(draw):
    orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    grp = Group(orders)
    picks = st.integers(0, grp.size - 1)
    return grp, draw(picks), draw(picks), draw(picks)


@given(group_and_elements())
def test_axioms_random_groups(data):
    grp, a, b, c = data
    assert grp.add(a, b) == grp.add(b, a)
    assert grp.add(grp.add(a, b), c) == grp.add(a, grp.add(b, c))
    assert grp.add(a, grp.neg(a)) == grp.zero


# -- subsets and translation ---------------------------------------------------


def test_subset_basics():
    grp = Group([6])
    s = GroupSubset.from_indices(grp, [4, 0, 4, 2])
    assert s.indices() == [0, 2, 4]
    assert s.size == 3
    assert 2 in s and 3 not in s
    assert list(s) == [0, 2, 4]
    assert GroupSubset.empty(grp).size == 0
    assert GroupSubset.full(grp).size == 6
    assert s.complement().indices() == [1, 3, 5]


def test_indices_match_a_bit_scan():
    rng = random.Random(17)
    for g in (1, 2, 7, 64, 65, 1000, 4096, 2**18):
        grp = Group([g])
        sparse = rng.getrandbits(g) & rng.getrandbits(g) & rng.getrandbits(g)
        cases = [0, 1, 1 << (g - 1), (1 << g) - 1, rng.getrandbits(g), sparse]
        # Bit length g with set bits just below, at and just above g/_DENSE_SHARE.
        at = -(-g // _DENSE_SHARE)
        for k in {max(1, at - 1), at, min(g, at + 1)}:
            chosen = rng.sample(range(g - 1), k - 1) + [g - 1]
            cases.append(GroupSubset.from_indices(grp, chosen).bits)
        if g == 2**18:
            cases.append(GroupSubset.from_indices(grp, rng.sample(range(g), 300)).bits)
        for bits in cases:
            # A byte-by-byte scan: shifting the whole int per bit is quadratic.
            scan = bits.to_bytes(g // 8 + 1, "little")
            want = [8 * j + i for j, byte in enumerate(scan) if byte for i in range(8) if byte >> i & 1]
            assert GroupSubset(grp, bits).indices() == want


def test_indices_of_a_sparse_large_set_scans_per_bit():
    # The dense pass costs a fixed amount per binary digit, so on 300 bits of
    # 2**18 it is many times slower than the per-bit scan; 50 sparse calls
    # must stay well under 50 dense passes over 2**18 digits.
    g = 2**18
    bits = GroupSubset.from_indices(Group([g]), random.Random(3).sample(range(g - 1), 299) + [g - 1]).bits
    full = (1 << g) - 1
    started = time.perf_counter()
    for _ in range(50):
        _bit_indices(full)
    dense = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(50):
        _bit_indices(bits)
    assert time.perf_counter() - started < dense / 5


def test_indices_of_a_dense_large_set_is_linear():
    # Peeling one bit at a time off a 2**18-bit int took about 7 s.
    grp = Group([2**18])
    started = time.perf_counter()
    assert len(GroupSubset.full(grp).indices()) == grp.size
    assert time.perf_counter() - started < 2.0


def test_subset_rejects_out_of_range():
    for orders in ([1], [4], [3, 5]):
        grp = Group(orders)
        assert GroupSubset(grp, (1 << grp.size) - 1) == GroupSubset.full(grp)
        for bits in (1 << grp.size, -1):
            with pytest.raises(DomainMismatchError):
                GroupSubset(grp, bits)
    grp = Group([4])
    with pytest.raises(DomainMismatchError):
        GroupSubset.from_indices(grp, [4])


def test_translate_anchors():
    z6 = Group([6])
    s = GroupSubset.from_indices(z6, [0, 1])
    assert s.translate(2).indices() == [2, 3]
    assert s.translate(0).bits == s.bits
    z4 = Group([4])
    t = GroupSubset.from_indices(z4, [0, 2])
    assert t.translate(2).bits == t.bits  # 2 stabilizes {0,2}


def test_translate_preserves_size_and_inverts():
    rng = random.Random(5)
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for _ in range(10):
            bits = rng.randrange(1, 1 << grp.size)
            s = GroupSubset(grp, bits)
            t = rng.randrange(grp.size)
            moved = s.translate(t)
            assert moved.size == s.size
            assert moved.translate(grp.neg(t)).bits == s.bits


# -- stabilizer ------------------------------------------------------------


def test_stabilizer_anchors():
    z4 = Group([4])
    assert stabilizer(GroupSubset.from_indices(z4, [0, 2])).indices() == [0, 2]
    z6 = Group([6])
    assert stabilizer(GroupSubset.from_indices(z6, [0, 1])).indices() == [0]


def test_stabilizer_of_coset_union_in_c2024():
    grp = Group([2024])
    sub = subgroup_generated(grp, [253])
    coset = GroupSubset(grp, sub.bits)
    s = GroupSubset(grp, coset.bits | coset.translate(1).bits)
    assert stabilizer(s).order == 8


def stabilizer_cases(grp: Group, rng: random.Random) -> list[int]:
    """Bitsets to check the stabilizer on: all of them up to order 12.

    Above that: every union of cosets of a nontrivial subgroup, each with
    one element toggled (a near miss whose running mask can reach an order
    dividing |G| and |S| without being the stabilizer), and random subsets.
    """
    g = grp.size
    if g <= 12:
        return list(range(1, 1 << g))
    cases = {rng.randrange(1, 1 << g) for _ in range(200)}
    for sub in all_subgroups(grp)[1:]:
        view = quotient_view(grp, sub)
        for classes in range(1, 1 << view.size):
            union = preimage_subset(classes, view).bits
            cases |= {union, union ^ (1 << rng.randrange(g))}
    cases.discard(0)
    return sorted(cases)


def test_stabilizer_matches_brute_force():
    rng = random.Random(16)
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            full = (1 << grp.size) - 1
            for bits in stabilizer_cases(grp, rng):
                s = GroupSubset(grp, bits)
                stab = stabilizer(s)
                assert set(stab.indices()) == brute_stabilizer(s), (orders, bits)
                if bits != full:
                    assert stabilizer(GroupSubset(grp, bits ^ full)).bits == stab.bits


def test_stabilizer_translate_calls(monkeypatch):
    calls = []
    translate = GroupSubset.translate

    def counted(self, t):
        calls.append(t)
        return translate(self, t)

    z2024 = Group([2024])
    coset = GroupSubset(z2024, subgroup_generated(z2024, [253]).bits)
    union = 0
    for r in range(250):
        union |= coset.translate(r).bits
    low = coset.bits | coset.translate(1).bits | coset.translate(2).bits
    z4096 = Group([4096])
    sparse = sorted(random.Random(7).sample(range(4096), 40))
    # H is trivial, so the loop stops at the first x (ascending) after
    # which the intersection of the S - x is {0}.
    mask, steps = (1 << 4096) - 1, 0
    while mask != 1:
        x = sparse[steps]
        mask &= sum(1 << ((y - x) % 4096) for y in sparse)
        steps += 1

    monkeypatch.setattr(GroupSubset, "translate", counted)
    stabilizer.cache_clear()
    assert stabilizer(GroupSubset.full(z4096)).order == 4096
    assert calls == []
    # 2000 elements: the stabilizer runs on the 3 cosets outside them.
    assert stabilizer(GroupSubset(z2024, union)).order == 8
    assert len(calls) == 3
    calls.clear()
    # The same three cosets at reps 0, 1 and 2: x = 0 takes S itself, and
    # x = 1 and x = 2 leave the coset of 0.
    assert stabilizer(GroupSubset(z2024, low)).order == 8
    assert len(calls) == 2
    calls.clear()
    assert stabilizer(GroupSubset.from_indices(z4096, sparse)).order == 1
    assert len(calls) == steps


def test_stabilizer_translation_invariant_exhaustive():
    # |G| = 12, every subset, every translation.
    for orders in ([12], [2, 6]):
        grp = Group(orders)
        stabs = {}
        for bits in range(1, 1 << grp.size):
            stabs[bits] = stabilizer(GroupSubset(grp, bits)).bits
        for bits, stab in stabs.items():
            s = GroupSubset(grp, bits)
            for t in grp.elements():
                assert stabs[s.translate(t).bits] == stab


def test_subset_is_union_of_stabilizer_cosets():
    for orders in SMALL_ORDERS:
        grp = Group(orders)
        for bits in range(1, 1 << grp.size):
            s = GroupSubset(grp, bits)
            sub = stabilizer(s)
            assert s.size % sub.order == 0
            for x in s:
                assert GroupSubset(grp, sub.bits).translate(x).bits & ~s.bits == 0


def test_stabilizer_is_closed_subgroup():
    rng = random.Random(11)
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for _ in range(8):
            s = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            validate_subgroup(stabilizer(s))


def test_stabilizer_rejects_empty_set():
    with pytest.raises(EmptySetError):
        stabilizer(GroupSubset.empty(Group([4])))


# -- subgroups -------------------------------------------------------------


def test_subgroup_generated_anchors():
    grp = Group([2024])
    sub = subgroup_generated(grp, [253])
    assert sub.order == 8
    assert sub.indices() == list(range(0, 2024, 253))
    assert subgroup_generated(grp, []).indices() == [0]
    assert subgroup_generated(Group([6]), [2]).indices() == [0, 2, 4]
    prod = Group([4, 2])
    assert subgroup_generated(prod, [prod.flat_index((1, 0))]).order == 4


def test_subgroup_generated_is_closed():
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for gen in grp.elements():
            sub = validate_subgroup(subgroup_generated(grp, [gen]))
            assert grp.size % sub.order == 0


def test_subgroup_generated_matches_closure_on_every_pair():
    # Every pair of generators, 0 and repeats included, in every
    # presentation of order <= 12.
    for n in range(1, 13):
        for orders in presentations(n):
            grp = Group(orders)
            for a in grp.elements():
                for b in grp.elements():
                    want = closure_reference(grp, [a, b])
                    assert subgroup_generated(grp, [a, b]).bits == want, (orders, a, b)


def test_close_builds_no_subset(monkeypatch):
    # _close rotates plain ints with one rotation set up per call.
    built = []
    check = GroupSubset.__post_init__
    monkeypatch.setattr(GroupSubset, "__post_init__", lambda self: built.append(check(self)))
    for orders, gens in (([12], [4]), ([4, 6], [6, 2]), ([2, 3, 4], [1, 5])):
        grp = Group(orders)
        assert _close(grp, 1, gens) == closure_reference(grp, gens)
    assert built == []


def test_subgroup_generated_is_linear_in_the_group_order():
    # The closure iteration ORed one bit at a time into a 2**20-bit int:
    # about 0.4-0.6 s.  Doubling takes a few rotations.
    started = time.perf_counter()
    assert subgroup_generated(Group([2**20]), [16]).order == 2**16
    assert time.perf_counter() - started < 0.2


def test_subsets_are_immutable_values():
    z6 = Group([6])
    check_value_semantics(
        GroupSubset(z6, 0b11),
        GroupSubset.from_indices(z6, [1, 0]),
        "GroupSubset(Group(orders=[6]), {0, 1})",
    )
    check_value_semantics(
        Subgroup(z6, 0b1001), subgroup_generated(z6, [3]), "Subgroup(Group(orders=[6]), {0, 3})"
    )
    # Equal only within one class, as the dataclasses were: the same bits differ.
    assert GroupSubset(z6, 1) != Subgroup(z6, 1) and Subgroup(z6, 1) != GroupSubset(z6, 1)
    for bits in (-1, 1 << 6):
        with pytest.raises(DomainMismatchError):
            GroupSubset(z6, bits)
    with pytest.raises(InvalidGroupError):
        Subgroup(z6, 0b1000)  # {3}: no zero


def test_subgroup_construction_guards():
    z4 = Group([4])
    with pytest.raises(InvalidGroupError):
        Subgroup(z4, 0b1010)  # missing zero
    with pytest.raises(InvalidGroupError):
        Subgroup(z4, 0b0111)  # order 3 does not divide 4
    z6 = Group([6])
    with pytest.raises(InvalidGroupError):
        validate_subgroup(Subgroup(z6, 0b000111))  # {0,1,2} is not closed


# -- transversals and quotients ----------------------------------------------


def test_transversal_anchors():
    z4 = Group([4])
    h = subgroup_generated(z4, [2])
    assert tuple(quotient_view(z4, h).representatives) == (0, 1)
    assert tuple(quotient_view(z4, subgroup_generated(z4, [])).representatives) == (0, 1, 2, 3)
    assert tuple(quotient_view(z4, subgroup_generated(z4, [1])).representatives) == (0,)


def test_transversal_is_sorted_minimum_per_coset():
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for gen in grp.elements():
            sub = subgroup_generated(grp, [gen])
            view = quotient_view(grp, sub)
            reps = view.representatives
            assert len(reps) == grp.size // sub.order
            assert list(reps) == sorted(reps)
            # Class i's first element is representatives[i]: each class's
            # minimum flat index, one per coset.
            cosets = class_preimages(view)
            assert cosets == fibres(grp, sub)
            assert [(b & -b).bit_length() - 1 for b in cosets] == list(reps)


def test_quotient_anchors():
    grp = Group([2024])
    view = quotient_view(grp, subgroup_generated(grp, [253]))
    assert view.size == 253
    z6 = Group([6])
    trivial = quotient_view(z6, subgroup_generated(z6, []))
    assert trivial.size == 6
    assert class_preimages(trivial) == [1 << a for a in z6.elements()]
    assert quotient_view(z6, subgroup_generated(z6, [1])).size == 1


def test_quotient_fibers_have_subgroup_order():
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for gen in grp.elements():
            sub = subgroup_generated(grp, [gen])
            view = quotient_view(grp, sub)
            cosets = class_preimages(view)
            assert cosets == fibres(grp, sub)
            assert all(b.bit_count() == sub.order for b in cosets)


def test_quotient_rejects_foreign_modulus():
    z6 = Group([6])
    z4 = Group([4])
    with pytest.raises(DomainMismatchError):
        Quotient(z4, subgroup_generated(z6, [2]))


# -- projection of subsets ---------------------------------------------------


def test_project_subset_anchors():
    z4 = Group([4])
    h = subgroup_generated(z4, [2])
    view = quotient_view(z4, h)
    s = GroupSubset.from_indices(z4, [0, 2])
    assert project_subset(s, view) == 0b01  # class 0 only

    grp = Group([2024])
    sub = subgroup_generated(grp, [253])
    coset = GroupSubset(grp, sub.bits)
    union2 = GroupSubset(grp, coset.bits | coset.translate(1).bits)
    assert project_subset(union2, quotient_view(grp, sub)) == 0b11


def test_project_subset_trivial_modulus_is_identity():
    z6 = Group([6])
    view = quotient_view(z6, subgroup_generated(z6, []))
    s = GroupSubset.from_indices(z6, [1, 4, 5])
    assert project_subset(s, view) == s.bits


def test_project_preimage_round_trip():
    rng = random.Random(3)
    for orders in MEDIUM_ORDERS:
        grp = Group(orders)
        for gen in grp.elements():
            sub = subgroup_generated(grp, [gen])
            view = quotient_view(grp, sub)
            coset = GroupSubset(grp, sub.bits)
            reps = rng.sample(view.representatives, rng.randint(1, view.size))
            bits = 0
            for r in reps:
                bits |= coset.translate(r).bits
            s = GroupSubset(grp, bits)
            classes = project_subset(s, view)
            assert classes.bit_count() == len(reps)
            assert preimage_subset(classes, view).bits == s.bits


def quotient_reference(grp: Group, sub: Subgroup) -> tuple[list[int], list[int]]:
    """(projection, representatives), peeling the subgroup's bits once per coset."""
    projection, reps = [-1] * grp.size, []
    for a in grp.elements():
        if projection[a] < 0:
            reps.append(a)
            h = sub.bits
            while h:
                low = h & -h
                projection[grp.add(a, low.bit_length() - 1)] = len(reps) - 1
                h ^= low
    return projection, reps


def fibres(grp: Group, sub: Subgroup) -> list[int]:
    """The bitset of each class of quotient_reference, in class order."""
    projection, reps = quotient_reference(grp, sub)
    out = [0] * len(reps)
    for a, cls in enumerate(projection):
        out[cls] |= 1 << a
    return out


def class_preimages(view: Quotient) -> list[int]:
    """The bitset of each class under preimage_subset, in class order."""
    return [preimage_subset(1 << cls, view).bits for cls in range(view.size)]


def preimage_reference(projection: list[int], classes: int) -> int:
    bits = 0
    for a, cls in enumerate(projection):
        if (classes >> cls) & 1:
            bits |= 1 << a
    return bits


def project_reference(projection: list[int], bits: int) -> int:
    """Class mask of a coset union, or NotCosetUnionError, one bit at a time."""
    classes, b = 0, bits
    while b:
        low = b & -b
        classes |= 1 << projection[low.bit_length() - 1]
        b ^= low
    if preimage_reference(projection, classes) != bits:
        raise NotCosetUnionError("not a union of cosets")
    return classes


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotCosetUnionError:
        return NotCosetUnionError


def test_quotient_matches_reference_on_every_small_group():
    # Every subgroup of every presentation of order <= 16: the quotient's
    # maps, and project_subset and preimage_subset on all class masks (64
    # seeded ones above 8 classes), each also with one element toggled.
    rng = random.Random(23)
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            for sub in all_subgroups(grp):
                view = quotient_view(grp, sub)
                projection, reps = quotient_reference(grp, sub)
                assert class_preimages(view) == fibres(grp, sub)
                assert tuple(view.representatives) == tuple(reps)
                top = (1 << view.size) - 1
                if view.size <= 8:
                    masks = range(top + 1)
                else:
                    masks = [0, top] + [rng.randrange(top + 1) for _ in range(64)]
                for classes in masks:
                    bits = preimage_reference(projection, classes)
                    assert preimage_subset(classes, view).bits == bits
                    assert project_subset(GroupSubset(grp, bits), view) == classes
                    bits ^= 1 << rng.randrange(grp.size)
                    assert outcome(project_subset, GroupSubset(grp, bits), view) == outcome(
                        project_reference, projection, bits
                    )


def test_quotient_matches_reference_on_larger_products():
    # Class minima are built axis by axis; subgroups from one or two random
    # generators of products with up to three axes, some of them order 1.
    rng = random.Random(31)
    for orders in ([6, 10, 4], [9, 12], [4, 1, 4, 4], [2, 3, 2, 5], [8, 6, 1], [16, 16]):
        grp = Group(orders)
        for _ in range(12):
            sub = Subgroup(grp, closure_reference(grp, rng.sample(range(grp.size), rng.randint(1, 2))))
            view = Quotient(grp, sub)
            assert class_preimages(view) == fibres(grp, sub)
            assert list(view.representatives) == quotient_reference(grp, sub)[1]


def test_quotient_makes_no_checked_add_calls(monkeypatch):
    subgroups = []
    for orders, gens in (([12], [4]), ([4, 6], [6, 2]), ([2, 3, 4], [1]), ([5, 3], [])):
        grp = Group(orders)
        subgroups.append(Subgroup(grp, closure_reference(grp, gens)))

    def refused(self, a, b):
        raise AssertionError("Group.add called")

    monkeypatch.setattr(Group, "add", refused)
    for sub in subgroups:
        assert Quotient(sub.group, sub).size == sub.group.size // sub.order


def test_quotient_by_a_small_subgroup_of_a_large_group_is_linear():
    # Peeling the subgroup's 2**18-bit int once per coset took about 2.7-3 s,
    # and ORing the preimage one bit at a time about 0.9 s.
    grp = Group([2**18])
    started = time.perf_counter()
    view = Quotient(grp, Subgroup(grp, 1 | 1 << 2**17))
    assert view.size == 2**17
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    assert preimage_subset((1 << view.size) - 1, view) == GroupSubset.full(grp)
    assert time.perf_counter() - started < 0.3


def lift_reference(projection: list[int], classes: int) -> int:
    """_lift by clearing one bit at a time in the full int."""
    top = {cls: a for a, cls in enumerate(projection)}  # ascending a: the max wins
    bits = (1 << len(projection)) - 1
    for cls, a in top.items():
        if not (classes >> cls) & 1:
            bits ^= 1 << a
    return bits


def test_lift_matches_reference_on_every_small_group():
    rng = random.Random(19)
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            for sub in all_subgroups(grp):
                view = quotient_view(grp, sub)
                projection, _ = quotient_reference(grp, sub)
                top = (1 << view.size) - 1
                if view.size <= 8:
                    masks = range(top + 1)
                else:
                    masks = [0, top] + [rng.randrange(top + 1) for _ in range(64)]
                for classes in masks:
                    assert _lift(view, classes).bits == lift_reference(projection, classes)


def test_pivots_and_maxima_on_every_small_group():
    # The pivots generate H, and the complement of _lift(view, 0), the
    # reflected minima, holds exactly the maximum of each coset.
    for n in range(1, 17):
        for orders in presentations(n):
            grp = Group(orders)
            for sub in all_subgroups(grp):
                view = quotient_view(grp, sub)
                assert subgroup_generated(grp, view.pivots) == sub, (orders, sub)
                maxima = 0
                for b in fibres(grp, sub):
                    maxima |= 1 << b.bit_length() - 1
                assert _lift(view, 0).complement().bits == maxima, (orders, sub)


@pytest.mark.parametrize("orders,gens", [([2**22], [32]), ([2, 2**21], [1, 128])])
def test_quotient_maps_hold_no_table_of_the_group(orders, gens):
    # q = 32 and q = 64 classes of a 2**22-element group: a g-entry table
    # alone is 32 MiB, and the parent's maps peaked at about 70 MiB here.
    grp = Group(orders)
    sub = subgroup_generated(grp, gens)
    tracemalloc.start()
    try:
        view = quotient_view(grp, sub)
        assert view.size == 2**22 // sub.order
        lifted = _lift(view, 0b101)
        union = preimage_subset(0b1101, view)
        assert project_subset(union, view) == 0b1101
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lifted.size == grp.size - view.size + 2
    assert union.size == 3 * sub.order
    assert peak < 16 * 2**20, peak


def test_project_subset_rejects_non_coset_union():
    z4 = Group([4])
    view = quotient_view(z4, subgroup_generated(z4, [2]))
    with pytest.raises(NotCosetUnionError):
        project_subset(GroupSubset.from_indices(z4, [0, 1]), view)


def test_projection_domain_checks():
    z6 = Group([6])
    z4 = Group([4])
    view = quotient_view(z6, subgroup_generated(z6, [3]))
    with pytest.raises(DomainMismatchError):
        project_subset(GroupSubset.from_indices(z4, [0]), view)
    # The view has three classes, so a class mask must lie in [0, 2**3).
    assert preimage_subset(0b111, view).bits == GroupSubset.full(z6).bits
    for bad in (1 << 3, -1):
        with pytest.raises(DomainMismatchError):
            preimage_subset(bad, view)
