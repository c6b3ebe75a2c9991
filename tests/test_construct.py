"""Avoiding-set constructions, the verifier, and the seeded search."""

import hashlib
import inspect
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import all_subgroups, coset_union, naive_exact, presentations
from shiftfree import construct
from shiftfree.bounds import ceil_root_power, lemma_lower, thm2_lower
from shiftfree.construct import (
    Certificate,
    construct_thm1,
    construct_thm2,
    search_avoider,
    verify_avoids,
)
from shiftfree.errors import (
    DEFAULT_BUDGET_MS,
    BudgetExceededError,
    DomainMismatchError,
    EmptySetError,
    SearchExhaustedError,
)
from shiftfree.exact import MAX_EXACT_ORDER, exact_N
from shiftfree.groups import (
    Group,
    GroupSubset,
    Subgroup,
    quotient_view,
    stabilizer,
    subgroup_generated,
)

# Every group of order <= 10, one presentation per multiset of factor orders.
ORDERS_UP_TO_10 = [
    [1], [2], [3], [4], [2, 2], [5], [6], [2, 3], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [2, 5],
]
ORDERS_11_TO_16 = [
    [11], [12], [2, 6], [3, 4], [2, 2, 3], [13], [14], [2, 7], [15], [3, 5],
    [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2],
]


def contains_translate_anywhere(candidate: GroupSubset, pattern: GroupSubset) -> bool:
    """Naive reference check over every g in G, no transversal shortcut."""
    grp = pattern.group
    members = pattern.indices()
    cand = set(candidate.indices())
    return any(
        all(grp.add(t, x) in cand for x in members) for t in grp.elements()
    )


# -- certificate type ---------------------------------------------------------


def test_certificate_flag_must_match_witness():
    # verified is derived from the witness, so the two cannot disagree.
    grp = Group([4])
    s = GroupSubset.from_indices(grp, [0, 1])
    assert Certificate(s, s, witness=None).verified
    failed = Certificate(s, s, witness=0)
    assert not failed.verified and failed.size == 2
    with pytest.raises(TypeError):
        Certificate(s, s, verified=True, witness=0)


def test_seed_must_fit_in_64_bits():
    # search_avoider, the one seeded entry point, checks the range itself.
    pair = GroupSubset.from_indices(Group([16]), [0, 1, 5])
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="64 bits"):
            search_avoider(pair, 3, seed=bad)
    assert search_avoider(pair, 3, seed=2**64 - 1).verified


def test_search_avoider_refuses_bad_arguments_before_the_stabilizer(monkeypatch):
    def no_stabilizer(subset):
        raise AssertionError("stabilizer computed")

    monkeypatch.setattr(construct, "stabilizer", no_stabilizer)
    pattern = GroupSubset.from_indices(Group([2**16]), [0, 1])
    for target, seed in ((2**16 + 1, 0), (-1, 0), (3, -1), (3, 2**64)):
        with pytest.raises(ValueError):
            search_avoider(pattern, target, seed=seed)


# -- verifier -------------------------------------------------------------------


def test_verify_avoids_anchors():
    z6 = Group([6])
    s = GroupSubset.from_indices(z6, [0, 1])
    good = verify_avoids(GroupSubset.from_indices(z6, [0, 2, 4]), s)
    assert good.verified and good.witness is None

    everything = verify_avoids(GroupSubset.full(z6), s)
    assert not everything.verified
    assert everything.witness == 0

    tiny = verify_avoids(GroupSubset.from_indices(z6, [3]), s)
    assert tiny.verified  # fewer elements than the pattern


def test_verify_avoids_reports_smallest_witness():
    z6 = Group([6])
    s = GroupSubset.from_indices(z6, [0, 1])
    cert = verify_avoids(GroupSubset.from_indices(z6, [0, 3, 4]), s)
    assert not cert.verified
    assert cert.witness == 3
    assert s.translate(cert.witness).bits & ~cert.avoiding_set.bits == 0


def test_verify_avoids_input_checks():
    z6 = Group([6])
    with pytest.raises(EmptySetError):
        verify_avoids(GroupSubset.full(z6), GroupSubset.empty(z6))
    with pytest.raises(DomainMismatchError):
        verify_avoids(GroupSubset.full(Group([4])), GroupSubset.from_indices(z6, [0]))


def test_verify_avoids_agrees_with_naive_check():
    # The transversal shortcut must give the same verdict as trying all g,
    # exhaustively for small groups and sampled at order 12.
    for orders in ([5], [6], [2, 3]):
        grp = Group(orders)
        for pbits in range(1, 1 << grp.size):
            pattern = GroupSubset(grp, pbits)
            for cbits in range(1 << grp.size):
                candidate = GroupSubset(grp, cbits)
                expect = not contains_translate_anywhere(candidate, pattern)
                assert verify_avoids(candidate, pattern).verified == expect

    rng = random.Random(17)
    for orders in ([12], [2, 6], [8], [2, 2, 2]):
        grp = Group(orders)
        for _ in range(150):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            candidate = GroupSubset(grp, rng.randrange(1 << grp.size))
            expect = not contains_translate_anywhere(candidate, pattern)
            assert verify_avoids(candidate, pattern).verified == expect


def periodic_patterns(grp: Group) -> set[int]:
    """Every nonempty union of cosets of a nontrivial subgroup, as bitsets."""
    out = set()
    for sub in all_subgroups(grp)[1:]:
        coset = GroupSubset(grp, sub.bits)
        cosets = sorted({coset.translate(a).bits for a in grp.elements()})
        for pick in range(1, 1 << len(cosets)):
            out.add(sum(c for i, c in enumerate(cosets) if pick >> i & 1))
    return out


def test_verify_avoids_witness_matches_per_element_scan():
    # verify_avoids keeps the H-cosets inside C and intersects their
    # translates by minus each coset minimum of S.  It must name the smallest
    # element whose translate fits, found here by translating S one element
    # at a time.  Inputs: every pattern on groups of order <= 8, sampled ones
    # up to order 12, and every pattern with a nontrivial stabilizer on every
    # group of order <= 16, the only patterns whose H-interior of C can differ
    # from C; each against non-periodic candidates.  branches records whether
    # |S| <= |G/H|, so both regimes stay covered.
    rng = random.Random(23)

    def check(pattern: GroupSubset) -> bool:
        grp = pattern.group
        g = grp.size
        full = (1 << g) - 1
        fit_masks = [pattern.translate(t).bits for t in range(g)]
        noise = rng.randrange(1 << g)
        fitting = noise | fit_masks[rng.randrange(g)]
        for cbits in (noise, fitting, full, full ^ 1 << (g - 1), full ^ 1 << rng.randrange(g)):
            want = next((t for t in range(g) if fit_masks[t] & ~cbits == 0), None)
            got = verify_avoids(GroupSubset(grp, cbits), pattern).witness
            assert got == want, (grp.orders, pattern.bits, cbits)
        return pattern.size <= g // stabilizer(pattern).order

    for orders in ORDERS_UP_TO_10 + [[11], [12], [2, 6], [3, 4], [2, 2, 3]]:
        grp = Group(orders)
        g = grp.size
        patterns = range(1, 1 << g) if g <= 8 else [rng.randrange(1, 1 << g) for _ in range(300)]
        branches = {check(GroupSubset(grp, pbits)) for pbits in list(patterns) + [(1 << g) - 1]}
        assert branches == ({True} if g == 1 else {True, False}), orders

    branches, count = set(), 0
    for n in range(2, 17):
        for orders in presentations(n):
            grp = Group(orders)
            for pbits in periodic_patterns(grp):
                branches.add(check(GroupSubset(grp, pbits)))
                count += 1
    assert branches == {True, False}
    assert count == 12304, count


def traced_peak(call):
    """(call(), peak traced bytes during it), from empty stabilizer and quotient caches."""
    stabilizer.cache_clear()
    quotient_view.cache_clear()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifier_memory_stays_flat_in_the_group_order():
    # A pattern with a trivial stabilizer in a cyclic group has q = g classes,
    # and its quotient keeps them as a range: a q-entry tuple of ints would
    # take about 10 MiB at g = 2**18.
    z18, z19 = Group([2**18]), Group([2**19])
    pair = GroupSubset.from_indices(z18, [0, 1])
    cert, peak = traced_peak(lambda: construct_thm1(pair))
    assert cert.verified and peak < 2 * 2**20, peak
    pair, single = GroupSubset.from_indices(z19, [0, 1]), GroupSubset.from_indices(z19, [0])
    cert, peak = traced_peak(lambda: verify_avoids(single, pair))
    assert cert.verified and peak < 2 * 2**20, peak


# -- punctured-coset construction ---------------------------------------------


def test_construct_thm1_anchor_z4():
    cert = construct_thm1(GroupSubset.from_indices(Group([4]), [0, 2]))
    assert cert.verified
    assert cert.avoiding_set.indices() == [0, 1]


def test_construct_thm1_full_group_pattern():
    grp = Group([7])
    cert = construct_thm1(GroupSubset.full(grp))
    assert cert.verified
    assert cert.avoiding_set.indices() == [0, 1, 2, 3, 4, 5]


def test_construct_thm1_trivial_stabilizer_gives_empty_set():
    cert = construct_thm1(GroupSubset.from_indices(Group([6]), [0, 1]))
    assert cert.verified
    assert cert.size == 0


def test_construct_thm1_size_formula():
    rng = random.Random(23)
    for orders in ([9], [12], [2, 8], [3, 6], [2, 2, 3]):
        grp = Group(orders)
        for _ in range(15):
            pattern = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            h = stabilizer(pattern).order
            cert = construct_thm1(pattern)
            assert cert.verified
            assert cert.size == grp.size - grp.size // h
            assert cert.pattern == pattern


def test_construct_thm1_with_a_small_stabilizer_in_a_large_group():
    # The quotient build peeled H's 2**18-bit int once per coset: about 2.4-2.8 s.
    grp = Group([2**18])
    pattern = GroupSubset.from_indices(grp, [0, 2**17])
    stabilizer.cache_clear()
    quotient_view.cache_clear()
    started = time.perf_counter()
    cert = construct_thm1(pattern)
    assert time.perf_counter() - started < 1.0
    assert cert.verified
    assert cert.size == 2**17


def test_construct_thm1_is_search_avoider_at_its_size():
    # One builder: thm1 is the search's lift of no class, and that lift is
    # every H-coset minus its max flat index.
    for n in range(1, 11):
        for orders in presentations(n):
            grp = Group(orders)
            for pbits in range(1, 1 << n):
                pattern = GroupSubset(grp, pbits)
                sub = stabilizer(pattern).indices()
                maxima = {max(grp.add(a, h) for h in sub) for a in grp.elements()}
                cert = construct_thm1(pattern)
                assert cert == search_avoider(pattern, n - n // len(sub)), (orders, pbits)
                assert set(cert.avoiding_set.indices()) == set(range(n)) - maxima


def test_construct_thm1_rejects_empty():
    with pytest.raises(EmptySetError):
        construct_thm1(GroupSubset.empty(Group([4])))


# -- randomized search -----------------------------------------------------------


def test_search_avoider_anchor_z6():
    z6 = Group([6])
    s = GroupSubset.from_indices(z6, [0, 1])
    cert = search_avoider(s, 2, seed=1)
    assert cert.verified
    assert cert.size == 2


def test_search_avoider_target_zero():
    cert = search_avoider(
        GroupSubset.from_indices(Group([5]), [0, 1]), 0)
    assert cert.verified and cert.size == 0


def test_search_avoider_below_pattern_size_always_succeeds():
    s = GroupSubset.from_indices(Group([7]), [0, 1, 3])
    cert = search_avoider(s, 2, seed=99)
    assert cert.verified and cert.size == 2


def test_search_avoider_succeeds_in_guaranteed_regime():
    # At target lemma_lower - 1 an avoiding set always exists; the search
    # must find it (random phase, repair, or exhaustive fallback).
    cases = [
        ([6], [0, 1]),
        ([8], [0, 1, 3]),
        ([10], [0, 1]),
        ([12], [0, 3, 7]),
        ([3, 4], [0, 1, 5]),
        ([13], [0, 1, 4, 6]),
    ]
    for orders, members in cases:
        grp = Group(orders)
        pattern = GroupSubset.from_indices(grp, members)
        target = lemma_lower(grp.size, 1, pattern.size) - 1
        for seed in (0, 1, 2):
            cert = search_avoider(pattern, target, seed=seed)
            assert cert.verified
            assert cert.size == target


def test_search_avoider_exhausts_when_no_set_exists():
    # In Z4 every 3-element set contains a cyclically adjacent pair, and the
    # group is small enough that the exhaustive fallback proves it.
    s = GroupSubset.from_indices(Group([4]), [0, 1])
    with pytest.raises(SearchExhaustedError):
        search_avoider(s, 3, seed=0)


def test_search_avoider_fallback_matches_naive_oracle():
    # On a quotient of at most MAX_EXACT_ORDER classes, the greedy
    # complement and then the bounded hitting-set solve on G/H must find an
    # avoider exactly when one exists, whatever the stabilizer.  One pattern
    # per translation orbit: translates share every avoider size.
    checked = refused = 0
    for orders in ORDERS_UP_TO_10:
        grp = Group(orders)
        seen = set()
        for bits in range(1, 1 << grp.size):
            if bits in seen:
                continue
            pattern = GroupSubset(grp, bits)
            seen.update(pattern.translate(t).bits for t in range(grp.size))
            largest = naive_exact(pattern) - 1
            for target in range(grp.size + 1):
                if target > largest:
                    with pytest.raises(SearchExhaustedError, match=f"size {target} exists"):
                        search_avoider(pattern, target)
                    refused += 1
                    continue
                cert = search_avoider(pattern, target)
                assert cert.verified and cert.size == target
                assert not contains_translate_anywhere(cert.avoiding_set, pattern)
                checked += 1
    assert (checked, refused) == (3554, 1542)  # feasible and refused (pattern, target) pairs


def test_search_avoider_window_matches_naive_scan():
    # Every class target the window serves (construct._window below q): on
    # one pattern per translation orbit in every group of order <= 12, and on
    # 250 seeded random patterns in each group of order 13 to 16 (all orbits
    # there take about 24 s on a 2-core x86 VM).  The avoider has the target
    # size and holds none of the |G| translates, each built element by element.
    rng = random.Random(30)
    windowed = 0
    for orders in ORDERS_UP_TO_10 + ORDERS_11_TO_16:
        grp = Group(orders)
        g = grp.size
        patterns = range(1, 1 << g) if g <= 12 else [rng.randrange(1, 1 << g) for _ in range(250)]
        seen = set()
        for bits in patterns:
            if bits in seen:
                continue
            pattern = GroupSubset(grp, bits)
            translates = [pattern.translate(t).bits for t in range(g)]
            seen.update(translates)
            q = g // stabilizer(pattern).order
            k = pattern.size * q // g  # |S/H|
            need = 1
            while construct._window(need, k, q) < q:
                avoider = search_avoider(pattern, g - q + need).avoiding_set.bits
                assert avoider.bit_count() == g - q + need
                assert all(t & ~avoider for t in translates), (orders, bits, need)
                windowed += 1
                need += 1
    assert windowed == 29678


def test_search_avoider_lifts_the_lowest_classes_when_they_hold_no_translate():
    # Every class target from 1 to q, on one pattern per translation orbit in
    # every group of order <= 12 and on 250 seeded random patterns in each
    # group of order 13 to 16 (all orbits there take about 23 s on a 2-core
    # x86 VM).  Classes are the H-cosets in order of their least element, built
    # element by element.  Every avoider has the target size and holds none of
    # the |G| translates; where none of them lies inside the preimage of the
    # lowest need classes, the avoider is that preimage plus every other coset
    # minus its largest element.
    rng = random.Random(32)
    found = lowest = refused = 0
    for orders in ORDERS_UP_TO_10 + ORDERS_11_TO_16:
        grp = Group(orders)
        g = grp.size
        patterns = range(1, 1 << g) if g <= 12 else [rng.randrange(1, 1 << g) for _ in range(250)]
        seen = set()
        for bits in patterns:
            if bits in seen:
                continue
            pattern = GroupSubset(grp, bits)
            translates = [pattern.translate(t).bits for t in range(g)]
            seen.update(translates)
            members = stabilizer(pattern).indices()
            cosets = {}
            for x in range(g):
                coset = {grp.add(x, y) for y in members}
                cosets[min(coset)] = coset
            classes = [cosets[c] for c in sorted(cosets)]
            q = len(classes)
            preimage = 0
            for need in range(1, q + 1):
                preimage |= sum(1 << x for x in classes[need - 1])
                target = g - q + need
                try:
                    avoider = search_avoider(pattern, target).avoiding_set.bits
                except SearchExhaustedError:
                    refused += 1
                    continue
                assert avoider.bit_count() == target
                assert all(t & ~avoider for t in translates), (orders, bits, need)
                found += 1
                if all(t & ~preimage for t in translates):
                    lift = preimage | sum(1 << x for c in classes[need:] for x in c if x != max(c))
                    assert avoider == lift, (orders, bits, need)
                    lowest += 1
    assert (found, lowest, refused) == (43832, 39003, 14036)


def test_construct_thm2_greedy_calls(monkeypatch):
    # The greedy runs only when the lowest classes the target needs hold a
    # translate of S/H.
    greedy, calls = construct._greedy_hitting_set, []

    def counted(*args):
        calls.append(args)
        return greedy(*args)

    monkeypatch.setattr(construct, "_greedy_hitting_set", counted)
    cert = construct_thm2(GroupSubset.from_indices(Group([1000]), [0, 150, 200]))
    assert cert.avoiding_set.indices() == list(range(99)) and not calls  # q = 1000, 99 classes
    cert = construct_thm2(GroupSubset.from_indices(Group([1024]), [0, 1, 5]))
    assert cert.size == 101 and len(calls) == 1  # {0, 1, 5} fits in the lowest 101 classes


def test_search_avoider_keeps_its_random_bits_above_the_greedy(monkeypatch):
    # Above what the greedy complement reaches, a trivial stabilizer gives
    # the bits the search gave when it ran on G's own translates: sha256 of
    # the avoider per seed 0, 1, 2, or None where the search exhausted.  The
    # random and repair phases answer every pin; Z4 x Z50 modulo
    # H = {0, (2, 0)} has coset minima other than 0..q-1.
    pins = {
        ((172,), (0, 2, 6), 89): (
            "e02d61034b60227ece17dfe8e31f268a119487f65c8fd6e8718f1766cb5e84aa",
            "fc760be41456098fa1dcf51c7ad4babec85be50626ac1f234f8b1d8ebb22530e",
            "2c263dd7ad38c362cdbb4b76c5055fbac0f5de9af386e8ca106163e6b31c1886",
        ),
        ((305,), (0, 1, 5), 155): (
            "e57c734f0ce2654f968cf0df57d66509a409e996b0e2104134d56e3d0681e067",
            "40a01c7cc26deb17f1872913ea7e0aecacc2b7fba14f9a0bedaf5bd30c7f7163",
            "0e22418edec8ecf241ef9e32c0598411de7f8eee62e1e2917641d4e393a634d5",
        ),
        ((305,), (0, 1, 5), 158): (
            "49e88f0423ab15ed975a565868bd5240008b97276b9c42cb268e1f4886c3c2ba", None, None,
        ),
        ((342,), (0, 6, 7), 175): (
            "690f043fc0f09b9de2768e0892d8ca1c951721be33664e1bb69f7c6b4b421222",
            "23d86679339051716d6d441875728552d82f008987d832788e4f44d0eeacabd9",
            None,
        ),
        ((2, 146), (0, 85, 108, 111), 195): (None, None, None),
        ((311,), (0, 205), 107): (
            "6bb666cea9ad9c02750605b717bed1b37785203312a681bb1ced501b202e837d",
            "141c470084b28be23d20c88107663ee2dc7e4919711764d940a1a9c6cc601beb",
            "4a9347651d5fc34e57e64213d0bdae7064f7a5ec39a54644b2e837eb53d5ab1a",
        ),
        ((311,), (0, 205), 113): (
            "ce8a353e31dc100560a04c9d8c849b092cabf4c638bd01bce1f484bb75ccb95c",
            "42d7e13db09b1555a1874288ae1c3cd9207c18b96fcee9fa4f59c8072232e730",
            "ac2953c8b6f6347ff94cdfc5ad2890b8bf9be061529bd6a144feb8f0fb7f75e3",
        ),
        ((311,), (0, 205), 120): (
            "8bf7f830761398815e5a751b3043e6d4387a98001d541429a7f707ca2fcccb56",
            "f8e8b189a26dd3610f7ffde824372bb52807d18df672bd6731064d44f4b5d287",
            None,
        ),
        ((311,), (0, 205), 121): (
            "77e963f91f67fd007e8e65d02272fc0112746a3a096601f536b2ed50f2bf15b6",
            None,
            None,
        ),
        ((387,), (0, 223, 229), 195): (
            "f99ddf3ea2ea15facc0f70f4bd55b78ef7457ff3761b7927a83d2824e96fbc8d",
            "ebf9dea8b92384853a73afaf48dc552e4041107c94d67d4e780977832e393afd",
            "2f974a31369cd54d8955367fdb92fc4e22df464aa568042da639f830817d495d",
        ),
        ((387,), (0, 223, 229), 196): (
            "d71eda1704a680e530a633c85db86de3f078f8072338c99ef50ac2d2cc7c32f0",
            None,
            "fab93f6b5bcadfa1fa70d51edae7cbf7e6cbc62192eb2e993077aa9948e4d554",
        ),
        ((387,), (0, 223, 229), 198): (
            "9c081476befa639a8db43f074a8bf509d54731d86494d96444518c7963fd307f",
            None,
            "533cd1b89311e0a464a98d4623050ebd0e6d9435b8dc4f62a93922aa4e2f14d3",
        ),
        ((2, 73), (0, 61), 61): (
            "2fa722efcc46fb062749cffd188f2fc46313eba992df567bed5a02f98ea2e8d7",
            None,
            None,
        ),
        ((3, 40), (0, 70), 52): (
            None,
            "5527480f19c9c65b7268cd10a8976f0d00af905130a21750487d4f245df75446",
            None,
        ),
        ((4, 50), (0, 2, 61, 63), 141): (
            "db816011efa68dfc2a0de0453829f095197ed3c0af0deedc9e11db4bf1a60b1a",
            "21420619cc55543c55bba8abb4c7229c4671c62dd388ac555e799a063f6a796c",
            "3ee673a1a2f492d1f29e6a13cbfe9346d8dbbc8ce62bf0dc377fce59d7b8a7f9",
        ),
        ((4, 50), (0, 2, 61, 63), 142): (
            "85b0c7406d51e9a11f60f5fe3471e2b82c4aee1a6c5ccb6a447f8e6b203a07f5",
            None,
            "639c297e09460776c144fc1751d13550e3a119f2ec30aae78b7cad60a725ec8f",
        ),
    }
    for (orders, members, target), digests in pins.items():
        grp = Group(orders)
        pattern = GroupSubset.from_indices(grp, members)
        with monkeypatch.context() as m:  # the greedy alone falls short of the target
            m.setattr(construct, "MAX_RANDOM_RESTARTS", 0)
            m.setattr(construct, "MAX_REPAIR_STEPS", 0)
            with pytest.raises(SearchExhaustedError):
                search_avoider(pattern, target)
        for seed, digest in enumerate(digests):
            if digest is None:
                with pytest.raises(SearchExhaustedError, match="found within budgets"):
                    search_avoider(pattern, target, seed=seed)
                continue
            cert = search_avoider(pattern, target, seed=seed)
            assert cert.size == target
            raw = cert.avoiding_set.bits.to_bytes((grp.size + 7) // 8, "little")
            assert hashlib.sha256(raw).hexdigest() == digest, (orders, members, target, seed)


def test_search_avoider_ignores_the_seed_on_small_quotients(monkeypatch):
    # With q <= MAX_EXACT_ORDER the exact solve follows the greedy
    # directly: no random phase runs, so every seed gives the same bits.
    def no_rng(seed):
        raise AssertionError("random.Random built")

    monkeypatch.setattr(construct.random, "Random", no_rng)
    for orders, members, target in (  # each above the greedy's reach
        ([40], [0, 1, 3], 24),
        ([64], [0, 1, 3], 38),
        ([24], [0, 1, 3, 12, 13, 15], 19),  # H = {0, 12}, q = 12
        ([8, 8], [0, 1, 9], 40),
    ):
        pattern = GroupSubset.from_indices(Group(orders), members)
        results = {search_avoider(pattern, target, seed=seed).avoiding_set for seed in (0, 1, 2)}
        assert len(results) == 1 and results.pop().size == target
    with pytest.raises(SearchExhaustedError, match="exists"):
        search_avoider(GroupSubset.from_indices(Group([40]), [0, 1]), 21, seed=5)


def test_search_avoider_proves_exactly_where_exact_n_answers():
    # exact_N proves a minimum and the search's exact phase stops at a size
    # limit; both solve on G/H up to MAX_EXACT_ORDER, so the search must find
    # an avoider of size N - 1 and prove that none of size N exists.  Every
    # order from 41 (above the old cap) to the cap, cyclic and two-factor.
    cases = []
    for g in range(41, MAX_EXACT_ORDER + 1):
        cases += [([g], [0, 1, 3]), ([g], [0, 2, 5])]
        pairs = [orders for orders in presentations(g) if len(orders) == 2]
        cases += [(orders, [0, 1, orders[0] + 1]) for orders in pairs]  # {0, (1,0), (1,1)}
    for orders, members in cases:
        pattern = GroupSubset.from_indices(Group(orders), members)
        n = exact_N(pattern).n_value
        cert = search_avoider(pattern, n - 1)
        assert cert.verified and cert.size == n - 1
        with pytest.raises(SearchExhaustedError, match="exists"):
            search_avoider(pattern, n)


def test_search_avoider_exact_phase_runs_under_the_solver_budget():
    # Z40 {0,1,3} at 24 lies above the greedy's reach, so the exact phase
    # runs; past its budget it is a budget error, not an exhausted search.
    # budget_ms defaults to DEFAULT_BUDGET_MS and None means no deadline, as
    # in exact_N.
    pattern = GroupSubset.from_indices(Group([40]), [0, 1, 3])
    with pytest.raises(BudgetExceededError):
        search_avoider(pattern, 24, budget_ms=0)
    for solve in (search_avoider, exact_N):
        assert inspect.signature(solve).parameters["budget_ms"].default == DEFAULT_BUDGET_MS
    assert search_avoider(pattern, 24, budget_ms=None).size == 24


def test_search_avoider_refuses_a_single_coset_at_once(monkeypatch):
    # A pattern that is one coset of its stabilizer H puts a translate in
    # every class of G/H, so a target that needs a class is a proof that no
    # avoider exists, given before any search phase, at any q (also above
    # MAX_SEARCH_ORDER).  Z16384 {0} at 1 used to run the random and repair
    # phases over all 16,384 classes and report "found within budgets".
    def no_search(*args):
        raise AssertionError("search phase ran")

    monkeypatch.setattr(construct, "_search", no_search)
    for orders, members, target in (
        ([16384], [0], 1),
        ([2 * construct.MAX_SEARCH_ORDER], [0], 1),
        ([100], [0], 53),
        ([3, 64], [0, 96], 97),  # the coset {0, (0, 32)}, q = 96
        ([12], [2, 6, 10], 9),  # q = 4
    ):
        pattern = GroupSubset.from_indices(Group(orders), members)
        with pytest.raises(SearchExhaustedError, match=f"no avoiding set of size {target} exists"):
            search_avoider(pattern, target)
        g = pattern.group.size
        below = g - g // stabilizer(pattern).order  # needs no class
        assert search_avoider(pattern, below).size == below


def test_search_avoider_is_deterministic_per_seed():
    grp = Group([16])
    pattern = GroupSubset.from_indices(grp, [0, 1, 5])
    first = search_avoider(pattern, 6, seed=42)
    second = search_avoider(pattern, 6, seed=42)
    assert first.avoiding_set.bits == second.avoiding_set.bits


def test_search_avoider_input_checks():
    grp = Group([4])
    pair = GroupSubset.from_indices(grp, [0, 1])
    with pytest.raises(ValueError):
        search_avoider(pair, 5)  # target above |G|
    with pytest.raises(EmptySetError):
        search_avoider(GroupSubset.empty(grp), 1)


def test_search_avoider_refuses_groups_above_search_cap():
    # The search keeps all g translate masks; above the cap it must refuse
    # before building any of them.
    grp = Group([32768])  # twice the cap
    with pytest.raises(BudgetExceededError, match=str(grp.size)):
        search_avoider(GroupSubset.from_indices(grp, [0, 1, 5]), 10)


# -- quotient-lift construction ---------------------------------------------


def test_construct_thm2_smoke_c2024():
    grp = Group([2024])
    cert = construct_thm2(coset_union(grp, 253, [0, 1]))
    assert cert.verified
    assert cert.size == 1786


def test_construct_thm2_single_coset_matches_thm1_size():
    grp = Group([12])
    pattern = coset_union(grp, 4, [2])  # one coset of {0,4,8}
    cert = construct_thm2(pattern)
    assert cert.verified
    assert cert.size == grp.size - grp.size // 3


def test_construct_thm2_trivial_stabilizer_is_pure_search(monkeypatch):
    # The greedy is proven to reach the target, so the search never gets as
    # far as a random source.
    def forbidden(*args, **kwargs):
        raise AssertionError("construct_thm2 must not draw from the seed")

    monkeypatch.setattr(construct.random, "Random", forbidden)
    grp = Group([10])
    pattern = GroupSubset.from_indices(grp, [0, 1, 3])
    cert = construct_thm2(pattern)
    assert cert.verified
    assert cert.size == ceil_root_power(10, 2, 3) - 1


def test_construct_thm2_ranks_only_its_window(monkeypatch):
    # Z2 x Z16384 modulo H = Z2 (S/H = {0, 1, 5}, q = 16384) needs 645
    # classes: the window is 1,672 classes, so the search ranks 1,672 class
    # masks and one mask of the translates inside the window, not q masks.
    calls = 0
    ranks = construct._ranks

    def counted(view, minima):
        nonlocal calls
        calls += 1
        return ranks(view, minima)

    monkeypatch.setattr(construct, "_ranks", counted)
    pattern = GroupSubset.from_indices(Group([2, 16384]), [0, 1, 2, 3, 10, 11])
    cert = construct_thm2(pattern)
    assert cert.verified and cert.size == 32768 - 16384 + 645
    assert calls <= 2000


def test_construct_thm2_size_formula_random_instances():
    rng = random.Random(31)
    for orders in ([12], [16], [2, 8], [18], [4, 6], [2, 2, 6]):
        grp = Group(orders)
        for _ in range(10):
            gen = rng.randrange(grp.size)
            sub = subgroup_generated(grp, [gen])
            reps = quotient_view(grp, sub).representatives
            chosen = rng.sample(reps, rng.randint(1, len(reps)))
            pattern = coset_union(grp, gen, chosen)
            report_h = stabilizer(pattern).order
            cert = construct_thm2(pattern)
            assert cert.verified
            assert cert.size == thm2_lower(grp.size, report_h, pattern.size) - 1


def coset_classes(grp: Group, sub: Subgroup) -> list[int]:
    """The smallest element of each element's H-coset, one Group.add at a time."""
    members = sub.indices()
    return [min(grp.add(a, x) for x in members) for a in grp.elements()]


def test_construct_thm2_output_structure():
    # The result decomposes into whole stabilizer cosets (the lifted quotient
    # avoider) plus cosets missing exactly one element, and the whole cosets
    # alone hold no translate of the pattern.
    grp = Group([12])
    pattern = coset_union(grp, 6, [0, 1])  # two cosets of {0,6}
    cert = construct_thm2(pattern)
    assert cert.verified

    sub = stabilizer(pattern)
    h = sub.order
    cosets = coset_classes(grp, sub)
    inside = Counter(cosets[a] for a in cert.avoiding_set)
    assert all(inside[cls] in (h, h - 1) for cls in set(cosets))
    whole = {a for a in grp.elements() if inside[cosets[a]] == h}
    members = pattern.indices()
    assert not any({grp.add(t, x) for x in members} <= whole for t in grp.elements())


def test_construct_thm2_whole_classes_avoid_exhaustive():
    # construct_thm2 searches G/H on class masks; its whole H-cosets must
    # avoid S/H.  Every pattern holding 0 with a nontrivial stabilizer, in
    # every presentation of order <= 12, checked with plain sets in G.
    checked = 0
    for n in range(1, 13):
        for orders in presentations(n):
            grp = Group(orders)
            for bits in range(1, 1 << grp.size, 2):
                pattern = GroupSubset(grp, bits)
                sub = stabilizer(pattern)
                if sub.order == 1:
                    continue
                cert = construct_thm2(pattern)
                assert cert.size == thm2_lower(grp.size, sub.order, pattern.size) - 1
                cosets = coset_classes(grp, sub)
                avoider = set(cert.avoiding_set.indices())
                inside = Counter(cosets[a] for a in avoider)
                whole = {a for a in avoider if inside[cosets[a]] == sub.order}
                members = pattern.indices()
                for t in grp.elements():
                    translate = {grp.add(t, x) for x in members}
                    assert not translate <= whole, (pattern, t)
                    assert not translate <= avoider, (pattern, t)
                checked += 1
    assert checked == 752


def test_construct_thm2_pinned_outputs():
    # The greedy complement trimmed from the top, except on the union, whose
    # lowest three classes hold no translate of S/H and are lifted as they
    # are.  On the first this is the bits the earlier seeded search's
    # hitting-set fallback gave, which trimmed the same greedy complement.
    two_factor = GroupSubset.from_indices(Group([3, 4]), [0, 1, 5])  # trivial H
    union = coset_union(Group([12]), 6, [0, 1, 3])  # H = {0, 6}
    assert construct_thm2(two_factor).avoiding_set.bits == 182  # {1, 2, 4, 5, 7}
    assert construct_thm2(union).avoiding_set.bits == 511  # {0..8}
    cert = construct_thm2(coset_union(Group([2024]), 253, [0, 1, 2]))
    assert cert.size == 1811
    digest = hashlib.sha256(cert.avoiding_set.bits.to_bytes(253, "little")).hexdigest()
    assert digest == "176e495078fc7756b2a5a52c0b6ea3f3b040963b82af8a39eba4601bc8fb65b4"


def test_construct_thm2_is_deterministic():
    grp = Group([2024])
    pattern = coset_union(grp, 253, [0, 1, 2])
    a = construct_thm2(pattern)
    b = construct_thm2(pattern)
    assert a.avoiding_set.bits == b.avoiding_set.bits


def test_construct_thm2_matches_exhaustive_oracle():
    # One pattern per translation orbit in every group of order <= 10: the
    # avoider has the advertised size, holds no translate by the naive check
    # over all of G, and is no larger than naive_exact allows.
    checked = 0
    for orders in ORDERS_UP_TO_10:
        grp = Group(orders)
        seen = set()
        for bits in range(1, 1 << grp.size):
            if bits in seen:
                continue
            pattern = GroupSubset(grp, bits)
            seen.update(pattern.translate(t).bits for t in grp.elements())
            cert = construct_thm2(pattern)
            assert cert.size == thm2_lower(grp.size, stabilizer(pattern).order, pattern.size) - 1
            assert not contains_translate_anywhere(cert.avoiding_set, pattern), pattern
            assert cert.size <= naive_exact(pattern) - 1, pattern
            checked += 1
    assert checked == 524


def harmonic_bound_margins() -> float:
    """Least float margin q + 1 - H(k) q/k - q**((k-1)/k) over every
    2 <= k < q <= MAX_SEARCH_ORDER but (q, k) = (4, 2)."""
    cap = construct.MAX_SEARCH_ORDER
    harmonic = np.cumsum(1.0 / np.arange(1, cap + 1))  # harmonic[k - 1] = H(k)
    worst = np.inf
    for k in range(2, cap):
        q = np.arange(k + 1, cap + 1, dtype=np.float64)
        margin = q + 1 - harmonic[k - 1] * q / k - q ** ((k - 1) / k)
        if k == 2:
            margin[q == 4] = np.inf
        worst = min(worst, float(margin.min()))
    return worst


def test_thm2_greedy_leaves_room_for_the_target():
    # construct_thm2 needs floor(H(k) q/k) <= q - ceil_root_power(q, k-1, k) + 1
    # for every 2 <= k < q <= MAX_SEARCH_ORDER (k = 1 has target 0, and
    # k >= 2 forces k < q).  With x = H(k) q/k and r = q**((k-1)/k),
    # floor(x) + ceil(r) < x + r + 1, so x + r <= q + 1 suffices: the margin
    # q + 1 - x - r must be >= 0.
    #
    # Floats: H(k), summed in k steps, is off by less than k * 2**-52 * H(k),
    # so H(k) q/k is off by less than 2**-52 * q * H(k) < 1e-10; the power and
    # the other operations each add a few units in the last place of values
    # below 2**15 (< 1e-11).  Each margin is off by less than 1e-8, which
    # cannot flip one of at least 1e-3.
    assert harmonic_bound_margins() >= 1e-3
    # Exact: the one tie, (4, 2), and every pair with H(k) q/k an integer.
    # Those need k < 256: for k >= 256 the denominator of H(k)/k has the
    # factor 2**m, m = floor(log2 k) (1/2**m is the only term of H(k) whose
    # denominator has m factors 2), and an odd prime p in (k/2, k] (Bertrand;
    # 1/p is the only term whose denominator p divides), so it exceeds
    # 2**m * k/2 >= 2**15.
    cap = construct.MAX_SEARCH_ORDER
    harmonic = [Fraction(0)]
    for k in range(1, 256):
        harmonic.append(harmonic[-1] + Fraction(1, k))
    integral = []
    for k in range(2, 256):
        step = (harmonic[k] / k).denominator
        integral += [(q, k) for q in range(step, cap + 1, step) if q > k]
    assert len(integral) == 5560 and max(k for _, k in integral) == 8
    for q, k in [(4, 2)] + integral:
        assert harmonic[k] * q // k <= q - ceil_root_power(q, k - 1, k) + 1, (q, k)


def test_window_leaves_room_for_the_target(monkeypatch):
    # For every 2 <= k < q <= MAX_SEARCH_ORDER and thm2's need
    # ceil(q**((k-1)/k)) - 1, the window m = construct._window(need, k, q)
    # has m <= q and m - floor(H(k) m/k) >= need, so the greedy on it leaves
    # the target; and where m < q, Chvatal's bound itself holds:
    # m - H(k) m/k >= need.  _window runs on whole rows of q, with numpy's
    # ceil and minimum in place of math's and the builtin's.
    #
    # Floats: need is exact (a root within 1e-6 of an integer is taken by
    # ceil_root_power).  H(k) m/k is off by less than 2**-52 * H(k) * m plus
    # a few units in the last place of values below 2**15, under 1e-10.  The
    # floor test needs H(k) m/k < m - need + 1 and the bound test
    # H(k) m/k <= m - need; margins of 1e-3 and 1e-9 cannot be flipped.
    cap = construct.MAX_SEARCH_ORDER
    harmonic = np.cumsum(1.0 / np.arange(1, cap + 1))  # harmonic[k - 1] = H(k)
    with monkeypatch.context() as m:
        m.setattr(construct, "ceil", np.ceil)
        m.setattr(construct, "min", np.minimum, raising=False)
        floor_margin = bound_margin = np.inf
        for k in range(2, cap):
            q = np.arange(k + 1, cap + 1)
            root = q ** ((k - 1) / k)
            need = np.ceil(root) - 1
            for i in np.flatnonzero(np.abs(root - np.rint(root)) < 1e-6):
                need[i] = ceil_root_power(int(q[i]), k - 1, k) - 1
            window = construct._window(need, k, q)
            assert (window <= q).all(), k
            taken = harmonic[k - 1] * window / k  # Chvatal: the greedy takes at most this
            floor_margin = min(floor_margin, (window - need + 1 - taken).min())
            inside = window < q
            if inside.any():
                bound_margin = min(bound_margin, (window - need - taken)[inside].min())
    assert floor_margin >= 1e-3 and bound_margin >= 1e-9, (floor_margin, bound_margin)
    # Exact: every pair whose window m < q makes H(k) m/k an integer (k <= 8,
    # as in test_thm2_greedy_leaves_room_for_the_target), through _window
    # itself.
    exact = 0
    for k in range(2, 9):
        h_k = sum(Fraction(1, j) for j in range(1, k + 1))
        step = (h_k / k).denominator
        for q in range(k + 1, cap + 1):
            need = ceil_root_power(q, k - 1, k) - 1
            window = construct._window(need, k, q)
            if window < q and window % step == 0:
                assert window - h_k * window / k >= need, (q, k)
                exact += 1
    assert exact == 5641


def test_construct_thm2_rejects_empty():
    with pytest.raises(EmptySetError):
        construct_thm2(GroupSubset.empty(Group([6])))
