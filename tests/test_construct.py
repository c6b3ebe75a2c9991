"""Avoiding-set constructions, the verifier, and the seeded search."""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

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
    BudgetExceededError,
    DomainMismatchError,
    EmptySetError,
    SearchExhaustedError,
)
from shiftfree.exact import naive_exact
from shiftfree.groups import Group, GroupSubset, quotient_view, stabilizer, subgroup_generated

# Every group of order <= 10, one presentation per multiset of factor orders.
ORDERS_UP_TO_10 = [
    [1], [2], [3], [4], [2, 2], [5], [6], [2, 3], [7], [8], [2, 4], [2, 2, 2],
    [9], [3, 3], [10], [2, 5],
]


def contains_translate_anywhere(candidate: GroupSubset, pattern: GroupSubset) -> bool:
    """Naive reference check over every g in G, no transversal shortcut."""
    grp = pattern.group
    members = pattern.indices()
    cand = set(candidate.indices())
    return any(
        all(grp.add(t, x) in cand for x in members) for t in grp.elements()
    )


def presentations(n: int) -> list[list[int]]:
    """Every ordered tuple of cyclic factors >= 2 with product n; [1] for n = 1."""
    if n == 1:
        return [[1]]
    out = [[n]]
    for f in range(2, n):
        if n % f == 0:
            out += [[f] + rest for rest in presentations(n // f)]
    return out


def coset_union(group: Group, generator: int, reps: list[int]) -> GroupSubset:
    coset = GroupSubset(group, subgroup_generated(group, [generator]).bits)
    bits = 0
    for r in reps:
        bits |= coset.translate(r).bits
    return GroupSubset(group, bits)


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


def test_verify_avoids_witness_matches_per_element_scan():
    # verify_avoids intersects the s translates C - x when s <= q = |G/H| and
    # translates S by each of the q classes otherwise.  Both must name the
    # smallest transversal element whose translate fits, on every group of
    # order <= 12: every pattern up to order 8, sampled above.
    rng = random.Random(23)
    for orders in ORDERS_UP_TO_10 + [[11], [12], [2, 6], [3, 4], [2, 2, 3]]:
        grp = Group(orders)
        g = grp.size
        full = (1 << g) - 1
        patterns = range(1, 1 << g) if g <= 8 else [rng.randrange(1, 1 << g) for _ in range(300)]
        branches = set()
        for pbits in list(patterns) + [full]:
            pattern = GroupSubset(grp, pbits)
            fit_masks = [pattern.translate(t).bits for t in range(g)]
            noise = rng.randrange(1 << g)
            for cbits in (noise, noise | fit_masks[rng.randrange(g)], full, full ^ 1 << (g - 1)):
                cand = GroupSubset(grp, cbits)
                want = next((t for t in range(g) if fit_masks[t] & ~cbits == 0), None)
                assert verify_avoids(cand, pattern).witness == want, (orders, pbits, cbits)
            branches.add(pattern.size <= g // stabilizer(pattern).order)
        assert branches == ({True} if g == 1 else {True, False}), orders


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
    # On a quotient of at most EXACT_FALLBACK_LIMIT classes, the greedy
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


def test_search_avoider_keeps_its_random_bits_above_the_greedy(monkeypatch):
    # Above what the greedy complement reaches, a trivial stabilizer gives
    # the bits the search gave when it ran on G's own translates: sha256 of
    # the avoider per seed 0, 1, 2, or None where the search exhausted.
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
    # With q <= EXACT_FALLBACK_LIMIT the exact solve follows the greedy
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


def test_construct_thm2_output_structure():
    # The result decomposes into whole stabilizer cosets (the lifted quotient
    # avoider) plus cosets missing exactly one element, and the whole cosets
    # alone hold no translate of the pattern.
    grp = Group([12])
    pattern = coset_union(grp, 6, [0, 1])  # two cosets of {0,6}
    cert = construct_thm2(pattern)
    assert cert.verified

    sub = stabilizer(pattern)
    view = quotient_view(grp, sub)
    h = sub.order
    inside = Counter(view.projection[a] for a in cert.avoiding_set)
    assert all(inside[cls] in (h, h - 1) for cls in range(view.size))
    whole = {a for a in grp.elements() if inside[view.projection[a]] == h}
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
                view = quotient_view(grp, sub)
                avoider = set(cert.avoiding_set.indices())
                inside = Counter(view.projection[a] for a in avoider)
                whole = {a for a in avoider if inside[view.projection[a]] == sub.order}
                members = pattern.indices()
                for t in grp.elements():
                    translate = {grp.add(t, x) for x in members}
                    assert not translate <= whole, (pattern, t)
                    assert not translate <= avoider, (pattern, t)
                checked += 1
    assert checked == 752


def test_construct_thm2_pinned_outputs():
    # The greedy complement trimmed from the top.  On the first two these
    # are the bits the earlier seeded search's hitting-set fallback gave,
    # which trimmed the complement of the same greedy incumbent.
    two_factor = GroupSubset.from_indices(Group([3, 4]), [0, 1, 5])  # trivial H
    union = coset_union(Group([12]), 6, [0, 1, 3])  # H = {0, 6}
    assert construct_thm2(two_factor).avoiding_set.bits == 182  # {1, 2, 4, 5, 7}
    assert construct_thm2(union).avoiding_set.bits == 3647  # {0..5, 9, 10, 11}
    cert = construct_thm2(coset_union(Group([2024]), 253, [0, 1, 2]))
    assert cert.size == 1811
    digest = hashlib.sha256(cert.avoiding_set.bits.to_bytes(253, "little")).hexdigest()
    assert digest == "6a5d489022c37e4b2c004bda0c54673013526a4d2f1b9c1f58fed42c3839ac36"


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


def test_construct_thm2_rejects_empty():
    with pytest.raises(EmptySetError):
        construct_thm2(GroupSubset.empty(Group([6])))
