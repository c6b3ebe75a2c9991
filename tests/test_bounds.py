"""Bound formulas, exact integer ceilings, the real-inequality margin check.

Frozen values marked "oracle" below were computed beforehand by an
independent big-integer scan (least t with t**s >= target, tested upward
from a float hint), not by the function under test.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import check_value_semantics, coset_union, proposition_check, proposition_margin_grid
from shiftfree.bounds import (
    BoundsReport,
    bounds_report,
    ceil_root_power,
    lemma_lower,
    thm1_lower,
    thm2_lower,
    upper_bound,
)
from shiftfree.errors import DivisibilityError, EmptySetError
from shiftfree.groups import Group, GroupSubset, subgroup_generated


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- closed-form bounds --------------------------------------------------------


def test_thm1_lower_anchors():
    assert thm1_lower(2024, 8) == 1772
    assert thm1_lower(6, 2) == 4
    for g in (1, 5, 24):
        assert thm1_lower(g, 1) == 1


def test_thm1_lower_rejects_bad_input():
    with pytest.raises(DivisibilityError):
        thm1_lower(6, 4)
    with pytest.raises(ValueError):
        thm1_lower(0, 1)


def test_upper_bound_anchors():
    assert upper_bound(2024, 16) == 1898
    assert upper_bound(2024, 24) == 1940
    for g in (1, 7, 30):
        assert upper_bound(g, 1) == 1


def test_upper_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        upper_bound(6, 0)
    with pytest.raises(ValueError):
        upper_bound(6, 7)


# -- exact integer root-power ceilings -------------------------------------


def test_ceil_root_power_anchors():
    # 16**2 = 256 >= 253 > 225 = 15**2
    assert ceil_root_power(253, 8, 16) == 16
    # 41**3 = 68921 >= 253**2 = 64009 > 64000 = 40**3
    assert ceil_root_power(253, 16, 24) == 41
    assert ceil_root_power(253, 1, 2) == 16  # oracle
    assert ceil_root_power(253, 2, 3) == 41  # oracle
    assert ceil_root_power(253, 9, 10) == 146  # oracle


def test_ceil_root_power_exact_powers():
    for k in range(1, 25):
        for root in range(1, 7):
            assert ceil_root_power(k**root, 1, root) == k


def test_ceil_root_power_edge_cases():
    assert ceil_root_power(7, 0, 3) == 1
    assert ceil_root_power(1, 9, 2) == 1
    with pytest.raises(ValueError):
        ceil_root_power(0, 1, 2)
    with pytest.raises(ValueError):
        ceil_root_power(2, -1, 2)
    with pytest.raises(ValueError):
        ceil_root_power(2, 1, 0)


def bisection_root_power(mantissa: int, exponent: int, root: int) -> int:
    """The earlier ceil_root_power: bisection on [1, 2**ceil(bits/root)]."""
    target = mantissa**exponent
    lo, hi = 1, 1 << -(-target.bit_length() // root)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**root >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_ceil_root_power_matches_bisection():
    rng = random.Random(3)
    for _ in range(2000):
        mantissa = rng.choice(
            [rng.randrange(1, 60), rng.randrange(1, 10**9), 2 ** rng.randrange(70)]
        )
        exponent, root = rng.randrange(40), rng.randrange(1, 40)
        assert ceil_root_power(mantissa, exponent, root) == bisection_root_power(
            mantissa, exponent, root
        ), (mantissa, exponent, root)
    # Answers far past float precision start from a coarse estimate.
    for mantissa, exponent, root in ((10, 1000, 1), (10, 1000, 3), (3, 5000, 7)):
        assert ceil_root_power(mantissa, exponent, root) == bisection_root_power(
            mantissa, exponent, root
        )


def test_ceil_root_power_thm2_at_two_to_the_twenty():
    # thm2_lower(2**20, 1, 10**5): the bisection returns 1048431 here after
    # about 21 powers of 2 million bits (2.6 s); the estimate needs two.
    started = time.perf_counter()
    t = ceil_root_power(2**20, 10**5 - 1, 10**5)
    assert time.perf_counter() - started < 1.5
    assert t == 1048431
    target = 2 ** (20 * (10**5 - 1))
    assert t**100000 >= target > (t - 1) ** 100000
    assert thm2_lower(2**20, 1, 10**5) == t


@given(st.integers(1, 10**6), st.integers(0, 8), st.integers(1, 12))
def test_ceil_root_power_defining_property(mantissa, exponent, root):
    t = ceil_root_power(mantissa, exponent, root)
    target = mantissa**exponent
    assert t >= 1
    assert t**root >= target
    if t > 1:
        assert (t - 1) ** root < target


# -- lemma and quotient-construction lower bounds ---------------------------


def test_lemma_lower_anchors():
    assert lemma_lower(8, 2, 4) == 6  # ceil(2**(1/4) * 8**(3/4)) = ceil(sqrt(32))
    assert lemma_lower(6, 1, 2) == 3  # ceil(sqrt(6))
    for g in (1, 4, 9):
        assert lemma_lower(g, g, g) == g
    # oracle values for the order-2024 instances
    assert lemma_lower(2024, 8, 8) == 1014
    assert lemma_lower(2024, 8, 16) == 1433
    assert lemma_lower(2024, 8, 24) == 1608
    assert lemma_lower(2024, 8, 80) == 1889


def test_thm2_lower_anchors():
    assert thm2_lower(2024, 8, 16) == 1787
    assert thm2_lower(2024, 8, 24) == 1812
    assert thm2_lower(2024, 8, 8) == 1772


def test_thm2_lower_root_reduced_by_h():
    # thm2_lower takes the ceiling as the least t with t**k >= q**(k-1),
    # k = s/h; with s = hk that is the least t with t**s >= q**(s-h), the
    # unreduced form kept here as the reference.
    for q in range(1, 40):
        for h in range(1, 9):
            for k in range(1, 12):
                g, s = q * h, h * k
                if s <= g:
                    reference = g - q + ceil_root_power(q, s - h, s)
                    assert thm2_lower(g, h, s) == reference, (g, h, s)


def test_triple_validation():
    with pytest.raises(DivisibilityError):
        lemma_lower(6, 4, 4)  # h does not divide g
    with pytest.raises(DivisibilityError):
        thm2_lower(8, 2, 3)  # h does not divide s
    with pytest.raises(ValueError):
        thm2_lower(4, 1, 5)  # s > g
    with pytest.raises(ValueError):
        lemma_lower(4, 1, 0)


def valid_triples(g_max: int):
    for g in range(1, g_max + 1):
        for h in divisors(g):
            for s in range(h, g + 1, h):
                yield g, h, s


def test_bound_ordering_grid():
    # thm1 <= thm2, lemma <= thm2 <= upper on every valid triple up to 60.
    for g, h, s in valid_triples(60):
        t1, lm, t2 = thm1_lower(g, h), lemma_lower(g, h, s), thm2_lower(g, h, s)
        up = upper_bound(g, s)
        assert t1 <= t2, (g, h, s)
        assert lm <= t2, (g, h, s)
        assert t2 <= up, (g, h, s)


def test_collapse_cases():
    for g in range(1, 40):
        for h in divisors(g):
            assert thm2_lower(g, h, h) == thm1_lower(g, h)  # S a single coset
        for s in range(1, g + 1):
            assert thm2_lower(g, 1, s) == lemma_lower(g, 1, s)  # trivial stabilizer
        assert thm2_lower(g, g, g) == lemma_lower(g, g, g) == g


# -- aggregated report ---------------------------------------------------------


def test_bounds_report_anchor_c2024():
    grp = Group([2024])
    report = bounds_report(coset_union(grp, 253, [0, 1]))
    assert (report.group_size, report.s, report.h) == (2024, 16, 8)
    assert report.thm1_lower == 1772
    assert report.lemma_lower == 1433
    assert report.thm2_lower == 1787
    assert report.upper == 1898
    assert report.best_lower == 1787
    assert report.transversal_size == 253
    assert report.exact_value is None


def test_bounds_report_anchor_z4_coset():
    report = bounds_report(GroupSubset.from_indices(Group([4]), [0, 2]))
    assert report.thm1_lower == report.thm2_lower == report.upper == 3
    assert report.exact_value == 3


def test_bounds_report_anchor_z6_pair():
    report = bounds_report(GroupSubset.from_indices(Group([6]), [0, 1]))
    assert (report.thm1_lower, report.lemma_lower, report.thm2_lower, report.upper) == (
        1, 3, 3, 4,
    )
    assert report.best_lower == 3
    assert report.exact_value is None


def test_bounds_report_is_an_immutable_value():
    check_value_semantics(
        bounds_report(GroupSubset.from_indices(Group([6]), [0, 1])),
        BoundsReport(
            group_size=6, s=2, h=1, thm1_lower=1, lemma_lower=3, thm2_lower=3, upper=4, best_lower=3
        ),
        "BoundsReport(group_size=6, s=2, h=1, thm1_lower=1, lemma_lower=3, thm2_lower=3, upper=4, "
        "best_lower=3)",
    )


def test_bounds_report_best_lower_is_thm2():
    import random

    rng = random.Random(9)
    for orders in ([10], [12], [3, 4], [2, 8], [2, 2, 4]):
        grp = Group(orders)
        for _ in range(20):
            s = GroupSubset(grp, rng.randrange(1, 1 << grp.size))
            report = bounds_report(s)
            assert report.best_lower == report.thm2_lower
            assert report.h <= report.s <= report.group_size
            assert report.s % report.h == 0


def test_bounds_report_translation_invariant():
    grp = Group([12])
    base = GroupSubset.from_indices(grp, [0, 1, 5])
    reference = bounds_report(base)
    for t in grp.elements():
        assert bounds_report(base.translate(t)) == reference


def test_bounds_report_same_for_any_coset_choice():
    # Unions of n distinct cosets of the order-8 subgroup of Z2024 all share
    # the same stabilizer (order 8: the quotient has order 11*23, so no class
    # set of size <= 10 gains extra symmetry) and therefore the same bounds.
    import random

    from shiftfree.groups import quotient_view

    grp = Group([2024])
    sub = subgroup_generated(grp, [253])
    reps = quotient_view(grp, sub).representatives
    rng = random.Random(13)
    for n in (2, 5, 10):
        canonical = bounds_report(coset_union(grp, 253, list(range(n))))
        assert canonical.h == 8
        for _ in range(5):
            report = bounds_report(coset_union(grp, 253, rng.sample(reps, n)))
            assert report == canonical


def test_bounds_report_rejects_empty():
    with pytest.raises(EmptySetError):
        bounds_report(GroupSubset.empty(Group([6])))


# -- real-valued inequality check -------------------------------------------


def test_proposition_check_anchors():
    assert proposition_check(2024, 8, 16)
    assert proposition_check(6, 1, 2)  # h = 1: both sides g**(1-1/s)
    for h in (1, 2, 7):
        assert proposition_check(h, h, 3)  # g = h: both sides h


def test_proposition_check_domain():
    with pytest.raises(ValueError):
        proposition_check(4, 8, 2)  # g < h
    with pytest.raises(ValueError):
        proposition_check(4, 0.5, 2)
    with pytest.raises(ValueError):
        proposition_check(4, 1, 0.5)


def test_margin_grid_agrees_with_scalar_check():
    s_values = np.arange(2, 41) / 2.0  # 1.0, 1.5, ..., 20.0
    for h in (1, 3, 8):
        worst = proposition_margin_grid(h, 200, s_values)
        assert worst >= -1e-9
        # The grid minimum must be attained by some scalar evaluation.
        scalar = min(
            (h - 1.0) / h * g + (g / h) ** (1.0 - h / s) - h ** (1.0 / s) * g ** (1.0 - 1.0 / s)
            for g in range(h, 201, h)
            for s in s_values
        )
        assert worst == pytest.approx(scalar, abs=1e-12)


def test_margin_grid_validation():
    with pytest.raises(ValueError):
        proposition_margin_grid(0, 100, np.array([2.0]))
    with pytest.raises(ValueError):
        proposition_margin_grid(2, 100, np.array([]))
    with pytest.raises(ValueError):
        proposition_margin_grid(2, 100, np.array([0.5]))
