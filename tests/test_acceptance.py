"""Acceptance gate: the eight shipped guarantees, each timed and reported.

Every test prints exactly one line "ACCEPTANCE <k> <label>: PASS|FAIL" (run
pytest with -s or read captured output) and fails if its wall-clock budget
is exceeded; values are asserted at zero tolerance unless stated otherwise.
"""

import contextlib
import io
import random
import time

import numpy as np

from oracles import naive_exact, proposition_margin_grid
from shiftfree.bounds import bounds_report, ceil_root_power
from shiftfree.cli import main
from shiftfree.construct import construct_thm1, construct_thm2
from shiftfree.exact import exact_N
from shiftfree.groups import (
    Group,
    GroupSubset,
    quotient_view,
    stabilizer,
    subgroup_generated,
)


@contextlib.contextmanager
def criterion(number: int, label: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_s:
        print(f"ACCEPTANCE {number} {label}: FAIL ({elapsed:.2f}s over the {budget_s:.0f}s budget)")
        raise AssertionError(f"{label}: {elapsed:.2f}s exceeded the {budget_s:.0f}s budget")
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s, budget {budget_s:.0f}s)")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# -- shared instance enumeration ---------------------------------------------


def factorizations(n: int) -> list[list[int]]:
    """All multisets of factors >= 2 with the given product, ascending."""
    if n == 1:
        return [[1]]
    out: list[list[int]] = []

    def descend(remaining: int, smallest: int, acc: list[int]):
        if remaining == 1:
            out.append(list(acc))
            return
        for f in range(smallest, remaining + 1):
            if remaining % f == 0:
                acc.append(f)
                descend(remaining // f, f, acc)
                acc.pop()

    descend(n, 2, [])
    return out


def translation_class_reps(group: Group) -> list[int]:
    """Bitsets of the minimum representative of each nonempty translation orbit."""
    g = group.size
    seen = set()
    reps = []
    for bits in range(1, 1 << g):
        if bits in seen:
            continue
        reps.append(bits)
        s = GroupSubset(group, bits)
        for t in range(1, g):
            seen.add(s.translate(t).bits)
    return reps


def small_instances(max_order: int):
    for n in range(1, max_order + 1):
        for orders in factorizations(n):
            grp = Group(orders)
            for bits in translation_class_reps(grp):
                yield GroupSubset(grp, bits)


EXPECTED_TABLE = """\
n=1: =1772
n=2: [1787, 1898]
n=3: [1812, 1940]
n=4: [1835, 1961]
n=5: [1855, 1974]
n=6: [1872, 1982]
n=7: [1886, 1988]
n=8: [1898, 1993]
n=9: [1908, 1996]
n=10: [1917, 1999]
"""


def test_criterion_1_table_reproduction():
    with criterion(1, "order-2024 table rows", 1.0):
        code, out = run_cli(["table"])
        assert code == 0
        assert out == EXPECTED_TABLE


def test_criterion_2_coset_closed_form():
    with criterion(2, "closed form on every cyclic coset", 10.0):
        checked = 0
        for n in range(1, 17):
            grp = Group([n])
            for d in range(1, n + 1):
                if n % d:
                    continue
                sub = subgroup_generated(grp, [(n // d) % n])  # the order-d subgroup
                assert sub.order == d
                coset = GroupSubset(grp, sub.bits)
                for rep in quotient_view(grp, sub).representatives:
                    result = exact_N(coset.translate(rep))
                    assert result.n_value == (d - 1) * n // d + 1
                    checked += 1
        # One solve per (order, subgroup, coset): sum over n <= 16 of sigma(n).
        assert checked == 220


def test_criterion_3_solver_matches_naive_oracle():
    with criterion(3, "hitting-set solver equals brute force", 60.0):
        checked = 0
        for pattern in small_instances(10):
            assert exact_N(pattern).n_value == naive_exact(pattern), pattern
            checked += 1
        assert checked > 400


def test_criterion_4_sandwich_property():
    with criterion(4, "bound ordering around exact N", 60.0):
        for pattern in small_instances(10):
            report = bounds_report(pattern)
            n = exact_N(pattern).n_value
            assert report.thm1_lower <= report.thm2_lower, pattern
            assert report.lemma_lower <= report.thm2_lower, pattern
            assert report.thm2_lower <= n <= report.upper, pattern


def random_coset_union_instances(count: int, seed: int):
    """Random (G, S) with |G| <= 512 and quotient by the stabilizer <= 64."""
    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        orders = [rng.randint(2, 512) for _ in range(rng.randint(1, 3))]
        size = 1
        for m in orders:
            size *= m
        if size > 512:
            continue
        grp = Group(orders)
        gens = [rng.randrange(grp.size) for _ in range(rng.randint(0, 2))]
        sub = subgroup_generated(grp, gens)
        if grp.size // sub.order > 64:
            continue
        view = quotient_view(grp, sub)
        coset = GroupSubset(grp, sub.bits)
        bits = 0
        for rep in rng.sample(view.representatives, rng.randint(1, view.size)):
            bits |= coset.translate(rep).bits
        instances.append(GroupSubset(grp, bits))
    return instances


def test_criterion_5_construction_certificates():
    with criterion(5, "certified constructions at advertised sizes", 60.0):
        for pattern in random_coset_union_instances(200, seed=20240819):
            grp = pattern.group
            report = bounds_report(pattern)
            assert grp.size <= 512
            assert report.transversal_size <= 64

            punctured = construct_thm1(pattern)
            assert punctured.verified
            assert punctured.size == grp.size - grp.size // report.h

            lifted = construct_thm2(pattern)
            assert lifted.verified
            assert lifted.size == report.thm2_lower - 1


def test_criterion_6_constructions_at_order_2024():
    expected_sizes = [1786, 1811, 1834, 1854, 1871, 1885, 1897, 1907, 1916]
    with criterion(6, "order-2024 constructions", 120.0):
        grp = Group([2024])
        sub = subgroup_generated(grp, [253])
        coset = GroupSubset(grp, sub.bits)
        for n in range(2, 11):
            bits = 0
            for rep in range(n):
                bits |= coset.translate(rep).bits
            pattern = GroupSubset(grp, bits)
            assert stabilizer(pattern).order == 8
            cert = construct_thm2(pattern)
            assert cert.verified
            assert cert.size == expected_sizes[n - 2]


def test_criterion_7_real_inequality_grid():
    with criterion(7, "real-inequality margin grid", 30.0):
        s_values = np.arange(2, 2001, dtype=np.float64) / 2.0  # 1.0, 1.5, ..., 1000.0
        worst = min(
            proposition_margin_grid(h, 10_000, s_values) for h in range(1, 65)
        )
        assert worst >= -1e-9, f"worst margin {worst}"


def test_criterion_8_integer_root_spot_checks():
    with criterion(8, "exact integer root ceilings", 5.0):
        t = ceil_root_power(253, 8, 16)
        assert t == 16
        assert t**16 >= 253**8 > (t - 1) ** 16

        t = ceil_root_power(253, 16, 24)
        assert t == 41
        assert t**24 >= 253**16 > (t - 1) ** 24
