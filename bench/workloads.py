"""Seeded instance streams for the three benchmark workloads.

Each workload is an endless, deterministic stream of operations drawn from
``random.Random`` seeded by the workload name and the run's seed.  An
operation is one ``shiftfree`` command line; the program sees only its argv.

Op cost is heavy-tailed and set mostly by a few structural parameters (group
order, pattern size, method), so the streams are stratified: every workload
cycles through a fixed list of cells, each a choice of those parameters, in a
fresh seeded order per pass, and draws the rest of the instance at random
inside the cell.  Every run then has nearly the same mix, and the seed changes
only the instances.  The stream never repeats a (group, pattern) pair, so no
op can be served from the library's caches by an earlier one, and instances
are never filtered on how long they take or whether they fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import cycle
from math import isqrt

from abelian import Abelian, to_bits

# Fixed exact-solver budget for every exact-cap op: below the 10 s default so
# that one op that runs out of budget costs a bounded share of a run.
EXACT_BUDGET_MS = 2000

# The warm-up call, also the set-up probe; its pair never recurs in a stream.
WARMUP_ARGV = ["bounds", "Z6", "{0,1}", "--format", "json"]
WARMUP_KEY = ((6,), 0b11)
Z2024 = Abelian([2024])


@dataclass
class Op:
    """One command line plus what the checker needs to judge its output."""

    argv: list[str]
    command: str
    orders: tuple[int, ...] = ()
    elements: list[int] = field(default_factory=list)
    method: str = ""


def _cosets_of(grp: Abelian, sub: list[int], reps) -> list[int]:
    out = set()
    for r in reps:
        out.update(grp.add(r, h) for h in sub)
    return sorted(out)


def _coset_reps(grp: Abelian, sub: list[int]) -> list[int]:
    reps, covered = [], set()
    for r in range(grp.size):
        if r not in covered:
            reps.append(r)
            covered.update(grp.add(r, x) for x in sub)
    return reps


def _list_spec(elements) -> str:
    return "{" + ",".join(map(str, elements)) + "}"


def _shape(rng: random.Random, g: int) -> tuple[int, ...]:
    """Cyclic, or (half the time, when g has one) a random two-factor split."""
    small = [a for a in range(2, isqrt(g) + 1) if g % a == 0]
    splits = [(a, g // a) for a in small] + [(g // a, a) for a in small]
    if splits and rng.random() < 0.5:
        return rng.choice(splits)
    return (g,)


def _table_keys() -> set:
    sub = Z2024.cyclic_subgroup(253)
    return {((2024,), to_bits(_cosets_of(Z2024, sub, range(n)))) for n in range(1, 11)}


# -- exact-cap ------------------------------------------------------------------

# (|G|, pattern kind): kind is a size s for a random pattern, or "coset" for a
# union of cosets of a nontrivial cyclic subgroup (three kinds in eight, so
# about a quarter of the ops once prime orders, which have no such subgroup,
# fall back).  Orders stop at 30: from 32 up some instances need more than
# the budget (about 1 op in 170 at 2 s over 16..40), and a run must have no
# failed op.
EXACT_KINDS = (2, 3, 4, 5, 6, "coset", "coset", "coset")
EXACT_CELLS = [(g, kind) for g in range(16, 31) for kind in EXACT_KINDS]


def _exact_cap(rng: random.Random, g: int, kind) -> Op:
    """exact in a cyclic or two-factor group of order g, on a pattern holding 0."""
    grp = Abelian(_shape(rng, g))
    choices = []
    if kind == "coset":
        # k cosets of a cyclic H of order h, with k*h <= 6.
        for h in range(2, 7):
            gens = [a for a in range(g) if grp.element_order(a) == h]
            if gens:
                choices += [(h, k, gens) for k in range(1, 6 // h + 1)]
    if choices:
        h, k, gens = rng.choice(choices)
        sub = grp.cyclic_subgroup(rng.choice(gens))
        reps = rng.sample(_coset_reps(grp, sub)[1:], k - 1)
        elements = _cosets_of(grp, sub, [0] + reps)
    else:
        s = kind if kind != "coset" else rng.randint(2, 6)
        elements = sorted([0] + rng.sample(range(1, g), s - 1))
    argv = ["exact", grp.spec(), _list_spec(elements), "--format", "json",
            "--budget-ms", str(EXACT_BUDGET_MS)]
    return Op(argv, "exact", grp.orders, elements)


# -- coset-construct ------------------------------------------------------------

# (method, share of the quotient's classes in the pattern as quarters, range
# of |G|).  The four order ranges each hold about a quarter of the criterion-5
# distribution that _coset_construct samples from.
COSET_ORDERS = [(2, 127), (128, 255), (256, 383), (384, 512)]
COSET_CELLS = [(m, q, r) for m in ("thm1", "thm2") for q in range(4) for r in COSET_ORDERS]
# (method, number of order-8 cosets in Z2024, as quarters of 1..60).
Z2024_CELLS = [(m, q) for m in ("thm1", "thm2") for q in range(4)]


def _construct_argv(spec: str, pattern: str, method: str, rng: random.Random) -> list[str]:
    return ["construct", spec, pattern, "--method", method, "--seed", str(rng.randrange(2**32)),
            "--format", "json"]


def _coset_construct(rng: random.Random, method: str, quarter: int, orders_range) -> Op:
    """Coset union with |G| <= 512 in 1-3 factors and |G/H| <= 64."""
    lo, hi = orders_range
    while True:
        orders = tuple(rng.randint(2, 512) for _ in range(rng.randint(1, 3)))
        grp = Abelian(orders)
        if not lo <= grp.size <= hi:
            continue
        sub = grp.generated([rng.randrange(grp.size) for _ in range(rng.randint(0, 2))])
        if grp.size // len(sub) <= 64:
            break
    reps = _coset_reps(grp, sub)
    n = len(reps)
    k = rng.randint(quarter * n // 4 + 1, max(quarter * n // 4 + 1, (quarter + 1) * n // 4))
    elements = _cosets_of(grp, sub, rng.sample(reps, k))
    return Op(_construct_argv(grp.spec(), _list_spec(elements), method, rng),
              "construct", orders, elements, method)


def _z2024_construct(rng: random.Random, method: str, quarter: int) -> Op:
    """Union of 1-60 cosets of the order-8 subgroup of Z2024, as a cosets(...) spec."""
    reps = sorted(rng.sample(range(253), rng.randint(15 * quarter + 1, 15 * quarter + 15)))
    elements = _cosets_of(Z2024, Z2024.cyclic_subgroup(253), reps)
    spec = f"cosets(order=8; reps={','.join(map(str, reps))})"
    return Op(_construct_argv("Z2024", spec, method, rng), "construct", (2024,), elements, method)


# -- large-order ----------------------------------------------------------------

# (log2 |G|, log2 of the lower end of the pattern-size octave).  Patterns stay
# below 1/8 of the group, where a random pattern's stabilizer is trivial and
# its computation stops after a few translates.
BOUNDS_CELLS = [(e, u) for e in range(12, 19) for u in range(2, min(12, e - 3))]
# (pattern size, lower end of the group-order range).
THM2_CELLS = [(s, lo) for s in range(3, 9) for lo in (64, 256, 512)]


def _large_bounds(rng: random.Random, e: int, u: int) -> Op:
    """bounds on a random pattern of 2^u..2^(u+1)-1 elements in a group of order 2^e."""
    grp = Abelian(_shape(rng, 1 << e))
    elements = sorted(rng.sample(range(grp.size), rng.randrange(1 << u, 1 << (u + 1))))
    argv = ["bounds", grp.spec(), _list_spec(elements), "--format", "json"]
    return Op(argv, "bounds", grp.orders, elements)


def _large_thm2(rng: random.Random, s: int, lo: int) -> Op:
    """construct --method thm2 on s random elements of a group of order lo..2*lo-1 (<= 1024)."""
    grp = Abelian(_shape(rng, rng.randint(lo, min(2 * lo - 1, 1024))))
    elements = sorted(rng.sample(range(grp.size), s))
    return Op(_construct_argv(grp.spec(), _list_spec(elements), "thm2", rng),
              "construct", grp.orders, elements, "thm2")


# Each workload: its lanes (generator, cells) and the repeating order in which
# lanes take turns.
WORKLOADS = {
    "exact-cap": ([(_exact_cap, EXACT_CELLS)], [0]),
    "coset-construct": ([(_coset_construct, COSET_CELLS), (_z2024_construct, Z2024_CELLS)],
                        [0, 0, 0, 0, 0, 0, 0, 1]),
    "large-order": ([(_large_bounds, BOUNDS_CELLS), (_large_thm2, THM2_CELLS)], [0, 1]),
}


def _passes(rng: random.Random, cells: list):
    """Cells forever, each pass over all of them in a fresh seeded order."""
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield from order


def stream(workload: str, seed: int):
    """Endless op stream for the workload; coset-construct opens with one `table` call."""
    rng = random.Random(f"{workload}/{seed}")
    lanes, turns = WORKLOADS[workload]
    passes = [_passes(rng, cells) for _, cells in lanes]
    seen = {WARMUP_KEY} | _table_keys()
    if workload == "coset-construct":
        yield Op(["table", "--format", "json"], "table")
    for lane in cycle(turns):
        make = lanes[lane][0]
        cell = next(passes[lane])
        # A cell with few distinct instances (a lone small coset, say) may
        # repeat a pair; draw again in the same cell, within reason.
        for _ in range(100):
            op = make(rng, *cell)
            key = (op.orders, to_bits(op.elements))
            if key not in seen:
                seen.add(key)
                yield op
                break
