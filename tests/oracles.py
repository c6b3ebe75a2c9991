"""Reference oracles and shared helpers for the test suite; nothing in shiftfree calls them.

naive_exact is the independent oracle for exact N: it enumerates all 2^|G|
subsets and checks all |G| translates with plain set arithmetic, no
transversal, no bitsets, no duality.  It exists to disagree with exact_N if
either is wrong.

validate_subgroup is the exhaustive closure check for a Subgroup: the
constructors in shiftfree only ever build closed sets, and this is what
tests hold them to.

closure_reference and all_subgroups build subgroups one element at a time,
with no kernel rotation, so tests can enumerate every subgroup of a small
group independently of subgroup_generated.

check_value_semantics holds the library's immutable value types (GroupSubset,
Subgroup, BoundsReport, Certificate, ExactResult) to the behaviour they had as
frozen dataclasses: no assignment, equality and hash by class and value, a
fixed repr, and pickle and deepcopy round trips.

proposition_check and proposition_margin_grid check the real-valued
inequality behind thm2_lower >= lemma_lower numerically, pointwise and on
dense grids; it has no symbolic proof here.  For g >= h >= 1 and s >= 1:

  (h-1)/h*g + (g/h)**(1-h/s) >= h**(1/s) * g**(1-1/s)
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from shiftfree.errors import BudgetExceededError, EmptySetError, InvalidGroupError
from shiftfree.groups import Group, GroupSubset, Subgroup, subgroup_generated

NAIVE_MAX_ORDER = 16

# Slack allowed below zero by proposition_check, and the rows of g values one
# vectorized step of proposition_margin_grid evaluates (this bounds its memory).
PROPOSITION_TOLERANCE = 1e-9
MARGIN_GRID_CHUNK = 256


def presentations(n: int) -> list[list[int]]:
    """Every ordered tuple of cyclic factors >= 2 with product n; [1] for n = 1."""
    if n == 1:
        return [[1]]
    out = [[n]]
    for f in range(2, n):
        if n % f == 0:
            out += [[f] + rest for rest in presentations(n // f)]
    return out


def closure_reference(grp: Group, gens: list[int]) -> int:
    """subgroup_generated's bits by closure iteration, one element at a time."""
    bits, frontier = 1, [0]
    while frontier:
        a = frontier.pop()
        for t in gens:
            b = grp.add(a, t)
            if not (bits >> b) & 1:
                bits |= 1 << b
                frontier.append(b)
    return bits


def all_subgroups(grp: Group) -> list[Subgroup]:
    """Every subgroup, by closing each one found under one more element."""
    found = {1}
    frontier = [[]]  # generators of each subgroup found
    while frontier:
        gens = frontier.pop()
        for a in grp.elements():
            bits = closure_reference(grp, gens + [a])
            if bits not in found:
                found.add(bits)
                frontier.append(gens + [a])
    return [Subgroup(grp, bits) for bits in sorted(found)]


def coset_union(group: Group, generator: int, reps: list[int]) -> GroupSubset:
    coset = GroupSubset(group, subgroup_generated(group, [generator]).bits)
    bits = 0
    for r in reps:
        bits |= coset.translate(r).bits
    return GroupSubset(group, bits)


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


def validate_subgroup(sub: Subgroup) -> Subgroup:
    """Exhaustive closure check; raises InvalidGroupError on failure."""
    grp = sub.group
    members = sub.indices()
    for a in members:
        if grp.neg(a) not in sub:
            raise InvalidGroupError(f"subgroup not closed under negation at {a}")
        for b in members:
            if grp.add(a, b) not in sub:
                raise InvalidGroupError(f"subgroup not closed under addition at {a}+{b}")
    return sub


def check_value_semantics(value, twin, text: str) -> None:
    """value is immutable, equals and hashes as twin (built apart), reprs as text, round-trips."""
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == text
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    assert copy.deepcopy(value) == value and copy.copy(value) == value


def proposition_check(g: float, h: float, s: float) -> bool:
    """Check (h-1)/h*g + (g/h)**(1-h/s) >= h**(1/s)*g**(1-1/s) - PROPOSITION_TOLERANCE.

    Real-valued inputs with g >= h >= 1 and s >= 1; this is the floating-point
    margin test, not a proof.
    """
    if h < 1 or s < 1:
        raise ValueError(f"need h >= 1 and s >= 1, got h={h}, s={s}")
    if g < h:
        raise ValueError(f"need g >= h, got g={g}, h={h}")
    return _margin(float(g), float(h), float(s)) >= -PROPOSITION_TOLERANCE


def proposition_margin_grid(h: int, g_max: int, s_values: np.ndarray) -> float:
    """Minimum margin of the thm2-vs-lemma real inequality over a dense grid.

    Evaluates every g in {h, 2h, ..., <= g_max} against every s in s_values
    for one integer h, vectorized and chunked to bound memory.  Returns the
    minimum of LHS - RHS over the grid; the inequality holds at tolerance tol
    iff the result is >= -tol.
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    s = np.asarray(s_values, dtype=np.float64)
    if s.size == 0 or float(s.min()) < 1.0:
        raise ValueError("s_values must be nonempty with every entry >= 1")
    g_all = np.arange(h, g_max + 1, h, dtype=np.float64)
    worst = np.inf
    for start in range(0, g_all.size, MARGIN_GRID_CHUNK):
        g = g_all[start : start + MARGIN_GRID_CHUNK][:, None]
        margin = _margin(g, float(h), s[None, :])
        worst = min(worst, float(margin.min()))
    return worst


def _margin(g, h, s):
    return (h - 1.0) / h * g + (g / h) ** (1.0 - h / s) - h ** (1.0 / s) * g ** (1.0 - 1.0 / s)
