"""Finite abelian groups, bitset subsets, stabilizers, transversals, quotients.

A group is a direct product of cyclic factors Z_m1 x ... x Z_mk.  Elements are
flat indices in [0, m1*...*mk) under the little-endian mixed-radix encoding:
coordinate i has stride m1*...*m_{i-1}, so flat = c0 + m1*(c1 + m2*(c2 + ...)).
The flat index is the canonical identity of an element; coordinate tuples are a
view.  Subsets are arbitrary-precision ints used as bitsets, bit i = element i,
which keeps compare/intersect at machine speed for the sizes the exact solver
can reach.  _translates is the rotation kernel: it translates one subset by a
list of shifts with one masked rotation per axis.  It builds the translate
family in exact (translate_family and exact_N) and serves verify_avoids;
GroupSubset.translate, Quotient and the avoider search's class masks still
translate element by element through add.  stabilizer translates through
GroupSubset.translate, but works on the smaller of S and G - S and stops as
soon as its running mask is proven to be the stabilizer, so a coset union
with a large stabilizer costs a few translates, not |S|.

Only a Group has a group law, and every GroupSubset lives in one.  A Quotient
of G by a subgroup H is not a group here: it is the projection of G onto
coset-class indices, class i being the coset whose minimum flat index is
representatives[i] (ascending).  A set of classes is a plain int bitmask over
class indices; project_subset and preimage_subset convert between such masks
and unions of H-cosets, and _lift turns one into an avoider of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    DomainMismatchError,
    EmptySetError,
    InvalidGroupError,
    NotCosetUnionError,
)

__all__ = [
    "Group",
    "Quotient",
    "GroupSubset",
    "Subgroup",
    "stabilizer",
    "transversal",
    "quotient_view",
    "project_subset",
    "preimage_subset",
    "subgroup_generated",
]

# Every subset is a bitset of |G| bits, so larger groups are refused up front.
MAX_GROUP_ORDER = 2**24


class Group:
    """Direct product of cyclic groups, elements addressed by flat index."""

    __slots__ = ("orders", "size", "strides")

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(m) for m in orders)
        if not orders:
            raise InvalidGroupError("group needs at least one cyclic factor")
        if any(m < 1 for m in orders):
            raise InvalidGroupError(f"cyclic factor orders must be >= 1, got {orders}")
        strides = []
        size = 1
        for m in orders:
            strides.append(size)
            size *= m
        if size > MAX_GROUP_ORDER:
            raise InvalidGroupError(
                f"group order {size} exceeds the supported maximum {MAX_GROUP_ORDER}"
            )
        self.orders = orders
        self.size = size
        self.strides = tuple(strides)

    # -- element arithmetic over flat indices --------------------------------

    zero = 0

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise DomainMismatchError(f"flat index {a} outside group of order {self.size}")
        return a

    def add(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        if len(self.orders) == 1:
            return (a + b) % self.size
        out = 0
        for m, stride in zip(self.orders, self.strides):
            out += (((a // stride) + (b // stride)) % m) * stride
        return out

    def neg(self, a: int) -> int:
        self.check_element(a)
        if len(self.orders) == 1:
            return (-a) % self.size
        out = 0
        for m, stride in zip(self.orders, self.strides):
            out += ((m - (a // stride) % m) % m) * stride
        return out

    def coords(self, a: int) -> tuple[int, ...]:
        self.check_element(a)
        cs = []
        for m in self.orders:
            a, c = divmod(a, m)
            cs.append(c)
        return tuple(cs)

    def flat_index(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.orders):
            raise DomainMismatchError(
                f"coordinate tuple {tuple(coords)} does not match factors {self.orders}"
            )
        out = 0
        for c, m, stride in zip(coords, self.orders, self.strides):
            if not 0 <= c < m:
                raise DomainMismatchError(f"coordinate {c} outside Z_{m}")
            out += c * stride
        return out

    def elements(self) -> range:
        return range(self.size)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(("Group", self.orders))

    def __repr__(self) -> str:
        return f"Group(orders={list(self.orders)})"


class Quotient:
    """Coset classes of base/modulus: the projection map and its transversal.

    Class indices follow transversal order: class i is the coset whose minimum
    flat index is representatives[i], and representatives are sorted ascending.
    The quotient carries no group law of its own; sums are taken in the base
    group and projected.
    """

    __slots__ = ("base", "modulus", "projection", "representatives", "size")

    def __init__(self, base: Group, modulus: "Subgroup"):
        if modulus.group != base:
            raise DomainMismatchError("modulus subgroup does not live in the base group")
        projection = [-1] * base.size
        reps = []
        hbits = modulus.bits
        for a in range(base.size):
            if projection[a] >= 0:
                continue
            cls = len(reps)
            reps.append(a)
            h = hbits
            while h:
                low = h & -h
                projection[base.add(a, low.bit_length() - 1)] = cls
                h ^= low
        self.base = base
        self.modulus = modulus
        self.projection = tuple(projection)
        self.representatives = tuple(reps)
        self.size = len(reps)

    def project(self, a: int) -> int:
        """Class index of a base-group element."""
        self.base.check_element(a)
        return self.projection[a]

    def class_members(self, cls: int) -> list[int]:
        """Flat indices of the base-group coset with class index cls."""
        if not 0 <= cls < self.size:
            raise DomainMismatchError(f"class index {cls} outside quotient of order {self.size}")
        return [a for a in range(self.base.size) if self.projection[a] == cls]

    def __repr__(self) -> str:
        return f"Quotient(base={self.base!r}, classes={self.size})"


def _bit_indices(bits: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    # One linear pass over the binary digits; peeling the lowest bit off
    # the int instead copies every bit per element.
    digits = bin(bits)  # "0b", then the highest bit down to bit 0
    last = len(digits) - 1
    out = []
    j = digits.rfind("1", 2)
    while j >= 0:
        out.append(last - j)
        j = digits.rfind("1", 2, j)
    return out


def _translates(subset: "GroupSubset", shifts: Iterable[int]) -> Iterator[int]:
    """Bitset of t + subset for each t in shifts, in order; shifts are not checked.

    Translating by t rotates each axis coordinate c to c + t_i mod m_i, one
    masked rotation per nontrivial axis.  A cyclic group rotates the whole
    bitset.  Otherwise axis i, of order m and stride st, splits the bitset
    into blocks of st*m bits; in each block the elements whose coordinate is
    below m - t_i move up by t_i*st and the rest move down by (m - t_i)*st.
    starts has a 1 at the first bit of every block, so
    (starts << keep) - starts masks the low keep bits of each.  It yields
    one translate at a time and keeps no mask per shift, so memory stays at
    a few |G|-bit ints, and no |G|-bit int is divided or multiplied.
    """
    grp = subset.group
    g, bits = grp.size, subset.bits
    full = (1 << g) - 1
    axes = [(m, st) for m, st in zip(grp.orders, grp.strides) if m > 1]
    if len(axes) <= 1:  # flat index and coordinate agree
        for t in shifts:
            yield ((bits << t) | (bits >> (g - t))) & full
        return
    blocks = []
    for m, st in axes:
        starts, width = 1, st * m
        while width < g:
            starts |= starts << width
            width <<= 1
        blocks.append((m, st, starts & full))
    for t in shifts:
        b = bits
        for m, st, starts in blocks:
            c = t // st % m
            if c:
                keep = (m - c) * st
                moved = b & ((starts << keep) - starts)
                b = (moved << c * st) | ((b ^ moved) >> keep)
        yield b


@dataclass(frozen=True)
class GroupSubset:
    """Subset of a group's elements stored as a bitset over flat indices."""

    group: Group
    bits: int

    def __post_init__(self):
        # bit_length, not a comparison with 1 << size: no |G|-bit int per subset.
        if self.bits < 0 or self.bits.bit_length() > self.group.size:
            raise DomainMismatchError("bitset has bits outside the group's index range")

    @classmethod
    def from_indices(cls, group: Group, indices: Iterable[int]) -> "GroupSubset":
        bits = 0
        for a in indices:
            group.check_element(a)
            bits |= 1 << a
        return cls(group, bits)

    @classmethod
    def empty(cls, group: Group) -> "GroupSubset":
        return cls(group, 0)

    @classmethod
    def full(cls, group: Group) -> "GroupSubset":
        return cls(group, (1 << group.size) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.group.size and (self.bits >> a) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def indices(self) -> list[int]:
        return _bit_indices(self.bits)

    def translate(self, g: int) -> "GroupSubset":
        """The set g + S."""
        grp = self.group
        grp.check_element(g)
        add = grp.add
        out = 0
        b = self.bits
        while b:
            low = b & -b
            out |= 1 << add(g, low.bit_length() - 1)
            b ^= low
        return GroupSubset(grp, out)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, self.bits ^ ((1 << self.group.size) - 1))

    def union(self, other: "GroupSubset") -> "GroupSubset":
        if other.group != self.group:
            raise DomainMismatchError("subsets live in different groups")
        return GroupSubset(self.group, self.bits | other.bits)

    def is_subset_of(self, other: "GroupSubset") -> bool:
        if other.group != self.group:
            raise DomainMismatchError("subsets live in different groups")
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"GroupSubset({self.group!r}, {{{', '.join(map(str, self.indices()))}}})"


@dataclass(frozen=True, repr=False)
class Subgroup(GroupSubset):
    """A GroupSubset that is a subgroup: contains 0, closed under add and neg.

    Constructors in this module only ever build closed sets; validate() runs
    the exhaustive closure check and is what tests call.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.bits & 1 == 0:
            raise InvalidGroupError("subgroup must contain the zero element")
        if self.group.size % self.size != 0:
            raise InvalidGroupError("subgroup order must divide the group order")

    @property
    def order(self) -> int:
        return self.size

    def validate(self) -> "Subgroup":
        """Exhaustive closure check; raises InvalidGroupError on failure."""
        grp = self.group
        members = self.indices()
        for a in members:
            if grp.neg(a) not in self:
                raise InvalidGroupError(f"subgroup not closed under negation at {a}")
            for b in members:
                if grp.add(a, b) not in self:
                    raise InvalidGroupError(f"subgroup not closed under addition at {a}+{b}")
        return self

    def __repr__(self) -> str:
        return f"Subgroup({self.group!r}, {{{', '.join(map(str, self.indices()))}}})"


@lru_cache(maxsize=512)
def stabilizer(subset: GroupSubset) -> Subgroup:
    """The subgroup H = {h : h + S = S} of translations fixing S.

    S and G - S have the same stabilizer, so the work runs on the smaller of
    the two; S = G has the whole group as stabilizer and needs no translate.
    The mask M is the intersection of the difference sets S - x over x in S
    taken so far: h + S = S holds iff h + x lands in S for every x (the two
    sides have equal size, so containment suffices), so M always contains H
    and equals it once every x is taken.  The loop exits early once M is
    proven to be H: M's order divides |G| and |S|, and generators taken
    greedily from M, each the lowest element outside the closure of those
    before it, all fix S and generate M.  Then M is a subgroup inside H, so
    M = H.  A trivial M is the case with no generators.  The proof is
    retried only when M has just shrunk, since an unchanged M gives the
    same answer.
    """
    if subset.bits == 0:
        raise EmptySetError("stabilizer of the empty set is not defined here")
    grp = subset.group
    g = grp.size
    full = (1 << g) - 1
    bits, s = subset.bits, subset.size
    if 2 * s > g:
        if s == g:
            return Subgroup(grp, full)
        bits, s = bits ^ full, g - s
        subset = GroupSubset(grp, bits)
    members = _bit_indices(bits)
    neg, add = grp.neg, grp.add
    mask = full
    for x in members:
        shrunk = mask & subset.translate(neg(x)).bits
        if shrunk == mask:
            continue
        mask = shrunk
        m = mask.bit_count()
        if g % m or s % m:
            continue
        gens: list[int] = []
        closure = 1
        while closure != mask:
            rest = mask & ~closure
            h = (rest & -rest).bit_length() - 1
            if not all((bits >> add(y, h)) & 1 for y in members):
                break
            gens.append(h)
            closure = subgroup_generated(grp, gens).bits
        else:
            break
    return Subgroup(grp, mask)


@lru_cache(maxsize=512)
def quotient_view(group: Group, modulus: Subgroup) -> Quotient:
    """Coset classes of group/modulus with projection and transversal maps."""
    return Quotient(group, modulus)


def transversal(group: Group, modulus: Subgroup) -> tuple[int, ...]:
    """One representative per modulus-coset: the minimum flat index, ascending."""
    return quotient_view(group, modulus).representatives


def project_subset(subset: GroupSubset, view: Quotient) -> int:
    """Class-index mask of a union of modulus-cosets: bit i set iff class i is in it."""
    if subset.group != view.base:
        raise DomainMismatchError("subset does not live in the quotient's base group")
    classes = 0
    b = subset.bits
    while b:
        low = b & -b
        classes |= 1 << view.projection[low.bit_length() - 1]
        b ^= low
    if preimage_subset(classes, view).bits != subset.bits:
        raise NotCosetUnionError("subset is not a union of cosets of the modulus")
    return classes


def preimage_subset(classes: int, view: Quotient) -> GroupSubset:
    """Union of the base-group cosets whose class indices are set in the mask."""
    if not 0 <= classes < (1 << view.size):
        raise DomainMismatchError("class mask has bits outside the quotient's class indices")
    bits = 0
    for a, cls in enumerate(view.projection):
        if (classes >> cls) & 1:
            bits |= 1 << a
    return GroupSubset(view.base, bits)


def _lift(view: Quotient, classes: int) -> GroupSubset:
    """Full preimage of the chosen classes plus every other coset minus its max flat index."""
    g = view.base.size
    chosen = format(classes, f"0{view.size}b")[::-1]  # chosen[cls] is class cls's bit
    # One ASCII digit per element, converted once: clearing the maxima in a
    # g-bit int would copy all g bits per coset.
    top = {cls: a for a, cls in enumerate(view.projection)}  # ascending a: the max wins
    digits = bytearray(b"1" * g)  # digits[a] is bit a
    for cls, a in top.items():
        if chosen[cls] == "0":
            digits[a] = 48  # "0"
    return GroupSubset(view.base, int(digits[::-1], 2))


def subgroup_generated(group: Group, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators, by closure iteration."""
    bits = 1  # the zero element
    frontier = [0]
    gens = []
    for g in generators:
        group.check_element(g)
        gens.append(g)
    add = group.add
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = add(a, g)
            if not (bits >> b) & 1:
                bits |= 1 << b
                frontier.append(b)
    return Subgroup(group, bits)
