"""Finite abelian groups, bitset subsets, stabilizers, transversals, quotients.

A group is a direct product of cyclic factors Z_m1 x ... x Z_mk.  Elements are
flat indices in [0, m1*...*mk) under the little-endian mixed-radix encoding:
coordinate i has stride m1*...*m_{i-1}, so flat = c0 + m1*(c1 + m2*(c2 + ...)).
The flat index is the canonical identity of an element; coordinate tuples are a
view.  Subsets are arbitrary-precision ints used as bitsets, bit i = element i,
which keeps compare/intersect at machine speed for the sizes the exact solver
can reach.  _translates is the rotation kernel: it translates one subset by a
list of shifts with one masked rotation per axis.  It builds the translate
family in exact (translate_family and exact_N), serves verify_avoids and
exact_N's lift, and closes subgroup_generated by doubling.  The G/H helpers
never build a |G|-bit int one bit at a time: positions go out through
_bit_indices and come in through one digit string (project_subset,
preimage_subset, _lift), so each is one linear pass.

_sums adds one element to each element of a list, with one list
comprehension per axis and no checks.  Quotient reads the class minima off
H's bitset axis by axis (_class_minima) and fills its projection from _sums,
one call per member of H or per class, whichever is fewer; with H trivial
or G cyclic the class of a is a mod g/h and no sums are taken.  The avoider
search builds its class masks with one _sums call per pattern class.
from_indices sets its bits in a bytearray bitmap converted once.

Still per element: GroupSubset.translate calls add once per element, and
stabilizer translates through it (its generator check is one kernel
rotation).  Those two carry the large-order benchmark workload, whose
instance generator keeps a key per op drawn, so a faster program there
reads a higher peak RSS; they move to the kernel once that generator's
memory is bounded.  stabilizer already works on the smaller of S and G - S
and stops as soon as its running mask is proven to be the stabilizer, so a
coset union with a large stabilizer costs a few translates, not |S|.

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
    "quotient_view",
    "project_subset",
    "preimage_subset",
    "subgroup_generated",
]

# Every subset is a bitset of |G| bits, so larger groups are refused up front.
MAX_GROUP_ORDER = 2**24


class Group:
    """Direct product of cyclic groups, elements addressed by flat index."""

    __slots__ = ("orders", "size", "strides", "axes")

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
        # (order, stride) of each factor of order > 1; with at most one, flat
        # index and coordinate agree.
        self.axes = tuple((m, st) for m, st in zip(orders, strides) if m > 1)

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
        self.base = base
        self.modulus = modulus
        h = modulus.order
        if h == 1 or len(base.axes) <= 1:
            # H is trivial or, in a cyclic group, the multiples of k = g/h:
            # either way the class of a is a mod k, and no sums are needed.
            self.size = k = base.size // h
            self.representatives = tuple(range(k))
            self.projection = self.representatives * h
            return
        reps, members = _class_minima(base, modulus.bits), _bit_indices(modulus.bits)
        projection = [0] * base.size
        if len(members) <= len(reps):  # one sum per member, across every class
            for e in members:
                for cls, b in enumerate(_sums(base, e, reps)):
                    projection[b] = cls
        else:  # one sum per class, across its members
            for cls, a in enumerate(reps):
                for b in _sums(base, a, members):
                    projection[b] = cls
        self.projection = tuple(projection)
        self.representatives = tuple(reps)
        self.size = len(reps)

    def __repr__(self) -> str:
        return f"Quotient(base={self.base!r}, classes={self.size})"


def _class_minima(group: Group, subgroup_bits: int) -> list[int]:
    """The smallest element of each coset of the subgroup H, ascending.

    Flat indices order elements by their last nontrivial coordinate first.
    Let G_k be the first k axes and H_k = H inside G_k.  H_k's last
    coordinates are the multiples of d, the smallest positive one among them
    (m if none), so the minimum of a coset of H_k has last coordinate t < d,
    and below it the minimum of a coset of H_(k-1): axis by axis, the minima
    are r + t*st over t < d and the minima r of the axes before.
    """
    reps = [0]
    for m, st in group.axes:
        above = (subgroup_bits & ((1 << st * m) - 1)) >> st  # H_k minus last coordinate 0
        d = ((above & -above).bit_length() - 1) // st + 1 if above else m
        reps = [r + t * st for t in range(d) for r in reps]
    return reps


def _sums(group: Group, a: int, elements: Sequence[int]) -> list[int]:
    """[group.add(a, e) for e in elements], with no element checked.

    One list comprehension per nontrivial axis, each adding that axis's
    coordinate of a to the elements' and placing the sum at its stride.
    """
    axes = group.axes
    if len(axes) <= 1:
        g = group.size
        return [(a + e) % g for e in elements]
    m = axes[0][0]  # the first nontrivial axis has stride 1
    c = a % m
    out = [(c + e) % m for e in elements]
    for m, st in axes[1:]:
        c = a // st % m
        out = [o + (c + e // st) % m * st for o, e in zip(out, elements)]
    return out


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
    axes = grp.axes
    if len(axes) <= 1:
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
        """The set of the given flat indices, built in a bytearray bitmap converted once.

        ORing each bit into the int would copy all |G| bits per element.
        """
        indices = list(indices)
        if indices and not 0 <= min(indices) <= max(indices) < group.size:
            for a in indices:
                group.check_element(a)
        bitmap = bytearray((group.size + 7) >> 3)
        for a in indices:
            bitmap[a >> 3] |= 1 << (a & 7)
        return cls(group, int.from_bytes(bitmap, "little"))

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
    neg = grp.neg
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
            if next(_translates(subset, [h])) != bits:
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


def project_subset(subset: GroupSubset, view: Quotient) -> int:
    """Class-index mask of a union of modulus-cosets: bit i set iff class i is in it."""
    if subset.group != view.base:
        raise DomainMismatchError("subset does not live in the quotient's base group")
    digits = bytearray(b"0" * view.size)  # digits[cls] is class cls's bit
    for a in _bit_indices(subset.bits):
        digits[view.projection[a]] = 49  # "1"
    classes = int(digits[::-1], 2)
    if preimage_subset(classes, view).bits != subset.bits:
        raise NotCosetUnionError("subset is not a union of cosets of the modulus")
    return classes


def preimage_subset(classes: int, view: Quotient) -> GroupSubset:
    """Union of the base-group cosets whose class indices are set in the mask."""
    if not 0 <= classes < (1 << view.size):
        raise DomainMismatchError("class mask has bits outside the quotient's class indices")
    chosen = format(classes, f"0{view.size}b")[::-1]  # chosen[cls] is class cls's bit
    # Element a's digit is its class's digit: one string, converted once.
    return GroupSubset(view.base, int("".join([chosen[c] for c in reversed(view.projection)]), 2))


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
    """Smallest subgroup containing the generators, by kernel doubling.

    With Y the subgroup so far, each generator t is taken by repeating
    bits |= (c*t + bits) for c = 1, 2, 4, ..., so bits = Y + {0..2c-1}*t,
    until a rotation adds nothing.  Then bits = Y + {0..c-1}*t is closed
    under c*t, so it holds Y + c*t and bits + t lies in bits: bits is
    Y + <t>.  A rotation that adds something doubles bits or completes
    Y + <t>, so t costs at most ceil(log2 |<t>|) + 1 rotations.
    """
    gens = [group.check_element(t) for t in generators]
    bits = 1  # the zero element
    for t in gens:
        while True:
            moved = next(_translates(GroupSubset(group, bits), [t]))
            if moved | bits == bits:
                break
            bits |= moved
            t = group.add(t, t)
    return Subgroup(group, bits)
