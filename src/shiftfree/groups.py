"""Finite abelian groups, bitset subsets, stabilizers, quotients.

A group is a direct product of cyclic factors Z_m1 x ... x Z_mk.  Elements are
flat indices in [0, m1*...*mk) under the little-endian mixed-radix encoding:
coordinate i has stride m1*...*m_{i-1}, so flat = c0 + m1*(c1 + m2*(c2 + ...)).
The flat index is the canonical identity of an element; coordinate tuples are a
view.  Subsets are arbitrary-precision ints used as bitsets, bit i = element i,
which keeps compare/intersect at machine speed for the sizes the exact solver
can reach.  The rotation kernel _rotation builds a group's block masks once
and returns rotate(bits, t), one masked rotation per axis.  Every bitset
translation outside GroupSubset.translate calls rotate directly: the
translate family, verify_avoids, the avoider search's class masks, exact_N's
lift, _close's doubling and stabilizer's generator check.
subgroup_generated is {0} closed under its generators.  from_indices sets
its bits in a bytearray bitmap converted once.

Still per element: _bit_indices, through which every bitset leaves as a
list, makes one str.rfind per set bit on an int with under 1/8 of its bit
length set, and reads a denser one in a single C-level compress over its
digits.  Certified sets hold most of G and large bounds patterns are
sparse, and each pass is several times slower on the other kind, so both
stay.  GroupSubset.translate calls add once per element, and
stabilizer translates through it (its generator check is one kernel
rotation).  Those two carry the large-order benchmark workload, whose
instance generator keeps a key per op drawn, so a faster program there
reads a higher peak RSS; they move to the kernel once that generator's
memory is bounded.  stabilizer already works on the smaller of S and G - S
and stops as soon as its running mask is proven to be the stabilizer, so a
coset union with a large stabilizer costs a few translates, not |S|.

Only a Group has a group law, and every GroupSubset lives in one.  A Quotient
of G by a subgroup H is not a group here: class i is the coset whose minimum
flat index is representatives[i] (ascending), and it keeps no table over G,
only H's pivots (one generator per axis, read off H's bitset) and the
minima as one |G|-bit int; representatives is range(q) when the minima are
0..q-1 (G cyclic or H trivial), a tuple only otherwise.  A set of classes
is a plain int bitmask over class indices, and every map between masks and
G is a _close over the pivots: preimage_subset closes the chosen minima,
project_subset ranks S's minima and checks them through preimage_subset,
and _lift adds every other coset minus its maximum, the maxima being the
minima reflected by a -> g-1-a; _ranks names classes for every caller.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

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

# _bit_indices takes its dense pass from 1/_DENSE_SHARE of the bit length set;
# the two passes crossed over at 1/9 to 1/7 from 512 to 2**18 bits (2-core
# x86 VM, Python 3.11).
_DENSE_SHARE = 8
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class Group:
    """Direct product of cyclic groups, elements addressed by flat index."""

    __slots__ = ("orders", "size", "strides", "axes", "_hash")

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
        # Every lru_cache lookup keyed on a subset hashes its group.  A tuple
        # of ints hashes alike in every process, so a pickled copy stays valid.
        self._hash = hash(orders)

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
        return self._hash

    def __repr__(self) -> str:
        return f"Group(orders={list(self.orders)})"


class Quotient:
    """Coset classes of base/modulus: H's pivots and the set of coset minima.

    Class indices follow transversal order: class i is the coset whose minimum
    flat index is representatives[i], sorted ascending: range(q) when the
    minima are 0..q-1, else a tuple.  minima is the same set as a |G|-bit int.
    pivots holds, for each axis k with H_k != H_(k-1) (H_k being H inside the
    first k axes), the lowest element of H_k outside H_(k-1); the pivots
    generate H.  The quotient carries no group law of its own; sums are
    taken in the base group.

    Flat indices order elements by their last nontrivial coordinate first.
    H_k's last coordinates are the multiples of d, that of its pivot (m if
    it has none), so the minimum of a coset of H_k has last coordinate t < d,
    and below it the minimum of a coset of H_(k-1): axis by axis, the minima
    are r + t*st over t < d and the minima r of the axes before, a box built
    by shifting.
    """

    __slots__ = ("base", "modulus", "pivots", "minima", "representatives", "size")

    def __init__(self, base: Group, modulus: "Subgroup"):
        if modulus.group != base:
            raise DomainMismatchError("modulus subgroup does not live in the base group")
        self.base = base
        self.modulus = modulus
        pivots, minima = [], 1
        for m, st in base.axes:
            above = (modulus.bits & ((1 << st * m) - 1)) >> st  # H_k minus last coordinate 0
            d = m
            if above:
                pivots.append((above & -above).bit_length() - 1 + st)
                d = pivots[-1] // st
            box, copies = minima, 1  # box holds copies of minima, st apart
            while copies < d:
                box |= box << copies * st
                copies <<= 1
            minima = box & ((1 << d * st) - 1)
        self.pivots = tuple(pivots)
        self.minima = minima
        self.size = q = base.size // modulus.order
        dense = minima.bit_length() == q  # H trivial or G cyclic: kept as a range
        self.representatives = range(q) if dense else tuple(_bit_indices(minima))

    def __repr__(self) -> str:
        return f"Quotient(base={self.base!r}, classes={self.size})"


def _bit_indices(bits: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending.

    Two linear passes over the binary digits, chosen by density.  A dense
    int has its reversed digits mapped to bytes 0/1 and compressed against
    range(n), a fixed cost per digit, all in C; a sparse one pays per set
    bit, one str.rfind each, over ten times less on 300 bits of 2**18.
    Peeling the lowest bit off the int instead copies every bit per element.
    """
    n = bits.bit_length()
    if bits.bit_count() * _DENSE_SHARE >= n:
        return list(compress(range(n), bin(bits)[:1:-1].encode().translate(_BIT_VALUES)))
    digits = bin(bits)  # "0b", then the highest bit down to bit 0
    last = len(digits) - 1
    out = []
    j = digits.rfind("1", 2)
    while j >= 0:
        out.append(last - j)
        j = digits.rfind("1", 2, j)
    return out


def _rotation(group: Group) -> Callable[[int, int], int]:
    """rotate(bits, t), the bitset of t + bits; t is not checked.

    Translating by t rotates each axis coordinate c to c + t_i mod m_i, one
    masked rotation per nontrivial axis.  A cyclic group rotates the whole
    bitset.  Otherwise axis i, of order m and stride st, splits the bitset
    into blocks of st*m bits; in each block the elements whose coordinate is
    below m - t_i move up by t_i*st and the rest move down by (m - t_i)*st.
    starts has a 1 at the first bit of every block, so
    (starts << keep) - starts masks the low keep bits of each, built once
    per call here; no |G|-bit int is divided or multiplied.
    """
    g = group.size
    full = (1 << g) - 1
    axes = group.axes
    if len(axes) <= 1:
        return lambda bits, t: ((bits << t) | (bits >> (g - t))) & full
    blocks = []
    for m, st in axes:
        starts, width = 1, st * m
        while width < g:
            starts |= starts << width
            width <<= 1
        blocks.append((m, st, starts & full))

    def rotate(bits: int, t: int) -> int:
        for m, st, starts in blocks:
            c = t // st % m
            if c:
                keep = (m - c) * st
                moved = bits & ((starts << keep) - starts)
                bits = (moved << c * st) | ((bits ^ moved) >> keep)
        return bits

    return rotate


class _Frozen:
    """An immutable value: its fields are __match_args__, stored in __slots__.

    __init__ binds the fields from positional and keyword arguments, and a
    missing, repeated or unknown one raises TypeError.  Assignment and
    deletion raise AttributeError.  Two values are equal, and hash alike,
    when they have the same class and equal fields.  A value pickles and
    copies as a call of its class on its fields, so __init__ and any
    validation in it run again.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs or {*values, *kwargs} != {*names}:
            raise TypeError(
                f"{self.__class__.__qualname__} takes the fields {', '.join(names)}, got "
                f"{len(args)} positional and {', '.join(kwargs) or 'no'} keyword arguments"
            )
        values.update(kwargs)
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._fields())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{self.__class__.__qualname__}({fields})"


class GroupSubset(_Frozen):
    """Subset of a group's elements stored as a bitset over flat indices."""

    __slots__ = __match_args__ = ("group", "bits")

    def __init__(self, group: Group, bits: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def _fields(self) -> tuple:  # spelled out: every lru_cache lookup on a subset hashes it
        return self.group, self.bits

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
        return f"{type(self).__name__}({self.group!r}, {{{', '.join(map(str, self.indices()))}}})"


class Subgroup(GroupSubset):
    """A GroupSubset that is a subgroup: contains 0, closed under add and neg.

    Constructors in this module only ever build closed sets, so only the zero
    element and the order are checked here; the exhaustive closure check is
    validate_subgroup in tests/oracles.py.
    """

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if self.bits & 1 == 0:
            raise InvalidGroupError("subgroup must contain the zero element")
        if self.group.size % self.size != 0:
            raise InvalidGroupError("subgroup order must divide the group order")

    @property
    def order(self) -> int:
        return self.size


@lru_cache(maxsize=512)
def stabilizer(subset: GroupSubset) -> Subgroup:
    """The subgroup H = {h : h + S = S} of translations fixing S.

    S and G - S have the same stabilizer, so the work runs on the smaller of
    the two; S = G has the whole group as stabilizer and needs no translate.
    The mask M is the intersection of the difference sets S - x over x in S
    taken so far (x = 0, which can only come first, takes S itself with no
    translate): h + S = S holds iff h + x lands in S for every x (the two
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
    mask, rotate = full, None
    for x in members:
        shrunk = mask & (subset.translate(neg(x)).bits if x else bits)
        if shrunk == mask:
            continue
        mask = shrunk
        m = mask.bit_count()
        if g % m or s % m:
            continue
        rotate = rotate or _rotation(grp)
        closure = 1
        while closure != mask:
            rest = mask & ~closure
            h = (rest & -rest).bit_length() - 1
            if rotate(bits, h) != bits:
                break
            closure = _close(grp, closure, [h])
        else:
            break
    return Subgroup(grp, mask)


@lru_cache(maxsize=512)
def quotient_view(group: Group, modulus: Subgroup) -> Quotient:
    """Coset classes of group/modulus: pivots, minima and transversal."""
    return Quotient(group, modulus)


def _ranks(view: Quotient, minima: int) -> int:
    """Class-index mask of a set of coset minima: a minimum's class is its rank."""
    if view.minima.bit_length() == view.size:  # the minima are 0..q-1
        return minima
    reps = view.representatives
    digits = bytearray(b"0" * view.size)  # digits[cls] is class cls's bit
    for a in _bit_indices(minima):
        digits[bisect_left(reps, a)] = 49  # "1"
    return int(digits[::-1], 2)


def project_subset(subset: GroupSubset, view: Quotient) -> int:
    """Class-index mask of a union of modulus-cosets: bit i set iff class i is in it."""
    if subset.group != view.base:
        raise DomainMismatchError("subset does not live in the quotient's base group")
    classes = _ranks(view, subset.bits & view.minima)
    if preimage_subset(classes, view).bits != subset.bits:
        raise NotCosetUnionError("subset is not a union of cosets of the modulus")
    return classes


def preimage_subset(classes: int, view: Quotient) -> GroupSubset:
    """Union of the base-group cosets whose class indices are set in the mask.

    The chosen minima, closed under the pivots: a set of coset minima plus H
    is the union of their cosets.
    """
    if not 0 <= classes < (1 << view.size):
        raise DomainMismatchError("class mask has bits outside the quotient's class indices")
    grp = view.base
    if view.minima.bit_length() == view.size:  # the minima are 0..q-1
        chosen = classes
    else:
        reps = view.representatives
        chosen = GroupSubset.from_indices(grp, [reps[c] for c in _bit_indices(classes)]).bits
    return GroupSubset(grp, _close(grp, chosen, view.pivots))


def _lift(view: Quotient, classes: int) -> GroupSubset:
    """Full preimage of the chosen classes plus every other coset minus its max flat index.

    The maxima are the minima reflected by a -> g-1-a: in coordinates that is
    x -> -1-x, which maps H-cosets onto H-cosets and reverses flat order, so
    it reverses the bits of minima.
    """
    g = view.base.size
    maxima = int(format(view.minima, f"0{g}b")[::-1], 2)
    return GroupSubset(view.base, ((1 << g) - 1) ^ maxima | preimage_subset(classes, view).bits)


def _close(group: Group, bits: int, generators: Iterable[int]) -> int:
    """bits + <generators>, by kernel doubling; generators are not checked.

    With Y the set so far, each generator t is taken by repeating
    bits |= (c*t + bits) for c = 1, 2, 4, ..., so bits = Y + {0..2c-1}*t,
    until a rotation adds nothing.  Then bits = Y + {0..c-1}*t is closed
    under c*t, so it holds Y + c*t and bits + t lies in bits: bits is
    Y + <t>.  A rotation that adds something doubles bits or completes
    Y + <t>, so t costs at most ceil(log2 |<t>|) + 1 rotations.
    """
    rotate = _rotation(group)
    for t in generators:
        while True:
            moved = rotate(bits, t)
            if moved | bits == bits:
                break
            bits |= moved
            t = group.add(t, t)
    return bits


def subgroup_generated(group: Group, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators: {0} closed under them."""
    return Subgroup(group, _close(group, 1, [group.check_element(t) for t in generators]))
