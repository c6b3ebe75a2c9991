"""Finite abelian group arithmetic for the benchmark, independent of shiftfree.

The benchmark generates instances and checks the program's answers with this
module only, so a defect in the package's own group code cannot make a wrong
answer look right.  Elements use the package's documented encoding (flat
little-endian mixed radix: coordinate i has stride m0*...*m_{i-1}); subsets
are Python ints used as bitsets.  Translation is a per-axis masked rotation of
the bitset rather than an element-by-element loop.
"""

from __future__ import annotations

from math import gcd


class Abelian:
    """Z_m0 x ... x Z_mk-1 with flat indices and bitset translation."""

    def __init__(self, orders):
        self.orders = tuple(int(m) for m in orders)
        strides, size = [], 1
        for m in self.orders:
            strides.append(size)
            size *= m
        self.strides = tuple(strides)
        self.size = size
        self.full = (1 << size) - 1
        self._masks = {}

    def spec(self) -> str:
        return "x".join(f"Z{m}" for m in self.orders)

    def coords(self, a: int) -> tuple[int, ...]:
        out = []
        for m in self.orders:
            a, c = divmod(a, m)
            out.append(c)
        return tuple(out)

    def flat(self, coords) -> int:
        return sum(c * st for c, st in zip(coords, self.strides))

    def add(self, a: int, b: int) -> int:
        out = 0
        for m, st in zip(self.orders, self.strides):
            out += (((a // st) + (b // st)) % m) * st
        return out

    def neg(self, a: int) -> int:
        return self.flat([(-c) % m for c, m in zip(self.coords(a), self.orders)])

    def element_order(self, a: int) -> int:
        out = 1
        for c, m in zip(self.coords(a), self.orders):
            k = m // gcd(c, m)
            out = out * k // gcd(out, k)
        return out

    def cyclic_subgroup(self, a: int) -> list[int]:
        out, x = [0], self.add(0, a)
        while x != 0:
            out.append(x)
            x = self.add(x, a)
        return out

    def generated(self, gens) -> list[int]:
        """Closure of the generators under addition, sorted."""
        seen, frontier = {0}, [0]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = self.add(a, g)
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return sorted(seen)

    def _axis_mask(self, axis: int, c: int) -> int:
        """Bits of elements whose coordinate on axis is below m - c."""
        key = (axis, c)
        mask = self._masks.get(key)
        if mask is None:
            m, st = self.orders[axis], self.strides[axis]
            period = m * st
            repunit = self.full // ((1 << period) - 1)
            mask = repunit * ((1 << ((m - c) * st)) - 1)
            self._masks[key] = mask
        return mask

    def translate_bits(self, bits: int, t: int) -> int:
        """Bitset of t + S for the bitset S."""
        for axis, c in enumerate(self.coords(t)):
            if c == 0:
                continue
            m, st = self.orders[axis], self.strides[axis]
            low = self._axis_mask(axis, c)
            bits = ((bits & low) << (c * st)) | ((bits & ~low) >> ((m - c) * st))
        return bits

    def contained_translate(self, pattern_bits: int, candidate_bits: int) -> int | None:
        """Least t with t + S inside the candidate, over every t in G, else None."""
        outside = self.full ^ candidate_bits
        for t in range(self.size):
            if self.translate_bits(pattern_bits, t) & outside == 0:
                return t
        return None

    def stabilizer_order(self, elements: list[int]) -> int:
        """|{t : t + S = S}| for the nonempty S given by its elements.

        Every such t lies in S - x0.  A candidate is first screened on a few
        elements of S, then confirmed by comparing whole bitsets.
        """
        members = set(elements)
        bits = to_bits(elements)
        neg_x0 = self.neg(elements[0])
        probe = elements[:8]
        order = 0
        for y in elements:
            t = self.add(y, neg_x0)
            if all(self.add(x, t) in members for x in probe) and self.translate_bits(bits, t) == bits:
                order += 1
        return order


def to_bits(elements) -> int:
    bits = 0
    for a in elements:
        bits |= 1 << a
    return bits


def from_bits(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out
