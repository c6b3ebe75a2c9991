"""Lower and upper bounds on the forced-translate threshold N.

For a finite abelian group G and a nonempty pattern S with stabilizer H (so S
is a union of H-cosets and h = |H| divides both s = |S| and g = |G|), N is
the least size at which every subset of G of that size contains some
translate of S.  Four bounds are computed, all in exact integer arithmetic:

  thm1_lower   g - g/h + 1        puncture one element of every H-coset
  lemma_lower  ceil(h^(1/s) g^(1-1/s))      probabilistic counting
  thm2_lower   g - g/h + ceil((g/h)^(1-h/s))  avoider lifted from the quotient
  upper        floor((s-1) g / s) + 1       each element lies in s translates

Ceilings of fractional powers are never taken in floating point: the helper
ceil_root_power finds the least integer t with t**root >= mantissa**exponent
from a float estimate that exact big-int powers check and correct, so
lemma_lower is the least t with t**s >= h*g**(s-1).  The thm2 ceiling is the
least t with t**k >= (g/h)**(k-1), k = s/h: since s = hk, that is the least t
with t**s >= (g/h)**(s-h), from powers of h times fewer bits.

The real-valued inequality behind thm2_lower >= lemma_lower (for g >= h >= 1,
s >= 1: (h-1)/h*g + (g/h)**(1-h/s) >= h**(1/s) * g**(1-1/s)) has no symbolic
proof here; tests/oracles.py checks it numerically, pointwise and on dense
grids.
"""

from __future__ import annotations

import math

from .errors import DivisibilityError, EmptySetError
from .groups import GroupSubset, _Frozen, stabilizer

__all__ = [
    "thm1_lower",
    "upper_bound",
    "ceil_root_power",
    "lemma_lower",
    "thm2_lower",
    "BoundsReport",
    "bounds_report",
]


def thm1_lower(g: int, h: int) -> int:
    """Lower bound g - g/h + 1 from excluding one element per stabilizer coset."""
    if g < 1 or h < 1:
        raise ValueError(f"group and stabilizer orders must be >= 1, got g={g}, h={h}")
    if g % h != 0:
        raise DivisibilityError(f"stabilizer order {h} does not divide group order {g}")
    return g - g // h + 1


def upper_bound(g: int, s: int) -> int:
    """Upper bound floor((s-1)*g/s) + 1; every element lies in exactly s translates."""
    if g < 1:
        raise ValueError(f"group order must be >= 1, got {g}")
    if not 1 <= s <= g:
        raise ValueError(f"pattern size must satisfy 1 <= s <= {g}, got {s}")
    return (s - 1) * g // s + 1


def ceil_root_power(mantissa: int, exponent: int, root: int) -> int:
    """Least integer t >= 1 with t**root >= mantissa**exponent.

    Equals ceil(mantissa**(exponent/root)) except at exact powers, where the
    float ceiling can misround.  A float estimate only picks where the
    search starts; every comparison that decides the answer is an exact
    big-int power.
    """
    if mantissa < 1:
        raise ValueError(f"mantissa must be >= 1, got {mantissa}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if root < 1:
        raise ValueError(f"root must be >= 1, got {root}")
    target = mantissa**exponent
    if target <= 1:
        return 1
    # Estimate the top ~40 bits of 2**(log2(target) / root), step out from
    # it by doubling strides until lo**root < target <= hi**root, then
    # bisect.  The estimate is within one of the answer whenever that has at
    # most ~40 bits, so two powers settle it.
    log_t = math.log2(target) / root
    shift = max(0, int(log_t) - 40)
    guess = max(1, int(2.0 ** (log_t - shift)) << shift)
    step = 1 << shift
    if guess**root >= target:
        hi = guess
        lo = max(0, hi - step)
        while lo and lo**root >= target:
            hi, step = lo, step * 2
            lo = max(0, hi - step)
    else:
        lo = guess
        hi = lo + step
        while hi**root < target:
            lo, step = hi, step * 2
            hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**root >= target:
            hi = mid
        else:
            lo = mid
    return hi


def lemma_lower(g: int, h: int, s: int) -> int:
    """Probabilistic lower bound: least t with t**s >= h * g**(s-1)."""
    _check_triple(g, h, s)
    return ceil_root_power(h * g ** (s - 1), 1, s)


def thm2_lower(g: int, h: int, s: int) -> int:
    """Quotient-construction lower bound g - g/h + ceil((g/h)**(1-h/s))."""
    _check_triple(g, h, s)
    k = s // h
    return g - g // h + ceil_root_power(g // h, k - 1, k)


def _check_triple(g: int, h: int, s: int) -> None:
    if g < 1 or h < 1 or s < 1:
        raise ValueError(f"orders must be >= 1, got g={g}, h={h}, s={s}")
    if g % h != 0:
        raise DivisibilityError(f"stabilizer order {h} does not divide group order {g}")
    if s % h != 0:
        raise DivisibilityError(f"stabilizer order {h} does not divide pattern size {s}")
    if s > g:
        raise ValueError(f"pattern size {s} exceeds group order {g}")


class BoundsReport(_Frozen):
    """All four bounds for one (G, S) instance, plus the structural orders."""

    __slots__ = __match_args__ = (
        "group_size", "s", "h", "thm1_lower", "lemma_lower", "thm2_lower", "upper", "best_lower"
    )

    @property
    def transversal_size(self) -> int:
        return self.group_size // self.h

    @property
    def exact_value(self) -> int | None:
        """N itself when the lower and upper bounds meet, else None."""
        return self.best_lower if self.best_lower == self.upper else None


def bounds_report(subset: GroupSubset) -> BoundsReport:
    """Compute every bound for the subset's group, sizes taken from its stabilizer."""
    if subset.bits == 0:
        raise EmptySetError("bounds need a nonempty pattern set")
    g = subset.group.size
    s = subset.size
    h = stabilizer(subset).order
    t1 = thm1_lower(g, h)
    t2 = thm2_lower(g, h, s)
    lm = lemma_lower(g, h, s)
    return BoundsReport(
        group_size=g,
        s=s,
        h=h,
        thm1_lower=t1,
        lemma_lower=lm,
        thm2_lower=t2,
        upper=upper_bound(g, s),
        best_lower=max(t1, lm, t2),
    )
