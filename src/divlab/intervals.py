"""Exact interval-set arithmetic over the rationals.

Sets are finite unions of half-open intervals [lo, hi) with Fraction
endpoints, kept sorted, disjoint and non-touching.  The half-open convention
gives every union a unique canonical form; closed versus half-open changes
results only on finite point sets, which carry no measure, so every measure,
integral and inequality computed downstream is unaffected.

No floating point enters here: endpoints, measures and function values are
Fractions throughout.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Tuple, Union

RationalLike = Union[Fraction, int, str]


class InvariantError(RuntimeError):
    """An internal invariant of an exact engine failed (a bug, not bad input)."""


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, 'num/den' strings and decimal strings to an exact Fraction.

    Floats are rejected: they would silently break the exactness contract.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or string")
    return Fraction(value)


def rat_str(q: RationalLike) -> str:
    """Canonical 'num/den' rendering, e.g. '-1/96', '0/1'."""
    q = rat(q)
    return f"{q.numerator}/{q.denominator}"


def real(x) -> float:
    """Round a real to 15 significant digits for deterministic serialization."""
    return float(f"{float(x):.15g}")


def common_denominator(values: Iterable[Fraction]) -> int:
    return lcm(*(v.denominator for v in values))


@dataclass(frozen=True)
class Interval:
    """A nonempty half-open interval [lo, hi)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"empty or inverted interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


def _pair_isect(a, b, i=0, j=0):
    """Intersection of two sorted disjoint (lo, hi) pair lists (ints or
    Fractions), walking a from index i and b from index j."""
    out = []
    la, lb = len(a), len(b)
    while i < la and j < lb:
        alo, ahi = a[i]
        blo, bhi = b[j]
        lo = alo if alo > blo else blo
        hi = ahi if ahi < bhi else bhi
        if lo < hi:
            out.append((lo, hi))
        if ahi <= bhi:
            i += 1
        else:
            j += 1
    return out


def _merge_sorted(pairs):
    """Merge lo-sorted (lo, hi) pairs into a tuple; overlapping or touching pairs fuse."""
    merged = []
    for pair in pairs:
        lo, hi = pair
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append(pair)
    return tuple(merged)


def _superlevel(xs, left, right, level):
    """Fused pairs of {x : f(x) >= level}, f running linearly from left[i] to
    right[i] on [xs[i], xs[i+1]] (ints or Fractions, like _pair_isect; each
    crossing is an exact Fraction, also on ints).

    Each cell gives at most one nonempty piece, in order; a crossing that
    lands on a breakpoint gives none.
    """

    def pieces():
        for x0, x1, y0, y1 in zip(xs, xs[1:], left, right):
            if y0 >= level:
                if y1 >= level:
                    yield x0, x1
                elif y0 > level:
                    yield x0, x0 + Fraction((level - y0) * (x1 - x0), y1 - y0)
            elif y1 > level:
                yield x0 + Fraction((level - y0) * (x1 - x0), y1 - y0), x1

    return _merge_sorted(pieces())


def _grid_union(pairs, scale) -> "IntervalUnion":
    """The union of canonical (lo, hi) pairs given on the grid 1/scale (ints,
    or Fractions where a crossing falls off the grid)."""
    return IntervalUnion(tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in pairs))


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of half-open intervals, held as its pieces'
    (lo, hi) Fraction pairs.

    The pairs must be canonical (a tuple, sorted, disjoint, non-touching,
    lo < hi); build unions with `normalize` unless the input is already known
    canonical.
    """

    pairs: Tuple[Tuple[Fraction, Fraction], ...] = ()

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(Interval(lo, hi) for lo, hi in self.pairs)

    def is_empty(self) -> bool:
        return not self.pairs

    def measure(self) -> Fraction:
        # endpoint numerators summed per denominator: one Fraction per denominator
        sums = defaultdict(int)
        for lo, hi in self.pairs:
            sums[hi.denominator] += hi.numerator
            sums[lo.denominator] -= lo.numerator
        return sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))

    def endpoints(self):
        return [e for pair in self.pairs for e in pair]

    def bounds(self):
        if not self.pairs:
            return None
        return (self.pairs[0][0], self.pairs[-1][1])

    def __contains__(self, x) -> bool:
        x = rat(x)
        i = bisect.bisect_right(self.pairs, x, key=itemgetter(0)) - 1
        return i >= 0 and x < self.pairs[i][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        a, b = self.pairs, other.pairs
        if not a or not b:
            return EMPTY
        # each walk starts at the first piece ending after the other union starts
        i = bisect.bisect_right(a, b[0][0], key=itemgetter(1))
        j = bisect.bisect_right(b, a[0][0], key=itemgetter(1))
        # pieces of an intersection can touch (e.g. [0,2) cut by [0,1),[1,2))
        return IntervalUnion(_merge_sorted(_pair_isect(a, b, i, j)))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return normalize(self.pairs + other.pairs)

    def issubset(self, other: "IntervalUnion") -> bool:
        # exact containment up to the canonical form: A subset B iff A&B == A
        return self.intersect(other) == self

    def affine(self, a: RationalLike, b: RationalLike) -> "IntervalUnion":
        """Image under x -> a*x + b, a != 0.  Orientation flips when a < 0."""
        a, b = rat(a), rat(b)
        if a == 0:
            raise ValueError("affine image requires a != 0")
        if a > 0:
            return IntervalUnion(tuple((a * lo + b, a * hi + b) for lo, hi in self.pairs))
        return IntervalUnion(tuple((a * hi + b, a * lo + b) for lo, hi in reversed(self.pairs)))

    def translate(self, shift: RationalLike) -> "IntervalUnion":
        return self.affine(1, shift)

    def clip(self, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        lo, hi = rat(lo), rat(hi)
        if lo >= hi:
            return IntervalUnion()
        return self.intersect(IntervalUnion(((lo, hi),)))

    def to_json(self):
        return [[rat_str(lo), rat_str(hi)] for lo, hi in self.pairs]

    @staticmethod
    def from_json(data) -> "IntervalUnion":
        return normalize((rat(lo), rat(hi)) for lo, hi in data)


EMPTY = IntervalUnion()


def normalize(pairs: Iterable[Tuple[RationalLike, RationalLike]]) -> IntervalUnion:
    """Canonicalize raw (lo, hi) pairs: sort, merge overlaps and touching, drop empties.

    Raises ValueError on an inverted pair (lo > hi); lo == hi pairs are dropped.
    """
    items = []
    for lo, hi in pairs:
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError(f"inverted interval ({lo}, {hi})")
        if lo < hi:
            items.append((lo, hi))
    items.sort()
    return IntervalUnion(_merge_sorted(items))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function with exact rational breakpoints.

    Linear between consecutive breakpoints, constant outside the span.
    """

    xs: Tuple[Fraction, ...]
    ys: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("breakpoints and values must match and be nonempty")
        for a, b in zip(self.xs, self.xs[1:]):
            if a >= b:
                raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        if x <= self.xs[0]:
            return self.ys[0]
        if x >= self.xs[-1]:
            return self.ys[-1]
        i = bisect.bisect_right(self.xs, x) - 1
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def superlevel(self, level: RationalLike) -> IntervalUnion:
        """Exact {x in [xs[0], xs[-1]] : f(x) >= level} as a canonical union.

        Isolated touch points (f == level at a single x with f < level on both
        sides) are measure zero and omitted, consistent with the half-open
        set convention.
        """
        return IntervalUnion(_superlevel(self.xs, self.ys[:-1], self.ys[1:], rat(level)))


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: value[i] on [xs[i], xs[i+1])."""

    xs: Tuple[Fraction, ...]
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.values) + 1 or len(self.xs) < 2:
            raise ValueError("need n+1 boundaries for n cells")
        for a, b in zip(self.xs, self.xs[1:]):
            if a >= b:
                raise ValueError("cell boundaries must be strictly increasing")

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        if x < self.xs[0] or x >= self.xs[-1]:
            return Fraction(0)
        i = bisect.bisect_right(self.xs, x) - 1
        return self.values[i]

    def superlevel(self, level: RationalLike) -> IntervalUnion:
        return IntervalUnion(_superlevel(self.xs, self.values, self.values, rat(level)))
