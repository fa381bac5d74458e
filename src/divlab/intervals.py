"""Exact interval-set arithmetic over the rationals.

Sets are finite unions of half-open intervals [lo, hi), kept sorted, disjoint
and non-touching, with integer endpoints over one denominator in lowest terms.
The half-open convention gives every union a unique canonical form; closed
versus half-open changes results only on finite point sets, which carry no
measure, so every measure, integral and inequality computed downstream is
unaffected.

No floating point enters here: endpoints, and the breakpoints and values of
the piecewise-linear and step functions, are integers over one denominator;
measures, function values and the `.pairs`, `.xs`, `.ys` and `.values` views
are Fractions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, lt
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
    """{x : f(x) >= level} as (pairs, m): canonical int pairs on the grid
    1/m of xs's unit, f running linearly from left[i] to right[i] on
    [xs[i], xs[i+1]] (all ints; a step function has left == right).

    One walk over the cells opens or closes a piece only where f changes
    side of the level.  A crossing x0 + n/d stays an int triple until the
    walk ends; m is the lcm of the d in lowest terms (one gcd each), so every
    endpoint is exact on the refined grid.  A crossing that lands on a
    breakpoint opens or closes nothing there, so isolated touch points are
    omitted; a step function has no crossing and m = 1.
    """
    ends, start = [], None  # start: the open piece's left end
    for x0, x1, y0, y1 in zip(xs, xs[1:], left, right):
        if y0 >= level:
            if start is None and (y0 > level or y1 >= level):
                start = x0
            if y1 < level and start is not None:
                ends += start, x0 if y0 == level else (x0, (y0 - level) * (x1 - x0), y0 - y1)
                start = None
        else:
            if start is not None:
                ends += start, x0
                start = None
            if y1 > level:
                start = x0, (level - y0) * (x1 - x0), y1 - y0
    if start is not None:
        ends += start, xs[-1]
    dens = {e[2] // gcd(e[1], e[2]) for e in ends if type(e) is tuple}
    m = lcm(*dens)
    if dens:
        ends = [e * m if type(e) is int else e[0] * m + e[1] * m // e[2] for e in ends]
    return list(zip(ends[::2], ends[1::2])), m


def _set_lowest_terms(obj, nums, den):
    """Put a frozen dataclass's int fields nums over den in lowest terms, den > 0."""
    n, d = getattr(obj, nums), getattr(obj, den)
    if d <= 0:
        raise ValueError("denominators must be positive")
    g = gcd(d, *n)
    object.__setattr__(obj, nums, tuple([v // g for v in n]) if g > 1 else tuple(n))
    object.__setattr__(obj, den, d // g)


def _grid_union(pairs, scale) -> "IntervalUnion":
    """The union of canonical int (lo, hi) pairs given on the grid 1/scale,
    in lowest terms.  Its callers holding Fractions, `normalize` and `clip`,
    put them on an integer grid with `_fraction_grid` first."""
    g = gcd(scale, *chain.from_iterable(pairs))
    if g > 1:
        pairs = [(lo // g, hi // g) for lo, hi in pairs]
    return IntervalUnion(tuple(pairs), scale // g)


def _fraction_grid(pairs):
    """(int pairs, m): Fraction (lo, hi) pairs on the grid 1/m, m the lcm of
    their denominators."""
    m = lcm(*(e.denominator for pair in pairs for e in pair))
    return [(lo.numerator * (m // lo.denominator), hi.numerator * (m // hi.denominator))
            for lo, hi in pairs], m


def _scaled(u, scale):
    """u's (lo, hi) int pairs on the grid 1/scale, a multiple of u.den."""
    f = scale // u.den
    return u.nums if f == 1 else tuple((lo * f, hi * f) for lo, hi in u.nums)


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of half-open intervals [lo/den, hi/den), held as
    its pieces' (lo, hi) int pairs over one positive denominator.

    The pairs must be canonical (a tuple, sorted, disjoint, non-touching,
    lo < hi) and den in lowest terms with them (den 1 when empty); build
    unions with `normalize` unless the input is already known canonical.
    """

    nums: Tuple[Tuple[int, int], ...] = ()
    den: int = 1

    @property
    def pairs(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(lo, self.den), Fraction(hi, self.den)) for lo, hi in self.nums)

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(Interval(lo, hi) for lo, hi in self.pairs)

    def is_empty(self) -> bool:
        return not self.nums

    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.nums), self.den)

    def __contains__(self, x) -> bool:
        # integer endpoints: x*den lies in [lo, hi) iff its floor does
        x = rat(x)
        y = x.numerator * self.den // x.denominator
        i = bisect.bisect_right(self.nums, y, key=itemgetter(0)) - 1
        return i >= 0 and y < self.nums[i][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        if not self.nums or not other.nums:
            return EMPTY
        # on the common grid, each walk starts at the first piece ending after
        # the other union starts; pieces can touch ([0,2) cut by [0,1),[1,2))
        scale = lcm(self.den, other.den)
        a, b = _scaled(self, scale), _scaled(other, scale)
        i = bisect.bisect_right(a, b[0][0], key=itemgetter(1))
        j = bisect.bisect_right(b, a[0][0], key=itemgetter(1))
        return _grid_union(_merge_sorted(_pair_isect(a, b, i, j)), scale)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        scale = lcm(self.den, other.den)
        return _grid_union(_merge_sorted(sorted(_scaled(self, scale) + _scaled(other, scale))), scale)

    def issubset(self, other: "IntervalUnion") -> bool:
        # exact containment up to the canonical form: A subset B iff A&B == A
        return self.intersect(other) == self

    def affine(self, a: RationalLike, b: RationalLike) -> "IntervalUnion":
        """Image under x -> a*x + b, a != 0.  Orientation flips when a < 0."""
        a, b = rat(a), rat(b)
        if a == 0:
            raise ValueError("affine image requires a != 0")
        # a*(n/den) + b = (p*s*n + r*q*den) / (q*s*den) for a = p/q, b = r/s
        mul, add = a.numerator * b.denominator, b.numerator * a.denominator * self.den
        scale = a.denominator * b.denominator * self.den
        if a > 0:
            return _grid_union([(mul * lo + add, mul * hi + add) for lo, hi in self.nums], scale)
        return _grid_union([(mul * hi + add, mul * lo + add) for lo, hi in self.nums[::-1]], scale)

    def translate(self, shift: RationalLike) -> "IntervalUnion":
        return self.affine(1, shift)

    def clip(self, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        lo, hi = rat(lo), rat(hi)
        if lo >= hi:
            return IntervalUnion()
        return self.intersect(_grid_union(*_fraction_grid([(lo, hi)])))

    def to_json(self):
        den = self.den

        def text(n):  # rat_str(n/den) with one gcd
            g = gcd(n, den)
            return f"{n // g}/{den // g}"

        return [[text(lo), text(hi)] for lo, hi in self.nums]

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
    return _grid_union(*_fraction_grid(_merge_sorted(items)))


@dataclass(frozen=True)
class _GridFunction:
    """A function held on integer grids: breakpoints x_nums[i]/x_den and
    values y_nums[i]/y_den, each over one positive denominator in lowest
    terms, so `==` is structural.  `.xs` is a Fraction view built on first use.
    """

    x_nums: Tuple[int, ...]
    y_nums: Tuple[int, ...]
    x_den: int = 1
    y_den: int = 1

    def __post_init__(self):
        _set_lowest_terms(self, "x_nums", "x_den")
        _set_lowest_terms(self, "y_nums", "y_den")
        if not all(map(lt, self.x_nums, self.x_nums[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @cached_property
    def xs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.x_den) for n in self.x_nums)

    def _cut(self, level: RationalLike, right) -> IntervalUnion:
        """The superlevel set, cut on the integers: y_nums * den(level) against
        num(level) * y_den, with right(ys) the values at the cells' right ends."""
        level = rat(level)
        d = level.denominator
        ys = [v * d for v in self.y_nums]
        pairs, m = _superlevel(self.x_nums, ys, right(ys), level.numerator * self.y_den)
        return _grid_union(pairs, self.x_den * m)


class PiecewiseLinear(_GridFunction):
    """Continuous piecewise-linear function with exact rational breakpoints:
    the value y_nums[i]/y_den at x_nums[i]/x_den.

    Linear between consecutive breakpoints, constant outside the span.  `.ys`
    is a Fraction view built on first use.
    """

    def __post_init__(self):
        if len(self.x_nums) != len(self.y_nums) or not self.x_nums:
            raise ValueError("breakpoints and values must match and be nonempty")
        super().__post_init__()

    @cached_property
    def ys(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.y_den) for n in self.y_nums)

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
        """Exact {x in [xs[0], xs[-1]] : f(x) >= level} as a canonical union,
        cut on the integers: y_nums * den(level) >= num(level) * y_den.

        Isolated touch points (f == level at a single x with f < level on both
        sides) are measure zero and omitted, consistent with the half-open
        set convention.
        """
        return self._cut(level, lambda ys: ys[1:])


class StepFunction(_GridFunction):
    """Right-continuous step function: the value y_nums[i]/y_den on
    [x_nums[i]/x_den, x_nums[i+1]/x_den), 0 outside.  `.values` is a Fraction
    view built on first use.
    """

    def __post_init__(self):
        if len(self.x_nums) != len(self.y_nums) + 1 or len(self.x_nums) < 2:
            raise ValueError("need n+1 boundaries for n cells")
        super().__post_init__()

    @cached_property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.y_den) for n in self.y_nums)

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        if x < self.xs[0] or x >= self.xs[-1]:
            return Fraction(0)
        i = bisect.bisect_right(self.xs, x) - 1
        return self.values[i]

    def superlevel(self, level: RationalLike) -> IntervalUnion:
        """Exact {x : g(x) >= level} within the cells, cut on the integers."""
        return self._cut(level, lambda ys: ys)
