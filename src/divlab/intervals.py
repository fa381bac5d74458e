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

numpy is imported inside the functions that build or read an array, and
every grid function holds arrays, so a program that builds no function and
tests no containment never loads it.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain
from fractions import Fraction
from math import gcd, lcm
from operator import index, itemgetter
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


def _refuse_past(count: int, cap: int, head: str, unit: str) -> int:
    """count; past cap, every engine's refusal "<head> <count> <unit> exceeds the cap of <cap>"."""
    if count > cap:
        raise ValueError(f"{head} {count:,} {unit} exceeds the cap of {cap:,}")
    return count


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


def _pair_isect(a, b):
    """Intersection of two sorted disjoint (lo, hi) pair lists (ints or Fractions)."""
    out = []
    i = j = 0
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
    """{x : f(x) >= level} as (lo, hi, m): int arrays of its canonical
    pieces' ends on the grid 1/m of xs's unit, f running linearly from
    left[i] to right[i] on [xs[i], xs[i+1]] (a step function has left ==
    right).  xs is increasing; xs, left and right are int arrays, int64 or
    object, with one left and one right value per cell; level is a rational
    in the units of left and right.

    One numpy pass: with level = p/q the values move to Y = q y - p, so the
    level is 0.  Two masks mark the cells whose piece reaches their left end
    (Y0 > 0, or Y >= 0 at both ends) and their right end (Y1 > 0, or both);
    a cell with exactly one is a crossing cell, where Y changes sign strictly
    inside, and a crossing lies |Y0| dx / |Y1 - Y0| past x0.  np.gcd puts
    each crossing in lowest terms and m is the lcm of the distinct reduced
    denominators, so every endpoint is an int on the refined grid.  A
    crossing that lands on a breakpoint opens or closes nothing there, so
    isolated touch points are omitted; with no crossing m = 1.  Pieces of
    neighbouring cells that touch are fused by one nonzero.  Arrays are
    int64 while a magnitude bound from the inputs stays below 2^62 and dtype
    object (Python ints) otherwise; both run the same code.
    """
    import numpy as np
    if not len(left) == len(right) == len(xs) - 1:
        raise ValueError("need one left and one right value per cell")
    if not len(left):
        return xs[:0], xs[:0], 1
    level = rat(level)
    p, q = level.numerator, level.denominator
    first, last = int(xs[0]), int(xs[-1])
    reach, span = max(-first, last), last - first
    y = np.array((left, right))
    if 2 * (q * max(-int(y.min()), int(y.max())) + abs(p)) * (span + 1) >= 2**62:
        xs, y = xs.astype(object), y.astype(object)
    y = y * q - p
    (pos0, pos1), (over0, over1) = y >= 0, y > 0
    full = pos0 & pos1
    left_end, right_end = over0 | full, over1 | full
    cross = (left_end ^ right_end).nonzero()[0]
    m, ends = 1, xs[:-1]  # a step function has no crossing
    if len(cross):
        y0, y1 = y[:, cross]
        num, den = np.abs(y0) * (xs[cross + 1] - xs[cross]), np.abs(y1 - y0)
        g = np.gcd(num, den)
        num, den = num // g, den // g
        m = lcm(*set(den.tolist()))
        if 2 * (reach + span + 1) * m >= 2**62:
            xs, num, den = xs.astype(object), num.astype(object), den.astype(object)
        xs = xs * m
        ends = xs[:-1].copy()
        ends[cross] += num * (m // den)
    x0, x1 = xs[:-1], xs[1:]
    cells = (left_end | right_end).nonzero()[0]
    lo, hi = np.where(left_end, x0, ends)[cells], np.where(right_end, x1, ends)[cells]
    gap = (hi[:-1] != lo[1:]).nonzero()[0]
    return np.concatenate((lo[:1], lo[gap + 1])), np.concatenate((hi[gap], hi[-1:])), m


def _int_array(values):
    """Ints as an int64 array, or dtype object (Python ints) past int64;
    TypeError on a non-integer, which numpy would truncate."""
    import numpy as np
    values = [index(v) for v in values]
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _grid_union(pairs, scale) -> "IntervalUnion":
    """The union of canonical int (lo, hi) pairs given on the grid 1/scale,
    in lowest terms.  `normalize`, which holds Fractions, puts them on an
    integer grid with `_fraction_grid` first."""
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


def _array_union(lo, hi, scale) -> "IntervalUnion":
    """The union of canonical pieces given as int arrays of their ends on the
    grid 1/scale, put in lowest terms in numpy.  A nonempty one is an
    _ArrayUnion that keeps the arrays, int64 while every end and the
    denominator are below 2^62 and dtype object otherwise."""
    import numpy as np
    g = gcd(scale, int(np.gcd.reduce(lo)), int(np.gcd.reduce(hi)))
    if g > 1:
        lo, hi = lo // g, hi // g
    if not len(lo):
        return EMPTY
    den = scale // g
    if lo.dtype != object and max(-int(lo[0]), int(hi[-1]), den) >= 2**62:
        lo, hi = lo.astype(object), hi.astype(object)
    return _ArrayUnion._holding(_arrays=(lo, hi), den=den)


def _scaled(u, scale):
    """u's (lo, hi) int pairs on the grid 1/scale, a multiple of u.den."""
    f = scale // u.den
    return u.nums if f == 1 else tuple((lo * f, hi * f) for lo, hi in u.nums)


class _Frozen:
    """An immutable value: its attributes are set once, with
    object.__setattr__, and the views cached_property builds on first use.
    `==`, hash and repr read the _fields; two values compare when one's
    class derives from the other's."""

    _fields: Tuple[str, ...] = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _holding(cls, **fields):
        """An instance holding these attributes, its constructor bypassed."""
        obj = cls.__new__(cls)
        obj._set(**fields)
        return obj

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if isinstance(other, type(self)) or isinstance(self, type(other)):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


# pieces per template call of IntervalUnion.json_chunks: bounds the flat
# list of ends a deep union renders at once
_CHUNK = 4096


class IntervalUnion(_Frozen):
    """Canonical finite union of half-open intervals [lo/den, hi/den), held as
    its pieces' (lo, hi) int pairs over one positive denominator.

    The pairs must be canonical (a tuple, sorted, disjoint, non-touching,
    lo < hi) and den in lowest terms with them (den 1 when empty); build
    unions with `normalize` unless the input is already known canonical.  A
    union cut from a function is an _ArrayUnion, which holds int arrays of
    its pieces' ends instead.
    """

    _fields = ("nums", "den")

    def __init__(self, nums: Tuple[Tuple[int, int], ...] = (), den: int = 1):
        # set directly: unions are built in the engines' inner loops
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

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

    def _span(self):
        """(first lo, last hi) of a nonempty union, as ints."""
        return self.nums[0][0], self.nums[-1][1]

    def _scaled_arrays(self, f, dtype):
        """(lo, hi) arrays of the piece ends scaled by f, on the grid 1/(f den)."""
        import numpy as np
        flat = np.fromiter(chain.from_iterable(self.nums), dtype=dtype, count=2 * len(self.nums))
        if f > 1:
            flat *= f
        return flat[0::2], flat[1::2]

    def __contains__(self, x) -> bool:
        # integer endpoints: x*den lies in [lo, hi) iff its floor does
        x = rat(x)
        y = x.numerator * self.den // x.denominator
        i = bisect.bisect_right(self.nums, y, key=itemgetter(0)) - 1
        return i >= 0 and y < self.nums[i][1]

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        # on the common grid; pieces of a meet touch only where an input's do
        scale = lcm(self.den, other.den)
        return _grid_union(_pair_isect(_scaled(self, scale), _scaled(other, scale)), scale)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        scale = lcm(self.den, other.den)
        return _grid_union(_merge_sorted(sorted(_scaled(self, scale) + _scaled(other, scale))), scale)

    def issubset(self, other: "IntervalUnion") -> bool:
        """Exact containment, in one pass on the common grid: each piece of
        self must lie inside the piece of other that starts at or before it,
        found by searchsorted (canonical pieces never touch, so no piece of
        self needs two).  The arrays are int64 below 2^62, dtype object
        above; a side that holds arrays is read from them."""
        if self.is_empty() or other.is_empty():
            return self.is_empty()
        scale = lcm(self.den, other.den)
        fa, fb = scale // self.den, scale // other.den
        (a_first, a_last), (b_first, b_last) = self._span(), other._span()
        if a_first * fa < b_first * fb:
            return False  # so every piece of self has a piece of other at or before it
        import numpy as np
        reach = max(max(-a_first, a_last) * fa, max(-b_first, b_last) * fb)
        dtype = np.int64 if reach < 2**62 else object
        (a_lo, a_hi), (b_lo, b_hi) = self._scaled_arrays(fa, dtype), other._scaled_arrays(fb, dtype)
        return bool((a_hi <= b_hi[np.searchsorted(b_lo, a_lo, side="right") - 1]).all())

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
        """self & [lo, hi): a bisect slice of the pieces that reach into
        [lo, hi), its two end pieces trimmed on the grid that holds lo and hi."""
        lo, hi = rat(lo), rat(hi)
        if lo >= hi:
            return EMPTY
        nums = self.nums
        scale = lcm(self.den, lo.denominator, hi.denominator)
        f = scale // self.den
        lo, hi = lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator)
        # the pieces ending after lo and starting before hi, bisected on self's grid
        part = nums[bisect.bisect_right(nums, lo // f, key=itemgetter(1)):
                    bisect.bisect_left(nums, -(-hi // f), key=itemgetter(0))]
        if not part:
            return EMPTY
        if lo <= part[0][0] * f and part[-1][1] * f <= hi:
            return self if len(part) == len(nums) else _grid_union(part, self.den)
        pairs = [(a * f, b * f) for a, b in part]
        pairs[0] = (max(pairs[0][0], lo), pairs[0][1])
        pairs[-1] = (pairs[-1][0], min(pairs[-1][1], hi))
        return _grid_union(pairs, scale)

    def _lowest_ends(self):
        """Chunks of at most _CHUNK pieces, each the flat list [lo num, lo den,
        hi num, hi den, ...] of its pieces' ends in lowest terms, reduced by
        math.gcd, so a union built from tuples never loads numpy."""
        den, nums = self.den, self.nums
        for start in range(0, len(nums), _CHUNK):
            flat = []
            for lo, hi in nums[start:start + _CHUNK]:
                g, h = gcd(lo, den), gcd(hi, den)
                flat += (lo // g, den // g, hi // h, den // h)
            yield flat

    def to_json(self):
        return [[f"{a}/{b}", f"{c}/{d}"]
                for flat in self._lowest_ends() for a, b, c, d in zip(*[iter(flat)] * 4)]

    def json_chunks(self, indent: int):
        """to_json() as json.dumps(indent=2) writes it at this indent, in
        pieces of text: one %-template call per chunk of _CHUNK pieces.  The
        "n/d" text needs no escaping."""
        outer, inner = "\n" + " " * (indent + 2), "\n" + " " * (indent + 4)
        piece, sep = f'[{inner}"%d/%d",{inner}"%d/%d"{outer}]', "," + outer
        head, size = "[" + outer, 0
        for flat in self._lowest_ends():
            if len(flat) != 4 * size:
                size = len(flat) // 4
                template = sep.join([piece] * size)
            yield head + template % tuple(flat)
            head = sep
        yield "\n" + " " * indent + "]" if size else "[]"

    @staticmethod
    def from_json(data) -> "IntervalUnion":
        return normalize((rat(lo), rat(hi)) for lo, hi in data)


class _ArrayUnion(IntervalUnion):
    """A nonempty union cut from a function (`_array_union`): it holds int
    arrays (lo, hi) of its pieces' ends, and `nums` is a view built on first
    use.  Its measure, containment test and JSON read the arrays."""

    @cached_property
    def nums(self) -> Tuple[Tuple[int, int], ...]:
        lo, hi = self._arrays
        return tuple(zip(lo.tolist(), hi.tolist()))

    def is_empty(self) -> bool:
        return False

    def measure(self) -> Fraction:
        lo, hi = self._arrays
        return Fraction(int((hi - lo).sum()), self.den)

    def _span(self):
        lo, hi = self._arrays
        return int(lo[0]), int(hi[-1])

    def _scaled_arrays(self, f, dtype):
        lo, hi = (a.astype(dtype, copy=False) for a in self._arrays)
        return (lo * f, hi * f) if f > 1 else (lo, hi)

    def _lowest_ends(self):
        """The chunks of IntervalUnion._lowest_ends, reduced by np.gcd."""
        import numpy as np
        (lo, hi), den = self._arrays, self.den
        for start in range(0, len(lo), _CHUNK):
            ends = np.array((lo[start:start + _CHUNK], hi[start:start + _CHUNK]))
            g = np.gcd(ends, den)
            # (num or den, lo or hi, piece) read piece by piece
            yield np.array((ends // g, den // g)).transpose(2, 1, 0).ravel().tolist()


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


_INCREASING = "breakpoints must be strictly increasing"


class _GridFunction(_Frozen):
    """A function held on integer grids: breakpoints x_nums[i]/x_den and
    values y_nums[i]/y_den, each over one positive denominator in lowest
    terms, so `==` is structural.  Every function holds int arrays of its
    numerators, int64 or object past int64, which the cut reads: the
    constructor converts its ints with _int_array, and `_of_arrays` (a
    sweep's) takes arrays as they are.  x_nums and y_nums are tuple views
    built on first use, as `.xs` is a Fraction view.
    """

    _fields = ("x_nums", "y_nums", "x_den", "y_den")

    def __init__(self, x_nums: Tuple[int, ...], y_nums: Tuple[int, ...], x_den: int = 1, y_den: int = 1):
        self._hold(_int_array(x_nums), _int_array(y_nums), x_den, y_den)

    @classmethod
    def _of_arrays(cls, xs, ys, x_den=1, y_den=1):
        """The function of the int arrays xs/x_den and ys/y_den (int64 or
        object), taken as they are: the sweeps' path."""
        f = cls.__new__(cls)
        f._hold(xs, ys, x_den, y_den)
        return f

    def _hold(self, xs, ys, x_den, y_den):
        """Check the int arrays in numpy, put each over its denominator in
        lowest terms and hold them."""
        import numpy as np
        self._check_shape(len(xs), len(ys))
        if x_den <= 0 or y_den <= 0:
            raise ValueError("denominators must be positive")
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError(_INCREASING)
        gx, gy = gcd(x_den, int(np.gcd.reduce(xs))), gcd(y_den, int(np.gcd.reduce(ys)))
        xs, ys = (xs // gx if gx > 1 else xs), (ys // gy if gy > 1 else ys)
        self._set(_arrays=(xs, ys), x_den=x_den // gx, y_den=y_den // gy)

    @cached_property
    def x_nums(self) -> Tuple[int, ...]:
        return tuple(self._arrays[0].tolist())

    @cached_property
    def y_nums(self) -> Tuple[int, ...]:
        return tuple(self._arrays[1].tolist())

    def __len__(self) -> int:
        return len(self._arrays[0])

    @cached_property
    def xs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.x_den) for n in self.x_nums)

    def _cut(self, level: RationalLike, cells) -> IntervalUnion:
        """The superlevel set, cut on the integer arrays by _superlevel at
        level * y_den, with cells(ys) the values at the cells' left and right ends."""
        xs, ys = self._arrays
        lo, hi, m = _superlevel(xs, *cells(ys), rat(level) * self.y_den)
        return _array_union(lo, hi, self.x_den * m)


class PiecewiseLinear(_GridFunction):
    """Continuous piecewise-linear function with exact rational breakpoints:
    the value y_nums[i]/y_den at x_nums[i]/x_den.

    Linear between consecutive breakpoints, constant outside the span.  `.ys`
    is a Fraction view built on first use.
    """

    @staticmethod
    def _check_shape(n_x, n_y):
        if n_x != n_y or not n_x:
            raise ValueError("breakpoints and values must match and be nonempty")

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
        return self._cut(level, lambda ys: (ys[:-1], ys[1:]))


class StepFunction(_GridFunction):
    """Right-continuous step function: the value y_nums[i]/y_den on
    [x_nums[i]/x_den, x_nums[i+1]/x_den), 0 outside.  `.values` is a Fraction
    view built on first use.
    """

    @staticmethod
    def _check_shape(n_x, n_y):
        if n_x != n_y + 1 or n_x < 2:
            raise ValueError("need n+1 boundaries for n cells")

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
        return self._cut(level, lambda ys: (ys, ys))
