"""Radix digit-expansion sets and their digitwise algebra.

A spec (radix rho, depth k, alphabet, tail) generates the set

    { sum_{i=1..k} d_i * rho^(-i) + z : d_i in alphabet, 0 <= z < tail }.

Digits may be arbitrary rationals, held as ints over one denominator.  Whether
distinct digit strings give distinct base points is always computed, never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul, sub
from typing import Sequence, Tuple

from .intervals import (
    EMPTY,
    IntervalUnion,
    RationalLike,
    _grid_union,
    _set_lowest_terms,
    _merge_sorted,
    common_denominator,
    rat,
    rat_str,
)

# hard cap on exact enumerations (|alphabet|^depth and alphabet products)
MAX_ENUM = 4_000_000


class NoCarryError(ValueError):
    """A digitwise combination produced a value of magnitude >= radix."""


@dataclass(frozen=True)
class DigitSetSpec:
    """Sorted distinct digits[i]/den in lowest terms; `.alphabet` is their Fraction view."""

    radix: int
    depth: int
    digits: Tuple[int, ...]
    den: int
    tail: Fraction

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not self.digits:
            raise ValueError("alphabet must be nonempty")
        object.__setattr__(self, "digits", sorted(set(self.digits)))
        _set_lowest_terms(self, "digits", "den")
        tail = rat(self.tail)
        if tail < 0:
            raise ValueError("tail must be >= 0")
        object.__setattr__(self, "tail", tail)

    @cached_property
    def alphabet(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(d, self.den) for d in self.digits)

    def with_tail(self, tail: RationalLike) -> "DigitSetSpec":
        return DigitSetSpec(self.radix, self.depth, self.digits, self.den, tail)

    def to_json(self):
        return {
            "radix": self.radix,
            "depth": self.depth,
            "alphabet": [rat_str(a) for a in self.alphabet],
            "tail": rat_str(self.tail),
        }

    @staticmethod
    def from_json(data) -> "DigitSetSpec":
        return digit_spec(data["radix"], data["depth"], data["alphabet"], data["tail"])


def digit_spec(radix, depth, alphabet, tail) -> DigitSetSpec:
    alphabet = {rat(a) for a in alphabet}
    den = common_denominator(alphabet)
    digits = [a.numerator * (den // a.denominator) for a in alphabet]
    return DigitSetSpec(int(radix), int(depth), digits, den, tail)


def _base_nums(spec: DigitSetSpec):
    """Distinct base points as sorted integer numerators over a common denominator.

    Returns (nums, den) with base point = num/den.  Pure integer Horner
    enumeration: value = sum d_i rho^(k-i) over den = spec.den * rho^k.
    Under the gap certificate the enumeration is already sorted and
    distinct: if consecutive values v < w of one depth lie at least min_gap
    apart, then (w - v) rho - spread >= min_gap * rho - spread >= min_gap
    separates the children of v from those of w.
    """
    if len(spec.digits) ** spec.depth > MAX_ENUM:
        raise ValueError(
            f"enumeration of {len(spec.digits)}^{spec.depth} base points exceeds cap"
        )
    vals = [0]
    for _ in range(spec.depth):
        vals = [v * spec.radix + d for v in vals for d in spec.digits]
    return vals if _gap_certified(spec) else sorted(set(vals)), spec.den * spec.radix**spec.depth


def base_points(spec: DigitSetSpec):
    """Sorted distinct base points of the spec as Fractions."""
    nums, den = _base_nums(spec)
    return [Fraction(n, den) for n in nums]


def materialize(spec: DigitSetSpec) -> IntervalUnion:
    """The generated set as a canonical interval union; tail 0 gives the empty union."""
    if spec.tail == 0:
        return EMPTY
    nums, den = _base_nums(spec)
    tn, td = spec.tail.numerator, spec.tail.denominator
    # [v, v + tail*den) over den is [v*td, v*td + tn*den) over den*td, and
    # g = gcd(td, tn*den) divides every endpoint and the denominator
    g = gcd(td, tn * den)
    step, width, scale = td // g, tn * den // g, den * td // g
    return _grid_union(_merge_sorted((v * step, v * step + width) for v in nums), scale)


def _gap_certified(spec: DigitSetSpec) -> bool:
    """Sufficient certificate that distinct digit strings give distinct base
    points at every finite depth: min_gap * (radix - 1) >= spread.

    At the first position j where two strings differ, the difference is at
    least min_gap * rho^(-j); the remaining positions can contribute at most
    spread * (rho^(-j) - rho^(-k))/(rho - 1), which is strictly smaller.
    """
    a = spec.digits  # all over spec.den, which cancels
    if len(a) <= 1:
        return True
    return min(map(sub, a[1:], a)) * (spec.radix - 1) >= a[-1] - a[0]


def is_collision_free(spec: DigitSetSpec) -> bool:
    """True when distinct digit strings give distinct base points (cardinality |alphabet|^depth)."""
    return cardinality(spec) == len(spec.digits) ** spec.depth


def cardinality(spec: DigitSetSpec) -> int:
    """Number of distinct base points."""
    if _gap_certified(spec):
        return len(spec.digits) ** spec.depth
    return len(_base_nums(spec)[0])


def measure(spec: DigitSetSpec) -> Fraction:
    """Lebesgue measure of the generated set.

    Under the gap certificate, distinct base points lie at least min_gap
    apart on the grid 1/(den * radix^depth); a tail no longer than that
    leaves the pieces disjoint, and the measure is cardinality * tail with
    no enumeration.  Otherwise it is the measure of the materialized union.
    """
    d, unit = spec.digits, spec.den * spec.radix**spec.depth
    if _gap_certified(spec) and all(spec.tail * unit <= b - a for a, b in zip(d, d[1:])):
        return cardinality(spec) * spec.tail
    return materialize(spec).measure()


def combine(
    terms: Sequence[Tuple[int, DigitSetSpec]], tail: RationalLike = 0
) -> DigitSetSpec:
    """Digitwise integer combination sum_j c_j * S_j of specs sharing radix and depth.

    Each coefficient scales a single shared digit choice of its spec (a scalar
    dilation, not an iterated sumset).  The combined alphabet
    { sum_j c_j d_j } must satisfy the no-carry condition |value| < radix,
    which makes the generated base points exactly the pointwise combinations
    { sum_j c_j x_j : x_j a base point of S_j }; violations raise NoCarryError
    naming the offending digit combination.
    """
    if not terms:
        raise ValueError("need at least one term")
    coeffs = [c for c, _ in terms]
    specs = [s for _, s in terms]
    radix, depth = specs[0].radix, specs[0].depth
    if any((s.radix, s.depth) != (radix, depth) for s in specs):
        raise ValueError("combined specs must share radix and depth")
    if prod(len(s.digits) for s in specs) > MAX_ENUM:
        raise ValueError("alphabet product exceeds enumeration cap")
    # every digit as an integer over the specs' common denominator
    den = lcm(*(s.den for s in specs))
    digits = [[d * (den // s.den) for d in s.digits] for s in specs]
    bound = radix * den
    values = set()
    for ds in itertools.product(*digits):
        v = sum(map(mul, coeffs, ds))
        if abs(v) >= bound:
            raise NoCarryError(
                f"combination {coeffs} x {tuple(str(Fraction(d, den)) for d in ds)} gives "
                f"{Fraction(v, den)}, magnitude >= radix {radix}"
            )
        values.add(v)
    return DigitSetSpec(radix, depth, values, den, tail)
