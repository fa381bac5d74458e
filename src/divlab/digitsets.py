"""Radix digit-expansion sets and their digitwise algebra.

A spec (radix rho, depth k, alphabet, tail) generates the set

    { sum_{i=1..k} d_i * rho^(-i) + z : d_i in alphabet, 0 <= z < tail }.

Digits may be arbitrary rationals, held as ints over one denominator.  Whether
distinct digit strings give distinct base points is always computed, never assumed.
"""

from __future__ import annotations

__all__ = [
    "DigitSetSpec",
    "NoCarryError",
    "base_points",
    "cardinality",
    "combine",
    "digit_spec",
    "is_collision_free",
    "materialize",
    "measure",
]

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import index, sub
from typing import Sequence, Tuple

from .intervals import (
    EMPTY,
    IntervalUnion,
    RationalLike,
    _grid_union,
    _merge_sorted,
    _refuse_past,
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
        if index(self.radix) < 2:
            raise ValueError("radix must be >= 2")
        if index(self.depth) < 1:
            raise ValueError("depth must be >= 1")
        if not self.digits:
            raise ValueError("alphabet must be nonempty")
        if self.den <= 0:
            raise ValueError("denominators must be positive")
        g = gcd(self.den, *self.digits)
        object.__setattr__(self, "digits", tuple(sorted({d // g for d in self.digits})))
        object.__setattr__(self, "den", self.den // g)
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
    return DigitSetSpec(index(radix), index(depth), digits, den, tail)


def _base_nums(spec: DigitSetSpec):
    """Distinct base points as sorted integer numerators over a common denominator.

    Returns (nums, den) with base point = num/den.  Pure integer Horner
    enumeration: value = sum d_i rho^(k-i) over den = spec.den * rho^k.
    Under the gap certificate the enumeration is already sorted and
    distinct: if consecutive values v < w of one depth lie at least min_gap
    apart, then (w - v) rho - spread >= min_gap * rho - spread >= min_gap
    separates the children of v from those of w.
    """
    _refuse_past(len(spec.digits) ** spec.depth, MAX_ENUM, "enumeration of", "base points")
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
    pairs = [(v * step, v * step + width) for v in nums]
    # pieces shorter than the certified gap are sorted and apart: nothing to fuse
    return _grid_union(pairs if _tail_within_gap(spec, strict=True) else _merge_sorted(pairs), scale)


def _gap_certified(spec: DigitSetSpec) -> bool:
    """Sufficient certificate that distinct digit strings give distinct base
    points at every finite depth: min_gap * (radix - 1) >= spread.

    At the first position j where two strings differ, the difference is at
    least min_gap * rho^(-j); the remaining positions can contribute at most
    spread * (rho^(-j) - rho^(-k))/(rho - 1), which is strictly smaller.
    """
    a = spec.digits  # all over spec.den, which cancels
    return len(a) <= 1 or _least_gap(a) * (spec.radix - 1) >= a[-1] - a[0]


def _least_gap(digits) -> int:
    """The least difference of consecutive sorted digits (two or more)."""
    return min(map(sub, digits[1:], digits))


def _tail_within_gap(spec: DigitSetSpec, strict: bool = False) -> bool:
    """Whether the gap certificate holds and the tail is at most (strict: below)
    the least digit gap over den * radix^depth, the least distance the
    certificate proves between distinct base points: the pieces are then
    disjoint (strict: apart, so none touch).  One integer comparison."""
    if not _gap_certified(spec):
        return False
    if len(spec.digits) == 1:
        return True  # one base point, one piece
    reach = spec.tail.numerator * spec.den * spec.radix**spec.depth
    gap = _least_gap(spec.digits) * spec.tail.denominator
    return reach < gap if strict else reach <= gap


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
    if _tail_within_gap(spec):
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
    den, digits, sums = _digit_sums(terms)
    radix, depth = terms[0][1].radix, terms[0][1].depth
    bound = radix * den
    if max(sums) >= bound or min(sums) <= -bound:
        i = next(i for i, v in enumerate(sums) if abs(v) >= bound)
        ds = next(itertools.islice(itertools.product(*digits), i, None))
        raise NoCarryError(
            f"combination {[c for c, _ in terms]} x {tuple(str(Fraction(d, den)) for d in ds)} "
            f"gives {Fraction(sums[i], den)}, magnitude >= radix {radix}"
        )
    return DigitSetSpec(radix, depth, set(sums), den, tail)


def _digit_sums(terms: Sequence[Tuple[int, DigitSetSpec]]):
    """(den, digits, sums): every spec's digits as ints over den, the lcm of
    the specs' denominators, and sum_j c_j d_j for every digit tuple (d_j),
    one digit of each spec, in itertools.product order (the last spec's
    digit varies fastest).  The one enumeration of digit tuples: combine
    builds its alphabet from it, and the cube certificate's digitwise proof
    tests each sum against an alphabet."""
    if not terms:
        raise ValueError("need at least one term")
    specs = [s for _, s in terms]
    if any((s.radix, s.depth) != (specs[0].radix, specs[0].depth) for s in specs):
        raise ValueError("combined specs must share radix and depth")
    _refuse_past(prod(len(s.digits) for s in specs), MAX_ENUM, "combination of", "digit tuples")
    den = lcm(*(s.den for s in specs))
    digits = [[d * (den // s.den) for d in s.digits] for s in specs]
    sums = [0]
    for (c, _), ds in zip(terms, digits):
        sums = [v + c * d for v in sums for d in ds]
    return den, digits, sums
