"""Radix digit-expansion sets and their digitwise algebra.

A spec (radix rho, depth k, alphabet, tail) generates the set

    { sum_{i=1..k} d_i * rho^(-i) + z : d_i in alphabet, 0 <= z < tail }.

Digits may be arbitrary rationals.  Whether distinct digit strings give
distinct base points (collision-freeness) is always computed, never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence, Tuple

from .intervals import (
    EMPTY,
    IntervalUnion,
    RationalLike,
    _grid_union,
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
    radix: int
    depth: int
    alphabet: Tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        alphabet = tuple(sorted({rat(a) for a in self.alphabet}))
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        object.__setattr__(self, "alphabet", alphabet)
        tail = rat(self.tail)
        if tail < 0:
            raise ValueError("tail must be >= 0")
        object.__setattr__(self, "tail", tail)

    def with_tail(self, tail: RationalLike) -> "DigitSetSpec":
        return DigitSetSpec(self.radix, self.depth, self.alphabet, rat(tail))

    def to_json(self):
        return {
            "radix": self.radix,
            "depth": self.depth,
            "alphabet": [rat_str(a) for a in self.alphabet],
            "tail": rat_str(self.tail),
        }

    @staticmethod
    def from_json(data) -> "DigitSetSpec":
        return DigitSetSpec(
            int(data["radix"]),
            int(data["depth"]),
            tuple(rat(a) for a in data["alphabet"]),
            rat(data["tail"]),
        )


def digit_spec(radix, depth, alphabet, tail) -> DigitSetSpec:
    return DigitSetSpec(int(radix), int(depth), tuple(rat(a) for a in alphabet), rat(tail))


def _base_nums(spec: DigitSetSpec):
    """Distinct base points as sorted integer numerators over a common denominator.

    Returns (nums, den) with base point = num/den.  Pure integer Horner
    enumeration: value = sum d_i rho^(k-i) over den = c * rho^k where c clears
    the alphabet denominators.
    """
    if len(spec.alphabet) ** spec.depth > MAX_ENUM:
        raise ValueError(
            f"enumeration of {len(spec.alphabet)}^{spec.depth} base points exceeds cap"
        )
    c = common_denominator(spec.alphabet)
    digits = [int(a * c) for a in spec.alphabet]
    vals = [0]
    for _ in range(spec.depth):
        vals = [v * spec.radix + d for v in vals for d in digits]
    return sorted(set(vals)), c * spec.radix**spec.depth


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
    # [v, v + tail*den) over den is [v*td, v*td + tn*den) over den*td
    width, scale = tn * den, den * td
    return _grid_union(_merge_sorted((v * td, v * td + width) for v in nums), scale)


def _gap_certified(spec: DigitSetSpec) -> bool:
    """Sufficient certificate that distinct digit strings give distinct base
    points at every finite depth: min_gap * (radix - 1) >= spread.

    At the first position j where two strings differ, the difference is at
    least min_gap * rho^(-j); the remaining positions can contribute at most
    spread * (rho^(-j) - rho^(-k))/(rho - 1), which is strictly smaller.
    """
    a = spec.alphabet
    if len(a) <= 1:
        return True
    min_gap = min(y - x for x, y in zip(a, a[1:]))
    return min_gap * (spec.radix - 1) >= a[-1] - a[0]


def is_collision_free(spec: DigitSetSpec) -> bool:
    """True when distinct digit strings give distinct base points (cardinality |alphabet|^depth)."""
    return cardinality(spec) == len(spec.alphabet) ** spec.depth


def cardinality(spec: DigitSetSpec) -> int:
    """Number of distinct base points."""
    if _gap_certified(spec):
        return len(spec.alphabet) ** spec.depth
    return len(_base_nums(spec)[0])


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
    radix = terms[0][1].radix
    depth = terms[0][1].depth
    for _, s in terms:
        if s.radix != radix or s.depth != depth:
            raise ValueError("combined specs must share radix and depth")
    size = 1
    for _, s in terms:
        size *= len(s.alphabet)
        if size > MAX_ENUM:
            raise ValueError("alphabet product exceeds enumeration cap")
    coeffs = [c for c, _ in terms]
    # every digit as an integer over the alphabets' common denominator
    den = common_denominator(a for _, s in terms for a in s.alphabet)
    digits = [[a.numerator * (den // a.denominator) for a in s.alphabet] for _, s in terms]
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
    return DigitSetSpec(radix, depth, tuple(Fraction(v, den) for v in sorted(values)), rat(tail))
