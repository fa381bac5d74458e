"""Exact support and value of the trilinear Hilbert transform on indicator sets.

For x <= 0 and a second set contained in [0, inf), the integrand of

    H3(x) = int  1_{U1}(x+t) 1_{U2}(x+2t) 1_{U3}(x+3t)  dt/t

vanishes for t <= 0 (x + 2t < 0 stays left of U2), so the integral runs over
the positive support only, where it evaluates exactly to a sum of log ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .averages import form_time_set
from .intervals import IntervalUnion, RationalLike, rat
from .scenarios import (
    BlowupSeries,
    FurstenbergScenario,
    check_series,
    furstenberg_threshold,
    ratio_verdict,
    series_from_logs,
)


# h3-eval refuses more witness base points than this (k=5 has 248,832)
MAX_H3_POINTS = 250_000


class PositivityError(ValueError):
    """Preconditions x <= 0 or second-set positivity violated."""


def h3_support(
    x: RationalLike,
    first: IntervalUnion,
    second: IntervalUnion,
    third: IntervalUnion,
) -> IntervalUnion:
    """Exact {t : x+t in first, x+2t in second, x+3t in third}, the time set.

    Requires x <= 0 and second within [0, inf); under these x + 2t >= 0
    forces t >= -x/2 >= 0, and a piece starting at 0 (only at x = 0) marks a
    support reaching down to 0.
    """
    x = rat(x)
    if x > 0:
        raise PositivityError("base point must satisfy x <= 0")
    if not second.is_empty() and second.nums[0][0] < 0:
        raise PositivityError("second set must lie in [0, inf)")
    return form_time_set([first, second, third], [1, 2, 3], x)


def _log_ratio(hi: int, lo: int) -> float:
    """ln(hi/lo) for ints 0 < lo < hi; where the quotient leaves the float
    range, ln(hi) - ln(lo), which Python takes on ints of any size."""
    try:
        return math.log(hi / lo)
    except OverflowError:
        return math.log(hi) - math.log(lo)


@dataclass(frozen=True)
class H3Evaluation:
    x: Fraction
    support: IntervalUnion
    value: float  # math.inf when the support touches 0
    lower_bound: Fraction
    diverges: bool


def h3_evaluate(
    x: RationalLike,
    first: IntervalUnion,
    second: IntervalUnion,
    third: IntervalUnion,
) -> H3Evaluation:
    """Exact H3 value at x: sum of ln(hi/lo) over support intervals.

    The reported lower_bound is the measure of the support inside (0, 1],
    which bounds the value from below whenever the support lies in (0, 1]
    (there 1/t >= 1).  A support touching 0 gives value +inf.
    """
    x = rat(x)
    sup = h3_support(x, first, second, third)
    diverges = (not sup.is_empty()) and sup.nums[0][0] == 0
    if diverges:
        value = math.inf
    else:
        value = sum(_log_ratio(hi, lo) for lo, hi in sup.nums)
    # the measure of sup in (0, 1]; its pieces lie in [0, inf)
    lower = Fraction(sum(min(hi, sup.den) - lo for lo, hi in sup.nums if lo < sup.den), sup.den)
    return H3Evaluation(
        x=x, support=sup, value=value, lower_bound=lower, diverges=diverges
    )


def h3_witness_evaluations(scenario: FurstenbergScenario) -> Tuple[H3Evaluation, ...]:
    """H3 at every negative witness base point of the scenario.

    The witness cardinality is read off its spec before any set is built;
    past MAX_H3_POINTS it raises ValueError naming the count.
    """
    from .digitsets import base_points, cardinality

    points = cardinality(scenario.witness_spec)
    if points > MAX_H3_POINTS:
        raise ValueError(
            f"h3 evaluation at {points:,} witness points exceeds the cap of {MAX_H3_POINTS:,}"
        )
    first, second, third = scenario.factors
    out = []
    for x in base_points(scenario.witness_spec):
        if x < 0:
            out.append(h3_evaluate(x, first, second, third))
    return tuple(out)


def _h3_log_terms(p: float, kmax: int, normalization: str):
    """Per-k (k, log lower_norm_bound, log product_of_norms) of the h3 series.

    lower_norm_bound = (1/8)^(3/p) / (8*12^k) and product_of_norms =
    (m(U1) m(U2) m(U3))^(1/p); both logs stay finite at every k, where the
    linear-space values would overflow or underflow.
    """
    if normalization not in ("lebesgue", "normalized"):
        raise ValueError("normalization must be 'lebesgue' or 'normalized'")
    half = 2 if normalization == "lebesgue" else 4
    return [
        (
            k,
            -3 * math.log(8) / p - math.log(8 * 12**k),
            -(math.log(half * 4**k) + math.log(half * 3**k) + math.log(half * 2**k)) / p,
        )
        for k in range(1, int(kmax) + 1)
    ]


def h3_ratio_series(
    p: float, kmax: int, normalization: str = "lebesgue"
) -> BlowupSeries:
    """Forced-constant series: norm lower bound over the factor norm product.

    value_k = (1/8)^(3/p) * (1/(8*12^k)) / (m(U1) m(U2) m(U3))^(1/p) with
    plain Lebesgue factor measures 1/(2*4^k), 1/(2*3^k), 1/(2*2^k) by default;
    normalization='normalized' halves the measures (ambient mass 1), shifting
    every value by the constant 8^(1/p) and leaving all step ratios, the
    threshold ln24/ln12 and the verdict unchanged.
    """
    check_series(p, kmax)
    terms = _h3_log_terms(p, kmax, normalization)
    values, ratios = series_from_logs([bound - norms for _, bound, norms in terms])
    closed = math.exp(math.log(24) / p - math.log(12))
    return BlowupSeries(
        kind="h3",
        p=float(p),
        weighted=False,
        mode=normalization,
        indices=tuple(range(1, kmax + 1)),
        values=values,
        step_ratios=ratios,
        closed_form_ratio=closed,
        threshold=furstenberg_threshold(),
        verdict=ratio_verdict(closed),
    )


def h3_series_columns(p: float, kmax: int, normalization: str = "lebesgue"):
    """Per-k (k, lower_norm_bound, product_of_norms) rows for CSV export.

    The two factors of h3_ratio_series' value_k = bound / norms, as exp of
    the logs the series sums; either may underflow to 0.0.
    """
    return [
        (k, math.exp(log_bound), math.exp(log_norms))
        for k, log_bound, log_norms in _h3_log_terms(p, kmax, normalization)
    ]
