"""Trilinear singular-integral certificates at witness points."""

import math
import random
from fractions import Fraction as F

import pytest

from divlab import averages, hilbert
from divlab.averages import form_time_set
from divlab.digitsets import base_points
from divlab.hilbert import (
    PositivityError,
    h3_evaluate,
    h3_ratio_series,
    h3_series_columns,
    h3_support,
    h3_witness_evaluations,
)
from divlab.intervals import EMPTY, _grid_union, normalize
from divlab.scenarios import MAX_KMAX, blowup_series, furstenberg_family


def test_support_matches_membership():
    rnd = random.Random(42)
    s = furstenberg_family(1)
    first, second, third = s.factors
    for _ in range(60):
        x = F(-rnd.randint(0, 24), 24)
        sup = h3_support(x, first, second, third)
        ends = {e for u in s.factors for iv in u.intervals for e in (iv.lo, iv.hi)}
        for _ in range(25):
            t = F(rnd.randint(1, 64), 64)
            if any(x + c * t in ends for c in (1, 2, 3)):
                continue
            member = (x + t in first) and (x + 2 * t in second) and (x + 3 * t in third)
            assert (t in sup) == member
        # nothing at or below zero
        assert all(iv.lo >= 0 for iv in sup.intervals)


def test_preconditions():
    s = furstenberg_family(1)
    first, second, third = s.factors
    with pytest.raises(PositivityError):
        h3_support(F(1, 2), first, second, third)
    neg = normalize([(-1, 1)])
    with pytest.raises(PositivityError):
        h3_support(F(-1, 2), first, neg, third)


def test_value_closed_form_and_divergence():
    u = normalize([(0, 1)])
    ev = h3_evaluate(0, u, u, u)
    # support (0, 1/3): the 1/t integral diverges at the origin
    assert ev.support.pairs == ((F(0), F(1, 3)),)
    assert ev.diverges and ev.value == math.inf
    assert ev.lower_bound == F(1, 3)

    shifted = normalize([(F(1, 4), 1)])
    ev2 = h3_evaluate(0, shifted, u, u)
    # support [1/4, 1/3): finite integral log(4/3)
    assert ev2.support.pairs == ((F(1, 4), F(1, 3)),)
    assert not ev2.diverges
    assert ev2.value == pytest.approx(math.log(F(4, 3)), rel=1e-14)
    assert ev2.lower_bound == F(1, 12)


def test_witness_evaluations_frozen():
    for k, count, min_lower in ((1, 11, F(1, 72)), (2, 143, F(1, 864))):
        s = furstenberg_family(k)
        evs = h3_witness_evaluations(s)
        assert len(evs) == count
        lows = [e.lower_bound for e in evs]
        assert min(lows) == min_lower
        assert min(lows) >= s.level
        for e in evs:
            # 1/t >= 1 on (0,1], so the value dominates the clipped measure
            assert e.diverges or e.value >= float(e.lower_bound) * (1 - 1e-12)
            assert not e.diverges  # witness base points stay away from t=0


def test_witness_support_is_pointwise_form_set():
    s = furstenberg_family(1)
    first, second, third = s.factors
    for x in base_points(s.witness_spec):
        if x >= 0:
            continue
        sup = h3_support(x, first, second, third)
        raw = form_time_set([first, second, third], [1, 2, 3], x)
        assert sup == raw.clip(0, max(iv.hi for iv in raw.intervals))


def test_support_is_the_time_set_clipped_to_positive_t():
    # under the preconditions x + 2t >= 0 forces t >= -x/2 >= 0, so clipping
    # the time set to t > 0 (the oracle below) changes no piece
    rnd = random.Random(712)

    def union(lo):
        if rnd.random() < 0.1:
            return EMPTY
        starts = sorted(F(rnd.randint(lo * 12, 12), 12) for _ in range(2 * rnd.randint(1, 4)))
        return normalize(zip(starts[::2], (b + F(1, 24) for b in starts[1::2])))

    at_zero = 0
    for _ in range(400):
        x = 0 if rnd.random() < 0.2 else -F(rnd.randint(0, 36), rnd.randint(1, 12))
        first, second, third = union(-1), union(0), union(-1)
        t_set = form_time_set([first, second, third], [1, 2, 3], x)
        want = _grid_union([(max(lo, 0), hi) for lo, hi in t_set.nums if hi > 0], t_set.den)
        sup = h3_support(x, first, second, third)
        assert sup == want
        at_zero += bool(sup.nums) and sup.nums[0][0] == 0
    assert at_zero


def test_support_reads_each_family_near_the_support(monkeypatch):
    # the time set starts from the meet of the three families' t-hulls, so
    # each family is read in a narrow window, not whole: the pieces handed to
    # the meeting kernel per point, at every 7th negative k=4 witness point
    # (mean 269 when the first family was read whole, 84 from the window)
    s = furstenberg_family(4)
    points = [x for x in base_points(s.witness_spec) if x < 0][::7]
    received, meet = [], averages._pair_isect

    def spy(a, b, *args):
        received[-1] += len(a) + len(b)
        return meet(a, b, *args)

    monkeypatch.setattr(averages, "_pair_isect", spy)
    for x in points:
        received.append(0)
        h3_support(x, *s.factors)
    assert len(received) == 2963
    assert sum(received) / len(received) < 150 and max(received) < 200


def test_ratio_series_matches_triple_average_series():
    for p in (1.1, 1.2789, 1.5, 2.0):
        h3 = h3_ratio_series(p, 6)
        thm1 = blowup_series("thm1", p, 6)
        assert h3.threshold == thm1.threshold
        for a, b in zip(h3.step_ratios, thm1.step_ratios):
            assert abs(a - b) < 1e-12
        assert h3.verdict == thm1.verdict


def test_ratio_series_normalization_shift():
    p = 1.3
    leb = h3_ratio_series(p, 5, normalization="lebesgue")
    nor = h3_ratio_series(p, 5, normalization="normalized")
    shift = 8 ** (1 / p)
    for a, b in zip(nor.values, leb.values):
        assert abs(a / b - shift) < 1e-12 * shift
    for a, b in zip(nor.step_ratios, leb.step_ratios):
        assert abs(a - b) < 1e-12
    assert leb.verdict == nor.verdict


def test_normalized_ratio_series_closed_form():
    # value_k = 8^(-1/p) * 24^(k/p) / (8*12^k) with mass-1 factor measures
    for p in (1.05, 1.2789, 1.5, 1.9, 2.5):
        ser = h3_ratio_series(p, 8, normalization="normalized")
        for k, v in zip(ser.indices, ser.values):
            want = 8 ** (-1 / p) * 24 ** (k / p) / (8 * 12**k)
            assert abs(v - want) <= 1e-12 * want


def test_series_columns_consistency():
    p = 1.25
    ser = h3_ratio_series(p, 4)
    cols = h3_series_columns(p, 4)
    assert [k for k, *_ in cols] == list(ser.indices)
    for (k, bound, norms), v in zip(cols, ser.values):
        assert bound / norms == pytest.approx(v, rel=1e-12)


def test_series_validation():
    with pytest.raises(ValueError):
        h3_ratio_series(0, 4)
    with pytest.raises(ValueError):
        h3_ratio_series(1.2, 1)
    with pytest.raises(ValueError, match=f"kmax {MAX_KMAX + 1} .* cap of {MAX_KMAX}"):
        h3_ratio_series(1.2, MAX_KMAX + 1)
    with pytest.raises(ValueError):
        h3_ratio_series(1.2, 4, normalization="plain")
    with pytest.raises(ValueError):
        h3_series_columns(1.2, 4, normalization="plain")


def test_series_columns_refuse_what_the_series_refuses(monkeypatch):
    # the series' own check runs before any row: a kmax of 10^9 would build
    # 10^9 rows, so building one fails the test instead
    def no_rows(*args):
        raise AssertionError("rows built before the series check")

    monkeypatch.setattr(hilbert, "_h3_log_terms", no_rows)
    with pytest.raises(ValueError, match=f"kmax {10**9} is above the cap of {MAX_KMAX} terms"):
        h3_series_columns(1.2, 10**9)
    with pytest.raises(ValueError, match="need kmax >= 2"):
        h3_series_columns(1.2, 1)
    for p in (0, -1.5):
        with pytest.raises(ValueError, match="p must be positive"):
            h3_series_columns(p, 4)
