"""Interval-union algebra against brute-force cell oracles."""

import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab import digitsets
from divlab.averages import discrete_superlevel, sweep_superlevel, wrap_translate
from divlab.hilbert import h3_support
from divlab.intervals import (
    EMPTY,
    Interval,
    IntervalUnion,
    PiecewiseLinear,
    StepFunction,
    _grid_union,
    _superlevel,
    common_denominator,
    normalize,
    rat,
    rat_str,
    real,
)
from divlab.scenarios import cube_family, furstenberg_family
from superlevel_reference import fraction_superlevel


# --- oracles -----------------------------------------------------------------


def oracle_member(pairs, x):
    return any(lo <= x < hi for lo, hi in pairs)


def oracle_cells(*pair_lists):
    """Elementary cells of the endpoint grid, tagged with per-list membership."""
    pts = sorted({p for pairs in pair_lists for pair in pairs for p in pair})
    cells = []
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        cells.append((a, b, tuple(oracle_member(pairs, mid) for pairs in pair_lists)))
    return cells


def oracle_measure(pairs):
    return sum(((b - a) for a, b, tags in oracle_cells(pairs) if tags[0]), start=F(0))


def rnd_fraction(rnd, span=24, den=8):
    return F(rnd.randint(-span, span), rnd.randint(1, den))


def rnd_pairs(rnd, max_pieces=6):
    pairs = []
    for _ in range(rnd.randint(0, max_pieces)):
        a, b = rnd_fraction(rnd), rnd_fraction(rnd)
        if a > b:
            a, b = b, a
        pairs.append((a, b))
    return pairs


# --- canonical form ----------------------------------------------------------


def test_normalize_matches_cell_oracle():
    rnd = random.Random(9001)
    for _ in range(300):
        pairs = rnd_pairs(rnd)
        u = normalize(pairs)
        # canonical: sorted, disjoint, gaps are real gaps
        for a, b in zip(u.intervals, u.intervals[1:]):
            assert a.hi < b.lo
        assert u.measure() == oracle_measure(pairs)
        for _ in range(20):
            x = rnd_fraction(rnd, span=30, den=16)
            assert (x in u) == oracle_member(pairs, x)


def test_membership_matches_linear_scan():
    # probes: every endpoint, every piece and gap midpoint, and both sides of
    # the span
    rnd = random.Random(5150)
    for _ in range(300):
        u = normalize(rnd_pairs(rnd))
        ends = [e for pair in u.pairs for e in pair]
        probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        probes += [ends[0] - 1, ends[-1] + 1] if ends else [F(0)]
        for x in probes:
            assert (x in u) == oracle_member(u.pairs, x)


def test_intervals_view_matches_pairs():
    rnd = random.Random(6160)
    for _ in range(100):
        u = normalize(rnd_pairs(rnd))
        assert u.intervals == tuple(Interval(lo, hi) for lo, hi in u.pairs)
    assert EMPTY.intervals == EMPTY.pairs == ()


def test_normalize_merges_touching():
    u = normalize([(0, F(1, 2)), (F(1, 2), 1)])
    assert u.pairs == ((F(0), F(1)),)
    assert normalize([(0, 0), (1, 1)]) == EMPTY


def test_normalize_rejects_inverted():
    with pytest.raises(ValueError):
        normalize([(1, 0)])
    with pytest.raises(ValueError):
        Interval(F(1), F(1))


def test_rat_coercions():
    assert rat("3/7") == F(3, 7)
    assert rat(5) == F(5)
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat_str(F(-1, 96)) == "-1/96"
    assert rat_str(0) == "0/1"
    assert real(F(1, 3)) == real(F(1, 3))  # deterministic rounding
    assert real(F(1, 2)) == 0.5


# --- set algebra -------------------------------------------------------------


def test_union_intersect_match_oracle():
    rnd = random.Random(4242)
    for _ in range(200):
        pa, pb = rnd_pairs(rnd), rnd_pairs(rnd)
        a, b = normalize(pa), normalize(pb)
        both = a.intersect(b)
        either = a.union(b)
        for lo, hi, (in_a, in_b) in oracle_cells(pa, pb):
            mid = (lo + hi) / 2
            assert (mid in both) == (in_a and in_b)
            assert (mid in either) == (in_a or in_b)
        # inclusion-exclusion is exact
        assert a.measure() + b.measure() == either.measure() + both.measure()


def test_subset_relations():
    rnd = random.Random(77)
    for _ in range(200):
        pa, pb = rnd_pairs(rnd), rnd_pairs(rnd)
        a, b = normalize(pa), normalize(pb)
        both = a.intersect(b)
        assert both.issubset(a) and both.issubset(b)
        assert a.issubset(a.union(b))
        # oracle: subset iff no cell lies in a but outside b
        cell_subset = all(
            in_b for _, _, (in_a, in_b) in oracle_cells(pa, pb) if in_a
        )
        assert a.issubset(b) == cell_subset


def test_affine_translate_clip():
    rnd = random.Random(1331)
    for _ in range(150):
        pairs = rnd_pairs(rnd)
        u = normalize(pairs)
        a = F(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 4))
        b = rnd_fraction(rnd)
        img = u.affine(a, b)
        assert img.measure() == abs(a) * u.measure()
        for _ in range(12):
            x = rnd_fraction(rnd, span=30, den=16)
            # half-open orientation flips under a < 0; compare off-boundary only
            y = a * x + b
            if any(y == e for iv in img.intervals for e in (iv.lo, iv.hi)):
                continue
            assert (y in img) == (x in u)
        assert u.translate(b) == u.affine(F(1), b)
        lo, hi = sorted((rnd_fraction(rnd), rnd_fraction(rnd)))
        if lo < hi:
            assert u.clip(lo, hi) == u.intersect(normalize([(lo, hi)]))


def test_json_round_trip():
    rnd = random.Random(55)
    for _ in range(50):
        u = normalize(rnd_pairs(rnd))
        assert IntervalUnion.from_json(u.to_json()) == u
    assert normalize([(F(-1, 96), F(1, 3))]).to_json() == [["-1/96", "1/3"]]


# --- piecewise-linear and step functions ------------------------------------


def on_grid(qs):
    """Fractions as their int numerators over one common denominator."""
    den = common_denominator(qs)
    return tuple(int(q * den) for q in qs), den


def pl(xs, ys):
    """The PiecewiseLinear through the Fraction points (xs[i], ys[i])."""
    (x_nums, x_den), (y_nums, y_den) = on_grid(xs), on_grid(ys)
    return PiecewiseLinear(x_nums, y_nums, x_den, y_den)


def step(xs, values):
    """The StepFunction with Fraction value values[i] on [xs[i], xs[i+1])."""
    (x_nums, x_den), (y_nums, y_den) = on_grid(xs), on_grid(values)
    return StepFunction(x_nums, y_nums, x_den, y_den)


def rnd_pl(rnd):
    xs = sorted({rnd_fraction(rnd, span=12, den=4) for _ in range(rnd.randint(2, 7))})
    while len(xs) < 2:
        xs.append(xs[-1] + 1)
    ys = [rnd_fraction(rnd, span=6, den=6) for _ in xs]
    return pl(xs, ys)


def test_piecewise_linear_evaluation():
    f = pl((F(0), F(2)), (F(0), F(1)))
    assert f(F(1)) == F(1, 2)
    assert f(F(-5)) == F(0) and f(F(7)) == F(1)  # constant outside the span
    with pytest.raises(ValueError):
        pl((F(0), F(0)), (F(1), F(1)))
    # held in lowest terms, so the same function on a finer grid is equal
    assert PiecewiseLinear((0, 4), (0, 6), 2, 6) == f
    assert (f.x_nums, f.y_nums, f.x_den, f.y_den) == ((0, 2), (0, 1), 1, 1)
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 1), (0, 1), 0, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: PiecewiseLinear((), ()), "breakpoints and values must match and be nonempty"),
    (lambda: PiecewiseLinear((0, 1), (0,)), "breakpoints and values must match and be nonempty"),
    (lambda: StepFunction((0,), ()), "need n+1 boundaries for n cells"),
    (lambda: normalize([(0, 1)]).affine(0, 1), "affine image requires a != 0"),
])
def test_degenerate_functions_and_maps_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("kind, xs, ys", [
    (PiecewiseLinear, [0, 2, 2, 5], [0, 1, 2, 3]),
    (PiecewiseLinear, [0, 3, 1], [0, 1, 2]),
    (StepFunction, [-4, -4, 1], [1, 2]),
    (StepFunction, [-4, 1, 0, 6], [1, 2, 3]),
], ids=["linear-repeated", "linear-decreasing", "step-repeated", "step-decreasing"])
@pytest.mark.parametrize("dtype, unit", [(np.int64, 1), (object, 1), (object, 2**70)],
                         ids=["int64", "object", "object-past-2^62"])
def test_array_built_functions_refuse_what_tuples_refuse(kind, xs, ys, dtype, unit):
    # _of_arrays checks the breakpoints in numpy and raises the tuple
    # constructor's error
    xs = [x * unit for x in xs]
    with pytest.raises(ValueError) as tuples:
        kind(tuple(xs), tuple(ys), 3, 7)
    with pytest.raises(ValueError) as arrays:
        kind._of_arrays(np.array(xs, dtype=dtype), np.array(ys, dtype=dtype), 3, 7)
    assert str(arrays.value) == str(tuples.value) == "breakpoints must be strictly increasing"


@pytest.mark.parametrize("dtype, unit", [(np.int64, 1), (object, 1), (object, 2**70)],
                         ids=["int64", "object", "object-past-2^62"])
def test_array_built_function_equals_its_tuple_twin(dtype, unit):
    # an array-built function holds its arrays, builds its tuple views only on
    # first use, and equals its tuple-built twin before and after
    xs, ys = [-6 * unit, 0, 4 * unit, 10 * unit], [2, 8, -4, 0]
    for kind, values in ((PiecewiseLinear, ys), (StepFunction, ys[:-1])):
        twin = kind(tuple(xs), tuple(values), 4, 6)
        f = kind._of_arrays(np.array(xs, dtype=dtype), np.array(values, dtype=dtype), 4, 6)
        assert not {"x_nums", "y_nums"} & vars(f).keys()
        assert len(f) == len(twin) == 4
        assert f.superlevel(F(1, 3)) == twin.superlevel(F(1, 3))
        assert not {"x_nums", "y_nums"} & vars(f).keys()
        assert f == twin and twin == f and hash(f) == hash(twin)
        assert (f.x_nums, f.y_nums, f.x_den, f.y_den) == (twin.x_nums, twin.y_nums, twin.x_den, twin.y_den)
        assert f == twin and f.xs == twin.xs and f(F(1, 2)) == twin(F(1, 2))
        assert f != kind._of_arrays(np.array(xs, dtype=dtype), np.array(values, dtype=dtype), 4, 5)
    with pytest.raises(AttributeError):
        twin.x_den = 1


@pytest.mark.parametrize("unit", [1, 2**70], ids=["int64", "object"])
def test_constructor_and_array_twin_hold_the_same_attributes(unit):
    # one constructor path: a function built from ints holds the arrays and
    # denominators that its _of_arrays twin holds, and neither builds its
    # tuple views before they are read
    xs, ys = [-6 * unit, 0, 4 * unit, 10 * unit], [2, 8, -4, 0]
    for kind, values in ((PiecewiseLinear, ys), (StepFunction, ys[:-1])):
        built = kind(tuple(xs), tuple(values), 4, 6)
        twin = kind._of_arrays(np.array(xs, dtype=built._arrays[0].dtype), np.array(values), 4, 6)
        assert vars(built).keys() == vars(twin).keys() == {"_arrays", "x_den", "y_den"}
        for a, b in zip(built._arrays, twin._arrays):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert (built.x_den, built.y_den) == (twin.x_den, twin.y_den) == (2 if unit == 1 else 1, 3)
        assert built.x_nums == twin.x_nums and "x_nums" in vars(built).keys() & vars(twin).keys()
    with pytest.raises(TypeError):
        PiecewiseLinear((0, 1.5), (0, 1))


def test_piecewise_superlevel_against_sampling():
    rnd = random.Random(2718)
    for _ in range(200):
        f = rnd_pl(rnd)
        level = rnd_fraction(rnd, span=6, den=6)
        sup = f.superlevel(level)
        assert sup.issubset(normalize([(f.xs[0], f.xs[-1])]))
        # strict comparisons are unambiguous at every sample point
        for _ in range(30):
            t = f.xs[0] + (f.xs[-1] - f.xs[0]) * F(rnd.randint(0, 512), 512)
            v = f(t)
            if v > level:
                assert t in sup or t == f.xs[-1]
            elif v < level:
                assert t not in sup


def test_piecewise_superlevel_exact_crossings():
    f = pl((F(0), F(1), F(2)), (F(0), F(1), F(0)))
    assert f.superlevel(F(1, 2)).pairs == ((F(1, 2), F(3, 2)),)
    # isolated touch point carries no measure and is omitted
    assert f.superlevel(F(1)) == EMPTY
    assert f.superlevel(F(2)) == EMPTY
    assert f.superlevel(F(0)).pairs == ((F(0), F(2)),)


def test_step_function_superlevel():
    rnd = random.Random(31415)
    for _ in range(200):
        xs = sorted({rnd_fraction(rnd, span=12, den=4) for _ in range(rnd.randint(2, 7))})
        if len(xs) < 2:
            continue
        vals = [rnd_fraction(rnd, span=4, den=8) for _ in xs[:-1]]
        g = step(xs, vals)
        assert StepFunction(tuple(2 * n for n in g.x_nums), g.y_nums, 2 * g.x_den, g.y_den) == g
        level = rnd_fraction(rnd, span=4, den=8)
        expected = normalize(
            (xs[i], xs[i + 1]) for i, v in enumerate(vals) if v >= level
        )
        assert g.superlevel(level) == expected
        for _ in range(10):
            t = rnd_fraction(rnd, span=14, den=16)
            if xs[0] <= t < xs[-1]:
                i = max(j for j in range(len(xs)) if xs[j] <= t)
                assert g(t) == vals[i]
            else:
                assert g(t) == 0


def pointwise_superlevel(f, level):
    """{f >= level} from f's value at the middle of each cell between its
    breakpoints and level crossings; f - level keeps its sign on every cell."""
    pts = set(f.xs)
    if isinstance(f, PiecewiseLinear):
        for x0, x1, y0, y1 in zip(f.xs, f.xs[1:], f.ys, f.ys[1:]):
            if (y0 - level) * (y1 - level) < 0:
                pts.add((x0 * (y1 - level) - x1 * (y0 - level)) / (y1 - y0))
    pts = sorted(pts)
    return normalize((a, b) for a, b in zip(pts, pts[1:]) if f((a + b) / 2) >= level)


def superlevel_tie_cases():
    """Explicit ties, then seeded functions whose values and levels share a
    small grid, so plateaus at the level and crossings on breakpoints abound."""
    xs = (F(0), F(1), F(2), F(3))
    yield pl(xs, (F(0), F(1), F(1), F(0))), F(1)  # plateau at the level
    yield pl(xs[:3], (F(0), F(1), F(0))), F(1)  # touch at a breakpoint
    yield pl(xs[:3], (F(2), F(1), F(0))), F(1)  # crossing on a breakpoint
    yield pl(xs[:2], (F(1), F(0))), F(1)  # zero-length piece only
    yield pl((F(5),), (F(1),)), F(0)  # single breakpoint
    yield step(xs, (F(1), F(1, 2), F(1))), F(1)
    for level in (F(0), F(-1)):
        yield step(xs, (F(0), F(1, 3), F(0))), level  # level <= 0
    rnd = random.Random(1618)
    grid = [F(n, 2) for n in range(-2, 3)]
    for _ in range(400):
        xs = sorted({F(rnd.randint(-8, 8), rnd.randint(1, 3)) for _ in range(rnd.randint(1, 7))})
        ys = [rnd.choice(grid) for _ in xs]
        level = rnd.choice(grid)
        yield pl(xs, ys), level
        if len(xs) > 1:
            yield step(xs, ys[:-1]), level


def integer_superlevel(f, level):
    """The superlevel pairs of f cut on integers: breakpoints over one scale,
    values and level over another, as the sweeps cut theirs."""
    ys = f.ys if isinstance(f, PiecewiseLinear) else f.values
    dx = 3 * common_denominator(f.xs)
    dy = 5 * common_denominator([*ys, level])
    xs, ys = np.array([int(x * dx) for x in f.xs]), np.array([int(y * dy) for y in ys])
    left, right = (ys[:-1], ys[1:]) if isinstance(f, PiecewiseLinear) else (ys, ys)
    lo, hi, m = _superlevel(xs, left, right, int(level * dy))
    return list(zip(lo.tolist(), hi.tolist())), dx * m, m


def test_superlevel_with_ties_matches_pointwise_oracle():
    cases = crossings = 0
    for f, level in superlevel_tie_cases():
        sup = f.superlevel(level)
        assert sup == pointwise_superlevel(f, level), (f, level)
        assert sup == normalize(sup.pairs)
        # the same cut on the integer-scaled copy: every endpoint, crossings
        # included, is an int on the refined grid 1/(dx m), never a Fraction
        # or a float; m > 1 only where a crossing falls off the grid 1/dx
        pairs, scale, m = integer_superlevel(f, level)
        ends = [e for pair in pairs for e in pair]
        assert all(type(e) is int for e in ends), (f, level, pairs)
        assert _grid_union(pairs, scale) == sup, (f, level)
        crossings += sum(e % m != 0 for e in ends)
        cases += 1
    assert cases > 500 and crossings > 50
    xs = (F(0), F(1), F(2), F(3))
    assert pl(xs, (F(0), F(1), F(1), F(0))).superlevel(1).pairs == ((F(1), F(2)),)
    assert pl(xs[:3], (F(2), F(1), F(0))).superlevel(1).pairs == ((F(0), F(1)),)
    assert pl(xs[:2], (F(1), F(0))).superlevel(1) == EMPTY
    assert pl((F(5),), (F(1),)).superlevel(0) == EMPTY
    assert step(xs, (F(0), F(1, 3), F(0))).superlevel(-1).pairs == ((F(0), F(3)),)


def test_superlevel_cut_pins():
    # one breakpoint has no cell: nothing is cut, on either side of the level
    xs = np.array([5])
    for level in (-1, 0, 1):
        lo, hi, m = _superlevel(xs, xs[:0], xs[:0], level)
        assert (lo.tolist(), hi.tolist(), m) == ([], [], 1)
    assert PiecewiseLinear((5,), (1,)).superlevel(0) == EMPTY
    assert PiecewiseLinear._of_arrays(np.array([5]), np.array([1])).superlevel(0) == EMPTY
    # the values at all n + 1 breakpoints are no cells' left ends: the cut
    # refuses them instead of reading the first n
    xs, ys = np.array([0, 1, 2]), np.array([1, -1, 1])
    with pytest.raises(ValueError, match="one left and one right value per cell"):
        _superlevel(xs, ys, ys[1:], 0)
    lo, hi, m = _superlevel(xs, ys[:-1], ys[1:], 0)
    assert (lo.tolist(), hi.tolist(), m) == ([0, 3], [1, 4], 2)
    # a one-cell step function, and one cut past int64 by its level alone
    assert StepFunction((0, 3), (1,)).superlevel(1).pairs == ((F(0), F(3)),)
    assert StepFunction((0, 3), (1,)).superlevel(F(2**70 + 1, 2**70)) == EMPTY


@st.composite
def cut_cases(draw):
    """(xs, left, right, level) of a cut: a piecewise-linear or step function
    on sorted int breakpoints, at one of four magnitudes.  Values come from
    a few small ints or anywhere in range, and the level is often one of
    them, so ties, touch points and crossings on breakpoints abound; at 2^32
    the crossing denominators are large and their lcm pushes the endpoints
    past 2^62, at 2^62 int64 inputs span past 2^63, and at 2^70 the inputs
    themselves are Python ints."""
    size = draw(st.sampled_from((8, 2**32, 2**62, 2**70)))
    n = draw(st.integers(0, 7))
    xs = sorted(draw(st.sets(st.integers(-size, size), min_size=n + 1, max_size=n + 1)))
    ys = draw(st.lists(st.integers(-2, 2) | st.integers(-size, size), min_size=n + 1, max_size=n + 1))
    level = draw(st.sampled_from(ys) | st.fractions(-size, size, max_denominator=draw(
        st.sampled_from((1, 3, 2**40)))))
    left, right = (ys[:-1], ys[1:]) if draw(st.booleans()) else (ys[:-1], ys[:-1])
    return xs, left, right, F(level)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cut_cases(), st.booleans())
@example(([0], [], [], F(0)), False)  # one breakpoint
@example(([0, 1, 2, 3], [0, 1, 1], [1, 1, 0], F(1)), False)  # plateau at the level
@example(([0, 1, 2], [0, 1], [1, 0], F(1)), False)  # touch point on a breakpoint
@example(([0, 1, 2], [2, 1], [1, 0], F(1)), False)  # crossing on a breakpoint
@example(([0, 2**31, 2**32], [-(2**31 - 1), 2**32 - 5], [2**32 - 5, -(2**31 - 19)], F(0)), False)
@example(([-(2**62), 2**62], [2**63 - 1], [-(2**63 - 1)], F(1, 3)), False)  # int64 spans past 2^63
def test_superlevel_cut_matches_fraction_superlevel(case, as_objects):
    # the numpy cut gives the Fraction reference's fused pieces exactly, on
    # int64 or object arrays alike; endpoints past 2^62 come back as Python ints
    xs, left, right, level = case
    dtype = object if as_objects or max(map(abs, xs + left + right)) >= 2**63 else np.int64
    lo, hi, m = _superlevel(*(np.array(v, dtype=dtype) for v in (xs, left, right)), level)
    ends = lo.tolist() + hi.tolist()
    assert all(type(e) is int for e in ends)
    got = [(F(a, m), F(b, m)) for a, b in zip(lo.tolist(), hi.tolist())]
    assert got == [(F(a), F(b)) for a, b in fraction_superlevel(xs, left, right, level)]
    if max(map(abs, ends), default=0) >= 2**62:
        assert lo.dtype == hi.dtype == object
    # the same cut through the function classes, built from tuples or from arrays
    x_den, y_den = 3, 7
    if right == left and xs[1:]:
        kind, ys = StepFunction, left
    else:  # one breakpoint makes a piecewise-linear function with no cell
        kind, ys = PiecewiseLinear, [*left, *right[-1:]] or [0]
    f = kind(tuple(xs), tuple(ys), x_den, y_den)
    sup = normalize((a / x_den, b / x_den) for a, b in got)
    assert f.superlevel(level / y_den) == sup
    g = kind._of_arrays(np.array(xs, dtype=dtype), np.array(ys, dtype=dtype), x_den, y_den)
    assert g == f and g.superlevel(level / y_den) == sup


LARGE_PRIME = 2**61 - 1


def grid_superlevel_cases():
    """Seeded functions on random integer grids, each with a level that is a
    breakpoint value (crossings on breakpoints, flat runs, touch points), a
    small-denominator rational (crossings off the grid) or a rational over a
    large prime; values and levels take both signs."""
    rnd = random.Random(60221)
    for _ in range(1500):
        n = rnd.randint(2, 10)
        x_nums = sorted(rnd.sample(range(-50, 50), n))
        y_nums = [rnd.randint(-15, 15) for _ in range(n)]
        y_den = rnd.randint(1, 9)
        kind = rnd.randrange(3)
        if kind == 0:
            at = rnd.choice(y_nums)
            for i in rnd.sample(range(n), rnd.randint(0, n // 2)):
                y_nums[i] = at
            level = F(at, y_den)
        elif kind == 1:
            level = F(rnd.randint(-60, 60), y_den * rnd.randint(1, 4))
        else:
            level = F(rnd.randint(-15 * LARGE_PRIME, 15 * LARGE_PRIME), y_den * LARGE_PRIME)
        yield PiecewiseLinear(tuple(x_nums), tuple(y_nums), rnd.randint(1, 9), y_den), level


def test_piecewise_superlevel_on_integer_grids_matches_references():
    seen = dict.fromkeys(
        ("off-grid crossing", "crossing on a breakpoint", "flat run at the level",
         "touch point", "fractional slope", "negative level", "large prime"), 0)
    for f, level in grid_superlevel_cases():
        sup = f.superlevel(level)
        assert sup == normalize(fraction_superlevel(f.xs, f.ys, f.ys[1:], level)), (f, level)
        assert sup == pointwise_superlevel(f, level), (f, level)
        xs, ys = f.xs, f.ys
        for i, (x0, x1, y0, y1) in enumerate(zip(xs, xs[1:], ys, ys[1:])):
            if (y0 - level) * (y1 - level) < 0:
                c = x0 + (level - y0) * (x1 - x0) / (y1 - y0)
                seen["off-grid crossing"] += (c * f.x_den).denominator != 1
            seen["flat run at the level"] += y0 == y1 == level
            seen["fractional slope"] += F(f.y_nums[i + 1] - f.y_nums[i],
                                          f.x_nums[i + 1] - f.x_nums[i]).denominator != 1
        for y_prev, y, y_next in zip(ys, ys[1:], ys[2:]):
            if y == level:
                seen["crossing on a breakpoint"] += (y_prev - level) * (y_next - level) < 0
                seen["touch point"] += y_prev < level and y_next < level
        seen["negative level"] += level < 0
        seen["large prime"] += level.denominator % LARGE_PRIME == 0
    assert min(seen.values()) > 50, seen


# --- the Fraction-pair operations as reference --------------------------------
# Unions used to hold their pieces as (lo, hi) Fraction pairs, and every
# operation ran on them; these are those operations, over pair tuples.


def reference_normalize(pairs):
    items = sorted((F(lo), F(hi)) for lo, hi in pairs if F(lo) < F(hi))
    merged = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def reference_intersect(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def reference_union(a, b):
    return reference_normalize(a + b)


def reference_affine(pairs, a, b):
    if a > 0:
        return tuple((a * lo + b, a * hi + b) for lo, hi in pairs)
    return tuple((a * hi + b, a * lo + b) for lo, hi in reversed(pairs))


def reference_clip(pairs, lo, hi):
    return reference_intersect(pairs, ((lo, hi),)) if lo < hi else ()


def reference_measure(pairs):
    return sum((hi - lo for lo, hi in pairs), F(0))


def reference_in(pairs, x):
    return any(lo <= x < hi for lo, hi in pairs)


DENOMINATORS = (1, 2, 3, 5, 6, 7, 8, 12, 16, 96, 1152)


def rnd_mixed(rnd):
    """A rational with a denominator drawn from DENOMINATORS."""
    den = rnd.choice(DENOMINATORS)
    return F(rnd.randint(-4 * den, 4 * den), den)


def rnd_mixed_pairs(rnd):
    pairs = []
    for _ in range(rnd.randint(0, 7)):
        a, b = sorted((rnd_mixed(rnd), rnd_mixed(rnd)))
        pairs.append((a, b))
    return pairs


def assert_canonical(u):
    """den >= 1 in lowest terms with the int endpoints, pieces sorted,
    disjoint and non-touching, and an empty union equal to EMPTY."""
    ends = [e for pair in u.nums for e in pair]
    assert type(u.nums) is tuple and all(type(pair) is tuple for pair in u.nums), u
    assert type(u.den) is int and u.den >= 1, u
    assert all(type(e) is int for e in ends), u
    assert all(a < b for a, b in zip(ends, ends[1:])), u
    assert math.gcd(u.den, *ends) == 1, u
    if not ends:
        assert u == EMPTY


def test_union_ops_match_fraction_reference():
    rnd = random.Random(20260)
    rounds = 0
    for _ in range(400):
        pa, pb = rnd_mixed_pairs(rnd), rnd_mixed_pairs(rnd)
        a, b = normalize(pa), normalize(pb)
        ra, rb = reference_normalize(pa), reference_normalize(pb)
        assert a.pairs == ra and b.pairs == rb
        both, either = a.intersect(b), a.union(b)
        assert both.pairs == reference_intersect(ra, rb)
        assert either.pairs == reference_union(ra, rb)
        assert a.issubset(b) == (reference_intersect(ra, rb) == ra)
        assert b.issubset(a) == (reference_intersect(rb, ra) == rb)
        assert both.issubset(a) and both.issubset(b) and a.issubset(either)
        # negative and non-integer scales and shifts
        s = F(rnd.choice([-7, -3, -2, -1, 1, 2, 3, 5]), rnd.choice([1, 2, 3, 4, 12]))
        t = rnd_mixed(rnd)
        img = a.affine(s, t)
        assert img.pairs == reference_affine(ra, s, t)
        assert a.translate(t).pairs == reference_affine(ra, F(1), t)
        lo, hi = rnd_mixed(rnd), rnd_mixed(rnd)
        cut = a.clip(lo, hi)
        assert cut.pairs == reference_clip(ra, lo, hi)
        for u, ref in ((a, ra), (both, both.pairs), (either, either.pairs), (img, img.pairs)):
            assert u.measure() == reference_measure(ref)
            assert json.dumps(u.to_json()) == json.dumps([[rat_str(x), rat_str(y)] for x, y in ref])
        for u in (a, b, both, either, img, cut):
            assert_canonical(u)
        # points on and off the union's grid: endpoints, their neighbours at
        # a finer step, and denominators the union does not use
        probes = [e for pair in ra for e in pair]
        probes += [e + F(d, 7 * a.den * 11) for e in probes for d in (-1, 1)]
        probes += [F(rnd.randint(-500, 500), rnd.choice([13, 17, 97, 7 * 1152])) for _ in range(8)]
        for x in probes:
            assert (x in a) == reference_in(ra, x), (a, x)
        rounds += 1
    assert rounds >= 300


def test_union_den_is_reduced_after_a_clip():
    # [-1/6, 1/3) clipped to [0, 1) drops the only endpoint needing sixths
    u = normalize([(F(-1, 6), F(1, 3))])
    assert (u.nums, u.den) == (((-1, 2),), 6)
    cut = u.clip(0, 1)
    assert (cut.nums, cut.den) == (((0, 1),), 3) and cut.pairs == ((F(0), F(1, 3)),)
    assert u.clip(1, 2) == EMPTY and (EMPTY.nums, EMPTY.den) == ((), 1)
    assert normalize([(F(2), F(4))]).den == 1 and normalize([(F(1, 2), 1)]).affine(2, 0).den == 1


def test_clip_trims_pieces_straddling_its_ends():
    u = normalize([(F(-3, 2), F(-7, 8)), (F(-1, 2), F(-1, 3)), (F(-1, 5), F(1, 4)), (F(1, 2), 1)])
    assert u.clip(-1, 0).pairs == ((F(-1), F(-7, 8)), (F(-1, 2), F(-1, 3)), (F(-1, 5), F(0)))
    # ends off the union's grid refine it; one piece may straddle both ends
    assert u.clip(F(-9, 10), F(1, 7)).pairs == (
        (F(-9, 10), F(-7, 8)), (F(-1, 2), F(-1, 3)), (F(-1, 5), F(1, 7)))
    assert u.clip(F(-2, 5), F(-3, 8)).pairs == ((F(-2, 5), F(-3, 8)),)
    assert u.clip(F(-7, 8), F(-1, 2)) == u.clip(F(1, 4), F(1, 2)) == EMPTY
    inside = u.clip(-1, 0)
    assert inside.clip(-1, 0) is inside
    # the claim witness shifted so that a piece straddles -1, or 0
    for k in (1, 2):
        w = furstenberg_family(k).witness
        tail = F(1, 8 * 12**k)
        for shift in (-tail / 2, F(-1, 12**k) - tail / 2):
            moved = w.translate(shift)
            assert moved.clip(-1, 0).pairs == reference_clip(moved.pairs, F(-1), F(0))
            assert_canonical(moved.clip(-1, 0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_claim_witness_containment_fails_under_each_mutation(k):
    # every witness piece starts one unit of the superlevel grid after the
    # start of its superlevel piece: dropping that piece, or moving its left
    # end in by one unit of the witness grid (two of the superlevel grid),
    # must make issubset False; moving it in by one superlevel unit leaves
    # the witness piece starting exactly there, still contained
    s = furstenberg_family(k)
    sup = sweep_superlevel(s.factors, s.coefficients, s.level, (-1, 0)).superlevel
    w = s.witness.clip(-1, 0)
    assert w.issubset(sup)
    nums, den = sup.nums, sup.den
    assert den % w.den == 0
    unit = den // w.den
    picks = range(len(nums)) if k < 3 else random.Random(1728).sample(range(len(nums)), 200)
    failed = 0
    for i in picks:
        lo, hi = nums[i]
        meets = not w.clip(F(lo, den), F(hi, den)).is_empty()
        rest = nums[:i], nums[i + 1:]
        dropped = _grid_union(rest[0] + rest[1], den)
        moved = _grid_union(rest[0] + ((lo + unit, hi),) + rest[1], den)
        touching = _grid_union(rest[0] + ((lo + 1, hi),) + rest[1], den)
        assert w.issubset(dropped) is w.issubset(moved) is (not meets), i
        assert w.issubset(touching), i
        if k < 3:  # the former definition: A is in B iff A & B == A
            assert w.issubset(dropped) is (w.intersect(dropped) == w), i
            assert w.issubset(moved) is (w.intersect(moved) == w), i
        failed += meets
    assert failed >= len(picks) - 1


def test_package_unions_are_canonical():
    rnd = random.Random(4711)
    out = []
    for k in (1, 2):
        scen = furstenberg_family(k)
        out += [*scen.factors, scen.witness]
        res = sweep_superlevel(scen.factors, scen.coefficients, scen.level, (-1, 0))
        out.append(res.superlevel)
        for topology in ("line", "circle"):
            out.append(discrete_superlevel(scen.factors, scen.coefficients, 96 * k, scen.level,
                                           (-1, 0), topology=topology).superlevel)
        for x in digitsets.base_points(scen.witness_spec)[:40] + [F(0), F(-1, 7)]:
            if x <= 0:
                out.append(h3_support(x, *scen.factors))
    cubes = cube_family(3, 1)
    out += [digitsets.materialize(spec) for spec in cubes.form_specs.values()]
    for _ in range(150):
        sets = [normalize(rnd_mixed_pairs(rnd)) for _ in range(2)]
        out += [wrap_translate(sets[0], rnd_mixed(rnd))]
        out += [sets[0].union(sets[1]), sets[0].intersect(sets[1]), sets[1].clip(-1, F(2, 3))]
        out += [sets[0].affine(F(rnd.choice([-3, 2]), rnd.choice([1, 6])), rnd_mixed(rnd))]
        if not sets[0].is_empty() and not sets[1].is_empty():
            coeffs = [rnd.choice([1, 2]), rnd.choice([-1, 3])]
            level = F(1, rnd.randint(2, 12))
            out.append(sweep_superlevel(sets, coeffs, level, (-2, 2)).superlevel)
            out.append(discrete_superlevel(sets, coeffs, 12, level, (-2, 2)).superlevel)
    for f, level in superlevel_tie_cases():
        out.append(f.superlevel(level))
    for u in out:
        assert_canonical(u)
    assert sum(u.is_empty() for u in out) > 10 and sum(not u.is_empty() for u in out) > 500
