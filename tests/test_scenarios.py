"""Scenario constructions: exact measures, cardinalities, thresholds, series."""

import json
import math
import sys
from fractions import Fraction as F

import pytest

from divlab import digitsets, scenarios
from divlab.digitsets import MAX_ENUM, base_points, cardinality
from divlab.hilbert import h3_ratio_series
from divlab.scenarios import (
    MAX_KMAX,
    RATIO_TOL,
    BlowupSeries,
    CubeScenario,
    FurstenbergScenario,
    blowup_series,
    cube_family,
    cube_threshold,
    degenerate_threshold,
    furstenberg_family,
    furstenberg_threshold,
    furstenberg_threshold_log_form,
)


# --- triple-average scenario -------------------------------------------------


def test_furstenberg_measures_exact():
    for k in range(1, 5):
        m = furstenberg_family(k).measures()
        assert m["factor_1"] == F(1, 2 * 4**k)
        assert m["factor_2"] == F(1, 2 * 3**k)
        assert m["factor_3"] == F(1, 2 * 2**k)
        assert m["witness"] == F(1, 8)
        n = furstenberg_family(k).measures(normalized=True)
        assert n == {key: v / 2 for key, v in m.items()}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_furstenberg_measures_build_no_union(monkeypatch, k):
    scen = furstenberg_family(k)
    specs = dict(zip(("factor_1", "factor_2", "factor_3", "witness"),
                     (*scen.factor_specs, scen.witness_spec)))
    want = {name: digitsets.materialize(spec).measure() for name, spec in specs.items()}
    built = []
    for module in (digitsets, scenarios):
        monkeypatch.setattr(module, "materialize", built.append)
    assert scen.measures() == want
    assert scen.measures(normalized=True) == {name: v / 2 for name, v in want.items()}
    assert built == []


def test_furstenberg_alphabets():
    s = furstenberg_family(2)
    a1, a2, a3 = (spec.alphabet for spec in s.factor_specs)
    assert a1 == (F(-4), F(-2), F(0))
    assert a2 == (F(0), F(1), F(2), F(3))
    # digitwise 2*second - first and 2*first - second
    assert a3 == tuple(F(v) for v in range(0, 11, 2))
    assert s.witness_spec.alphabet == tuple(F(v) for v in range(-11, 1))
    assert s.level == s.witness_spec.tail == F(1, 8 * 12**2)
    assert s.factor_specs[0].tail == F(1, 2 * 12**2)


def test_furstenberg_validation():
    with pytest.raises(ValueError):
        furstenberg_family(0)


def test_furstenberg_average_at_witness_points():
    # the defining inequality: the average of the indicator product over
    # t in [0,1] is at least the level at every witness base point
    s = furstenberg_family(1)
    from divlab.averages import multilinear_integral

    pts = [x for x in base_points(s.witness_spec) if x < 0]
    assert len(pts) == 11
    for x in pts:
        val = multilinear_integral(s.factors, s.coefficients, x, (0, 1))
        assert val == F(1, 72)  # constant across base points at depth 1
        assert val >= s.level


def test_furstenberg_json_round_trip():
    s = furstenberg_family(3)
    blob = json.dumps(s.to_json())
    assert FurstenbergScenario.from_json(json.loads(blob)) == s


# --- cube scenario -----------------------------------------------------------


def test_cube_structure_m3():
    s = cube_family(3, 1)
    assert [g.alphabet for g in s.generator_specs] == [
        (F(0), F(1)),
        (F(0), F(2)),
        (F(0), F(4)),
    ]
    assert s.shared_spec.alphabet == (F(-4), F(0))
    assert {spec.tail for spec in s.form_specs.values()} == {F(1, 16)}
    assert s.witness_tail == F(1, 64)
    cards = {"".join(map(str, e)): c for e, c in s.cardinalities().items()}
    assert cards == {
        "001": 8, "010": 6, "100": 6, "011": 2, "101": 2, "110": 2, "111": 2,
    }
    # base lattice: all 16 digit combinations are distinct
    assert cardinality(s.witness_spec) == 16


def test_cube_witness_measure():
    for m, k in ((3, 1), (3, 2), (4, 1), (5, 1)):
        s = cube_family(m, k)
        assert s.witness.measure() == F(1, m + 1)


def test_cube_cardinality_bounds():
    for m, k in ((3, 1), (3, 2), (4, 1)):
        s = cube_family(m, k)
        for eps, c in s.cardinalities().items():
            l = sum(eps)
            bound = s.cardinality_bound(eps)
            assert c <= bound
            if l <= m - 2:
                assert bound == 2 ** ((m - l + 1) * k)
            else:
                assert bound == 2**k == c  # exact at weights m-1 and m


def test_cube_validation():
    with pytest.raises(ValueError):
        cube_family(2, 1)
    with pytest.raises(ValueError):
        cube_family(3, 0)


def test_cube_family_refuses_oversized_dimension_before_building(monkeypatch):
    def unreachable(m):
        raise AssertionError("the eps vectors were built")

    monkeypatch.setattr(scenarios, "_eps_vectors", unreachable)
    # combine would enumerate about 2*3^m digit combinations: m = 13 fits the cap
    assert 2 * 3**13 <= MAX_ENUM < 2 * 3**14
    for m in (14, 30, 10**9):
        with pytest.raises(ValueError, match=f"m = {m} needs about 2\\*3\\^{m} digit"):
            cube_family(m, 1)


def test_cube_family_enumerates_what_its_guard_counts(monkeypatch):
    # _cube_check_count refuses an m whose 2*3^m digit tuples pass MAX_ENUM:
    # combine enumerates exactly that many, 2^(|Z(eps)|+1) per eps with the
    # witness at eps = 0
    seen = []
    digit_sums = digitsets._digit_sums

    def spy(terms):
        seen.append(math.prod(len(spec.digits) for _, spec in terms))
        return digit_sums(terms)

    monkeypatch.setattr(digitsets, "_digit_sums", spy)
    for m in range(3, 9):
        seen.clear()
        cube_family(m, 1)
        assert sum(seen) == 2 * 3**m
        assert len(seen) == 2**m


def test_cube_json_round_trip():
    for m, k in ((3, 2), (4, 1)):
        s = cube_family(m, k)
        blob = json.dumps(s.to_json())
        assert CubeScenario.from_json(json.loads(blob)) == s


# --- thresholds --------------------------------------------------------------


def test_furstenberg_threshold_identity():
    thr = furstenberg_threshold()
    assert abs(thr - math.log(24) / math.log(12)) < 1e-15
    assert abs(thr - furstenberg_threshold_log_form()) < 1e-12
    assert 1.2789 < thr < 1.2790


def test_cube_threshold_identities():
    assert cube_threshold(3) == F(5, 4)
    for m in range(3, 11):
        sum_form = 1 + F(sum(l * math.comb(m, l) for l in range(1, m - 1)), m * (m + 1))
        assert cube_threshold(m) == sum_form
        assert cube_threshold(m) == F(2 ** (m - 1) + 1, m + 1)


def test_cube_thresholds_refuse_dimensions_below_3():
    with pytest.raises(ValueError, match="^dimension must be >= 3$"):
        cube_threshold(2)


def test_degenerate_threshold():
    assert degenerate_threshold(3) == F(3, 2)
    assert degenerate_threshold(4) == F(4, 3)
    with pytest.raises(ValueError):
        degenerate_threshold(1)


# --- blow-up series ----------------------------------------------------------


def closed_thm1_value(p, k, weighted=False):
    v = ((4 * 4**k) * (4 * 3**k) * (4 * 2**k)) ** (1 / p) / (32 * 12**k)
    return v / k**6 if weighted else v


def test_thm1_series_matches_closed_form():
    for p in (1.1, 1.2789, 1.5, 2.0):
        ser = blowup_series("thm1", p, 6)
        closed = 24 ** (1 / p) / 12
        assert abs(ser.closed_form_ratio - closed) < 1e-12
        for k, v in zip(ser.indices, ser.values):
            assert abs(v - closed_thm1_value(p, k)) <= 1e-12 * abs(v)
        for r in ser.step_ratios:
            assert abs(r - closed) < 1e-12


def test_thm1_weighted_series():
    ser = blowup_series("thm1", 1.2, 5, weighted=True)
    for k, v in zip(ser.indices, ser.values):
        assert abs(v - closed_thm1_value(1.2, k, weighted=True)) <= 1e-12 * abs(v)
    # weights never change the divergence verdict (polynomial vs geometric)
    assert ser.verdict == blowup_series("thm1", 1.2, 5).verdict == "diverges"


def test_verdict_bands_thm1():
    thr = furstenberg_threshold()
    for dp in (0.05, 0.2):
        assert blowup_series("thm1", thr - dp, 4).verdict == "diverges"
        assert blowup_series("thm1", thr + dp, 4).verdict == "decays"


def test_verdict_bands_cubes_bound_mode():
    thr = float(cube_threshold(3))
    for dp in (0.05, 0.2):
        assert blowup_series("cubes", thr - dp, 4, m=3, mode="bound").verdict == "diverges"
        assert blowup_series("cubes", thr + dp, 4, m=3, mode="bound").verdict == "decays"


def test_cubes_series_closed_forms_m3():
    p = 1.2
    bound = blowup_series("cubes", p, 5, m=3, mode="bound")
    exact = blowup_series("cubes", p, 5, m=3, mode="exact")
    # bound mode: numerator 2^(7*4) over the bound product 8^3 * 2^4 = 2^13
    assert abs(bound.closed_form_ratio - 2**-12 * (2.0**15) ** (1 / p)) < 1e-12
    assert abs(bound.threshold - 1.25) < 1e-15
    # exact mode: 2^28 over the exact count product 8*6*6*2^4 = 4608
    assert abs(exact.closed_form_ratio - 2**-12 * (2**28 / 4608) ** (1 / p)) < 1e-12
    assert abs(2**28 / 4608 - 524288 / 9) < 1e-9
    assert exact.threshold > bound.threshold  # exact growth beats the bound
    assert abs(exact.threshold - math.log(524288 / 9) / (12 * math.log(2))) < 1e-12
    for ser in (bound, exact):
        for r in ser.step_ratios:
            assert abs(r - ser.closed_form_ratio) < 1e-12


@pytest.mark.parametrize("m, k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (6, 2)])
def test_exact_cube_series_counts_are_base_point_counts_here(m, k):
    # mode 'exact' raises each depth-1 alphabet size to the k-th power, which
    # counts digit strings; at these sizes no two strings of a form collide,
    # so the powers are the forms' base-point counts (at m = 4 and 7 they are not)
    forms1 = cube_family(m, 1).form_specs
    powers = {eps: len(spec.digits) ** k for eps, spec in forms1.items()}
    assert cube_family(m, k).cardinalities() == powers


def test_exact_cube_series_counts_digit_strings_where_forms_collide():
    # a known gap, not a target: at (4, 2) two forms have fewer base points
    # (248) than digit strings (16^2 = 256), and mode 'exact' reads the
    # strings.  Counting base points from the digits (ROADMAP item 4) flips
    # this test on purpose
    m, k, p = 4, 2, 1.2
    strings = {eps: len(spec.digits) ** k for eps, spec in cube_family(m, 1).form_specs.items()}
    points = cube_family(m, k).cardinalities()
    assert {eps for eps in points if points[eps] != strings[eps]} == {(0, 0, 1, 0), (0, 1, 0, 0)}
    assert strings[0, 0, 1, 0] == strings[0, 1, 0, 0] == 256
    assert points[0, 0, 1, 0] == points[0, 1, 0, 0] == 248

    def value(counts):  # the series' k-th term over the given per-form counts
        ln2 = math.log(2)
        return math.exp(-m * (math.log(m + 1) + k * (m + 1) * ln2)
                        + sum(k * (m + 1) * ln2 - math.log(c) for c in counts.values()) / p)

    term = blowup_series("cubes", p, k, m=m, mode="exact").values[k - 1]
    assert term == pytest.approx(value(strings), rel=1e-12)
    assert term != pytest.approx(value(points), rel=1e-3)


def series_or_overflow(*args, **kwargs):
    """The series' repr, which a nan step ratio compares equal in, or OverflowError."""
    try:
        return repr(blowup_series(*args, **kwargs))
    except OverflowError:
        return OverflowError


def test_cube_series_is_refused_early_only_where_it_overflows(monkeypatch):
    # the refusal read off m and p against the series built without it: every
    # refused (m, p, mode) overflows there too, and every request gives the
    # same series or error with and without it.  The p values straddle both
    # edges of the test: where the least exponent reaches the float range,
    # and where the most exponent over p leaves it; at top / 4 the exponent
    # itself is inf for small m, whose exp is inf and no OverflowError
    log_max, ln2 = math.log(sys.float_info.max), math.log(2)
    cases = []
    for m in range(3, 10):
        edge = m * 2 ** (m - 1) * ln2 / (log_max + m * (m + 1) * ln2)
        top = (2**m - 1) * (m + 1) * ln2 / (sys.float_info.max / 2)
        for p in (0.05, 0.3, 1.2, 7.5, edge * (1 - 1e-9), edge * (1 + 1e-9), top / 4, top / 2, top * 2):
            cases += [(m, p, mode) for mode in ("exact", "bound")]
    refused = [(m, p, mode) for m, p, mode in cases if scenarios._cube_ratio_overflows(m, p)]
    with monkeypatch.context() as mp:
        mp.setattr(scenarios, "_cube_ratio_overflows", lambda m, p: False)
        late = {(m, p, mode): series_or_overflow("cubes", p, 3, m=m, mode=mode) for m, p, mode in cases}
    for m, p, mode in cases:
        assert series_or_overflow("cubes", p, 3, m=m, mode=mode) == late[m, p, mode], (m, p, mode)
    assert all(late[case] is OverflowError for case in refused)
    assert 0 < len(refused) < sum(v is OverflowError for v in late.values())


def test_series_validation():
    with pytest.raises(ValueError):
        blowup_series("thm1", 0, 4)
    with pytest.raises(ValueError):
        blowup_series("thm1", 1.2, 1)
    for kind, m in (("thm1", None), ("cubes", 3)):
        with pytest.raises(ValueError, match=f"kmax {MAX_KMAX + 1} .* cap of {MAX_KMAX}"):
            blowup_series(kind, 1.2, MAX_KMAX + 1, m=m)
    with pytest.raises(ValueError):
        blowup_series("cubes", 1.2, 4)  # missing m
    with pytest.raises(ValueError):
        blowup_series("cubes", 1.2, 4, m=3, mode="nope")
    with pytest.raises(ValueError):
        blowup_series("h3", 1.2, 4, weighted=True)
    assert blowup_series("h3", 1.2, 4) == h3_ratio_series(1.2, 4)
    with pytest.raises(ValueError):
        blowup_series("nope", 1.2, 4)


def test_series_refuses_arguments_of_another_kind():
    # an argument the kind does not read is refused, not dropped
    foreign = {
        "thm1": ({"m": 5, "mode": "bound"}, {"m": 5}, {"mode": "bound"}, {"mode": "lebesgue"}),
        "cubes": ({"m": 3, "weighted": True},),
        "h3": ({"m": 3}, {"weighted": True}),
    }
    for kind, cases in foreign.items():
        for kwargs in cases:
            with pytest.raises(ValueError, match="applies to"):
                blowup_series(kind, 1.2, 2, **kwargs)
    with pytest.raises(ValueError, match="normalization must be"):
        blowup_series("h3", 1.2, 2, mode="exact")
    # each kind applies its own default mode
    assert blowup_series("thm1", 1.2, 2).mode == ""
    assert blowup_series("cubes", 1.2, 2, m=3) == blowup_series("cubes", 1.2, 2, m=3, mode="exact")
    assert blowup_series("h3", 1.2, 2).mode == "lebesgue"


@pytest.mark.parametrize("normalization", ["lebesgue", "normalized"])
def test_h3_series_is_the_blowup_series(normalization):
    for p in (0.5, 1.2, furstenberg_threshold(), 2.0):
        for kmax in (2, 10):
            ser = blowup_series("h3", p, kmax, mode=normalization)
            assert ser == h3_ratio_series(p, kmax, normalization=normalization)
            assert (ser.kind, ser.mode, ser.weighted) == ("h3", normalization, False)
            assert ser.closed_form_ratio == blowup_series("thm1", p, kmax).closed_form_ratio
            assert ser.threshold == furstenberg_threshold()


def test_series_json():
    ser = blowup_series("thm1", 2.0, 4)
    data = ser.to_json()
    assert data["kind"] == "thm1" and len(data["values"]) == 4
    assert data["verdict"] == "decays"
    assert json.dumps(data)  # serializable
    assert isinstance(ser, BlowupSeries)
    assert RATIO_TOL == 1e-12
