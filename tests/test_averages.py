"""Average engines: pointwise integrals, sweeps, certificates, estimators."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from divlab import averages, hilbert
from divlab.averages import (
    MAX_CUBE_CHECKS,
    MAX_SWEEP_CANDIDATES,
    CubeCertificateReport,
    CubeCheck,
    SearchExhaustedError,
    _time_pairs,
    cube_certificate_check,
    degenerate_lower_ratio,
    degenerate_pointwise_bound,
    dependent_forms_lower_ratio,
    dependent_forms_pointwise_bound,
    discrete_superlevel,
    find_riemann_n,
    form_time_set,
    monte_carlo_average,
    multilinear_integral,
    sweep_superlevel,
    wrap_translate,
)
from divlab.digitsets import _base_nums, base_points, cardinality, combine, digit_spec
from divlab.intervals import EMPTY, IntervalUnion, normalize
from divlab.scenarios import cube_family, furstenberg_family
from meeting_reference import full_state_jumps
from superlevel_reference import fraction_superlevel


# --- oracles -----------------------------------------------------------------


def rnd_union(rnd, span=12, den=6, max_pieces=4):
    pairs = []
    for _ in range(rnd.randint(1, max_pieces)):
        a = F(rnd.randint(-span, span), rnd.randint(1, den))
        b = a + F(rnd.randint(1, span), rnd.randint(1, den))
        pairs.append((a, b))
    return normalize(pairs)


def brute_in_forms(sets, coeffs, x, t):
    return all(x + c * t in u for u, c in zip(sets, coeffs))


def brute_grid_count(sets, coeffs, n_steps, x):
    return sum(
        1
        for n in range(1, n_steps + 1)
        if brute_in_forms(sets, coeffs, x, F(n, n_steps))
    )


# --- pointwise integral ------------------------------------------------------


def test_form_time_set_matches_membership():
    rnd = random.Random(501)
    for _ in range(150):
        nsets = rnd.randint(1, 3)
        sets = [rnd_union(rnd) for _ in range(nsets)]
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(nsets)]
        x = F(rnd.randint(-20, 20), rnd.randint(1, 6))
        out = form_time_set(sets, coeffs, x)
        ends = {e for u in sets for iv in u.intervals for e in (iv.lo, iv.hi)}
        for _ in range(25):
            t = F(rnd.randint(-200, 200), 16)
            # a form value on a set boundary flips inclusion under c < 0;
            # that is the documented measure-zero half-open artifact
            if any(x + c * t in ends for c in coeffs):
                continue
            assert (t in out) == brute_in_forms(sets, coeffs, x, t)
        # canonical pairs, boundary points included: the intersection of
        # every family's image (U_i - x)/c_i, then clipped to the t-domain
        images = [u.affine(F(1, c), F(-x, c)) for u, c in zip(sets, coeffs)]
        expected = functools.reduce(IntervalUnion.intersect, images)
        assert out == expected
        t0 = F(rnd.randint(-40, 40), 8)
        t_domain = (t0, t0 + F(rnd.randint(0, 40), 8))
        assert form_time_set(sets, coeffs, x, t_domain) == expected.clip(*t_domain)


def test_form_time_set_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError):
        form_time_set([u], [0], 0)
    with pytest.raises(ValueError):
        form_time_set([], [], 0)
    with pytest.raises(ValueError):
        form_time_set([u], [1, 2], 0)


def test_multilinear_integral_is_clipped_measure():
    u = normalize([(0, 1)])
    # x + 2t in [0,1] for t in [-x/2, (1-x)/2]; clipped to [0, 1]
    assert multilinear_integral([u], [2], F(1, 2)) == F(1, 4)
    assert multilinear_integral([u], [2], F(-3)) == 0


# --- exact superlevel sweep --------------------------------------------------


def test_sweep_function_equals_pointwise_integral():
    # the piecewise-linear sweep output must agree with the independent
    # interval-algebra integral at arbitrary points, not just at events
    rnd = random.Random(733)
    s = furstenberg_family(1)
    res = sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))
    for _ in range(120):
        x = F(-rnd.randint(0, 3 * 2**9), 3 * 2**9)
        direct = multilinear_integral(s.factors, s.coefficients, x, (0, 1))
        assert res.function(x) == direct


def test_sweep_on_random_small_instances():
    rnd = random.Random(8080)
    for _ in range(25):
        nsets = rnd.randint(1, 3)
        sets = [rnd_union(rnd, span=4, den=2, max_pieces=2) for _ in range(nsets)]
        coeffs = [rnd.choice([-2, -1, 1, 2, 3]) for _ in range(nsets)]
        res = sweep_superlevel(sets, coeffs, F(1, 8), window=(-2, 2))
        for _ in range(20):
            x = F(rnd.randint(-2 * 48, 2 * 48), 48)
            direct = multilinear_integral(sets, coeffs, x, (0, 1))
            assert res.function(x) == direct
            if direct > F(1, 8):
                assert x in res.superlevel or x == F(2)
            elif direct < F(1, 8):
                assert x not in res.superlevel


@functools.cache
def claim_sweep(k):
    """The depth-k claim scenario and its sweep on [-1, 0], run once per test run."""
    s = furstenberg_family(k)
    return s, sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))


def check_frozen_claim(k, measure, breakpoints):
    s, res = claim_sweep(k)
    assert res.superlevel_measure == measure
    assert len(res.function.xs) == breakpoints  # 3 * 12^k + 1
    assert res.superlevel_measure >= F(1, 8) - s.level
    assert s.witness.clip(-1, 0).issubset(res.superlevel)


def test_sweep_frozen_measures():
    expected = {1: (F(37, 64), 37), 2: (F(159, 256), 433), 3: (F(1919, 3072), 5185)}
    for k, (measure, breakpoints) in expected.items():
        check_frozen_claim(k, measure, breakpoints)


def test_sweep_frozen_k4_certificate():
    check_frozen_claim(4, F(23039, 36864), 62209)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sweep_depth_pattern(k):
    # [-1, -11/12) holds S_{k-1} shrunk by 12 and each of the other 11 cells a
    # pattern covering 5/8 of it, 12^(k-1) pieces a cell: m_k = m_{k-1}/12 + 55/96
    s, res = claim_sweep(k)
    assert res.superlevel_measure == F(5, 8) - F(9, 16 * 12**k)
    assert len(res.function.x_nums) == 3 * 12**k + 1
    assert len(res.superlevel.nums) == 12**k
    assert s.witness.clip(-1, 0).issubset(res.superlevel)


def fraction_counter(monkeypatch):
    """A list that grows by one per Fraction built while the patch holds."""
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    if "_from_coprime_ints" in vars(F):  # newer Pythons build arithmetic results here
        coprime = vars(F)["_from_coprime_ints"].__func__

        def counting_coprime(cls, numerator, denominator):
            made.append(1)
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counting_coprime))
    return made


def test_superlevel_cuts_build_no_fraction_per_crossing(monkeypatch):
    s, res = claim_sweep(3)
    f = res.function
    ys, lev = [y * s.level.denominator for y in f.y_nums], s.level.numerator * f.y_den
    assert len(f.x_nums) == 5185
    assert sum((a - lev) * (b - lev) < 0 for a, b in zip(ys, ys[1:])) == 3455
    s2 = furstenberg_family(2)
    g = discrete_superlevel(s2.factors, s2.coefficients, 1152, s2.level, (-1, 0)).function
    made = fraction_counter(monkeypatch)
    assert F(1, 3) + F(1, 6) == F(1, 2) and len(made) >= 3  # the counter sees arithmetic
    made.clear()
    sup = f.superlevel(s.level)
    cut_f = len(made)
    step_sup = g.superlevel(s2.level)
    cut_g = len(made) - cut_f
    monkeypatch.undo()
    assert cut_f <= 2 and cut_g <= 2, (cut_f, cut_g)
    assert sup == res.superlevel and sup.measure() == F(1919, 3072)
    assert len(g.x_nums) == 861 and step_sup.measure() == F(859, 1152)


def test_digit_specs_build_no_fraction_per_digit(monkeypatch):
    # digits stay ints over one denominator: combine, _base_nums and the gap
    # certificate build no Fraction, and a whole cube family fewer than its forms
    made = fraction_counter(monkeypatch)
    s = cube_family(5, 2)
    built = len(made)
    made.clear()
    spec = combine([(1, g) for g in s.generator_specs] + [(-4, s.shared_spec)], s.witness_tail)
    nums, den = _base_nums(spec)
    count = cardinality(spec)
    monkeypatch.undo()
    assert built < len(s.form_specs) == 31, built
    assert made == []
    assert spec == s.witness_spec and count == len(nums) == 2 ** 12
    assert den == spec.den * 64**2


def per_pair_blocks(fam_s, coeffs, dom, win):
    """The meeting candidates pair by pair, at most _BLOCK at a time: a
    reference that never puts two pairs in one block."""
    block = averages._BLOCK
    (ts0, ts1), (ws0, ws1) = dom, win
    for i, (es, ci) in enumerate(zip(fam_s, coeffs)):
        xs = np.concatenate((es - ci * ts0, es - ci * ts1))
        taus = np.concatenate((np.full_like(es, ts0), np.full_like(es, ts1)))
        keep = (xs >= ws0) & (xs <= ws1)
        xs, taus = xs[keep], taus[keep]
        for s in range(0, len(xs), block):
            x = xs[s : s + block]
            yield x, taus[s : s + block], np.full(len(x), 0), np.full(len(x), i + 1)
        for j in range(i + 1, len(fam_s)):
            cj, fs = coeffs[j], fam_s[j]
            if cj == ci:
                continue
            n = len(es) * len(fs)
            for s in range(0, n, block):
                g = np.arange(s, min(s + block, n))
                e = es[g // len(fs)]
                tau = (fs[g % len(fs)] - e) // (cj - ci)
                x = e - ci * tau
                keep = (tau >= ts0) & (tau <= ts1) & (x >= ws0) & (x <= ws1)
                x, tau = x[keep], tau[keep]
                yield x, tau, np.full(len(x), i + 1), np.full(len(x), j + 1)


def test_sweep_packs_candidates_across_pairs(monkeypatch):
    calls = []
    meeting_jumps, packed_blocks, default = (
        averages._meeting_jumps, averages._crossing_blocks, averages._BLOCK)

    def counting_jumps(*args):
        calls.append(len(args[0]))
        return meeting_jumps(*args)

    def sweep(s, coeffs, blocks, block):
        monkeypatch.setattr(averages, "_crossing_blocks", blocks)
        monkeypatch.setattr(averages, "_BLOCK", block)
        calls.clear()
        return sweep_superlevel(s.factors, coeffs, s.level, window=(-1, 0))

    monkeypatch.setattr(averages, "_meeting_jumps", counting_jumps)
    # the frozen scenarios, then two with lockstep pairs (equal coefficients),
    # which never meet and bring no candidates
    instances = [(k, (1, 2, 3)) for k in (1, 2, 3)] + [(1, (2, -1, 2)), (2, (1, 1, 3))]
    for k, coeffs in instances:
        s = furstenberg_family(k)
        sizes = [2 * len(u.nums) for u in s.factors]
        pairs = [(i, j) for i, j in itertools.combinations(range(3), 2) if coeffs[i] != coeffs[j]]
        candidates = 2 * sum(sizes) + sum(sizes[i] * sizes[j] for i, j in pairs)
        for block in (default, 31):  # at 31, blocks span pairs and fold many times
            packed = sweep(s, coeffs, packed_blocks, block)
            assert len(calls) == -(-candidates // block), (k, coeffs, block)
            if block == default and coeffs == s.coefficients:
                assert len(calls) <= {1: 1, 2: 2, 3: -(-candidates // block) + 3 + len(pairs)}[k]
                assert packed == claim_sweep(k)[1]
            unpacked = sweep(s, coeffs, per_pair_blocks, block)
            assert packed == unpacked, (k, coeffs, block)


def kernel_calls(monkeypatch, sweep):
    """The arguments of every meeting-kernel call that sweep() makes."""
    calls, kernel = [], averages._meeting_jumps

    def capture(*args):
        calls.append(args)
        return kernel(*args)

    with monkeypatch.context() as m:
        m.setattr(averages, "_meeting_jumps", capture)
        sweep()
    return calls


def check_kernel(args):
    """The kernel's (index, jump) are the full-state reference's nonzero
    entries; returns the reference's jumps."""
    ref = full_state_jumps(*args)
    at, jumps = averages._meeting_jumps(*args)
    nz = np.flatnonzero(ref)
    assert np.array_equal(at, nz) and np.array_equal(jumps, ref[nz])
    assert jumps.dtype == args[0].dtype
    return ref


def test_meeting_kernel_matches_full_state_reference(monkeypatch):
    # every block of the depth-1..3 claim sweeps
    for k in (1, 2, 3):
        s = furstenberg_family(k)
        calls = kernel_calls(monkeypatch, lambda: sweep_superlevel(
            s.factors, s.coefficients, s.level, window=(-1, 0)))
        assert len(calls) == {1: 1, 2: 1, 3: 11}[k]
        for args in calls:
            check_kernel(args)
    # random instances on a coarse grid, with negative coefficients and a
    # window that holds every meeting, the t-domain ends included
    rnd = random.Random(1512)
    seen = dict.fromkeys(("t0", "t1", "negative", "coincident"), 0)
    for _ in range(60):
        nsets = rnd.randint(1, 3)
        sets = [rnd_union(rnd, span=4, den=2, max_pieces=3) for _ in range(nsets)]
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(nsets)]
        t0 = F(rnd.randint(-4, 4), 2)
        t_domain = (t0, t0 + F(rnd.randint(1, 4), 2))
        for args in kernel_calls(monkeypatch, lambda: sweep_superlevel(
                sets, coeffs, F(1, 8), window=(-20, 20), t_domain=t_domain)):
            x, tau, _, _, fam_s, _, _, dom = args
            counted = check_kernel(args) != 0
            rows = ((tau == dom[0]) | (tau == dom[1])).astype(int)
            rows += sum(np.isin(x + c * tau, es) for es, c in zip(fam_s, coeffs))
            seen["t0"] += np.count_nonzero(counted & (tau == dom[0]))
            seen["t1"] += np.count_nonzero(counted & (tau == dom[1]))
            seen["negative"] += min(coeffs) < 0 and counted.any()
            seen["coincident"] += np.count_nonzero(counted & (rows >= 3))
    assert all(seen.values()), seen
    # dtype-object arrays
    sets, coeffs, t_domain = huge_denominator_instance()
    calls = kernel_calls(monkeypatch, lambda: sweep_superlevel(
        sets, coeffs, F(1, 10), window=(-2, 2), t_domain=t_domain))
    assert calls and all(args[0].dtype == object for args in calls)
    for args in calls:
        check_kernel(args)


def test_meeting_kernel_on_per_pair_blocks(monkeypatch):
    # the per-pair blocks of test_sweep_packs_candidates_across_pairs, each
    # naming one pair in every entry of its p and q arrays
    blocks = averages._crossing_blocks
    for k, coeffs in [(k, (1, 2, 3)) for k in (1, 2, 3)] + [(1, (2, -1, 2)), (2, (1, 1, 3))]:
        s = furstenberg_family(k)
        inputs = []
        with monkeypatch.context() as m:
            m.setattr(averages, "_crossing_blocks", lambda *a: inputs.append(a) or blocks(*a))
            (*_, vel, _), *_ = kernel_calls(monkeypatch, lambda: sweep_superlevel(
                s.factors, coeffs, s.level, window=(-1, 0)))
        (fam_s, cs, dom, win), = inputs
        pair_blocks = list(per_pair_blocks(fam_s, cs, dom, win))
        assert pair_blocks and all(
            len(p) == len(q) == len(x) and np.unique(p).size <= 1 and np.unique(q).size <= 1
            for x, _, p, q in pair_blocks)
        for x, tau, p, q in pair_blocks:
            check_kernel((x, tau, p, q, fam_s, cs, vel, dom))


def test_time_pairs_is_the_scaled_pointwise_time_set():
    # the one time-set kernel at grid points, against the Fraction interval
    # algebra: the intersection of every family's image, clipped to the
    # t-domain; with no t-domain form_time_set starts from the t-hulls' meet
    rnd = random.Random(2494)
    for _ in range(80):
        nsets = rnd.randint(1, 3)
        sets = [EMPTY if rnd.random() < 0.1 else rnd_union(rnd, span=6, den=4)
                for _ in range(nsets)]
        coeffs = [rnd.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(nsets)]
        t0 = F(rnd.randint(-8, 8), rnd.randint(1, 3))
        t_domain = (t0, t0 + F(rnd.randint(1, 8), rnd.randint(1, 3)))
        scale = math.lcm(*(u.den for u in sets), t_domain[0].denominator,
                         t_domain[1].denominator, rnd.randint(1, 5))
        c_lcm = math.lcm(*map(abs, coeffs))
        unit = scale * c_lcm
        dom = [tuple(int(t * unit) for t in t_domain)]
        for _ in range(10):
            x = rnd.randint(-16 * scale, 16 * scale)
            images = [u.affine(F(1, c), F(-x, c * scale)) for u, c in zip(sets, coeffs)]
            want = functools.reduce(IntervalUnion.intersect, images)
            clipped = want.clip(*t_domain)
            pairs = _time_pairs(sets, coeffs, scale, c_lcm, x, dom)
            assert pairs == sorted(pairs) and all(a < b for a, b in pairs)
            assert normalize((F(a, unit), F(b, unit)) for a, b in pairs) == clipped
            assert F(sum(b - a for a, b in pairs), unit) == clipped.measure()
            assert form_time_set(sets, coeffs, F(x, scale)) == want
            assert form_time_set(sets, coeffs, F(x, scale), t_domain) == clipped


def test_time_set_needs_no_whole_union_algebra(monkeypatch):
    # form_time_set, h3_evaluate and multilinear_integral run on the integer
    # kernel alone: with affine and intersect raising, nothing changes
    s = furstenberg_family(3)
    points = [x for x in base_points(s.witness_spec) if x < 0][::40]
    t_domain = (F(-1, 7), F(5, 6))

    def results():
        return [(form_time_set(s.factors, s.coefficients, x),
                 form_time_set(s.factors, (2, -1, 3), x, t_domain),
                 hilbert.h3_evaluate(x, *s.factors),
                 multilinear_integral(s.factors, s.coefficients, x))
                for x in points]

    want = results()
    assert len(points) == 44 and any(h.support.nums for _, _, h, _ in want)

    def forbidden(*args):
        raise AssertionError("whole-union algebra in the time-set engine")

    monkeypatch.setattr(IntervalUnion, "affine", forbidden)
    monkeypatch.setattr(IntervalUnion, "intersect", forbidden)
    assert results() == want


@pytest.mark.parametrize("i", range(3))
def test_sweep_with_an_empty_factor(i):
    # an empty union makes F = 0; its family brings no meeting, so the
    # breakpoints are those of the other two families alone
    s = furstenberg_family(1)
    sets, coeffs = list(s.factors), list(s.coefficients)
    sets[i] = EMPTY
    res = sweep_superlevel(sets, coeffs, s.level, window=(-1, 0))
    rest = sweep_superlevel(sets[:i] + sets[i + 1:], coeffs[:i] + coeffs[i + 1:], s.level,
                            window=(-1, 0))
    f = res.function
    assert len(f.x_nums) == (25, 37, 25)[i]
    assert (f.x_nums, f.x_den) == (rest.function.x_nums, rest.function.x_den)
    assert set(f.y_nums) == {0}
    assert res.superlevel == EMPTY and res.superlevel_measure == 0


def test_sweep_builds_the_same_few_fractions_at_every_depth(monkeypatch):
    # the anchors are int evaluations on the sweep's grid: past the window,
    # the t-domain and the measure, no Fraction is built, whatever the depth
    counts = []
    for k in (1, 2, 3):
        s = furstenberg_family(k)
        sets, level = s.factors, s.level
        with monkeypatch.context() as m:
            made = fraction_counter(m)
            sweep_superlevel(sets, s.coefficients, level, window=(-1, 0))
        counts.append(len(made))
    assert counts[0] == counts[1] == counts[2] <= 6, counts


# a coarse grid makes three or more endpoints meet at one point often
small_rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3]))
lengths = small_rationals.map(lambda q: abs(q) + F(1, 3))
coefficients = st.integers(1, 4).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def sweep_instances(draw):
    nsets = draw(st.integers(1, 3))
    sets = []
    for _ in range(nsets):
        lows = draw(st.lists(small_rationals, min_size=1, max_size=3))
        sets.append(normalize((a, a + draw(lengths)) for a in lows))
    coeffs = draw(st.lists(coefficients, min_size=nsets, max_size=nsets))
    if nsets > 1 and draw(st.booleans()):
        coeffs[1] = coeffs[0]  # lockstep families never meet
    t0, w0 = draw(small_rationals), draw(small_rationals)
    t_domain = (t0, t0 + draw(lengths))
    window = (w0, w0 + draw(lengths))
    return sets, coeffs, t_domain, window


def check_against_pointwise(sets, coeffs, t_domain, window, level, rnd):
    res = sweep_superlevel(sets, coeffs, level, window=window, t_domain=t_domain)
    xs = res.function.xs
    assert xs[0] == window[0] and xs[-1] == window[1]
    picks = rnd.sample(range(len(xs) - 1), min(8, len(xs) - 1))
    for i in picks:
        for x in (xs[i], (xs[i] + xs[i + 1]) / 2, xs[i + 1]):
            assert res.function(x) == multilinear_integral(sets, coeffs, x, t_domain)
    return res


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweep_instances(), st.integers(0, 2**32 - 1))
def test_sweep_matches_pointwise_property(instance, seed):
    sets, coeffs, t_domain, window = instance
    level = (t_domain[1] - t_domain[0]) / 4
    res = check_against_pointwise(sets, coeffs, t_domain, window, level, random.Random(seed))
    assert res.superlevel_measure == res.superlevel.measure()
    # the integer-grid cut agrees with the Fraction reference pass on the views
    f = res.function
    assert res.superlevel == normalize(fraction_superlevel(f.xs, f.ys, f.ys[1:], level))


def huge_denominator_instance():
    """(sets, coeffs, t_domain): the shared integer scale exceeds int64."""
    big = 10**19 + 7
    sets = [
        normalize([(F(-3, big), F(5, 7)), (F(1), F(2) + F(1, big - 2))]),
        normalize([(F(-2), F(1, 3))]),
        normalize([(F(-5, 2), F(-1, big))]),
    ]
    return sets, [1, -3, 2], (F(-1, 2), F(3, 2) + F(1, big))


def test_sweep_huge_denominators():
    # the shared integer scale exceeds int64 here, so the sweep must run on
    # Python-int (dtype object) arrays and still agree with the pointwise integral
    sets, coeffs, t_domain = huge_denominator_instance()
    res = check_against_pointwise(sets, coeffs, t_domain, (-2, 2), F(1, 10), random.Random(3))
    assert len(res.function.xs) > 10


def test_sweeps_build_no_fraction_view():
    # both sweeps hold their function on the integer grid; the Fraction views
    # are built only when read
    s = furstenberg_family(3)
    res = sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))
    res.superlevel.to_json()
    assert len(res.function.x_nums) == len(res.function.y_nums) == 5185
    assert not {"xs", "ys"} & res.function.__dict__.keys()
    s = furstenberg_family(2)
    res = discrete_superlevel(s.factors, s.coefficients, 1152, s.level, (-1, 0))
    assert res.superlevel_measure > 0
    assert not {"xs", "values"} & res.function.__dict__.keys()
    assert res.function.xs[0] == -1 and "xs" in res.function.__dict__


def test_sweep_refuses_candidates_past_the_cap(monkeypatch):
    # 10 and 12 endpoints: 2 * (10 + 12) candidates at the t-domain ends, and
    # 10 * 12 meetings more when the coefficients differ
    u = normalize((F(2 * i), F(2 * i + 1)) for i in range(5))
    v = normalize((F(2 * i), F(2 * i + 1)) for i in range(6))
    monkeypatch.setattr(averages, "MAX_SWEEP_CANDIDATES", 164)
    sweep_superlevel([u, v], [1, 2], F(1, 2), window=(0, 1))
    monkeypatch.setattr(averages, "MAX_SWEEP_CANDIDATES", 163)
    with pytest.raises(ValueError, match="164 meeting candidates exceeds the cap of 163"):
        sweep_superlevel([u, v], [1, 2], F(1, 2), window=(0, 1))
    monkeypatch.setattr(averages, "MAX_SWEEP_CANDIDATES", 44)
    sweep_superlevel([u, v], [1, 1], F(1, 2), window=(0, 1))
    monkeypatch.undo()
    assert 40_440_268 <= MAX_SWEEP_CANDIDATES < 912_610_660  # k=5 runs, k=6 is refused


def test_sweep_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError):
        sweep_superlevel([u], [1], F(1, 2), window=(1, 1))
    with pytest.raises(ValueError):
        sweep_superlevel([u], [0], F(1, 2), window=(0, 1))
    with pytest.raises(ValueError):
        sweep_superlevel([u], [1], F(1, 2), window=(0, 1), t_domain=(1, 0))


# --- discrete grid sweep -----------------------------------------------------


def test_discrete_superlevel_matches_brute_counts():
    rnd = random.Random(606)
    s = furstenberg_family(1)
    for n_steps in (7, 24, 96):
        res = discrete_superlevel(
            s.factors, s.coefficients, n_steps, F(1, 192), (-1, 0)
        )
        for _ in range(40):
            x = F(rnd.randint(-959, -1), 960)
            cnt = brute_grid_count(s.factors, s.coefficients, n_steps, x)
            assert res.function(x) == F(cnt, n_steps)
            assert (x in res.superlevel) == (cnt >= math.ceil(n_steps / 192))


def test_discrete_superlevel_zero_level():
    s = furstenberg_family(1)
    res = discrete_superlevel(s.factors, s.coefficients, 12, 0, (-1, 0))
    assert res.superlevel_measure == 1  # threshold 0 is met everywhere


def test_discrete_circle_topology_matches_brute():
    rnd = random.Random(909)
    sets = [rnd_union(rnd, span=2, den=3, max_pieces=2).clip(-1, 1) for _ in range(2)]
    sets = [u for u in sets if not u.is_empty()] or [normalize([(0, F(1, 2))])]
    coeffs = [1, 3][: len(sets)]
    n_steps = 12
    res = discrete_superlevel(
        sets, coeffs, n_steps, F(1, 6), (-1, 1), topology="circle"
    )

    def on_circle(u, y):
        y = F(-1) + (y - F(-1)) % 2  # fold into [-1, 1)
        return y in u

    for _ in range(60):
        x = F(rnd.randint(-48, 47), 48)  # inside the window
        cnt = sum(
            1
            for n in range(1, n_steps + 1)
            if all(on_circle(u, x + c * F(n, n_steps)) for u, c in zip(sets, coeffs))
        )
        assert res.function(x) == F(cnt, n_steps)


def on_circle(u, y, lo, hi):
    """Whether y, folded into [lo, hi), lies in the image of u on that circle."""
    circ = hi - lo
    y = lo + (y - lo) % circ
    first, last = u.pairs[0][0], u.pairs[-1][1]
    periods = range(math.floor((first - y) / circ), math.ceil((last - y) / circ) + 1)
    return any(y + m * circ in u for m in periods)


def brute_circle_count(sets, coeffs, n_steps, x, lo, hi):
    return sum(
        1
        for n in range(1, n_steps + 1)
        if all(on_circle(u, x + c * F(n, n_steps), lo, hi) for u, c in zip(sets, coeffs))
    )


@st.composite
def circle_instances(draw):
    lo = draw(small_rationals)
    circ = draw(lengths)
    # lengths below, equal to and above the circumference
    spans = st.one_of(lengths, st.just(circ), lengths.map(lambda q: q + circ))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        lows = draw(st.lists(small_rationals, min_size=1, max_size=3))
        sets.append(normalize((a, a + draw(spans)) for a in lows))
    coeffs = draw(st.lists(coefficients, min_size=len(sets), max_size=len(sets)))
    w0 = draw(st.one_of(st.just(lo), small_rationals))
    return sets, coeffs, draw(st.integers(1, 12)), (w0, w0 + draw(spans)), (lo, lo + circ)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circle_instances(), st.integers(0, 2**32 - 1))
@example(  # a piece longer than the circle, a window past it, negative coefficients
    ([normalize([(F(-3), F(1, 2))]), normalize([(F(1, 3), F(3, 2)), (F(2), F(9, 4))])],
     [-2, 3], 7, (F(-5, 2), F(3, 2)), (F(-1), F(1, 2))), 5)
@example(  # the window is the whole circle; a set reaching past the seam
    ([normalize([(F(1, 2), F(4, 3))]), normalize([(F(-1), F(-1, 3))])],
     [1, -1], 12, (F(-1), F(1)), (F(-1), F(1))), 6)
def test_discrete_circle_matches_brute_property(instance, seed):
    sets, coeffs, n_steps, window, (lo, hi) = instance
    level = F(1, 3)
    res = discrete_superlevel(
        sets, coeffs, n_steps, level, window, topology="circle", circle_lo=lo, circle_hi=hi
    )
    g = res.function
    assert g.xs[0] == window[0] and g.xs[-1] == window[1]
    # the integer-grid cut agrees with the Fraction reference pass on the views
    assert res.superlevel == normalize(fraction_superlevel(g.xs, g.values, g.values, level))
    rnd = random.Random(seed)
    for i in rnd.sample(range(len(g.values)), min(8, len(g.values))):
        for x in (g.xs[i], (g.xs[i] + g.xs[i + 1]) / 2):
            cnt = brute_circle_count(sets, coeffs, n_steps, x, lo, hi)
            assert g(x) == F(cnt, n_steps)
            assert (x in res.superlevel) == (cnt >= math.ceil(level * n_steps))


def periodic_extension(u, lo, hi, first, last):
    """u's image on the circle [lo, hi), repeated over periods first..last of the line."""
    circ = hi - lo
    arcs = wrap_translate(u, 0, lo, hi).pairs
    return normalize((a + m * circ, b + m * circ) for m in range(first, last + 1) for a, b in arcs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circle_instances())
@example(  # a window over three periods; the second set reaches past the seam
    ([normalize([(F(1, 2), F(4, 3))]), normalize([(F(-2, 3), F(1, 3))])],
     [1, -2], 6, (F(-3), F(3)), (F(-1), F(1))))
def test_discrete_circle_is_line_over_periodic_sets(instance):
    sets, coeffs, n_steps, window, (lo, hi) = instance
    circ = hi - lo
    reach = max(map(abs, coeffs))  # x + c n/N stays within reach of the window
    first = math.floor((window[0] - reach - lo) / circ)
    last = math.ceil((window[1] + reach - lo) / circ)
    periodic = [periodic_extension(u, lo, hi, first, last) for u in sets]
    level = F(1, 3)
    circle = discrete_superlevel(
        sets, coeffs, n_steps, level, window, topology="circle", circle_lo=lo, circle_hi=hi
    )
    line = discrete_superlevel(periodic, coeffs, n_steps, level, window)
    assert circle.function.xs == line.function.xs
    assert circle.function.values == line.function.values
    assert circle.superlevel == line.superlevel


def test_discrete_circle_frozen_k2():
    # cell count and digest of the k=2, N=1152 step function, frozen from the
    # Fraction wrap_translate path that preceded the integer fold
    s = furstenberg_family(2)
    line, circle = (
        discrete_superlevel(s.factors, s.coefficients, 1152, s.level, (-1, 0), topology=t)
        for t in ("line", "circle")
    )
    g = circle.function
    assert len(g.values) == 860
    text = ",".join(map(str, g.xs)) + "|" + ",".join(map(str, g.values))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "062693c2f4a5a926b6c1fa5f327c98ed0a3738751b223e5816297bbe324688f4"
    )
    assert circle.superlevel_measure == line.superlevel_measure == F(859, 1152)
    assert line.function == g


def test_wrap_translate_preserves_measure_and_membership():
    rnd = random.Random(111)
    for _ in range(100):
        u = rnd_union(rnd, span=2, den=4, max_pieces=2).clip(-1, 1)
        if u.is_empty():
            continue
        shift = F(rnd.randint(-12, 12), rnd.randint(1, 6))
        w = wrap_translate(u, shift, -1, 1)
        assert w.measure() == min(u.measure(), F(2))
        for _ in range(10):
            x = F(rnd.randint(-16, 15), 16)  # inside the circle domain
            y = F(-1) + (x + shift - F(-1)) % 2
            if any(y == e for iv in w.intervals for e in (iv.lo, iv.hi)):
                continue
            assert (y in w) == (x in u)
    for u in (normalize([(0, 1)]), normalize([])):
        for lo, hi in ((1, 1), (1, -1)):
            with pytest.raises(ValueError, match="circle"):
                wrap_translate(u, 0, lo, hi)


def test_discrete_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError):
        discrete_superlevel([u], [1], 0, F(1, 2), (0, 1))
    with pytest.raises(ValueError):
        discrete_superlevel([u], [1], 4, F(1, 2), (0, 1), topology="torus")
    with pytest.raises(ValueError):
        discrete_superlevel([u], [1], 4, F(1, 2), (0, 1), topology="circle", circle_lo=1)


# --- Riemann certificate search ----------------------------------------------


def test_find_riemann_n_frozen():
    cert = find_riemann_n(1, F(1, 192), F(1, 9))
    assert cert.n_steps == 96
    assert cert.measure == F(67, 96)
    s = furstenberg_family(1)
    res = discrete_superlevel(s.factors, s.coefficients, 96, F(1, 192), (-1, 0))
    assert res.superlevel_measure == cert.measure


def test_find_riemann_n_rejects_degenerate_window():
    with pytest.raises(ValueError, match="window"):
        find_riemann_n(1, F(1, 192), F(1, 9), window=(0, -1))


def test_find_riemann_n_exhaustion():
    with pytest.raises(SearchExhaustedError):
        find_riemann_n(1, F(1, 192), F(99, 100), max_n=300)


def test_find_riemann_n_custom_progression():
    cert = find_riemann_n(1, F(1, 192), F(1, 9), progression=[192, 384])
    assert cert.n_steps == 192


# --- cube certificate --------------------------------------------------------


def test_cube_certificate_m3_k1():
    s = cube_family(3, 1)
    rep = cube_certificate_check(s)
    assert rep.all_pass
    assert len(rep.checks) == 16 * 7  # lattice combinations x nonzero eps
    assert rep.t_tail == s.witness_tail == F(1, 64)
    # slack by form weight: 1/16 - (1 + l)/64, zero exactly at l = m
    slacks = {sum(c.eps): c.slack for c in rep.checks}
    assert slacks == {1: F(1, 32), 2: F(1, 64), 3: F(0)}
    assert rep.integral_lower_bound == F(1, (4 * 16) ** 3)


def test_cube_certificate_tamper_fails():
    s = cube_family(3, 1)
    rep = cube_certificate_check(s, s.witness_tail * 2)
    assert not rep.all_pass
    # weight-3 checks break first: their slack was exactly zero
    bad = [c for c in rep.checks if not c.passed]
    assert bad and all(sum(c.eps) >= 2 for c in bad)
    assert all(c.base_in_form for c in bad)  # only the tail budget fails


def test_cube_certificate_bound_is_checked_box_volume():
    # the bound is t_tail^m, the volume of the checked t-box; at the default
    # t_tail it is [(m+1) * 2^(k(m+1))]^(-m)
    for m, k in ((3, 1), (3, 2), (4, 1)):
        rep = cube_certificate_check(cube_family(m, k))
        assert rep.integral_lower_bound == F(1, ((m + 1) * 2 ** (k * (m + 1))) ** m)
    s = cube_family(3, 1)
    rep = cube_certificate_check(s, F(1, 1000))
    assert rep.all_pass
    assert rep.integral_lower_bound == F(1, 10**9)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="t_tail must be positive"):
            cube_certificate_check(s, bad)


def test_cube_certificate_custom_t_tail():
    s = cube_family(3, 2)
    rep = cube_certificate_check(s, F(1, 10**6))
    assert rep.all_pass
    assert min(c.slack for c in rep.checks) > 0


def reference_cube_certificate_check(scenario, t_tail=None):
    """The certificate as a Fraction loop over Fraction base points: every
    decomposition, lattice test and form target is Fraction arithmetic, and
    every check is kept."""
    m = scenario.dimension
    tau = scenario.witness_tail
    t_tail = tau if t_tail is None else F(t_tail)
    form_tail = scenario.form_tail
    gen_pts = [base_points(g) for g in scenario.generator_specs]
    shared_pts = base_points(scenario.shared_spec)
    lattice = set(base_points(scenario.base_spec))
    form_base = {eps: set(base_points(spec)) for eps, spec in scenario.form_specs.items()}
    slacks = {eps: form_tail - (tau + sum(eps) * t_tail) for eps in sorted(scenario.form_specs)}
    checks = []
    all_pass = True
    for combo in itertools.product(*gen_pts, shared_pts):
        bs, b = combo[:-1], combo[-1]
        x = sum(bs) - (m - 1) * b
        assert x in lattice
        for eps, slack in slacks.items():
            target = x + sum(b - bs[j] for j in range(m) if eps[j])
            member = target in form_base[eps]
            ok = member and slack >= 0
            all_pass &= ok
            checks.append(CubeCheck(x=x, eps=eps, base_in_form=member, slack=slack, passed=ok))
    failures = [c for c in checks if not c.passed]
    return CubeCertificateReport(
        dimension=m,
        depth=scenario.depth,
        t_tail=t_tail,
        checks_total=len(checks),
        checks_failed=len(failures),
        first_failures=tuple(failures[:5]),
        all_pass=all_pass,
        integral_lower_bound=t_tail**m,
        checks=tuple(checks),
    )


def assert_matches_reference(rep, ref):
    # the report against the reference, field by field; == covers the
    # dimension, depth and t_tail too (checks is left out of ==)
    assert tuple(rep.checks) == ref.checks
    assert rep.checks_total == ref.checks_total == len(rep.checks)
    assert rep.checks_failed == ref.checks_failed
    assert rep.first_failures == ref.first_failures
    assert rep.all_pass == ref.all_pass
    assert rep.integral_lower_bound == ref.integral_lower_bound
    assert rep == ref


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_cube_certificate_matches_fraction_reference(m, k):
    # default tail, --tamper's doubled tail and seeded random tails, some
    # passing and some failing
    s = cube_family(m, k)
    rnd = random.Random(1000 * m + k)
    tails = [None, s.witness_tail * 2]
    tails += [F(rnd.randint(1, 9), rnd.randint(1, 4) * (m + 1) * 2 ** ((m + 1) * k))
              for _ in range(1 if (m, k) == (4, 2) else 4)]
    verdicts = set()
    for t_tail in tails:
        rep = cube_certificate_check(s, t_tail)
        assert_matches_reference(rep, reference_cube_certificate_check(s, t_tail))
        verdicts.add(rep.all_pass)
    assert verdicts == {True, False}


def test_cube_certificate_mutated_form_alphabet_fails():
    # drop the largest digit of one form alphabet: every target that uses it
    # leaves that form's base points, and both kernels see it
    s = cube_family(3, 2)
    eps = (0, 1, 1)
    spec = s.form_specs[eps]
    mutated = digit_spec(spec.radix, spec.depth, spec.alphabet[:-1], spec.tail)
    bad = dataclasses.replace(s, form_specs={**s.form_specs, eps: mutated})
    rep = cube_certificate_check(bad)
    assert_matches_reference(rep, reference_cube_certificate_check(bad))
    assert not rep.all_pass
    missed = [c for c in rep.checks if not c.base_in_form]
    assert missed and {c.eps for c in missed} == {eps}
    assert all(not c.passed for c in missed)
    assert cube_certificate_check(s).all_pass


def cube_check_counter(monkeypatch):
    """A list that grows by one per CubeCheck built while the patch holds."""
    made = []

    def counting(*args):
        made.append(1)
        return CubeCheck(*args)

    monkeypatch.setattr(averages, "CubeCheck", counting)
    return made


def test_cube_report_keeps_only_the_first_failures(monkeypatch):
    # the report holds counts and at most five failures, so its memory does
    # not grow with the check count; only the lazy .checks builds every check
    passing = [cube_family(4, 2), cube_family(5, 2)]
    s = cube_family(3, 1)
    made = cube_check_counter(monkeypatch)
    for scen in passing:
        rep = cube_certificate_check(scen)
        assert rep.all_pass and rep.checks_failed == 0 and rep.first_failures == ()
        assert made == [], (scen.dimension, scen.depth)
    rep = cube_certificate_check(s, s.witness_tail * 2)
    assert rep.checks_failed > 5 and not rep.all_pass
    assert len(made) == min(5, rep.checks_failed) == len(rep.first_failures)
    assert len(list(rep.checks)) == rep.checks_total == 112
    assert len(made) == 5 + 112
    monkeypatch.undo()
    assert list(rep.first_failures) == [c for c in rep.checks if not c.passed][:5]


def test_cube_certificate_builds_no_fraction_per_combination(monkeypatch):
    # x stays an int over one scale; the Fractions built are the tail and a
    # few per form for its slack, none per combination of base points
    s = cube_family(4, 2)
    combinations = 15_360 // len(s.form_specs)
    made = fraction_counter(monkeypatch)
    rep = cube_certificate_check(s)
    monkeypatch.undo()
    assert rep.all_pass and rep.checks_total == 15_360
    assert len(made) <= 4 * len(s.form_specs) < combinations, len(made)


@pytest.mark.parametrize(
    "m, k, count", [(3, 1, 112), (3, 2, 1792), (4, 1, 480), (4, 2, 15_360), (5, 2, 126_976)]
)
def test_cube_certificate_estimates_its_checks(monkeypatch, m, k, count):
    # the estimate, named by the refusal one under it, is the check count
    s = cube_family(m, k)
    assert len(cube_certificate_check(s).checks) == count
    monkeypatch.setattr(averages, "MAX_CUBE_CHECKS", count - 1)
    with pytest.raises(ValueError, match=f"of {count:,} checks exceeds the cap of {count - 1:,}"):
        cube_certificate_check(s)


def test_cube_certificate_refuses_before_enumerating(monkeypatch):
    monkeypatch.setattr(averages, "MAX_CUBE_CHECKS", 112)
    assert cube_certificate_check(cube_family(3, 1)).all_pass  # exactly at the cap
    monkeypatch.undo()
    monkeypatch.setattr(averages, "_base_nums", lambda spec: pytest.fail("enumerated"))
    for (m, k), count in {(4, 4): 15_728_640, (5, 3): 8_126_464, (3, 5): 7_340_032}.items():
        with pytest.raises(ValueError, match=f"of {count:,} checks exceeds the cap"):
            cube_certificate_check(cube_family(m, k))
    assert 1_032_192 <= MAX_CUBE_CHECKS < 7_340_032  # (6,2) runs, (3,5) is refused


# --- Monte Carlo -------------------------------------------------------------


def test_monte_carlo_deterministic():
    s = furstenberg_family(1)
    rows = [[c] for c in s.coefficients]
    a = monte_carlo_average(rows, s.factors, F(-2, 3), 1, 5000, seed=99)
    b = monte_carlo_average(rows, s.factors, F(-2, 3), 1, 5000, seed=99)
    assert a == b
    c = monte_carlo_average(rows, s.factors, F(-2, 3), 1, 5000, seed=100)
    assert c.estimate != a.estimate


def test_monte_carlo_agrees_with_exact():
    s = furstenberg_family(1)
    rows = [[c] for c in s.coefficients]
    for i, x in enumerate((F(-11, 12), F(-2, 3), F(-1, 4))):
        exact = float(multilinear_integral(s.factors, s.coefficients, x, (0, 1)))
        est = monte_carlo_average(rows, s.factors, x, 1, 30_000, seed=400 + i)
        assert abs(est.estimate - exact) <= 4 * est.stderr + 1e-12


def test_monte_carlo_multidim():
    # 2d check against a hand-computable product set
    u = normalize([(0, F(1, 2))])
    v = normalize([(0, F(1, 4))])
    est = monte_carlo_average([[1, 0], [0, 1]], [u, v], 0, 1, 40_000, seed=5)
    assert abs(est.estimate - 0.125) <= 4 * est.stderr


def test_monte_carlo_eps_must_be_positive():
    u = normalize([(0, 1)])
    for eps in (0, -1, "-1/2"):
        with pytest.raises(ValueError, match="eps must be positive"):
            monte_carlo_average([[1]], [u], 0, eps, 100, seed=1)


def test_monte_carlo_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError):
        monte_carlo_average([[1]], [u, u], 0, 1, 100, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_average([[1]], [u], 0, 1, 1, seed=1)


# --- degenerate truncated ratios ---------------------------------------------


def test_degenerate_closed_form_matches_quadrature():
    rnd = random.Random(271828)
    for _ in range(20):
        big_m = rnd.randint(1, 1000)
        p = rnd.uniform(0.2, 1.5)
        big_l = 10 ** rnd.uniform(1, 4)
        _, integral = degenerate_lower_ratio(big_m, p, big_l)
        with warnings.catch_warnings():
            # tolerance is deliberately past roundoff; the returned error
            # estimate guards the comparison below
            warnings.simplefilter("ignore", IntegrationWarning)
            num, err = quad(
                lambda x: degenerate_pointwise_bound(big_m, x) ** p,
                -big_l, big_l, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-12,
            )
        assert abs(num - integral) <= 1e-9 * abs(integral) + 10 * err


def test_degenerate_pointwise_bound_shape():
    assert degenerate_pointwise_bound(100, 0.0) == 4.0
    assert degenerate_pointwise_bound(100, 1.0) == 4.0 / 101**2
    assert degenerate_pointwise_bound(100, -1.0) == 4.0 / 101**2


def test_degenerate_matches_former_squares_formulas_bitwise():
    # the squares family's own closed form, before it became the (c_b, r) =
    # (4, 3) case of the dependent-forms closed form
    def old_ratio(big_m, p, big_l):
        u = big_m * big_l + 1.0
        if abs(1.0 - 2.0 * p) < 1e-9:
            integral = 2.0 * (4.0**p) * math.log(u) / big_m
        else:
            integral = 2.0 * (4.0**p) * (u ** (1.0 - 2.0 * p) - 1.0) / (big_m * (1.0 - 2.0 * p))
        return (integral * big_m / 2.0) ** (1.0 / p), integral

    for p in (0.1, 0.2, 0.4, 0.45, 0.5, 0.7, 1.1):
        for big_m, big_l in ((100, 100.0), (37, 123.0), (1, 0.5), (1000, 1e4)):
            assert degenerate_lower_ratio(big_m, p, big_l) == old_ratio(big_m, p, big_l)
        for x in (0.0, 0.013, -0.7, 3.0, -250.5):
            assert degenerate_pointwise_bound(37, x) == min(4.0, 4.0 / (37 * abs(x) + 1.0) ** 2)
    assert degenerate_lower_ratio(37, 0.45, 123)[0] == 1240.2851576270982


def test_degenerate_growth_below_half():
    ratios = [degenerate_lower_ratio(100, 0.4, L)[0] for L in (1e2, 1e3, 1e4)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] / ratios[0] >= 5.0


def test_degenerate_saturation_above_half():
    ratios = [degenerate_lower_ratio(100, 0.6, 10.0**e)[0] for e in range(2, 7)]
    incs = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(b < a for a, b in zip(incs, incs[1:]))
    # increments shrink geometrically with factor -> 10^(1-2p') = 10^-0.2
    tail_factor = incs[-1] / incs[-2]
    assert abs(tail_factor - 10**-0.2) < 0.01


def test_degenerate_log_case():
    ratio, integral = degenerate_lower_ratio(10, 0.5, 1000.0)
    num, _ = quad(
        lambda x: degenerate_pointwise_bound(10, x) ** 0.5,
        -1000, 1000, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-12,
    )
    assert abs(num - integral) <= 1e-9 * abs(integral)


def test_degenerate_validation():
    with pytest.raises(ValueError):
        degenerate_lower_ratio(0, 0.4, 10)
    with pytest.raises(ValueError):
        degenerate_lower_ratio(10, -1.0, 10)
    with pytest.raises(ValueError):
        degenerate_lower_ratio(10, 0.4, 0)


def test_dependent_forms_generalizes_squares():
    # r = 3 with b = (2, -1): same exponent structure as the squares family
    res = dependent_forms_lower_ratio(3, [2, -1], 100, 1.2, 1000.0)
    assert res.threshold == F(3, 2)
    assert res.grows  # 1.2 < 3/2
    no = dependent_forms_lower_ratio(3, [2, -1], 100, 1.6, 1000.0)
    assert not no.grows
    # growth in L is monotone inside the divergence range
    rs = [dependent_forms_lower_ratio(4, [1, 1, -1], 50, 1.1, 10.0**e).ratio
          for e in (2, 3, 4)]
    assert rs[0] < rs[1] < rs[2]


def test_dependent_forms_pointwise_bound():
    v = dependent_forms_pointwise_bound(3, [2, -1], 100, 0.0)
    assert v == pytest.approx(min(4.0, (2.0 / 3) ** 2))


def test_dependent_forms_validation():
    with pytest.raises(ValueError):
        dependent_forms_lower_ratio(2, [1], 10, 1.2, 100)
    with pytest.raises(ValueError):
        dependent_forms_lower_ratio(3, [1, 1], 10, 1.2, 100)  # sums to 2
    with pytest.raises(ValueError):
        dependent_forms_lower_ratio(3, [2, -1, 0], 10, 1.2, 100)
