"""Average engines: pointwise integrals, sweeps, certificates, estimators."""

import bisect
import dataclasses
import functools
import hashlib
import itertools
import math
import random
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from divlab import averages, cli, hilbert, intervals, scenarios
from divlab.averages import (
    MAX_CUBE_CHECKS,
    MAX_SWEEP_CANDIDATES,
    CubeCertificateReport,
    CubeCheck,
    SearchExhaustedError,
    _time_pairs,
    check_sweep_candidates,
    cube_certificate_check,
    degenerate_lower_ratio,
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
from divlab.digitsets import (
    DigitSetSpec,
    _base_nums,
    base_points,
    cardinality,
    combine,
    digit_spec,
    measure,
)
from divlab.intervals import EMPTY, IntervalUnion, InvariantError, normalize
from divlab.scenarios import CubeScenario, FurstenbergScenario, cube_family, furstenberg_family
from cube_reference import cube_certificate_reference, cube_checks_reference, cube_rows_reference
from fresh_interpreter import run_script
from grid_reference import grid_cells_reference
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


def generated_meetings(fam_s, coeffs, dom, block):
    """The (p, q, x, tau) candidates the sweep generates at _BLOCK = block,
    before the window and t-domain cut, endpoint pair by endpoint pair: every
    endpoint at both t-domain ends, and for two different coefficients every
    endpoint pair, unless the full product |E_i||E_j| is at least block and
    some family has a third coefficient; then only the pairs that meet in
    the closure of U_l, for l the first such family."""
    ends = [[int(e) for e in es] for es in fam_s]
    out = [(0, i + 1, e - c * t, t) for i, (es, c) in enumerate(zip(ends, coeffs))
           for t in dom for e in es]
    for i, j in itertools.combinations(range(len(ends)), 2):
        ci, cj = coeffs[i], coeffs[j]
        if ci == cj:
            continue
        l = next((l for l, c in enumerate(coeffs) if c not in (ci, cj)), None)
        prune = l is not None and len(ends[i]) * len(ends[j]) >= block
        for e in ends[i]:
            for f in ends[j]:
                tau = (f - e) // (cj - ci)
                x = e - ci * tau
                if prune:  # is x + c_l tau in a closed piece of U_l?
                    y = x + coeffs[l] * tau
                    at = bisect.bisect_right(ends[l][0::2], y) - 1
                    if at < 0 or y > ends[l][2 * at + 1]:
                        continue
                out.append((i + 1, j + 1, x, tau))
    return out


def test_sweep_packs_candidates_across_pairs(monkeypatch):
    calls, inputs = [], []
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
    # which never meet and bring no candidates, and no third family to prune by
    instances = [(k, (1, 2, 3)) for k in (1, 2, 3)] + [(1, (2, -1, 2)), (2, (1, 1, 3))]
    for k, coeffs in instances:
        s = furstenberg_family(k)
        for block in (default, 31):  # at 31, blocks span pairs and fold many times
            packed = sweep(s, coeffs, lambda *a: inputs.append(a) or packed_blocks(*a), block)
            fam_s, _, dom, _ = inputs.pop()
            candidates = len(generated_meetings(fam_s, coeffs, dom, block))
            assert len(calls) == -(-candidates // block), (k, coeffs, block)
            if block == default and coeffs == s.coefficients:
                assert len(calls) == {1: 1, 2: 1, 3: 3}[k]
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
    """The kernel's live meetings are the full-state reference's, and its
    (index, jump) the reference's nonzero entries; returns the reference's
    jumps."""
    ref, live = full_state_jumps(*args)
    got, at, jumps = averages._meeting_jumps(*args)
    nz = np.flatnonzero(ref)
    assert np.array_equal(got, np.flatnonzero(live))
    assert np.array_equal(at, nz) and np.array_equal(jumps, ref[nz])
    assert jumps.dtype == args[0].dtype
    return ref


def test_meeting_kernel_matches_full_state_reference(monkeypatch):
    # every block of the depth-1..3 claim sweeps
    for k in (1, 2, 3):
        s = furstenberg_family(k)
        calls = kernel_calls(monkeypatch, lambda: sweep_superlevel(
            s.factors, s.coefficients, s.level, window=(-1, 0)))
        assert len(calls) == {1: 1, 2: 1, 3: 3}[k]
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


def test_distinct_on_empty_arrays():
    for dtype in (np.int64, object):
        out = averages._distinct(np.array([], dtype=dtype))
        assert out.dtype == dtype and out.size == 0
    assert averages._distinct(np.array([3, 1, 3, 2])).tolist() == [1, 2, 3]


def state_jump_calls(monkeypatch):
    """A list that gets the number of state columns of every _state_jumps
    call made while the patch holds."""
    calls, reduce = [], averages._state_jumps

    def spy(states, *args):
        calls.append(states.shape[1])
        return reduce(states, *args)

    monkeypatch.setattr(averages, "_state_jumps", spy)
    return calls


def test_state_table_is_filled_once_per_coefficients_and_dtype(monkeypatch):
    averages._state_table.cache_clear()
    calls = state_jump_calls(monkeypatch)
    s = furstenberg_family(2)
    first = sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))
    assert calls
    calls.clear()
    assert sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0)) == first
    assert calls == [] and averages._state_table.cache_info().currsize == 1
    # the dtype-object instance and an int64 one with its coefficients
    sets, coeffs, t_domain = huge_denominator_instance()
    sweep_superlevel(sets, coeffs, F(1, 10), window=(-2, 2), t_domain=t_domain)
    sweep_superlevel(s.factors, coeffs, s.level, window=(-1, 0))
    assert averages._state_table.cache_info().currsize == 3
    tables = [averages._state_table(tuple(coeffs), np.dtype(d)) for d in (np.int64, object)]
    assert [t[-1].dtype for t in tables] == [np.int64, object]
    assert all(len(t[0]) > 1 for t in tables)


def test_state_table_cache_stays_within_its_bound():
    averages._state_table.cache_clear()
    bound = averages._state_table.cache_info().maxsize
    u, v = normalize([(0, 1), (2, 3)]), normalize([(F(1, 2), 4)])

    def sweep(c):
        return sweep_superlevel([u, v], [1, c], F(1, 4), window=(-4, 4))

    want = sweep(2)
    for c in range(3, bound + 13):
        sweep(c)
        assert averages._state_table.cache_info().currsize <= bound
    assert averages._state_table.cache_info().currsize == bound
    assert sweep(2) == want  # its table was dropped and is filled again


def test_sweep_of_forty_families_with_codes_past_int64(monkeypatch):
    # 41 rows, so state codes reach 3^40 > 2^63 and are Python ints, while
    # the sweep's own arrays stay int64
    rnd = random.Random(4042)
    sets = [normalize([(F(-rnd.randint(0, 4), 4), F(rnd.randint(6, 10), 4))]) for _ in range(40)]
    coeffs = [rnd.choice([-2, -1, 1, 2, 3]) for _ in range(40)]
    out = []
    calls = kernel_calls(monkeypatch, lambda: out.append(
        sweep_superlevel(sets, coeffs, F(1, 8), window=(-3, 3))))
    assert calls and all(args[0].dtype == np.int64 for args in calls)
    for args in calls:
        check_kernel(args)
    codes = averages._state_table(tuple(coeffs), np.dtype(np.int64))[0]
    assert codes.dtype == object and max(codes) >= 3**40
    xs = out[0].function.xs
    for x in [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:]))]:
        assert out[0].function(x) == multilinear_integral(sets, coeffs, x, (0, 1))


def oracle_instances():
    """Seeded (sets, coeffs, t_domain, window) of 2 to 4 families with
    negative and equal coefficients, empty families and t-domains off
    [0, 1], then two depth-2 claim factors with other coefficients and the
    dtype-object instance."""
    rnd = random.Random(1999)
    for _ in range(200):
        nsets = rnd.randint(2, 4)
        sets = [EMPTY if rnd.random() < 0.05 else rnd_union(rnd, span=6, den=4, max_pieces=6)
                for _ in range(nsets)]
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(nsets)]
        if rnd.random() < 0.2:
            coeffs[rnd.randrange(1, nsets)] = coeffs[0]
        t0 = F(rnd.randint(-6, 6), rnd.randint(1, 3))
        w0 = F(rnd.randint(-16, 8), rnd.randint(1, 2))
        yield sets, coeffs, (t0, t0 + F(rnd.randint(1, 6), rnd.randint(1, 3))), (w0, w0 + 8)
    s = furstenberg_family(2)
    for coeffs in ((-1, 2, 3), (3, 1, -2)):
        yield s.factors, coeffs, (F(-1, 3), F(5, 4)), (F(-1), F(0))
    sets, coeffs, t_domain = huge_denominator_instance()
    yield sets, coeffs, t_domain, (F(-2), F(2))


def test_pruned_sweep_equals_the_full_product_sweep(monkeypatch):
    # the breakpoints do not depend on which candidates a pair generates: the
    # sweep equals, field by field, the one fed every candidate pair by pair,
    # at every block size, and F is the pointwise integral at every
    # breakpoint and cell midpoint.  With a window and t-domain that hold
    # every meeting, the blocks carry exactly the candidates of
    # generated_meetings
    calls, inputs, kernel, blocks = [], [], averages._meeting_jumps, averages._crossing_blocks

    def counting(*args):
        calls.append(args[0])
        return kernel(*args)

    def sweep(blocks, block, sets, coeffs, t_domain, window):
        with monkeypatch.context() as m:
            m.setattr(averages, "_crossing_blocks", blocks)
            m.setattr(averages, "_BLOCK", block)
            m.setattr(averages, "_meeting_jumps", counting)
            calls.clear()
            res = sweep_superlevel(sets, coeffs, F(1, 8), window=window, t_domain=t_domain)
        return res, sum(map(len, calls))

    seen = dict.fromkeys(("pruned", "negative", "equal", "empty", "object"), 0)
    cases = 0
    for sets, coeffs, t_domain, window in oracle_instances():
        want = None
        for block in (7, 31, averages._BLOCK):
            res, fed = sweep(lambda *a: inputs.append(a) or blocks(*a), block,
                             sets, coeffs, t_domain, window)
            ref, full = sweep(per_pair_blocks, block, sets, coeffs, t_domain, window)
            # pair meetings have |tau| <= 2M and |x| <= M + 2M max|c|, for M the
            # largest |endpoint|; the domain ends +-(2M + 1) meet inside +-wide
            fam_s, cs, _, _ = inputs.pop()
            big = max((abs(int(e)) for es in fam_s for e in es), default=0)
            dom = (-2 * big - 1, 2 * big + 1)
            wide = big + max(map(abs, cs)) * dom[1]
            with monkeypatch.context() as m:
                m.setattr(averages, "_BLOCK", block)
                made = [(int(p), int(q), int(x), int(tau))
                        for cut in blocks(fam_s, cs, dom, (-wide, wide)) for x, tau, p, q in zip(*cut)]
            assert sorted(made) == sorted(generated_meetings(fam_s, cs, dom, block))
            f, g = res.function, ref.function
            assert (f.x_nums, f.y_nums, f.x_den, f.y_den) == (g.x_nums, g.y_nums, g.x_den, g.y_den)
            assert (res.superlevel, res.superlevel_measure) == (ref.superlevel, ref.superlevel_measure)
            assert want in (None, res)
            want, cases = res, cases + 1
            if fed < full:
                seen["pruned"] += 1
                seen["negative"] += min(coeffs) < 0
                seen["equal"] += len(set(coeffs)) < len(coeffs)
                seen["empty"] += EMPTY in sets
                seen["object"] += calls[0].dtype == object
        xs = want.function.xs
        for x in xs + tuple((a + b) / 2 for a, b in zip(xs, xs[1:])):
            assert want.function(x) == multilinear_integral(sets, coeffs, x, t_domain)
    assert cases == 3 * 203 and all(seen.values()), seen


def test_sweep_breakpoints_are_the_window_ends_and_the_held_meetings():
    # in Fractions: the window ends, every endpoint meeting a t-domain end
    # inside the window, and every pair meeting in the window and t-domain
    # that lies in the closure of every family; with two families that is
    # every meeting
    rnd = random.Random(4242)
    for _ in range(150):
        nsets = rnd.randint(1, 4)
        sets = [rnd_union(rnd, span=6, den=4, max_pieces=4) for _ in range(nsets)]
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in range(nsets)]
        t0 = F(rnd.randint(-6, 6), rnd.randint(1, 3))
        (t0, t1), (w0, w1) = (t0, t0 + F(rnd.randint(1, 6), 2)), (F(-4), F(4))
        res = sweep_superlevel(sets, coeffs, F(1, 8), window=(w0, w1), t_domain=(t0, t1))
        ends = [[e for pair in u.pairs for e in pair] for u in sets]
        want = {w0, w1} | {e - c * t for es, c in zip(ends, coeffs) for e in es for t in (t0, t1)}
        for (ei, ci), (ej, cj) in itertools.combinations(zip(ends, coeffs), 2):
            for e, f in itertools.product(ei, ej) if ci != cj else ():
                tau = (f - e) / (cj - ci)
                x = e - ci * tau
                if t0 <= tau <= t1 and all(any(a <= x + c * tau <= b for a, b in u.pairs)
                                           for u, c in zip(sets, coeffs)):
                    want.add(x)
        assert res.function.xs == tuple(sorted(x for x in want if w0 <= x <= w1))


def test_sweep_kernel_input_is_pinned_and_bounded(monkeypatch):
    # the meetings that reach the kernel on the depth-k claim sweeps; a pair
    # generates only what its third family can hold, never more than the
    # candidate estimate that gates the sweep
    for k, want in {1: 175, 2: 3045, 3: 17332, 4: 166049}.items():
        s = furstenberg_family(k)
        calls = kernel_calls(monkeypatch, lambda: sweep_superlevel(
            s.factors, s.coefficients, s.level, window=(-1, 0)))
        fed = sum(len(args[0]) for args in calls)
        assert fed == want, (k, fed)
        assert fed <= check_sweep_candidates([2 * len(u.nums) for u in s.factors], s.coefficients)


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


small_unions = st.one_of(
    st.just(EMPTY),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6), st.sampled_from([1, 2, 3])),
             min_size=1, max_size=4).map(
        lambda ps: normalize((F(a, d), F(a + n, d)) for a, n, d in ps)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(small_unions, st.integers(1, 4).flatmap(
           lambda c: st.sampled_from([c, -c]))), min_size=1, max_size=3),
       st.integers(-40, 40), st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
       st.integers(1, 3))
@example([(EMPTY, 1), (normalize([(0, 1)]), -2)], 0, (-5, 5), 1)  # an empty union
@example([(normalize([(0, 1), (2, 3)]), 2)], 1, (9, -9), 1)  # an inverted window
def test_time_pairs_are_canonical_without_a_merge(families, x, window, refine):
    # the meet of canonical piece lists is canonical, so _time_pairs' pieces
    # and the unions form_time_set and intersect build from them unmerged
    # are sorted, nonempty and never touch
    sets, coeffs = zip(*families)
    scale = math.lcm(*(u.den for u in sets)) * refine
    c_lcm = math.lcm(*map(abs, coeffs))
    pairs = _time_pairs(sets, coeffs, scale, c_lcm, x, [window])
    assert all(a < b for a, b in pairs)
    assert all(b < c for (_, b), (c, _) in zip(pairs, pairs[1:]))
    unit = scale * c_lcm
    domain = (F(window[0], unit), F(window[1], unit))
    for u in (form_time_set(sets, coeffs, F(x, scale)),
              form_time_set(sets, coeffs, F(x, scale), domain),
              functools.reduce(IntervalUnion.intersect, sets)):
        assert u == normalize(u.pairs)
    if window[0] < window[1]:
        assert form_time_set(sets, coeffs, F(x, scale), domain) == normalize(
            (F(a, unit), F(b, unit)) for a, b in pairs)
    else:
        assert pairs == []


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
    # an empty union makes F = 0, and no pair meeting lies in its closure, so
    # the breakpoints are the window ends and the other families' endpoints
    # meeting the t-domain ends inside the window
    s = furstenberg_family(1)
    sets, coeffs = list(s.factors), list(s.coefficients)
    sets[i] = EMPTY
    res = sweep_superlevel(sets, coeffs, s.level, window=(-1, 0))
    f = res.function
    meets = {e - c * t for u, c in zip(sets, coeffs) for pair in u.pairs for e in pair for t in (0, 1)}
    assert f.xs == tuple(sorted({F(-1), F(0)} | {x for x in meets if -1 <= x <= 0}))
    assert len(f.x_nums) == (2, 7, 7)[i]
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


def doubled_jumps(monkeypatch):
    """Make every slope jump of the continuous sweep twice its size."""
    meeting_jumps = averages._meeting_jumps

    def doubled(*args):
        live, at, jumps = meeting_jumps(*args)
        return live, at, 2 * jumps

    monkeypatch.setattr(averages, "_meeting_jumps", doubled)


def test_sweep_with_corrupted_jumps_fails_its_end_check(monkeypatch):
    # F at the last breakpoint is evaluated pointwise; doubled jumps reach
    # another value there.  Dropping the jump at the first breakpoint would be
    # no corruption: the slope sum skips the jumps at both window ends, since
    # the first slope is read off F at the first two breakpoints
    s = furstenberg_family(1)
    doubled_jumps(monkeypatch)
    with pytest.raises(InvariantError, match="^kinetic sweep disagrees with the pointwise integral$"):
        sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))


def test_verify_claim_with_corrupted_jumps_exits_1(capsys, monkeypatch):
    doubled_jumps(monkeypatch)
    assert cli.main(["verify-claim", "--k", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("divlab: error: internal invariant failed: "
                       "kinetic sweep disagrees with the pointwise integral\n")


def test_sweep_with_a_corrupted_anchor_fails_its_first_slope(monkeypatch):
    # one unit more of t-measure at the second breakpoint leaves F's first
    # slope off the grid: the breakpoints between them would be missing
    s = furstenberg_family(1)
    calls = []

    def second_anchor_grows(*args):
        pairs = _time_pairs(*args)
        calls.append(args)
        return [*pairs, (0, 1)] if len(calls) == 2 else pairs

    monkeypatch.setattr(averages, "_time_pairs", second_anchor_grows)
    with pytest.raises(InvariantError, match="^sweep events missed a breakpoint of F$"):
        sweep_superlevel(s.factors, s.coefficients, s.level, window=(-1, 0))
    assert len(calls) == 3  # the anchors x0, x1 and the last breakpoint


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


def on_circle(u, y):
    """Whether y, folded into [-1, 1), lies in the image of u on that circle."""
    y = (y + 1) % 2 - 1
    first, last = u.pairs[0][0], u.pairs[-1][1]
    periods = range(math.floor((first - y) / 2), math.ceil((last - y) / 2) + 1)
    return any(y + 2 * m in u for m in periods)


def brute_circle_count(sets, coeffs, n_steps, x):
    return sum(
        1
        for n in range(1, n_steps + 1)
        if all(on_circle(u, x + c * F(n, n_steps)) for u, c in zip(sets, coeffs))
    )


@st.composite
def circle_instances(draw):
    # lengths below, equal to and above the circumference 2 of the circle [-1, 1)
    spans = st.one_of(lengths, st.just(F(2)), lengths.map(lambda q: q + 2))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        lows = draw(st.lists(small_rationals, min_size=1, max_size=3))
        sets.append(normalize((a, a + draw(spans)) for a in lows))
    coeffs = draw(st.lists(coefficients, min_size=len(sets), max_size=len(sets)))
    w0 = draw(st.one_of(st.just(F(-1)), small_rationals))
    return sets, coeffs, draw(st.integers(1, 12)), (w0, w0 + draw(spans))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circle_instances(), st.integers(0, 2**32 - 1))
@example(  # a piece longer than the circle, a window past it, negative coefficients
    ([normalize([(F(-3), F(1, 2))]), normalize([(F(1, 3), F(3, 2)), (F(2), F(9, 4))])],
     [-2, 3], 7, (F(-5, 2), F(3, 2))), 5)
@example(  # the window is the whole circle; a set reaching past the seam
    ([normalize([(F(1, 2), F(4, 3))]), normalize([(F(-1), F(-1, 3))])],
     [1, -1], 12, (F(-1), F(1))), 6)
def test_discrete_circle_matches_brute_property(instance, seed):
    sets, coeffs, n_steps, window = instance
    level = F(1, 3)
    res = discrete_superlevel(sets, coeffs, n_steps, level, window, topology="circle")
    g = res.function
    assert g.xs[0] == window[0] and g.xs[-1] == window[1]
    # the integer-grid cut agrees with the Fraction reference pass on the views
    assert res.superlevel == normalize(fraction_superlevel(g.xs, g.values, g.values, level))
    rnd = random.Random(seed)
    for i in rnd.sample(range(len(g.values)), min(8, len(g.values))):
        for x in (g.xs[i], (g.xs[i] + g.xs[i + 1]) / 2):
            cnt = brute_circle_count(sets, coeffs, n_steps, x)
            assert g(x) == F(cnt, n_steps)
            assert (x in res.superlevel) == (cnt >= math.ceil(level * n_steps))


def periodic_extension(u, first, last):
    """u's image on the circle [-1, 1), repeated over periods first..last of the line."""
    arcs = wrap_translate(u, 0).pairs
    return normalize((a + 2 * m, b + 2 * m) for m in range(first, last + 1) for a, b in arcs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(circle_instances())
@example(  # a window over three periods; the first set reaches past the seam
    ([normalize([(F(1, 2), F(4, 3))]), normalize([(F(-2, 3), F(1, 3))])],
     [1, -2], 6, (F(-3), F(3))))
def test_discrete_circle_is_line_over_periodic_sets(instance):
    sets, coeffs, n_steps, window = instance
    reach = max(map(abs, coeffs))  # x + c n/N stays within reach of the window
    first = math.floor((window[0] - reach + 1) / 2)
    last = math.ceil((window[1] + reach + 1) / 2)
    periodic = [periodic_extension(u, first, last) for u in sets]
    level = F(1, 3)
    circle = discrete_superlevel(sets, coeffs, n_steps, level, window, topology="circle")
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


def grid_cells(*args):
    """averages._grid_cells with its coordinate and count arrays as lists."""
    coords, counts, scale = averages._grid_cells(*args)
    return coords.tolist(), counts.tolist(), scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circle_instances(), st.booleans())
@example(  # an empty family, negative coefficients
    ([normalize([(F(-1, 2), F(2, 3))]), EMPTY], [-3, 2], 9, (F(-1), F(1))), True)
@example(  # a window over several periods; a piece longer than the circle
    ([normalize([(F(-7, 2), F(1, 3))]), normalize([(F(1, 2), F(4, 3))])],
     [2, -1], 12, (F(-3), F(4))), True)
@example(  # denominators past int64: the arrays hold Python ints
    ([normalize([(F(-1, 2**70), F(2**69 + 1, 2**70))]), normalize([(F(-2, 3), F(5, 3**41))])],
     [1, -2], 11, (F(-1), F(1, 2**65))), False)
def test_grid_cells_matches_per_step_loop(instance, circle):
    sets, coeffs, n_steps, (w0, w1) = instance
    want = grid_cells_reference(sets, coeffs, n_steps, w0, w1, circle)
    assert grid_cells(sets, coeffs, n_steps, w0, w1, circle) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(averages, "_BLOCK", 7)  # block seams fall inside the steps
        assert grid_cells(sets, coeffs, n_steps, w0, w1, circle) == want


@pytest.mark.slow
def test_grid_cells_matches_per_step_loop_k3():
    s = furstenberg_family(3)
    for circle in (False, True):
        args = (s.factors, s.coefficients, 13_824, F(-1), F(0), circle)
        assert grid_cells(*args) == grid_cells_reference(*args)


def test_grid_sweep_runs_no_pair_intersections(monkeypatch):
    # every step of the grid sweep runs in one batched numpy pass
    calls, pair_isect = [], intervals._pair_isect

    def spy(*args):
        calls.append(len(args[0]))
        return pair_isect(*args)

    monkeypatch.setattr(intervals, "_pair_isect", spy)
    monkeypatch.setattr(averages, "_pair_isect", spy)
    s = furstenberg_family(2)
    for topology in ("line", "circle"):
        res = discrete_superlevel(s.factors, s.coefficients, 1152, s.level, (-1, 0), topology=topology)
        assert res.superlevel_measure == F(859, 1152)
    assert calls == []


def test_wrap_translate_preserves_measure_and_membership():
    rnd = random.Random(111)
    for _ in range(100):
        u = rnd_union(rnd, span=2, den=4, max_pieces=2).clip(-1, 1)
        if u.is_empty():
            continue
        shift = F(rnd.randint(-12, 12), rnd.randint(1, 6))
        w = wrap_translate(u, shift)
        assert w.measure() == min(u.measure(), F(2))
        for _ in range(10):
            x = F(rnd.randint(-16, 15), 16)  # inside the circle domain
            y = F(-1) + (x + shift - F(-1)) % 2
            if any(y == e for iv in w.intervals for e in (iv.lo, iv.hi)):
                continue
            assert (y in w) == (x in u)


def test_discrete_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError):
        discrete_superlevel([u], [1], 0, F(1, 2), (0, 1))
    with pytest.raises(ValueError):
        discrete_superlevel([u], [1], 4, F(1, 2), (0, 1), topology="torus")
    with pytest.raises(ValueError, match="^window must be nondegenerate$"):
        discrete_superlevel([u], [1], 4, F(1, 2), (0, -1))


# --- Riemann certificate search ----------------------------------------------


def test_find_riemann_n_frozen():
    cert = find_riemann_n(1, F(1, 192), F(1, 9))
    assert cert.n_steps == 96
    assert cert.measure == F(67, 96)
    s = furstenberg_family(1)
    res = discrete_superlevel(s.factors, s.coefficients, 96, F(1, 192), (-1, 0))
    assert res.superlevel_measure == cert.measure


def test_find_riemann_n_exhaustion():
    with pytest.raises(SearchExhaustedError):
        find_riemann_n(1, F(1, 192), F(99, 100), max_n=300)


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
    gen_pts = [base_points(g) for g in scenario.generator_specs]
    shared_pts = base_points(scenario.shared_spec)
    lattice = set(base_points(scenario.witness_spec))
    form_base = {eps: set(base_points(spec)) for eps, spec in scenario.form_specs.items()}
    slacks = {eps: spec.tail - (tau + sum(eps) * t_tail)
              for eps, spec in sorted(scenario.form_specs.items())}
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


def test_cube_certificate_reads_each_forms_own_tail():
    # (3,1): 16 combinations, 7 forms of tail 1/16, witness tail 1/64, so the
    # reach at weight w is (1 + w)/64 and the top form fits exactly.  Every
    # tail over 100 leaves each reach above its tail: 7 * 16 = 112 failures.
    s = cube_family(3, 1)
    shrunk = {eps: spec.with_tail(spec.tail / 100) for eps, spec in s.form_specs.items()}
    rep = cube_certificate_check(dataclasses.replace(s, form_specs=shrunk))
    assert (rep.checks_total, rep.checks_failed, rep.all_pass) == (112, 112, False)
    # halving only (1,1,1)'s tail to 1/32 puts it below its reach 4/64; every
    # other form keeps 1/16 >= its reach, so exactly its 16 checks fail
    top = (1, 1, 1)
    halved = {**s.form_specs, top: s.form_specs[top].with_tail(F(1, 32))}
    rep = cube_certificate_check(dataclasses.replace(s, form_specs=halved))
    assert rep.checks_failed == 16
    assert {c.eps for c in rep.first_failures} == {top}
    failed = [c for c in rep.checks if not c.passed]
    assert len(failed) == 16 and {(c.eps, c.slack) for c in failed} == {(top, F(-1, 32))}


def test_cube_certificate_reads_its_lattice_off_the_witness():
    # (3,1)'s witness alphabet is {0, ..., 15}.  Moving digit 3 to 7/2 keeps
    # 16 digits and the tail, so the measure stays 16/64 = 1/4, but every x
    # with a digit 3 leaves the witness's base points
    s = cube_family(3, 1)
    spec = s.witness_spec
    assert spec.alphabet == tuple(F(d) for d in range(16))
    moved = digit_spec(spec.radix, spec.depth, [F(7, 2) if d == 3 else d for d in spec.alphabet],
                       spec.tail)
    assert measure(moved) == measure(spec) == F(1, 4)
    with pytest.raises(InvariantError, match="base lattice"):
        cube_certificate_check(dataclasses.replace(s, witness_spec=moved))


@st.composite
def mutated_cubes(draw):
    """A cube family with one form alphabet mutated (a digit dropped, or one
    shifted) and a rational t-box side around the witness tail."""
    m, k = draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2)]))
    s = cube_family(m, k)
    t_tail = s.witness_tail * F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    eps = draw(st.sampled_from(sorted(s.form_specs)))
    spec = s.form_specs[eps]
    digits = list(spec.alphabet)
    i = draw(st.integers(0, len(digits) - 1))
    if len(digits) > 1 and draw(st.booleans()):
        del digits[i]
    else:
        digits[i] += draw(st.sampled_from([-2, -1, 1, 2, F(1, 3)]))
    mutated = digit_spec(spec.radix, spec.depth, digits, spec.tail)
    return dataclasses.replace(s, form_specs={**s.form_specs, eps: mutated}), t_tail


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mutated_cubes(), st.booleans())
def test_cube_certificate_matches_per_combination_loop(instance, wide):
    # wide: every base point's numerator and denominator times 2^70, the same
    # points on a scale past int64
    scen, t_tail = instance
    # a mutated alphabet misses some digit sum, so the enumeration decides
    assert not averages._cube_digitwise_proof(scen)
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            base_nums = averages._base_nums
            mp.setattr(averages, "_base_nums", lambda spec: (
                [v << 70 for v in base_nums(spec)[0]], base_nums(spec)[1] << 70))
        ref = cube_certificate_reference(scen, t_tail)
        rep = cube_certificate_check(scen, t_tail)
        assert (rep.checks_total, rep.checks_failed) == (ref.checks_total, ref.checks_failed)
        assert (rep.first_failures, rep.all_pass) == (ref.first_failures, ref.all_pass)
        assert rep == ref
        assert tuple(rep.checks) == ref.checks


def test_cube_certificate_never_loads_numpy():
    # in a fresh interpreter: neither the digitwise proof, nor the enumeration
    # a mutated alphabet falls back on, nor iterating .checks loads numpy
    out = run_script("""
import dataclasses, sys
from divlab import cube_certificate_check, cube_family, digit_spec
s = cube_family(3, 2)
proved = cube_certificate_check(s)
spec = s.form_specs[(0, 1, 1)]
mutated = digit_spec(spec.radix, spec.depth, spec.alphabet[:-1], spec.tail)
bad = cube_certificate_check(dataclasses.replace(s, form_specs={**s.form_specs, (0, 1, 1): mutated}))
n = sum(1 for rep in (proved, bad) for _ in rep.checks)
print(proved.all_pass, bad.all_pass, n, "numpy" in sys.modules)
""")
    assert out.split() == ["True", "False", str(2 * 1792), "False"]


def on_the_enumeration_path(monkeypatch):
    """Fail the digitwise proof, so the certificate enumerates base points
    through averages._base_nums and a fake there decides the report."""
    monkeypatch.setattr(averages, "_cube_digitwise_proof", lambda scenario: False)


def test_cube_certificate_empty_form_set_misses_every_target(monkeypatch):
    # a form with no base points fails each of its checks: its empty set
    # makes every lookup miss, and nothing raises
    s = cube_family(3, 1)
    on_the_enumeration_path(monkeypatch)
    empty = s.form_specs[(1, 0, 1)]
    base_nums = averages._base_nums
    monkeypatch.setattr(averages, "_base_nums",
                        lambda spec: ([], 1) if spec is empty else base_nums(spec))
    rep = cube_certificate_check(s)
    assert rep == cube_certificate_reference(s)
    missed = [c for c in rep.checks if not c.base_in_form]
    assert {c.eps for c in missed} == {(1, 0, 1)} and len(missed) == 16
    assert rep.checks_failed == 16 and not rep.all_pass


def test_cube_certificate_scale_factor_past_int64(monkeypatch):
    # every base point 2^70 times smaller but one form's, which is 0 over 1:
    # the points stay small on the common scale, the factor that lifts that
    # form's 0 onto it does not: past 2^62 it stays an exact Python int
    s = cube_family(3, 1)
    on_the_enumeration_path(monkeypatch)
    lone = s.form_specs[(1, 1, 1)]
    base_nums = averages._base_nums
    monkeypatch.setattr(averages, "_base_nums", lambda spec: (
        ([0], 1) if spec is lone else (base_nums(spec)[0], base_nums(spec)[1] << 70)))
    rep = cube_certificate_check(s)
    ref = cube_certificate_reference(s)
    assert rep == ref and tuple(rep.checks) == ref.checks
    assert {c.eps for c in rep.checks if not c.passed} == {(1, 1, 1)}


def assert_matches_streamed_reference(rep, scen, t_tail):
    # the report against cube_checks_reference, field by field, streaming
    # both check sequences so that no tuple of every check is held
    total, failed, first = 0, 0, []
    for got, want in itertools.zip_longest(rep.checks, cube_checks_reference(scen, t_tail)):
        assert got == want
        total += 1
        if not want.passed:
            failed += 1
            first += [want][: 5 - len(first)]
    assert (rep.dimension, rep.depth) == (scen.dimension, scen.depth)
    assert rep.t_tail == (scen.witness_tail if t_tail is None else t_tail)
    assert rep.checks_total == len(rep.checks) == total
    assert (rep.checks_failed, rep.first_failures) == (failed, tuple(first))
    assert rep.all_pass == (failed == 0)
    assert rep.integral_lower_bound == rep.t_tail**scen.dimension


def cube_tails(scen, seeded):
    """The default tail, --tamper's doubled tail, a tail at which only the
    top weight fails (so the first five failures span five combinations) and
    seeded random tails around the witness tail."""
    m, tau = scen.dimension, scen.witness_tail
    rnd = random.Random(1000 * m + scen.depth)
    top = scen.form_specs[(1,) * m]
    top_only = (top.tail - tau) / (m - F(1, 2))  # slack < 0 at weight m only
    return [None, 2 * tau, top_only,
            *(tau * F(rnd.randint(1, 9), rnd.randint(1, 4)) for _ in range(seeded))]


@pytest.mark.parametrize("m,k,seeded", [(3, 2, 2), (5, 1, 2)])
def test_cube_certificate_matches_the_loop_on_both_paths(m, k, seeded):
    # the digitwise proof's closed-form report and the enumeration's agree
    # with the per-combination loop, every check included
    scen = cube_family(m, k)
    assert averages._cube_digitwise_proof(scen)
    for t_tail in cube_tails(scen, seeded):
        rep = cube_certificate_check(scen, t_tail)
        ref = cube_certificate_reference(scen, t_tail)
        assert_matches_reference(rep, ref)
        with pytest.MonkeyPatch.context() as mp:
            on_the_enumeration_path(mp)
            assert_matches_reference(cube_certificate_check(scen, t_tail), ref)


@pytest.mark.slow
def test_cube_certificate_matches_the_loop_at_every_admitted_size():
    # every (m, k) with m <= 5 and mk <= 12 that the cap admits: 9 sizes up
    # to 491,520 checks
    sizes = [(m, k) for m in (3, 4, 5) for k in range(1, 12 // m + 1)
             if scenarios._cube_check_count(m, k) <= MAX_CUBE_CHECKS]
    assert len(sizes) == 9
    for m, k in sizes:
        scen = cube_family(m, k)
        for t_tail in cube_tails(scen, seeded=1):
            assert_matches_streamed_reference(cube_certificate_check(scen, t_tail), scen, t_tail)


@pytest.mark.slow
@pytest.mark.parametrize("m,k", [(6, 2), (3, 4), (4, 3), (9, 1)])
def test_cube_certificate_fallback_at_the_largest_sizes(m, k):
    # one form alphabet loses its largest digit, so the enumeration decides
    # up to 1,032,192 checks; it gives the loop's report within 5 s
    scen = cube_family(m, k)
    eps = sorted(scen.form_specs)[len(scen.form_specs) // 2]
    spec = scen.form_specs[eps]
    mutated = digit_spec(spec.radix, spec.depth, spec.alphabet[:-1], spec.tail)
    bad = dataclasses.replace(scen, form_specs={**scen.form_specs, eps: mutated})
    assert not averages._cube_digitwise_proof(bad)
    start = time.perf_counter()
    rep = cube_certificate_check(bad)
    elapsed = time.perf_counter() - start
    ref = cube_certificate_reference(bad)
    assert (rep.checks_total, rep.checks_failed) == (ref.checks_total, ref.checks_failed)
    assert rep == ref and not rep.all_pass
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("m", range(3, 8))
def test_cube_targets_follow_the_cube_terms(monkeypatch, m):
    # per seeded combination (b_1, ..., b_m, b) of integers, the mask
    # recurrence of _cube_rows and of the reference loop gives each form
    # target the value of scenarios._cube_terms(eps), and x that of eps = 0
    rnd = random.Random(m)
    eps_order = scenarios._eps_vectors(m)
    masks = [sum(1 << j for j in range(m) if eps[j]) for eps in eps_order]
    scen = dataclasses.replace(
        cube_family(3, 1), dimension=m, generator_specs=tuple(("g", j) for j in range(m)),
        shared_spec="s", witness_spec="x", form_specs={eps: eps for eps in eps_order})
    for _ in range(20):
        combo = [rnd.randint(-10**6, 10**6) for _ in range(m + 1)]

        def value(eps):
            return sum(c * v for c, v in scenarios._cube_terms(combo[:m], combo[m], eps))

        x = value((0,) * m)
        assert x == sum(combo) - m * combo[m]
        targets = [value(eps) for eps in eps_order]
        points = {**{("g", j): combo[j] for j in range(m)}, "s": combo[m], "x": x,
                  **dict(zip(eps_order, targets))}
        monkeypatch.setattr(averages, "_base_nums", lambda spec: ([points[spec]], 1))
        _, rows = averages._cube_rows(scen, eps_order, False)
        assert list(rows) == [(x, [True] * len(eps_order))]
        forms = [({t}, mask) for t, mask in zip(targets, masks)]
        points_ref = [[v] for v in combo]
        assert list(cube_rows_reference(points_ref, {x}, forms)) == [(x, [True] * len(forms))]


def test_cube_certificate_builds_no_form_or_lattice_point(monkeypatch):
    # when the proof holds no form or lattice base point is built; a failing
    # report reads its x off the generator and shared base points alone
    calls = []
    base_nums = averages._base_nums
    monkeypatch.setattr(averages, "_base_nums", lambda spec: calls.append(spec) or base_nums(spec))
    for m, k in ((3, 1), (3, 4), (4, 3), (5, 2), (6, 2)):
        scen = cube_family(m, k)
        own = {*scen.generator_specs, scen.shared_spec}
        for t_tail in (None, 2 * scen.witness_tail):
            rep = cube_certificate_check(scen, t_tail)
            assert rep.all_pass == (t_tail is None)
            assert set(calls) <= own and len(calls) == (0 if t_tail is None else m + 1)
            calls.clear()


def test_cube_certificate_enumerates_specs_of_another_depth():
    # the proof reads one digit position only when every spec shares radix
    # and depth; a form of another depth leaves the report to the enumeration
    scen = cube_family(3, 1)
    eps = (1, 1, 0)
    spec = scen.form_specs[eps]
    deeper = DigitSetSpec(spec.radix, 2, spec.digits, spec.den, spec.tail)
    bad = dataclasses.replace(scen, form_specs={**scen.form_specs, eps: deeper})
    assert not averages._cube_digitwise_proof(bad)
    rep = cube_certificate_check(bad)
    assert_matches_reference(rep, cube_certificate_reference(bad))
    assert rep.all_pass  # 0 is a digit, so the deeper form holds every depth-1 point


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


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_cube_closed_form_count_is_the_certificates_count(m):
    # verify-cubes gates the closed form before cube_family builds anything;
    # the certificate counts off its specs, and past the cap both refusals
    # name the same count
    for k in (1, 2, 3):
        count = scenarios._cube_check_count(m, k)
        scen = cube_family(m, k)
        for t_tail in (None, 2 * scen.witness_tail):  # plain and --tamper
            if count <= MAX_CUBE_CHECKS:
                assert averages._refuse_cube_checks(count) == count
                assert cube_certificate_check(scen, t_tail).checks_total == count
                continue
            with pytest.raises(ValueError) as cli_gate:
                averages._refuse_cube_checks(count)
            with pytest.raises(ValueError, match=f"of {count:,} checks exceeds") as certificate:
                cube_certificate_check(scen, t_tail)
            assert str(cli_gate.value) == str(certificate.value)


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


def test_monte_carlo_estimates_are_frozen():
    # (estimate, stderr) bit for bit as frozen from the estimator that tested
    # every set on every sample: seeded inputs at k = 1 and 2, a two-column
    # matrix, and an empty set, which leaves no sample inside
    s1, s2 = furstenberg_family(1), furstenberg_family(2)
    r1, r2 = [[c] for c in s1.coefficients], [[c] for c in s2.coefficients]
    u = normalize([(0, F(1, 2)), (F(3, 4), 2)])
    v = normalize([(F(1, 4), F(3, 2))])
    w = normalize([(-1, F(1, 3)), (F(1, 2), 2)])
    cases = [
        ((r1, s1.factors, F(-2, 3), 1, 5000, 99), (0.014, 0.0016617317083254112)),
        ((r1, s1.factors, F(-1, 4), F(1, 2), 3001, 7), (0.030656447850716428, 0.003147307317686699)),
        ((r2, s2.factors, F(-2, 3), 1, 20000, 11), (0.00105, 0.00022901418596861793)),
        ((r2, s2.factors, F(-1, 4), F(1, 3), 4000, 2024), (0.00475, 0.001087269476132036)),
        (([[1, 2], [-1, 1], [3, 0]], [u, v, w], F(1, 8), 1, 6000, 5),
         (0.18133333333333335, 0.004974540206656008)),
        ((r1, [s1.factors[0], EMPTY, s1.factors[2]], F(-2, 3), 1, 1000, 3), (0.0, 0.0)),
    ]
    for args, frozen in cases:
        est = monte_carlo_average(*args)
        assert (est.estimate, est.stderr) == frozen, args[2:]


def test_monte_carlo_eps_must_be_positive():
    u = normalize([(0, 1)])
    for eps in (0, -1, "-1/2"):
        with pytest.raises(ValueError, match="eps must be positive"):
            monte_carlo_average([[1]], [u], 0, eps, 100, seed=1)


def test_monte_carlo_validation():
    u = normalize([(0, 1)])
    with pytest.raises(ValueError, match="^need one coefficient row per set$"):
        monte_carlo_average([[1]], [u, u], 0, 1, 100, seed=1)
    with pytest.raises(ValueError, match="^ragged coefficient matrix$"):
        monte_carlo_average([[1, 0], [1]], [u, u], 0, 1, 100, seed=1)
    with pytest.raises(ValueError, match="^need at least 2 samples$"):
        monte_carlo_average([[1]], [u], 0, 1, 1, seed=1)


# --- degenerate truncated ratios ---------------------------------------------


def test_degenerate_closed_form_matches_quadrature():
    rnd = random.Random(271828)
    for _ in range(20):
        big_m = rnd.randint(1, 1000)
        p = rnd.uniform(0.2, 1.5)
        big_l = 10 ** rnd.uniform(1, 4)
        integral = degenerate_lower_ratio(big_m, p, big_l).integral
        with warnings.catch_warnings():
            # tolerance is deliberately past roundoff; the returned error
            # estimate guards the comparison below
            warnings.simplefilter("ignore", IntegrationWarning)
            num, err = quad(
                lambda x: dependent_forms_pointwise_bound(3, (1, 0), big_m, x) ** p,
                -big_l, big_l, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-12,
            )
        assert abs(num - integral) <= 1e-9 * abs(integral) + 10 * err


def test_degenerate_pointwise_bound_shape():
    assert dependent_forms_pointwise_bound(3, (1, 0), 100, 0.0) == 4.0
    assert dependent_forms_pointwise_bound(3, (1, 0), 100, 1.0) == 4.0 / 101**2
    assert dependent_forms_pointwise_bound(3, (1, 0), 100, -1.0) == 4.0 / 101**2


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
            res = degenerate_lower_ratio(big_m, p, big_l)
            assert (res.ratio, res.integral) == old_ratio(big_m, p, big_l)
        for x in (0.0, 0.013, -0.7, 3.0, -250.5):
            assert (dependent_forms_pointwise_bound(3, (1, 0), 37, x)
                    == min(4.0, 4.0 / (37 * abs(x) + 1.0) ** 2))
    assert degenerate_lower_ratio(37, 0.45, 123).ratio == 1240.2851576270982


def test_degenerate_growth_below_half():
    ratios = [degenerate_lower_ratio(100, 0.4, L).ratio for L in (1e2, 1e3, 1e4)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] / ratios[0] >= 5.0


def test_degenerate_saturation_above_half():
    ratios = [degenerate_lower_ratio(100, 0.6, 10.0**e).ratio for e in range(2, 7)]
    incs = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(b < a for a, b in zip(incs, incs[1:]))
    # increments shrink geometrically with factor -> 10^(1-2p') = 10^-0.2
    tail_factor = incs[-1] / incs[-2]
    assert abs(tail_factor - 10**-0.2) < 0.01


def test_degenerate_log_case():
    integral = degenerate_lower_ratio(10, 0.5, 1000.0).integral
    num, _ = quad(
        lambda x: dependent_forms_pointwise_bound(3, (1, 0), 10, x) ** 0.5,
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


def test_dependent_forms_grows_is_decided_exactly():
    # the float nearest r/(r-1) and its two neighbours: grows compares the
    # float itself with the threshold, exactly
    for r in range(3, 11):
        thr = F(r, r - 1)
        near = float(r / (r - 1))
        for p in (math.nextafter(near, 0), near, math.nextafter(near, 2)):
            res = dependent_forms_lower_ratio(r, [1] + [0] * (r - 2), 100, p, 100.0)
            assert res.threshold == thr
            assert res.grows == (F(p) < thr), (r, p)


def test_squares_grows_is_decided_exactly():
    # 1/2 and its two float neighbours: grows holds strictly below the
    # threshold, and the record carries the threshold with it
    below, above = math.nextafter(0.5, 0), math.nextafter(0.5, 1)
    for p, grows in ((below, True), (0.5, False), (above, False)):
        res = degenerate_lower_ratio(100, p, 100.0)
        assert (res.threshold, res.grows) == (F(1, 2), grows), p


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


_U = normalize([(0, 1)])
_EPS = F(1, 10)


@pytest.mark.parametrize("call", [
    lambda: form_time_set([_U, _U], [1.5, 2], 0),
    lambda: sweep_superlevel([_U, _U], [1.9, 2], F(1, 2), (0, 1)),
    lambda: discrete_superlevel([_U, _U], [1, 2], 4.9, F(1, 2), (0, 1)),
    lambda: monte_carlo_average([[1.5], [2]], [_U, _U], 0, _EPS, 100, 1),
    lambda: monte_carlo_average([[1], [2]], [_U, _U], 0, _EPS, 100.5, 1),
    lambda: monte_carlo_average([[1], [2]], [_U, _U], 0, _EPS, 100, 1.5),
    lambda: degenerate_lower_ratio(100.5, 0.4, 100.0),
    lambda: dependent_forms_lower_ratio(3, [1, 0], 100.5, 1.2, 100.0),
    lambda: dependent_forms_lower_ratio(3.5, [1, 0], 50, 1.1, 1000.0),
    lambda: dependent_forms_lower_ratio(3, [1.5, -0.5], 50, 1.1, 1000.0),
    lambda: dependent_forms_pointwise_bound(3.5, [1, 0], 10, 0.5),
    lambda: dependent_forms_pointwise_bound(3, [1.5, -0.5], 10, 0.5),
    lambda: digit_spec(12.5, 2, [0, 1], 0),
    lambda: digit_spec(12, 2.5, [0, 1], 0),
    lambda: DigitSetSpec(12.5, 2, (0, 1), 1, 0),
    lambda: DigitSetSpec(12, 2.5, (0, 1), 1, 0),
    lambda: FurstenbergScenario.from_json({**furstenberg_family(1).to_json(), "k": 1.5}),
    lambda: FurstenbergScenario.from_json({**furstenberg_family(1).to_json(), "coefficients": [1, 2, 3.5]}),
    lambda: CubeScenario.from_json({**cube_family(3, 1).to_json(), "k": 1.5}),
    lambda: CubeScenario.from_json({**cube_family(3, 1).to_json(), "m": 3.5}),
    lambda: hilbert.h3_series_columns(1.5, 3.5),
], ids=[
    "form_time_set coefficient", "sweep_superlevel coefficient", "discrete_superlevel n_steps",
    "monte_carlo_average row", "monte_carlo_average samples", "monte_carlo_average seed",
    "squares M", "dependent forms M", "dependent forms r", "dependent forms b",
    "pointwise bound r", "pointwise bound b", "digit_spec radix", "digit_spec depth",
    "DigitSetSpec radix", "DigitSetSpec depth", "Furstenberg k", "Furstenberg coefficient",
    "cube k", "cube m", "h3 columns kmax",
])
def test_integer_arguments_refuse_floats(call):
    # int() would truncate each of these and answer for another request
    with pytest.raises(TypeError):
        call()
