"""Acceptance gate: one test per shipped guarantee, each with a runtime budget.

Every test prints a single PASS line with its headline numbers; `pytest -v`
therefore shows one pass/fail line per criterion.  Tolerances are pinned in
the asserts, not configurable.
"""

import math
import random
import time
import warnings
from fractions import Fraction as F

from scipy import integrate

from divlab.averages import (
    cube_certificate_check,
    degenerate_lower_ratio,
    discrete_superlevel,
    find_riemann_n,
    monte_carlo_average,
    multilinear_integral,
    sweep_superlevel,
)
from divlab.cli import main
from divlab.hilbert import h3_ratio_series, h3_witness_evaluations
from divlab.linforms import classify, extended_matrix
from divlab.scenarios import (
    blowup_series,
    cube_family,
    cube_threshold,
    furstenberg_family,
    furstenberg_threshold,
    furstenberg_threshold_log_form,
)

RATIO_TOL = 1e-12


def test_criterion_1_exact_measures():
    t0 = time.perf_counter()
    for k in range(1, 5):
        scen = furstenberg_family(k)
        want = {
            "factor_1": F(1, 2 * 4**k),
            "factor_2": F(1, 2 * 3**k),
            "factor_3": F(1, 2 * 2**k),
            "witness": F(1, 8),
        }
        assert scen.measures() == want
        assert scen.measures(normalized=True) == {
            name: m / 2 for name, m in want.items()
        }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 (exact measures): PASS k=1..4 in {elapsed:.3f}s")


def test_criterion_2_claim_certificate():
    t0 = time.perf_counter()
    measures = {}
    for k in (1, 2, 3):
        scen = furstenberg_family(k)
        assert scen.level == F(1, 8 * 12**k)
        res = sweep_superlevel(
            scen.factors, scen.coefficients, scen.level, window=(-1, 0)
        )
        assert scen.witness.clip(-1, 0).issubset(res.superlevel)
        assert res.superlevel_measure >= F(1, 8) - scen.level
        # downstream slack: well beyond the 1/16 actually consumed later
        assert res.superlevel_measure >= F(1, 16)
        measures[k] = res.superlevel_measure
    assert measures == {1: F(37, 64), 2: F(159, 256), 3: F(1919, 3072)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 2 (claim certificate): PASS measures "
        f"{measures[1]}, {measures[2]}, {measures[3]} in {elapsed:.2f}s"
    )


def test_criterion_3_riemann_discretization():
    t0 = time.perf_counter()
    level, target = F(1, 192), F(1, 9)
    cert = find_riemann_n(1, level, target)
    assert cert.n_steps <= 10_000
    scen = furstenberg_family(1)
    res = discrete_superlevel(
        scen.factors, scen.coefficients, cert.n_steps, level, window=(-1, 0)
    )
    assert res.superlevel_measure == cert.measure
    assert cert.measure >= target
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 3 (riemann discretization): PASS N={cert.n_steps} "
        f"measure={cert.measure} in {elapsed:.2f}s"
    )


def test_criterion_4_blowup_thresholds():
    t0 = time.perf_counter()
    thr = furstenberg_threshold()
    for p in (thr - 0.2, thr - 0.05, 1.1, 1.25, thr + 0.05, thr + 0.2):
        closed = 24.0 ** (1.0 / p) / 12.0
        for kind in ("thm1", "h3"):
            series = (
                blowup_series(kind, p, 6)
                if kind == "thm1"
                else h3_ratio_series(p, 6)
            )
            assert all(abs(r - closed) <= RATIO_TOL for r in series.step_ratios)
            assert (series.step_ratios[0] > 1) == (p < thr)
    assert abs(thr - furstenberg_threshold_log_form()) <= RATIO_TOL
    for m in range(3, 11):
        lhs = cube_threshold(m)
        rhs = 1 + F(
            sum(l * math.comb(m, l) for l in range(1, m - 1)), m * (m + 1)
        )
        assert lhs == F(2 ** (m - 1) + 1, m + 1) == rhs
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 4 (blow-up thresholds): PASS threshold={thr:.13f} "
        f"identities exact in {elapsed:.3f}s"
    )


def test_criterion_5_cube_certificates(capsys):
    t0 = time.perf_counter()
    checked = {}
    for m, k in ((3, 1), (3, 2), (4, 1)):
        scen = cube_family(m, k)
        report = cube_certificate_check(scen)
        assert report.all_pass
        assert scen.witness.measure() == F(1, m + 1)
        for eps, count in scen.cardinalities().items():
            l = sum(eps)
            assert count <= scen.cardinality_bound(eps) <= 2 ** ((m - l + 1) * k)
        checked[(m, k)] = len(report.checks)
    rc = main(["verify-cubes", "--m", "3", "--k", "1", "--tamper"])
    capsys.readouterr()
    assert rc == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 5 (cube certificates): PASS checks={checked} "
        f"tamper->exit 2 in {elapsed:.2f}s"
    )


def test_criterion_6_h3_certificate():
    t0 = time.perf_counter()
    counts = {}
    for k in (1, 2):
        scen = furstenberg_family(k)
        evs = h3_witness_evaluations(scen)
        assert evs and all(ev.x < 0 for ev in evs)
        for ev in evs:
            lower = float(ev.lower_bound)
            assert ev.value >= lower * (1 - RATIO_TOL)
            assert ev.lower_bound >= F(1, 8 * 12**k)
        counts[k] = len(evs)
    for p in (1.1, 1.25, 1.4):
        h3 = h3_ratio_series(p, 6)
        thm1 = blowup_series("thm1", p, 6)
        assert all(
            abs(a - b) <= RATIO_TOL
            for a, b in zip(h3.step_ratios, thm1.step_ratios)
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 6 (h3 certificate): PASS points={counts} "
        f"ratios match thm1 in {elapsed:.2f}s"
    )


def test_criterion_7_degenerate_squares():
    t0 = time.perf_counter()
    rnd = random.Random(20260814)
    for _ in range(20):
        M = rnd.randint(1, 1000)
        p4 = rnd.uniform(0.2, 1.5)
        L = 10 ** rnd.uniform(1, 4)
        integral = degenerate_lower_ratio(M, p4, L).integral

        def f(x):
            return min(4.0, 4.0 / (M * abs(x) + 1) ** 2) ** p4

        with warnings.catch_warnings():
            # quad's own err estimate guards the comparison below
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(
                f, -L, L, points=[0.0], limit=400, epsabs=0.0, epsrel=1e-12
            )
        assert abs(integral - val) <= 1e-9 * abs(val) + 10 * err

    grow = [degenerate_lower_ratio(100, 0.4, 10.0**e).ratio for e in (2, 3, 4)]
    assert grow[0] < grow[1] < grow[2]
    assert grow[2] / grow[0] >= 5.0

    sat = [degenerate_lower_ratio(100, 0.6, 10.0**e).ratio for e in range(2, 7)]
    inc = [b - a for a, b in zip(sat, sat[1:])]
    factors = [b / a for a, b in zip(inc, inc[1:])]
    assert all(b < a for a, b in zip(inc, inc[1:]))
    assert all(f < 0.7 for f in factors)
    assert abs(factors[-1] - 10 ** -0.2) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 7 (degenerate squares): PASS growth x{grow[2] / grow[0]:.2f} "
        f"decay factor {factors[-1]:.3f} in {elapsed:.2f}s"
    )


def test_criterion_8_classification():
    t0 = time.perf_counter()
    c = classify([[1], [2], [3]])
    assert c.scenario == "nondegenerate" and c.circuit.size == 3
    c = classify([[2, 0], [0, 2], [1, 1]])
    assert c.scenario == "degenerate" and c.exponent_bound == F(3, 2)
    assert classify([[1], [2]]).scenario == "independent"
    assert classify([[1, 0], [0, 1], [1, 1]]).scenario == "independent"

    rnd = random.Random(814)
    for _ in range(100):
        n = rnd.randint(1, 6)
        d = rnd.randint(1, 3)
        mat = [[rnd.randint(-3, 3) for _ in range(d)] for _ in range(n)]
        c = classify(mat)
        if c.circuit is None:
            assert c.scenario == "independent"
            continue
        aug = extended_matrix(mat)[: len(mat)]
        combo = [
            sum(l * aug[i][j] for l, i in zip(c.circuit.dependence, c.circuit.indices))
            for j in range(d + 1)
        ]
        assert all(v == 0 for v in combo)
        assert c.t_part_rank in (c.circuit.size - 2, c.circuit.size - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 8 (classification): PASS fixtures + 100 random in {elapsed:.2f}s")


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    scen = furstenberg_family(1)
    cases = [
        ("-2/3", 100), ("-1/2", 101), ("-11/12", 102), ("-17/25", 103),
        ("-9/13", 104), ("-7/12", 105), ("-111/160", 106), ("-27/40", 107),
        ("-1/3", 108), ("-23/24", 109),
    ]
    worst = 0.0
    for xs, seed in cases:
        x = F(xs)
        exact = multilinear_integral(scen.factors, scen.coefficients, x)
        est = monte_carlo_average(
            [[c] for c in scen.coefficients], scen.factors, x, 1,
            samples=20_000, seed=seed,
        )
        diff = abs(est.estimate - float(exact))
        if est.stderr == 0:
            assert diff == 0.0
        else:
            assert diff <= 4 * est.stderr
            worst = max(worst, diff / est.stderr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 9 (oracle equivalence): PASS 10 cases, max |z|={worst:.2f} "
        f"in {elapsed:.2f}s"
    )
