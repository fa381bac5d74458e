"""Seeded op generators for the three workloads, each op with an exact check.

An op's `run` is the only timed part: it makes one library call or one
`cli.main` request.  Inputs are built before it and `check` runs after it,
both outside the timed region.  `check` returns None when the output is
right and a one-line description of the first mismatch otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from divlab import averages, cli, digitsets, hilbert, linforms, scenarios

# frozen values of the seed code
CLAIM = {1: ("37/64", 37), 2: ("159/256", 433), 3: ("1919/3072", 5185)}  # measure, breakpoints
GRID_MEASURE = Fraction(859, 1152)  # k=2, N=1152, on both topologies
CUBE_CHECKS = {(3, 1): 112, (3, 2): 1792, (4, 1): 480, (4, 2): 15360}
FURSTENBERG_THRESHOLD = math.log(24) / math.log(12)
REL_TOL = 1e-9
BOUNDARY_TOL = 1e-9  # blow-up step ratios closer than this to 1 sit on the threshold


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    cli: bool = False  # run returns (exit code, stdout) of one cli.main call


def call_cli(argv):
    """(exit code, stdout) of one in-process `cli.main` request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue()


def cli_op(kind, argv, check, want_rc=0):
    def check_output(res):
        rc, out = res
        if rc != want_rc:
            return f"exit code {rc}, want {want_rc}"
        return check(out)

    return Op(kind, lambda: call_cli(argv), check_output, cli=True)


def first_mismatch(*pairs):
    """The first (label, got, want) whose got != want, described; else None."""
    for label, got, want in pairs:
        if got != want:
            return f"{label}: got {got!r}, want {want!r}"
    return None


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def ref_rank(rows):
    """Rank by Bareiss fraction-free elimination: each update divides exactly by
    the previous pivot, so entries stay minors of the input."""
    a = [[int(v) for v in row] for row in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, len(a)):
            a[i] = [(p * x - a[i][c] * y) // prev for x, y in zip(a[i], a[rank])]
        prev = p
        rank += 1
    return rank


def rat_text(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class Inputs:
    """Fixed inputs shared by every round, built once outside the timed region."""

    @cached_property
    def families(self):
        """The depth-k triple-average scenarios, k = 1, 2, 3, with factors built."""
        out = {k: scenarios.furstenberg_family(k) for k in (1, 2, 3)}
        for scen in out.values():
            scen.factors
        return out

    @cached_property
    def h3_points(self):
        """Negative witness base points of the k=3 scenario."""
        return [x for x in digitsets.base_points(self.families[3].witness_spec) if x < 0]


# ---------------------------------------------------------------------------
# claim_sweep: the continuous superlevel certificate
# ---------------------------------------------------------------------------


def claim_op(k, measure=None):
    want_measure, want_breakpoints = CLAIM[k]
    want_measure = measure or want_measure

    def check(out):
        d = json.loads(out)
        return first_mismatch(
            ("measure", d["superlevel_measure"]["exact"], want_measure),
            ("breakpoints", d["breakpoints"], want_breakpoints),
            ("verified", d["verified"], True),
        )

    return cli_op(f"verify-claim k={k}", ["verify-claim", "--k", str(k)], check)


def custom_sweep_op(inputs, rng, depth):
    """sweep_superlevel on the depth-k factors with random coefficients and t-domain,
    checked against multilinear_integral at seeded breakpoints and midpoints."""
    sets = inputs.families[depth].factors
    coeffs = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in sets]
    den = rng.randint(1, 12)
    t0 = Fraction(rng.randint(-den // 2, den // 2), den)
    t_domain = (t0, t0 + Fraction(rng.randint(1, den), den))
    level = (t_domain[1] - t_domain[0]) / rng.randint(4, 64)
    pick = random.Random(rng.random())

    def run():
        return averages.sweep_superlevel(sets, coeffs, level, window=(-1, 0), t_domain=t_domain)

    def check(res):
        xs, f = res.function.xs, res.function
        at = pick.sample(range(len(xs)), min(3, len(xs)))
        mids = [(xs[i] + xs[i + 1]) / 2 for i in pick.sample(range(len(xs) - 1), min(2, len(xs) - 1))]
        for x in [xs[i] for i in at] + mids:
            want = averages.multilinear_integral(sets, coeffs, x, t_domain)
            if f(x) != want:
                return f"F({x}) = {f(x)}, oracle {want}"
        for x in mids:
            value = f(x)
            if value != level and (value > level) != (x in res.superlevel):
                return f"superlevel membership wrong at {x}"
        return first_mismatch(("measure", res.superlevel_measure, res.superlevel.measure()))

    return Op(f"sweep depth={depth}", run, check)


def claim_sweep_round(inputs, rng):
    ops = [claim_op(3)] + [claim_op(2) for _ in range(2)] + [claim_op(1) for _ in range(13)]
    ops += [custom_sweep_op(inputs, rng, depth) for depth in (1, 1, 2, 2)]
    return ops


# ---------------------------------------------------------------------------
# interval_certs: certificates built on Fraction interval algebra
# ---------------------------------------------------------------------------


def grid_count(sets, coeffs, n_steps, x, circle):
    """#{1 <= n <= N : x + c_i n/N in U_i for all i}, each point folded into
    [-1, 1) first on the circle."""
    count = 0
    for n in range(1, n_steps + 1):
        ys = [x + Fraction(c * n, n_steps) for c in coeffs]
        if circle:
            ys = [(y + 1) % 2 - 1 for y in ys]
        count += all(y in u for y, u in zip(ys, sets))
    return count


def grid_op(inputs, rng, topology):
    """discrete_superlevel at k=2, N=1152: the frozen measure, and the step
    function against a direct grid count at 2 seeded cell starts and 2 seeded
    cell midpoints."""
    scen = inputs.families[2]
    pick = random.Random(rng.random())

    def run():
        return averages.discrete_superlevel(
            scen.factors, scen.coefficients, 1152, scen.level, (-1, 0), topology=topology
        )

    def check(res):
        g = res.function
        cells = pick.sample(range(len(g.values)), min(4, len(g.values)))
        points = [g.xs[i] for i in cells[:2]] + [(g.xs[i] + g.xs[i + 1]) / 2 for i in cells[2:]]
        for x in points:
            want = Fraction(grid_count(scen.factors, scen.coefficients, 1152, x, topology == "circle"), 1152)
            if g(x) != want:
                return f"G({x}) = {g(x)}, direct count {want}"
        return first_mismatch(("measure", res.superlevel_measure, GRID_MEASURE))

    return Op(f"grid {topology}", run, check)


def find_nk_op():
    def check(out):
        d = json.loads(out)
        return first_mismatch(
            ("N", d["n_steps"], 96), ("measure", d["measure"]["exact"], "67/96"), ("verified", d["verified"], True)
        )

    return cli_op("find-nk k=1", ["find-nk", "--k", "1", "--level", "1/192", "--target", "1/9"], check)


def cubes_op(m, k, tamper=False):
    argv = ["verify-cubes", "--m", str(m), "--k", str(k)] + (["--tamper"] if tamper else [])

    def check(out):
        d = json.loads(out)
        if tamper:
            return first_mismatch(("verified", d["verified"], False), ("failed>0", d["checks_failed"] > 0, True))
        return first_mismatch(
            ("checks", d["checks_total"], CUBE_CHECKS[(m, k)]),
            ("failed", d["checks_failed"], 0),
            ("verified", d["verified"], True),
        )

    return cli_op(f"verify-cubes m={m} k={k}" + (" tamper" if tamper else ""), argv, check, 2 if tamper else 0)


def h3_op(inputs, rng):
    """h3_evaluate at one negative k=3 witness point.  The certificate needs
    lower_bound >= level; the support is checked pointwise at the midpoints of
    its pieces and of the gaps between them."""
    scen = inputs.families[3]
    x = rng.choice(inputs.h3_points)

    def inside(t):
        return all(x + c * t in u for c, u in zip((1, 2, 3), scen.factors))

    def check(ev):
        pieces = ev.support.intervals
        if not pieces or ev.diverges or ev.lower_bound < scen.level:
            return f"no certificate at x={x}"
        if ev.value < float(ev.lower_bound) * (1 - REL_TOL):
            return f"value {ev.value} below lower bound at x={x}"
        if not all(inside((iv.lo + iv.hi) / 2) for iv in pieces):
            return f"support piece outside the form sets at x={x}"
        if any(inside((a.hi + b.lo) / 2) for a, b in zip(pieces, pieces[1:])):
            return f"support gap inside the form sets at x={x}"
        return None

    return Op("h3 k=3", lambda: hilbert.h3_evaluate(x, *scen.factors), check)


def construct_op(k):
    want = {
        "factor_1": Fraction(1, 2 * 4**k),
        "factor_2": Fraction(1, 2 * 3**k),
        "factor_3": Fraction(1, 2 * 2**k),
        "witness": Fraction(1, 8),
    }

    def run():
        scen = scenarios.furstenberg_family(k)
        return scen.measures()

    return Op(f"construct k={k}", run, lambda got: first_mismatch(("measures", got, want)))


def interval_certs_round(inputs, rng):
    ops = [grid_op(inputs, rng, "line"), grid_op(inputs, rng, "circle"), find_nk_op()]
    ops += [cubes_op(m, k) for m, k in CUBE_CHECKS] + [cubes_op(3, 1, tamper=True), construct_op(4)]
    ops += [h3_op(inputs, rng) for _ in range(16)]
    return ops


# ---------------------------------------------------------------------------
# classify_cli: many small requests through cli.main
# ---------------------------------------------------------------------------


def classify_op(rng):
    n, m = rng.randint(2, 12), rng.randint(1, 6)
    rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    aug = [row + [1] for row in rows]
    argv = ["classify", "--rows", ";".join(",".join(map(str, row)) for row in rows)]

    def check(out):
        d = json.loads(out)
        bad = first_mismatch(
            ("matrix", d["matrix"], rows),
            ("rank_matrix", d["rank_matrix"], ref_rank(rows)),
            ("rank_extended", d["rank_extended"], ref_rank(aug + [[0] * m + [1]])),
        )
        if bad:
            return bad
        if ref_rank(aug) == n:
            return first_mismatch(("scenario", d["scenario"], "independent"))
        idx, lam = d["circuit_rows"], d["dependence"]
        r = d["r"]
        if len(idx) != r or len(lam) != r or 0 in lam:
            return f"circuit {idx} with dependence {lam} is not minimal"
        if any(sum(c * aug[i][j] for c, i in zip(lam, idx)) for j in range(m + 1)):
            return f"dependence {lam} does not annihilate rows {idx}"
        t_rank = ref_rank([rows[i] for i in idx])
        scenario = {r - 2: "nondegenerate", r - 1: "degenerate"}.get(t_rank)
        basis = [rows[i] for i in d["basis_rows"]]
        for i, coeffs in d["expansions"].items():
            alpha = [Fraction(c) for c in coeffs]
            if [sum(a * b[j] for a, b in zip(alpha, basis)) for j in range(m)] != rows[int(i)]:
                return f"expansion of row {i} is wrong"
        return first_mismatch(
            ("t_part_rank", d["t_part_rank"], t_rank),
            ("scenario", d["scenario"], scenario),
            ("basis rank", ref_rank(basis) if basis else 0, t_rank),
            ("exponent_bound", d.get("exponent_bound"), rat_text(Fraction(r, r - 1)) if t_rank == r - 1 else None),
        )

    return cli_op("classify", argv, check)


def rank_op(rng, n):
    matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    want = ref_rank(matrix)
    return Op(f"exact_rank n={n}" if n == 18 else "exact_rank n<=14", lambda: linforms.exact_rank(matrix), lambda got: first_mismatch(("rank", got, want)))


def thresholds_op(rng):
    m, r = rng.randint(3, 10), rng.randint(2, 8)

    def check(out):
        d = json.loads(out)
        if not (close(d["furstenberg"]["real"], FURSTENBERG_THRESHOLD) and close(d["furstenberg"]["log_form_real"], FURSTENBERG_THRESHOLD)):
            return "furstenberg threshold is not ln24/ln12"
        return first_mismatch(
            ("cubes", d["cubes"]["exact"], rat_text(Fraction(2 ** (m - 1) + 1, m + 1))),
            ("degenerate", d["degenerate"]["exact"], rat_text(Fraction(r, r - 1))),
        )

    return cli_op("thresholds", ["thresholds", "--m", str(m), "--r", str(r)], check)


def blowup_op(rng, kind):
    p = round(rng.uniform(1.05, 1.9), 3)
    kmax = rng.randint(2, 10)
    as_csv = rng.random() < 0.5
    argv = ["blowup", "--kind", kind, "--p", repr(p), "--kmax", str(kmax)]
    m = mode = None
    if kind == "cubes":
        m = rng.randint(3, 5)
        mode = rng.choice(("exact", "bound"))
        argv += ["--m", str(m), "--mode", mode]
    argv += ["--csv"] if as_csv else []
    closed = 24 ** (1 / p) / 12 if kind != "cubes" else None

    def check_ratios(ratios, verdict, closed):
        if not all(close(x, closed) for x in ratios):
            return f"step ratios {ratios} differ from {closed}"
        if kind == "cubes" and mode == "bound":
            # ratio 1 exactly at p = (2^(m-1)+1)/(m+1), e.g. p = 1.25 at m = 3
            gap = Fraction(2 ** (m - 1) + 1, m + 1) - Fraction(repr(p))
        else:
            # p has 3 decimals, so a ratio is 1 up to rounding or clearly off it
            gap = 0 if abs(closed - 1) <= BOUNDARY_TOL else closed - 1
        want = "diverges" if gap > 0 else "decays" if gap < 0 else "boundary"
        return first_mismatch(("verdict", verdict, want))

    def check(out):
        if as_csv:
            rows = list(csv.reader(io.StringIO(out)))
            body = rows[1:]
            if [int(row[0]) for row in body] != list(range(1, kmax + 1)):
                return f"csv indices wrong: {[row[0] for row in body]}"
            col = rows[0].index("step_ratio")
            ratios = [float(row[col]) for row in body[1:]]
            return check_ratios(ratios, body[0][-1], closed or ratios[0])
        d = json.loads(out)
        if d["indices"] != list(range(1, kmax + 1)) or len(d["values"]) != kmax:
            return f"series indices wrong: {d['indices']}"
        if kind == "cubes":
            if d["mode"] == "bound" and not close(d["threshold"], (2 ** (m - 1) + 1) / (m + 1)):
                return f"cube threshold {d['threshold']}"
        elif not (close(d["closed_form_ratio"], closed) and close(d["threshold"], FURSTENBERG_THRESHOLD)):
            return "closed form ratio or threshold differs from 24^(1/p)/12, ln24/ln12"
        return check_ratios(d["step_ratios"], d["verdict"], d["closed_form_ratio"])

    return cli_op(f"blowup {kind}" + (" csv" if as_csv else ""), argv, check)


def degenerate_op(rng, squares):
    big_m, big_l = rng.randint(1, 1000), round(10 ** rng.uniform(1, 4), 3)
    u = big_m * big_l + 1.0
    if squares:
        p4 = rng.choice((round(rng.uniform(0.2, 0.45), 3), round(rng.uniform(0.55, 1.5), 3)))
        argv = ["degenerate", "--p4prime", repr(p4), "--M", str(big_m), "--L", repr(big_l)]
        integral = 2 * 4**p4 * (u ** (1 - 2 * p4) - 1) / (big_m * (1 - 2 * p4))
        want = {"integral": integral, "ratio": (integral * big_m / 2) ** (1 / p4), "grows": p4 < 0.5}
        kind = "degenerate squares"
    else:
        r = rng.randint(3, 5)
        b = [rng.randint(-3, 3) for _ in range(r - 2)]
        b.append(1 - sum(b))
        thr = r / (r - 1)
        p = rng.choice((round(rng.uniform(1.0, thr - 0.05), 3), round(rng.uniform(thr + 0.05, 2.5), 3)))
        argv = ["degenerate", "--r", str(r), "--b", ",".join(map(str, b)), "--p", repr(p), "--M", str(big_m), "--L", repr(big_l)]
        q = p / r
        a = (r - 1) * q
        cb = (2 / sum(map(abs, b))) ** (r - 1)
        integral = 2 * cb**q * (u ** (1 - a) - 1) / (big_m * (1 - a))
        want = {"integral": integral, "ratio": (integral * big_m / 2) ** (1 / q), "grows": p < thr, "threshold": rat_text(Fraction(r, r - 1))}
        kind = "degenerate forms"

    def check(out):
        d = json.loads(out)
        for key, value in want.items():
            got = d[key]
            if not (close(got, value) if isinstance(value, float) else got == value):
                return f"{key}: got {got!r}, want {value!r}"
        return None

    return cli_op(kind, argv, check)


def mc_op(inputs, rng):
    scen = inputs.families[1]
    x = Fraction(-rng.randint(1, 191), 192)
    seed = rng.randint(0, 10**6)
    argv = ["mc-average", "--k", "1", "--x", rat_text(x), "--seed", str(seed), "--samples", "20000"]
    exact = averages.multilinear_integral(scen.factors, scen.coefficients, x, (0, 1))

    def check_output(res):
        rc, out = res
        d = json.loads(out)
        agrees = d["stderr"] == 0 or abs(d["estimate"] - float(exact)) <= 4 * d["stderr"]
        return first_mismatch(
            ("exact", d["exact"]["exact"], rat_text(exact)),
            ("seed", d["seed"], seed),
            ("within_4_sigma", d["within_4_sigma"], agrees),
            ("exit code", rc, 0 if agrees else 2),
        )

    return Op("mc-average", lambda: call_cli(argv), check_output, cli=True)


def classify_cli_round(inputs, rng):
    ops = [classify_op(rng) for _ in range(6)]
    ops += [rank_op(rng, 18) for _ in range(6)] + [rank_op(rng, rng.randint(2, 14)) for _ in range(2)]
    ops += [thresholds_op(rng) for _ in range(2)] + [blowup_op(rng, kind) for kind in ("thm1", "cubes", "h3", "thm1", "h3")]
    ops += [degenerate_op(rng, squares) for squares in (True, True, False)] + [mc_op(inputs, rng) for _ in range(2)]
    return ops


ROUNDS = {
    "claim_sweep": claim_sweep_round,
    "interval_certs": interval_certs_round,
    "classify_cli": classify_cli_round,
}


def make_round(workload, inputs, seed, index):
    """Round `index` of the workload's op sequence; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = ROUNDS[workload](inputs, rng)
    rng.shuffle(ops)
    return ops
