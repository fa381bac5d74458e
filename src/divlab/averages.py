"""Exact and randomized engines for multilinear averages of indicator sets.

The central object is F(x) = |{t in D : x + c_i t in U_i for all i}| for
interval-union sets U_i, integer coefficients c_i and a rational t-domain D.
Everything except the Monte Carlo estimator is exact rational arithmetic.
numpy is imported inside the array kernels (the sweeps and the Monte Carlo
estimator), so no cube certificate loads it.
"""

from __future__ import annotations

__all__ = [
    "CubeCertificateReport",
    "DependentFormsBound",
    "MCEstimate",
    "RiemannCertificate",
    "SearchExhaustedError",
    "SweepResult",
    "cube_certificate_check",
    "degenerate_lower_ratio",
    "dependent_forms_lower_ratio",
    "dependent_forms_pointwise_bound",
    "discrete_superlevel",
    "find_riemann_n",
    "form_time_set",
    "monte_carlo_average",
    "multilinear_integral",
    "sweep_superlevel",
    "wrap_translate",
]

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Sequence, Tuple, Union

from .digitsets import _base_nums, _digit_sums, cardinality
from .intervals import (
    IntervalUnion,
    InvariantError,
    PiecewiseLinear,
    RationalLike,
    StepFunction,
    _grid_union,
    _merge_sorted,
    _pair_isect,
    _refuse_past,
    _scaled,
    common_denominator,
    rat,
)
from .scenarios import CubeScenario, _cube_terms, degenerate_threshold, furstenberg_family


class SearchExhaustedError(RuntimeError):
    """A certified search ran out of candidates (not a proof of nonexistence)."""


# ---------------------------------------------------------------------------
# exact pointwise integral
# ---------------------------------------------------------------------------


def _matched(sets, coefficients):
    """(sets, coefficients) as lists, the coefficients ints; ValueError
    unless there is one coefficient per set and at least one set."""
    sets, coeffs = list(sets), [operator.index(c) for c in coefficients]
    if len(sets) != len(coeffs) or not sets:
        raise ValueError("need matching nonempty sets and coefficients")
    return sets, coeffs


def _nondegenerate(pair, name):
    """(lo, hi) as Fractions; ValueError naming the pair unless lo < hi."""
    lo, hi = rat(pair[0]), rat(pair[1])
    if lo >= hi:
        raise ValueError(f"{name} must be nondegenerate")
    return lo, hi


def _time_pairs(sets, coeffs, scale, c_lcm, x, cur):
    """{t in cur : x + c_i t in U_i for all i} as canonical int (lo, hi) pairs: x
    over scale, a multiple of every u.den, and t over scale * C, C = c_lcm a
    multiple of every c.  Piece (a, b) of U_i maps to ((a - x) * C/c,
    (b - x) * C/c), reversed when c < 0, and only the pieces that the running
    t-set's hull reaches are read.  cur, the starting window, is a list of
    one t-piece; an inverted piece meets nothing."""
    for u, c in zip(sets, coeffs):
        if not cur:
            break
        f, m, nums = scale // u.den, c_lcm // c, u.nums
        # the hull's reach x + c t on u's own grid, widened to ints
        lo, hi = sorted(x * c_lcm + c * t for t in (cur[0][0], cur[-1][1]))
        nums = nums[bisect_right(nums, lo // (f * c_lcm), key=operator.itemgetter(1)) :
                    bisect_left(nums, -(-hi // (f * c_lcm)), key=operator.itemgetter(0))]
        ts = [((a * f - x) * m, (b * f - x) * m) for a, b in nums]
        cur = _pair_isect(cur, ts if m > 0 else [(b, a) for a, b in ts[::-1]])
    return cur


def form_time_set(
    sets: Sequence[IntervalUnion],
    coefficients: Sequence[int],
    x: RationalLike,
    t_domain=None,
) -> IntervalUnion:
    """Exact {t : x + c_i t in U_i for all i} (intersected with t_domain if given),
    by _time_pairs on one grid for x, the t-domain and every U_i.  With no
    t-domain the starting window is the meet of every U_i's t-hull, the
    t-images of its first and last endpoints; an empty U_i gives an empty one."""
    sets, coeffs = _matched(sets, coefficients)
    if 0 in coeffs:
        raise ValueError("coefficients must be nonzero")
    ends = [rat(x), *(() if t_domain is None else map(rat, t_domain))]
    scale, c_lcm = lcm(common_denominator(ends), *(u.den for u in sets)), lcm(*map(abs, coeffs))
    x, *dom = (q.numerator * (scale // q.denominator) for q in ends)
    if dom:
        cur = [(dom[0] * c_lcm, dom[1] * c_lcm)]  # an inverted domain meets nothing
    else:  # the meet of every U_i's t-hull; an empty U_i's hull (0, 0) empties it
        lo, hi = zip(*(
            sorted((e * (scale // u.den) - x) * (c_lcm // c) for e in (u.nums[0][0], u.nums[-1][1]))
            if u.nums else (0, 0) for u, c in zip(sets, coeffs)))
        cur = [(max(lo), min(hi))]
    return _grid_union(_time_pairs(sets, coeffs, scale, c_lcm, x, cur), scale * c_lcm)


def multilinear_integral(
    sets: Sequence[IntervalUnion],
    coefficients: Sequence[int],
    x: RationalLike,
    t_domain=(0, 1),
) -> Fraction:
    """Exact integral over t_domain of prod_i 1_{U_i}(x + c_i t) dt."""
    return form_time_set(sets, coefficients, x, t_domain).measure()


# ---------------------------------------------------------------------------
# exact superlevel sweep in x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    function: Union[PiecewiseLinear, StepFunction]
    superlevel: IntervalUnion
    superlevel_measure: Fraction


# meeting candidates (continuous sweep) or grid steps (grid sweep) handled
# per numpy block; bounds their working memory
_BLOCK = 1 << 13

# the continuous sweep refuses more meeting candidates than this (k=5 has 40 M)
MAX_SWEEP_CANDIDATES = 10**8


def check_sweep_candidates(sizes: Sequence[int], coefficients: Sequence[int]) -> int:
    """The meeting candidates sum_{i<j, c_i != c_j} |E_i||E_j| + 2 sum |E_i| of
    a continuous sweep whose families have sizes[i] = |E_i| endpoints; past
    MAX_SWEEP_CANDIDATES it raises ValueError naming the count.  An upper
    bound on the sizes gives an upper bound on the count."""
    pairs = itertools.combinations(zip(sizes, coefficients), 2)
    candidates = 2 * sum(sizes) + sum(a * b for (a, c), (b, d) in pairs if c != d)
    return _refuse_past(candidates, MAX_SWEEP_CANDIDATES, "sweep of", "meeting candidates")


def _distinct(a):
    """Sorted distinct values of a, which is sorted in place (np.unique would
    import numpy.ma on first use)."""
    import numpy as np
    a.sort()
    return a[np.concatenate(([True], a[1:] != a[:-1]))[: len(a)]]


def _crossing_blocks(fam_s, coeffs, dom, win):
    """Yield (x, tau, p, q) blocks of meetings inside the window and t-domain.

    Coordinates are integers on the sweep's shared grid; p < q are
    per-meeting arrays naming the meeting pair, row 0 being the t-domain and
    row i + 1 family i.  Endpoints e of family i and f of family j meet at
    tau = (f - e)/(c_j - c_i), x = e - c_i tau; e meets the domain ends
    tau = t0, t1 at x = e - c_i tau.  A pair whose full product has at least
    _BLOCK candidates, and which has a third family (the first family l
    whose coefficient differs from both), only generates its meetings in
    the closure of U_l: there x + c_l tau =
    ((c_j - c_l) e + (c_l - c_i) f)/(c_j - c_i) is affine in f, so the
    partners of e that land in one closed piece [a, b] of U_l are one index
    range of sorted E_j, found by two searchsorted calls over a table of
    bounds built for some rows of E_i at a time.  The candidates of all
    pairs run as one sequence cut into blocks of _BLOCK, so a block spans
    pairs and every block but the last is full.
    """
    import numpy as np
    ts = np.array(dom, dtype=fam_s[0].dtype)

    def meet(e, f, ci, cj):  # (x, tau) where endpoints e and f meet
        tau = (f - e) // (cj - ci)
        return e - ci * tau, tau

    def product(i, j):  # every candidate of pair (i, j), _BLOCK at a time
        es, fs = fam_s[i], fam_s[j]
        n = len(es) * len(fs)
        for s in range(0, n, _BLOCK):
            g = np.arange(s, min(s + _BLOCK, n))
            yield meet(es[g // len(fs)], fs[g % len(fs)], coeffs[i], coeffs[j])

    def pruned(i, j, l):  # the candidates of pair (i, j) in the closure of U_l
        es, fs, (ci, cj, cl) = fam_s[i], fam_s[j], (coeffs[i], coeffs[j], coeffs[l])
        d, a, b = cj - ci, cj - cl, cl - ci  # d y = a e + b f at the meeting
        lo, hi = fam_s[l][0::2], fam_s[l][1::2]
        if d * b < 0:  # f falls as y rises
            lo, hi = hi, lo
        if not len(lo):  # an empty U_l holds no meeting
            return
        rows = max(1, _BLOCK // len(lo))  # the bound table has about _BLOCK entries
        for r in range(0, len(es), rows):
            e = es[r : r + rows, None]
            # the partners f = (d y - a e)/b of e with y in a piece, an exact
            # division since every endpoint is a multiple of lcm|c_j - c_i|
            first = np.searchsorted(fs, ((d * lo - a * e) // b).ravel())
            stop = np.searchsorted(fs, ((d * hi - a * e) // b).ravel(), side="right")
            n = stop - first
            at = np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)
            yield meet(np.repeat(e.ravel(), n.reshape(len(e), -1).sum(axis=1)), fs[at], ci, cj)

    def block(parts):
        x, tau, p, q = zip(*parts)
        sizes = [len(a) for a in x]
        x, tau = np.concatenate(x), np.concatenate(tau)
        p, q = np.repeat(p, sizes), np.repeat(q, sizes)
        keep = (tau >= dom[0]) & (tau <= dom[1]) & (x >= win[0]) & (x <= win[1])
        return x[keep], tau[keep], p[keep], q[keep]

    runs = []  # (p, q, candidate chunks) of every pair that can meet
    for i, (es, ci) in enumerate(zip(fam_s, coeffs)):
        # the endpoints of family i at the two t-domain ends, as one chunk
        runs.append((0, i + 1, [((es - ci * ts[:, None]).ravel(), np.repeat(ts, len(es)))]))
        for j in range(i + 1, len(fam_s)):
            if coeffs[j] == ci:
                continue
            l = None
            if len(es) * len(fam_s[j]) >= _BLOCK:  # below one block numpy call overhead dominates
                l = next((l for l, c in enumerate(coeffs) if c not in (ci, coeffs[j])), None)
            runs.append((i + 1, j + 1, product(i, j) if l is None else pruned(i, j, l)))
    parts, held = [], 0
    for p, q, chunks in runs:
        for x, tau in chunks:
            while held + len(x) >= _BLOCK:  # the chunk fills the block
                take = _BLOCK - held
                parts.append((x[:take], tau[:take], p, q))
                yield block(parts)
                parts, held, x, tau = [], 0, x[take:], tau[take:]
            if len(x):
                parts.append((x, tau, p, q))
                held += len(x)
    if parts:
        yield block(parts)


@functools.lru_cache(maxsize=64)
def _state_table(coeffs, dtype):  # _meeting_jumps' memo: [sorted codes, pair, jump]
    return []


def _state_jumps(states, coeffs, vel):
    """(first, second, jump) per column of local states, row 0 the t-domain
    and row i + 1 family i: 0 none, 1 t0 or an even-index endpoint, 2 t1 or
    an odd-index one.  A 1 is a lower t-endpoint and a 2 an upper one,
    swapped in a family with c < 0; endpoints move at vel = -C/c (the domain
    at 0).  The local intersection [max lowers, min uppers] gives F's slope
    just right (plus) and left (minus) of the point, jump = plus - minus
    (units 1/C).  A meeting counts only for its canonical pair (first,
    second): the first participant and the first later one with a different
    velocity."""
    import numpy as np
    part, v = states != 0, vel[:, None]
    first = part.argmax(axis=0)
    second = (part & (v != vel[first])).argmax(axis=0)
    lower = part & ((states == 1) == np.array([True, *(c > 0 for c in coeffs)])[:, None])
    upper = part & ~lower
    big = int(np.abs(vel).max()) + 1
    has_lo, has_up = lower.any(axis=0), upper.any(axis=0)
    max_lo = np.where(lower, v, -big).max(axis=0)
    min_lo = np.where(lower, v, big).min(axis=0)
    max_up = np.where(upper, v, -big).max(axis=0)
    min_up = np.where(upper, v, big).min(axis=0)
    both = has_lo & has_up
    plus = np.where(both, np.maximum(min_up - max_lo, 0),
                    np.where(has_up, min_up, np.where(has_lo, -max_lo, 0)))
    minus = np.where(both, -np.maximum(min_lo - max_up, 0),
                     np.where(has_up, max_up, np.where(has_lo, -min_lo, 0)))
    return first, second, plus - minus


def _meeting_jumps(x, tau, p, q, fam_s, coeffs, vel, dom):
    """(live, index, jump): the indices of the live meetings, those in the
    closure of every family, and the (index, jump) of the meetings counted by
    pair (p, q) whose slope jump of F (units 1/C) is nonzero; p and q are
    per-meeting arrays.

    One pass searches each family once; a hit or an odd index at the first
    endpoint at or after the point keeps a meeting live, and each meeting
    gets the state code sum_r s_r 3^r (s_r as in _state_jumps; int64 while
    3^rows < 2^62, Python ints beyond).  Pair and jump depend on the code
    alone, so _state_jumps runs only on codes new to the memo of these
    coefficients and dtype.
    """
    import numpy as np
    if not all(map(len, fam_s)):  # an empty family: F = 0 everywhere
        return np.arange(0), np.arange(0), x[:0]
    rows = len(fam_s) + 1
    pw = np.array([3**r for r in range(rows)], dtype=np.int64 if 3**rows < 2**62 else object)
    code = ((tau == dom[0]) + 2 * (tau == dom[1])).astype(pw.dtype)
    inside = np.ones(len(x), dtype=bool)
    for r, (es, c) in enumerate(zip(fam_s, coeffs), 1):
        k = np.searchsorted(es, y := x + c * tau)
        odd, hit = (k & 1).astype(bool), np.take(es, k, mode="clip") == y
        inside &= hit | odd
        code += hit * (1 + odd) * pw[r : r + 1]
    live = np.flatnonzero(inside)
    code = code[live]
    table = _state_table(tuple(coeffs), vel.dtype)
    at = np.searchsorted(table[0], code) if table else None
    if not table or (np.take(table[0], at, mode="clip") != code).any():
        # code 0 (no participant) keeps the table nonempty
        codes = _distinct(np.concatenate((pw[:1] * 0, *table[:1], code)))
        first, second, jump = _state_jumps((codes // pw[:, None] % 3).astype(np.int8), coeffs, vel)
        table[:] = [codes, np.where(jump != 0, first * rows + second, -1), jump]  # -1: no jump to count
        at = np.searchsorted(codes, code)
    _, pair, jump = table
    own = np.flatnonzero(pair[at] == p[live] * rows + q[live])
    return live, live[own], jump[at[own]]


def sweep_superlevel(
    sets: Sequence[IntervalUnion],
    coefficients: Sequence[int],
    level: RationalLike,
    window,
    t_domain=(0, 1),
) -> SweepResult:
    """Exact superlevel set {x in window : F(x) >= level} of the average

        F(x) = |{t in t_domain : x + c_i t in U_i for all i}|.

    Kinetic sweep: as x moves, the preimage (U_i - x)/c_i translates at
    velocity -1/c_i, so F is linear except where two endpoints from families
    with different coefficients meet, or an endpoint meets the t-domain
    boundary.  Meetings outside the window or the t-domain are dropped.  The
    breakpoints are the window ends, every endpoint's meeting with a t-domain
    end, and every pair meeting in the closure of every family: near a pair
    meeting outside some family no t near its time counts, so F's slope does
    not change there.  The set does not depend on which superset of the pair
    meetings is generated; on the depth-k claim scenarios it has
    3 * 12^k + 1 points, and a two-family sweep keeps every pair meeting.

    Every coordinate is an integer over one shared scale
    S = L0 * lcm|c_j - c_i| * lcm|c_i| (L0 clears all input denominators), on
    which meeting abscissae and times are exact.  Candidates (endpoint pairs
    of families with different coefficients, and every endpoint at t0 and
    t1) run as one sequence over all pairs, generated and filtered in numpy
    blocks of _BLOCK that span pairs; a pair with a full product of at least
    _BLOCK generates only the meetings a third family can hold (see
    _crossing_blocks).  On the depth-k claim scenarios that prunes pairs
    (0, 2) and (1, 2) from k=3 on and pair (0, 1) from k=4 on; at k = 1..4
    the sweep runs 1 / 1 / 3 / 22 blocks, which generate 268 / 4,420 /
    18,508 / 172,420 candidates and keep 175 / 3,045 / 17,332 / 166,049
    meetings, for 37 / 433 / 5,185 / 62,209 breakpoints.  The full
    products' candidate count, 268 / 4,420 / 86,764 / 1,836,484, is known
    from the endpoint counts before any event (check_sweep_candidates);
    past MAX_SWEEP_CANDIDATES (k=6 has 912,610,660) the sweep raises
    ValueError.  Arrays are int64 when a magnitude bound computed from the
    inputs stays below 2^62, and dtype object (Python ints) otherwise; both
    run the same code.

    Each meeting changes F's slope by a jump read off the families' local
    states there (see _meeting_jumps).  The kernel searches every family
    once per meeting in one pass, marks the live ones, those in the closure
    of every family (95 / 1,151 / 13,823 / 165,887), and gives each a state
    code; pair and jump come from a memo of codes per coefficient tuple,
    which the claim scenarios fill with 5 codes at k=1 and never again.  It
    returns the live meetings and the (index, jump) of the nonzero jumps
    their canonical pair counts (46 / 574 / 6,910 / 82,942).  The live and
    domain-end abscissae are pending breakpoints, merged into the sorted
    breakpoints after 32 blocks once they are at least as many as the
    breakpoints so far, so memory follows the breakpoints rather than the
    meetings, and the nonzero jumps, kept with their abscissae, are summed
    onto the breakpoints at the end.  F at the first two breakpoints and at
    the last one comes from one integer pointwise evaluation on the sweep's
    own grid by _time_pairs, the time-set kernel form_time_set also runs, as
    F * S * C: the first slope is an exact divmod, cumulative sums of the
    jumps then give F at every breakpoint, and the last value must equal the
    third evaluation.  The function holds the breakpoint and value arrays,
    put in lowest terms and checked in numpy (breakpoints over S, values
    over S * C).  Its superlevel method cuts them in one numpy pass
    (intervals._superlevel), every level crossing an integer on the grid
    refined by the lcm of the crossings' reduced denominators, and the union
    holds the cut's arrays of piece ends.  Its measure, containment test and
    JSON read those arrays, so no breakpoint or piece becomes a tuple unless
    a caller reads the x_nums, y_nums or nums views.
    """
    import numpy as np
    sets, coeffs = _matched(sets, coefficients)
    if 0 in coeffs:
        raise ValueError("coefficients must be nonzero")
    w0, w1 = _nondegenerate(window, "window")
    t0, t1 = _nondegenerate(t_domain, "t-domain")
    level = rat(level)
    check_sweep_candidates([2 * len(u.nums) for u in sets], coeffs)

    c_lcm = lcm(*(abs(c) for c in coeffs))
    scale = (
        lcm(common_denominator((w0, w1, t0, t1)), *(u.den for u in sets))
        * lcm(*(abs(cj - ci) for ci in coeffs for cj in coeffs if ci != cj))
        * c_lcm
    )

    def grid(q):
        return q.numerator * (scale // q.denominator)

    fam = [[e * (scale // u.den) for pair in u.nums for e in pair] for u in sets]
    dom, win = (grid(t0), grid(t1)), (grid(w0), grid(w1))
    # every intermediate is at most |S * value| times a few coefficients,
    # velocities and pieces; past int64 the same arrays hold Python ints
    values = [*dom, *win, *itertools.chain(*fam)]
    bound = (
        8 * c_lcm * max(abs(c) for c in coeffs) * (len(values) + 2)
        * (-(-max(map(abs, values)) // scale) + 1) * scale
    )
    dtype = np.int64 if bound < 2**62 else object
    fam_s = [np.array(es, dtype=dtype) for es in fam]
    vel = np.array([0] + [-c_lcm // c for c in coeffs], dtype=dtype)

    # breakpoints so far; pending ones merge in after 32 blocks once they
    # are at least as many as the breakpoints, so memory follows the
    # breakpoints, not the meetings.  Only the nonzero slope jumps are kept,
    # with their abscissae, and summed onto the breakpoints at the end.
    xs_s, pending, held, nz = np.array(win, dtype=dtype), [], 0, []
    for x, tau, p, q in _crossing_blocks(fam_s, coeffs, dom, win):
        live, at, jumps = _meeting_jumps(x, tau, p, q, fam_s, coeffs, vel, dom)
        kept = p == 0  # the domain-end meetings, and the live pair meetings
        kept[live] = True
        pending.append(x[kept])
        nz.append((x[at], jumps))
        held += len(pending[-1])
        if len(pending) >= 32 and held >= len(xs_s):
            xs_s = _distinct(np.concatenate([xs_s, *pending]))
            pending, held = [], 0
    xs_s = _distinct(np.concatenate([xs_s, *pending]))
    del pending  # freed before the function and its cut are built
    slope_jumps = np.zeros(len(xs_s), dtype=dtype)
    for x, v in nz:
        np.add.at(slope_jumps, np.searchsorted(xs_s, x), v)
    del nz

    x0, x1, xn = (int(xs_s[i]) for i in (0, 1, -1))
    cur = [(dom[0] * c_lcm, dom[1] * c_lcm)]
    y0, y1, yn = (sum(b - a for a, b in _time_pairs(sets, coeffs, scale, c_lcm, v, cur))
                  for v in (x0, x1, xn))
    # slopes in 1/C units; F * S * C accumulates slope * dx exactly
    slope0, missed = divmod(y1 - y0, x1 - x0)
    if missed:
        raise InvariantError("sweep events missed a breakpoint of F")
    slopes = slope0 + np.cumsum(np.concatenate(([0], slope_jumps[1:-1])))
    ys = np.cumsum(np.concatenate(([y0], slopes * np.diff(xs_s))))
    if int(ys[-1]) != yn:
        raise InvariantError("kinetic sweep disagrees with the pointwise integral")
    f = PiecewiseLinear._of_arrays(xs_s, ys, scale, scale * c_lcm)
    del xs_s, slope_jumps, slopes, ys  # f holds the reduced arrays
    sup = f.superlevel(level)
    return SweepResult(function=f, superlevel=sup, superlevel_measure=sup.measure())


# ---------------------------------------------------------------------------
# discrete (Riemann-sum) superlevel sweep
# ---------------------------------------------------------------------------


def _fold_pairs(pairs, shift, lo, hi):
    """Translate (lo, hi) pairs by shift and fold into [lo, hi) (a circle).

    Pieces crossing the seam split in two; a piece at least as long as the
    circumference covers the whole circle.  Returns the sorted pieces with
    overlapping and touching ones fused (ints or Fractions, like _pair_isect).
    """
    circ = hi - lo
    base = shift - lo
    out = []
    for a, b in pairs:
        if b - a >= circ:
            return ((lo, hi),)
        a2 = (a + base) % circ + lo
        b2 = b - a + a2
        if b2 <= hi:
            out.append((a2, b2))
        else:
            out += (a2, hi), (lo, b2 - circ)
    out.sort()
    return _merge_sorted(out)


def wrap_translate(u: IntervalUnion, shift: RationalLike) -> IntervalUnion:
    """Translate u by shift and fold into the circle [-1, 1)."""
    shift = rat(shift)
    L = lcm(u.den, shift.denominator)
    return _grid_union(_fold_pairs(_scaled(u, L), int(shift * L), -L, L), L)


def _grid_cells(sets, coeffs, n_steps, w0, w1, circle=False):
    """(coords, counts, scale L) of the grid sum, counts[i] on [coords[i],
    coords[i+1]): int arrays, which the step function keeps for its cut.

    Every coordinate is an integer over one scale L that clears the window,
    the set endpoints and the grid step 1/N; they run from w0 L to w1 L.
    Step n meets the window with each family in its frame x + c_i n L/N.  On
    the circle [-1, 1) each family is folded into [-L, L) once and repeated
    over the periods its frames reach: a periodic line set.

    All steps run at once, in numpy blocks of _BLOCK steps.  The running
    x-pieces of a block's steps are three flat arrays (step, lo, hi), each
    step starting as the window.  Per family the pieces move into its frame,
    two searches find the family pieces each one overlaps (the first ending
    after lo, the last starting before hi), np.repeat expands the pairs, and
    the clipped pieces move back.  The final pieces' ends change the count by
    +1 and -1; one sort and np.add.reduceat sum the changes per coordinate,
    the window ends and coordinates whose changes cancel included.  Arrays
    are int64 when a magnitude bound from the inputs stays below 2^62, and
    dtype object (Python ints) otherwise; both run the same code.
    """
    import numpy as np
    L = lcm(common_denominator((w0, w1)), n_steps, *(u.den for u in sets))
    step = L // n_steps
    fams = [_scaled(u, L) for u in sets]
    win = (int(w0 * L), int(w1 * L))
    if circle:
        circ = 2 * L
        for i, c in enumerate(coeffs):
            folded = _fold_pairs(fams[i], 0, -L, L)
            s0, s1 = sorted((c * step, c * L))  # the frame shifts of steps 1 and N
            fams[i] = _merge_sorted((a + m * circ, b + m * circ) for m in range(
                (win[0] + s0 + L) // circ, (win[1] + s1 + L) // circ + 1) for a, b in folded)
    # a coordinate moves by at most one frame shift |c| n L/N <= |c| L at a
    # time; past int64 the same arrays hold Python ints
    ends = [*win, *itertools.chain.from_iterable(itertools.chain.from_iterable(fams))]
    bound = 4 * (max(map(abs, ends)) + max(map(abs, coeffs)) * L)
    dtype = np.int64 if bound < 2**62 else object
    fam_s = [(np.array([a for a, _ in f], dtype=dtype), np.array([b for _, b in f], dtype=dtype))
             for f in fams]
    # the coordinates so far and the change of the grid count at each
    coords, jumps = np.array(win, dtype=dtype), np.zeros(2, dtype=np.int64)
    for n0 in range(1, n_steps + 1, _BLOCK):
        shifts = np.arange(n0, min(n0 + _BLOCK, n_steps + 1)).astype(dtype) * step
        at = np.arange(len(shifts))  # each piece's step in the block
        lo, hi = np.full(len(at), win[0], dtype=dtype), np.full(len(at), win[1], dtype=dtype)
        for (fa, fb), c in zip(fam_s, coeffs):
            move = c * shifts[at]
            lo, hi = lo + move, hi + move
            first = np.searchsorted(fb, lo, side="right")
            cnt = np.searchsorted(fa, hi) - first
            pick = np.repeat(np.arange(len(at)), cnt)
            j = np.arange(len(pick)) + np.repeat(first - np.cumsum(cnt) + cnt, cnt)
            move, at = move[pick], at[pick]
            lo = np.maximum(lo[pick], fa[j]) - move
            hi = np.minimum(hi[pick], fb[j]) - move
        keys = np.concatenate((coords, lo, hi))
        order = np.argsort(keys)
        keys = keys[order]
        changes = np.concatenate((jumps, np.ones(len(lo), np.int64), np.full(len(hi), -1)))[order]
        head = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        coords, jumps = keys[head], np.add.reduceat(changes, head)
    return coords, np.cumsum(jumps[:-1]), L


def discrete_superlevel(
    sets: Sequence[IntervalUnion],
    coefficients: Sequence[int],
    n_steps: int,
    level: RationalLike,
    window,
    topology: str = "line",
) -> SweepResult:
    """Exact superlevel set of the grid average

        G(x) = (1/N) * #{1 <= n <= N : x + c_i n/N in U_i for all i}

    over the window.  Topology 'line' evaluates indicators on the real line;
    'circle' folds x + c_i n/N into the construction's circle [-1, 1) first
    and reads each U_i as its image on that circle (an interval at least as
    long as the circumference covers it), so G is periodic in x.  G is a step
    function of x; both modes run one exact integer sweep (_grid_cells) that
    meets every grid step with the families in one batched numpy pass, with
    no Python loop over the steps n.
    """
    n_steps = operator.index(n_steps)
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    sets, coeffs = _matched(sets, coefficients)
    w0, w1 = _nondegenerate(window, "window")
    level = rat(level)
    if topology not in ("line", "circle"):
        raise ValueError("topology must be 'line' or 'circle'")
    xs, counts, scale = _grid_cells(sets, coeffs, n_steps, w0, w1, topology == "circle")
    g = StepFunction._of_arrays(xs, counts, scale, n_steps)
    sup = g.superlevel(level)
    return SweepResult(function=g, superlevel=sup, superlevel_measure=sup.measure())


# the grid-size search refuses more worst-case grid cells than this (k=1 up to
# N = 96,000 has 1,249,248,000)
MAX_GRID_CELLS = 10**8


@dataclass(frozen=True)
class RiemannCertificate:
    n_steps: int
    measure: Fraction
    level: Fraction
    target: Fraction


def find_riemann_n(
    k: int, level: RationalLike, target: RationalLike, max_n: int = 10_000
) -> RiemannCertificate:
    """Smallest N whose grid superlevel measure on [-1, 0] reaches target.

    Uses the depth-k triple-average scenario; N runs over the multiples of
    8*12^k up to max_n (grid aligned with the set endpoints).  The returned
    certificate is exact; exhaustion raises SearchExhaustedError and proves
    nothing.

    Before any factor is built, the work over the n sizes is estimated as
    8*12^k * n(n+1) * sum_i cardinality(spec_i), that is the sum over N of
    N * sum_i 2 * cardinality(spec_i): each step meets the window with at
    most that many endpoints per grid point.  Like check_sweep_candidates it
    is a worst case, read off the specs; past MAX_GRID_CELLS the search
    raises ValueError naming it.  Each size is one batched grid sweep
    (discrete_superlevel), so the exhaustive k=1 search (level 1/96, target
    99/100, the 100 sizes up to 9,600) takes about 0.2 s in process on a
    2-core host.
    """
    scen = furstenberg_family(k)
    level, target = rat(level), rat(target)
    base = 8 * 12**k
    if max_n < base:
        raise ValueError(f"max_n must be at least 8*12^{k} = {base} (got {max_n})")
    sizes = range(base, max_n + 1, base)
    cells = base * len(sizes) * (len(sizes) + 1) * sum(map(cardinality, scen.factor_specs))
    _refuse_past(cells, MAX_GRID_CELLS, "grid search over", "grid cells")
    for n_steps in sizes:
        meas = discrete_superlevel(
            scen.factors, scen.coefficients, n_steps, level, (-1, 0), topology="line"
        ).superlevel_measure
        if meas >= target:
            return RiemannCertificate(
                n_steps=n_steps, measure=meas, level=level, target=target
            )
    raise SearchExhaustedError(
        f"no N up to {sizes[-1]} reached superlevel measure {target} at level {level}"
    )


# ---------------------------------------------------------------------------
# cube certificate
# ---------------------------------------------------------------------------


# the cube certificate refuses more checks than this ((4,4) has 15,728,640).
# The digitwise proof is depth-free, but the cap stays: the enumeration it
# falls back on and the lazy report.checks visit every check, and
# CubeScenario.cardinalities() enumerates the forms that are not gap-certified
MAX_CUBE_CHECKS = 2_000_000


def _refuse_cube_checks(count: int) -> int:
    """The cube certificate's gate, which verify-cubes reaches before it builds the family."""
    return _refuse_past(count, MAX_CUBE_CHECKS, "cube certificate of", "checks")


@dataclass(frozen=True)
class CubeCheck:
    x: Fraction
    eps: Tuple[int, ...]
    base_in_form: bool
    slack: Fraction
    passed: bool


class CubeChecks:
    """Every (x, eps) check of a cube certificate, in enumeration order, as a
    lazy view: len is the check count, and each iteration runs _cube_rows
    and builds one CubeCheck per check."""

    def __init__(self, count, forms, rows):
        self._count = count
        self._forms = forms  # per eps in order: (eps, slack, slack >= 0)
        self._rows = rows  # () -> _cube_rows' (scale, rows)

    def __len__(self):
        return self._count

    def __iter__(self):
        scale, rows = self._rows()
        for x, members in rows:
            xq = Fraction(x, scale)
            for (eps, slack, slack_ok), member in zip(self._forms, members):
                yield CubeCheck(xq, eps, member, slack, member and slack_ok)


@dataclass(frozen=True)
class CubeCertificateReport:
    dimension: int
    depth: int
    t_tail: Fraction
    checks_total: int
    checks_failed: int
    first_failures: Tuple[CubeCheck, ...]  # the first five, in enumeration order
    all_pass: bool
    integral_lower_bound: Fraction
    checks: CubeChecks = field(compare=False, repr=False)


# a cube report keeps this many failing checks
_FAILURES_KEPT = 5


def _cube_rows(scenario: CubeScenario, eps_order, proved: bool):
    """(scale, rows): rows runs over the combinations of generator and shared
    base points, ints over the one scale, in itertools.product order, and
    yields x = b_1 + ... + b_m - (m - 1) b with, per form in eps_order,
    whether its target x + sum of b - b_j over the j with eps_j = 1 is a base
    point of that form.  When the digitwise proof holds every membership is
    true and no lattice or form base point is built; otherwise each target
    is looked up in a set of its form's base points, and an x off the base
    lattice, the witness spec's base points, raises InvariantError."""
    m = scenario.dimension
    specs = [*scenario.generator_specs, scenario.shared_spec]
    if not proved:
        specs += [scenario.witness_spec, *(scenario.form_specs[eps] for eps in eps_order)]
    nums = [_base_nums(spec) for spec in specs]
    scale = lcm(*(den for _, den in nums))
    pts = [[v * (scale // den) for v in vs] for vs, den in nums]
    lattice = set(pts[m + 1]) if not proved else None
    # per eps: its form's base points and the subset of j (eps_j = 1) as a bit
    # mask, bit j for b - b_j
    forms = [(set(p), sum(1 << j for j in range(m) if eps[j]))
             for eps, p in zip(eps_order, pts[m + 2 :])]

    def rows():
        members = [True] * len(eps_order)
        for combo in itertools.product(*pts[: m + 1]):
            b = combo[-1]
            x = sum(combo) - m * b
            if not proved:
                if x not in lattice:
                    raise InvariantError("witness decomposition left the base lattice")
                # targets[mask] = x + sum of b - b_j over the bits j of mask:
                # the masks from 2^j up to 2^(j+1) are those below 2^j plus b - b_j
                targets = [x]
                for bj in combo[:m]:
                    targets += [t + b - bj for t in targets]
                members = [targets[mask] in form for form, mask in forms]
            yield x, members

    return scale, rows()


def _cube_digitwise_proof(scenario: CubeScenario) -> bool:
    """Whether one digit position proves every membership of the cube
    certificate at every depth.  The form target of eps, and x at eps = 0,
    is the combination _cube_terms(eps) of the base points b_j and b, and at
    every digit position the same combination of the digits g_j and s.  So
    when all specs share radix and depth and every digit sum of
    _cube_terms(eps) lies in the eps form's alphabet (the witness's at
    eps = 0), each target and each x is a sum of in-alphabet digits, a base
    point: 2 * 3^m digit sums (digitsets._digit_sums) on one denominator."""
    gens, shared, witness = scenario.generator_specs, scenario.shared_spec, scenario.witness_spec
    specs = [*gens, shared, witness, *scenario.form_specs.values()]
    if len({(s.radix, s.depth) for s in specs}) > 1:
        return False

    def covered(eps, spec):
        den, _, sums = _digit_sums(_cube_terms(gens, shared, eps))
        return {v * spec.den for v in sums} <= {d * den for d in spec.digits}

    targets = [((0,) * scenario.dimension, witness), *scenario.form_specs.items()]
    return all(covered(eps, spec) for eps, spec in targets)


def cube_certificate_check(
    scenario: CubeScenario, t_tail: RationalLike | None = None
) -> CubeCertificateReport:
    """Symbolic verification of the cube-average certificate.

    Each x = b_1+...+b_m - (m-1)b over generator base points b_j and a shared
    point b must be a witness base point.  With t_j in
    [b - b_j, b - b_j + t_tail] the form value x + eps.t has base point
    x + sum_{j: eps_j=1} (b - b_j), which must be a base point of the eps form
    set, and fractional part z + sum of at most |eps| tails, which must fit
    inside that form's own tail: slack = form_specs[eps].tail -
    (witness_tail + |eps| * t_tail) must be >= 0.  Both checks run per
    (x, eps); all-pass implies the average lower bound t_tail^m, the volume
    of the checked t-box, at every witness point.  The default t_tail is the
    witness tail [(m+1) * 2^(k(m+1))]^(-1).  The check count n * (2^m - 1),
    n the product of the generator and shared cardinalities, is known before
    any enumeration; past MAX_CUBE_CHECKS the check raises ValueError.

    The memberships are first proved on one digit position
    (_cube_digitwise_proof), which holds for every cube_family scenario and
    takes 2 * 3^m digit sums at any depth.  Then no form or lattice base point
    is built: the report is closed form, n failures per form of negative
    slack, and the first _FAILURES_KEPT failing checks take their x from the
    generator and shared base points alone.  When the proof fails (a mutated
    alphabet, specs of mixed radix or depth), the enumeration decides: one
    pass of _cube_rows over every combination counts the checks whose
    membership or slack fails, keeps the first _FAILURES_KEPT in enumeration
    order, and raises InvariantError when some x leaves the lattice.  Either
    way report.checks is a lazy view that runs _cube_rows only when
    iterated, yielding every CubeCheck.
    """
    m = scenario.dimension
    tau = scenario.witness_tail
    t_tail = tau if t_tail is None else rat(t_tail)
    if t_tail <= 0:
        raise ValueError("t_tail must be positive")
    n_combos = prod(map(cardinality, (*scenario.generator_specs, scenario.shared_spec)))
    _refuse_cube_checks(n_combos * len(scenario.form_specs))
    # per eps its slack and whether the slack holds: the witness tail and one
    # t_tail per unit of weight w must fit inside the form's own tail
    reach = [tau + w * t_tail for w in range(m + 1)]
    eps_order = sorted(scenario.form_specs)
    slacks = [scenario.form_specs[eps].tail - reach[sum(eps)] for eps in eps_order]
    forms = [(eps, slack, slack >= 0) for eps, slack in zip(eps_order, slacks)]

    proved = _cube_digitwise_proof(scenario)
    rows = functools.partial(_cube_rows, scenario, eps_order, proved)
    # under the proof each combination fails exactly at the forms of negative slack
    failing = sum(not ok for _, _, ok in forms)
    failed, first = n_combos * failing if proved else 0, []
    if failing or not proved:
        scale, combos = rows()
        for x, members in combos:
            misses = [(f, member) for f, member in zip(forms, members) if not (member and f[2])]
            if not proved:
                failed += len(misses)
            for (eps, slack, _), member in misses[: _FAILURES_KEPT - len(first)]:
                first.append(CubeCheck(Fraction(x, scale), eps, member, slack, False))
            if proved and len(first) == _FAILURES_KEPT:
                break
    return CubeCertificateReport(
        dimension=m,
        depth=scenario.depth,
        t_tail=t_tail,
        checks_total=n_combos * len(forms),
        checks_failed=failed,
        first_failures=tuple(first),
        all_pass=failed == 0,
        integral_lower_bound=t_tail**m,
        checks=CubeChecks(n_combos * len(forms), tuple(forms), rows),
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


# the estimator refuses more samples than this before drawing any
MAX_MC_SAMPLES = 10**6


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


def monte_carlo_average(
    matrix: Sequence[Sequence[int]],
    sets: Sequence[IntervalUnion],
    x: RationalLike,
    eps: RationalLike,
    samples: int,
    seed: int,
) -> MCEstimate:
    """Unbiased estimate of (1/eps^m) int_{[0,eps]^m} prod_i 1_{U_i}(x + a_i . t) dt.

    Floating point by design (the non-exact substitute engine); output is a
    deterministic function of (seed, samples).
    """
    import numpy as np
    matrix = [list(map(operator.index, row)) for row in matrix]
    if len(matrix) != len(sets) or not matrix:
        raise ValueError("need one coefficient row per set")
    mdim = len(matrix[0])
    if any(len(row) != mdim for row in matrix):
        raise ValueError("ragged coefficient matrix")
    samples, seed = operator.index(samples), operator.index(seed)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _refuse_past(samples, MAX_MC_SAMPLES, "Monte Carlo estimate of", "samples")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    t = rng.random((samples, mdim)) * float(eps)
    x0 = float(rat(x))
    # each set tests only the samples still inside the sets before it; y is
    # the whole product t @ row, so no summation order depends on the survivors
    inside = np.arange(samples)
    for row, u in zip(matrix, sets):
        y = x0 + t @ np.asarray(row, dtype=float)
        ep = np.asarray([e / u.den for pair in u.nums for e in pair], dtype=float)
        inside = inside[np.searchsorted(ep, y[inside], side="right") % 2 == 1]
    ok = np.zeros(samples, dtype=bool)
    ok[inside] = True
    est = float(ok.mean())
    stderr = float(ok.std(ddof=1) / math.sqrt(samples))
    return MCEstimate(estimate=est, stderr=stderr, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# degenerate (dependent-form) truncated ratios
# ---------------------------------------------------------------------------


def _centered_box_ratio(
    cb: float, q: float, r: int, big_m: int, big_l: float
) -> Tuple[float, float]:
    """(ratio, integral) of the truncated L^q quasi-norm ratio of the bound
    min(2^(r-1), cb/(M|x|+1)^(r-1)) on [-L, L].

    integral = int_{-L}^{L} bound(x)^q dx = 2*cb^q*((ML+1)^(1-a) - 1)/(M(1-a))
    with a = (r-1)q (logarithmic at a = 1); ratio = (integral*M/2)^(1/q).
    The ratio grows without bound in L when a <= 1: as a power of ML + 1
    below 1, and at a = 1 only logarithmically, as 2*cb^q*ln(ML+1)/M.
    """
    a = (r - 1) * q
    u = big_m * big_l + 1.0
    if abs(1.0 - a) < 1e-9:
        integral = 2.0 * (cb**q) * math.log(u) / big_m
    else:
        integral = 2.0 * (cb**q) * (u ** (1.0 - a) - 1.0) / (big_m * (1.0 - a))
    ratio = (integral * big_m / 2.0) ** (1.0 / q)
    if not (math.isfinite(ratio) and math.isfinite(integral)):  # e.g. M*L + 1 is inf
        raise OverflowError("centered-box ratio leaves the float range")
    return ratio, integral


@dataclass(frozen=True)
class DependentFormsBound:
    ratio: float
    integral: float
    threshold: Fraction
    grows: bool


_SQUARES_THRESHOLD = Fraction(1, 2)


def _dependent_forms_bound(r, sigma, per, threshold, name, big_m, p, big_l) -> DependentFormsBound:
    """Both bounds' record: M, p (spelt name when refused) and L checked, the
    centered-box ratio of c_b = (2/sigma)^(r-1) at q = p/per, and grows, the
    strict range p < threshold decided exactly on the float p in integers."""
    big_m, p, big_l = operator.index(big_m), float(p), float(big_l)
    if big_m < 1 or p <= 0 or big_l <= 0:
        raise ValueError(f"need M >= 1, {name} > 0, L > 0")
    ratio, integral = _centered_box_ratio((2.0 / sigma) ** (r - 1), p / per, r, big_m, big_l)
    n, d = p.as_integer_ratio()
    grows = n * threshold.denominator < threshold.numerator * d
    return DependentFormsBound(ratio, integral, threshold, grows)


def degenerate_lower_ratio(big_m: int, p4prime: float, big_l) -> DependentFormsBound:
    """The truncated degenerate-squares quasi-norm ratio, its integral, the
    threshold 1/2 and whether p4' lies below it.

    The centered-box closed form at c_b = 4, r = 3 and exponent q = p4':
    integral = 2*4^{p4'} * ((ML+1)^{1-2p4'} - 1) / (M(1-2p4'))
    (logarithmic at p4' = 1/2); ratio = (integral)^{1/p4'} / (2/M)^{1/p4'}.
    The ratio also grows without bound at the threshold itself, but only
    logarithmically.
    """
    return _dependent_forms_bound(3, 1, 1, _SQUARES_THRESHOLD, "p4'", big_m, p4prime, big_l)


def dependent_forms_pointwise_bound(r: int, b: Sequence[int], big_m: int, x: float) -> float:
    """min(2^(r-1), c_b/(M|x|+1)^(r-1)) with c_b = (2/sum|b_i|)^(r-1); at r = 3,
    b = (1, 0) the squares average's certified bound min(4, 4/(M|x|+1)^2)."""
    r, sigma = operator.index(r), sum(abs(operator.index(v)) for v in b)
    cb = (2.0 / sigma) ** (r - 1)
    return min(2.0 ** (r - 1), cb / (big_m * abs(x) + 1.0) ** (r - 1))


def dependent_forms_lower_ratio(
    r: int, b: Sequence[int], big_m: int, p: float, big_l
) -> DependentFormsBound:
    """Truncated L^(p/r) quasi-norm ratio for r monomials x+t_1,...,x+t_{r-1},
    x + sum b_i t_i with integer b_i summing to 1.

    The centered-box closed form with c_b = (2/sum|b_i|)^(r-1) and exponent
    q = p/r; grows reports the strict predicted divergence range p < r/(r-1),
    the threshold from scenarios.degenerate_threshold.  The ratio also grows
    without bound at p = r/(r-1) itself, where (r-1)q = 1, but only
    logarithmically: integral = 2*c_b^q*ln(ML+1)/M.
    """
    r = operator.index(r)
    b = [operator.index(v) for v in b]
    if r < 3:
        raise ValueError("need r >= 3")
    if len(b) != r - 1:
        raise ValueError("need r-1 coefficients")
    if sum(b) != 1:
        raise ValueError("coefficients must sum to 1 (dependent-form condition)")
    return _dependent_forms_bound(r, sum(map(abs, b)), r, degenerate_threshold(r), "p", big_m, p, big_l)
