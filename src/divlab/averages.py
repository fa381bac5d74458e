"""Exact and randomized engines for multilinear averages of indicator sets.

The central object is F(x) = |{t in D : x + c_i t in U_i for all i}| for
interval-union sets U_i, integer coefficients c_i and a rational t-domain D.
Everything except the Monte Carlo estimator is exact rational arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Sequence, Tuple, Union

import numpy as np

from .digitsets import _base_nums, cardinality
from .intervals import (
    IntervalUnion,
    InvariantError,
    PiecewiseLinear,
    RationalLike,
    StepFunction,
    _grid_union,
    _merge_sorted,
    _pair_isect,
    _scaled,
    common_denominator,
    rat,
)
from .scenarios import CubeScenario, furstenberg_family


class SearchExhaustedError(RuntimeError):
    """A certified search ran out of candidates (not a proof of nonexistence)."""


# ---------------------------------------------------------------------------
# exact pointwise integral
# ---------------------------------------------------------------------------


def _time_pairs(sets, coeffs, scale, c_lcm, x, cur):
    """{t in cur : x + c_i t in U_i for all i} as sorted int (lo, hi) pairs: x
    over scale, a multiple of every u.den, and t over scale * C, C = c_lcm a
    multiple of every c.  Piece (a, b) of U_i maps to ((a - x) * C/c,
    (b - x) * C/c), reversed when c < 0, and only the pieces that the running
    t-set's hull reaches are read.  cur, the starting window, is a finite
    list of t-pieces; an inverted piece meets nothing."""
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
    coeffs = [int(c) for c in coefficients]
    if len(sets) != len(coeffs) or not sets:
        raise ValueError("need matching nonempty sets and coefficients")
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
    return _grid_union(_merge_sorted(_time_pairs(sets, coeffs, scale, c_lcm, x, cur)), scale * c_lcm)


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


# candidates handled per numpy block; bounds the sweep's working memory
_BLOCK = 1 << 13

# the continuous sweep refuses more meeting candidates than this (k=5 has 40 M)
MAX_SWEEP_CANDIDATES = 10**8


def check_sweep_candidates(sizes: Sequence[int], coefficients: Sequence[int]) -> int:
    """The meeting candidates sum_{i<j, c_i != c_j} |E_i||E_j| + 2 sum |E_i| of
    a continuous sweep whose families have sizes[i] = |E_i| endpoints; past
    MAX_SWEEP_CANDIDATES it raises ValueError naming the count.  An upper
    bound on the sizes gives an upper bound on the count."""
    candidates = 2 * sum(sizes) + sum(
        a * b
        for (a, c), (b, d) in itertools.combinations(zip(sizes, coefficients), 2)
        if c != d
    )
    if candidates > MAX_SWEEP_CANDIDATES:
        raise ValueError(
            f"sweep of {candidates:,} meeting candidates exceeds the cap of {MAX_SWEEP_CANDIDATES:,}"
        )
    return candidates


def _distinct(a):
    """Sorted distinct values of a, which is sorted in place (np.unique would
    import numpy.ma on first use)."""
    a.sort()
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _crossing_blocks(fam_s, coeffs, dom, win):
    """Yield (x, tau, p, q) blocks of meetings inside the window and t-domain.

    Coordinates are integers on the sweep's shared grid; p < q are
    per-meeting arrays naming the meeting pair, row 0 being the t-domain and
    row i + 1 family i.  Endpoints e of family i and f of family j meet at
    tau = (f - e)/(c_j - c_i), x = e - c_i tau; e meets the domain ends
    tau = t0, t1 at x = e - c_i tau.  The candidates of all pairs run as one
    sequence cut into blocks of _BLOCK, so a block spans pairs and every
    block but the last is full.
    """
    ts = np.array(dom, dtype=fam_s[0].dtype)

    def meetings(p, q, g):  # (x, tau) of the candidates g of pair (p, q)
        fs, cj = fam_s[q - 1], coeffs[q - 1]
        if p == 0:
            return fs[g % len(fs)] - cj * ts[g // len(fs)], ts[g // len(fs)]
        es, ci = fam_s[p - 1], coeffs[p - 1]
        e = es[g // len(fs)]
        tau = (fs[g % len(fs)] - e) // (cj - ci)
        return e - ci * tau, tau

    def block(parts):
        cut = [meetings(p, q, g) for p, q, g in parts]
        x, tau = np.concatenate([x for x, _ in cut]), np.concatenate([t for _, t in cut])
        p = np.concatenate([np.full(len(g), p) for p, _, g in parts])
        q = np.concatenate([np.full(len(g), q) for _, q, g in parts])
        keep = (tau >= dom[0]) & (tau <= dom[1]) & (x >= win[0]) & (x <= win[1])
        return x[keep], tau[keep], p[keep], q[keep]

    runs = []  # (p, q, candidate count) of every pair that can meet
    for i, es in enumerate(fam_s):
        runs.append((0, i + 1, 2 * len(es)))
        runs += [(i + 1, j + 1, len(es) * len(fam_s[j]))
                 for j in range(i + 1, len(fam_s)) if coeffs[j] != coeffs[i]]
    parts, room = [], _BLOCK
    for p, q, n in runs:
        s = 0
        while s < n:
            take = min(room, n - s)
            parts.append((p, q, np.arange(s, s + take)))
            s, room = s + take, room - take
            if not room:
                yield block(parts)
                parts, room = [], _BLOCK
    if parts:
        yield block(parts)


def _meeting_jumps(x, tau, p, q, fam_s, coeffs, vel, dom):
    """(index, jump) of the meetings counted by pair (p, q) whose slope jump
    of F (units 1/C) is nonzero; p and q are per-meeting arrays.

    Near the meeting point every family is inside, outside, or has its lower
    or upper t-endpoint there; endpoints move at vel = -C/c (the domain at 0).
    One search per family finds the first endpoint at or after the point, and
    an equality test there tells a hit.  A meeting outside some family has
    F = 0 on both sides, so it is dropped before the local reductions.  On
    the live ones the local intersection [max lowers, min uppers] gives F's
    slope just right (plus) and left (minus) of x.  A meeting shared by
    several pairs is counted only by its canonical pair: the first
    participant and the first later one with a different velocity.
    """
    idx = np.arange(len(x))
    hits, ks = [], []  # per family: an endpoint at y; the first endpoint index at or after y
    for es, c in zip(fam_s, coeffs):
        if not len(es):  # an empty family: F = 0 everywhere
            return idx[:0], x[:0]
        y = x + c * tau
        k = np.searchsorted(es, y)
        hit = np.take(es, k, mode="clip") == y
        # keep the meetings inside or on this family (a hit, or past an odd
        # number of endpoints); the next family searches only those
        keep = np.flatnonzero(hit | (k & 1).astype(bool))
        idx, x, tau = idx[keep], x[keep], tau[keep]
        hits = [h[keep] for h in hits] + [hit[keep]]
        ks = [j[keep] for j in ks] + [k[keep]]
    # the canonical pair reads only which rows take part: the domain at its
    # ends, a family at a hit; the reductions then run on the counted meetings
    part = np.array([(tau == dom[0]) | (tau == dom[1]), *hits])
    v = vel[:, None]
    first = part.argmax(axis=0)
    second = (part & (v != vel[first])).argmax(axis=0)
    own = np.flatnonzero((first == p[idx]) & (second == q[idx]))
    idx, tau, part = idx[own], tau[own], part[:, own]
    # a hit at an even index is a lower t-endpoint when c > 0, an upper one when c < 0
    lower = part & np.array([tau == dom[0], *(((k[own] & 1) == 0) == (c > 0) for k, c in zip(ks, coeffs))])
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
    jump = plus - minus
    nz = np.flatnonzero(jump)
    return idx[nz], jump[nz]


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
    boundary.  Meetings outside the window or the t-domain are dropped; the
    breakpoints are the remaining meeting abscissae plus the window ends.

    Every coordinate is an integer over one shared scale
    S = L0 * lcm|c_j - c_i| * lcm|c_i| (L0 clears all input denominators), on
    which meeting abscissae and times are exact.  Candidates (every endpoint
    pair of families with different coefficients, and every endpoint at
    t0 and t1) run as one sequence over all pairs, generated and filtered in
    numpy blocks of _BLOCK that span pairs: 1 / 1 / 11 / 225 blocks on the
    depth-k claim scenarios (k = 1..4), which keep 175 / 3,045 / 57,949 /
    1,166,577 meetings out of 268 / 4,420 / 86,764 / 1,836,484 candidates,
    for 37 / 433 / 5,185 / 62,209 breakpoints.  The candidate count is known
    from the endpoint counts before any event (check_sweep_candidates); past
    MAX_SWEEP_CANDIDATES (k=6 has 912,610,660) the sweep raises ValueError.
    Arrays are int64 when a magnitude bound computed from the inputs stays
    below 2^62, and dtype object (Python ints) otherwise; both run the same
    code.

    Each meeting changes F's slope by a jump read off the families' local
    states there (see _meeting_jumps).  The kernel searches each family once
    and drops a meeting as soon as it lies outside some family, so only the
    live ones reach the local reductions (13,823 of 57,949 at k=3, 165,887
    of 1,166,577 at k=4), and of those only the ones their canonical pair
    counts; it returns the (index, jump) of the nonzero jumps (6,910 and
    82,942).  Every meeting's abscissa is a breakpoint: pending abscissae
    merge into the sorted breakpoints after 32 blocks once they are at least
    as many as the breakpoints so far, so memory follows the breakpoints
    rather than the meetings, and the nonzero jumps, kept with their
    abscissae, are summed onto the breakpoints at the end.  F at the first
    two breakpoints and at the last one comes from one integer pointwise
    evaluation on the sweep's own grid by _time_pairs, the time-set kernel
    form_time_set also runs, as F * S * C: the first slope is an exact
    divmod, cumulative sums of the jumps then give F at every breakpoint,
    and the last value must equal the third evaluation.
    The function holds F on the integer grid (breakpoints over S, values
    over S * C) and cuts the superlevel set there, each level crossing an
    integer on that grid refined by the lcm of the crossings' denominators.
    """
    sets = list(sets)
    coeffs = [int(c) for c in coefficients]
    if len(sets) != len(coeffs) or not sets:
        raise ValueError("need matching nonempty sets and coefficients")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    w0, w1 = rat(window[0]), rat(window[1])
    if w0 >= w1:
        raise ValueError("window must be nondegenerate")
    t0, t1 = rat(t_domain[0]), rat(t_domain[1])
    if t0 >= t1:
        raise ValueError("t-domain must be nondegenerate")
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

    # breakpoints so far; pending meetings merge in after 32 blocks once they
    # are at least as many as the breakpoints, so memory follows the
    # breakpoints, not the meetings.  Only the nonzero slope jumps are kept,
    # with their abscissae, and summed onto the breakpoints at the end.
    xs_s, pending, held, nz = np.array(win, dtype=dtype), [], 0, []
    for x, tau, p, q in _crossing_blocks(fam_s, coeffs, dom, win):
        at, jumps = _meeting_jumps(x, tau, p, q, fam_s, coeffs, vel, dom)
        pending.append(x)
        nz.append((x[at], jumps))
        held += len(x)
        if len(pending) >= 32 and held >= len(xs_s):
            xs_s = _distinct(np.concatenate([xs_s, *pending]))
            pending, held = [], 0
    xs_s = _distinct(np.concatenate([xs_s, *pending]))
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
    f = PiecewiseLinear(tuple(xs_s.tolist()), tuple(ys.tolist()), scale, scale * c_lcm)
    del xs_s, slope_jumps, slopes, ys  # the arrays go before the cut's peak
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


def wrap_translate(u: IntervalUnion, shift: RationalLike, lo=-1, hi=1) -> IntervalUnion:
    """Translate u by shift and fold into [lo, hi) (circle of circumference hi-lo)."""
    lo, hi, shift = rat(lo), rat(hi), rat(shift)
    if lo >= hi:
        raise ValueError("circle must be nondegenerate")
    L = lcm(u.den, common_denominator((shift, lo, hi)))
    return _grid_union(_fold_pairs(_scaled(u, L), int(shift * L), int(lo * L), int(hi * L)), L)


def _grid_cells(sets, coeffs, n_steps, w0, w1, circle=None):
    """(coords, counts, scale L) of the grid sum: counts[i] on [coords[i], coords[i+1]).

    Every coordinate is an integer over one scale L that clears the window,
    the set endpoints, the circle bounds and the grid step 1/N; they run from
    w0 L to w1 L.  Step n meets the window with each family in its frame
    x + c_i n L/N.  On a circle (lo, hi) each family is folded into [lo L, hi L)
    once and repeated over the periods its frames reach: a periodic line set.
    """
    bounds = (w0, w1, *circle) if circle else (w0, w1)
    L = lcm(common_denominator(bounds), n_steps, *(u.den for u in sets))
    step = L // n_steps
    fams = [_scaled(u, L) for u in sets]
    win = (int(w0 * L), int(w1 * L))
    if circle:
        lo, hi = int(circle[0] * L), int(circle[1] * L)
        circ = hi - lo
        for i, c in enumerate(coeffs):
            folded = _fold_pairs(fams[i], 0, lo, hi)
            s0, s1 = sorted((c * step, c * L))  # the frame shifts of steps 1 and N
            fams[i] = _merge_sorted((a + m * circ, b + m * circ) for m in range(
                (win[0] + s0 - lo) // circ, (win[1] + s1 - lo) // circ + 1) for a, b in folded)
    # coordinate -> change of the grid count there; the window ends are seeded
    jumps = defaultdict(int, {win[0]: 0, win[1]: 0})
    for n in range(1, n_steps + 1):
        cur, shift = [win], 0
        for pairs, c in zip(fams, coeffs):
            # from the previous family's frame (x itself at first) into this one's
            move, shift = c * step * n - shift, c * step * n
            cur = _pair_isect([(a + move, b + move) for a, b in cur], pairs)
            if not cur:
                break
        for a, b in cur:
            jumps[a - shift] += 1
            jumps[b - shift] -= 1
    coords = sorted(jumps)
    return coords, list(itertools.accumulate(jumps[x] for x in coords[:-1])), L


def discrete_superlevel(
    sets: Sequence[IntervalUnion],
    coefficients: Sequence[int],
    n_steps: int,
    level: RationalLike,
    window,
    topology: str = "line",
    circle_lo: RationalLike = -1,
    circle_hi: RationalLike = 1,
) -> SweepResult:
    """Exact superlevel set of the grid average

        G(x) = (1/N) * #{1 <= n <= N : x + c_i n/N in U_i for all i}

    over the window.  Topology 'line' evaluates indicators on the real line;
    'circle' folds x + c_i n/N into [circle_lo, circle_hi) first and reads
    each U_i as its image on that circle (an interval at least as long as
    the circumference covers it), so G is periodic in x.  G is a step
    function of x; both modes run one exact integer sweep (_grid_cells).
    """
    coeffs = [int(c) for c in coefficients]
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if len(sets) != len(coeffs) or not sets:
        raise ValueError("need matching nonempty sets and coefficients")
    w0, w1 = rat(window[0]), rat(window[1])
    if w0 >= w1:
        raise ValueError("window must be nondegenerate")
    level = rat(level)
    if topology not in ("line", "circle"):
        raise ValueError("topology must be 'line' or 'circle'")
    circle = (rat(circle_lo), rat(circle_hi)) if topology == "circle" else None
    if circle and circle[0] >= circle[1]:
        raise ValueError("circle must be nondegenerate")
    xs, counts, scale = _grid_cells(sets, coeffs, n_steps, w0, w1, circle)
    g = StepFunction(tuple(xs), tuple(counts), scale, n_steps)
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
    k: int,
    level: RationalLike,
    target: RationalLike,
    progression: Sequence[int] | None = None,
    window=(-1, 0),
    max_n: int = 10_000,
) -> RiemannCertificate:
    """Smallest N in the progression whose grid superlevel measure reaches target.

    Uses the depth-k triple-average scenario on the given window; the default
    progression is the multiples of 8*12^k up to max_n (grid aligned with the
    set endpoints).  The returned certificate is exact; exhaustion raises
    SearchExhaustedError and proves nothing.

    Before any factor is built, the work is estimated as the sum over the
    progression of N * sum_i 2 * cardinality(spec_i): each step meets the
    window with at most that many endpoints per grid point.  Like
    check_sweep_candidates it is a worst case, read off the specs; past
    MAX_GRID_CELLS the search raises ValueError naming it.
    """
    scen = furstenberg_family(k)
    level, target = rat(level), rat(target)
    if progression is None:
        base = 8 * 12**k
        if max_n < base:
            raise ValueError(f"max_n must be at least 8*12^{k} = {base} (got {max_n})")
        progression = range(base, max_n + 1, base)
        points = base * len(progression) * (len(progression) + 1) // 2
    else:
        progression = [int(n) for n in progression]
        points = sum(progression)
    cells = points * 2 * sum(map(cardinality, scen.factor_specs))
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"grid search over {cells:,} grid cells exceeds the cap of {MAX_GRID_CELLS:,}"
        )
    last = None
    for n_steps in progression:
        last = n_steps
        meas = discrete_superlevel(
            scen.factors, scen.coefficients, last, level, window, topology="line"
        ).superlevel_measure
        if meas >= target:
            return RiemannCertificate(
                n_steps=last, measure=meas, level=level, target=target
            )
    if last is None:
        raise ValueError("empty progression")
    raise SearchExhaustedError(
        f"no N up to {last} reached superlevel measure {target} at level {level}"
    )


# ---------------------------------------------------------------------------
# cube certificate
# ---------------------------------------------------------------------------


# the cube certificate refuses more checks than this ((4,4) has 15,728,640)
MAX_CUBE_CHECKS = 2_000_000


@dataclass(frozen=True)
class CubeCheck:
    x: Fraction
    eps: Tuple[int, ...]
    base_in_form: bool
    slack: Fraction
    passed: bool


class CubeChecks:
    """Every (x, eps) check of a cube certificate, in enumeration order, as a
    lazy view: len is the check count, and each iteration reruns the integer
    enumeration and builds one CubeCheck per check."""

    def __init__(self, count, scale, forms, rows):
        self._count = count
        self._scale = scale
        self._forms = forms  # per eps in order: (eps, slack, slack >= 0)
        self._rows = rows  # () -> the enumeration's (x, membership per eps) rows

    def __len__(self):
        return self._count

    def __iter__(self):
        for x, members in self._rows():
            xq = Fraction(x, self._scale)
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


def _cube_rows(points, lattice, forms):
    """The integer cube enumeration: per combination of generator and shared
    base points (all ints over one scale), x = b_1 + ... + b_m - (m - 1) b and
    whether each form target is a base point of its form, in form order."""
    m = len(points) - 1
    # each mask as (the mask without its lowest bit, that bit's j)
    lowest = [(mask & (mask - 1), (mask & -mask).bit_length() - 1) for mask in range(1 << m)]
    for combo in itertools.product(*points):
        b = combo[-1]
        x = sum(combo) - m * b  # b_1 + ... + b_m - (m - 1) b
        if x not in lattice:
            raise InvariantError("witness decomposition left the base lattice")
        # targets[mask] = x + sum of b - b_j over the bits j of mask
        targets = [x]
        for rest, j in lowest[1:]:
            targets.append(targets[rest] + b - combo[j])
        yield x, [targets[mask] in form for form, mask in forms]


def cube_certificate_check(
    scenario: CubeScenario, t_tail: RationalLike | None = None
) -> CubeCertificateReport:
    """Symbolic verification of the cube-average certificate.

    Every witness base point decomposes uniquely as x = b_1+...+b_m - (m-1)b
    over generator base points b_j and a shared point b.  With t_j in
    [b - b_j, b - b_j + t_tail] the form value x + eps.t has base point
    x + sum_{j: eps_j=1} (b - b_j), which must be a base point of the eps form
    set, and fractional part z + sum of at most |eps| tails, which must fit
    inside the form tail: slack = form_tail - (witness_tail + |eps| * t_tail)
    must be >= 0.  Both checks run per (x, eps); all-pass implies the average
    lower bound t_tail^m, the volume of the checked t-box, at every witness
    point.  The default t_tail is the witness tail [(m+1) * 2^(k(m+1))]^(-1).
    The check count, the product of the generator and shared cardinalities
    times the 2^m - 1 forms, is known before any enumeration; past
    MAX_CUBE_CHECKS the check raises ValueError.

    Every base point is an integer over one scale L, the lcm of the specs'
    denominators, so the decomposition, the lattice test and each form
    target are int sums and set lookups.  The report counts the checks and
    the failures and keeps the first _FAILURES_KEPT failures; x becomes
    a Fraction only for a kept failure.  report.checks is a lazy view that
    reruns the same enumeration to yield every CubeCheck.
    """
    m = scenario.dimension
    tau = scenario.witness_tail
    t_tail = tau if t_tail is None else rat(t_tail)
    if t_tail <= 0:
        raise ValueError("t_tail must be positive")
    n_checks = prod(map(cardinality, (*scenario.generator_specs, scenario.shared_spec)))
    n_checks *= len(scenario.form_specs)
    if n_checks > MAX_CUBE_CHECKS:
        raise ValueError(
            f"cube certificate of {n_checks:,} checks exceeds the cap of {MAX_CUBE_CHECKS:,}"
        )
    form_tail = scenario.form_tail
    eps_order = sorted(scenario.form_specs)
    specs = [*scenario.generator_specs, scenario.shared_spec, scenario.base_spec,
             *(scenario.form_specs[eps] for eps in eps_order)]
    nums = [_base_nums(spec) for spec in specs]
    scale = lcm(*(den for _, den in nums))
    pts = [[v * (scale // den) for v in vs] for vs, den in nums]
    # per eps: its form's base points and the subset of j (eps_j = 1) as a bit
    # mask, bit j for b - b_j; its slack and whether the slack holds
    form_sets = [(set(p), sum(1 << j for j in range(m) if eps[j]))
                 for eps, p in zip(eps_order, pts[m + 2 :])]
    forms = []
    for eps in eps_order:
        slack = form_tail - (tau + sum(eps) * t_tail)
        forms.append((eps, slack, slack >= 0))
    slack_oks = [ok for _, _, ok in forms]
    rows = functools.partial(_cube_rows, pts[: m + 1], set(pts[m + 1]), form_sets)

    total = failed = 0
    first = []
    for x, members in rows():
        total += len(members)
        passed = list(map(operator.and_, members, slack_oks))
        row_failed = passed.count(False)
        if row_failed:
            failed += row_failed
            if len(first) < _FAILURES_KEPT:
                xq = Fraction(x, scale)
                first += itertools.islice(
                    (CubeCheck(xq, eps, member, slack, False)
                     for (eps, slack, _), member, ok in zip(forms, members, passed) if not ok),
                    _FAILURES_KEPT - len(first),
                )
    return CubeCertificateReport(
        dimension=m,
        depth=scenario.depth,
        t_tail=t_tail,
        checks_total=total,
        checks_failed=failed,
        first_failures=tuple(first),
        all_pass=failed == 0,
        integral_lower_bound=t_tail**m,
        checks=CubeChecks(total, scale, tuple(forms), rows),
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
    matrix = [list(map(int, row)) for row in matrix]
    if len(matrix) != len(sets) or not matrix:
        raise ValueError("need one coefficient row per set")
    mdim = len(matrix[0])
    if any(len(row) != mdim for row in matrix):
        raise ValueError("ragged coefficient matrix")
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples > MAX_MC_SAMPLES:
        raise ValueError(
            f"Monte Carlo estimate of {samples:,} samples exceeds the cap of {MAX_MC_SAMPLES:,}"
        )
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    t = rng.random((samples, mdim)) * float(eps)
    ok = np.ones(samples, dtype=bool)
    x0 = float(rat(x))
    for row, u in zip(matrix, sets):
        y = x0 + t @ np.asarray(row, dtype=float)
        ep = np.asarray([e / u.den for pair in u.nums for e in pair], dtype=float)
        if ep.size == 0:
            ok[:] = False
            break
        ok &= (np.searchsorted(ep, y, side="right") % 2) == 1
    est = float(ok.mean())
    stderr = float(ok.std(ddof=1) / math.sqrt(samples))
    return MCEstimate(estimate=est, stderr=stderr, samples=samples, seed=int(seed))


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
    The ratio grows without bound in L exactly when a < 1.
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


def degenerate_pointwise_bound(big_m: int, x: float) -> float:
    """Certified pointwise lower bound min(4, 4/(M|x|+1)^2) for the squares average.

    Centered-box argument: both s and t range over an interval of length 1/M
    centered at -x/2, and the third constraint x+s+t in [-1/M, 1/M] is then
    automatic; normalizing at scale (M|x|+1)/(2M) gives the bound.  This is
    the r = 3, b = (1, 0) case of dependent_forms_pointwise_bound.
    """
    return dependent_forms_pointwise_bound(3, (1, 0), big_m, x)


def degenerate_lower_ratio(big_m: int, p4prime: float, big_l) -> Tuple[float, float]:
    """(ratio, integral) for the truncated degenerate-squares quasi-norm ratio.

    The centered-box closed form at c_b = 4, r = 3 and exponent q = p4':
    integral = 2*4^{p4'} * ((ML+1)^{1-2p4'} - 1) / (M(1-2p4'))
    (logarithmic at p4' = 1/2); ratio = (integral)^{1/p4'} / (2/M)^{1/p4'}.
    Grows without bound in L exactly when p4' < 1/2.
    """
    big_m = int(big_m)
    p = float(p4prime)
    big_l = float(big_l)
    if big_m < 1 or p <= 0 or big_l <= 0:
        raise ValueError("need M >= 1, p4' > 0, L > 0")
    return _centered_box_ratio(4.0, p, 3, big_m, big_l)


@dataclass(frozen=True)
class DependentFormsBound:
    ratio: float
    integral: float
    threshold: Fraction
    grows: bool


def dependent_forms_pointwise_bound(r: int, b: Sequence[int], big_m: int, x: float) -> float:
    """min(2^(r-1), c_b/(M|x|+1)^(r-1)) with c_b = (2/sum|b_i|)^(r-1)."""
    sigma = sum(abs(int(v)) for v in b)
    cb = (2.0 / sigma) ** (r - 1)
    return min(2.0 ** (r - 1), cb / (big_m * abs(x) + 1.0) ** (r - 1))


def dependent_forms_lower_ratio(
    r: int, b: Sequence[int], big_m: int, p: float, big_l
) -> DependentFormsBound:
    """Truncated L^(p/r) quasi-norm ratio for r monomials x+t_1,...,x+t_{r-1},
    x + sum b_i t_i with integer b_i summing to 1.

    The centered-box closed form with c_b = (2/sum|b_i|)^(r-1) and exponent
    q = p/r; the ratio grows without bound in L exactly when (r-1)q < 1,
    i.e. p < r/(r-1) (the predicted divergence range).
    """
    r = int(r)
    b = [int(v) for v in b]
    if r < 3:
        raise ValueError("need r >= 3")
    if len(b) != r - 1:
        raise ValueError("need r-1 coefficients")
    if sum(b) != 1:
        raise ValueError("coefficients must sum to 1 (dependent-form condition)")
    big_m = int(big_m)
    p = float(p)
    big_l = float(big_l)
    if big_m < 1 or p <= 0 or big_l <= 0:
        raise ValueError("need M >= 1, p > 0, L > 0")
    cb = (2.0 / sum(abs(v) for v in b)) ** (r - 1)
    ratio, integral = _centered_box_ratio(cb, p / r, r, big_m, big_l)
    thr = Fraction(r, r - 1)
    return DependentFormsBound(
        ratio=ratio, integral=integral, threshold=thr, grows=p < float(thr)
    )
