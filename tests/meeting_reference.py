"""The full-state meeting kernel, a reference for the sweep's live-meeting kernel.

Every meeting gets its local state in every family, from two searches per
family, and the reductions run on all of them; a meeting outside some family,
or not counted by its canonical pair, gets jump 0.  The sweep's kernel must
return exactly the indices of the live meetings, those in the closure of
every family, and the nonzero entries of the jump array, as (index, jump).
"""

import numpy as np


def full_state_jumps(x, tau, p, q, fam_s, coeffs, vel, dom):
    """(jump, live): the slope jump of F (units 1/C) from each meeting counted
    by pair (p, q), and whether the meeting lies in the closure of every family.

    Near the meeting point every family is inside, outside, or has its lower
    or upper t-endpoint there; endpoints move at vel = -C/c (the domain at 0).
    The local intersection [max lowers, min uppers] gives F's slope just
    right (plus) and left (minus) of x.  A meeting shared by several pairs is
    counted only by its canonical pair: the first participant and the first
    later one with a different velocity.
    """
    shape = (len(fam_s) + 1, len(x))
    lower, upper = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    lower[0], upper[0] = tau == dom[0], tau == dom[1]  # meetings lie in the domain
    outside = np.zeros(len(x), dtype=bool)
    for r, (es, c) in enumerate(zip(fam_s, coeffs), 1):
        y = x + c * tau
        k = np.searchsorted(es, y, side="left")
        hit = np.searchsorted(es, y, side="right") > k
        even = k % 2 == 0
        outside |= even & ~hit
        lower[r] = hit & (even == (c > 0))
        upper[r] = hit & (even != (c > 0))
    big = int(np.abs(vel).max()) + 1
    v = vel[:, None]
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
    part = lower | upper
    first = part.argmax(axis=0)
    second = (part & (v != vel[first])).argmax(axis=0)
    counted = (first == p) & (second == q) & ~outside
    return np.where(counted, plus - minus, 0), ~outside
