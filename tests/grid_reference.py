"""The per-step grid loop, a reference for the grid sweep's batched kernel.

Step n = 1..N starts from the window and meets each family in its frame
x + c_i n L/N with one pair intersection; every end of the step's final
pieces changes the grid count there by +1 or -1, and the window ends are
seeded with a zero change.  `_grid_cells` must return exactly this
(coords, counts, L).
"""

from collections import defaultdict
from itertools import accumulate
from math import lcm

from divlab.averages import _fold_pairs
from divlab.intervals import _merge_sorted, _pair_isect, _scaled, common_denominator


def grid_cells_reference(sets, coeffs, n_steps, w0, w1, circle=False):
    """(coords, counts, scale L) of the grid sum: counts[i] on [coords[i], coords[i+1]),
    on the circle [-1, 1) when circle is true."""
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
    return coords, list(accumulate(jumps[x] for x in coords[:-1])), L
