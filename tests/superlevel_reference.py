"""The superlevel pass on Fractions, a reference for the integer cut.

Each cell yields its piece of {f >= level}, every crossing an exact
Fraction, and the pieces are fused; the integer cut must give the same set.
"""

from fractions import Fraction

from divlab.intervals import _merge_sorted


def fraction_superlevel(xs, left, right, level):
    """Fused pairs of {x : f(x) >= level}, f running linearly from left[i] to
    right[i] on [xs[i], xs[i+1]] (ints or Fractions, like _pair_isect; each
    crossing is an exact Fraction, also on ints).

    Each cell gives at most one nonempty piece, in order; a crossing that
    lands on a breakpoint gives none.
    """

    def pieces():
        for x0, x1, y0, y1 in zip(xs, xs[1:], left, right):
            if y0 >= level:
                if y1 >= level:
                    yield x0, x1
                elif y0 > level:
                    yield x0, x0 + Fraction((level - y0) * (x1 - x0), y1 - y0)
            elif y1 > level:
                yield x0 + Fraction((level - y0) * (x1 - x0), y1 - y0), x1

    return _merge_sorted(pieces())
