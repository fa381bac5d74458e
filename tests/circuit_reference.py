"""The per-subset circuit search, a reference for the depth-first walk.

Every combination of the augmented rows, size by size and in lexicographic
order within a size, gets a full exact_rank from scratch; the first
rank-deficient one is the smallest dependent set, lexicographically first
among ties.  linforms.minimal_dependent_rows must return exactly its result.
"""

import itertools

from divlab.intervals import InvariantError
from divlab.linforms import DependentRows, dependence_vector, exact_rank


def brute_force_dependent_rows(matrix):
    rows = [list(map(int, row)) + [1] for row in matrix]
    n = len(rows)
    if n == 0:
        return None
    dim = len(rows[0])
    for size in range(2, min(n, dim + 1) + 1):
        for combo in itertools.combinations(range(n), size):
            sub = [rows[i] for i in combo]
            if exact_rank(sub) < size:
                lam = dependence_vector(sub)
                if lam is None:
                    raise InvariantError(f"rank-deficient rows {combo} have no dependence vector")
                return DependentRows(size=size, indices=combo, dependence=lam)
    return None
