"""Dependence structure of integer linear-forms matrices.

The n-1 forms x + a_i . t are encoded by the rows of an (n-1) x m integer
matrix.  Augmenting each row with a trailing 1 (the x coefficient) and adding
the bottom row (0,...,0,1) gives the extended matrix whose exact rank governs
which divergence scenario applies.  A minimal dependent subset of the
augmented rows (a matroid circuit) has augmented rank r-1, hence t-part rank
r-2 or r-1: the first is the nondegenerate scenario, the second the
degenerate one with predicted exponent bound p < r/(r-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import index
from typing import List, Optional, Sequence, Tuple

from .intervals import InvariantError, _refuse_past, rat_str
from .scenarios import degenerate_threshold

# the circuit search refuses more candidate row subsets than this (20 x 10 has 910,575)
MAX_CIRCUIT_SUBSETS = 1_000_000


def extended_matrix(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Rows augmented with a trailing 1, plus the bottom row (0,...,0,1)."""
    rows = [[index(v) for v in row] + [1] for row in matrix]  # TypeError on non-integers
    if not rows:
        raise ValueError("need at least one row")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows + [[0] * (len(rows[0]) - 1) + [1]]


def _bareiss(rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """Fraction-free forward elimination over the integers (Bareiss 1968).

    Each step cross-multiplies the rows below the pivot by the new pivot and
    divides exactly by the previous one, so every entry stays a minor of the
    input instead of doubling in size per step.  Returns (pivot columns,
    echelon rows): pivot columns are taken greedily from the left, so their
    number is the rank; row k has its pivot at column pivots[k], and the last
    pivot d is the determinant of the pivot rows and columns.
    """
    a = [[index(v) for v in row] for row in rows]  # TypeError on non-integers
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged matrix")
    pivots: List[int] = []
    prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pr, p = a[r], a[r][c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f or p != prev:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pr)]
        pivots.append(c)
        prev = p
        if r + 1 == len(a):
            break
    return pivots, a


def _kernel(pivots: List[int], a: List[List[int]], col: int, n: int) -> List[int]:
    """The integer kernel vector of the echelon rows that is d (the last pivot)
    at the free column col and 0 at the other free columns.

    Back substitution divides exactly: by Cramer's rule every entry is, up to
    sign, a minor of the input.
    """
    lam = [0] * n
    lam[col] = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k in range(len(pivots) - 1, -1, -1):
        row, c = a[k], pivots[k]
        lam[c] = -sum(row[j] * lam[j] for j in range(c + 1, n)) // row[c]
    return lam


def exact_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals."""
    return len(_bareiss(matrix)[0])


def dependence_vector(vectors: Sequence[Sequence[int]]) -> Optional[Tuple[int, ...]]:
    """A primitive integer lambda with sum lambda_i * v_i = 0, or None if independent.

    Kernel vector of the matrix whose columns are the vectors, taken at the
    first free column (the other free columns 0) and scaled to coprime
    integers with the first nonzero entry positive.
    """
    s = len(vectors)
    pivots, a = _bareiss([[v[d] for v in vectors] for d in range(len(vectors[0]))])
    fc = next((c for c in range(s) if c not in pivots), None)
    if fc is None:
        return None
    lam = _kernel(pivots, a, fc, s)
    g = gcd(*lam) * (1 if next(v for v in lam if v) > 0 else -1)
    return tuple(v // g for v in lam)


def solve_in_span(
    basis: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[List[Fraction]]:
    """Coefficients alpha with sum alpha_j basis_j = target, or None if unsolvable.

    Basis vectors outside the greedy pivot columns get coefficient 0.
    """
    s = len(basis)
    pivots, a = _bareiss([[b[d] for b in basis] + [t] for d, t in enumerate(target)])
    if s in pivots:
        return None  # inconsistent: target outside the span
    lam = _kernel(pivots, a, s, s + 1)  # sum lam_j basis_j + lam_s target = 0
    return [Fraction(-v, lam[s]) for v in lam[:s]]


@dataclass(frozen=True)
class DependentRows:
    size: int
    indices: Tuple[int, ...]  # 0-based row indices
    dependence: Tuple[int, ...]  # primitive, annihilates the augmented rows


def circuit_subsets(n: int, columns: int) -> int:
    """Candidate row subsets of the circuit search over n rows of `columns`
    entries: sum_s C(n, s) for 2 <= s <= min(n, columns + 2), since any
    columns + 2 augmented rows are dependent.  It bounds the row reductions of
    classify's walk, one per subset: the prefix, k and the row."""
    return sum(comb(n, s) for s in range(2, min(n, columns + 2) + 1))


def minimal_dependent_rows(
    matrix: Sequence[Sequence[int]],
) -> Optional[DependentRows]:
    """Smallest dependent subset of the augmented rows, lexicographically first
    among ties, with its dependence: classify's circuit, None for no rows."""
    rows = list(matrix)
    return classify(rows).circuit if rows else None


@dataclass(frozen=True)
class Classification:
    matrix: Tuple[Tuple[int, ...], ...]
    rank_matrix: int
    rank_extended: int
    scenario: str  # independent | nondegenerate | degenerate
    circuit: Optional[DependentRows]
    t_part_rank: Optional[int]
    exponent_bound: Optional[Fraction]  # r/(r-1) in the degenerate scenario
    basis_indices: Optional[Tuple[int, ...]]  # t-part basis inside the circuit
    expansions: Optional[dict]  # circuit index -> coefficients over the basis

    def to_json(self):
        out = {
            "matrix": [list(r) for r in self.matrix],
            "rank_matrix": self.rank_matrix,
            "rank_extended": self.rank_extended,
            "scenario": self.scenario,
        }
        if self.circuit is not None:
            out["r"] = self.circuit.size
            out["circuit_rows"] = list(self.circuit.indices)
            out["dependence"] = list(self.circuit.dependence)
            out["t_part_rank"] = self.t_part_rank
            out["basis_rows"] = list(self.basis_indices)
            out["expansions"] = {
                str(i): [rat_str(c) for c in coeffs]
                for i, coeffs in sorted(self.expansions.items())
            }
        if self.exponent_bound is not None:
            out["exponent_bound"] = rat_str(self.exponent_bound)
        return out


def classify(matrix: Sequence[Sequence[int]]) -> Classification:
    """Scenario of the forms x + a_i . t: independent (no dependent subset of the
    augmented rows), nondegenerate (circuit t-part rank r-2) or degenerate
    (t-part rank r-1, predicted divergence for p < r/(r-1)).

    The circuit is the smallest dependent subset of the augmented rows,
    lexicographically first among ties; any m+2 augmented rows are dependent,
    which caps the search.  Past MAX_CIRCUIT_SUBSETS candidate subsets
    (circuit_subsets) it raises ValueError before any elimination.
    Restricting the rows to a basis of their column space keeps every row
    dependence, so the walk runs on the pivot columns of the augmented rows
    [A | 1]; _bareiss takes them greedily from the left, so those before
    column m are A's and their number is the rank.  When there are n of them
    the rows are independent and nothing is walked.

    One depth-first walk over the independent row subsets in lexicographic
    order.  A node is an independent prefix; it holds every later row reduced
    against the prefix by _bareiss' step, with the pivot columns dropped.
    Taking row k as the next row reduces each row after k against k's
    residual once: cross-multiplied by the two pivots and divided exactly by
    the pivot of the prefix's last row, so every entry is a minor of the
    augmented rows.  A residual that vanishes closes a dependent set of the
    prefix, k and that row.  Every proper subset of a smallest dependent set
    is independent, so the walk reaches its prefix, and the first circuit
    found at a size is the lexicographically first of that size: nodes of one
    depth come in lexicographic order, and each node scans its later rows in
    increasing order.  Only a strictly smaller circuit replaces the best one,
    and a branch is pruned once its circuits could not be smaller.  A walk
    always closes a circuit: n rows on fewer than n pivot columns are
    dependent, so one has at most m + 2 rows.

    One elimination of the circuit's t-parts, taken as columns, gives the
    rest.  Its pivot columns are the lexicographically first maximal
    independent subset, which becomes the new variables; the kernel vector at
    each free column expands that row over them exactly.  A circuit's
    augmented rows have a one-dimensional kernel, so its t-parts have one or
    two free columns: the dependence is the kernel vector at the one, or the
    combination sum(k2) k1 - sum(k1) k2 of the two kernel vectors, whose
    entries sum to 0 as well, made primitive with the first nonzero entry
    positive.
    """
    aug = extended_matrix(matrix)[:-1]
    n, m = len(aug), len(aug[0]) - 1
    _refuse_past(circuit_subsets(n, m), MAX_CIRCUIT_SUBSETS, "circuit search over", "row subsets")
    cols = _bareiss(aug)[0]
    # subtracting extended_matrix's bottom row (0, ..., 0, 1) from every
    # augmented row leaves [[A, 0], [0, 1]]: the extended rank is rank A + 1
    rank_m = sum(c < m for c in cols)
    circuit, t_rank, bound, basis, expansions = None, None, None, None, None
    scenario = "independent"
    if len(cols) < n:
        best_size, best = m + 3, None

        def walk(prefix, later, prev):
            # later: (j, residual of row j against the prefix) for every j after
            # the prefix, each residual nonzero; prev: the pivot of the prefix's
            # last row, 1 at the root
            nonlocal best_size, best
            size = len(prefix) + 2  # of a circuit closed by taking the next row
            for a, (k, piv) in enumerate(later):
                if size >= best_size:
                    return
                c = next(i for i, x in enumerate(piv) if x)
                p = piv[c]
                reduced = []
                for j, v in later[a + 1:]:
                    f = v[c]
                    w = [(p * x - f * y) // prev for x, y in zip(v, piv)]
                    if not any(w):
                        best_size, best = size, (*prefix, k, j)
                        break
                    del w[c]
                    reduced.append((j, w))
                else:
                    if reduced and size + 1 < best_size:
                        walk((*prefix, k), reduced, p)

        walk((), [(j, [row[c] for c in cols]) for j, row in enumerate(aug)], 1)
        r = best_size
        pivots, a = _bareiss([[aug[i][d] for i in best] for d in range(m)])
        basis = tuple(best[c] for c in pivots)
        t_rank = len(basis)
        if t_rank == r - 2:
            scenario = "nondegenerate"
        elif t_rank == r - 1:
            scenario, bound = "degenerate", degenerate_threshold(r)
        else:
            raise InvariantError(f"circuit t-part rank must be r-2 or r-1, got {t_rank} for r={r}")
        kernel = {col: _kernel(pivots, a, col, r) for col in range(r) if col not in pivots}
        expansions = {best[col]: [Fraction(-lam[c], lam[col]) for c in pivots] for col, lam in kernel.items()}
        k1, *k2 = kernel.values()
        lam = [sum(k2[0]) * x - sum(k1) * y for x, y in zip(k1, k2[0])] if k2 else k1
        if sum(lam) or not any(lam):
            raise InvariantError(f"circuit rows {best} have no dependence vector: {lam} must be nonzero and sum to 0")
        g = gcd(*lam) * (1 if next(v for v in lam if v) > 0 else -1)
        circuit = DependentRows(size=r, indices=best, dependence=tuple(v // g for v in lam))
    return Classification(
        matrix=tuple(tuple(row[:m]) for row in aug),
        rank_matrix=rank_m,
        rank_extended=rank_m + 1,
        scenario=scenario,
        circuit=circuit,
        t_part_rank=t_rank,
        exponent_bound=bound,
        basis_indices=basis,
        expansions=expansions,
    )
