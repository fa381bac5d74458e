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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .intervals import InvariantError, rat_str

MAX_ROWS = 20  # brute-force circuit search cap


def extended_matrix(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Rows augmented with a trailing 1, plus the bottom row (0,...,0,1)."""
    rows = [list(map(int, row)) for row in matrix]
    if not rows:
        raise ValueError("need at least one row")
    m = len(rows[0])
    if any(len(r) != m for r in rows):
        raise ValueError("ragged matrix")
    out = [r + [1] for r in rows]
    out.append([0] * m + [1])
    return out


def exact_rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank over the rationals by fraction-free integer elimination.

    Rows are cross-multiplied rather than divided, so all arithmetic stays in
    the integers (entries are scaled copies, which leaves the rank unchanged).
    """
    a = [[int(v) for v in row] for row in matrix]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            if a[i][c] != 0:
                pc, ic = a[r][c], a[i][c]
                a[i] = [x * pc - y * ic for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def _primitive(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    """Scale a rational vector to coprime integers with the first nonzero positive."""
    den = 1
    for v in vec:
        den = lcm(den, Fraction(v).denominator)
    ints = [int(Fraction(v) * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def dependence_vector(vectors: Sequence[Sequence[int]]) -> Optional[Tuple[int, ...]]:
    """A primitive integer lambda with sum lambda_i * v_i = 0, or None if independent."""
    s = len(vectors)
    dim = len(vectors[0])
    # kernel of the matrix whose columns are the vectors
    a = [[Fraction(vectors[i][d]) for i in range(s)] for d in range(dim)]
    pivots = {}
    r = 0
    for c in range(s):
        piv = next((i for i in range(r, dim) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(dim):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                for j in range(c, s):
                    a[i][j] -= f * a[r][j]
        pivots[c] = r
        r += 1
    free = [c for c in range(s) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    lam = [Fraction(0)] * s
    lam[fc] = Fraction(1)
    for c, row in pivots.items():
        lam[c] = -a[row][fc] / a[row][c]
    return _primitive(lam)


def solve_in_span(
    basis: Sequence[Sequence[int]], target: Sequence
) -> Optional[List[Fraction]]:
    """Coefficients alpha with sum alpha_j basis_j = target, or None if unsolvable."""
    s = len(basis)
    dim = len(target)
    a = [[Fraction(basis[j][d]) for j in range(s)] + [Fraction(target[d])] for d in range(dim)]
    pivots = {}
    r = 0
    for c in range(s):
        piv = next((i for i in range(r, dim) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(dim):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                for j in range(c, s + 1):
                    a[i][j] -= f * a[r][j]
        pivots[c] = r
        r += 1
    used = set(pivots.values())
    for i in range(dim):
        if i not in used and a[i][s] != 0:
            return None  # inconsistent: target outside the span
    alpha = [Fraction(0)] * s
    for c, row in pivots.items():
        alpha[c] = a[row][s] / a[row][c]
    return alpha


@dataclass(frozen=True)
class DependentRows:
    size: int
    indices: Tuple[int, ...]  # 0-based row indices
    dependence: Tuple[int, ...]  # primitive, annihilates the augmented rows


def minimal_dependent_rows(
    matrix: Sequence[Sequence[int]],
) -> Optional[DependentRows]:
    """Smallest dependent subset of the augmented rows; lexicographically first
    among ties.  Any m+2 augmented rows are dependent, which caps the search."""
    rows = [list(map(int, row)) + [1] for row in matrix]
    n = len(rows)
    if n > MAX_ROWS:
        raise ValueError(f"brute-force circuit search capped at {MAX_ROWS} rows")
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

    For a circuit, a change of variables is reported: the lexicographically
    first maximal independent t-part subset becomes the new variables, and
    every remaining circuit row's t-part is expanded over it exactly.
    """
    rows = [tuple(map(int, row)) for row in matrix]
    rank_m = exact_rank(rows)
    rank_e = exact_rank(extended_matrix(rows))
    circuit = minimal_dependent_rows(rows)
    if circuit is None:
        return Classification(
            matrix=tuple(rows),
            rank_matrix=rank_m,
            rank_extended=rank_e,
            scenario="independent",
            circuit=None,
            t_part_rank=None,
            exponent_bound=None,
            basis_indices=None,
            expansions=None,
        )
    sub_t = [rows[i] for i in circuit.indices]
    t_rank = exact_rank(sub_t)
    r = circuit.size
    if t_rank == r - 2:
        scenario = "nondegenerate"
        bound = None
    elif t_rank == r - 1:
        scenario = "degenerate"
        bound = Fraction(r, r - 1)
    else:
        raise InvariantError(f"circuit t-part rank must be r-2 or r-1, got {t_rank} for r={r}")
    basis: List[int] = []
    for i in circuit.indices:
        trial = [rows[j] for j in basis] + [rows[i]]
        if exact_rank(trial) == len(trial):
            basis.append(i)
        if len(basis) == t_rank:
            break
    basis_vecs = [rows[j] for j in basis]
    expansions = {}
    for i in circuit.indices:
        if i in basis:
            continue
        alpha = solve_in_span(basis_vecs, rows[i])
        if alpha is None:
            raise InvariantError(f"circuit row {i} is outside the span of its t-part basis")
        expansions[i] = alpha
    return Classification(
        matrix=tuple(rows),
        rank_matrix=rank_m,
        rank_extended=rank_e,
        scenario=scenario,
        circuit=circuit,
        t_part_rank=t_rank,
        exponent_bound=bound,
        basis_indices=tuple(basis),
        expansions=expansions,
    )
