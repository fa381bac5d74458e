"""Linear-forms dependence structure against a rational elimination oracle."""

import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from circuit_reference import brute_force_dependent_rows
from divlab import linforms
from divlab.linforms import (
    MAX_CIRCUIT_SUBSETS,
    circuit_subsets,
    classify,
    dependence_vector,
    exact_rank,
    extended_matrix,
    minimal_dependent_rows,
    solve_in_span,
)


# --- oracle: plain Fraction Gaussian elimination -----------------------------


def oracle_rank(matrix):
    a = [[F(v) for v in row] for row in matrix]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            f = a[i][c] / a[r][c]
            for j in range(c, cols):
                a[i][j] -= f * a[r][j]
        r += 1
    return r


def oracle_rref(matrix, ncols):
    """(pivot columns among the first ncols, reduced rows) by Fraction Gauss-Jordan."""
    a = [[F(v) for v in row] for row in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, a


def oracle_dependence(vectors):
    """Kernel vector at the first free column (other free columns 0), primitive."""
    s = len(vectors)
    pivots, a = oracle_rref([[v[d] for v in vectors] for d in range(len(vectors[0]))], s)
    free = [c for c in range(s) if c not in pivots]
    if not free:
        return None
    lam = [F(0)] * s
    lam[free[0]] = F(1)
    for row, c in zip(a, pivots):
        lam[c] = -row[free[0]]
    den = lcm(*(v.denominator for v in lam))
    ints = [int(v * den) for v in lam]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def oracle_solve(basis, target):
    """Span coefficients with the free ones 0, or None outside the span."""
    s = len(basis)
    pivots, a = oracle_rref([[b[d] for b in basis] + [t] for d, t in enumerate(target)], s)
    if any(row[s] != 0 for row in a[len(pivots):]):
        return None
    alpha = [F(0)] * s
    for row, c in zip(a, pivots):
        alpha[c] = row[s]
    return alpha


def rnd_matrix(rnd, max_rows=6, max_cols=5, span=5):
    n = rnd.randint(1, max_rows)
    m = rnd.randint(1, max_cols)
    return [[rnd.randint(-span, span) for _ in range(m)] for _ in range(n)]


# --- rank and witnesses -------------------------------------------------------


def test_exact_rank_matches_oracle():
    rnd = random.Random(1729)
    for _ in range(150):
        mat = rnd_matrix(rnd)
        assert exact_rank(mat) == oracle_rank(mat)


def rnd_degenerate_matrix(rnd):
    """Wide or tall, with planted dependent rows and zeroed columns."""
    n, m = rnd.randint(1, 8), rnd.randint(1, 8)
    span = rnd.choice((1, 3, 50))
    mat = [[rnd.randint(-span, span) for _ in range(m)] for _ in range(n)]
    for _ in range(rnd.randint(0, 3)):
        i, j = rnd.randrange(len(mat)), rnd.randrange(len(mat))
        combo = [rnd.randint(-2, 2) * x + rnd.randint(-2, 2) * y for x, y in zip(mat[i], mat[j])]
        mat.insert(rnd.randrange(len(mat) + 1), combo)
    for z in rnd.sample(range(m), rnd.randint(0, m)):
        for row in mat:
            row[z] = 0
    return mat


def test_elimination_matches_fraction_oracle():
    rnd = random.Random(1968)
    shapes = set()
    for _ in range(600):
        mat = rnd_degenerate_matrix(rnd)
        n, m = len(mat), len(mat[0])
        shapes.add((n < m, n > m))
        rank = len(oracle_rref(mat, m)[0])
        assert exact_rank(mat) == rank
        assert dependence_vector(mat) == oracle_dependence(mat)
        if n >= 2:
            basis, target = mat[:-1], mat[-1]
            assert solve_in_span(basis, target) == oracle_solve(basis, target)
            other = [rnd.randint(-3, 3) for _ in range(m)]
            assert solve_in_span(basis, other) == oracle_solve(basis, other)
        assert solve_in_span([], [0] * m) == []
    assert shapes == {(True, False), (False, True), (False, False)}  # wide, tall, square
    with pytest.raises(TypeError):
        exact_rank([[F(1, 2), 1]])


def test_exact_rank_frozen_24x24():
    # 23 random rows plus one planted combination: rank 23, a one-dimensional kernel
    rnd = random.Random(2324)
    rows = [[rnd.randint(-3, 3) for _ in range(24)] for _ in range(23)]
    rows.insert(17, [a + b - c for a, b, c in zip(rows[0], rows[5], rows[11])])
    assert exact_rank(rows) == 23
    lam = [0] * 24
    lam[0], lam[5], lam[11], lam[17] = 1, 1, -1, -1
    assert dependence_vector(rows) == tuple(lam)


def test_extended_matrix_shape():
    ext = extended_matrix([[1, 2], [3, 4]])
    assert ext == [[1, 2, 1], [3, 4, 1], [0, 0, 1]]
    with pytest.raises(ValueError):
        extended_matrix([])
    with pytest.raises(ValueError):
        extended_matrix([[1], [1, 2]])


def test_classify_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="^need at least one row$"):
        classify([])


def test_dependence_vector_annihilates():
    rnd = random.Random(31)
    hits = 0
    while hits < 60:
        vecs = [
            [rnd.randint(-3, 3) for _ in range(rnd.randint(1, 3))]
            for _ in range(rnd.randint(2, 5))
        ]
        dims = {len(v) for v in vecs}
        if len(dims) != 1:
            continue
        lam = dependence_vector(vecs)
        if lam is None:
            assert oracle_rank(vecs) == len(vecs)
            continue
        hits += 1
        dim = dims.pop()
        combo = [sum(l * v[d] for l, v in zip(lam, vecs)) for d in range(dim)]
        assert all(c == 0 for c in combo)
        # primitive integers, first nonzero positive
        from math import gcd
        g = 0
        for v in lam:
            g = gcd(g, v)
        assert g == 1
        assert next(v for v in lam if v != 0) > 0


def test_solve_in_span():
    basis = [[1, 0, 1], [0, 1, 1]]
    alpha = solve_in_span(basis, [2, 3, 5])
    assert alpha == [F(2), F(3)]
    assert solve_in_span(basis, [0, 0, 1]) is None


# --- circuit search -----------------------------------------------------------


def test_minimal_dependent_rows_is_minimal_and_lex_first():
    rnd = random.Random(97)
    for _ in range(100):
        mat = rnd_matrix(rnd, max_rows=6, max_cols=3, span=3)
        dep = minimal_dependent_rows(mat)
        aug = [row + [1] for row in mat]
        sizes = {}
        for size in range(2, len(aug) + 1):
            for combo in itertools.combinations(range(len(aug)), size):
                if oracle_rank([aug[i] for i in combo]) < size:
                    sizes.setdefault(size, combo)
            if size in sizes:
                break
        if dep is None:
            assert not sizes
            continue
        assert dep.size == min(sizes)
        assert dep.indices == sizes[dep.size]  # lexicographically first
        combo = [
            sum(l * v for l, v in zip(dep.dependence, col))
            for col in zip(*(aug[i] for i in dep.indices))
        ]
        assert all(c == 0 for c in combo)


def test_empty_and_zero_column_matrices():
    # no rows, no circuit; rows of no columns augment to (1), so any two are a
    # circuit and one alone is independent
    assert minimal_dependent_rows([]) is None
    assert classify([[], []]).to_json() == {
        "matrix": [[], []], "rank_matrix": 0, "rank_extended": 1, "scenario": "nondegenerate",
        "r": 2, "circuit_rows": [0, 1], "dependence": [1, -1], "t_part_rank": 0,
        "basis_rows": [], "expansions": {"0": [], "1": []},
    }
    assert classify([[]]).to_json() == {
        "matrix": [[]], "rank_matrix": 0, "rank_extended": 1, "scenario": "independent",
    }


# --- classification -----------------------------------------------------------


def test_classify_fixtures():
    c = classify([[1], [2], [3]])
    assert c.scenario == "nondegenerate"
    assert c.circuit.size == 3
    assert c.circuit.dependence == (1, -2, 1)
    assert c.t_part_rank == 1
    assert c.exponent_bound is None

    c = classify([[2, 0], [0, 2], [1, 1]])
    assert c.scenario == "degenerate"
    assert c.circuit.size == 3
    assert c.circuit.dependence == (1, 1, -2)
    assert c.t_part_rank == 2
    assert c.exponent_bound == F(3, 2)

    assert classify([[1], [2]]).scenario == "independent"
    assert classify([[1, 0], [0, 1], [1, 1]]).scenario == "independent"


def test_classify_cube_rows_m3():
    rows = sorted(itertools.product((0, 1), repeat=3))[1:]  # nonzero 0/1 vectors
    c = classify(rows)
    assert c.scenario == "degenerate"
    assert c.circuit.size == 4
    assert c.circuit.indices == (0, 1, 4, 5)
    assert c.circuit.dependence == (1, -1, -1, 1)
    assert c.t_part_rank == 3
    assert c.exponent_bound == F(4, 3)
    assert c.basis_indices == (0, 1, 4)
    # row 5 = -row0 + row1 + row4 exactly
    assert c.expansions == {5: [F(-1), F(1), F(1)]}


def test_classify_expansions_reproduce_rows():
    rnd = random.Random(555)
    for _ in range(100):
        mat = rnd_matrix(rnd, max_rows=6, max_cols=3, span=3)
        c = classify(mat)
        assert c.rank_matrix == oracle_rank(mat)
        assert c.rank_extended == oracle_rank(extended_matrix(mat))
        if c.circuit is None:
            assert c.scenario == "independent"
            continue
        assert c.t_part_rank in (c.circuit.size - 2, c.circuit.size - 1)
        assert c.scenario == (
            "nondegenerate" if c.t_part_rank == c.circuit.size - 2 else "degenerate"
        )
        for i, coeffs in c.expansions.items():
            recon = [
                sum(a * mat[j][d] for a, j in zip(coeffs, c.basis_indices))
                for d in range(len(mat[0]))
            ]
            assert recon == [F(v) for v in mat[i]]


def test_classify_json():
    data = classify([[2, 0], [0, 2], [1, 1]]).to_json()
    assert data["scenario"] == "degenerate"
    assert data["exponent_bound"] == "3/2"
    assert data["dependence"] == [1, 1, -2]
    assert data["rank_extended"] == 3
    indep = classify([[1], [2]]).to_json()
    assert "r" not in indep and "exponent_bound" not in indep


def test_classify_json_frozen_digest():
    # sha256 of the JSON of 150 seeded classifications, as the Fraction
    # Gauss-Jordan elimination produced them
    rnd = random.Random(4104)
    h = hashlib.sha256()
    scenarios = set()
    for _ in range(150):
        n, m = rnd.randint(2, 10), rnd.randint(1, 5)
        mat = [[rnd.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        data = classify(mat).to_json()
        scenarios.add(data["scenario"])
        h.update(json.dumps(data, sort_keys=True).encode())
    assert scenarios == {"independent", "nondegenerate", "degenerate"}
    assert h.hexdigest() == "1aa15299ccc35f54a27ea021674b3bd21f40562708a6d2f0edc143c6b32b8a12"


def test_circuit_walk_matches_brute_force_search():
    rnd = random.Random(1997)
    sizes = set()
    for _ in range(500):
        n, m = rnd.randint(1, 12), rnd.randint(1, 6)
        mat = [[rnd.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        dep = minimal_dependent_rows(mat)
        assert dep == brute_force_dependent_rows(mat), mat
        sizes.add(None if dep is None else dep.size)
        # classify's extended rank: [[A, 1], [0, 1]] reduces to [[A, 0], [0, 1]]
        assert exact_rank(extended_matrix(mat)) == exact_rank(mat) + 1, mat
    assert None in sizes and {2, 3, 4, 5, 6, 7} <= sizes


def test_circuit_walk_on_wide_rows_matches_brute_force_search():
    # more columns than rows, so the walk keeps only the few pivot columns;
    # planted rows are copies, affine combinations (coefficients summing to 1,
    # an augmented dependence) or multiples (a t-part dependence only)
    rnd = random.Random(4040)
    sizes = set()
    for _ in range(200):
        mat = [[rnd.randint(-3, 3) for _ in range(rnd.randint(10, 40))]]
        mat += [[rnd.randint(-3, 3) for _ in mat[0]] for _ in range(rnd.randint(0, 6))]
        for _ in range(rnd.randint(0, 10 - len(mat))):
            picked = rnd.sample(mat, min(len(mat), rnd.randint(1, 3)))
            coeffs = [rnd.randint(-2, 2) for _ in picked[1:]]
            coeffs.insert(0, rnd.choice([1 - sum(coeffs), 2]))
            mat.append([sum(c * row[d] for c, row in zip(coeffs, picked)) for d in range(len(mat[0]))])
        rnd.shuffle(mat)
        assert len(mat[0]) + 1 > len(mat)
        dep = minimal_dependent_rows(mat)
        assert dep == brute_force_dependent_rows(mat), mat
        sizes.add(None if dep is None else dep.size)
    assert {None, 2, 3, 4} <= sizes


def test_circuit_walk_on_planted_deep_circuits_matches_brute_force_search():
    # entries up to 10^6 and one planted affine dependency of 3 to 6 rows,
    # below the m + 2 rows every set reaches: the walk goes down to prefixes
    # of up to 4 rows, divides by pivots of many digits on each level and
    # backtracks over prefixes that close nothing, so a wrong pivot that does
    # not divide a residual exactly misses the planted circuit or closes a
    # false one
    rnd = random.Random(6061)
    sizes = set()
    for _ in range(60):
        m = rnd.randint(3, 6)
        s = rnd.randint(3, min(6, m + 1))
        mat = [[rnd.randint(-10**6, 10**6) for _ in range(m)] for _ in range(rnd.randint(6, 14) - 1)]
        picked = rnd.sample(mat, s - 1)
        coeffs = [rnd.choice([-3, -2, -1, 1, 2, 3]) for _ in picked[1:]]
        coeffs.insert(0, 1 - sum(coeffs))
        mat.append([sum(c * row[d] for c, row in zip(coeffs, picked)) for d in range(m)])
        rnd.shuffle(mat)
        dep = minimal_dependent_rows(mat)
        assert dep == brute_force_dependent_rows(mat), mat
        sizes.add(dep.size)
    assert {3, 4, 5, 6} <= sizes


def test_circuit_walk_past_twenty_rows_matches_brute_force_search():
    # only the subset estimate bounds the walk; generic large entries have no
    # circuit below m + 2 rows, the size every walk is sure to close
    rnd = random.Random(2140)
    sizes = set()
    for trial in range(24):
        n, m = rnd.randint(21, 40), rnd.randint(0, 2)
        bound = 10**12 if trial % 2 else 3
        mat = [[rnd.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        dep = minimal_dependent_rows(mat)
        assert dep == brute_force_dependent_rows(mat), mat
        assert dep.size == m + 2 or not trial % 2, mat
        sizes.add(dep.size)
    assert sizes == {2, 3, 4}


@pytest.mark.parametrize("mat", [
    [[1, 2], [3, -1], [1, 2], [0, 1]],  # a repeated row
    [[2, 0, 1], [-1, 0, 3], [1, 0, 1], [3, 0, -2]],  # a zero column
    [[0, 0], [1, 2], [0, 0], [2, 1]],  # all-zero t-parts, twice
    [[0, 0], [1, -1], [2, 3]],  # one all-zero t-part
    [[2, -1, 3]] * 5,  # all rows equal
    [[1, 2, 3]],  # one row
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],  # no circuit
    [[1], [2], [3]],  # the paper's x + t, x + 2t, x + 3t
    sorted(itertools.product((0, 1), repeat=3))[1:],  # cube rows, m = 3
])
def test_circuit_walk_matches_brute_force_on_structured_rows(mat):
    assert minimal_dependent_rows(mat) == brute_force_dependent_rows(mat)


def test_circuit_search_refuses_past_its_subset_estimate(monkeypatch):
    assert circuit_subsets(20, 10) == 910_575 <= MAX_CIRCUIT_SUBSETS
    assert circuit_subsets(12, 6) == 3_784  # the largest a seeded benchmark request reaches
    assert circuit_subsets(3, 1) == 4 and circuit_subsets(1, 5) == 0
    rows = [[i, i * i, 1] for i in range(6)]
    assert circuit_subsets(6, 3) == 56
    monkeypatch.setattr(linforms, "MAX_CIRCUIT_SUBSETS", 56)
    assert minimal_dependent_rows(rows) is not None
    monkeypatch.setattr(linforms, "MAX_CIRCUIT_SUBSETS", 55)
    with pytest.raises(ValueError, match="circuit search over 56 row subsets exceeds the cap of 55"):
        minimal_dependent_rows(rows)


@pytest.mark.parametrize("mat", [[[1], [2, 3]], [[1, 2], [3]], [[1, 2], [], [3, 4]]])
def test_ragged_matrices_are_refused(mat):
    with pytest.raises(ValueError, match="ragged matrix"):
        exact_rank(mat)
    with pytest.raises(ValueError, match="ragged matrix"):
        classify(mat)
