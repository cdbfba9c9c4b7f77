from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import cells
from coordarr.complexes import SimplicialComplex
from coordarr.linalg import (
    BigradedTable,
    CohomologyBlock,
    ExactMatrix,
    cohomology_block,
    compose_is_zero,
    kernel_basis,
    quotient_basis,
    rank_rational,
    smith_normal_form,
)
from coordarr.linalg import _eliminate_units, _working_copy


def test_snf_diagonal_2_3():
    # gcd 1 and determinant 6 force the chain (1, 6)
    assert smith_normal_form(ExactMatrix.from_dense([[2, 0], [0, 3]])).diag == (1, 6)


def test_snf_zero_matrix():
    result = smith_normal_form(ExactMatrix.zero(3, 3))
    assert result.diag == (0, 0, 0)
    assert result.rank == 0


def test_snf_cell_boundary_block():
    # boundary (2,1) -> (2,0) for the two-point complex: a 1x2 matrix of rank 1
    K = SimplicialComplex.from_vertex_lists(2, [[1], [2]])
    m = cells.boundary_matrix(K, 2, 1)
    assert (m.rows, m.cols) == (1, 2)
    assert smith_normal_form(m).rank == 1


def test_snf_rejects_rational():
    m = ExactMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        smith_normal_form(m)


def test_rank_identity_and_proportional_rows():
    assert rank_rational(ExactMatrix.identity(7)) == 7
    assert rank_rational(ExactMatrix.from_dense([[1, -1], [-1, 1]])) == 1


def test_rank_rational_entries():
    m = ExactMatrix(2, 2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3), (1, 0): 1, (1, 1): 2})
    assert rank_rational(m) == 1


@st.composite
def small_int_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = draw(st.integers(-4, 4))
            if v:
                entries[(r, c)] = v
    return ExactMatrix(rows, cols, entries)


@given(small_int_matrices())
@settings(max_examples=120, deadline=None)
def test_rank_equals_snf_nonzero_count(m):
    assert rank_rational(m) == smith_normal_form(m).rank


@given(small_int_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_snf_unimodular_invariance(m, rng):
    left = _random_unimodular(m.rows, rng)
    right = _random_unimodular(m.cols, rng)
    assert smith_normal_form(left * m * right).diag == smith_normal_form(m).diag


def _random_unimodular(k: int, rng: random.Random) -> ExactMatrix:
    u = ExactMatrix.identity(k)
    entries = dict(u.entries)
    for _ in range(2 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        for c in range(k):
            v = entries.get((j, c), 0) + q * entries.get((i, c), 0)
            if v:
                entries[(j, c)] = v
            else:
                entries.pop((j, c), None)
    return ExactMatrix(k, k, entries)


@given(small_int_matrices())
@settings(max_examples=60, deadline=None)
def test_snf_divisibility_chain(m):
    diag = smith_normal_form(m).diag
    nonzero = [d for d in diag if d]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert all(d == 0 for d in diag[len(nonzero):])


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, v in enumerate(rows[0])
        if v
    )


def _determinantal_snf(m: ExactMatrix) -> tuple[int, ...]:
    """Invariant factors d_k / d_(k-1), where d_k is the gcd of all k x k
    minors: the Smith form without any elimination."""
    dense = m.to_dense()
    size = min(m.rows, m.cols)
    divisors = [1]
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, _det([[dense[r][c] for c in cols] for r in rows]))
        if not g:
            break
        divisors.append(g)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return tuple(factors + [0] * (size - len(factors)))


@st.composite
def tiny_int_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    values = st.integers(-6, 6)
    return ExactMatrix.from_dense([[draw(values) for _ in range(cols)] for _ in range(rows)])


def test_determinantal_oracle_examples():
    assert _determinantal_snf(ExactMatrix.from_dense([[2, 0], [0, 3]])) == (1, 6)
    assert _determinantal_snf(ExactMatrix.from_dense([[2, 4, 0], [6, 8, 0]])) == (2, 4)
    assert _determinantal_snf(ExactMatrix.zero(2, 3)) == (0, 0)


@given(tiny_int_matrices())
@settings(max_examples=150, deadline=None)
def test_snf_matches_determinantal_divisors(m):
    assert smith_normal_form(m).diag == _determinantal_snf(m)


def _fraction_rank(m: ExactMatrix) -> int:
    """Rank over Q by sparse Gaussian elimination in ``Fraction``s, column by
    column, pivoting on the first row that holds the column."""
    work: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in m.entries.items():
        work.setdefault(r, {})[c] = Fraction(v)
    rank = 0
    for c in range(m.cols):
        pr = min((r for r, row in work.items() if c in row), default=None)
        if pr is None:
            continue
        prow = work.pop(pr)
        rank += 1
        for row in work.values():
            f = row.get(c)
            if f:
                f /= prow[c]
                for k, v in prow.items():
                    nv = row.get(k, 0) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
    return rank


def _sparse_unit_matrix(seed: int) -> ExactMatrix:
    """Square, 2-3 entries ±1 per row, with a tenth of the entries turned
    into ±2/±3 so that unit pivots run out before the rank is reached."""
    rng = random.Random(seed)
    size = rng.randint(70, 150)
    entries = {}
    for r in range(size):
        for c in rng.sample(range(size), rng.randint(2, 3)):
            entries[(r, c)] = rng.choice((1, -1))
    for key in rng.sample(sorted(entries), size // 10):
        entries[key] = rng.choice((2, -2, 3, -3))
    return ExactMatrix(size, size, entries)


def test_rank_matches_fraction_gauss_past_unit_pivots():
    with_residual = 0
    for seed in range(20):
        m = _sparse_unit_matrix(seed)
        rows, colindex = _working_copy(m)
        _eliminate_units(rows, colindex)
        with_residual += any(rows.values())
        rank = _fraction_rank(m)
        assert rank_rational(m) == rank, seed
        assert smith_normal_form(m).rank == rank, seed
        # rescaling rows by nonzero rationals keeps the rank
        rng = random.Random(seed)
        scales = [Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7))) for _ in range(m.rows)]
        scaled = ExactMatrix(m.rows, m.cols, {(r, c): v * scales[r] for (r, c), v in m.entries.items()})
        assert rank_rational(scaled) == rank, seed
    # the residual elimination (phase 2) must have been exercised
    assert with_residual >= 15


@given(small_int_matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_are_in_kernel(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank_rational(m)
    for vec in basis:
        image = {}
        for (r, c), v in m.entries.items():
            if c in vec:
                image[r] = image.get(r, 0) + v * vec[c]
        assert all(x == 0 for x in image.values())


def test_quotient_basis_reduces_image_away():
    image = ExactMatrix.from_dense([[1], [1]])
    vectors = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    reduced = quotient_basis(vectors, image)
    assert len(reduced) == 1  # the first vector is itself in the image


def test_cohomology_block_free():
    block = cohomology_block(ExactMatrix.zero(4, 0), ExactMatrix.zero(0, 4), "Z")
    assert block == CohomologyBlock(4)


def test_cohomology_block_torsion():
    block = cohomology_block(ExactMatrix.from_dense([[2]]), ExactMatrix.zero(0, 1), "Z")
    assert block == CohomologyBlock(0, (2,))
    assert str(block) == "Z/2"


def test_cohomology_block_from_cellular_oracle():
    # algebra block (p,q)=(2,1) for three disjoint points has free rank 3;
    # the independent count: six monomials, the differential out is zero,
    # the differential in has rank 3
    from coordarr import koszul

    K = SimplicialComplex.from_vertex_lists(3, [[1], [2], [3]])
    d_in = koszul.differential_matrix(K, 2, 0)
    d_out = koszul.differential_matrix(K, 2, 1)
    assert cohomology_block(d_in, d_out, "Z") == CohomologyBlock(3)


def test_cohomology_block_rejects_nonzero_composition():
    d_in = ExactMatrix.from_dense([[1], [0]])
    d_out = ExactMatrix.from_dense([[1, 0]])
    with pytest.raises(ValueError):
        cohomology_block(d_in, d_out, "Z")


def test_compose_is_zero_exact_products():
    cases = [
        ([[1, 1]], [[1], [-1]], True),
        ([[1, 1]], [[Fraction(1, 2)], [Fraction(-1, 2)]], True),
        ([[1, 1]], [[1], [1]], False),
        # 2**40 * 2**40 = 2**80 wraps to 0 in 64-bit arithmetic
        ([[2**40, 0], [0, 1]], [[2**40], [0]], False),
        # entries past 64 bits, cancelling exactly and not at all
        ([[2**70, 2**70]], [[1], [-1]], True),
        ([[2**70, 1]], [[2**70], [1]], False),
    ]
    for outer, inner, zero in cases:
        product_vanishes = compose_is_zero(ExactMatrix.from_dense(outer), ExactMatrix.from_dense(inner))
        assert product_vanishes is zero, (outer, inner)


def test_compose_is_zero_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        compose_is_zero(ExactMatrix.zero(2, 3), ExactMatrix.zero(2, 2))


def test_bigraded_table_helpers():
    t = BigradedTable({(2, 1): CohomologyBlock(1), (6, 3): CohomologyBlock(0, (2,))})
    assert t.ranks() == {(2, 1): 1}
    assert t.torsions() == {(6, 3): (2,)}
    assert t.betti(3) == 1
    assert t.to_json()["h"]["6,3"] == {"rank": 0, "torsion": [2]}


def test_euler_characteristic_per_stripe():
    # alternating sums of block dimensions match alternating sums of ranks
    from coordarr import koszul

    K = SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3]])
    table = koszul.cohomology(K, "Q")
    for p in range(K.n + 1):
        chain_sum = sum((-1) ** q * len(koszul.basis(K, p, q)) for q in range(p + 1))
        coh_sum = sum((-1) ** q * table.free(p, q) for q in range(p + 1))
        assert chain_sum == coh_sum
