from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import cells
from coordarr.complexes import SimplicialComplex
from coordarr.linalg import (
    BigradedTable,
    CohomologyBlock,
    CheckFailed,
    ExactMatrix,
    compose_is_zero,
    direct_sum_torsion,
    kernel_basis,
    quotient_basis,
    rank_rational,
    smith_normal_form,
    stripe_cohomology,
)
from coordarr import linalg
from coordarr.linalg import _eliminate_units, _working_copy
from reference import (
    betti,
    from_dense,
    full_stripe,
    identity,
    kernel_basis_dense,
    quotient_basis_dense,
    to_dense,
)


def test_snf_diagonal_2_3():
    # gcd 1 and determinant 6 force the chain (1, 6)
    assert smith_normal_form(from_dense([[2, 0], [0, 3]])).diag == (1, 6)


def test_direct_sum_torsion_merges_the_invariant_factors():
    # Z/2 + Z/3 is Z/6, not Z/2 + Z/3 written as a chain
    assert direct_sum_torsion([((2,), 1), ((3,), 1)]) == (6,)
    assert direct_sum_torsion([((4,), 1), ((2,), 1)]) == (2, 4)
    assert direct_sum_torsion([((2, 2), 1), ((3,), 1), ((9,), 1)]) == (6, 18)
    assert direct_sum_torsion([((2,), 1), ((2,), 1)]) == (2, 2)
    # one summand is already a divisibility chain; none is the trivial group
    assert direct_sum_torsion([((2, 6), 1)]) == (2, 6)
    assert direct_sum_torsion([]) == ()


def test_direct_sum_torsion_of_a_million_counted_copies():
    # a million copies of Z/2 next to one Z/3: the fold sees two runs, and
    # one Z/2 joins the Z/3 as Z/6
    assert direct_sum_torsion([((2,), 10**6), ((3,), 1)]) == (2,) * (10**6 - 1) + (6,)


def _torsion_of_the_diagonal(parts: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The torsion of the Smith form of the diagonal matrix of every factor:
    the direct sum by its definition."""
    factors = [d for part in parts for d in part]
    diagonal = ExactMatrix(len(factors), len(factors), {(i, i): d for i, d in enumerate(factors)})
    return smith_normal_form(diagonal).torsion


#: the invariant factors of one summand: a divisibility chain of factors > 1
chains = st.lists(st.integers(2, 12), max_size=3).map(lambda steps: tuple(accumulate(steps, mul)))


@given(st.lists(chains, max_size=8))
@settings(max_examples=150, deadline=None)
def test_direct_sum_torsion_is_the_smith_form_of_the_diagonal(parts):
    assert direct_sum_torsion([(part, 1) for part in parts]) == _torsion_of_the_diagonal(parts)


def test_direct_sum_torsion_of_thousands_of_equal_factors():
    # the shape of the Z/2s meeting in one bidegree of 3·RP², with a few
    # factors that do break divisibility
    parts = [(2,)] * 1500 + [(3,), (4,), (2, 6)]
    assert direct_sum_torsion([(part, 1) for part in parts]) == _torsion_of_the_diagonal(parts) == (2,) * 1501 + (6, 12)
    assert direct_sum_torsion([((2,), 1)] * 3000) == (2,) * 3000


def _torsion_by_prime_exponents(factors: list[int]) -> tuple[int, ...]:
    """The structure theorem directly: split every factor into prime powers,
    sort each prime's exponents, and multiply them back position by
    position from the largest factor down."""
    exponents: dict[int, list[int]] = {}
    for f, count in Counter(factors).items():
        for p in range(2, f + 1):
            e = 0
            while f % p == 0:
                f //= p
                e += 1
            if e:
                exponents.setdefault(p, []).extend([e] * count)
    chain = [1] * len(factors)
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            chain[-1 - i] *= p**e
    return tuple(d for d in chain if d > 1)


@given(st.lists(st.tuples(st.integers(2, 72), st.integers(1, 1500)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_direct_sum_torsion_matches_the_prime_exponents(runs):
    # thousands of copies of a few factors, coprime ones among them
    factors = [f for f, count in runs for _ in range(count)]
    assert direct_sum_torsion([((f,), 1) for f in factors]) == _torsion_by_prime_exponents(factors)


def test_direct_sum_torsion_runs_no_smith_form(monkeypatch):
    monkeypatch.setattr(linalg, "smith_normal_form", lambda m: pytest.fail("ran a Smith form"))
    assert direct_sum_torsion([((2,), 1)] * 3000 + [((3,), 1), ((9,), 1)]) == (2,) * 2998 + (6, 18)


def test_snf_residual_clears_row_and_column():
    # no unit entry: every pivot needs remainders in its row or its column
    assert smith_normal_form(from_dense([[2, 3]])).diag == (1,)
    assert smith_normal_form(from_dense([[2], [3]])).diag == (1,)
    assert smith_normal_form(from_dense([[4, 6], [6, 4]])).diag == (2, 10)
    assert smith_normal_form(from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])).diag == (2, 2, 156)


def test_snf_zero_matrix():
    result = smith_normal_form(ExactMatrix(3, 3))
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
    assert rank_rational(identity(7)) == 7
    assert rank_rational(from_dense([[1, -1], [-1, 1]])) == 1


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
    u = identity(k)
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
    dense = to_dense(m)
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
    return from_dense([[draw(values) for _ in range(cols)] for _ in range(rows)])


def test_determinantal_oracle_examples():
    assert _determinantal_snf(from_dense([[2, 0], [0, 3]])) == (1, 6)
    assert _determinantal_snf(from_dense([[2, 4, 0], [6, 8, 0]])) == (2, 4)
    assert _determinantal_snf(ExactMatrix(2, 3)) == (0, 0)


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
    # the elimination of the unit-free residual must have been exercised
    assert with_residual >= 15


def _columns_of(m: ExactMatrix, cols: list[int]) -> ExactMatrix:
    pos = {c: i for i, c in enumerate(cols)}
    return ExactMatrix(m.rows, len(cols), {
        (r, pos[c]): v for (r, c), v in m.entries.items() if c in pos
    })


@st.composite
def matrices_with_rational_rows(draw):
    """Small integer matrices with non-unit entries; some rows are divided
    by a common denominator, so the rank sees rational input."""
    m = draw(small_int_matrices())
    denominators = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)), min_size=m.rows, max_size=m.rows))
    return ExactMatrix(m.rows, m.cols, {
        (r, c): Fraction(v, denominators[r]) if denominators[r] > 1 else v
        for (r, c), v in m.entries.items()
    })


def _check_pivots(m: ExactMatrix) -> list[int]:
    pivots: list[int] = []
    rank = rank_rational(m, pivots=pivots)
    assert rank == rank_rational(m) == _fraction_rank(m)
    assert len(pivots) == rank
    assert len(set(pivots)) == rank
    assert all(0 <= c < m.cols for c in pivots)
    # the named columns are independent, so they are a column basis
    assert _fraction_rank(_columns_of(m, pivots)) == rank
    return pivots


@given(matrices_with_rational_rows())
@settings(max_examples=150, deadline=None)
def test_rank_pivots_are_a_column_basis(m):
    _check_pivots(m)


def test_rank_pivots_include_the_residual_phase():
    # no unit entry: every pivot comes from the residual's echelon form
    assert len(_check_pivots(from_dense([[2, 4, 6], [6, 3, 9], [4, 8, 12]]))) == 2
    residual_pivots = 0
    for seed in range(20):
        m = _sparse_unit_matrix(seed)
        rows, colindex = _working_copy(m)
        units = _eliminate_units(rows, colindex)
        residual_pivots += len(_check_pivots(m)) - units
    assert residual_pivots > 0


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


@st.composite
def matrices_with_empty_sides(draw):
    """Integer matrices of up to 5 x 5, zero rows or zero columns included."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    return from_dense([[draw(values) for _ in range(cols)] for _ in range(rows)]) if rows else ExactMatrix(0, cols)


@given(matrices_with_empty_sides())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_the_gauss_jordan_one(m):
    assert kernel_basis(m) == kernel_basis_dense(m)


@given(matrices_with_empty_sides(), st.data())
@settings(max_examples=150, deadline=None)
def test_quotient_basis_is_the_gauss_jordan_one(image, data):
    # some vectors are combinations of image columns, so part of them
    # reduces away
    columns = image.columns()
    coeffs = st.integers(-2, 2)
    vectors = []
    for _ in range(data.draw(st.integers(0, 4))):
        vec: dict[int, int] = {}
        for col in columns:
            f = data.draw(coeffs)
            for r, v in col.items():
                vec[r] = vec.get(r, 0) + f * v
        if data.draw(st.booleans()):
            for r in range(image.rows):
                vec[r] = vec.get(r, 0) + data.draw(coeffs)
        vectors.append({r: v for r, v in vec.items() if v})
    assert quotient_basis(vectors, image) == quotient_basis_dense(vectors, image)


def test_quotient_basis_reduces_image_away():
    image = from_dense([[1], [1]])
    vectors = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    reduced = quotient_basis(vectors, image)
    assert len(reduced) == 1  # the first vector is itself in the image


def test_cohomology_block_free():
    blocks = stripe_cohomology([ExactMatrix(4, 0), ExactMatrix(0, 4)], "Z")
    assert blocks == [CohomologyBlock(4)]


def test_cohomology_block_torsion():
    [block] = stripe_cohomology([from_dense([[2]]), ExactMatrix(0, 1)], "Z")
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
    assert stripe_cohomology([d_in, d_out], "Z") == [CohomologyBlock(3)]


def test_cohomology_block_rejects_nonzero_composition():
    d_in = from_dense([[1], [0]])
    d_out = from_dense([[1, 0]])
    with pytest.raises(CheckFailed):
        stripe_cohomology([d_in, d_out], "Z")
    with pytest.raises(ValueError, match="block mismatch"):
        stripe_cohomology([d_in, ExactMatrix(1, 3)], "Q")


def _rp2_stripe(p: int) -> list[ExactMatrix]:
    from coordarr.corpus import projective_plane

    return full_stripe(projective_plane(), p)


def test_stripe_eliminates_each_nonempty_map_once(monkeypatch):
    maps = _rp2_stripe(6)
    nonempty = [m for m in maps if m.entries]
    assert len(nonempty) >= 3
    calls: dict[str, list[ExactMatrix]] = {"snf": [], "rank": []}
    snf, rank = linalg.smith_normal_form, linalg.rank_rational

    def counting_snf(m):
        calls["snf"].append(m)
        return snf(m)

    def counting_rank(m):
        calls["rank"].append(m)
        return rank(m)

    monkeypatch.setattr(linalg, "smith_normal_form", counting_snf)
    monkeypatch.setattr(linalg, "rank_rational", counting_rank)
    over_z = stripe_cohomology(iter(maps), "Z")
    assert calls == {"snf": nonempty, "rank": []}
    assert over_z[3] == CohomologyBlock(0, (2,))  # the Z/2 of RP² at (6, 3)
    calls["snf"].clear()
    over_q = stripe_cohomology(iter(maps), "Q")
    assert calls == {"snf": [], "rank": nonempty}
    assert [b.free_rank for b in over_q] == [b.free_rank for b in over_z]


def test_stripe_flipped_sign_raises():
    maps = _rp2_stripe(6)
    for i, m in enumerate(maps):
        if m.entries and maps[i + 1].entries:
            key = min(m.entries)
            flipped = ExactMatrix(m.rows, m.cols, {**m.entries, key: -m.entries[key]})
            broken = maps[:i] + [flipped] + maps[i + 1 :]
            for coeff in ("Z", "Q"):
                with pytest.raises(CheckFailed):
                    stripe_cohomology(broken, coeff)


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
        product_vanishes = compose_is_zero(from_dense(outer), from_dense(inner))
        assert product_vanishes is zero, (outer, inner)


def test_compose_is_zero_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        compose_is_zero(ExactMatrix(2, 3), ExactMatrix(2, 2))


def test_bigraded_table_helpers():
    t = BigradedTable({(2, 1): CohomologyBlock(1), (6, 3): CohomologyBlock(0, (2,))})
    assert t.ranks() == {(2, 1): 1}
    assert t.torsions() == {(6, 3): (2,)}
    assert betti(t, 3) == 1
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
