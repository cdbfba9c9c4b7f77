from __future__ import annotations

import ast
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb
from pathlib import Path

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import cech, cells, koszul
from coordarr.complexes import SimplicialComplex, elements, face_key, intersection, mask_of
from coordarr.corpus import all_complexes, projective_plane, standard_corpus
from coordarr.linalg import compose_is_zero, rank_rational
from coordarr.resolvents import build_resolvent, resolvent_pairing
from reference import (
    betti,
    cech_matrix,
    cochain_coboundary,
    disjoint_points,
    face_cover_table,
    filtration_ranks_direct,
    full_simplex,
    full_pullback,
    homology_table,
    log_basis,
    representative_cocycle,
    simplex_boundary,
    torus_complex,
)
from test_koszul import disjoint_unions_with_ghosts
from test_metamorphic import complexes


def edge_boundary():
    return SimplicialComplex.from_vertex_lists(2, [[1], [2]])


def test_log_basis_admissibility():
    K = edge_boundary()
    basis = log_basis(K, 2, 1, K.faces_sorted)
    pairs = {(tup, iset) for tup, iset in basis}
    assert ((mask_of([1]), mask_of([2])), mask_of([1, 2])) in pairs
    # the empty face admits every index set
    singles = log_basis(K, 2, 0, K.faces_sorted)
    assert ((0,), mask_of([1, 2])) in singles
    # a non-disjoint index set is not admissible on its own face
    full = full_simplex(2)
    assert ((mask_of([1, 2]),), mask_of([1, 2])) not in set(log_basis(full, 2, 0, full.faces_sorted))


def test_constant_zero_form_cochain_is_closed():
    # the alternating cochain assigning the same form to every singleton has
    # a coboundary built from differences, which vanish
    K = torus_complex(2)
    w = cech.LogCochain(2, 0, {(0,): {mask_of([1, 2]): 1}})
    assert cochain_coboundary(K, w).values == {}


def test_cech_differential_squares_to_zero():
    K = SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3], [1, 3]])
    for cover in (K.faces_sorted, K.facets):
        for p in range(K.n + 1):
            for t in range(len(K.faces_sorted)):
                d1 = cech_matrix(K, p, t, cover)
                d2 = cech_matrix(K, p, t + 1, cover)
                assert compose_is_zero(d2, d1), (cover, p, t)


def test_edge_boundary_cocycle_closed_and_nonexact_facets():
    # on the facet cover the single-tuple assignment is already closed
    K = edge_boundary()
    d = cech_matrix(K, 2, 1, K.facets)
    assert d.cols == 1 and d.is_zero()
    below = cech_matrix(K, 2, 0, K.facets)
    assert below.rows == 1 and below.is_zero()  # no admissible singletons


def test_cohomology_tables_match_other_models():
    for K in (edge_boundary(), simplex_boundary(3), disjoint_points(3), full_simplex(3)):
        table = cech.cohomology(K)
        assert table.ranks() == koszul.cohomology(K, "Q").ranks()


def test_face_and_facet_cover_tables_agree_small():
    complexes = all_complexes(3) + [edge_boundary(), simplex_boundary(3)]
    for K in complexes:
        assert face_cover_table(K).ranks() == cech.cohomology(K).ranks()


def _x_sets(K, indices):
    """X_I for every index set I of the cover with the given indices, with
    the index sets grouped by size."""
    stars = cech._stars(K, indices)
    return [[(iset, cech._x_set(cech._star_family(stars, iset))) for iset in K.k_subsets(p)] for p in range(K.n + 1)]


def _reference_ranks(K, indices=None):
    """The table without clearing: every component dimension is
    dim - rank(delta_q) - rank(delta_(q-1)), each coboundary eliminated in
    full, for every Čech degree q of the cover (the facet cover unless
    other indices are given)."""
    indices = K.facets if indices is None else indices
    m = len(indices)
    totals: dict = {}
    for p, sets in enumerate(_x_sets(K, indices)):
        for _, X in sets:
            # ranks[q + 1] = rank of delta_q, for q = -1, ..., m - 1
            ranks = [rank_rational(cech._block(m, X, q)) for q in range(-1, m)]
            for q in range(m):
                dim = len(cech._admissible(m, X, q + 1)) - ranks[q + 1] - ranks[q]
                if dim:
                    totals[(p, q)] = totals.get((p, q), 0) + dim
    return dict(sorted(totals.items()))


def _cycle(n):
    return SimplicialComplex.from_vertex_lists(n, [[i, i % n + 1] for i in range(1, n + 1)])


def test_clearing_equals_the_reference_on_the_corpus():
    for K in standard_corpus():
        assert cech.cohomology(K).ranks() == _reference_ranks(K), K


SPHERES_CYCLES_RP2 = pytest.mark.parametrize(
    "K",
    [simplex_boundary(n) for n in range(3, 9)] + [_cycle(8), _cycle(9), projective_plane()],
    ids=[f"sphere{n}" for n in range(3, 9)] + ["C8", "C9", "rp2"],
)


@SPHERES_CYCLES_RP2
def test_clearing_equals_the_reference_on_spheres_cycles_and_rp2(K):
    assert cech.cohomology(K).ranks() == _reference_ranks(K)


def _assert_sides_agree(K, indices):
    """Both routes give the same component dimensions for every index set
    of the cover with the given indices: the admissible tuples and the
    subcomplex X_I built from the stars."""
    m = len(indices)
    for sets in _x_sets(K, indices):
        for iset, X in sets:
            assert cech._x_dimensions(m, X) == cech._admissible_dimensions(m, X), (K, iset)


def test_both_sides_agree_on_the_corpus():
    for K in standard_corpus():
        _assert_sides_agree(K, K.facets)


@SPHERES_CYCLES_RP2
def test_both_sides_agree_on_spheres_cycles_and_rp2(K):
    _assert_sides_agree(K, K.facets)


def test_both_sides_agree_on_the_face_cover():
    for K in all_complexes(3):
        _assert_sides_agree(K, K.faces_sorted)


def _sphere_index_size(m, X):
    """|I| for the X_I of an index set on the boundary of the simplex: the
    stars of I are the complements of single positions, so X_I holds the
    m - 1 masks of exactly |I| of them."""
    full = (1 << m) - 1
    return sum((full ^ 1 << j) in X for j in range(m))


def test_the_side_rule_keeps_the_admissible_side_on_sphere_index_sets_of_two_or_more(monkeypatch):
    # on the boundary of the simplex |X_I| grows past half the tuples once I
    # has two vertices; a single vertex or none takes the star side.  The
    # index sets of one size are one class up to relabelling the facet
    # positions, so each size is eliminated once
    K = simplex_boundary(8)
    taken: list = []
    for side, name in (("admissible", "_admissible_dimensions"), ("x", "_x_dimensions")):
        original = getattr(cech, name)
        monkeypatch.setattr(
            cech, name, lambda m, X, _o=original, _side=side: taken.append((_side, _sphere_index_size(m, X))) or _o(m, X)
        )
    assert cech.cohomology(K).ranks() == koszul.cohomology(K, "Q").ranks()
    assert sorted(taken) == [("admissible", card) for card in range(2, 9)] + [("x", 0), ("x", 1)]


@pytest.mark.parametrize("n", range(3, 13))
def test_the_sphere_eliminates_one_index_set_per_cardinality(n, monkeypatch):
    # C^n minus the origin retracts to S^(2n-1): h(0,0) = h(n,n-1) = 1.  The
    # stars of I on the n facets of the boundary of the simplex are the
    # complements of single positions, one per vertex of I, so every I of
    # one size has the same family up to a permutation of the positions
    sizes: list[int] = []
    for name in ("_admissible_dimensions", "_x_dimensions"):
        original = getattr(cech, name)
        monkeypatch.setattr(cech, name, lambda m, X, _o=original: sizes.append(_sphere_index_size(m, X)) or _o(m, X))
    assert cech.cohomology(simplex_boundary(n)).ranks() == {(0, 0): 1, (n, n - 1): 1}
    assert sorted(sizes) == list(range(n + 1))


@pytest.mark.parametrize(
    ("K", "classes"),
    [(simplex_boundary(n), n + 1) for n in (3, 6, 9)] + [(projective_plane(), 18), (_cycle(8), 103)],
    ids=["sphere3", "sphere6", "sphere9", "rp2", "C8"],
)
def test_the_cache_holds_one_entry_per_class(K, classes):
    # one key per class of star families up to a permutation of the facet
    # positions, and nothing else
    families: cech.Families = {}
    cech.cohomology(K, families)
    assert len(families) == classes


def test_clearing_equals_the_reference_on_the_face_cover():
    for K in all_complexes(3):
        assert face_cover_table(K).ranks() == _reference_ranks(K, K.faces_sorted), K



def _assert_blocks_match_the_reference(K, indices):
    """Every component block ``_block`` is (-1)^p times the rows and
    columns of the whole (p, t) reference matrix that carry its index set,
    in the same order."""
    x_sets = _x_sets(K, indices)
    for p in range(K.n + 1):
        sign = -1 if p % 2 else 1
        for t in range(len(indices)):
            full = cech_matrix(K, p, t, indices)
            src, dst = log_basis(K, p, t, indices), log_basis(K, p, t + 1, indices)
            # the position of each basis element among those of its index set
            within: list[list[int]] = []
            for basis in (src, dst):
                seen: Counter = Counter()
                within.append([])
                for _, iset in basis:
                    within[-1].append(seen[iset])
                    seen[iset] += 1
            expected: dict = {iset: {} for iset in K.k_subsets(p)}
            for (r, c), v in full.entries.items():
                assert dst[r][1] == src[c][1]
                expected[dst[r][1]][(within[1][r], within[0][c])] = sign * v
            for iset, X in x_sets[p]:
                entries = expected[iset]
                block = cech._block(len(indices), X, t)
                shape = (sum(I == iset for _, I in dst), sum(I == iset for _, I in src))
                assert (block.rows, block.cols) == shape, (K, p, t, iset)
                assert block.entries == entries, (K, p, t, iset)


@pytest.mark.parametrize(
    "K", [projective_plane(), _cycle(8), simplex_boundary(5)], ids=["rp2", "C8", "sphere5"]
)
def test_blocks_match_the_reference_matrix_on_the_facet_cover(K):
    _assert_blocks_match_the_reference(K, K.facets)


def test_blocks_match_the_reference_matrix_on_the_face_cover():
    for K in all_complexes(3):
        _assert_blocks_match_the_reference(K, K.faces_sorted)


def test_the_oracle_imports_only_complexes_and_linalg():
    # the oracle must never read the algebra or the cell model; importing
    # the package loads every model, so read the module's own imports
    used = set()
    for node in ast.walk(ast.parse(Path(cech.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            used.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coordarr":
            parts = node.module.split(".")
            used.update(parts[1:2] or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "coordarr":
                    used.add(parts[1] if len(parts) > 1 else "coordarr")
    assert used == {"complexes", "linalg"}

@st.composite
def small_complexes(draw) -> SimplicialComplex:
    """Random complexes on at most 6 vertices, ghost vertices allowed."""
    n = draw(st.integers(1, 6))
    facets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(n, facets or [0])


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_clearing_equals_the_reference_on_random_complexes(K):
    assert cech.cohomology(K).ranks() == _reference_ranks(K)


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_both_sides_agree_on_random_complexes(K):
    _assert_sides_agree(K, K.facets)


def _rp2_twice():
    facets = [list(elements(f)) for f in projective_plane().facets]
    return SimplicialComplex.from_vertex_lists(12, facets + [[v + 6 for v in f] for f in facets])


def test_rp2_twice_matches_the_summand_engine_without_the_whole_cover(monkeypatch):
    # 20 facets: the admissible side would enumerate 2^20 - 1 masks, the
    # star side holds at most 12 * 31 simplices per index set
    K = _rp2_twice()
    calls: Counter = Counter()
    for name in ("k_subsets", "_admissible"):
        original = getattr(cech, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cech, name, counted)
    assert cech.cohomology(K).ranks() == koszul.cohomology(K, "Q").ranks()
    assert calls == Counter()


def test_cycles_match_the_closed_form():
    # h(0,0) = h(n,2) = 1, and h(p,1) counts, over the p-subsets of the
    # cycle that form c >= 2 arcs, the c - 1 extra components; a route that
    # shares nothing with the summand engine
    for n in range(8, 13):
        expected = {(0, 0): 1, (n, 2): 1}
        for p in range(2, n - 1):
            arcs = [(n * comb(p - 1, c - 1) * comb(n - p - 1, c - 1), c) for c in range(2, p + 1)]
            assert all(count % c == 0 for count, c in arcs)
            expected[(p, 1)] = sum((c - 1) * (count // c) for count, c in arcs)
        assert cech.cohomology(_cycle(n)).ranks() == {k: v for k, v in expected.items() if v}, n


def _permuted(X: frozenset, perm: list[int]) -> frozenset:
    """The masks of X with position j moved to perm[j]."""
    return frozenset(sum(1 << perm[j] for j in range(len(perm)) if T >> j & 1) for T in X)


def _position_permutation(X: frozenset, Y: frozenset, m: int) -> list[int] | None:
    """A permutation of the m positions that maps the set of masks X onto Y,
    or None.  It maps the maximal masks of X onto those of Y, so each
    bijection between them is tried, with the positions matched by the
    maximal masks that hold them."""
    tops = [[T for T in Z if not any(T != U and T & U == T for U in Z)] for Z in (X, Y)]
    if len(X) != len(Y) or len(tops[0]) != len(tops[1]):
        return None

    def holders(top, j):
        return tuple(k for k, T in enumerate(top) if T >> j & 1)

    for order in permutations(tops[1]):
        targets: dict = {}
        for j in range(m):
            targets.setdefault(holders(order, j), []).append(j)
        perm = []
        for j in range(m):
            pool = targets.get(holders(tops[0], j))
            if not pool:
                break
            perm.append(pool.pop())
        else:
            if _permuted(X, perm) == Y:
                return perm
    return None


def test_clearing_cuts_the_rp2_rows_and_eliminates_each_block_once(monkeypatch):
    K = projective_plane()
    # one list per X_I eliminated: [size, columns, rows kept, rank] per block
    groups: list[list[list]] = []
    # the X eliminated, as the side received it
    eliminated: list[frozenset] = []
    x_dimensions = cech._x_dimensions

    def recording_x(m, X):
        eliminated.append(frozenset(X))
        groups.append([])
        return x_dimensions(m, X)

    coboundary = cech._simplex_coboundary

    def recording_coboundary(rows, cols):
        groups[-1].append([cols[0].bit_count(), tuple(cols), len(rows)])
        return coboundary(rows, cols)

    def recording_rank(m, **kwargs):
        rank = rank_rational(m, **kwargs)
        groups[-1][-1].append(rank)
        return rank

    admissible: list = []
    dimensions = cech._admissible_dimensions
    monkeypatch.setattr(cech, "_x_dimensions", recording_x)
    monkeypatch.setattr(cech, "_admissible_dimensions", lambda m, X: admissible.append(X) or dimensions(m, X))
    monkeypatch.setattr(cech, "_simplex_coboundary", recording_coboundary)
    monkeypatch.setattr(cech, "rank_rational", recording_rank)
    assert cech.cohomology(K).ranks() == {(0, 0): 1, (3, 2): 10, (4, 2): 15, (5, 2): 6}
    # every star family is at most 6 * 31 < 1023 / 2 simplices: one side
    assert admissible == []

    # X_I from its definition, the tuples whose intersection meets I
    facets = K.facets
    distinct = set()
    for p in range(K.n + 1):
        for iset in K.k_subsets(p):
            X = frozenset(
                T for T in range(1, 1 << len(facets))
                if intersection(facets[j] for j in range(len(facets)) if T >> j & 1) & iset
            )
            distinct.add(X)
    # each X eliminated once, and each is some X_I; every X_I is one of them
    # with the facet positions permuted
    assert len(set(eliminated)) == len(eliminated) == 18
    assert set(eliminated) <= distinct
    for X in distinct:
        assert any(_position_permutation(X, Y, len(facets)) is not None for Y in eliminated), sorted(X)

    # each eliminated X has its blocks eliminated once, top-down, and
    # clearing: each block keeps its rows minus the pivots of the block above
    kept = total = 0
    for X, group in zip(eliminated, groups):
        by_size: dict = {}
        for T in sorted(X):
            by_size.setdefault(T.bit_count(), []).append(T)
        blocks = [(size, tuple(by_size[size])) for size in sorted(by_size, reverse=True) if size + 1 in by_size]
        assert [(size, cols) for size, cols, _, _ in group] == blocks
        above = 0
        for size, _, rows, rank in group:
            assert rows == len(by_size[size + 1]) - above
            above = rank
            kept += rows
            total += len(by_size[size + 1])
    assert kept < total


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(complexes(6), disjoint_unions_with_ghosts()), min_size=2, max_size=6))
def test_a_shared_cache_gives_the_reference_tables_on_random_batches(batch):
    # one dict across the batch, as in corpus: a family met in an earlier
    # complex, up to relabelling its positions, is read from it
    families: cech.Families = {}
    for K in batch:
        assert cech.cohomology(K, families).ranks() == _reference_ranks(K), K


def test_hodge_table_edge_boundary():
    # the Hodge numbers come from the algebra model; the Čech oracle agrees
    K = edge_boundary()
    table = koszul.hodge_table(K)
    assert table.h == cech.cohomology(K).ranks()
    assert table.F[(2, 3)] == 1  # the class of top holomorphic degree in H^3
    assert table.F[(3, 3)] == 0
    assert table.F[(0, 0)] == 1


def test_hodge_table_full_simplex():
    K = full_simplex(3)
    table = koszul.hodge_table(K)
    assert table.h == cech.cohomology(K).ranks()
    assert table.F[(0, 0)] == 1
    assert all(r == 0 for (k, s), r in table.F.items() if (k, s) != (0, 0))


def test_hodge_table_three_points():
    K = disjoint_points(3)
    table = koszul.hodge_table(K)
    assert table.h == cech.cohomology(K).ranks()
    assert table.F[(2, 3)] == 3
    assert table.F[(3, 4)] == 2
    assert table.F[(3, 3)] == 0


def test_hodge_filtration_monotone_and_betti():
    for K in (edge_boundary(), disjoint_points(3), simplex_boundary(3)):
        table = koszul.hodge_table(K)
        cell_table = homology_table(K, "Q")
        for s in range(2 * K.n + 1):
            assert table.F[(0, s)] == betti(cell_table, s)
            for k in range(K.n + 1):
                assert table.F[(k, s)] >= table.F[(k + 1, s)]


def test_filtration_direct_route_agrees():
    # cross-model: the Čech filtration ranks computed without the bigraded
    # splitting against F accumulated from the algebra model's h(p, q)
    for K in all_complexes(3):
        table = koszul.hodge_table(K)
        direct = filtration_ranks_direct(K, K.facets)
        assert direct == {key: table.F[key] for key in direct}
    K = edge_boundary()
    table = koszul.hodge_table(K)
    direct_faces = filtration_ranks_direct(K, K.faces_sorted)
    assert direct_faces == {key: table.F[key] for key in direct_faces}


def test_representative_cocycle_edge_boundary():
    K = edge_boundary()
    w = representative_cocycle(K, 2, 1, 0)
    assert cochain_coboundary(K, w).values == {}
    # support sits on tuples whose intersection misses {1,2}
    for tup, form in w.values.items():
        inter = tup[0]
        for f in tup:
            inter &= f
        assert all(iset & inter == 0 for iset in form)


def test_representative_cocycle_unit_class():
    K = edge_boundary()
    w = representative_cocycle(K, 0, 0, 0)
    assert set(w.values) == {(f,) for f in K.faces_sorted}
    assert all(form == {0: 1} for form in w.values.values())


def test_representative_cocycle_errors():
    K = edge_boundary()
    with pytest.raises(ValueError):
        representative_cocycle(K, 2, 1, 5)  # index out of range
    with pytest.raises(ValueError):
        representative_cocycle(K, 1, 1, 0)  # trivial bidegree


def test_representative_count_matches_rank():
    for K in (disjoint_points(3), simplex_boundary(3), projective_plane()):
        table = cech.cohomology(K)
        for (p, q), rank in table.ranks().items():
            reps = [full_pullback(K, w) for w in cech.representative_cocycles(K, p, q)]
            assert len(reps) == rank
            for w in reps:
                assert (w.p, w.t) == (p, q)


def test_alternation_sign_on_evaluation():
    K = edge_boundary()
    w = representative_cocycle(K, 2, 1, 0)
    tup = next(iter(w.values))
    swapped = (tup[1], tup[0])
    assert w.value_at(swapped) == {iset: -c for iset, c in w.values[tup].items()}
    assert w.value_at((tup[0], tup[0])) == {}


def test_restriction_monotone():
    # admissibility survives passing to finer intersections
    form = {mask_of([1, 2]): Fraction(3, 2)}
    assert cech.LogCochain(2, 1, {(mask_of([1]), mask_of([3])): form}).values  # meets in 0
    assert cech.LogCochain(2, 0, {(mask_of([3]),): form}).values
    with pytest.raises(ValueError, match="not holomorphic"):
        cech.LogCochain(2, 0, {(mask_of([1]),): form})


def test_pullback_matches_direct_face_computation():
    # pulled-back representatives must be non-exact on the face cover: their
    # classes pair against resolvents elsewhere; here check closedness and
    # bidegree on a complex with nontrivial refinement
    K = simplex_boundary(3)
    for (p, q) in ((3, 2),):
        for w in cech.representative_cocycles(K, p, q):
            assert cochain_coboundary(K, full_pullback(K, w)).values == {}


def _accumulated_pullback(K, w):
    """Reference pullback: every choice of one face above each facet of a
    support tuple, sorted into the face order with the sign of its
    inversions, summed over the support."""
    out: dict = {}
    for facet_tuple, form in w.values.items():
        pools = [[f for f in K.faces_sorted if K.containing_facet(f) == facet] for facet in facet_tuple]
        for choice in product(*pools):
            keys = [face_key(f) for f in choice]
            inversions = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1 :])
            coeffs = out.setdefault(tuple(sorted(choice, key=face_key)), {})
            for iset, c in form.items():
                coeffs[iset] = coeffs.get(iset, 0) + (-c if inversions % 2 else c)
    return {
        key: {iset: c for iset, c in coeffs.items() if c}
        for key, coeffs in out.items()
        if any(coeffs.values())
    }


PULLBACK_COMPLEXES = (
    simplex_boundary(3),
    simplex_boundary(4),
    simplex_boundary(5),
    SimplicialComplex.from_vertex_lists(3, [[1, 2], [2, 3]]),  # the path complex
)


@pytest.mark.parametrize("K", PULLBACK_COMPLEXES, ids=["sphere3", "sphere4", "sphere5", "path"])
def test_pullback_at_top_piece_tuples_equals_full_pullback(K):
    checked = 0
    for (p, q) in homology_table(K).ranks():
        cycles = cells.homology(K, p, q)
        facet_cocycles = cech.representative_cocycles(K, p, q)
        full = [full_pullback(K, w) for w in facet_cocycles]
        assert [w.values for w in full] == [
            representative_cocycle(K, p, q, i).values for i in range(len(full))
        ]
        for w, pulled in zip(facet_cocycles, full):
            reference = _accumulated_pullback(K, w)
            assert pulled.values == reference
            for cycle in cycles:
                resolvent = build_resolvent(K, cycle)
                top = resolvent.top.values
                restricted = cech.pullback_to_faces(K, w, top)
                assert set(restricted.values) <= set(top)
                assert restricted.values == {
                    key: terms for key, terms in reference.items() if key in top
                }
                assert resolvent_pairing(resolvent, restricted) == resolvent_pairing(resolvent, pulled)
                checked += 1
    assert checked


def test_pullback_evaluates_any_tuple_order():
    K = simplex_boundary(3)
    (w,) = cech.representative_cocycles(K, 3, 2)
    full = full_pullback(K, w)
    tup = next(iter(full.values))
    swapped = cech.pullback_to_faces(K, w, [(tup[1], tup[0], tup[2]), (tup[0], tup[0], tup[1])])
    assert swapped.values == {tup: full.values[tup]}
    assert cech.pullback_to_faces(K, w, []).values == {}


def test_cocycle_json_shape():
    K = edge_boundary()
    w = representative_cocycle(K, 2, 1, 0)
    doc = w.to_json()
    assert all(set(entry) == {"tuple", "forms"} for entry in doc)
    assert all(
        set(form) == {"I", "coeff"} for entry in doc for form in entry["forms"]
    )
