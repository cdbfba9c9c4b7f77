from __future__ import annotations

import random
import warnings
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import koszul
from coordarr.complexes import SimplicialComplex, card, elements, face_key, mask_of
from coordarr.corpus import PROJECTIVE_PLANE_FACETS, standard_corpus
from coordarr.linalg import ExactMatrix, compose_is_zero
from reference import (
    RkElement,
    betti,
    components_by_search,
    differential,
    disjoint_points,
    full_simplex,
    full_stripe,
    homology_table,
    monomial,
    multiply,
    simplex_boundary,
    stripe_table,
    to_dense,
)


def edge_boundary():
    return SimplicialComplex.from_vertex_lists(2, [[1], [2]])


def test_basis_edge_boundary_2_1():
    K = edge_boundary()
    got = koszul.basis(K, 2, 1)
    assert got == [(mask_of([2]), mask_of([1])), (mask_of([1]), mask_of([2]))]


def test_basis_killed_by_non_face():
    K = edge_boundary()
    assert koszul.basis(K, 2, 2) == []  # v1 v2 dies: {1,2} is not a face


def test_basis_unit():
    assert koszul.basis(edge_boundary(), 0, 0) == [(0, 0)]


def test_differential_of_u1u2():
    K = edge_boundary()
    dx = differential(K, monomial([1, 2], []))
    assert dx.terms == {
        (mask_of([2]), mask_of([1])): 1,
        (mask_of([1]), mask_of([2])): -1,
    }


def test_differential_hits_stanley_reisner_relation():
    K = edge_boundary()
    # u2 v1 -> v1 v2 = 0 because {1,2} is not a face
    assert differential(K, monomial([2], [1])).is_zero()


def test_differential_of_unit():
    assert differential(edge_boundary(), monomial([], [])).is_zero()


def test_differential_squares_to_zero_blockwise():
    K = SimplicialComplex.from_vertex_lists(4, [[1, 2, 3], [2, 3, 4]])
    for p in range(K.n + 1):
        for q in range(p + 1):
            d1 = koszul.differential_matrix(K, p, q)
            d2 = koszul.differential_matrix(K, p, q + 1)
            assert compose_is_zero(d2, d1), (p, q)


def test_differential_preserves_p_raises_q():
    K = simplex_boundary(3)
    for p in range(4):
        for q in range(p + 1):
            m = koszul.differential_matrix(K, p, q)
            assert m.rows == len(koszul.basis(K, p, q + 1))
            assert m.cols == len(koszul.basis(K, p, q))


def test_multiply_exterior_square_is_zero():
    K = full_simplex(2)
    u1 = monomial([1], [])
    assert multiply(K, u1, u1).is_zero()


def test_multiply_mixed_relation():
    K = full_simplex(2)
    assert multiply(K, monomial([1], []), monomial([], [1])).is_zero()


def test_multiply_constraint_violation():
    K = full_simplex(2)
    a = monomial([2], [1])
    b = monomial([1], [2])
    assert multiply(K, a, b).is_zero()


def test_multiply_shuffle_sign():
    K = full_simplex(3)
    u2 = monomial([2], [])
    u1 = monomial([1], [])
    assert multiply(K, u2, u1).terms == {(mask_of([1, 2]), 0): -1}


def _random_homogeneous(K, rng, p, q):
    basis = koszul.basis(K, p, q)
    if not basis:
        return RkElement()
    return RkElement({b: rng.randint(-3, 3) for b in basis})


def test_multiply_graded_commutative():
    rng = random.Random(7)
    K = SimplicialComplex.from_vertex_lists(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    for _ in range(40):
        pa = rng.randint(0, 3)
        qa = rng.randint(0, pa)
        pb = rng.randint(0, 3)
        qb = rng.randint(0, pb)
        a = _random_homogeneous(K, rng, pa, qa)
        b = _random_homogeneous(K, rng, pb, qb)
        ab = multiply(K, a, b)
        ba = multiply(K, b, a)
        sign = -1 if ((pa + qa) * (pb + qb)) % 2 else 1
        assert ab == ba.scale(sign)


def test_leibniz_rule():
    rng = random.Random(11)
    K = SimplicialComplex.from_vertex_lists(4, [[1, 2, 3], [3, 4]])
    for _ in range(40):
        pa = rng.randint(0, 3)
        qa = rng.randint(0, pa)
        a = _random_homogeneous(K, rng, pa, qa)
        b = _random_homogeneous(K, rng, rng.randint(0, 3), rng.randint(0, 2))
        lhs = differential(K, multiply(K, a, b))
        sign = -1 if (pa + qa) % 2 else 1
        rhs = multiply(K, differential(K, a), b) + multiply(
            K, a, differential(K, b)
        ).scale(sign)
        assert lhs == rhs


def test_products_of_cocycles_are_cocycles():
    rng = random.Random(13)
    K = disjoint_points(3)
    from coordarr.linalg import kernel_basis

    closed = []
    for p in range(K.n + 1):
        for q in range(p + 1):
            basis = koszul.basis(K, p, q)
            if not basis:
                continue
            for vec in kernel_basis(koszul.differential_matrix(K, p, q)):
                closed.append(RkElement({basis[i]: v for i, v in vec.items()}))
    for _ in range(30):
        a, b = rng.choice(closed), rng.choice(closed)
        assert differential(K, multiply(K, a, b)).is_zero()


def test_cohomology_full_simplex():
    for n in (1, 2, 3):
        assert koszul.cohomology(full_simplex(n), "Z").ranks() == {(0, 0): 1}


def test_cohomology_edge_boundary():
    assert koszul.cohomology(edge_boundary(), "Z").ranks() == {(0, 0): 1, (2, 1): 1}


def test_cohomology_three_points():
    table = koszul.cohomology(disjoint_points(3), "Z")
    assert table.ranks() == {(0, 0): 1, (2, 1): 3, (3, 1): 2}
    assert table.torsions() == {}


def test_total_degree_matches_cell_model():
    K = SimplicialComplex.from_vertex_lists(4, [[1, 2], [3], [4]])
    rk = koszul.cohomology(K, "Q")
    cell = homology_table(K, "Q")
    for s in range(2 * K.n + 1):
        assert betti(rk, s) == betti(cell, s)


def _full_stripe_json(K: SimplicialComplex, coeff: str) -> dict:
    """The table of the full stripes, every J included: the reference for
    the summand engine."""
    return stripe_table((full_stripe(K, p) for p in range(K.n + 1)), coeff).to_json()


def _cycle(n: int) -> SimplicialComplex:
    return SimplicialComplex.from_vertex_lists(n, [[i, i % n + 1] for i in range(1, n + 1)])


@pytest.mark.parametrize("coeff", ["Z", "Q"])
def test_summand_engine_equals_full_stripes_on_the_corpus(coeff):
    # RP^2 is in the corpus, so the Z/2 torsion is compared too
    for K in standard_corpus():
        assert koszul.cohomology(K, coeff).to_json() == _full_stripe_json(K, coeff), K


@pytest.mark.parametrize("coeff", ["Z", "Q"])
@pytest.mark.parametrize(
    "K",
    [simplex_boundary(n) for n in range(3, 9)] + [_cycle(8), _cycle(9)],
    ids=[f"sphere{n}" for n in range(3, 9)] + ["C8", "C9"],
)
def test_summand_engine_equals_full_stripes_on_spheres_and_cycles(K, coeff):
    assert koszul.cohomology(K, coeff).to_json() == _full_stripe_json(K, coeff)


@st.composite
def complexes_with_ghosts_and_cones(draw) -> SimplicialComplex:
    """Random complexes on at most 6 vertices; some vertices span no face,
    and some complexes are cones (every facet holds the last vertex)."""
    n = draw(st.integers(1, 5))
    facets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    ghosts = draw(st.integers(0, 5 - n))
    cone = n + ghosts < 6 and draw(st.booleans())
    total = n + ghosts + cone
    apex = 1 << (total - 1) if cone else 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(total, [f | apex for f in facets] or [apex])


@settings(max_examples=150, deadline=None)
@given(complexes_with_ghosts_and_cones())
def test_summand_engine_equals_full_stripes_on_random_complexes(K):
    for coeff in ("Z", "Q"):
        assert koszul.cohomology(K, coeff).to_json() == _full_stripe_json(K, coeff)


def test_summand_is_the_summand_of_each_non_face(monkeypatch):
    # the edge boundary: J = {1, 2} is not a face; its summand is
    # u1u2 -> v1u2 - u1v2, sigma = {}, {1}, {2} in face order
    maps = list(koszul.summand(SimplicialComplex.from_vertex_lists(2, [[1], [2]]), mask_of([1, 2])))
    assert [(m.rows, m.cols) for m in maps] == [(1, 0), (2, 1), (0, 2), (0, 0)]
    assert to_dense(maps[1]) == [[1], [-1]]
    # a complex whose nonempty J are all faces asks for no summand but the unit
    calls = _recording_summands(monkeypatch)
    koszul.cohomology(full_simplex(3), "Z")
    assert calls == [0]
    # J = {} stays: the unit in bidegree (0, 0)
    assert [(m.rows, m.cols) for m in koszul.summand(full_simplex(3), 0)] == [(1, 0), (0, 1)]


def _recording_summands(monkeypatch) -> list[int]:
    """Record the J of every summand the table engine builds."""
    calls: list[int] = []
    original = koszul.summand
    monkeypatch.setattr(koszul, "summand", lambda K, J: calls.append(J) or original(K, J))
    return calls


@st.composite
def disjoint_unions_with_ghosts(draw) -> SimplicialComplex:
    """Two or three random complexes on disjoint vertex sets, plus ghost
    vertices that span no face, with the labels shuffled: at most 7
    vertices."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(lambda s: sum(s) <= 7))
    ghosts = draw(st.integers(0, 7 - sum(sizes)))
    total = sum(sizes) + ghosts
    labels = draw(st.permutations(range(1, total + 1)))
    facets = []
    start = 0
    for size in sizes:
        piece = labels[start : start + size]
        start += size
        for local in draw(st.lists(st.integers(1, (1 << size) - 1), min_size=1, max_size=4)):
            facets.append(mask_of(v for i, v in enumerate(piece) if local >> i & 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(total, facets)


@settings(max_examples=80, deadline=None)
@given(disjoint_unions_with_ghosts())
def test_component_engine_equals_full_stripes_on_disjoint_unions(K):
    for coeff in ("Z", "Q"):
        assert koszul.cohomology(K, coeff).to_json() == _full_stripe_json(K, coeff)


@settings(max_examples=80, deadline=None)
@given(disjoint_unions_with_ghosts())
def test_a_component_has_the_summand_of_its_shape(K):
    # relabelling the vertices of C to 1..|C| in increasing order keeps the
    # summand of C matrix for matrix, which makes the shape an exact key
    for C in sorted(C for C, _ in koszul._connected_sets(K, koszul._neighbors(K)) if not K.is_face(C)):
        label = {v: i for i, v in enumerate(elements(C), 1)}
        faces = sorted(
            (mask_of(label[v] for v in elements(sigma)) for sigma in K.faces if sigma & C == sigma),
            key=face_key,
        )
        assert koszul._shape(K, C) == tuple(faces)
        shape = SimplicialComplex(card(C), faces)
        maps = [(m.rows, m.cols, m.entries) for m in koszul.summand(K, C)]
        assert maps == [(m.rows, m.cols, m.entries) for m in koszul.summand(shape, (1 << card(C)) - 1)], C


@st.composite
def graphs_with_ghosts(draw) -> SimplicialComplex:
    """A random graph on up to 8 vertices as a 1-dimensional complex, some
    vertices ghosts (no face, no edge)."""
    n = draw(st.integers(1, 8))
    ghosts = draw(st.integers(0, (1 << n) - 1))
    vertices = [1 << i for i in range(n) if not ghosts >> i & 1]
    pairs = [a | b for a in vertices for b in vertices if a < b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(n, vertices + edges or [0])


@settings(max_examples=100, deadline=None)
@given(graphs_with_ghosts())
def test_connected_sets_are_the_connected_sets_of_the_search(K):
    # the enumerator grows each connected set from its lowest vertex; it
    # yields exactly the nonempty sets a fresh search finds connected, once,
    # each with the vertices it holds or touches by an edge
    edges = [e for e in K.faces if card(e) == 2]
    found = list(koszul._connected_sets(K, koszul._neighbors(K)))
    assert len(found) == len({C for C, _ in found})
    assert sorted(C for C, _ in found) == [J for J in range(1, 1 << K.n) if components_by_search(K, J) == [J]]
    for C, closed in found:
        touched = C
        for e in edges:
            if e & C:
                touched |= e
        assert closed == touched, C


@pytest.mark.parametrize("n", [3, 4, 8, 24])
def test_the_cycle_has_one_connected_set_per_arc(n):
    # the arcs of C_n, n starts times n - 1 lengths, and the whole cycle:
    # n(n - 1) + 1 sets, where a walk over J would visit 2^n
    found = [C for C, _ in koszul._connected_sets(_cycle(n), koszul._neighbors(_cycle(n)))]
    assert len(found) == len(set(found)) == n * (n - 1) + 1


def test_torsion_of_two_projective_planes_adds_up():
    # H~^1(RP^2_S) has Z/2 only for S the whole plane, so the torsion of
    # RP^2 + RP^2 sits at the J that hold one whole plane and a proper part
    # of the other, Z/2 each, and at J = [12], Z/2 + Z/2
    shifted = [[v + 6 for v in facet] for facet in PROJECTIVE_PLANE_FACETS]
    K = SimplicialComplex.from_vertex_lists(12, PROJECTIVE_PLANE_FACETS + shifted)
    expected = {(6 + k, 3): (2,) * (2 * comb(6, k)) for k in range(6)}
    expected[(12, 3)] = (2, 2)
    assert koszul.cohomology(K, "Z").torsions() == expected
    # m copies: each J of size p that holds a whole plane has one Z/2 per
    # whole plane, m C(6(m - 1), p - 6) in all; here m = 3
    m = 3
    planes = [[v + 6 * i for v in facet] for i in range(m) for facet in PROJECTIVE_PLANE_FACETS]
    K = SimplicialComplex.from_vertex_lists(6 * m, planes)
    expected = {(p, 3): (2,) * (m * comb(6 * m - 6, p - 6)) for p in range(6, 6 * m + 1)}
    assert koszul.cohomology(K, "Z").torsions() == expected


def test_torsion_meeting_in_one_bidegree_is_merged(monkeypatch):
    # a triangle boundary on {1, 2, 3} and the 4-cycle on {4, 5, 6, 7},
    # two components of distinct shapes, whose summands are replaced by
    # complexes with Z/2 and Z/3 at q = 1: every J holding one of them and
    # part of the other meets one factor, and J = [7] meets both.  Each fake
    # keeps the circle's free class at q = 2, so the free ranks still pass
    # the Euler check
    K = SimplicialComplex.from_vertex_lists(7, [[1, 2], [1, 3], [2, 3], [4, 5], [5, 6], [6, 7], [4, 7]])
    factors = {mask_of([1, 2, 3]): 2, mask_of([4, 5, 6, 7]): 3}
    original = koszul.summand
    free = koszul.cohomology(K, "Z").ranks()
    faked = []

    def with_torsion(K, J):
        if J not in factors:
            return original(K, J)
        faked.append(J)
        return iter([ExactMatrix(1, 0), ExactMatrix(1, 1, {(0, 0): factors[J]}), ExactMatrix(1, 1), ExactMatrix(0, 1)])

    monkeypatch.setattr(koszul, "summand", with_torsion)
    table = koszul.cohomology(K, "Z")
    assert sorted(faked) == sorted(factors)
    assert table.torsions() == {
        (3, 1): (2,), (4, 1): (2, 2, 2, 6), (5, 1): (2, 2, 2, 6, 6, 6), (6, 1): (2, 6, 6, 6), (7, 1): (6,),
    }
    # the free classes are untouched: the fakes keep the circles', and the
    # extra components add #components - 1 per J, one at J = [7]
    assert table.ranks() == free
    assert table.free(7, 1) == 1


def _planes(m: int) -> SimplicialComplex:
    """m disjoint copies of the 6-vertex RP^2, on 6m vertices."""
    facets = [[v + 6 * i for v in facet] for i in range(m) for facet in PROJECTIVE_PLANE_FACETS]
    return SimplicialComplex.from_vertex_lists(6 * m, facets)


def _one_set_per_shape(K: SimplicialComplex, calls: list[int]) -> None:
    """Assert that ``calls`` holds one set C per distinct shape of the
    non-face connected sets of K and the unit, none twice."""
    components = [C for C, _ in koszul._connected_sets(K, koszul._neighbors(K)) if not K.is_face(C)]
    shapes = {koszul._shape(K, C) for C in [0, *components]}
    assert len(calls) == len(set(calls)) == len(shapes)
    assert set(calls) <= {0, *components}
    assert {koszul._shape(K, C) for C in calls} == shapes


def test_each_component_shape_of_the_cycle_is_eliminated_once(monkeypatch):
    # on C_12 the components of the K_J that are not faces are the arcs of
    # 3 to 11 vertices and the whole cycle; the unit is the summand of {}.
    # An arc of length l has l shapes: the unwrapped one, and one for each
    # of the l - 1 places where it passes vertex 12
    n = 12
    K = _cycle(n)
    calls = _recording_summands(monkeypatch)
    koszul.cohomology(K, "Z")
    arcs = {
        sum(1 << (start + i) % n for i in range(length))
        for start in range(n)
        for length in range(3, n)
    }
    assert set(calls) <= {0, (1 << n) - 1} | arcs
    assert {0, (1 << n) - 1} <= set(calls)
    assert len(calls) == sum(range(3, n)) + 2
    _one_set_per_shape(K, calls)


@pytest.mark.parametrize(("K", "eliminated"), [(_cycle(12), 65), (_planes(3), 15)], ids=["c12", "rp2x3"])
def test_the_shapes_of_a_call_die_with_the_call(K, eliminated, monkeypatch):
    # each call keeps its own dict of shapes: a second call on the same
    # complex eliminates the same sets again, one per distinct shape (the
    # three planes of 3 RP^2 share their 14 shapes, and the unit is one)
    calls = _recording_summands(monkeypatch)
    koszul.cohomology(K, "Z")
    first = calls[:]
    calls.clear()
    koszul.cohomology(K, "Z")
    assert set(calls) == set(first)
    assert len(first) == eliminated
    _one_set_per_shape(K, first)


@pytest.mark.parametrize("n", [*range(8, 15), 20, 24])
def test_cycle_hodge_numbers_match_the_closed_form(n):
    # h(p, 1) sums (c - 1) over the p-subsets of the cycle that form c
    # arcs, and there are (n / c) C(p - 1, c - 1) C(n - p - 1, c - 1) of them
    expected = {(0, 0): 1, (n, 2): 1}
    for p in range(2, n - 1):
        h = 0
        for c in range(2, min(p, n - p) + 1):
            count, rest = divmod(n * comb(p - 1, c - 1) * comb(n - p - 1, c - 1), c)
            assert rest == 0
            h += (c - 1) * count
        expected[(p, 1)] = h
    assert koszul.hodge_table(_cycle(n)).h == expected
