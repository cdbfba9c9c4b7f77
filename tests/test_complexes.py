from __future__ import annotations

import json

import pytest

from coordarr.complexes import (
    CodimensionOneWarning,
    ComplexError,
    SimplicialComplex,
    card,
    elements,
    mask_of,
    parse_complex,
    pos_in,
)
from coordarr.corpus import all_complexes
from reference import all_complexes_brute_force, complex_to_json, minimal_non_faces


def test_parse_two_vertices():
    K = parse_complex({"n": 2, "facets": [[1], [2]]})
    assert sorted(elements(f) for f in K.faces) == [(), (1,), (2,)]


def test_parse_missing_faces_boundary_simplex():
    K = parse_complex({"n": 3, "missing_faces": [[1, 2, 3]]})
    assert len(K.faces) == 7
    assert not K.is_face(mask_of([1, 2, 3]))


def test_minimal_non_faces_three_points():
    K = parse_complex({"n": 3, "facets": [[1], [2], [3]]})
    assert [elements(f) for f in minimal_non_faces(K)] == [(1, 2), (1, 3), (2, 3)]


def test_minimal_non_faces_full_simplex_empty():
    K = parse_complex({"n": 3, "facets": [[1, 2, 3]]})
    assert minimal_non_faces(K) == ()


def test_minimal_non_faces_edge():
    K = parse_complex({"n": 2, "facets": [[1], [2]]})
    assert [elements(f) for f in minimal_non_faces(K)] == [(1, 2)]


def test_cover_elements_are_all_faces():
    K = parse_complex({"n": 2, "facets": [[1], [2]]})
    assert [elements(f) for f in K.faces_sorted] == [(), (1,), (2,)]
    full = parse_complex({"n": 2, "facets": [[1, 2]]})
    assert len(full.faces_sorted) == 4


def test_cover_intersection_rule():
    K = parse_complex({"n": 3, "missing_faces": [[1, 2, 3]]})
    for a in K.faces_sorted:
        for b in K.faces_sorted:
            assert K.is_face(a & b)  # U_a cap U_b = U_{a cap b} stays indexed


def test_downward_closure_and_counting():
    K = parse_complex({"n": 4, "facets": [[1, 2, 3], [3, 4]]})
    for f in K.faces:
        sub = f
        while sub:
            sub = (sub - 1) & f
            assert sub in K.faces
    non_faces = [m for m in range(1 << K.n) if m not in K.faces]
    assert len(K.faces) + len(non_faces) == 2**K.n


def test_minimal_non_faces_antichain_and_minimality():
    K = parse_complex({"n": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    mnf = minimal_non_faces(K)
    for a in mnf:
        for b in mnf:
            assert a == b or (a & b) not in (a, b)  # antichain
        for v in elements(a):
            assert K.is_face(a & ~(1 << (v - 1)))  # dropping any vertex gives a face


def test_facets_are_maximal_after_normalization():
    K = parse_complex({"n": 2, "facets": [[1], [1, 2], [2]]})
    assert [elements(f) for f in K.facets] == [(1, 2)]
    assert all(not any(f != g and f & g == f for g in K.facets) for f in K.facets)


def test_missing_vertex_warns():
    with pytest.warns(CodimensionOneWarning):
        K = SimplicialComplex.from_vertex_lists(3, [[1, 2]])
    assert K.missing_vertices == (3,)


def test_errors():
    with pytest.raises(ComplexError):
        parse_complex({"n": 2, "facets": [[3]]})  # vertex out of range
    with pytest.raises(ComplexError):
        parse_complex({"n": 25, "facets": [[1]]})  # beyond the mask cap
    with pytest.raises(ComplexError):
        parse_complex({"facets": [[1]]})  # no n
    with pytest.raises(ComplexError):
        parse_complex({"n": 2})  # neither representation
    with pytest.raises(ComplexError):
        parse_complex("{broken")
    # JSON booleans are not vertex data, though Python's bool is an int
    with pytest.raises(ComplexError):
        parse_complex('{"n": true, "facets": [[true]]}')
    with pytest.raises(ComplexError):
        parse_complex({"n": 2, "missing_faces": [[1, True]]})
    with pytest.raises(ComplexError):
        parse_complex({"n": 2, "facets": [[False]]})


def test_json_round_trip():
    K = parse_complex({"n": 3, "facets": [[1, 2], [3]]})
    doc = complex_to_json(K)
    assert doc["facets"] == [[3], [1, 2]]
    assert doc["missing_faces"] == [[1, 3], [2, 3]]
    assert doc["face_counts"] == {"0": 1, "1": 3, "2": 1}
    again = parse_complex(json.dumps(doc))
    assert (again.n, again.facets) == (K.n, K.facets)
    via_missing = parse_complex({"n": 3, "missing_faces": doc["missing_faces"]})
    assert (via_missing.n, via_missing.facets) == (K.n, K.facets)


def test_bitmask_helpers():
    m = mask_of([2, 5, 3])
    assert elements(m) == (2, 3, 5)
    assert card(m) == 3
    assert pos_in(m, 2) == 1 and pos_in(m, 3) == 2 and pos_in(m, 5) == 3


def test_containing_facet():
    K = parse_complex({"n": 3, "missing_faces": [[1, 2, 3]]})
    assert K.containing_facet(mask_of([1])) in K.facets
    with pytest.raises(ValueError):
        K.containing_facet(mask_of([1, 2, 3]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_complexes_equal_the_brute_force(n):
    # the pruned search gives the same complexes in the same order
    pruned = [(K.n, K.facets) for K in all_complexes(n)]
    assert pruned == [(K.n, K.facets) for K in all_complexes_brute_force(n)]
    assert len(pruned) == [2, 5, 19, 167][n - 1]


def test_all_complexes_refuses_five_vertices():
    with pytest.raises(ValueError, match="n <= 4"):
        all_complexes(5)
