"""Metamorphic identities of the bigraded table (Buchstaber–Panov, *Toric
Topology*, ch. 3–4), checked on random complexes with n <= 6:

* join: Z_{K1*K2} = Z_{K1} x Z_{K2}, so the bigraded Poincaré series of the
  join is the product of the two series;
* cone: a cone vertex multiplies Z_K by C, so the table is unchanged;
* ghost vertex: a vertex that is not a face multiplies Z_K by C*, so
  h'(p, q) = h(p, q) + h(p - 1, q).

Each identity relates the tables of two different complexes, so a fault
that every model shares (in the elimination core, say) breaks it even
where the models agree with each other.  Both the rk model over Z (free
ranks) and the Čech model over Q are checked.
"""

from __future__ import annotations

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import cech, koszul
from coordarr.complexes import SimplicialComplex


def _complex(n: int, facets) -> SimplicialComplex:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ghost vertices are intended here
        return SimplicialComplex(n, facets)


@st.composite
def complexes(draw, max_n: int) -> SimplicialComplex:
    n = draw(st.integers(1, max_n))
    facets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
    return _complex(n, facets)


def _tables(K: SimplicialComplex) -> list[dict[tuple[int, int], int]]:
    return [koszul.cohomology(K, "Z").ranks(), cech.cohomology(K).ranks()]


def _product(h1: dict, h2: dict) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (p1, q1), a in h1.items():
        for (p2, q2), b in h2.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + a * b
    return out


def _join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    return _complex(K1.n + K2.n, [f1 | f2 << K1.n for f1 in K1.facets for f2 in K2.facets])


@settings(max_examples=40, deadline=None)
@given(complexes(3), complexes(3))
def test_join_multiplies_poincare_series(K1, K2):
    joined = _tables(_join(K1, K2))
    for h1, h2, h in zip(_tables(K1), _tables(K2), joined):
        assert h == _product(h1, h2)


@settings(max_examples=40, deadline=None)
@given(complexes(5))
def test_cone_vertex_leaves_table_unchanged(K):
    cone = _complex(K.n + 1, [f | 1 << K.n for f in K.facets])
    assert _tables(cone) == _tables(K)


@settings(max_examples=40, deadline=None)
@given(complexes(5))
def test_ghost_vertex_tensors_with_c_star(K):
    ghost = _complex(K.n + 1, K.facets)
    for h, h_ghost in zip(_tables(K), _tables(ghost)):
        expected = dict(h)
        for (p, q), r in h.items():
            expected[(p + 1, q)] = expected.get((p + 1, q), 0) + r
        assert h_ghost == dict(sorted(expected.items()))


def test_identities_on_named_complexes():
    # two points * two points is the 4-cycle; its table is the product
    points = SimplicialComplex.from_vertex_lists(2, [[1], [2]])
    square = SimplicialComplex.from_vertex_lists(4, [[1, 3], [3, 2], [2, 4], [4, 1]])
    assert _join(points, points) == square
    for h_points, h_square in zip(_tables(points), _tables(square)):
        assert h_points == {(0, 0): 1, (2, 1): 1}
        assert h_square == {(0, 0): 1, (2, 1): 2, (4, 2): 1}
