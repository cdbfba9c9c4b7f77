"""Hochster's formula as an oracle for the bigraded table.

    h(p, q) = sum over |J| = p of dim H~^(q-1)(K_J),

with K_J the full subcomplex on the vertex set J and H~ reduced simplicial
cohomology over Q; the complex {empty face} has H~^(-1) = Q.  The oracle
uses the standard simplicial coboundary signs and its own rank routine, so
it shares neither sign convention nor elimination code with the models.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from coordarr import koszul
from coordarr.complexes import SimplicialComplex
from coordarr.corpus import all_complexes, projective_plane


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on a dense copy."""
    work = [list(row) for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, len(work)):
            factor = work[r][c] / work[rank][c]
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def _reduced_betti(faces: list[tuple[int, ...]], top: int) -> dict[int, int]:
    """dim H~^k for k = -1..top of the complex with the given faces (sorted
    vertex tuples, the empty one included)."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for face in faces:
        by_size.setdefault(len(face), []).append(face)

    def coboundary_rank(k: int) -> int:
        # delta: C^k -> C^(k+1), (delta f)(tau) = sum_i (-1)^i f(tau minus tau_i)
        src = by_size.get(k + 1, [])
        dst = by_size.get(k + 2, [])
        if not src or not dst:
            return 0
        col = {face: j for j, face in enumerate(src)}
        rows = []
        for tau in dst:
            row = [Fraction(0)] * len(src)
            for i in range(len(tau)):
                row[col[tau[:i] + tau[i + 1:]]] = Fraction((-1) ** i)
            rows.append(row)
        return _rank(rows)

    return {
        k: len(by_size.get(k + 1, [])) - coboundary_rank(k) - coboundary_rank(k - 1)
        for k in range(-1, top + 1)
    }


def hochster_table(K: SimplicialComplex) -> dict[tuple[int, int], int]:
    faces = [
        tuple(v for v in range(1, K.n + 1) if mask >> (v - 1) & 1) for mask in K.faces
    ]
    out: dict[tuple[int, int], int] = {}
    for p in range(K.n + 1):
        for J in combinations(range(1, K.n + 1), p):
            full_sub = [face for face in faces if set(face) <= set(J)]
            for k, dim in _reduced_betti(full_sub, p).items():
                if dim:
                    out[(p, k + 1)] = out.get((p, k + 1), 0) + dim
    return out


def test_hochster_small_examples():
    two_points = SimplicialComplex.from_vertex_lists(2, [[1], [2]])
    assert hochster_table(two_points) == {(0, 0): 1, (2, 1): 1}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ghost = SimplicialComplex(1, [])
    assert hochster_table(ghost) == {(0, 0): 1, (1, 0): 1}


def test_hochster_matches_rk_on_all_small_complexes_and_rp2():
    complexes = [K for n in range(1, 5) for K in all_complexes(n)] + [projective_plane()]
    for K in complexes:
        assert koszul.cohomology(K, "Q").ranks() == hochster_table(K), K


@st.composite
def random_complexes(draw) -> SimplicialComplex:
    n = draw(st.integers(1, 6))
    facets = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(n, facets)


@settings(max_examples=100, deadline=None)
@given(random_complexes())
def test_hochster_matches_rk_on_random_complexes(K):
    assert koszul.cohomology(K, "Q").ranks() == hochster_table(K)
