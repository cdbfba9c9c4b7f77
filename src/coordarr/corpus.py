"""The corpus of the ``corpus`` command.

The standing corpus for cross-model validation: every simplicial complex on
up to four labeled vertices, a seeded batch of random complexes on five and
six vertices, and the six-vertex triangulation of the real projective plane
(the smallest complex whose models carry 2-torsion).
"""

from __future__ import annotations

import random
import warnings

from .complexes import SimplicialComplex, mask_of

__all__ = [
    "projective_plane",
    "all_complexes",
    "random_complexes",
    "standard_corpus",
]

#: facets of the 6-vertex triangulation of the real projective plane
#: (antipodal quotient of the icosahedron; every edge lies in exactly two
#: triangles and every vertex link is a 5-cycle)
PROJECTIVE_PLANE_FACETS = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]


def projective_plane() -> SimplicialComplex:
    return SimplicialComplex.from_vertex_lists(6, PROJECTIVE_PLANE_FACETS)


def all_complexes(n: int) -> list[SimplicialComplex]:
    """Every simplicial complex on exactly [n] (empty face always present);
    n <= 4 only.

    A depth-first search decides the nonempty subsets of [n] in increasing
    mask order, and a subset may join the family only when every subset one
    vertex smaller already has, so every branch ends in a downward-closed
    family and no other family is visited.  A family is recorded as the
    bitmask with bit m - 1 set for each of its masks m, and the complexes
    come sorted by it.  The count is the number of antichains of nonempty
    subsets of [n]: 2, 5, 19, 167 for n = 1..4.
    """
    if n > 4:
        raise ValueError("exhaustive enumeration is limited to n <= 4")
    end = 1 << n
    families: list[int] = []

    def extend(m: int, family: int) -> None:
        if m == end:
            families.append(family)
            return
        extend(m + 1, family)
        smaller = [m & ~(1 << k) for k in range(n) if m >> k & 1]
        if all(family >> (s - 1) & 1 for s in smaller if s):
            extend(m + 1, family | 1 << (m - 1))

    extend(1, 0)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for family in sorted(families):
            members = [m for m in range(1, end) if family >> (m - 1) & 1]
            maximal = [m for m in members if not any(m != g and m & g == m for g in members)]
            out.append(SimplicialComplex(n, maximal or [0]))
    return out


def random_complexes(count: int, seed: int = 20260810) -> list[SimplicialComplex]:
    """Seeded random complexes on 5 and 6 vertices.

    Facet counts stay small (at most six generators before maximalization),
    which keeps the facet-cover Čech blocks comfortably sized while still
    hitting missing vertices, disconnected unions, spheres and cones.
    """
    rng = random.Random(seed)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while len(out) < count:
            n = rng.choice([5, 6])
            k = rng.randint(1, 6)
            gens = []
            for _ in range(k):
                size = rng.randint(1, n - 1)
                gens.append(mask_of(rng.sample(range(1, n + 1), size)))
            out.append(SimplicialComplex(n, gens))
    return out


def standard_corpus(random_count: int = 200, seed: int = 20260810) -> list[SimplicialComplex]:
    """All complexes on <= 4 vertices, the seeded random batch, and the
    projective-plane triangulation."""
    out: list[SimplicialComplex] = []
    for n in range(1, 5):
        out.extend(all_complexes(n))
    out.extend(random_complexes(random_count, seed))
    out.append(projective_plane())
    return out
