"""The differential bigraded algebra attached to a simplicial complex.

Generators: one exterior generator u_i of bidegree (1, 0) and one polynomial
generator v_i of bidegree (1, 1) per vertex, subject to

    v_i^2 = 0,   u_i v_i = 0,   v_sigma = 0 for every non-face sigma,

so a monomial basis element is a pair of disjoint vertex sets
``u_gamma v_sigma`` with ``sigma`` a face; its bidegree is
(|gamma| + |sigma|, |sigma|).  The differential sends u_i to v_i and v_i to
0 and extends as a left derivation with Koszul signs in the total degree:
on a basis monomial it produces the terms

    u_gamma v_sigma  |-->  sum over i in gamma with sigma + i a face of
                           (-1)^(pos(i, gamma) - 1) * u_(gamma - i) v_(sigma + i),

where pos is the 1-based position of i in the sorted gamma.  The
differential raises q by one and preserves p, so cohomology is computed one
p-stripe at a time (the algebra is R*(K) of Buchstaber–Panov, and p is the
holomorphic form degree of ``hodge_table``).

It also preserves the support J = gamma + sigma.  So the p-stripe is the
direct sum, over the vertex sets J with |J| = p, of one summand per J whose
monomials u_(J - sigma) v_sigma are indexed by the faces sigma of the full
subcomplex K_J: up to signs it is the augmented cochain complex of K_J, and
its (p, q) group is the reduced cohomology H~^(q-1)(K_J) (Hochster, 1977;
Buchstaber–Panov, *Toric Topology*, Thm 3.2.9).  ``cohomology``, the one
engine behind every bigraded table and ``hodge_table``, reads that group off
the connected components of K_J, found from the 1-skeleton:

* a ghost vertex ({v} not a face) spans nothing, so it lies in no
  component; a J of ghosts only (J = ∅ included) has K_J = {∅}, whose
  H~^(-1) is the unit Z in bidegree (|J|, 0);
* the reduced cohomology of a disjoint union is the direct sum over its
  components, plus one free class in H~^0 for each component after the
  first (Hatcher, Prop. 2.6): #components - 1 at (|J|, 1);
* a component C that is a face is a full simplex, acyclic: it adds nothing.
  Every other component is eliminated once, through its own summand
  (``summand(K, C)``), and its groups are cached by the mask of C, since
  the same C recurs in many J (on the cycle C_n: O(n^2) arcs against 2^n
  sets J);
* over Z the invariant factors of all the groups that meet in one
  bidegree are merged by ``direct_sum_torsion``, so Z/2 + Z/3 comes out
  as Z/6: the torsion of the whole stripe.

The unit is the summand of C = ∅, eliminated like any other.  Each
eliminated summand passes ``stripe_cohomology``'s checks: d o d = 0 and no
negative free rank.

``basis`` and ``differential_matrix`` keep the full (p, q) blocks, every J
included, ordered by (sigma mask, gamma mask).  The cell model orders its
(sigma, gamma) cells the same way, so the dual-basis relabeling between the
two models is the identity permutation on each block; ``compare`` and
``corpus`` check that identity on every block (``cells.phi_mismatches``)
but eliminate none of them.  The table of the full stripes is a test
reference only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

from .complexes import SimplicialComplex, card, elements, pos_in
from .linalg import (
    BigradedTable,
    CohomologyBlock,
    ExactMatrix,
    direct_sum_torsion,
    stripe_cohomology,
)

__all__ = [
    "basis",
    "differential_matrix",
    "summand",
    "cohomology",
    "HodgeTable",
    "hodge_table",
]

#: basis element: (gamma, sigma) masks, gamma the exterior part
Basis = tuple[int, int]


def basis(K: SimplicialComplex, p: int, q: int) -> list[Basis]:
    """Monomial basis of the (p, q) component.

    All pairs (gamma, sigma) with sigma a face of cardinality q, gamma of
    cardinality p - q disjoint from sigma; empty when out of range.
    """
    if q < 0 or p < q or p - q > K.n:
        return []
    out = []
    for sigma in K.faces_sorted:
        if card(sigma) != q:
            continue
        for gamma in K.k_subsets(p - q):
            if gamma & sigma == 0:
                out.append((gamma, sigma))
    out.sort(key=lambda gs: (gs[1], gs[0]))
    return out


def _diff_terms(K: SimplicialComplex, gamma: int, sigma: int) -> list[tuple[int, Basis]]:
    """Signed targets of the differential on one basis monomial."""
    out = []
    for i in elements(gamma):
        new_sigma = sigma | (1 << (i - 1))
        if not K.is_face(new_sigma):
            continue
        sign = -1 if (pos_in(gamma, i) - 1) % 2 else 1
        out.append((sign, (gamma & ~(1 << (i - 1)), new_sigma)))
    return out


def differential_matrix(K: SimplicialComplex, p: int, q: int) -> ExactMatrix:
    """Matrix of the differential from the (p, q) basis to the (p, q+1) basis."""
    src = basis(K, p, q)
    dst = basis(K, p, q + 1)
    index = {b: i for i, b in enumerate(dst)}
    entries: dict[tuple[int, int], int] = {}
    for j, (gamma, sigma) in enumerate(src):
        for sign, target in _diff_terms(K, gamma, sigma):
            entries[(index[target], j)] = sign
    return ExactMatrix(len(dst), len(src), entries)


def summand(K: SimplicialComplex, J: int) -> Iterator[ExactMatrix]:
    """The differentials out of (|J|, -1), ..., (|J|, |J|) on the summand of
    J: the monomials u_(J - sigma) v_sigma, sigma a face inside J, with
    |sigma| = q in the (|J|, q) basis, in face order.  J = ∅ gives the unit,
    one monomial at q = 0.
    """
    layers: list[list[int]] = [[] for _ in range(card(J) + 2)]
    for sigma in K.faces_sorted:
        if sigma & J == sigma:
            layers[card(sigma)].append(sigma)
    yield ExactMatrix(len(layers[0]), 0)
    for src, dst in zip(layers, layers[1:]):
        index = {sigma: r for r, sigma in enumerate(dst)}
        entries: dict[tuple[int, int], int] = {}
        for c, sigma in enumerate(src):
            for sign, (_, target) in _diff_terms(K, J & ~sigma, sigma):
                entries[(index[target], c)] = sign
        yield ExactMatrix(len(dst), len(src), entries)


def _components(J: int, neighbors: list[int]) -> list[int]:
    """Vertex masks of the connected components of the graph restricted to
    J; ``neighbors[k]`` is the neighbor mask of the vertex with bit k."""
    out = []
    while J:
        component = frontier = J & -J
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= neighbors[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & J & ~component
            component |= frontier
        J &= ~component
        out.append(component)
    return out


def cohomology(K: SimplicialComplex, coeff: str = "Z") -> BigradedTable:
    """Bigraded cohomology table of the algebra, from the connected
    components of the full subcomplexes K_J of the non-face J (and of J = ∅):
    #components - 1 free classes at (|J|, 1), the unit at (|J|, 0) when K_J
    has no vertex, and the cached groups of each component that is not a
    face.  Each such component's summand is built once and eliminated once;
    the torsion meeting in one bidegree is merged by ``direct_sum_torsion``.
    """
    neighbors = [0] * K.n
    for face in K.faces:
        if card(face) == 2:
            low = face & -face
            neighbors[low.bit_length() - 1] |= face ^ low
            neighbors[(face ^ low).bit_length() - 1] |= low
    cache: dict[int, list[tuple[int, CohomologyBlock]]] = {}
    free: dict[tuple[int, int], int] = defaultdict(int)
    torsion: dict[tuple[int, int], list[tuple[int, ...]]] = defaultdict(list)
    for p in range(K.n + 1):
        for J in K.k_subsets(p):
            if J and K.is_face(J):
                continue
            components = _components(J & K.vertex_support, neighbors)
            if len(components) > 1:
                free[(p, 1)] += len(components) - 1
            for C in components or [0]:
                groups = cache.get(C)
                if groups is None:
                    # a nonempty face is a simplex: acyclic, never eliminated
                    groups = cache[C] = [] if C and K.is_face(C) else [
                        (q, block)
                        for q, block in enumerate(stripe_cohomology(summand(K, C), coeff))
                        if not block.is_trivial()
                    ]
                for q, block in groups:
                    free[(p, q)] += block.free_rank
                    if block.torsion:
                        torsion[(p, q)].append(block.torsion)
    blocks = {
        key: CohomologyBlock(free[key], direct_sum_torsion(torsion[key]))
        for key in free.keys() | torsion.keys()
    }
    return BigradedTable(blocks, coeff)


@dataclass
class HodgeTable:
    """Hodge numbers h(p, q) plus the induced decreasing filtration:
    ``F[(k, s)]``, the rank of the degree-s classes of holomorphic form
    degree at least k, is the sum of h(p, s-p) over p >= k."""

    n: int
    h: dict[tuple[int, int], int]
    filtration: ClassVar[str] = "truncation by holomorphic form degree >= k"

    @cached_property
    def F(self) -> dict[tuple[int, int], int]:
        return {
            (k, s): sum(rank for (p, q), rank in self.h.items() if p >= k and p + q == s)
            for k in range(self.n + 2)
            for s in range(2 * self.n + 1)
        }

    def to_json(self) -> dict:
        return {
            "filtration": self.filtration,
            "h": {f"{p},{q}": r for (p, q), r in sorted(self.h.items())},
            "F": {f"{k},{s}": r for (k, s), r in sorted(self.F.items()) if r},
        }


def hodge_table(K: SimplicialComplex) -> HodgeTable:
    """Hodge numbers h(p, q): the ranks of the table over Q."""
    return HodgeTable(K.n, cohomology(K, "Q").ranks())
