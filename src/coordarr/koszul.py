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
  (``summand(K, C)``), and its groups are cached per call by the mask of
  C, since the same C recurs in many J (on the cycle C_n: O(n^2) arcs
  against 2^n sets J).  A caller that runs a batch of complexes
  (``corpus``) may also pass a dict it owns, keyed by the shape of C: the
  faces of K inside C with the vertices of C relabelled 0, ..., |C| - 1
  in increasing order.  That relabelling keeps the mask order of the
  faces (the layer order of the summand) and the number of bits of gamma
  below each vertex (the sign of the differential), so two components of
  one shape have the same summand entry for entry, and the first one
  eliminated serves the batch.  Without that dict nothing outlives the
  call and nothing is shared between components of one complex;
* over Z the invariant factors of all the groups that meet in one
  bidegree are merged by ``direct_sum_torsion``, so Z/2 + Z/3 comes out
  as Z/6: the torsion of the whole stripe.

The unit is the summand of C = ∅, eliminated like any other.  Each
eliminated summand passes ``stripe_cohomology``'s checks: d o d = 0 and no
negative free rank.

The components of each J are derived from those of J minus its top vertex
(``_components_by_subset``, a depth-first walk over the vertex sets), not
searched afresh.

``basis`` and ``differential_matrix`` keep the full (p, q) blocks, every J
included, ordered by (sigma mask, gamma mask); the basis comes out in that
order as it is built, each sigma's gammas taken in mask order.  The cell
model orders its (sigma, gamma) cells the same way, so the dual-basis
relabeling between the two models is the identity permutation on each
block; ``compare`` and ``corpus`` check that identity on every block
(``cells.phi_mismatches``, one walk per p-stripe that hands each basis to
the two blocks it bounds) but eliminate none of them.  The table of the
full stripes is a test reference only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

from .complexes import SimplicialComplex, card
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
    """Monomial basis of the (p, q) component, ordered by (sigma, gamma).

    All pairs (gamma, sigma) with sigma a face of cardinality q, gamma of
    cardinality p - q disjoint from sigma; empty when out of range.  Faces
    come in mask order and each sigma's gammas in mask order, so the list is
    sorted as it is built.
    """
    if q < 0 or p < q or p - q > K.n:
        return []
    gammas = K.k_subsets_by_mask(p - q)
    return [
        (gamma, sigma)
        for sigma in K.faces_sorted
        if card(sigma) == q
        for gamma in gammas
        if not gamma & sigma
    ]


def _diff_terms(K: SimplicialComplex, gamma: int, sigma: int) -> list[tuple[int, Basis]]:
    """Signed targets of the differential on one basis monomial.  The bits
    of gamma are walked from the lowest up, so the sign (-1)^(pos(i, gamma)
    - 1) flips once per bit passed."""
    faces = K.faces
    out = []
    sign = 1
    rest = gamma
    while rest:
        bit = rest & -rest
        rest ^= bit
        if sigma | bit in faces:
            out.append((sign, (gamma ^ bit, sigma | bit)))
        sign = -sign
    return out


def differential_matrix(
    K: SimplicialComplex, p: int, q: int, src: list[Basis] | None = None, dst: list[Basis] | None = None
) -> ExactMatrix:
    """Matrix of the differential from the (p, q) basis to the (p, q+1) basis.

    ``src`` and ``dst`` are those two bases when the caller already holds
    them: the identity check builds each basis once for the two blocks it
    bounds.
    """
    if src is None:
        src = basis(K, p, q)
    if dst is None:
        dst = basis(K, p, q + 1)
    index = {b: i for i, b in enumerate(dst)}
    # every target indexes dst and every sign is ±1: fill the entries in place
    out = ExactMatrix(len(dst), len(src))
    entries = out.entries
    for j, (gamma, sigma) in enumerate(src):
        for sign, target in _diff_terms(K, gamma, sigma):
            entries[(index[target], j)] = sign
    return out


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
        out = ExactMatrix(len(dst), len(src))
        entries = out.entries
        for c, sigma in enumerate(src):
            for sign, (_, target) in _diff_terms(K, J & ~sigma, sigma):
                entries[(index[target], c)] = sign
        yield out


def _components_by_subset(K: SimplicialComplex) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every vertex set J of [n], with the vertex masks of the connected
    components of the 1-skeleton of K restricted to J; a ghost vertex lies
    in no component.

    J comes after J minus its top vertex v, whose components it derives:
    v joins every component it has a neighbor in, or stands alone; a ghost
    v changes nothing.  The walk is depth first, so it holds the children
    of at most n sets at a time.
    """
    neighbors = [0] * K.n
    for face in K.faces:
        if card(face) == 2:
            low = face & -face
            neighbors[low.bit_length() - 1] |= face ^ low
            neighbors[(face ^ low).bit_length() - 1] |= low
    support = K.vertex_support
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        J, components = stack.pop()
        yield J, components
        for top in range(J.bit_length(), K.n):
            if support >> top & 1:
                joined = 1 << top
                apart = []
                for C in components:
                    if C & neighbors[top]:
                        joined |= C
                    else:
                        apart.append(C)
                apart.append(joined)
                stack.append((J | 1 << top, tuple(apart)))
            else:
                stack.append((J | 1 << top, components))


#: groups of eliminated components, by (coeff, ``_shape``)
Shapes = dict[tuple[str, tuple[int, ...]], list[tuple[int, CohomologyBlock]]]


def _shape(K: SimplicialComplex, C: int) -> tuple[int, ...]:
    """The faces of K inside C, in face order, with the vertices of C
    relabelled 0, ..., |C| - 1 in increasing order.  The summand of C reads
    K only through these faces, and the relabelling keeps their mask order
    and the number of bits below each vertex, so two components of one
    shape have the same summand, matrix for matrix."""
    relabel = [(1 << v, 1 << i) for i, v in enumerate(v for v in range(C.bit_length()) if C >> v & 1)]
    return tuple(
        sum(new for old, new in relabel if sigma & old)
        for sigma in K.faces_sorted
        if sigma & C == sigma
    )


def _groups(K: SimplicialComplex, C: int, coeff: str) -> list[tuple[int, CohomologyBlock]]:
    """The nontrivial groups (q, block) of the summand of C, eliminated."""
    return [
        (q, block)
        for q, block in enumerate(stripe_cohomology(summand(K, C), coeff))
        if not block.is_trivial()
    ]


def cohomology(K: SimplicialComplex, coeff: str = "Z", shapes: Shapes | None = None) -> BigradedTable:
    """Bigraded cohomology table of the algebra, from the connected
    components of the full subcomplexes K_J of the non-face J (and of J = ∅):
    #components - 1 free classes at (|J|, 1), the unit at (|J|, 0) when K_J
    has no vertex, and the cached groups of each component that is not a
    face.  Each such component's summand is built once and eliminated once;
    the torsion meeting in one bidegree is merged by ``direct_sum_torsion``.

    ``shapes``, when given, is a dict the caller owns and passes to every
    complex of a batch: a component that misses the per-call cache is then
    looked up there by ``(coeff, _shape(K, C))`` and eliminated only when
    no complex of the batch has eliminated its shape yet.
    """
    cache: dict[int, list[tuple[int, CohomologyBlock]]] = {}
    free: dict[tuple[int, int], int] = defaultdict(int)
    torsion: dict[tuple[int, int], list[tuple[int, ...]]] = defaultdict(list)
    for J, components in _components_by_subset(K):
        if J and K.is_face(J):
            continue
        p = J.bit_count()
        if len(components) > 1:
            free[(p, 1)] += len(components) - 1
        for C in components or [0]:
            groups = cache.get(C)
            if groups is None:
                if C and K.is_face(C):
                    groups = []  # a nonempty face is a simplex: acyclic, never eliminated
                elif shapes is None:
                    groups = _groups(K, C, coeff)
                else:
                    key = (coeff, _shape(K, C))
                    groups = shapes.get(key)
                    if groups is None:
                        groups = shapes[key] = _groups(K, C, coeff)
                cache[C] = groups
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
