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
engine behind every bigraded table and ``hodge_table``, sums those groups
over the connected vertex sets C of the 1-skeleton, each met once by
``_connected_sets`` (on the cycle C_n, n(n - 1) + 1 sets against 2^n sets
J).  A nonempty C is a component of K_J exactly when C ⊆ J and J - C holds
no neighbour of C: for C(n - |N[C]|, p - |C|) sets J of size p, N[C] the
closed neighbourhood of C.  A ghost vertex ({v} not a face) lies in no C.

* a C that is a face is a full simplex, acyclic: it adds nothing.  Every
  other C has the groups of its own summand (``summand(K, C)``), which go
  to (|C| + s, q), C(n - |N[C]|, s) times;
* a disjoint union has one more free class in H~^0 per component after
  the first (Hatcher, Prop. 2.6).  At (p, 1) these sum to the count above
  over every C, faces included, minus one per J of size p with a vertex:
  C(n, p) - C(g, p), g the number of ghosts;
* a J of ghosts only (∅ included) has K_J = {∅}, whose H~^(-1) is the unit
  Z at (|J|, 0): the summand of C = ∅ goes to (s, 0), C(g, s) times;
* over Z the invariant factors of the groups that meet in one bidegree are
  merged by ``direct_sum_torsion`` from (factors, count) parts, so
  Z/2 + Z/3 comes out as Z/6: the torsion of the whole stripe.

Two components of one shape (``_shape``) have the same summand entry for
entry, so ``cohomology`` keeps the groups in a dict keyed by the shape and
eliminates each shape once: the first C of a shape serves every later one
(on RP², 15 eliminations for the 32 non-face sets and the unit).  The dict
lives for the call, unless the caller passes one it owns to every complex
of a batch (``corpus``), which then eliminates each shape once per batch.

Each eliminated summand passes ``stripe_cohomology``'s checks: d o d = 0
and no negative free rank.  The table then passes ``_check_euler``, which
reads no elimination: in every p-stripe the alternating sum of the free
ranks over q is the one the f-vector of K predicts, so a lost or wrong
count of free classes fails unless it cancels in that sum.

``basis`` and ``differential_matrix`` keep the full (p, q) blocks, every J
included, ordered by (sigma mask, gamma mask); the basis comes out in that
order as it is built, each sigma's gammas taken in mask order.  The cell
model orders its (sigma, gamma) cells the same way, so the dual-basis
relabeling between the two models is the identity permutation on each
block.  ``compare`` and ``corpus`` check that identity on every block
(``cells.phi_mismatches``) entry by entry, from ``_diff_terms`` and the
cell model's own term formula, one summand J at a time, face J included,
and build neither a basis nor a matrix for it, so no command calls
``basis`` or ``differential_matrix``.  ``corpus`` keeps a third cache for
the batch, next to the shapes and the Čech families: the check's result
per J and faces of K inside J, so each summand is checked once per run.
The table of the full stripes is a test reference only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import ClassVar, Iterator

from .complexes import SimplicialComplex, card, elements
from .linalg import (
    BigradedTable,
    CheckFailed,
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
    cardinality p - q drawn from the bits outside sigma; empty when out of
    range.  Faces come in mask order and each sigma's gammas in mask order,
    so the list is sorted as it is built.
    """
    if p < q:
        return []
    bits = [1 << v for v in range(K.n)]
    return [
        (gamma, sigma)
        for sigma in K.faces_sorted
        if card(sigma) == q
        for gamma in sorted(map(sum, combinations([bit for bit in bits if not bit & sigma], p - q)))
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


def differential_matrix(K: SimplicialComplex, p: int, q: int) -> ExactMatrix:
    """Matrix of the differential from the (p, q) basis to the (p, q+1) basis."""
    src = basis(K, p, q)
    index = {b: i for i, b in enumerate(basis(K, p, q + 1))}
    # every target indexes the (p, q+1) basis and every sign is ±1: fill the
    # entries in place
    out = ExactMatrix(len(index), len(src))
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


def _neighbors(K: SimplicialComplex) -> list[int]:
    """The mask of the neighbours of each vertex in the 1-skeleton of K."""
    neighbors = [0] * K.n
    for face in K.faces:
        if card(face) == 2:
            low = face & -face
            neighbors[low.bit_length() - 1] |= face ^ low
            neighbors[(face ^ low).bit_length() - 1] |= low
    return neighbors


def _connected_sets(K: SimplicialComplex, neighbors: list[int]) -> Iterator[tuple[int, int]]:
    """Every nonempty vertex set C that is connected in the 1-skeleton of K,
    once each, with its closed neighbourhood N[C]; a ghost vertex lies in
    no C.

    C grows from its lowest vertex v by include/exclude decisions on its
    frontier, the undecided vertices of N[C] - C above v: each frontier
    vertex in turn is added to a child, then excluded from the children
    after it (Wernicke, IEEE/ACM TCBB 3, 2006).  A set is reached only
    along the decisions its own vertices dictate, so it comes out once.
    """
    for v in elements(K.vertex_support):
        above = ((1 << K.n) - 1) >> v << v  # the vertices above v
        stack = [(1 << v - 1, 1 << v - 1 | neighbors[v - 1], 0)]
        while stack:
            C, closed, excluded = stack.pop()
            yield C, closed
            frontier = closed & above & ~C & ~excluded
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                stack.append((C | bit, closed | neighbors[bit.bit_length() - 1], excluded))
                excluded |= bit


#: groups of eliminated components, by (coeff, ``_shape``)
Shapes = dict[tuple[str, tuple[int, ...]], list[tuple[int, CohomologyBlock]]]


def _shape(K: SimplicialComplex, C: int) -> tuple[int, ...]:
    """The faces of K inside C, in face order, with the vertices of C
    relabelled 0, ..., |C| - 1 in increasing order.  The summand of C reads
    K only through these faces, and the relabelling keeps their mask order
    (the layer order of the summand) and the number of bits of gamma below
    each vertex (the sign of the differential), so two components of one
    shape have the same summand, matrix for matrix."""
    relabel = [(1 << v, 1 << i) for i, v in enumerate(v for v in range(C.bit_length()) if C >> v & 1)]
    return tuple(
        sum(new for old, new in relabel if sigma & old)
        for sigma in K.faces_sorted
        if sigma & C == sigma
    )


def _groups(K: SimplicialComplex, C: int, coeff: str, shapes: Shapes) -> list[tuple[int, CohomologyBlock]]:
    """The nontrivial groups (q, block) of the summand of C: read from
    ``shapes`` under ``(coeff, _shape(K, C))`` when a component of that
    shape was eliminated before, else eliminated and kept there."""
    key = (coeff, _shape(K, C))
    if key not in shapes:
        groups = stripe_cohomology(summand(K, C), coeff)
        shapes[key] = [(q, block) for q, block in enumerate(groups) if not block.is_trivial()]
    return shapes[key]


def cohomology(K: SimplicialComplex, coeff: str = "Z", shapes: Shapes | None = None) -> BigradedTable:
    """Bigraded cohomology table of the algebra, summed over the connected
    vertex sets C with the binomial multiplicities of the module docstring:
    the groups of each C that is not a face, eliminated once per shape, the
    extra H~^0 classes at (p, 1), and the unit.  The torsion meeting in one
    bidegree is merged by ``direct_sum_torsion``; the free ranks must pass
    ``_check_euler`` (``CheckFailed`` otherwise).

    ``shapes`` holds the groups by ``(coeff, _shape(K, C))``: a fresh dict
    for this call when not given, else a dict the caller owns and passes to
    every complex of a batch, so a shape any complex of the batch has
    eliminated is not eliminated again.
    """
    shapes = {} if shapes is None else shapes
    n, ghosts = K.n, K.n - card(K.vertex_support)
    neighbors = _neighbors(K)
    summands = [(0, ghosts)]  # (C, how many vertices J - C may hold): the unit, then each non-face C
    spread: dict[tuple[int, int], int] = defaultdict(int)  # connected sets by (|C|, n - |N[C]|)
    for C, closed in _connected_sets(K, neighbors):
        spread[(card(C), n - card(closed))] += 1
        if not K.is_face(C):
            summands.append((C, n - card(closed)))
    free: dict[tuple[int, int], int] = defaultdict(int)
    torsion: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = defaultdict(list)
    for C, outside in summands:
        groups = _groups(K, C, coeff, shapes)
        for s in range(outside + 1):
            for q, block in groups:
                free[(card(C) + s, q)] += comb(outside, s) * block.free_rank
                if block.torsion:
                    torsion[(card(C) + s, q)].append((block.torsion, comb(outside, s)))
    for (size, outside), count in spread.items():
        for s in range(outside + 1):
            free[(size + s, 1)] += count * comb(outside, s)
    for p in range(1, n + 1):
        free[(p, 1)] -= comb(n, p) - comb(ghosts, p)
    _check_euler(K, free)
    blocks = {
        key: CohomologyBlock(free[key], direct_sum_torsion(torsion[key]) if key in torsion else ())
        for key in free.keys() | torsion.keys()
    }
    return BigradedTable(blocks, coeff)


def _check_euler(K: SimplicialComplex, free: dict[tuple[int, int], int]) -> None:
    """Raise ``CheckFailed`` on a negative free rank, or on a p-stripe
    whose free ranks do not have the Euler characteristic the f-vector
    gives: the summand of J contributes -χ̃(K_J), the sum of (-1)^|σ| over
    the faces σ ⊆ J, so stripe p sums (-1)^k f_k C(n - k, p - k) over k,
    f_k the number of faces of size k, ∅ included.  No elimination is read.
    """
    f = [0] * (K.n + 1)
    for sigma in K.faces:
        f[card(sigma)] += 1
    chi = [sum((-1) ** k * f[k] * comb(K.n - k, p - k) for k in range(p + 1)) for p in range(K.n + 1)]
    for (p, q), rank in free.items():
        if rank < 0:
            raise CheckFailed(f"negative free rank {rank} at ({p}, {q})")
        chi[p] -= (-1) ** q * rank
    if any(chi):
        wrong = [p for p, rest in enumerate(chi) if rest]
        raise CheckFailed(f"free ranks break the Euler characteristic of the stripes p = {wrong}")


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
