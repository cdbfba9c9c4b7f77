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
Buchstaber–Panov, *Toric Topology*, Thm 3.2.9).  When J is a nonempty face,
K_J is a full simplex and the summand is split exact over Z: it carries
neither rank nor torsion.  ``cohomology``, the one engine behind every
bigraded table and ``hodge_table``, therefore assembles only the summands
of the J that are not faces, plus J = ∅ -- a face, but its summand is the
unit in bidegree (0, 0), since the complex {∅} has H~^(-1) = Z.  Their
monomials are grouped by J, so each differential is one block-diagonal
matrix per (p, q), eliminated once; the Smith form of a
block-diagonal matrix is that of the direct sum, so the torsion is the full
stripe's.

``basis`` and ``differential_matrix`` keep the full (p, q) blocks, every J
included, ordered by (sigma mask, gamma mask).  The cell model orders its
(sigma, gamma) cells the same way, so the dual-basis relabeling between the
two models is the identity permutation on each block; ``compare`` and
``corpus`` check that identity on every block (``cells.phi_mismatches``)
but eliminate none of them.  The table of the full stripes is a test
reference only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator

from .complexes import SimplicialComplex, card, elements, pos_in
from .linalg import BigradedTable, ExactMatrix, stripe_cohomology

__all__ = [
    "basis",
    "differential_matrix",
    "stripe_table",
    "summand_stripe",
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


def stripe_table(stripes: Iterable[Iterable[ExactMatrix]], coeff: str = "Z") -> BigradedTable:
    """Table of the stripes p = 0, 1, ..., read one at a time; the group
    between d_(q-1) and d_q is the (p, q) block."""
    blocks = {}
    for p, maps in enumerate(stripes):
        for q, block in enumerate(stripe_cohomology(maps, coeff)):
            blocks[(p, q)] = block
    return BigradedTable(blocks, coeff)


def summand_stripe(K: SimplicialComplex, p: int) -> Iterator[ExactMatrix]:
    """The differentials out of (p, -1), ..., (p, p) restricted to the
    summands that can carry cohomology: the J with |J| = p that are not
    faces, and J = ∅ at p = 0.  The (p, q) basis is the monomials
    u_(J - sigma) v_sigma with |sigma| = q, grouped by J, so each map is
    block-diagonal with one block per J.  A stripe without such a J
    yields no maps.
    """
    if p == 0:
        supports = [0]
    else:
        supports = [J for J in K.k_subsets(p) if not K.is_face(J)]
    if not supports:
        return
    layers: list[list[tuple[int, int]]] = [[] for _ in range(p + 2)]
    for J in supports:
        for sigma in K.faces_sorted:
            if sigma & J == sigma:
                layers[card(sigma)].append((J, sigma))
    yield ExactMatrix(len(layers[0]), 0)
    for src, dst in zip(layers, layers[1:]):
        index = {b: r for r, b in enumerate(dst)}
        entries: dict[tuple[int, int], int] = {}
        for c, (J, sigma) in enumerate(src):
            for sign, (_, target) in _diff_terms(K, J & ~sigma, sigma):
                entries[(index[(J, target)], c)] = sign
        yield ExactMatrix(len(dst), len(src), entries)


def cohomology(K: SimplicialComplex, coeff: str = "Z") -> BigradedTable:
    """Bigraded cohomology table of the algebra, stripe by stripe, from the
    summands of the J that are not faces (``summand_stripe``); each
    differential is built once and eliminated once.
    """
    return stripe_table((summand_stripe(K, p) for p in range(K.n + 1)), coeff)


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
