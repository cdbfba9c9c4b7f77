"""Cellular chain model of the arrangement complement.

The complement deformation-retracts onto a union of products of closed
disks and circles sitting on the boundary of the unit polydisc; one cell
per pair (sigma, gamma) with sigma a face of the complex and gamma a set of
circle directions disjoint from it.  The cell has real dimension
2|sigma| + |gamma| and bidegree (p, q) = (|sigma| + |gamma|, |sigma|).

Boundary convention (this is the single orientation choice everything else
hangs off): the boundary of a product chain moves one disk direction i onto
the circle factor,

    d(D_sigma x S_gamma) = sum over i in sigma of
                           (-1)^(pos(i, gamma + i)) * D_(sigma - i) x S_(gamma + i),

with pos the 1-based position of i in the sorted union.  No term ever drops
a circle direction: the two endpoints of a circle's 1-cell cancel.  The
coboundary on dual cocells is the *negated* transpose of this boundary; with
the plain transpose the relabeling map from the Koszul-model monomials to
dual cocells anticommutes with the differentials, with the negated one it
commutes on the nose, making the relabeling an isomorphism of differential
bigraded modules.  Blockwise this says that the coboundary matrices equal
the algebra model's differential matrices; ``phi_mismatches`` compares the
two on every block, face J included, entry by entry and without
eliminating any, which is the working check on both sign conventions (a
flipped sign shows up even when every rank survives it).  It builds no
basis and no matrix.  Both differentials preserve the support J = sigma +
gamma, so it walks each vertex set J once, with the faces inside it: the
summand of J is one dict of (source, target) entries, filled from the
algebra model's terms and emptied again by the cell model's, so a
missing, extra or different entry names its block (|J|, q).  Both term
formulas read K only through whether sigma + i, a subset of J, is a face,
so a summand's result is fixed by J and the faces of K inside J; a batch
(``corpus``) keeps it under that key and checks each summand once.  The
term formulas walk the set bits of a mask lowest first (``x & -x``); the
sign comes from the number of bits below, with no vertex list.
``boundary_matrix`` and ``coboundary_matrix`` build the blocks as
matrices, the former for ``homology``.

``homology(K, p, q)`` gives the cycle generators of the one bidegree a
resolvent or a kernel starts from, from the two boundary maps at (p, q)
alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import koszul
from .complexes import SimplicialComplex, card, elements
from .linalg import CheckFailed, ExactMatrix, compose_is_zero, kernel_basis, quotient_basis

__all__ = [
    "Cell",
    "cells_of_bidegree",
    "boundary_matrix",
    "coboundary_matrix",
    "CellChain",
    "boundary_chain",
    "phi_mismatches",
    "homology",
]

#: a cell: (sigma, gamma) masks, sigma the disk directions (a face)
Cell = tuple[int, int]


def cells_of_bidegree(K: SimplicialComplex, p: int, q: int) -> list[Cell]:
    """Cells of bidegree (p, q), ordered by (sigma, gamma) mask pair --
    the same order the algebra model uses for its monomials.  Faces come in
    mask order and each sigma's gammas, drawn from the bits outside it, in
    mask order, so the list is sorted as it is built."""
    if p < q:
        return []
    bits = [1 << v for v in range(K.n)]
    return [
        (sigma, gamma)
        for sigma in K.faces_sorted
        if card(sigma) == q
        for gamma in sorted(map(sum, combinations([bit for bit in bits if not bit & sigma], p - q)))
    ]


def _boundary_terms(sigma: int, gamma: int) -> list[tuple[int, Cell]]:
    """Signed faces of one cell: each bit i of sigma moved onto the circles,
    with sign (-1)^pos(i, gamma + i), pos being one more than the number of
    gamma bits below i."""
    out = []
    rest = sigma
    while rest:
        bit = rest & -rest
        rest ^= bit
        sign = 1 if (gamma & (bit - 1)).bit_count() & 1 else -1
        out.append((sign, (sigma ^ bit, gamma | bit)))
    return out


def boundary_matrix(K: SimplicialComplex, p: int, q: int) -> ExactMatrix:
    """Boundary from bidegree (p, q) chains to (p, q-1) chains."""
    src = cells_of_bidegree(K, p, q)
    index = {c: i for i, c in enumerate(cells_of_bidegree(K, p, q - 1))}
    # every target indexes the (p, q-1) cells and every sign is ±1: fill the
    # entries in place
    out = ExactMatrix(len(index), len(src))
    entries = out.entries
    for j, (sigma, gamma) in enumerate(src):
        for sign, target in _boundary_terms(sigma, gamma):
            entries[(index[target], j)] = sign
    return out


def coboundary_matrix(K: SimplicialComplex, p: int, q: int) -> ExactMatrix:
    """Coboundary from (p, q) cochains to (p, q+1) cochains: minus the
    transpose of the (p, q+1) boundary (see the module docstring)."""
    d = boundary_matrix(K, p, q + 1)
    return ExactMatrix(d.cols, d.rows, {(c, r): -v for (r, c), v in d.entries.items()})


class CellChain:
    """Integer/rational combination of product cells, used as a cycle."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Cell, int | Fraction] | None = None):
        self.terms: dict[Cell, int | Fraction] = {}
        if terms:
            for cell, coeff in terms.items():
                if coeff:
                    self.terms[cell] = coeff

    def bidegree(self) -> tuple[int, int] | None:
        degrees = {(card(s) + card(g), card(s)) for s, g in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, factor: int | Fraction) -> "CellChain":
        return CellChain({k: factor * v for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellChain) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (sigma, gamma), coeff in sorted(self.terms.items()):
            label = f"D{list(elements(sigma))}xS{list(elements(gamma))}"
            bits.append(f"{'+' if coeff > 0 else '-'}{abs(coeff) if abs(coeff) != 1 else ''}{label}")
        return " ".join(bits)

    def to_json(self) -> list[dict]:
        return [
            {"sigma": list(elements(s)), "gamma": list(elements(g)), "coeff": int(c)}
            for (s, g), c in sorted(self.terms.items())
        ]


def boundary_chain(chain: CellChain) -> CellChain:
    out: dict[Cell, int | Fraction] = {}
    for (sigma, gamma), coeff in chain.terms.items():
        for sign, target in _boundary_terms(sigma, gamma):
            out[target] = out.get(target, 0) + sign * coeff
    return CellChain(out)


#: the q at which the summand of J differs, by (J, faces of K inside J) (``phi_mismatches``)
Checked = dict[tuple[int, tuple[int, ...]], frozenset[int]]


def phi_mismatches(K: SimplicialComplex, checked: Checked | None = None) -> list[tuple[int, int]]:
    """The bidegrees (p, q), p in 0..n and q in -1..p, where the algebra
    model's differential (``koszul._diff_terms``, the summands of face J
    included) differs from the cell coboundary, signs included.

    Both differentials preserve J = sigma + gamma, so the check walks each
    J in [n] once, grown one vertex above its top at a time, with the faces
    inside it grown alongside: those inside J + v are those inside J and
    each sigma + v that is a face.  Each summand is compared entry by entry
    (``_summand_differs``), not eliminated, and from each model's own term
    formula; no basis or matrix is built.  With no mismatch, the relabeling
    of each monomial u_gamma v_sigma as the dual cocell of (sigma, gamma)
    commutes with the differentials, and the cell cohomology is the algebra
    model's table by construction.

    Both term formulas read K only through whether sigma + i is a face, with
    sigma + i inside J, so a summand's result is fixed by J and the faces of
    K inside J.  ``checked``, keyed by exactly that pair, keeps the result
    for every later complex of a batch (``corpus``).  Without it nothing
    outlives the call: J never repeats within one complex.
    """
    faces = K.faces
    n = K.n
    differs: set[tuple[int, int]] = set()
    stack = [(0, [0])]
    while stack:
        J, inside = stack.pop()
        if checked is None:
            qs = _summand_differs(K, J, inside)
        else:
            key = (J, tuple(inside))
            qs = checked.get(key)
            if qs is None:
                qs = checked[key] = _summand_differs(K, J, inside)
        if qs:
            p = card(J)
            differs.update((p, q) for q in qs)
        for v in range(J.bit_length(), n):
            bit = 1 << v
            stack.append((J | bit, inside + [sigma | bit for sigma in inside if sigma | bit in faces]))
    return sorted(differs)


def _summand_differs(K: SimplicialComplex, J: int, inside: list[int]) -> frozenset[int]:
    """The q at which the summand of J differs between the two models, its
    sources (J - sigma, sigma) taken over the faces sigma inside J.  The
    differential terms of every monomial go into one dict, keyed by the
    masks (gamma, sigma) of source and target monomial; the boundary terms
    of every cell take them out again, read as coboundary entries (source
    and target swapped, sign flipped).  An entry that is missing, different,
    left over or outside the summand marks its block: q is |sigma| of a
    left-over monomial source, |sigma| - 1 of a failing cell source."""
    diff_terms, boundary_terms = koszul._diff_terms, _boundary_terms
    entries: dict[tuple[int, int, int, int], int] = {}
    for sigma in inside:
        gamma = J ^ sigma
        for sign, (gamma_above, sigma_above) in diff_terms(K, gamma, sigma):
            entries[gamma, sigma, gamma_above, sigma_above] = sign
    qs = set()
    for sigma in inside:
        gamma = J ^ sigma
        for sign, (face, circles) in boundary_terms(sigma, gamma):
            if entries.pop((circles, face, gamma, sigma), None) != -sign:
                qs.add(card(sigma) - 1)
    qs.update(card(sigma) for _, sigma, _, _ in entries)
    return frozenset(qs)


def homology(K: SimplicialComplex, p: int, q: int) -> list[CellChain]:
    """Free generators of the cellular homology in bidegree (p, q).

    Only the boundary maps into and out of (p, q) are built, and they must
    compose to zero (``CheckFailed`` otherwise).  The generators are kernel
    vectors reduced to echelon form modulo the boundary image, scaled to
    primitive integer chains.  There are h(p, q) of them, none where the
    block is zero or (p, q) is out of range.
    """
    d_here = boundary_matrix(K, p, q)
    d_above = boundary_matrix(K, p, q + 1)
    if not compose_is_zero(d_here, d_above):
        raise CheckFailed(f"cell boundary does not square to zero at ({p}, {q})")
    basis_cells = cells_of_bidegree(K, p, q)
    return [
        CellChain({basis_cells[i]: v for i, v in vec.items()})
        for vec in quotient_basis(kernel_basis(d_here), d_above)
    ]
