"""Chains subordinate to the cover, resolvents of product cycles, and the
exact pairing against logarithmic cochains.

A chain of Čech degree t and dimension s assigns, alternately, a cell chain
to every (t+1)-tuple of cover indices, supported inside the intersection of
the indexed cover elements: every disk direction of every atom must lie in
every index of the tuple.  Three operators act on these:

* ``delta_prime``: degree down by one, dimension kept:
  (delta' G)_(T) = (-1)^s * sum over indices i of G_(i, T);
* the boundary: ``cells.boundary_chain`` on each component, dimension
  down by one;
* ``epsilon_prime``: sums the components of a degree-0 chain back into one
  cell chain.

A resolvent of a cycle of bidegree (p, q) trades cell boundary against Čech
degree q times: piece k lives in degree k and dimension p + q - k, the
zeroth piece reassembles the cycle under epsilon', and consecutive pieces
satisfy  boundary(piece k) = -delta'(piece k+1).  The construction is the
explicit flag recursion: piece k is supported on tuples
(sigma_k < sigma_(k-1) < ... < sigma_0) of faces that drop one vertex per
step starting from a disk support sigma_0 of the cycle, and piece k+1 at
the extended flag (sigma_k - i, sigma_k, ..., sigma_0) is

    (-1)^(p+q-k) * sum over atoms D_(sigma_k) x S_gamma with coefficient c of
    (-1)^(pos(i, gamma+i)) * c * D_(sigma_k - i) x S_(gamma + i).

Cardinalities increase strictly along a flag, so the flag order coincides
with the canonical storage order of tuples.  Every flag has exactly one
parent, the flag without its first face, so a caller may prune: a prefix
predicate decides which flags enter each piece, and a refused prefix takes
every flag that extends it along.  The ``resolvent`` command keeps them
all; the kernels keep only the prefixes that can still be completed to a
full flag whose pulled-back cocycle can be nonzero.  Either way each piece
is checked as it is built, against all of its children before any is
pruned (``build_resolvent``).

The pairing of a log cochain against a chain of the same degree sums, over
increasing tuples, the integral of the assigned form over the assigned
chain.  Only torus atoms against their own matching index set survive: a
disk factor supports no nonzero integral of a holomorphic form, and on a
torus only the exactly matching logarithmic monomial has a period, worth
(2 pi i) per circle.  A cochain of form degree p therefore pairs to c *
(2 pi i)^p with c rational, and the pairing returns the exact c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container

from .cells import Cell, CellChain, boundary_chain
from .cech import LogCochain
from .complexes import SimplicialComplex, elements, intersection, pos_in
from .linalg import CheckFailed

__all__ = [
    "UChain",
    "delta_prime",
    "epsilon_prime",
    "Resolvent",
    "build_resolvent",
    "pair",
    "resolvent_pairing",
]

FaceTuple = tuple[int, ...]
Terms = dict[Cell, int | Fraction]


def _add_into(acc: Terms, chain: CellChain, factor: int) -> None:
    for cell, coeff in chain.terms.items():
        acc[cell] = acc.get(cell, 0) + factor * coeff


def _wrap(degree: int, dimension: int, values: dict[FaceTuple, Terms]) -> "UChain":
    """One ``CellChain`` per tuple of accumulated terms; zeros drop out."""
    return UChain(degree, dimension, {tup: CellChain(terms) for tup, terms in values.items()})


class UChain:
    """Alternating, finitely supported map from (degree+1)-tuples of cover
    indices to cell chains of one dimension."""

    __slots__ = ("degree", "dimension", "values")

    def __init__(self, degree: int, dimension: int, values: dict[FaceTuple, CellChain] | None = None):
        if degree < 0:
            raise ValueError("negative degree")
        self.degree = degree
        self.dimension = dimension
        self.values: dict[FaceTuple, CellChain] = {}
        if values:
            for tup, chain in values.items():
                if len(tup) != degree + 1:
                    raise ValueError("tuple length does not match the degree")
                if not chain.is_zero():
                    self.values[tup] = chain

    def is_zero(self) -> bool:
        return not self.values

    def supported_in_cover(self) -> bool:
        """Support condition: disk directions of every atom lie inside the
        intersection of the tuple's cover indices."""
        for tup, chain in self.values.items():
            inter = intersection(tup)
            for sigma, _gamma in chain.terms:
                if sigma & ~inter:
                    return False
        return True

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{tuple(list(elements(f)) for f in tup)} -> {chain!r}"
            for tup, chain in sorted(self.values.items())
        )
        return f"UChain(t={self.degree}, s={self.dimension}: {inner})"

    def to_json(self) -> list[dict]:
        return [
            {"tuple": [list(elements(f)) for f in tup], "atoms": chain.to_json()}
            for tup, chain in sorted(self.values.items())
        ]


def delta_prime(g: UChain, at: Container[FaceTuple] | None = None) -> UChain:
    """Čech-type degree lowering: (delta' G)_(T) = (-1)^s sum_i G_(i, T).

    The sum over all cover indices i is implicit: only insertions that land
    in the support contribute, so the computation runs over the support.
    With ``at``, only the tuples T in it are computed.
    """
    if g.degree == 0:
        raise ValueError("delta' is undefined on degree-0 chains")
    sign_s = -1 if g.dimension % 2 else 1
    out: dict[FaceTuple, Terms] = {}
    for tup, chain in g.values.items():
        for j in range(len(tup)):
            # removing position j: G evaluated at (tup[j], rest) picks up the
            # sign of moving index j to the front
            rest = tup[:j] + tup[j + 1 :]
            if at is not None and rest not in at:
                continue
            _add_into(out.setdefault(rest, {}), chain, sign_s * (-1 if j % 2 else 1))
    return _wrap(g.degree - 1, g.dimension, out)


def epsilon_prime(g: UChain) -> CellChain:
    """Sum of the components of a degree-0 chain."""
    if g.degree != 0:
        raise ValueError("epsilon' applies to degree-0 chains only")
    total: Terms = {}
    for chain in g.values.values():
        _add_into(total, chain, 1)
    return CellChain(total)


# ---------------------------------------------------------------------------
# exact pairing
# ---------------------------------------------------------------------------

def pair(w: LogCochain, g: UChain) -> Fraction:
    """Pairing of a log cochain with a cover chain of the same degree: the
    rational c of the value c * (2 pi i)^p, p = ``w.p``.

    Sum over increasing tuples of the period of the assigned form on the
    assigned chain.  Atom periods: a disk factor kills the term, and a
    torus S_gamma pairs only with dz_gamma/z_gamma, period (2 pi i)^|gamma|.
    Homogeneity in the form degree p makes every surviving term carry the
    same power p, so the rational factor determines the value.
    """
    if w.t != g.degree:
        raise ValueError(f"degree mismatch: cochain degree {w.t}, chain degree {g.degree}")
    total = Fraction(0)
    for tup, chain in g.values.items():
        form = w.values.get(tup)
        if form is None:
            continue
        for (sigma, gamma), c in chain.terms.items():
            if sigma:
                continue
            coeff = form.get(gamma)
            if coeff:
                total += Fraction(coeff) * Fraction(c)
    return total


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------

@dataclass
class Resolvent:
    """Pieces 0..q for a cycle of bidegree (p, q); piece k has degree k and
    dimension p + q - k."""

    source: CellChain
    p: int
    q: int
    pieces: list[UChain]

    @property
    def top(self) -> UChain:
        """Last piece: degree q, all atoms pure tori of p circle directions."""
        return self.pieces[self.q]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "cycle": self.source.to_json(),
            "pieces": [piece.to_json() for piece in self.pieces],
        }


def build_resolvent(
    K: SimplicialComplex,
    cycle: CellChain,
    keep: Callable[[FaceTuple], bool] = lambda flag: True,
) -> Resolvent:
    """Resolvent of a closed homogeneous product cycle, by the flag recursion.

    The input must be a cycle (zero boundary) all of whose atoms share one
    bidegree (p, q) and have disk supports inside the complex.

    ``keep`` is asked about every flag prefix (sigma_k, ..., sigma_0)
    before it enters piece k, and a prefix it refuses is dropped with every
    flag that extends it; the default keeps them all.  Every flag has
    exactly one parent, so the kept tuples carry the same coefficients as
    in the whole build.  Every build is checked the same way, as it goes:
    piece 0 must reassemble the cycle and each piece k must agree with all
    of its children (``_check_at_prefixes``; the top has none, so it must
    be closed), both before pruning; then each kept piece must satisfy the
    support condition, and delta' o delta' must vanish on one tuple of
    piece 2.  A failure raises ``CheckFailed``.
    """
    if cycle.is_zero():
        raise ValueError("cannot resolve the zero chain")
    bidegree = cycle.bidegree()
    if bidegree is None:
        raise ValueError("cycle is not homogeneous in bidegree")
    p, q = bidegree
    for sigma, _gamma in cycle.terms:
        if not K.is_face(sigma):
            raise ValueError(f"disk support {elements(sigma)} is not a face")
    if not boundary_chain(cycle).is_zero():
        raise ValueError("chain is not closed")

    def kept(g: UChain) -> UChain:
        return UChain(g.degree, g.dimension, {flag: chain for flag, chain in g.values.items() if keep(flag)})

    # piece 0: group the atoms by their disk support
    grouped: dict[FaceTuple, Terms] = {}
    for (sigma, gamma), c in cycle.terms.items():
        grouped.setdefault((sigma,), {})[(sigma, gamma)] = c
    whole = _wrap(0, p + q, grouped)
    if not epsilon_prime(whole) == cycle:
        raise CheckFailed("piece 0 does not reassemble the source cycle")
    pieces = [kept(whole)]

    for k in range(q):
        sign_k = -1 if (p + q - k) % 2 else 1
        values: dict[FaceTuple, Terms] = {}
        for flag, chain in pieces[k].values.items():
            sigma_k = flag[0]
            for i in elements(sigma_k):
                bit = 1 << (i - 1)
                moved = values.setdefault((sigma_k & ~bit,) + flag, {})
                for (sigma, gamma), c in chain.terms.items():
                    new_gamma = gamma | bit
                    sign = -1 if pos_in(new_gamma, i) % 2 else 1
                    key = (sigma & ~bit, new_gamma)
                    moved[key] = moved.get(key, 0) + sign_k * sign * c
        children = _wrap(k + 1, p + q - k - 1, values)
        _check_at_prefixes(pieces[k], children, k)
        pieces.append(kept(children))
    _check_at_prefixes(pieces[q], UChain(q + 1, p - 1), q)

    # the identity reads only removals of a child's first face, blind to a
    # sign error of delta' at odd positions; on a whole piece delta' o delta'
    # cancels those in pairs too, but on one tuple of piece 2 nothing cancels
    if q >= 2 and pieces[2].values:
        tup, chain = min(pieces[2].values.items())
        probe = UChain(2, pieces[2].dimension, {tup: chain})
        if not delta_prime(delta_prime(probe)).is_zero():
            raise CheckFailed("delta' does not square to zero on piece 2")
    for k, piece in enumerate(pieces):
        if not piece.supported_in_cover():
            raise CheckFailed(f"piece {k} violates the support condition")
    return Resolvent(cycle, p, q, pieces)


def _check_at_prefixes(piece: UChain, children: UChain, k: int) -> None:
    """Raise ``CheckFailed`` unless piece k agrees with ``children``, all
    of piece k+1 that was built from it, before any pruning.

    Each child must differ from a tuple of piece k by its first face alone,
    and boundary(piece k) = -delta'(children) must hold at every tuple of
    piece k, the only tuples where delta' is computed.  The parent check is
    what makes this the whole identity: the tuples are then flags, and
    delta' takes a child to its parent and to no other tuple of piece k,
    since an inner removal leaves a gap in the cardinalities and removing
    the last face leaves a tuple that does not end at a disk support (all
    have q vertices).  A chain under a tuple that is no child could pass
    without it.
    """
    for flag in children.values:
        if flag[1:] not in piece.values:
            faces = [list(elements(face)) for face in flag]
            raise CheckFailed(f"piece {k + 1} holds a chain at {faces}, no child of a tuple of piece {k}")
    reached = delta_prime(children, at=piece.values).values
    for flag, chain in piece.values.items():
        if boundary_chain(chain).scale(-1) != reached.get(flag, CellChain()):
            faces = [list(elements(face)) for face in flag]
            raise CheckFailed(f"resolvent identity fails between pieces {k} and {k + 1} at {faces}")


def resolvent_pairing(res: Resolvent, w: LogCochain) -> Fraction:
    """Total pairing of a pure-bidegree cocycle against a resolvent, as the
    rational factor of (2 pi i)^p that ``pair`` returns.

    Only the piece matching the cochain's Čech degree can contribute; a
    cochain of degree beyond the resolvent length pairs to zero.
    """
    if w.t < 0 or w.t > res.q:
        return Fraction(0)
    return pair(w, res.pieces[w.t])
