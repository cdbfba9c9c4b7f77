"""Finite Čech complex of the arrangement cover with constant logarithmic
coefficients.

The cover elements are indexed by faces; on the element indexed by tau the
coordinates z_i with i outside tau are nonzero, so the closed form
dz_I/z_I (ascending wedge of dz_i/z_i over I) is holomorphic there exactly
when I misses tau.  A cochain of Čech degree t and form degree p assigns to
every strictly increasing (t+1)-tuple of cover indices a constant-coefficient
combination of such forms, held as a plain dict {I mask: coefficient} and
subject to that admissibility constraint on the tuple's intersection.  The
exterior derivative kills every dz_I/z_I, so the total differential of the
double complex collapses to the Čech coboundary

    (delta w)_(T') = (-1)^p * sum_j (-1)^j * w_(T' minus j-th index),

the (-1)^p factor being the sign that makes the Čech and de Rham halves of
the ambient double complex anticommute.  Restriction along a larger tuple is
the identity on coefficients: intersections only shrink, so admissible terms
stay admissible.

Every face sits inside some facet, so the subcover indexed by the facets
and the full cover refine one another, and mutually refining covers have
canonically isomorphic Čech cohomology for any coefficient presheaf.
Tables and representatives are therefore computed on the small facet
cover, and representatives are pulled back to the face cover, where
resolvents of cycles live, along r: face -> first containing facet.
``_CechEngine`` takes its tuple of cover indices, so the test suite also
runs it on the face cover and checks that the two tables agree on small
complexes.

The pullback is evaluated on demand: its value at a face tuple T is the
facet cochain's value at r(T), sign of the sorting permutation included and
zero when two faces of T share a facet.  ``pullback_to_faces`` applies this
one rule at the tuples a caller asks for (the kernels ask for the support
of a resolvent's top piece).

Internally each (p, t) block splits as a direct sum over the index sets I
(the coboundary never mixes the dz_I/z_I coefficients).  On m cover
indices a tuple is a position mask, the set of the index positions it
takes; the masks of each size are listed in the order of their tuples,
and a mask becomes its tuple only when a cochain is written.  A tuple's
intersection holds the vertex v exactly when its mask lies inside star(v),
the positions of the indices holding v.  So the admissible tuples of the
component of I, the masks inside no star of I, are the relative cochains
of a pair (Δ, X_I): Δ is the full simplex on the m positions, and X_I the
union over i in I of the nonempty submasks of star(i).  Δ is acyclic, so
the long exact sequence of the pair (Hatcher, Thm 2.16 and §3.1) gives the
component's H^q as the reduced H~^(q-1)(X_I), which is Q at q = 0 when
X_I is empty.  ``cohomology`` computes each component from the smaller
family, chosen from sizes known before any work: |X_I| is at most the sum
of 2^|star(i)| - 1, and the admissible side holds the other 2^m - 1 - |X_I|
masks; a tie goes to the admissible side.  X_I is built straight from the
stars, so that side never enumerates the masks of the whole cover: a
sparse cover of many indices costs what its X_I hold.  The component
depends on I only through the number m of cover indices and the family of
its nonempty stars (X_I is their union of simplices, on either side), and
its dimensions do not change when the m positions are permuted: the side
rule reads only the star sizes, and H~ of X_I does not see the labels of
its vertices.  So the dimensions are cached by the family up to a
permutation of the positions, keyed by the sorted position signatures
(per position, the stars that hold it); on the boundary of the n-simplex
the 2^n index sets fall into n + 1 such classes.  The exact key
(m, family) is looked up first and the signatures are computed only when
it misses.  The cache lives per call, or across a batch of complexes in a
dict the caller owns and passes in (``corpus``), since neither key holds
anything else of the complex.  The computation never reads the algebra
model: X_I is a complex on cover positions, and no nerve lemma is used.

Both families go through one pass.  The coboundary sends a mask to its
faces with alternating signs and skips a face outside the family: on the
admissible side that face is inadmissible, and the skip is the relative
coboundary; X_I holds every nonempty face of its simplices.  The pass
eliminates from the top size down, with clearing (Chen–Kerber,
"Persistent homology computation with a twist", 2011;
Bauer–Kerber–Reininghaus, "Clear and compress", 2014): the pivot columns
P of delta_t, a basis of its column space, are deleted from the rows of
delta_(t-1).  The rank survives because delta_t o delta_(t-1) = 0:
ker delta_t meets span(e_P) only in 0, so the image of delta_(t-1)
projects injectively away from P.  The pass gives the unreduced
dimensions of the family; on the X_I side the augmentation, the empty
simplex mapping with rank 1 onto the vertices of a nonempty X_I, is
applied afterwards and shifts them to the reduced ones.

The model has two jobs: ``cohomology`` is the independent oracle for the
algebra model's tables (which also give the Hodge table), so this module
never imports that model; and ``representative_cocycles`` gives the
cocycles the kernels are built from, on the facet cover, for them to be
pulled back where they pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, card, elements, face_key
from .linalg import (
    BigradedTable,
    CheckFailed,
    CohomologyBlock,
    ExactMatrix,
    kernel_basis,
    quotient_basis,
    rank_rational,
)

__all__ = [
    "LogCochain",
    "cohomology",
    "representative_cocycles",
    "pullback_to_faces",
]

FaceTuple = tuple[int, ...]

#: component dimensions by the exact key (m, star family) and by the sorted
#: position signatures of the family, a tuple of ints that never equals an
#: exact key; see ``_CechEngine.component``
Families = dict[tuple, list[int]]


def _intersection(tup: Iterable[int]) -> int:
    inter = -1
    for m in tup:
        inter &= m
    return inter


def canonical_tuple(tup: Sequence[int]) -> tuple[FaceTuple, int] | None:
    """Sort a tuple of cover indices into the face order; returns
    (sorted tuple, permutation sign), or None when an index repeats."""
    if len(set(tup)) != len(tup):
        return None
    keyed = sorted(range(len(tup)), key=lambda i: face_key(tup[i]))
    sign = _perm_sign(keyed)
    return tuple(tup[i] for i in keyed), sign


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


#: a constant log form  sum_I c_I dz_I/z_I, as {I mask: c_I}
Form = dict[int, int | Fraction]


class LogCochain:
    """Alternating cochain: increasing cover-index tuples -> log forms of
    degree p.

    Every index set I of a value has |I| = p and misses the intersection of
    its tuple, so the form is holomorphic there; zero coefficients and empty
    forms are dropped.  Values are stored on canonically sorted tuples only;
    evaluation on an arbitrary tuple applies the permutation sign (and is
    zero on repeats), which realizes alternation without storing redundant
    data.
    """

    __slots__ = ("p", "t", "values")

    def __init__(self, p: int, t: int, values: dict[FaceTuple, Form] | None = None):
        self.p = p
        self.t = t
        self.values: dict[FaceTuple, Form] = {}
        if values:
            for tup, form in values.items():
                if len(tup) != t + 1:
                    raise ValueError("tuple length does not match the Čech degree")
                inter = _intersection(tup)
                kept: Form = {}
                for mask, coeff in form.items():
                    if card(mask) != p:
                        raise ValueError(
                            f"index set {elements(mask)} has wrong degree (expected {p})"
                        )
                    if coeff:
                        if mask & inter:
                            raise ValueError(
                                f"dz{list(elements(mask))}/z not holomorphic on the "
                                f"intersection of {tup}"
                            )
                        kept[mask] = coeff
                if kept:
                    self.values[tup] = kept

    def value_at(self, tup: Sequence[int]) -> Form:
        canon = canonical_tuple(tup)
        if canon is None:
            return {}
        key, sign = canon
        form = self.values.get(key, {})
        return form if sign == 1 else {m: -c for m, c in form.items()}

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{tuple(list(elements(f)) for f in tup)} -> "
            + " ".join(f"({c})dz{list(elements(m))}/z" for m, c in sorted(form.items()))
            for tup, form in sorted(self.values.items(), key=lambda kv: tuple(map(face_key, kv[0])))
        )
        return f"LogCochain(p={self.p}, t={self.t}: {inner})"

    def to_json(self) -> list[dict]:
        out = []
        for tup, form in sorted(self.values.items(), key=lambda kv: tuple(map(face_key, kv[0]))):
            out.append(
                {
                    "tuple": [list(elements(f)) for f in tup],
                    "forms": [
                        {"I": list(elements(m)), "coeff": str(Fraction(c))}
                        for m, c in sorted(form.items())
                    ],
                }
            )
        return out


# ---------------------------------------------------------------------------
# blocks of the complex
# ---------------------------------------------------------------------------

class _CechEngine:
    """Per-complex cache for the cover with the given indices: the stars,
    and for the admissible side the masks of each size and their per-vertex
    admissibility bitmaps, built only when an index set takes that side.
    The component dimensions are kept in ``families`` (see ``component``),
    a dict the caller owns and may share between complexes, or a fresh one
    per engine.

    ``component`` is the one per-index-set route of ``table``; it picks
    between ``dimensions`` (admissible masks) and ``x_dimensions`` (the
    subcomplex X_I from the stars), which run the same pass over their
    family and give the same list."""

    def __init__(self, K: SimplicialComplex, indices: tuple[int, ...], families: Families | None = None):
        self.K = K
        self.indices = indices
        self.m = len(self.indices)
        # per vertex bit v, the star of v: the bitmask of the positions of
        # the cover indices holding v
        self._stars = [
            sum(1 << j for j, index in enumerate(indices) if index >> v & 1) for v in range(K.n)
        ]
        # (m, family of nonempty stars) and position signatures -> dimensions
        self._by_stars = {} if families is None else families
        self._masks: dict[int, list[int]] = {}
        self._meets_cache: dict[int, list[int]] = {}

    def masks(self, size: int) -> list[int]:
        """All position masks with the given number of elements, in the
        order of their index tuples."""
        if size not in self._masks:
            bit = [1 << j for j in range(self.m)]
            self._masks[size] = [sum(map(bit.__getitem__, c)) for c in combinations(range(self.m), size)]
        return self._masks[size]

    def _meets(self, size: int) -> list[int]:
        """Per vertex bit v, the bitmap of the positions in ``masks(size)``
        of the masks inside star(v): the tuples whose intersection holds v."""
        if size not in self._meets_cache:
            masks = self.masks(size)[::-1]
            self._meets_cache[size] = [
                int("0" + "".join("0" if mask & outside else "1" for mask in masks), 2)
                for outside in [~star for star in self._stars]
            ]
        return self._meets_cache[size]

    def admissible(self, size: int, iset: int) -> list[int]:
        """The masks of the given size inside no star of the index set, in
        tuple order, from one bitmap operation per vertex of the set."""
        masks = self.masks(size)
        bitmap = (1 << len(masks)) - 1
        meets = self._meets(size)
        for v in range(iset.bit_length()):
            if iset >> v & 1:
                bitmap &= ~meets[v]
        return [masks[i] for i in _bits(bitmap)]

    def block(self, iset: int, t: int) -> ExactMatrix:
        """Degree-t coboundary on the index-set component, from the
        admissible (t+1)-tuples to the admissible (t+2)-tuples, before the
        form-degree sign; the complex is not augmented, so for t < 0 it is
        the empty map into degree 0."""
        rows = self.admissible(t + 2, iset)
        if t < 0:
            return ExactMatrix(len(rows), 0)
        return _simplex_coboundary(rows, self.admissible(t + 1, iset))

    def dimensions(self, iset: int) -> list[int]:
        """dim of the degree-q cohomology of the index-set component, for
        every q = 0, ..., m-1: the pass over the admissible masks."""
        return _cleared_dimensions([[]] + [self.admissible(size, iset) for size in range(1, self.m + 1)])

    def star_family(self, iset: int) -> tuple[int, ...]:
        """The distinct nonempty stars of the vertices of the index set,
        ascending: X_I, and so the component, depends on I through them
        alone."""
        stars = self._stars
        return tuple(sorted({stars[v] for v in range(iset.bit_length()) if iset >> v & 1 and stars[v]}))

    def x_dimensions(self, stars: tuple[int, ...]) -> list[int]:
        """``dimensions`` from the other side of the pair: dim H~^(q-1) of
        X_I, the union of the simplices on the given stars, for every
        q = 0, ..., m-1.

        The pass runs over the nonempty submasks of the stars, ascending
        within each size, and gives the unreduced dimensions of X_I; the
        augmentation (rank 1 when X_I is nonempty) then takes one class
        from degree 0 and leaves H~^(-1) = Q only for an empty X_I.
        """
        simplices = set()
        for star in stars:
            sub = star
            while sub:
                simplices.add(sub)
                sub = (sub - 1) & star
        family: list[list[int]] = [[] for _ in range(self.m + 1)]
        for simplex in sorted(simplices):
            family[simplex.bit_count()].append(simplex)
        dims = _cleared_dimensions(family)
        augmentation = 1 if simplices else 0
        return ([1 - augmentation, dims[0] - augmentation] + dims[1:])[: self.m]

    def component(self, iset: int) -> list[int]:
        """The dimensions of the index-set component, for every Čech degree
        q = 0, ..., m-1, from the smaller side of the pair (Δ, X_I), cached
        by the star family up to a permutation of the m positions.

        The exact key (m, family) is looked up first; only when it misses
        are the position signatures computed, and a result computed on the
        actual family is stored under both keys.  |X_I| is at most the sum of 2^|star| - 1 over the
        family, and the admissible side holds the 2^m - 1 masks outside
        X_I; a tie goes to the admissible side.
        """
        stars = self.star_family(iset)
        key = (self.m, stars)
        dims = self._by_stars.get(key)
        if dims is None:
            signatures = _position_signatures(self.m, stars)
            dims = self._by_stars.get(signatures)
            if dims is None:
                bound = sum((1 << star.bit_count()) - 1 for star in stars)
                if 2 * bound < (1 << self.m) - 1:
                    dims = self.x_dimensions(stars)
                else:
                    dims = self.dimensions(iset)
                self._by_stars[signatures] = dims
            self._by_stars[key] = dims
        return dims

    def table(self) -> BigradedTable:
        """The component dimensions summed per bidegree; a negative one is
        a wrong rank (``CheckFailed``)."""
        totals: dict[tuple[int, int], int] = {}
        for p in range(self.K.n + 1):
            for iset in self.K.k_subsets(p):
                # q runs over every Čech degree of the cover, up to m - 1, which
                # can exceed n: vanishing above the diagonal q = p is a fact
                # about the cover, so it is computed rather than assumed
                for q, dim in enumerate(self.component(iset)):
                    if dim < 0:
                        raise CheckFailed(
                            f"negative Čech group dimension {dim} at (p, q) = ({p}, {q})"
                        )
                    if dim:
                        totals[(p, q)] = totals.get((p, q), 0) + dim
        return BigradedTable(
            {key: CohomologyBlock(total) for key, total in sorted(totals.items())}, "Q"
        )


def _position_signatures(m: int, stars: tuple[int, ...]) -> tuple[int, ...]:
    """The family up to a permutation of the m positions: per position j,
    the bitmask of the k with j in stars[k], sorted; a position in no star
    has signature 0.

    Two families with equal signatures differ by a position permutation
    that maps the k-th star of one onto the k-th star of the other, so
    their X_I are isomorphic, their stars have the same sizes, and their
    components have the same dimensions."""
    signatures = [0] * m
    bit = 1  # 1 << k for stars[k]
    for star in stars:
        rest = star
        while rest:
            low = rest & -rest
            signatures[low.bit_length() - 1] |= bit
            rest ^= low
        bit <<= 1
    signatures.sort()
    return tuple(signatures)


def _simplex_coboundary(rows: list[int], cols: list[int]) -> ExactMatrix:
    """The coboundary between the given position masks, the rows one
    element larger than the columns: a row's entry at the face missing its
    j-th element (ascending) is (-1)^j, and a face that is not among the
    columns is skipped."""
    col_pos = {c: i for i, c in enumerate(cols)}
    entries: dict[tuple[int, int], int] = {}
    for new_row, simplex in enumerate(rows):
        rest, sign = simplex, 1
        while rest:
            low = rest & -rest
            pos = col_pos.get(simplex ^ low)
            if pos is not None:
                entries[(new_row, pos)] = sign
            rest ^= low
            sign = -sign
    return ExactMatrix(len(rows), len(cols), entries)


def _cleared_dimensions(family: list[list[int]]) -> list[int]:
    """The cohomology dimensions of a family of position masks, family[s]
    holding those with s elements (family[0] is not read): for every
    s >= 1, |family[s]| - rank delta_s - rank delta_(s-1), delta_s the
    coboundary from the s-masks to the (s+1)-masks, from one top-down pass
    with clearing."""
    ranks = [0] * (len(family) + 1)  # ranks[s] = rank of delta_s
    cleared: set[int] = set()  # pivot columns of the coboundary above
    top = max((size for size, masks in enumerate(family) if masks), default=0)
    for size in range(top - 1, 0, -1):
        cols = family[size]
        rows = [r for r in family[size + 1] if r not in cleared]
        found: list[int] = []
        if rows and cols:
            ranks[size] = rank_rational(_simplex_coboundary(rows, cols), pivots=found)
        cleared = {cols[c] for c in found}
    return [len(family[s]) - ranks[s] - ranks[s - 1] for s in range(1, len(family))]


def _bits(bitmap: int) -> list[int]:
    """Positions of the set bits, ascending."""
    return [i for i, b in enumerate(reversed(bin(bitmap))) if b == "1"]


def cohomology(K: SimplicialComplex, families: Families | None = None) -> BigradedTable:
    """Bigraded table of the log Čech complex over the rationals, on the
    facet cover.

    Splits each block over the index sets I and sums the component
    dimensions; must agree with the algebra and cell models over Q.
    ``families``, when given, is the caller's dict of component dimensions
    by star family, shared by the complexes of a batch.
    """
    return _CechEngine(K, K.facets, families).table()


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def representative_cocycles(K: SimplicialComplex, p: int, q: int) -> list[LogCochain]:
    """Closed facet-cover cochains whose classes form a basis of the (p, q)
    cohomology.

    The kernel-mod-image bases are extracted per index set on the facet
    cover.  They stay there: a caller pulls them back to the face cover
    through ``pullback_to_faces`` at the tuples it reads; the pullback of a
    cocycle basis along a mutual refinement is again a basis.
    """
    engine = _CechEngine(K, K.facets)
    out: list[LogCochain] = []
    for iset in K.k_subsets(p):
        cols = engine.admissible(q + 1, iset)
        if not cols:
            continue
        reps = quotient_basis(kernel_basis(engine.block(iset, q)), engine.block(iset, q - 1))
        for vec in reps:
            values = {tuple(K.facets[j] for j in _bits(cols[i])): {iset: v} for i, v in vec.items()}
            out.append(LogCochain(p, q, values))
    return out


def pullback_to_faces(K: SimplicialComplex, w: LogCochain, tuples: Iterable[Sequence[int]]) -> LogCochain:
    """Pull a facet-cover cochain back to the face cover along the
    refinement r: face -> first containing facet.

    The pullback at a face tuple T is w evaluated at r(T): ``value_at``
    supplies the permutation sign and vanishes when two faces of T refine
    to the same facet.  It is evaluated at ``tuples`` only (the kernels
    pass the support of a resolvent's top piece, the one place the pairing
    reads).  Values are stored on canonically sorted tuples; a tuple with a
    repeated face is zero.
    """
    out: dict[FaceTuple, Form] = {}
    for tup in tuples:
        canon = canonical_tuple(tup)
        if canon is None:
            continue
        key = canon[0]
        form = w.value_at([K.containing_facet(face) for face in key])
        if form:
            out[key] = form
    return LogCochain(w.p, w.t, out)
