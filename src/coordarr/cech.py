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
indices, the admissible tuples of the component of I are the relative
cochains of a pair (Δ, X_I): Δ is the full simplex on the m index
positions, and X_I is the subcomplex of the tuples whose intersection
meets I, the union over i in I of the nonempty subsets of star(i), the
positions of the indices holding i.  Δ is acyclic, so the long exact
sequence of the pair (Hatcher, Thm 2.16 and §3.1) gives the component's
H^q as the reduced H~^(q-1)(X_I), which is Q at q = 0 when X_I is empty.
``cohomology`` computes each component from the smaller side, chosen
from sizes known before any work: |X_I| is at most the sum of
2^|star(i)| - 1, and the admissible side holds the other 2^m - 1 - |X_I|
tuples; a tie goes to the admissible side.  The star side builds X_I
straight from the stars, as position masks, so it never enumerates the
tuples of the whole cover: a sparse cover of many indices costs what its
X_I hold.  The augmentation, the empty simplex mapping with rank 1 onto
the vertices of a nonempty X_I, supplies the degree shift.  The component
depends on I only through the family of its nonempty stars (X_I is their
union of simplices, on either side), so the dimensions are cached per
call by that family.  The computation never reads the algebra model:
X_I is a complex on cover positions, and no nerve lemma is used.

Either side eliminates its coboundaries from the top degree down, with
clearing (Chen–Kerber, "Persistent homology computation with a twist",
2011; Bauer–Kerber–Reininghaus, "Clear and compress", 2014): the pivot
columns P of delta_t, a basis of its column space, are deleted from the
rows of delta_(t-1).  The rank survives because delta_t o delta_(t-1) = 0:
ker delta_t meets span(e_P) only in 0, so the image of delta_(t-1)
projects injectively away from P.  On the admissible side rank and pivots
are cached per (t, column set), the column set held as a bitmap of tuple
positions.  The key is sound: every supertuple of an admissible tuple is
admissible, so the inadmissible rows are zero on a component's columns
and the rank of delta_t depends on its columns alone; and a column basis
of a row-cleared delta_t of that same rank is a column basis of the whole
delta_t, so the cached pivots clear soundly for every index set with
those columns.

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
    """Per-complex cache for the cover with the given indices: the stars
    and the component dimensions per star family, and for the admissible
    side the tuples, intersections, coboundary structure and
    per-column-set ranks, built only when an index set takes that side.

    ``component`` is the one per-index-set route of ``table``; it picks
    between ``dimensions`` (admissible tuples) and ``x_dimensions`` (the
    subcomplex X_I from the stars), which give the same list."""

    def __init__(self, K: SimplicialComplex, indices: tuple[int, ...]):
        self.K = K
        self.indices = indices
        self.m = len(self.indices)
        # per vertex bit v, the star of v: the bitmask of the positions of
        # the cover indices holding v
        self._stars = [
            sum(1 << j for j, index in enumerate(indices) if index >> v & 1) for v in range(K.n)
        ]
        # family of nonempty stars -> component dimensions
        self._by_stars: dict[tuple[int, ...], list[int]] = {}
        self._tuples: dict[int, list[tuple[FaceTuple, int]]] = {}
        self._structure: dict[int, list[list[tuple[int, int]]]] = {}
        self._positions: dict[int, dict[FaceTuple, int]] = {}
        # (t, column bitmap) -> (rank of delta_t, bitmask of its pivot columns)
        self._rank_cache: dict[tuple[int, int], tuple[int, int]] = {}
        self._meets_cache: dict[int, list[int]] = {}

    def tuples(self, size: int) -> list[tuple[FaceTuple, int]]:
        """All increasing tuples of the given size with their intersections."""
        if size not in self._tuples:
            self._tuples[size] = [
                (tup, _intersection(tup)) for tup in combinations(self.indices, size)
            ]
            self._positions[size] = {tup: i for i, (tup, _) in enumerate(self._tuples[size])}
        return self._tuples[size]

    def structure(self, t: int) -> list[list[tuple[int, int]]]:
        """For every (t+2)-tuple, the signed positions of its sub-tuples:
        entry ``row -> [(col, sign), ...]`` of the degree-t coboundary
        before index-set filtering and before the global form-degree sign."""
        if t not in self._structure:
            self.tuples(t + 1)
            pos = self._positions[t + 1]
            rows = []
            for tup, _ in self.tuples(t + 2):
                row = []
                for j in range(len(tup)):
                    sub = tup[:j] + tup[j + 1 :]
                    row.append((pos[sub], -1 if j % 2 else 1))
                rows.append(row)
            self._structure[t] = rows
        return self._structure[t]

    def admissible(self, size: int, iset: int) -> list[int]:
        """Positions of the tuples of the given size whose intersection
        misses the index set."""
        return _bits(self._admissible_bitmap(size, iset))

    def _meets(self, size: int) -> list[int]:
        """Per vertex bit v, the bitmap of the positions of the tuples of
        the given size whose intersection holds v."""
        if size not in self._meets_cache:
            inters = [inter for _, inter in reversed(self.tuples(size))]
            self._meets_cache[size] = [
                int("0" + "".join("1" if inter >> v & 1 else "0" for inter in inters), 2)
                for v in range(self.K.n)
            ]
        return self._meets_cache[size]

    def _admissible_bitmap(self, size: int, iset: int) -> int:
        """``admissible`` as a bitmap of positions, from one mask operation
        per vertex of the index set."""
        bitmap = (1 << len(self.tuples(size))) - 1
        meets = self._meets(size)
        for v in range(iset.bit_length()):
            if iset >> v & 1:
                bitmap &= ~meets[v]
        return bitmap

    def _coboundary(self, t: int, rows: list[int], cols: list[int]) -> ExactMatrix:
        """The degree-t coboundary between the given (t+2)-tuple rows and
        (t+1)-tuple columns, both lists of tuple positions."""
        col_pos = {c: i for i, c in enumerate(cols)}
        structure = self.structure(t)
        entries: dict[tuple[int, int], int] = {}
        for new_row, r in enumerate(rows):
            for col, sign in structure[r]:
                pos = col_pos.get(col)
                if pos is not None:
                    entries[(new_row, pos)] = sign
        return ExactMatrix(len(rows), len(cols), entries)

    def block(self, iset: int, t: int) -> ExactMatrix:
        """Degree-t coboundary on the index-set component, from the
        admissible (t+1)-tuples to the admissible (t+2)-tuples; the complex
        is not augmented, so for t < 0 it is the empty map into degree 0."""
        rows = self.admissible(t + 2, iset)
        if t < 0:
            return ExactMatrix(len(rows), 0)
        return self._coboundary(t, rows, self.admissible(t + 1, iset))

    def dimensions(self, iset: int) -> list[int]:
        """dim of the degree-q cohomology of the index-set component, for
        every q = 0, ..., m-1, from one top-down pass with clearing."""
        # admissible[t]: bitmap of the positions of the admissible (t+1)-tuples
        admissible = [self._admissible_bitmap(size, iset) for size in range(1, self.m + 1)]
        ranks = [0] * (self.m + 1)  # ranks[t + 1] = rank of delta_t
        cleared = 0  # pivot columns of delta_(t+1), as (t+2)-tuple positions
        for t in range(self.m - 2, -1, -1):
            if not admissible[t]:
                break  # every smaller tuple is inadmissible as well
            key = (t, admissible[t])
            cached = self._rank_cache.get(key)
            if cached is None:
                cols = _bits(admissible[t])
                rows = _bits(admissible[t + 1] & ~cleared)
                found: list[int] = []
                rank = rank_rational(self._coboundary(t, rows, cols), pivots=found)
                pivot_mask = 0
                for c in found:
                    pivot_mask |= 1 << cols[c]
                cached = self._rank_cache[key] = (rank, pivot_mask)
            ranks[t + 1], cleared = cached
        return [admissible[q].bit_count() - ranks[q + 1] - ranks[q] for q in range(self.m)]

    def star_family(self, iset: int) -> tuple[int, ...]:
        """The distinct nonempty stars of the vertices of the index set,
        ascending: X_I, and so the component, depends on I through them
        alone."""
        stars = self._stars
        return tuple(sorted({stars[v] for v in range(iset.bit_length()) if iset >> v & 1 and stars[v]}))

    def x_dimensions(self, stars: tuple[int, ...]) -> list[int]:
        """``dimensions`` from the other side of the pair: dim H~^(q-1) of
        X_I, the union of the simplices on the given stars, for every
        q = 0, ..., m-1, from one top-down pass with clearing.

        The simplices of X_I are cover-position masks, the nonempty
        submasks of the stars; by_size[s] holds those with s elements, and
        by_size[0] the empty simplex of the augmentation.
        """
        simplices = set()
        for star in stars:
            sub = star
            while sub:
                simplices.add(sub)
                sub = (sub - 1) & star
        by_size: list[list[int]] = [[] for _ in range(self.m + 1)]
        by_size[0].append(0)
        for simplex in sorted(simplices):
            by_size[simplex.bit_count()].append(simplex)
        # ranks[s] = rank of the coboundary from the s-simplices to the
        # (s+1)-simplices; ranks[0], the augmentation, is 1 when X_I is
        # nonempty (the empty simplex maps onto the sum of the vertices)
        ranks = [0] * (self.m + 1)
        top = max(star.bit_count() for star in stars) if stars else 0
        cleared: set[int] = set()  # pivot columns of the coboundary above
        for size in range(top - 1, 0, -1):
            rows = [r for r in by_size[size + 1] if r not in cleared]
            cols = by_size[size]
            found: list[int] = []
            if rows:
                ranks[size] = rank_rational(_simplex_coboundary(rows, cols), pivots=found)
            cleared = {cols[c] for c in found}
        ranks[0] = 1 if simplices else 0
        return [
            len(by_size[q]) - ranks[q] - (ranks[q - 1] if q else 0) for q in range(self.m)
        ]

    def component(self, iset: int) -> list[int]:
        """The dimensions of the index-set component, for every Čech degree
        q = 0, ..., m-1, from the smaller side of the pair (Δ, X_I), cached
        by the family of stars.

        |X_I| is at most the sum of 2^|star| - 1 over the family, and the
        admissible side holds the 2^m - 1 tuples outside X_I; a tie goes to
        the admissible side, which shares its rank cache across index sets.
        """
        stars = self.star_family(iset)
        dims = self._by_stars.get(stars)
        if dims is None:
            bound = sum((1 << star.bit_count()) - 1 for star in stars)
            if 2 * bound < (1 << self.m) - 1:
                dims = self.x_dimensions(stars)
            else:
                dims = self.dimensions(iset)
            self._by_stars[stars] = dims
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


def _simplex_coboundary(rows: list[int], cols: list[int]) -> ExactMatrix:
    """The simplicial coboundary between the given simplices, position
    masks one element larger than the columns, every face of a row among
    the columns: a row's entry at the face missing its j-th element
    (ascending) is (-1)^j."""
    col_pos = {c: i for i, c in enumerate(cols)}
    entries: dict[tuple[int, int], int] = {}
    for new_row, simplex in enumerate(rows):
        rest, sign = simplex, 1
        while rest:
            low = rest & -rest
            entries[(new_row, col_pos[simplex ^ low])] = sign
            rest ^= low
            sign = -sign
    return ExactMatrix(len(rows), len(cols), entries)


def _bits(bitmap: int) -> list[int]:
    """Positions of the set bits, ascending."""
    return [i for i, b in enumerate(reversed(bin(bitmap))) if b == "1"]


def cohomology(K: SimplicialComplex) -> BigradedTable:
    """Bigraded table of the log Čech complex over the rationals, on the
    facet cover.

    Splits each block over the index sets I and sums the component
    dimensions; must agree with the algebra and cell models over Q.
    """
    return _CechEngine(K, K.facets).table()


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
    tuples_here = engine.tuples(q + 1)
    out: list[LogCochain] = []
    for iset in K.k_subsets(p):
        cols = engine.admissible(q + 1, iset)
        if not cols:
            continue
        reps = quotient_basis(kernel_basis(engine.block(iset, q)), engine.block(iset, q - 1))
        for vec in reps:
            out.append(LogCochain(p, q, {tuples_here[cols[i]][0]: {iset: v} for i, v in vec.items()}))
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
