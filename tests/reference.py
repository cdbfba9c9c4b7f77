"""Independent references the test suite holds ``coordarr`` against.

No command of ``coordarr`` reaches these names, so they live with the tests.
Each keeps its own code rather than calling the engine it checks:

* the algebra model as an algebra: ``RkElement`` with the termwise
  ``differential`` and the graded-commutative product ``multiply``; and
  its ``full_stripe``, every J included, and ``stripe_table``, which
  eliminates whole stripes: the route the component engine is checked
  against;
* the cell model's cochains (``CellCochain``, ``coboundary_cochain``,
  ``phi``), its full cell list and its all-bidegree ``homology_table``;
* the identity check between the two models in its matrix form
  (``phi_mismatches_by_matrices``: each basis sorted per block, the cell
  coboundary as the negated transpose of a built boundary, every block
  over all J at once), and the two term formulas written with
  ``elements`` and ``pos_in`` (``diff_terms_by_position``,
  ``boundary_terms_by_position``): the routes the per-J, entry-by-entry
  ``cells.phi_mismatches`` and the bit-walking term functions are held
  against;
* the connected components of a vertex set by breadth-first search
  (``components_by_search``), the route the derived components of
  ``koszul.cohomology`` are held against;
* the Čech model assembled block by block (``log_basis``, ``cech_matrix``),
  the sparse ``cochain_coboundary``, the filtration ranks computed without
  the bigraded splitting, and the pullback of a cocycle over its whole
  support (``full_pullback``, ``representative_cocycle``);
* the kernel over the whole resolvent (``full_kernel``): the search of
  ``build_kernel`` with every top tuple built, checked and kept, the
  route the pruned flag recursion is checked against;
* the resolvent identities compared on whole pieces
  (``whole_identities_hold``, with the componentwise ``uchain_boundary``,
  ``uchain_scale`` and ``uchain_equal``), the route the piece-by-piece
  check of ``build_resolvent`` is held against;
* the chunked tensor-grid ``torus_quadrature`` the separated rule is
  compared with;
* the brute-force enumeration of every complex on a few vertices
  (``all_complexes_brute_force``), the order the pruned search of
  ``corpus.all_complexes`` must reproduce;
* the kernel and quotient bases by dense Gauss–Jordan
  (``kernel_basis_dense``, ``quotient_basis_dense``), the definitions the
  sparse echelon routine of ``linalg`` is held against;
* small constructors and readers: dense matrices, Betti numbers, the
  minimal non-faces and f-vector of a complex, and the named complexes.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Callable, Iterable, Sequence

import numpy as np

from coordarr import cech, cells, koszul, resolvents
from coordarr.complexes import (
    SimplicialComplex,
    card,
    elements,
    face_key,
    intersection,
    mask_of,
    pos_in,
    subsets_of,
)
from coordarr.kernels import KernelData, QuadratureSpec
from coordarr.linalg import (
    BigradedTable,
    CohomologyBlock,
    ExactMatrix,
    rank_rational,
    stripe_cohomology,
)

Scalar = int | Fraction


# ---------------------------------------------------------------------------
# named complexes
# ---------------------------------------------------------------------------

def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, [(1 << n) - 1])


def simplex_boundary(n: int) -> SimplicialComplex:
    """All proper subsets of [n]; the complement retracts to a sphere."""
    return SimplicialComplex.from_missing_faces(n, [list(range(1, n + 1))])


def disjoint_points(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, [1 << (v - 1) for v in range(1, n + 1)])


def torus_complex(n: int) -> SimplicialComplex:
    """Only the empty face; the complement is the algebraic torus."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(n, [0])


# ---------------------------------------------------------------------------
# complexes and matrices
# ---------------------------------------------------------------------------

def all_complexes_brute_force(n: int) -> list[SimplicialComplex]:
    """Every simplicial complex on exactly [n], by testing each of the
    2^(2^n - 1) families of nonempty subsets for closure under taking
    subsets, in increasing family bitmask (bit m - 1 for mask m): the
    reference ``corpus.all_complexes`` is held against."""
    nonempty = list(range(1, 1 << n))
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for bits in range(1 << len(nonempty)):
            family = {m for i, m in enumerate(nonempty) if bits >> i & 1}
            closed = all(sub in family for m in family for sub in subsets_of(m) if sub and sub != m)
            if closed:
                maximal = [m for m in family if not any(m != g and m & g == m for g in family)]
                out.append(SimplicialComplex(n, maximal or [0]))
    return out


def minimal_non_faces(K: SimplicialComplex) -> tuple[int, ...]:
    """Inclusion-minimal subsets of [n] that are not faces.

    These generate the defining monomial ideal and index the maximal planes
    of the arrangement.  A set is a minimal non-face iff it is not a face,
    yet dropping any single vertex gives one; every such set is a face plus
    one vertex, which keeps the search linear in the number of faces.
    """
    faces = K.faces
    found = set()
    for f in faces:
        for v in range(1, K.n + 1):
            bit = 1 << (v - 1)
            if f & bit:
                continue
            s = f | bit
            if s in faces or s in found:
                continue
            if all((s & ~(1 << (w - 1))) in faces for w in elements(s)):
                found.add(s)
    return tuple(sorted(found, key=face_key))


def face_counts(K: SimplicialComplex) -> dict[int, int]:
    """Number of faces of each cardinality (the f-vector, 0-indexed by
    cardinality; entry 0 counts the empty face)."""
    counts: dict[int, int] = {}
    for f in K.faces:
        counts[card(f)] = counts.get(card(f), 0) + 1
    return dict(sorted(counts.items()))


def complex_to_json(K: SimplicialComplex) -> dict:
    """A document ``parse_complex`` reads back, through either the facets
    or the missing faces."""
    return {
        "n": K.n,
        "facets": [list(elements(f)) for f in K.facets],
        "missing_faces": [list(elements(f)) for f in minimal_non_faces(K)],
        "face_counts": {str(k): v for k, v in face_counts(K).items()},
    }


def identity(k: int) -> ExactMatrix:
    return ExactMatrix(k, k, {(i, i): 1 for i in range(k)})


def from_dense(data: Sequence[Sequence[Scalar]]) -> ExactMatrix:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    return ExactMatrix(rows, cols, {
        (r, c): v for r, row in enumerate(data) for c, v in enumerate(row) if v
    })


def to_dense(m: ExactMatrix) -> list[list[Scalar]]:
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


# ---------------------------------------------------------------------------
# dense Gauss–Jordan bases
# ---------------------------------------------------------------------------

def gauss_jordan(rows: list[list[Scalar]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense matrix with ``width`` columns,
    by textbook Gauss–Jordan over ``Fraction``: its nonzero rows and their
    pivot columns, left to right."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(width):
        top = len(pivots)
        r = next((r for r in range(top, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[top], a[r] = a[r], a[top]
        a[top] = [v / a[top][c] for v in a[top]]
        for i, row in enumerate(a):
            if i != top and row[c]:
                a[i] = [x - row[c] * y for x, y in zip(row, a[top])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def _coprime_integers(vec: list[Fraction]) -> dict[int, int]:
    """A dense rational vector scaled by a positive number to coprime
    integers, as a sparse dict."""
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return {i: v // g for i, v in enumerate(ints) if v}


def kernel_basis_dense(m: ExactMatrix) -> list[dict[int, int]]:
    """The rational kernel of ``m``: one vector per free column of its
    Gauss–Jordan form, 1 there and minus that column's entries at the
    pivots, made coprime; what ``linalg.kernel_basis`` must return."""
    reduced, pivots = gauss_jordan(to_dense(m), m.cols)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(_coprime_integers(vec))
    return basis


def quotient_basis_dense(vectors: list[dict[int, Scalar]], image: ExactMatrix) -> list[dict[int, int]]:
    """The reduced echelon basis of span(vectors) + span(image columns)
    reduced modulo the image: the Gauss–Jordan rows of the stacked image
    columns and vectors whose pivot is not a pivot of the image columns
    alone, made coprime; what ``linalg.quotient_basis`` must return."""
    columns = [[0] * image.rows for _ in range(image.cols)]
    for (r, c), v in image.entries.items():
        columns[c][r] = v
    stacked = columns + [[vec.get(i, 0) for i in range(image.rows)] for vec in vectors]
    _, image_pivots = gauss_jordan(columns, image.rows)
    rows, pivots = gauss_jordan(stacked, image.rows)
    return [_coprime_integers(row) for row, pc in zip(rows, pivots) if pc not in image_pivots]


def betti(table: BigradedTable, s: int) -> int:
    """Total rank in cohomological degree s (sum over p + q = s)."""
    return sum(b.free_rank for (p, q), b in table.blocks.items() if p + q == s)


# ---------------------------------------------------------------------------
# the algebra model as an algebra
# ---------------------------------------------------------------------------

#: basis element: (gamma, sigma) masks, gamma the exterior part
Basis = tuple[int, int]


class RkElement:
    """Finite linear combination of basis monomials, exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Basis, Scalar] | None = None):
        self.terms: dict[Basis, Scalar] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms, or None if mixed or zero."""
        degrees = {(card(g) + card(s), card(s)) for g, s in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RkElement") -> "RkElement":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return RkElement(out)

    def __sub__(self, other: "RkElement") -> "RkElement":
        return self + other.scale(-1)

    def scale(self, factor: Scalar) -> "RkElement":
        return RkElement({k: factor * v for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RkElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (gamma, sigma), coeff in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0])):
            mono = "".join(f"u{i}" for i in elements(gamma)) + "".join(f"v{i}" for i in elements(sigma))
            bits.append(f"{'+' if coeff > 0 else '-'}{abs(coeff) if abs(coeff) != 1 or not mono else ''}{mono or abs(coeff)}")
        return " ".join(bits)


def monomial(gamma: Iterable[int], sigma: Iterable[int], coeff: Scalar = 1) -> RkElement:
    return RkElement({(mask_of(gamma), mask_of(sigma)): coeff})


def differential(K: SimplicialComplex, a: RkElement) -> RkElement:
    """Differential of an arbitrary element (termwise)."""
    out: dict[Basis, Scalar] = {}
    for (gamma, sigma), coeff in a.terms.items():
        for sign, target in koszul._diff_terms(K, gamma, sigma):
            out[target] = out.get(target, 0) + sign * coeff
    return RkElement(out)


def diff_terms_by_position(K: SimplicialComplex, gamma: int, sigma: int) -> list[tuple[int, Basis]]:
    """``koszul._diff_terms`` as a vertex list: i runs over the sorted
    gamma, sign (-1)^(pos(i, gamma) - 1), faces only."""
    out = []
    for i in elements(gamma):
        new_sigma = sigma | (1 << (i - 1))
        if not K.is_face(new_sigma):
            continue
        sign = -1 if (pos_in(gamma, i) - 1) % 2 else 1
        out.append((sign, (gamma & ~(1 << (i - 1)), new_sigma)))
    return out


def components_by_search(K: SimplicialComplex, J: int) -> list[int]:
    """Vertex masks of the connected components of the 1-skeleton of K
    restricted to J, by breadth-first search from the lowest vertex left;
    ghost vertices lie in no component."""
    edges = [f for f in K.faces if card(f) == 2]
    J &= K.vertex_support
    out = []
    while J:
        component = frontier = J & -J
        while frontier:
            reach = 0
            for e in edges:
                if e & frontier:
                    reach |= e
            frontier = reach & J & ~component
            component |= frontier
        J &= ~component
        out.append(component)
    return out


def _merge_sign(a: int, b: int) -> int:
    """Sign of merging two sorted disjoint exterior monomials u_a * u_b:
    (-1)^(number of pairs x in a, y in b with x > y)."""
    inversions = 0
    for y in elements(b):
        inversions += (a >> y).bit_count()  # elements of a strictly above y
    return -1 if inversions % 2 else 1


def multiply(K: SimplicialComplex, a: RkElement, b: RkElement) -> RkElement:
    """Product in the algebra.

    Exterior parts multiply with the shuffle sign, polynomial parts are
    square-free (a repeated vertex or a non-face kills the term), and any
    overlap between the combined exterior and polynomial supports dies on
    the mixed relation u_i v_i = 0.
    """
    out: dict[Basis, Scalar] = {}
    for (g1, s1), c1 in a.terms.items():
        for (g2, s2), c2 in b.terms.items():
            if g1 & g2 or s1 & s2:
                continue
            sigma = s1 | s2
            gamma = g1 | g2
            if gamma & sigma or not K.is_face(sigma):
                continue
            coeff = c1 * c2 * _merge_sign(g1, g2)
            key = (gamma, sigma)
            out[key] = out.get(key, 0) + coeff
    return RkElement(out)


def stripe_table(stripes: Iterable[Iterable[ExactMatrix]], coeff: str = "Z") -> BigradedTable:
    """Table of the stripes p = 0, 1, ..., read one at a time; the group
    between d_(q-1) and d_q is the (p, q) block."""
    blocks = {}
    for p, maps in enumerate(stripes):
        for q, block in enumerate(stripe_cohomology(maps, coeff)):
            blocks[(p, q)] = block
    return BigradedTable(blocks, coeff)


def full_stripe(K: SimplicialComplex, p: int) -> list[ExactMatrix]:
    """The differentials out of (p, -1), ..., (p, p) on the whole monomial
    basis, the summands of face J included: the full stripe the summand
    engine ``koszul.cohomology`` is held against."""
    return [koszul.differential_matrix(K, p, q) for q in range(-1, p + 1)]


# ---------------------------------------------------------------------------
# the cell model: cells, cochains and the all-bidegree table
# ---------------------------------------------------------------------------

def cell_dimension(cell: cells.Cell) -> int:
    sigma, gamma = cell
    return 2 * card(sigma) + card(gamma)


def all_cells(K: SimplicialComplex) -> list[cells.Cell]:
    """Every cell (sigma, gamma): sigma a face, gamma inside the complement."""
    full = (1 << K.n) - 1
    out = []
    for sigma in K.faces_sorted:
        for gamma in subsets_of(full & ~sigma):
            out.append((sigma, gamma))
    out.sort()
    return out


class CellCochain:
    """Functional on cell chains via the dual cocell basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[cells.Cell, Scalar] | None = None):
        self.terms: dict[cells.Cell, Scalar] = {}
        if terms:
            for cell, coeff in terms.items():
                if coeff:
                    self.terms[cell] = coeff

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellCochain) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"CellCochain({dict(sorted(self.terms.items()))})"

    def pair(self, chain: cells.CellChain) -> Scalar:
        total = 0
        for cell, coeff in chain.terms.items():
            dual = self.terms.get(cell)
            if dual:
                total += dual * coeff
        return total


def coboundary_cochain(K: SimplicialComplex, cochain: CellCochain) -> CellCochain:
    """Termwise coboundary: minus the adjoint of the boundary."""
    out: dict[cells.Cell, Scalar] = {}
    for (sigma, gamma), coeff in cochain.terms.items():
        # cofaces: move one circle direction i onto the disk factor
        for i in elements(gamma):
            bit = 1 << (i - 1)
            new_sigma = sigma | bit
            if not K.is_face(new_sigma):
                continue
            sign = -1 if pos_in(gamma, i) % 2 else 1
            target = (new_sigma, gamma & ~bit)
            out[target] = out.get(target, 0) - sign * coeff
    return CellCochain(out)


def boundary_terms_by_position(sigma: int, gamma: int) -> list[tuple[int, cells.Cell]]:
    """``cells._boundary_terms`` as a vertex list: i runs over the sorted
    sigma, sign (-1)^pos(i, gamma + i)."""
    out = []
    for i in elements(sigma):
        bit = 1 << (i - 1)
        new_gamma = gamma | bit
        sign = -1 if pos_in(new_gamma, i) % 2 else 1
        out.append((sign, (sigma & ~bit, new_gamma)))
    return out


def _sorted_pairs(K: SimplicialComplex, p: int, q: int) -> list[tuple[int, int]]:
    """(sigma, gamma) pairs of bidegree (p, q), sorted after the fact."""
    if q < 0 or p < q or p - q > K.n:
        return []
    out = [
        (sigma, gamma)
        for sigma in K.faces_sorted
        if card(sigma) == q
        for gamma in K.k_subsets(p - q)
        if gamma & sigma == 0
    ]
    out.sort()
    return out


def phi_mismatches_by_matrices(K: SimplicialComplex) -> list[tuple[int, int]]:
    """The identity check in matrix form: for every (p, q), p in 0..n and q
    in -1..p, the algebra model's differential block and the negated
    transpose of the (p, q+1) cell boundary block, each built on its own
    from freshly sorted bases through the modules' term functions, compared
    as matrices.  A term outside the block's cells has no entry, so its
    block differs.  ``cells.phi_mismatches`` must name the same blocks."""

    def rk_block(p: int, q: int) -> ExactMatrix | None:
        src = [(g, s) for s, g in _sorted_pairs(K, p, q)]
        index = {(g, s): i for i, (s, g) in enumerate(_sorted_pairs(K, p, q + 1))}
        entries = {}
        for j, (gamma, sigma) in enumerate(src):
            for sign, target in koszul._diff_terms(K, gamma, sigma):
                if target not in index:
                    return None
                entries[(index[target], j)] = sign
        return ExactMatrix(len(index), len(src), entries)

    def cell_coboundary(p: int, q: int) -> ExactMatrix | None:
        src, dst = _sorted_pairs(K, p, q + 1), _sorted_pairs(K, p, q)
        index = {c: i for i, c in enumerate(dst)}
        entries = {}
        for j, (sigma, gamma) in enumerate(src):
            for sign, target in cells._boundary_terms(sigma, gamma):
                if target not in index:
                    return None
                entries[(index[target], j)] = sign
        boundary = ExactMatrix(len(dst), len(src), entries)
        return ExactMatrix(len(src), len(dst), {(c, r): -v for (r, c), v in boundary.entries.items()})

    def differs(p: int, q: int) -> bool:
        rk, cell = rk_block(p, q), cell_coboundary(p, q)
        return rk is None or cell is None or rk != cell

    return [(p, q) for p in range(K.n + 1) for q in range(-1, p + 1) if differs(p, q)]


def phi(a: RkElement) -> CellCochain:
    """Relabel an algebra element as a cell cochain: the monomial with
    exterior part gamma and polynomial part sigma goes to the dual cocell of
    the (sigma, gamma) cell, coefficients untouched."""
    return CellCochain({(sigma, gamma): coeff for (gamma, sigma), coeff in a.terms.items()})


def homology_table(K: SimplicialComplex, coeff: str = "Z") -> BigradedTable:
    """Bigraded cellular homology, torsion included, without cycle bases:
    the reference the algebra model's table is held against (ranks agree,
    torsion moves one step in q by the universal coefficients).

    The p-stripe is the chain complex  (p, p) --d--> ... --d--> (p, 0), so
    its boundary maps go to ``stripe_cohomology`` top degree first.
    """
    blocks: dict[tuple[int, int], CohomologyBlock] = {}
    for p in range(K.n + 1):
        maps = (cells.boundary_matrix(K, p, q) for q in range(p + 1, -1, -1))
        for q, block in zip(range(p, -1, -1), stripe_cohomology(maps, coeff)):
            blocks[(p, q)] = block
    return BigradedTable(blocks, coeff)


# ---------------------------------------------------------------------------
# the Čech model, block by block
# ---------------------------------------------------------------------------

def face_cover_table(K: SimplicialComplex) -> BigradedTable:
    """The Čech table on the defining cover: every face indexes a cover
    element, the empty one included (its element is the algebraic torus)."""
    return cech._table(K, K.faces_sorted, {})


def log_basis(
    K: SimplicialComplex, p: int, t: int, indices: tuple[int, ...]
) -> list[tuple[tuple[int, ...], int]]:
    """Basis of the (form degree p, Čech degree t) block on the cover with
    the given indices: admissible pairs (increasing cover tuple, index set
    I), tuple-major order."""
    isets = K.k_subsets(p)
    out = []
    for tup in combinations(indices, t + 1):
        inter = intersection(tup)
        for iset in isets:
            if iset & inter == 0:
                out.append((tup, iset))
    return out


def cech_matrix(K: SimplicialComplex, p: int, t: int, indices: tuple[int, ...]) -> ExactMatrix:
    """Matrix of the coboundary from the (p, t) block to the (p, t+1) block."""
    src = log_basis(K, p, t, indices)
    dst = log_basis(K, p, t + 1, indices)
    src_index = {b: i for i, b in enumerate(src)}
    sign_p = -1 if p % 2 else 1
    entries: dict[tuple[int, int], int] = {}
    for row, (tup, iset) in enumerate(dst):
        for j in range(len(tup)):
            sub = tup[:j] + tup[j + 1 :]
            col = src_index.get((sub, iset))
            if col is None:
                continue
            entries[(row, col)] = sign_p * (-1 if j % 2 else 1)
    return ExactMatrix(len(dst), len(src), entries)


def cochain_coboundary(K: SimplicialComplex, w: cech.LogCochain) -> cech.LogCochain:
    """Čech coboundary of a face-cover cochain, computed sparsely on its
    support.

    Every nonzero value of the result sits on a tuple obtained by inserting
    one extra cover index into a support tuple of ``w``.
    """
    out: dict[tuple[int, ...], dict[int, Scalar]] = {}
    sign_p = -1 if w.p % 2 else 1
    seen: set[tuple[int, ...]] = set()
    for base in w.values:
        base_set = set(base)
        for extra in K.faces_sorted:
            if extra in base_set:
                continue
            canon = cech.canonical_tuple(base + (extra,))
            assert canon is not None
            target, _ = canon
            if target in seen:
                continue
            seen.add(target)
            total: dict[int, Scalar] = {}
            for j in range(len(target)):
                factor = sign_p * (-1 if j % 2 else 1)
                for iset, c in w.value_at(target[:j] + target[j + 1 :]).items():
                    total[iset] = total.get(iset, 0) + factor * c
            out[target] = total
    return cech.LogCochain(w.p, w.t + 1, out)


def filtration_ranks_direct(K: SimplicialComplex, indices: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Filtration ranks computed without the bigraded splitting.

    For every cutoff k the truncated complex (all form degrees >= k) is
    assembled as one block matrix per total degree and its cohomology ranks
    are taken there; the bigraded route must reproduce these numbers
    exactly.  Quadratic amount of elimination, intended for validation.
    """
    n = K.n
    m = len(indices)
    block: dict[tuple[int, int], ExactMatrix] = {}
    for p in range(n + 1):
        for t in range(m):  # C^t is empty beyond t = m - 1
            block[(p, t)] = cech_matrix(K, p, t, indices)

    def block_dim(p: int, t: int) -> int:
        piece = block.get((p, t))
        return piece.cols if piece else 0

    def assembled_rank(k: int, s: int) -> int:
        """Rank of the total differential out of degree s in the truncated
        complex, assembled as one matrix over all form degrees >= k."""
        entries: dict[tuple[int, int], int] = {}
        row_off = 0
        col_off = 0
        for p in range(k, n + 1):
            piece = block.get((p, s - p))
            if piece is None:
                continue
            for (r, c), v in piece.entries.items():
                entries[(row_off + r, col_off + c)] = v
            row_off += piece.rows
            col_off += piece.cols
        return rank_rational(ExactMatrix(row_off, col_off, entries))

    out: dict[tuple[int, int], int] = {}
    for k in range(n + 2):
        rank_at = {s: assembled_rank(k, s) for s in range(2 * n + 2)}
        for s in range(2 * n + 1):
            dim = sum(block_dim(p, s - p) for p in range(k, n + 1))
            out[(k, s)] = dim - rank_at[s] - rank_at.get(s - 1, 0)
    return out


def full_pullback(K: SimplicialComplex, w: cech.LogCochain) -> cech.LogCochain:
    """``w`` pulled back to the face cover over its whole support: the
    products of the preimage classes of r: face -> first containing facet,
    over the support tuples of ``w``."""
    preimages: dict[int, list[int]] = {f: [] for f in K.facets}
    for face in K.faces_sorted:
        preimages[K.containing_facet(face)].append(face)
    tuples = [
        choice
        for facet_tuple in w.values
        for choice in product(*(preimages[f] for f in facet_tuple))
    ]
    return cech.pullback_to_faces(K, w, tuples)


def representative_cocycle(K: SimplicialComplex, p: int, q: int, class_index: int) -> cech.LogCochain:
    """One basis cocycle of the (p, q) cohomology, pulled back in full to the
    face cover."""
    reps = cech.representative_cocycles(K, p, q)
    if not reps:
        raise ValueError(f"no cohomology in bidegree ({p},{q})")
    if not 0 <= class_index < len(reps):
        raise ValueError(
            f"class index {class_index} out of range: bidegree ({p},{q}) has rank {len(reps)}"
        )
    return full_pullback(K, reps[class_index])


def full_kernel(K: SimplicialComplex, s: int) -> KernelData:
    """The kernel of ``build_kernel`` with the whole top piece: the same
    cycles and cocycles in the same order, each resolvent built in full and
    checked, and each cocycle pulled back at every top tuple."""
    n, q = K.n, s - K.n
    facet_cocycles = cech.representative_cocycles(K, n, q)
    for cycle in cells.homology(K, n, q):
        resolvent = resolvents.build_resolvent(K, cycle)
        for facet_cocycle in facet_cocycles:
            cocycle = cech.pullback_to_faces(K, facet_cocycle, resolvent.top.values)
            raw = resolvents.resolvent_pairing(resolvent, cocycle)
            if raw:
                return KernelData(n=n, s=s, cocycle=cocycle, top_piece=resolvent.top, scale=1 / raw)
    raise ValueError(f"no kernel in total degree {s}")


# ---------------------------------------------------------------------------
# resolvents compared on whole pieces
# ---------------------------------------------------------------------------

def uchain_boundary(g: resolvents.UChain) -> resolvents.UChain:
    """Componentwise cell boundary of a cover chain."""
    return resolvents.UChain(
        g.degree, g.dimension - 1, {tup: cells.boundary_chain(chain) for tup, chain in g.values.items()}
    )


def uchain_scale(g: resolvents.UChain, factor: Scalar) -> resolvents.UChain:
    return resolvents.UChain(g.degree, g.dimension, {tup: chain.scale(factor) for tup, chain in g.values.items()})


def uchain_equal(g: resolvents.UChain, h: resolvents.UChain) -> bool:
    return (g.degree, g.dimension) == (h.degree, h.dimension) and g.values == h.values


def whole_identities_hold(res: resolvents.Resolvent) -> bool:
    """Piece 0 reassembles the cycle, boundary(piece k) = -delta'(piece
    k+1) on whole pieces, and the top piece is closed."""
    return (
        resolvents.epsilon_prime(res.pieces[0]) == res.source
        and all(
            uchain_equal(uchain_boundary(res.pieces[k]), uchain_scale(resolvents.delta_prime(res.pieces[k + 1]), -1))
            for k in range(res.q)
        )
        and uchain_boundary(res.top).is_zero()
    )


# ---------------------------------------------------------------------------
# quadrature on the full tensor grid
# ---------------------------------------------------------------------------

def torus_quadrature(
    g: Callable[[np.ndarray], np.ndarray],
    gamma: int,
    n: int,
    spec: QuadratureSpec,
) -> complex:
    """Average of g over the uniform grid on the torus of the directions in
    ``gamma`` (other coordinates pinned at 1).

    This average equals  (2 pi i)^(-|gamma|) times the contour integral of
    g(z) dz_gamma/z_gamma  with ascending wedge order, the orientation that
    makes each circle run counterclockwise.  For g analytic in a
    neighborhood of the torus the error decays geometrically in N.

    ``g`` receives an array of points of shape (chunk, n) and must return
    the corresponding values; evaluation is chunked along the first torus
    direction and accumulated with numpy's pairwise summation.
    """
    dirs = list(elements(gamma))
    k = len(dirs)
    nodes = np.exp(1j * (2.0 * np.pi * np.arange(spec.nodes) / spec.nodes))
    if k == 0:
        z = np.ones((1, n), dtype=complex)
        return complex(np.asarray(g(z), dtype=complex).reshape(-1)[0])
    chunk_sums = []
    tail = dirs[1:]
    grids = np.meshgrid(*(nodes for _ in tail), indexing="ij") if tail else []
    base = np.ones((spec.nodes ** (k - 1), n), dtype=complex)
    for axis, grid in zip(tail, grids):
        base[:, axis - 1] = grid.reshape(-1)
    for w in nodes:
        pts = base.copy()
        pts[:, dirs[0] - 1] = w
        chunk_sums.append(np.add.reduce(np.asarray(g(pts), dtype=complex)))
    total = np.add.reduce(np.asarray(chunk_sums))
    return complex(total / spec.nodes**k)
