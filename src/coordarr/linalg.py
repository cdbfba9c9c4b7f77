"""Exact sparse integer/rational linear algebra.

This is the single carrier for every differential in the package: Smith
normal form over the integers, ranks over the rationals, kernel and
quotient bases, and the two-map cohomology blocks built from them.
Everything is arbitrary precision and deterministic, with no floating
point anywhere.

``smith_normal_form`` and ``rank_rational`` share one sparse elimination
core on row dicts plus a column index (Dumas–Saunders–Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symb.
Comput. 32, 2001):

* phase 1 takes every ±1 pivot, shortest row first (lowest row index on
  ties), with unimodular Schur updates and no row scaling, so it is valid
  over Z and over Q alike;
* phase 2 runs the expensive smallest-magnitude pivoting on the unit-free
  residual only: integer row and column operations for the Smith form,
  fraction-free elimination for the rank.

Kernel and quotient bases use a reduced echelon form over ``Fraction``,
which fixes the representative vectors uniquely.  ``compose_is_zero`` is
the exact sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Mapping, Sequence

__all__ = [
    "CheckFailed",
    "ExactMatrix",
    "SnfResult",
    "CohomologyBlock",
    "BigradedTable",
    "smith_normal_form",
    "rank_rational",
    "kernel_basis",
    "quotient_basis",
    "cohomology_block",
    "compose_is_zero",
]

Scalar = int | Fraction


class CheckFailed(ValueError):
    """A mathematical self-check failed: the program is at fault, not its
    input (a differential that does not square to zero, a broken resolvent
    identity)."""


class ExactMatrix:
    """Sparse exact matrix: mapping (row, col) -> nonzero int or Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Scalar] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
                if v:
                    self.entries[(r, c)] = v

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls(k, k, {(i, i): 1 for i in range(k)})

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, {
            (r, c): v for r, row in enumerate(data) for c, v in enumerate(row) if v
        })

    # -- queries ---------------------------------------------------------...

    @property
    def is_rational(self) -> bool:
        return any(type(v) is Fraction for v in self.entries.values())

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), 0)

    def to_dense(self) -> list[list[Scalar]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def columns(self) -> list[dict[int, Scalar]]:
        cols: list[dict[int, Scalar]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    # -- algebra ---------------------------------------------------------...

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        left_cols: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in self.entries.items():
            left_cols.setdefault(c, []).append((r, v))
        right_cols: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            right_cols.setdefault(c, []).append((r, v))
        out: dict[tuple[int, int], Scalar] = {}
        for j, col in right_cols.items():
            acc: dict[int, Scalar] = {}
            for k, bv in col:
                for r2, av in left_cols.get(k, ()):
                    acc[r2] = acc.get(r2, 0) + av * bv
            for r2, v in acc.items():
                if v:
                    out[(r2, j)] = v
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices rarely hashed
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def compose_is_zero(outer: ExactMatrix, inner: ExactMatrix) -> bool:
    """Exact check that ``outer @ inner`` vanishes, by the sparse dict
    product: arbitrary precision, integer and rational entries alike."""
    if outer.cols != inner.rows:
        raise ValueError("shape mismatch in composition")
    return (outer * inner).is_zero()


# ---------------------------------------------------------------------------
# the elimination core
# ---------------------------------------------------------------------------

Rows = dict[int, dict[int, int]]
ColumnIndex = dict[int, set[int]]


def _working_copy(m: ExactMatrix) -> tuple[Rows, ColumnIndex]:
    """Rows of ``m`` as dicts col -> value, plus a col -> set(rows) index."""
    rows: Rows = {}
    colindex: ColumnIndex = {}
    for (r, c), v in m.entries.items():
        row = rows.get(r)
        if row is None:
            rows[r] = {c: v}
        else:
            row[c] = v
        col = colindex.get(c)
        if col is None:
            colindex[c] = {r}
        else:
            col.add(r)
    return rows, colindex


def _eliminate_units(rows: Rows, colindex: ColumnIndex) -> int:
    """Phase 1: pivot on entries ±1 while any is left; return their number.

    The pivot row is the shortest row holding a unit, lowest row index
    first; its pivot is the unit whose column is shortest, lowest column
    first.  Every other row of the pivot column gets the Schur update
    ``row -= (row[pc] * pv) * prow``, and the pivot row and column are
    dropped.  No row is scaled, so each step is unimodular: it keeps the
    rank over Q and adds one invariant factor 1 over Z.  ``rows`` and
    ``colindex`` are left holding the unit-free residual.

    Candidates sit in a heap keyed by (length, row) and are pushed again
    whenever their row changes; entries whose length is out of date, and
    rows without a unit, are skipped when popped.
    """
    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    units = 0
    while heap:
        length, pr = heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != length:
            continue
        best = None
        for c, v in prow.items():
            if v == 1 or v == -1:
                key = (len(colindex[c]), c)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        pc = best[1]
        pv = prow.pop(pc)
        units += 1
        del rows[pr]
        for c in prow:
            colindex[c].discard(pr)
        pcol = colindex.pop(pc)
        pcol.discard(pr)
        for r in pcol:
            row = rows[r]
            f = row.pop(pc) * pv
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -f * v
                    colindex[c].add(r)
                else:
                    new = old - f * v
                    if new:
                        row[c] = new
                    else:
                        del row[c]
                        colindex[c].discard(r)
            if row:
                heappush(heap, (len(row), r))
            else:
                del rows[r]
    return units


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... padded with zeros to min(rows, cols)."""

    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)


def smith_normal_form(m: ExactMatrix) -> SnfResult:
    """Invariant-factor sequence of an integer matrix.

    Phase 1 (``_eliminate_units``) takes every ±1 pivot it can find with
    unimodular Schur updates; each contributes an invariant factor 1.  The
    unit-free residual goes through the classic pivoting reduction: move
    the smallest-magnitude entry (lowest (row, col) on ties) into pivot
    position, clear its row and column with integer row and column
    operations, repeat.  Only the residual diagonal is folded with gcd/lcm
    swaps into the divisibility chain; the units lead it as 1s.  Both
    phases pick their pivots by fixed rules, so the run, not just the
    result, is deterministic.
    """
    if m.is_rational:
        raise ValueError("Smith normal form needs integer entries; use rank_rational")
    rows, colindex = _working_copy(m)
    units = _eliminate_units(rows, colindex)

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            colindex.setdefault(c, set()).add(r)
        else:
            row = rows.get(r)
            if row and c in row:
                del row[c]
                colindex[c].discard(r)

    def row_addmul(dst: int, src: int, q: int) -> None:
        # row[dst] += q * row[src]
        for c, v in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) + q * v)

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in list(colindex.get(src, set())):
            v = rows[r].get(src, 0)
            set_entry(r, dst, rows.get(r, {}).get(dst, 0) + q * v)

    diag: list[int] = []
    while True:
        pivot = None
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
                    pivot = (r, c, v)
        if pivot is None:
            break
        pr, pc, pv = pivot
        # clear the pivot column, then the pivot row; a nonzero remainder
        # re-enters the submatrix and the smaller-pivot rule picks it up
        progressed = True
        while progressed:
            progressed = False
            pv = rows[pr][pc]
            for r in list(colindex.get(pc, set())):
                if r == pr:
                    continue
                q = -(rows[r][pc] // pv)
                row_addmul(r, pr, q)
                if rows.get(r, {}).get(pc):
                    # remainder smaller than pivot: swap roles
                    pr = r
                    progressed = True
                    break
            else:
                for c in list(rows.get(pr, {}).keys()):
                    if c == pc:
                        continue
                    q = -(rows[pr][c] // pv)
                    col_addmul(c, pc, q)
                    if rows.get(pr, {}).get(c):
                        pc = c
                        progressed = True
                        break
        diag.append(abs(rows[pr][pc]))
        # retire pivot row and column
        prow = rows.pop(pr, {})
        for c in prow:
            bucket = colindex.get(c)
            if bucket:
                bucket.discard(pr)
        for r in list(colindex.pop(pc, set())):
            row = rows.get(r)
            if row:
                row.pop(pc, None)

    # fold the residual diagonal into the divisibility chain
    diag.sort()
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag = [1] * units + diag + [0] * (min(m.rows, m.cols) - units - len(diag))
    return SnfResult(tuple(diag))


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------

def rank_rational(m: ExactMatrix) -> int:
    """Rank over the rationals.

    Rows are scaled to integers, phase 1 (``_eliminate_units``) takes every
    ±1 pivot, and the unit-free residual goes through fraction-free
    elimination: pivot on the smallest magnitude (lowest (row, col) on
    ties), replace each other row of the pivot column by
    ``pv * row - rv * prow`` and strip its content gcd, which keeps
    coefficient growth tame.
    """
    rows, colindex = _working_copy(m)
    if m.is_rational:
        # scale each row to primitive integers; the support, and so the
        # column index, stays the same
        for r, row in rows.items():
            denom = lcm(*(v.denominator for v in row.values()))
            scaled = {c: int(v * denom) for c, v in row.items()}
            g = gcd(*scaled.values())
            rows[r] = {c: v // g for c, v in scaled.items()}
    rank = _eliminate_units(rows, colindex)
    while rows:
        best = None
        for r, row in rows.items():
            for c, v in row.items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, pr, pc = best
        pv = rows[pr][pc]
        rank += 1
        targets = [r for r in colindex.get(pc, set()) if r != pr]
        prow = rows[pr]
        for r in targets:
            rv = rows[r][pc]
            row = rows[r]
            # row <- pv * row - rv * prow, then strip the content gcd
            for c in row:
                row[c] *= pv
            for c, v in prow.items():
                nv = row.get(c, 0) - rv * v
                if nv:
                    row[c] = nv
                    colindex.setdefault(c, set()).add(r)
                elif c in row:
                    del row[c]
                    colindex[c].discard(r)
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        for c in list(prow):
            colindex[c].discard(pr)
        del rows[pr]
    return rank


def _rref(columns: list[dict[int, Scalar]]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Reduced row echelon form of the matrix with the given columns.

    Returns (rows, pivot_columns); rows are kept as sparse Fraction dicts
    with a leading 1 in their pivot column.  Column order is processed left
    to right, which fixes the result uniquely.
    """
    ncols = len(columns)
    rows: list[dict[int, Fraction]] = []
    # gather into row-major form
    rowmap: dict[int, dict[int, Fraction]] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rowmap.setdefault(r, {})[c] = Fraction(v)
    work = [rowmap[r] for r in sorted(rowmap)]
    pivots: list[int] = []
    reduced: list[dict[int, Fraction]] = []
    for c in range(ncols):
        pivot_row = None
        for row in work:
            if row.get(c):
                pivot_row = row
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = 1 / pivot_row[c]
        pivot_row = {k: v * inv for k, v in pivot_row.items() if v}
        for row in work:
            f = row.get(c)
            if f:
                for k, v in pivot_row.items():
                    nv = row.get(k, Fraction(0)) - f * v
                    if nv:
                        row[k] = nv
                    elif k in row:
                        del row[k]
        for row in reduced:
            f = row.get(c)
            if f:
                for k, v in pivot_row.items():
                    nv = row.get(k, Fraction(0)) - f * v
                    if nv:
                        row[k] = nv
                    elif k in row:
                        del row[k]
        reduced.append(pivot_row)
        pivots.append(c)
    return reduced, pivots


def kernel_basis(m: ExactMatrix) -> list[dict[int, int]]:
    """Basis of the rational kernel, as primitive integer column vectors.

    Standard free-variable parametrization of the reduced echelon form;
    vectors are indexed by column number and returned in free-column order,
    each scaled to coprime integers with positive entry at the free column.
    """
    reduced, pivots = _rref(m.columns())
    pivot_set = set(pivots)
    basis: list[dict[int, int]] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec: dict[int, Fraction] = {free: Fraction(1)}
        for row, pc in zip(reduced, pivots):
            coeff = row.get(free)
            if coeff:
                vec[pc] = -coeff
        denom = 1
        for v in vec.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ivec = {k: int(v * denom) for k, v in vec.items()}
        g = 0
        for v in ivec.values():
            g = gcd(g, abs(v))
        if g > 1:
            ivec = {k: v // g for k, v in ivec.items()}
        basis.append(ivec)
    return basis


def quotient_basis(vectors: list[dict[int, Scalar]], image: ExactMatrix) -> list[dict[int, int]]:
    """Vectors spanning ``span(vectors) mod column-span(image)``.

    Each input vector is reduced against the echelon form of the image
    columns; the reductions are then echelonized themselves and the nonzero
    rows returned as primitive integer vectors.  Reducing then combining
    keeps every output inside span(vectors) + span(image), so when the
    inputs are cycles and the image is a boundary matrix the outputs are
    cycles in canonical echelon position.
    """
    # echelon basis of the column span: feed the columns in as rows
    img_rows, img_pivots = _rref(image.transpose().columns())
    reduced_cols: list[dict[int, Scalar]] = []
    for vec in vectors:
        work = {k: Fraction(v) for k, v in vec.items() if v}
        for row, pc in zip(img_rows, img_pivots):
            f = work.get(pc)
            if f:
                for k, v in row.items():
                    nv = work.get(k, Fraction(0)) - f * v
                    if nv:
                        work[k] = nv
                    elif k in work:
                        del work[k]
        if work:
            reduced_cols.append(work)
    if not reduced_cols:
        return []
    # echelonize the reduced vectors (as rows of a matrix indexed by their
    # coordinate) to obtain a canonical independent family
    coords = sorted({k for col in reduced_cols for k in col})
    coord_pos = {k: i for i, k in enumerate(coords)}
    as_matrix = ExactMatrix(
        len(reduced_cols),
        len(coords),
        {
            (r, coord_pos[k]): v
            for r, col in enumerate(reduced_cols)
            for k, v in col.items()
        },
    )
    rows, _ = _rref(as_matrix.columns())
    out: list[dict[int, int]] = []
    for row in rows:
        denom = 1
        for v in row.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ivec = {coords[k]: int(v * denom) for k, v in row.items()}
        g = 0
        for v in ivec.values():
            g = gcd(g, abs(v))
        if g > 1:
            ivec = {k: v // g for k, v in ivec.items()}
        out.append(ivec)
    return out


# ---------------------------------------------------------------------------
# cohomology blocks and bigraded tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyBlock:
    """One group: free rank plus invariant factors > 1 (divisibility chain)."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cohomology_block(d_in: ExactMatrix, d_out: ExactMatrix, coeff: str = "Z") -> CohomologyBlock:
    """Cohomology of the two-map block  C_prev --d_in--> C --d_out--> C_next.

    d_out o d_in must vanish (checked; a nonzero composite always means a
    sign-convention bug upstream, so it raises ``CheckFailed`` rather than
    warning).
    Free rank is dim ker(d_out) - rank(d_in).  Over the integers the torsion
    is read off the Smith form of d_in: the cokernel of d_in splits off the
    free part of C/ker, which is torsion-free because C/ker embeds into the
    next cochain group.
    """
    if d_in.rows != d_out.cols:
        raise ValueError(
            f"block mismatch: d_in targets dim {d_in.rows}, d_out leaves dim {d_out.cols}"
        )
    if not compose_is_zero(d_out, d_in):
        raise CheckFailed("d_out o d_in != 0: differential blocks do not compose to zero")
    dim = d_in.rows
    if coeff not in ("Z", "Q"):
        raise ValueError(f"unknown coefficient ring {coeff!r}")
    rank_out = rank_rational(d_out)
    if coeff == "Q":
        rank_in = rank_rational(d_in)
        return CohomologyBlock(dim - rank_out - rank_in)
    snf = smith_normal_form(d_in)
    free = dim - rank_out - snf.rank
    if free < 0:
        raise CheckFailed("negative free rank: maps are not a complex")
    return CohomologyBlock(free, snf.torsion)


class BigradedTable:
    """Mapping (p, q) -> CohomologyBlock, with trivial blocks left implicit."""

    def __init__(self, blocks: Mapping[tuple[int, int], CohomologyBlock] | None = None, coeff: str = "Z"):
        self.coeff = coeff
        self.blocks: dict[tuple[int, int], CohomologyBlock] = {}
        if blocks:
            for key, block in blocks.items():
                if not block.is_trivial():
                    self.blocks[key] = block

    def free(self, p: int, q: int) -> int:
        block = self.blocks.get((p, q))
        return block.free_rank if block else 0

    def torsion(self, p: int, q: int) -> tuple[int, ...]:
        block = self.blocks.get((p, q))
        return block.torsion if block else ()

    def betti(self, s: int) -> int:
        """Total rank in cohomological degree s (sum over p + q = s)."""
        return sum(b.free_rank for (p, q), b in self.blocks.items() if p + q == s)

    def nonzero(self) -> dict[tuple[int, int], CohomologyBlock]:
        return dict(sorted(self.blocks.items()))

    def ranks(self) -> dict[tuple[int, int], int]:
        """Nonzero free ranks only, so tables over Z and Q compare directly
        (a torsion-only block has free rank 0 and is omitted)."""
        return {k: b.free_rank for k, b in sorted(self.blocks.items()) if b.free_rank}

    def torsions(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {k: b.torsion for k, b in sorted(self.blocks.items()) if b.torsion}

    def agrees_with(self, other: "BigradedTable", torsion: bool = True) -> bool:
        if self.ranks() != other.ranks():
            return False
        return not torsion or self.torsions() == other.torsions()

    def to_json(self) -> dict:
        return {
            "coefficients": self.coeff,
            "h": {
                f"{p},{q}": {"rank": b.free_rank, "torsion": list(b.torsion)}
                for (p, q), b in sorted(self.blocks.items())
            },
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BigradedTable) and self.blocks == other.blocks

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{q}): {b}" for (p, q), b in sorted(self.blocks.items()))
        return f"BigradedTable({{{inner}}})"

    def __str__(self) -> str:
        if not self.blocks:
            return "(trivial)"
        lines = [f"H^{{{p},{q}}} = {b}" for (p, q), b in sorted(self.blocks.items())]
        return "\n".join(lines)
