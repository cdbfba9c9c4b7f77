"""Exact sparse integer/rational linear algebra.

This is the single carrier for every differential in the package: Smith
normal form over the integers, ranks over the rationals, kernel and
quotient bases, ``stripe_cohomology``, which turns one stripe of
composable maps into its groups, eliminating each map once, and
``direct_sum_torsion``, which merges the invariant factors of a direct sum.
Everything is arbitrary precision and deterministic, with no floating
point anywhere.

Every elimination works on one representation, the row dicts and column
index of ``_working_copy``, and changes it by one row operation, the Schur
update ``_schur_update`` (Dumas–Saunders–Villard, "On efficient sparse
integer matrix Smith normal form computations", J. Symb. Comput. 32,
2001): the unit phase, the echelon form and the Smith residual all write
their entries through it.  ``_eliminate_units`` takes every ±1 pivot,
shortest row first (lowest row index on ties), with no row scaling, so it
is valid over Z and over Q alike.  Two finishers take the unit-free
residual, which on the package's matrices is rare and tiny:

* over Z, ``smith_normal_form`` diagonalizes it by smallest-magnitude
  division with remainder, which the torsion needs, finding each pivot
  column's rows from the rows themselves, not from the index;
* over Q, ``rank_rational`` hands it, in place, to ``_rref``.

Kernel and quotient bases run ``_rref`` on the whole matrix: it pivots on
the leftmost columns, as the reduced echelon form must, and keeps integer
entries until a pivot is not ±1.  The reduced echelon form is unique, and
so are the representative vectors.  Invariant factors are merged with no
elimination at all: ``_divisibility_chain`` folds runs (factor, count) by
adjacent gcd/lcm swaps, for the Smith residual and for
``direct_sum_torsion``, so a factor met millions of times is one run.
``compose_is_zero`` is the exact sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping

__all__ = [
    "CheckFailed",
    "ExactMatrix",
    "SnfResult",
    "CohomologyBlock",
    "BigradedTable",
    "smith_normal_form",
    "direct_sum_torsion",
    "rank_rational",
    "kernel_basis",
    "quotient_basis",
    "stripe_cohomology",
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

    # -- queries ---------------------------------------------------------...

    @property
    def is_rational(self) -> bool:
        return any(type(v) is Fraction for v in self.entries.values())

    def is_zero(self) -> bool:
        return not self.entries

    # -- algebra ---------------------------------------------------------...

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

Rows = dict[int, dict[int, Scalar]]
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


def _schur_update(rows: Rows, colindex: ColumnIndex, r: int, prow: Mapping[int, Scalar],
                  f: Scalar) -> dict[int, Scalar]:
    """``row -= f * prow`` on row ``r`` in place, for ``f`` nonzero: the one
    row operation of the unit phase, the echelon form and the Smith
    residual.  Fill-in joins the column index, cancelled entries leave it,
    and a row that vanishes is deleted from ``rows``; the row is returned.
    The unit phase and the echelon form pop the pivot entry of row ``r``
    and of ``prow`` first, since their pivot column has left the index; the
    Smith residual keeps it, so row ``r`` is left with its remainder.
    """
    row = rows[r]
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
    if not row:
        del rows[r]
    return row


def _eliminate_units(rows: Rows, colindex: ColumnIndex, pivots: list[int] | None = None) -> int:
    """Phase 1: pivot on entries ±1 while any is left; return their number.

    The pivot row is the shortest row holding a unit, lowest row index
    first; its pivot is the unit whose column is shortest, lowest column
    first.  Every other row of the pivot column gets ``_schur_update``,
    and the pivot row and column are dropped.  A unit is its own inverse
    and no row is scaled, so each step is unimodular: it keeps the rank
    over Q and adds one invariant factor 1 over Z.  ``rows`` and
    ``colindex`` are left holding the unit-free residual.  When ``pivots``
    is a list, the pivot column of every step is appended to it.

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
        if pivots is not None:
            pivots.append(pc)
        del rows[pr]
        for c in prow:
            colindex[c].discard(pr)
        pcol = colindex.pop(pc)
        pcol.discard(pr)
        for r in pcol:
            row = _schur_update(rows, colindex, r, prow, rows[r].pop(pc) * pv)
            if row:
                heappush(heap, (len(row), r))
    return units


def _rref(rows: Rows, colindex: ColumnIndex) -> tuple[dict[int, dict[int, Scalar]], list[int]]:
    """Reduced row echelon form of a working copy, consumed in place.

    Columns are taken in increasing order.  The lowest-numbered row that
    holds a column and has not pivoted yet becomes its pivot row, and every
    other row holding the column, pivot rows included, gets
    ``_schur_update``.  Rows are scaled to a leading 1 only at the end, so
    a ``Fraction`` enters only at a pivot other than ±1.  Returns (reduced,
    pivots): each pivot row's index mapped to its reduced row, and the
    pivot columns, both in pivot order.  The reduced echelon form is
    unique, so the pivot-row rule shows only in the row indices.
    """
    if not rows:
        return {}, []
    taken: dict[int, tuple[int, Scalar]] = {}  # pivot row -> (pivot column, 1 / pivot)
    for pc in sorted(c for c, col in colindex.items() if col):
        col = colindex.pop(pc)
        pr = min((r for r in col if r not in taken), default=None)
        if pr is None:
            continue
        prow = rows[pr]
        pv = prow.pop(pc)
        inv = pv if pv == 1 or pv == -1 else 1 / Fraction(pv)
        for r in col:
            if r != pr:
                _schur_update(rows, colindex, r, prow, rows[r].pop(pc) * inv)
        taken[pr] = pc, inv
    # scale to a leading 1; a pivot row held without its pivot may be gone
    reduced = {pr: {pc: 1, **{c: v * inv for c, v in rows.get(pr, {}).items()}}
               for pr, (pc, inv) in taken.items()}
    return reduced, [pc for pc, _ in taken.values()]


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
    unit-free residual is diagonalized one pivot at a time, by the same
    Schur update: take the smallest-magnitude entry (lowest (row, col) on
    ties) and reduce every other row that holds its column modulo the pivot
    row.  Once the column holds the pivot alone, column operations touch
    only the pivot row: it is reduced modulo the pivot, and the pivot is
    retired if nothing else is left in its row.  Each round thus retires a
    pivot and deletes its row, or leaves a nonzero remainder smaller than
    the pivot and so lowers the smallest |entry|, which stays at least 1:
    the loop ends, whatever the column index holds, since the rows of a
    column are found by reading the rows.  The residual diagonal goes
    through ``_divisibility_chain``; the units lead the chain as 1s.  Every
    pivot is picked by a fixed rule, so the run, not just the result, is
    deterministic.
    """
    if m.is_rational:
        raise ValueError("Smith normal form needs integer entries; use rank_rational")
    rows, colindex = _working_copy(m)
    units = _eliminate_units(rows, colindex)

    diag: list[int] = []
    while rows:
        _, pr, pc = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        prow = rows[pr]
        pv = prow[pc]
        for r in [r for r, row in rows.items() if r != pr and pc in row]:
            _schur_update(rows, colindex, r, prow, rows[r][pc] // pv)
        if any(pc in row for r, row in rows.items() if r != pr):
            continue  # a remainder, smaller than the pivot, is the next pivot
        # column operations now touch the pivot row alone: reduce it modulo the pivot
        _schur_update(rows, colindex, pr, {c: v - v % pv for c, v in prow.items() if c != pc}, 1)
        if len(prow) == 1:
            diag.append(abs(pv))
            del rows[pr]
    chain = [d for d, count in _divisibility_chain((d, 1) for d in diag) for _ in range(count)]
    diag = [1] * units + chain + [0] * (min(m.rows, m.cols) - units - len(diag))
    return SnfResult(tuple(diag))


def _divisibility_chain(runs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The invariant factors d_1 | d_2 | ... of the direct sum of the cyclic
    groups Z/f, ``count`` copies for each (f, count) in ``runs`` (f and
    count positive), as runs [d, count] in increasing d.

    Sort, then replace each adjacent pair that breaks divisibility by its
    (gcd, lcm), stepping back after each replacement, until none does: gcd
    and lcm are min and max on each prime's exponent, so this sorts every
    prime's exponents and keeps the product, with no matrix.  Equal factors
    stay runs, so m copies of a meeting k copies of b swap whole: min(m, k)
    gcds and lcms around the surplus a's or b's, and no run is expanded.
    """
    runs = [[v, sum(count for _, count in copies)] for v, copies in groupby(sorted(runs), key=itemgetter(0))]
    i = 1
    while i < len(runs):
        (a, m), (b, k) = runs[i - 1], runs[i]
        if a == b:
            runs[i - 1 : i + 1] = [[a, m + k]]
        elif b % a:
            g, n = gcd(a, b), min(m, k)
            surplus = [[b, k - n]] if k > n else [[a, m - n]] if m > n else []
            runs[i - 1 : i + 1] = [[g, n], *surplus, [a // g * b, n]]
            i = max(i - 1, 1)
        else:
            i += 1
    return runs


def direct_sum_torsion(parts: Iterable[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
    """Invariant factors of a direct sum, from counted parts (factors,
    count): ``count`` copies of a summand with invariant factors
    ``factors``.  ``_divisibility_chain`` folds the runs (d, count) of all
    of them, and only the runs of the result above 1 are expanded, so
    (2,) and (3,) give (6,), one summand is its own answer, and a count in
    the millions costs one run."""
    runs = _divisibility_chain((d, count) for factors, count in parts for d in factors)
    return tuple(d for d, count in runs if d > 1 for _ in range(count))


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------

def _primitive(vec: Mapping[int, Scalar]) -> dict[int, int]:
    """The positive multiple of a nonzero rational vector whose entries are
    coprime integers."""
    denom = lcm(*(v.denominator for v in vec.values()))
    scaled = {k: int(v * denom) for k, v in vec.items()}
    g = gcd(*scaled.values())
    return {k: v // g for k, v in scaled.items()}


def rank_rational(m: ExactMatrix, pivots: list[int] | None = None) -> int:
    """Rank over the rationals.

    ``_eliminate_units`` takes every ±1 pivot, and ``_rref`` finishes the
    unit-free residual it leaves in place; the rank is the number of
    pivots of both.  The Schur updates are exact on ``Fraction`` entries
    too, so rational input needs no scaling.

    When ``pivots`` is a list, the unit pivot columns P and then the
    ``_rref`` pivot columns Q are appended to it.  Both phases use row
    operations only, so with S the residual (the Schur complement),
    rank M[:, P ∪ Q] = |P| + rank S[:, Q] = |P| + |Q| = rank M: these
    distinct columns are a basis of the column space of ``m``.
    """
    rows, colindex = _working_copy(m)
    rank = _eliminate_units(rows, colindex, pivots)
    residual_pivots = _rref(rows, colindex)[1]
    if pivots is not None:
        pivots.extend(residual_pivots)
    return rank + len(residual_pivots)


def kernel_basis(m: ExactMatrix) -> list[dict[int, int]]:
    """Basis of the rational kernel, as primitive integer column vectors.

    ``_rref`` of the rows of ``m``, then the standard free-variable
    parametrization; vectors are indexed by column number and returned in
    free-column order, each scaled to coprime integers with positive entry
    at the free column.
    """
    reduced, pivots = _rref(*_working_copy(m))
    pivot_set = set(pivots)
    basis: list[dict[int, int]] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec: dict[int, Scalar] = {free: 1}
        for row, pc in zip(reduced.values(), pivots):
            coeff = row.get(free)
            if coeff:
                vec[pc] = -coeff
        basis.append(_primitive(vec))
    return basis


def quotient_basis(vectors: list[dict[int, Scalar]], image: ExactMatrix) -> list[dict[int, int]]:
    """Vectors spanning ``span(vectors) mod column-span(image)``.

    One ``_rref`` runs over the image columns, taken as rows, then the
    vectors.  The image rows come first, so an image row takes every pivot
    that an image row yet to pivot holds: they pivot exactly at the pivots
    of the image's own echelon form.  The reduced rows that vector rows
    pivot vanish there and lie in span(vectors) + span(image); they come
    back as primitive integer vectors, so cycles reduced modulo boundaries
    stay cycles in canonical echelon position.
    """
    stacked = {(c, r): v for (r, c), v in image.entries.items()}
    for i, vec in enumerate(vectors, image.cols):
        stacked.update(((i, k), v) for k, v in vec.items())
    reduced = _rref(*_working_copy(ExactMatrix(image.cols + len(vectors), image.rows, stacked)))[0]
    return [_primitive(row) for r, row in reduced.items() if r >= image.cols]


# ---------------------------------------------------------------------------
# stripes and bigraded tables
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


def stripe_cohomology(maps: Iterable[ExactMatrix], coeff: str = "Z") -> list[CohomologyBlock]:
    """Groups of the complex  0 --d_(-1)--> C_0 --d_0--> ... --> C_k --d_k--> 0,
    one per junction of consecutive maps, from ``maps`` = d_(-1), ..., d_k.

    The maps are read one at a time and at most two are held.  Each map
    with an entry is eliminated once: over Z its Smith form gives its rank
    and the torsion at its target (the cokernel splits off the free part,
    since C/ker embeds into the next group), over Q ``rank_rational`` gives
    the rank.  At every junction the shapes must match, the composite must
    vanish (else ``CheckFailed``: a sign-convention bug upstream) and the
    free rank dim - rank(d_out) - rank(d_in) must not be negative.
    """
    if coeff not in ("Z", "Q"):
        raise ValueError(f"unknown coefficient ring {coeff!r}")

    def eliminate(d: ExactMatrix) -> tuple[int, tuple[int, ...]]:
        if coeff == "Z" and d.entries:
            snf = smith_normal_form(d)
            return snf.rank, snf.torsion
        return (rank_rational(d) if d.entries else 0), ()

    maps = iter(maps)
    d_in = next(maps, None)
    if d_in is None:
        return []
    rank_in, torsion_in = eliminate(d_in)
    groups: list[CohomologyBlock] = []
    for d_out in maps:
        if d_in.rows != d_out.cols:
            raise ValueError(
                f"block mismatch: d_in targets dim {d_in.rows}, d_out leaves dim {d_out.cols}"
            )
        if not compose_is_zero(d_out, d_in):
            raise CheckFailed("d_out o d_in != 0: differential blocks do not compose to zero")
        rank_out, torsion_out = eliminate(d_out)
        free = d_in.rows - rank_out - rank_in
        if free < 0:
            raise CheckFailed("negative free rank: maps are not a complex")
        groups.append(CohomologyBlock(free, torsion_in))
        d_in, rank_in, torsion_in = d_out, rank_out, torsion_out
    return groups


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

    def ranks(self) -> dict[tuple[int, int], int]:
        """Nonzero free ranks only, so tables over Z and Q compare directly
        (a torsion-only block has free rank 0 and is omitted)."""
        return {k: b.free_rank for k, b in sorted(self.blocks.items()) if b.free_rank}

    def torsions(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {k: b.torsion for k, b in sorted(self.blocks.items()) if b.torsion}

    def to_json(self) -> dict:
        return {
            "coefficients": self.coeff,
            "h": {
                f"{p},{q}": {"rank": b.free_rank, "torsion": list(b.torsion)}
                for (p, q), b in sorted(self.blocks.items())
            },
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{q}): {b}" for (p, q), b in sorted(self.blocks.items()))
        return f"BigradedTable({{{inner}}})"

    def __str__(self) -> str:
        if not self.blocks:
            return "(trivial)"
        lines = [f"H^{{{p},{q}}} = {b}" for (p, q), b in sorted(self.blocks.items())]
        return "\n".join(lines)
