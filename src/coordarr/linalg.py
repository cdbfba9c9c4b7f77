"""Exact sparse integer/rational linear algebra.

This is the single carrier for every differential in the package: Smith
normal form over the integers, ranks over the rationals, kernel and
quotient bases, ``stripe_cohomology``, which turns one stripe of
composable maps into its groups, eliminating each map once, and
``direct_sum_torsion``, which merges the invariant factors of a direct sum.
Everything is arbitrary precision and deterministic, with no floating
point anywhere.

``smith_normal_form`` and ``rank_rational`` share one sparse unit-pivot
core on row dicts plus a column index (Dumas–Saunders–Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symb.
Comput. 32, 2001), ``_eliminate_units``: it takes every ±1 pivot,
shortest row first (lowest row index on ties), with unimodular Schur
updates and no row scaling, so it is valid over Z and over Q alike.  Two
finishers take the unit-free residual, which on the package's matrices is
rare and tiny:

* over Z, ``smith_normal_form`` diagonalizes it by smallest-magnitude
  integer row and column operations, which the torsion needs;
* over Q, ``rank_rational`` hands its rows to ``_rref``.

Kernel and quotient bases use the same echelon routine, ``_rref`` on sparse
``Fraction`` rows with every subtraction made by ``_subtract``; the reduced
echelon form is unique, and so are the representative vectors.  Invariant
factors are merged with no elimination at all: ``_divisibility_chain``
folds runs (factor, count) by adjacent gcd/lcm swaps, for the Smith
residual and for ``direct_sum_torsion``, so a factor met millions of times
is one run.  ``compose_is_zero`` is the exact sparse product.
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

    def columns(self) -> list[dict[int, Scalar]]:
        cols: list[dict[int, Scalar]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

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


def _eliminate_units(rows: Rows, colindex: ColumnIndex, pivots: list[int] | None = None) -> int:
    """Phase 1: pivot on entries ±1 while any is left; return their number.

    The pivot row is the shortest row holding a unit, lowest row index
    first; its pivot is the unit whose column is shortest, lowest column
    first.  Every other row of the pivot column gets the Schur update
    ``row -= (row[pc] * pv) * prow``, and the pivot row and column are
    dropped.  No row is scaled, so each step is unimodular: it keeps the
    rank over Q and adds one invariant factor 1 over Z.  ``rows`` and
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
    unit-free residual is diagonalized one pivot at a time: take the
    smallest-magnitude entry (lowest (row, col) on ties), clear its column
    with row operations and its row with column operations by division with
    remainder, and retire it once both are clear.  A nonzero remainder is
    smaller than the pivot and is picked next, so the loop ends.  The
    residual diagonal goes through ``_divisibility_chain``; the units lead
    the chain as 1s.  Every pivot is picked by a fixed rule, so the run, not
    just the result, is deterministic.
    """
    if m.is_rational:
        raise ValueError("Smith normal form needs integer entries; use rank_rational")
    rows, colindex = _working_copy(m)
    units = _eliminate_units(rows, colindex)

    def add(r: int, c: int, delta: int) -> None:
        # entry (r, c) += delta, keeping the column index; delta is nonzero
        row = rows[r]
        v = row.get(c, 0) + delta
        if v:
            row[c] = v
            colindex.setdefault(c, set()).add(r)
        else:
            del row[c]
            colindex[c].discard(r)

    diag: list[int] = []
    while rows:
        _, pr, pc = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        prow = rows[pr]
        pv = prow[pc]
        for r in [r for r in colindex[pc] if r != pr]:
            q = rows[r][pc] // pv
            for c, v in prow.items():
                add(r, c, -q * v)
            if not rows[r]:
                del rows[r]
        for c in [c for c in prow if c != pc]:
            q = prow[c] // pv
            for r in list(colindex[pc]):
                add(r, c, -q * rows[r][pc])
        if len(prow) == 1 and len(colindex[pc]) == 1:
            diag.append(abs(pv))
            del rows[pr], colindex[pc]
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
    unit-free residual rows; the rank is the number of pivots of both.  The
    Schur updates of the unit phase are exact on ``Fraction`` entries too,
    so rational input needs no scaling.

    When ``pivots`` is a list, the unit pivot columns P and then the
    ``_rref`` pivot columns Q are appended to it.  Both phases use row
    operations only, so with S the residual (the Schur complement),
    rank M[:, P ∪ Q] = |P| + rank S[:, Q] = |P| + |Q| = rank M: these
    distinct columns are a basis of the column space of ``m``.
    """
    rows, colindex = _working_copy(m)
    rank = _eliminate_units(rows, colindex, pivots)
    residual_pivots = _rref(rows.values())[1]
    if pivots is not None:
        pivots.extend(residual_pivots)
    return rank + len(residual_pivots)


def _subtract(row: dict, f: Fraction, pivot_row: Mapping) -> None:
    """``row -= f * pivot_row`` in place, dropping the entries that cancel:
    the one subtraction of the echelon routine and of its reductions."""
    for k, v in pivot_row.items():
        nv = row.get(k, 0) - f * v
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)


def _rref(rows: Iterable[Mapping]) -> tuple[list[dict], list]:
    """Reduced row echelon form of the matrix with the given sparse rows.

    Column keys only need to sort; columns are processed in increasing key
    order, the first remaining row holding a column becomes its pivot row,
    is scaled to a leading 1 and is subtracted from every other row, reduced
    or not.  Returns (rows, pivot_columns), rows as sparse ``Fraction``
    dicts in pivot order.  The reduced echelon form of a row space is
    unique, so neither the row order nor the pivot-row rule shows in it.
    """
    work = [{k: Fraction(v) for k, v in row.items() if v} for row in rows]
    reduced: list[dict] = []
    pivots: list = []
    for c in sorted({k for row in work for k in row}):
        i = next((i for i, row in enumerate(work) if c in row), None)
        if i is None:
            continue
        pivot_row = work.pop(i)
        inv = 1 / pivot_row[c]
        pivot_row = {k: v * inv for k, v in pivot_row.items()}
        for row in work + reduced:
            f = row.get(c)
            if f:
                _subtract(row, f, pivot_row)
        reduced.append(pivot_row)
        pivots.append(c)
    return reduced, pivots


def kernel_basis(m: ExactMatrix) -> list[dict[int, int]]:
    """Basis of the rational kernel, as primitive integer column vectors.

    ``_rref`` of the rows of ``m``, then the standard free-variable
    parametrization; vectors are indexed by column number and returned in
    free-column order, each scaled to coprime integers with positive entry
    at the free column.
    """
    reduced, pivots = _rref(_working_copy(m)[0].values())
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
        basis.append(_primitive(vec))
    return basis


def quotient_basis(vectors: list[dict[int, Scalar]], image: ExactMatrix) -> list[dict[int, int]]:
    """Vectors spanning ``span(vectors) mod column-span(image)``.

    ``_rref`` of the image columns, taken as rows, is the echelon basis of
    the column span.  Each input vector is reduced against it with the same
    ``_subtract``, and the nonzero rows of ``_rref`` of the reductions come
    back as primitive integer vectors.  Reducing then combining keeps every
    output inside span(vectors) + span(image), so when the inputs are
    cycles and the image is a boundary matrix the outputs are cycles in
    canonical echelon position.
    """
    img_rows, img_pivots = _rref(image.columns())
    reduced: list[dict[int, Scalar]] = []
    for vec in vectors:
        work = dict(vec)
        for row, pc in zip(img_rows, img_pivots):
            f = work.get(pc)
            if f:
                _subtract(work, f, row)
        reduced.append(work)
    return [_primitive(row) for row in _rref(reduced)[0]]


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
