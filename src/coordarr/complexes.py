"""Simplicial complexes on the vertex set {1, ..., n} and the index data of
the associated coordinate subspace arrangement.

A face is stored as an integer bitmask: bit k-1 is set exactly when vertex k
belongs to the face (vertex labels are 1-based).  All combinatorial data of
the arrangement ``Z_K`` (union of the coordinate planes of the non-faces) and
of its tubular cover is derived from the face family: every face ``sigma``
indexes one cover element ``U_sigma``, the set of points whose coordinates
outside ``sigma`` are nonzero, and cover elements intersect by
``U_a & U_b = U_{a & b}``.

Complexes in which some singleton {i} is not a face are accepted -- they
produce a codimension-one component {z_i = 0} -- but a warning is emitted
because most interesting arrangements have codimension at least two.
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

__all__ = [
    "MAX_VERTICES",
    "ComplexError",
    "CodimensionOneWarning",
    "SimplicialComplex",
    "parse_complex",
    "mask_of",
    "elements",
    "card",
    "face_key",
    "pos_in",
    "subsets_of",
]

#: Hard cap on the number of vertices; every model explodes combinatorially
#: long before a 24-bit mask does.
MAX_VERTICES = 24


class ComplexError(ValueError):
    """Malformed input for a simplicial complex."""


class CodimensionOneWarning(UserWarning):
    """Some singleton {i} is not a face, so the arrangement contains the
    hyperplane {z_i = 0}.  All formulas remain valid verbatim."""


# ---------------------------------------------------------------------------
# bitmask helpers (faces are plain ints; bit k-1 <-> vertex k)
# ---------------------------------------------------------------------------

def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def elements(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a mask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def card(mask: int) -> int:
    """Number of vertices in a mask."""
    return mask.bit_count()


def intersection(masks: Iterable[int]) -> int:
    """The common vertices of the masks: a cover tuple's intersection is
    that of its indices (all bits set for no mask)."""
    inter = -1
    for mask in masks:
        inter &= mask
    return inter


def face_key(mask: int) -> tuple[int, int]:
    """Total order on faces: by cardinality, then by bitmask value.

    Every tuple of cover indices is stored sorted strictly increasing in
    this key; all alternating data is normalized against it.
    """
    return (mask.bit_count(), mask)


def pos_in(mask: int, v: int) -> int:
    """1-based position of vertex ``v`` inside the sorted elements of
    ``mask`` (``v`` must belong to the mask)."""
    return (mask & ((1 << (v - 1)) - 1)).bit_count() + 1


# room for every k of every n up to 9; n counts the vertices of a complex,
# or the facets of the cover whose position masks the Čech oracle lists
@lru_cache(maxsize=64)
def k_subsets(n: int, k: int) -> tuple[int, ...]:
    """The masks of the k-subsets of {1, ..., n}, in the lexicographic
    order of their sorted elements."""
    return tuple(mask_of(c) for c in combinations(range(1, n + 1), k))


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, the empty set included."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """A finite simplicial complex on {1, ..., n}, including the empty face.

    The face family is kept as a frozenset of masks and is downward closed
    by construction.  Instances are immutable and compare by identity; all
    derived data is cached, so they are safe to share between threads.
    """

    __slots__ = ("n", "facets", "__dict__")

    def __init__(self, n: int, facets: Iterable[int]):
        if not isinstance(n, int) or n < 1:
            raise ComplexError(f"vertex count must be a positive integer, got {n!r}")
        if n > MAX_VERTICES:
            raise ComplexError(f"vertex count {n} exceeds the {MAX_VERTICES}-bit mask limit")
        full = (1 << n) - 1
        gens = set()
        for f in facets:
            if f & ~full:
                raise ComplexError(
                    f"face {elements(f)} has vertices outside 1..{n}"
                )
            gens.add(f)
        if not gens:
            gens = {0}
        # reduce the generating set to the maximal antichain
        maximal = [f for f in gens if not any(f != g and f & g == f for g in gens)]
        self.n = n
        self.facets: tuple[int, ...] = tuple(sorted(maximal, key=face_key))
        if self.missing_vertices:
            warnings.warn(
                f"vertices {self.missing_vertices} are not faces; the arrangement "
                "gains codimension-one components",
                CodimensionOneWarning,
                stacklevel=2,
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertex_lists(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return cls(n, (mask_of(f) for f in facets))

    @classmethod
    def from_missing_faces(cls, n: int, missing: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex whose faces are exactly the subsets containing no listed
        missing face.

        The faces grow from the empty one by adding vertices in increasing
        order, so each face is met once, from itself minus its top vertex.
        That smaller face contains no missing face, so the extension is a
        face unless it contains a missing face whose top vertex is the
        added one, and only those are tested.  The faces are closed
        downwards, so a face is maximal exactly when no one-vertex
        extension of it is a face."""
        if n > MAX_VERTICES:
            raise ComplexError(f"vertex count {n} exceeds the {MAX_VERTICES}-bit mask limit")
        missing = [tuple(f) for f in missing]
        bad = [mask_of(f) for f in missing]
        full = (1 << n) - 1
        for b, f in zip(bad, missing):
            if b & ~full:
                raise ComplexError(f"missing face {list(f)} has vertices outside 1..{n}")
            if b == 0:
                raise ComplexError("the empty set cannot be a missing face")
        by_top: list[list[int]] = [[] for _ in range(n)]
        for b in bad:
            by_top[b.bit_length() - 1].append(b)
        faces: set[int] = set()
        stack = [0]
        while stack:
            face = stack.pop()
            faces.add(face)
            for k in range(face.bit_length(), n):
                grown = face | 1 << k
                if not any(grown & b == b for b in by_top[k]):
                    stack.append(grown)
        vertices = [1 << k for k in range(n)]
        maximal = [f for f in faces if not any(not f & v and f | v in faces for v in vertices)]
        return cls(n, maximal)

    # -- derived face data ---------------------------------------------------

    @cached_property
    def faces(self) -> frozenset[int]:
        out: set[int] = set()
        for f in self.facets:
            out.update(subsets_of(f))
        return frozenset(out)

    @cached_property
    def faces_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.faces, key=face_key))

    def is_face(self, mask: int) -> bool:
        return mask in self.faces

    @cached_property
    def vertex_support(self) -> int:
        """Mask of vertices that actually span a face."""
        m = 0
        for f in self.facets:
            m |= f
        return m

    @property
    def missing_vertices(self) -> tuple[int, ...]:
        return elements(((1 << self.n) - 1) & ~self.vertex_support)

    def containing_facet(self, mask: int) -> int:
        """First facet (in the face order) containing the given face."""
        for f in self.facets:
            if mask & f == mask:
                return f
        raise ValueError(f"{elements(mask)} is not a face")

    def k_subsets(self, k: int) -> tuple[int, ...]:
        """All k-element subsets of [n] as masks, in lexicographic order of
        their sorted vertex lists; shared by every complex on n vertices."""
        return k_subsets(self.n, k)

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[list(elements(f)) for f in self.facets]})"


def parse_complex(document: str | dict) -> SimplicialComplex:
    """Build a complex from a JSON document (text or already-parsed dict).

    The document must supply ``n`` and either ``facets`` or
    ``missing_faces`` (lists of 1-based vertex lists).  When both are
    present, ``facets`` wins.  JSON ``true`` and ``false`` are not integers
    here, though Python counts ``bool`` as ``int``.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        # a document nested too deep for the decoder raises RecursionError
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ComplexError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ComplexError(f"expected a JSON object, got {type(document).__name__}")
    if "n" not in document or document["n"] in (None, ""):
        raise ComplexError("missing vertex count 'n'")
    n = document["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ComplexError(f"'n' must be an integer, got {n!r}")
    if n < 1:
        # before the vertex lists, which would be read against 1..n
        raise ComplexError(f"vertex count must be a positive integer, got {n!r}")
    if "facets" in document:
        facets = document["facets"]
        _check_vertex_lists(facets, "facets", n)
        return SimplicialComplex.from_vertex_lists(n, facets)
    if "missing_faces" in document:
        missing = document["missing_faces"]
        _check_vertex_lists(missing, "missing_faces", n)
        return SimplicialComplex.from_missing_faces(n, missing)
    raise ComplexError("document supplies neither 'facets' nor 'missing_faces'")


def _check_vertex_lists(lists: object, label: str, n: int) -> None:
    """Refuse anything but lists of labels in 1..n, before any mask is
    built: a label far above n would make a mask of that many bits."""
    if not isinstance(lists, (list, tuple)):
        raise ComplexError(f"'{label}' must be a list of vertex lists")
    for entry in lists:
        if not isinstance(entry, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in entry
        ):
            raise ComplexError(f"'{label}' entries must be lists of positive integers")
        if any(v > n for v in entry):
            raise ComplexError(f"'{label}' entry {list(entry)} has vertices outside 1..{n}")
