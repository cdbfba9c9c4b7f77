"""Cauchy-type integral representations with singularities on a coordinate
subspace arrangement.

For a class of top holomorphic degree (bidegree (n, s-n)) the data of the
representation is assembled from the three finite models:

* a representative log cocycle, every value a rational multiple of
  dz_1/z_1 ^ ... ^ dz_n/z_n (admissibility forces its support onto tuples
  of faces with empty intersection), computed on the facet cover and
  pulled back to the face cover only at the tuples of the top piece below:
  the pairing and the reproduction formula read nothing else, and the full
  pullback grows like (faces/facets)^(s-n+1);
* the top resolvent piece of a dual product cycle, a degree-(s-n) cover
  chain all of whose atoms are the full torus, built only on the flag
  prefixes that can still be completed to a full flag where some facet
  cocycle pulls back to nonzero.  The whole piece has n! tuples on the
  boundary of the simplex on n vertices, and the pairing reads one of
  them; there the build keeps one tuple in each piece;
* the exact pairing of the two, a nonzero rational multiple c of
  (2 pi i)^n; the scale is the rational 1/c, and the normalization is
  scale * (2 pi i)^-n.

With the scale in place the pairing of cocycle against top piece is exactly
one, and for a function f holomorphic near the closed unit polydisc,

    f(zeta) = sum over support tuples of
              C'_T * B_T * integral over the unit torus of
              f(z) dz_1/(z_1 - zeta_1) ^ ... ^ dz_n/(z_n - zeta_n),

evaluated here by the uniform tensor-product trapezoid rule on the torus
(spectrally accurate for analytic integrands; for polynomial f the rule is
exact up to the geometric tail |zeta|^N).  Only the top piece enters: lower
resolvent pieces carry disk factors, against which holomorphic forms have
no periods.  The kernel is shifted by zeta, the cycle is not; shifting the
cycle instead would sweep out a homotopy that never meets the arrangement,
so the value only depends on the class data.

Test functions are polynomials: dense enough for validation and equipped
with an exact oracle (evaluate the polynomial at zeta).
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from . import cech, cells, koszul
from .complexes import SimplicialComplex
from .linalg import CheckFailed
from .resolvents import UChain, build_resolvent, pair, resolvent_pairing

__all__ = [
    "PolyFunction",
    "parse_polynomial",
    "MAX_NODES",
    "QuadratureSpec",
    "KernelData",
    "KernelUnavailableError",
    "build_kernel",
    "evaluate_representation",
    "verify_reproduction",
]


class KernelUnavailableError(ValueError):
    """No class of full holomorphic degree exists in the requested total
    degree; the message reports the relevant bigraded ranks."""


class PolyFunction:
    """Polynomial in n complex variables: exponent tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        self.n = n
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != n or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent vector {expo} for {n} variables")
                coeff = complex(coeff)
                if not cmath.isfinite(coeff):
                    raise ValueError(f"coefficient {coeff} of {expo} is not finite")
                if coeff:
                    self.terms[tuple(expo)] = coeff

    def __call__(self, z: Sequence[complex]) -> complex:
        """Value at one point."""
        total = 0j
        for expo, coeff in self.terms.items():
            term = coeff
            for zj, e in zip(z, expo):
                if e:
                    term = term * complex(zj) ** e
            total = total + term
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for expo, coeff in sorted(self.terms.items()):
            mono = "*".join(f"z{j + 1}^{e}" for j, e in enumerate(expo) if e)
            bits.append(f"({coeff})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


_FACTOR = re.compile(r"^z(\d+)(?:\^(\d+))?$")


def _parse_complex_literal(text: str) -> complex:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise ValueError(f"complex literal {text!r} is not finite")
    return value


def parse_polynomial(text: str, n: int) -> PolyFunction:
    """Parse  c*z1^a1*...*zn^an + ...  with complex coefficients written as
    ``re``, ``imi`` or ``(re+imi)``, e.g. ``1+z1^2*z2^3`` or
    ``(0.5-2i)*z1*z3^2``."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial")
    # split into signed terms at top level (parentheses only wrap scalars,
    # which never contain *, so a simple depth scan suffices)
    terms: list[str] = []
    depth = 0
    current = ""
    for ch in cleaned:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and current and current[-1] not in "eE*^(+-":
            terms.append(current)
            current = ch
        else:
            current += ch
    terms.append(current)

    out: dict[tuple[int, ...], complex] = {}
    for term in terms:
        sign = 1.0
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = complex(sign)
        expo = [0] * n
        for factor in body.split("*"):
            match = _FACTOR.match(factor)
            if match:
                idx = int(match.group(1))
                if not 1 <= idx <= n:
                    raise ValueError(f"variable z{idx} out of range for {n} variables")
                expo[idx - 1] += int(match.group(2) or 1)
            else:
                coeff *= _parse_complex_literal(factor)
        key = tuple(expo)
        out[key] = out.get(key, 0j) + coeff
    return PolyFunction(n, out)


#: largest node count per circle; ``circle`` allocates that many points
MAX_NODES = 2**20


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform tensor grid on the unit torus: N nodes per circle."""

    nodes: int

    def __post_init__(self) -> None:
        if self.nodes < 4 or self.nodes & (self.nodes - 1):
            raise ValueError("node count must be a power of two, at least 4")
        if self.nodes > MAX_NODES:
            raise ValueError(f"node count {self.nodes} exceeds the limit {MAX_NODES}")

    def circle(self) -> list[complex]:
        return [cmath.exp(1j * (2.0 * math.pi * k / self.nodes)) for k in range(self.nodes)]


@dataclass
class KernelData:
    """Normalized data of one integral representation.

    ``top_piece`` holds the top resolvent piece on the kept flags only,
    those where some facet cocycle can pull back to nonzero, built from the
    prefixes of these flags alone; its coefficients there are those of the
    whole piece.  ``cocycle`` holds the pulled-back cocycle on those tuples
    (its nonzero values there), which is exactly what ``raw_pairing`` and
    ``evaluate_representation`` sum over, so the pairing is that of the
    whole piece.  The cocycle has form degree n, so the pairing is ``raw_pairing() * (2 pi i)^n`` and
    the normalization ``scale * (2 pi i)^-n``: the powers cancel by
    construction, and only the rational factors are stored.
    """

    n: int
    s: int
    cocycle: cech.LogCochain
    top_piece: UChain
    scale: Fraction

    def raw_pairing(self) -> Fraction:
        return pair(self.cocycle, self.top_piece)

    def check_normalized(self) -> bool:
        return self.raw_pairing() * self.scale == 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "cocycle": self.cocycle.to_json(),
            "top_piece": self.top_piece.to_json(),
            "scale": {
                "num": str(self.scale.numerator),
                "den": str(self.scale.denominator),
                "tau_power": -self.n,
            },
        }


def build_kernel(K: SimplicialComplex, s: int) -> KernelData:
    """Assemble the representation data for total degree s.

    Picks a product cycle of bidegree (n, s-n) and a representative log
    cocycle with a nonzero pairing (nondegeneracy of the bidegree pairing
    guarantees some pair works), then normalizes.  The cycles come from
    the one bidegree (n, s-n) of the cell model, and there are h(n, s-n) of
    them, so an empty list is the test that no kernel exists.  The cocycles
    stay on the facet cover.  Each resolvent is built only on the flag
    prefixes that ``_pullback_can_be_nonzero`` keeps, those that can still
    be completed to a full flag where some facet cocycle can pull back to
    nonzero, and checked at each of them (``CheckFailed`` on a broken
    identity, or when every pairing is zero, which nondegeneracy forbids);
    each cocycle is pulled back to the face cover only at the kept top
    tuples.  The pruned tuples pull back to zero under every cocycle, so
    the pairings, and with them the cycle and cocycle the search settles
    on, are those of the whole resolvent.  A total degree outside 0..2n is
    bad input (``ValueError``), refused before any work.
    """
    n = K.n
    if not 0 <= s <= 2 * n:
        raise ValueError(f"total degree s = {s} out of range 0..{2 * n}")
    q = s - n
    cycles = cells.homology(K, n, q)
    if not cycles:
        table = koszul.cohomology(K, "Q")
        row = {p: table.free(p, s - p) for p in range(n + 1) if table.free(p, s - p)}
        raise KernelUnavailableError(
            f"no class of full holomorphic degree in H^{s}: "
            f"h(n={n}, q={q}) = 0; nonzero ranks in degree {s}: {row or 'none'}"
        )
    facet_cocycles = cech.representative_cocycles(K, n, q)
    keep = _pullback_can_be_nonzero(K, facet_cocycles)
    for cycle in cycles:
        resolvent = build_resolvent(K, cycle, keep)
        for facet_cocycle in facet_cocycles:
            cocycle = cech.pullback_to_faces(K, facet_cocycle, resolvent.top.values)
            raw = resolvent_pairing(resolvent, cocycle)
            if raw:
                return KernelData(n=n, s=s, cocycle=cocycle, top_piece=resolvent.top, scale=1 / raw)
    raise CheckFailed(
        "pairing matrix between cycle and cocycle bases is zero; "
        "this contradicts nondegeneracy and indicates a bug"
    )


def _pullback_can_be_nonzero(
    K: SimplicialComplex, facet_cocycles: list[cech.LogCochain]
) -> Callable[[tuple[int, ...]], bool]:
    """Predicate on resolvent flag prefixes: true exactly when some full
    flag that extends the prefix pulls back to nonzero under some facet
    cocycle.

    The pullback at a face tuple T is the facet cochain at r(T), with r the
    first containing facet.  It is nonzero under some cocycle exactly when
    the faces of T have pairwise distinct facets r and these make up a
    support tuple.  A prefix (sigma_k, ..., sigma_0) extends as
    ``build_resolvent`` extends it, one vertex dropped per step down to the
    empty face, and it is kept when some such completion qualifies: a
    recursion over (smallest face, facets seen so far) that gives up as
    soon as the facets repeat or lie in no support tuple, memoized for the
    life of the predicate.  A full flag is its own only completion, so the
    kept top tuples are exactly those that pull back to nonzero, and every
    kept prefix has a kept child.
    """
    position = {facet: i for i, facet in enumerate(K.facets)}
    supports = set()
    for w in facet_cocycles:
        for tup in w.values:
            supports.add(sum(1 << position[facet] for facet in tup))

    @functools.cache
    def bit(face: int) -> int:
        return 1 << position[K.containing_facet(face)]

    @functools.cache
    def can_complete(face: int, seen: int) -> bool:
        # seen holds r of face and of every larger face of the flag
        if not any(seen & support == seen for support in supports):
            return False
        rest = face
        while rest:
            vertex = rest & -rest
            rest ^= vertex
            child = face ^ vertex
            b = bit(child)
            if not seen & b and can_complete(child, seen | b):
                return True
        return not face

    def keep(prefix: tuple[int, ...]) -> bool:
        seen = 0
        for face in prefix:
            b = bit(face)
            if seen & b:
                return False
            seen |= b
        return can_complete(prefix[0], seen)

    return keep


def _axis_sums(zeta_j: complex, residues: Iterable[int], circle: list[complex]) -> dict[int, complex]:
    """S(e) = average over the grid nodes w of  w^(e+1) / (w - zeta_j), for
    each e in ``residues``; the per-axis factors of the separated rule.
    Every node has w^N = 1, so S(e) = S(e mod N): a caller passes the
    residues mod N of the exponents it uses and reads exponent e at
    ``e % N``.  The power w_k^(e+1) is the node k*(e+1) mod N itself, so no
    rounding accumulates along e, and the cost is N per residue.  The terms
    nearly cancel, so real and imaginary parts are summed with
    ``math.fsum``, whose rounding error does not grow with N."""
    nodes = len(circle)
    gaps = [w - zeta_j for w in circle]
    out = {}
    for e in residues:
        step = e + 1
        terms = [circle[k * step % nodes] / gap for k, gap in enumerate(gaps)]
        out[e] = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)) / nodes
    return out


def evaluate_representation(
    kernel: KernelData,
    f: PolyFunction,
    zeta: Sequence[complex],
    spec: QuadratureSpec,
) -> complex:
    """Reproduce f at an interior point of the unit polydisc.

    The exact part (cycle coefficients, cocycle coefficients, the
    normalization scale and the (2 pi i) powers) is combined over the
    rationals first; the single remaining transcendental ingredient is the
    normalized torus quadrature of f(z) * prod_j z_j/(z_j - zeta_j).  The
    tensor trapezoid rule for it factors per monomial per axis, so no grid
    of N^n points is ever formed.
    """
    n = kernel.n
    if f.n != n:
        raise ValueError(f"polynomial has {f.n} variables, kernel expects {n}")
    zeta = [complex(z) for z in zeta]
    if len(zeta) != n:
        raise ValueError(f"point has {len(zeta)} coordinates, expected {n}")
    if not all(abs(z) < 1.0 for z in zeta):  # also false for nan
        raise ValueError("evaluation point must lie strictly inside the unit polydisc")

    # the (2 pi i)^n of the raw pairing and the (2 pi i)^-n of the scale
    # cancel, so only their rational factors enter
    prefactor = complex(kernel.scale * kernel.raw_pairing())

    if not f.terms:
        return 0j
    circle = spec.circle()
    axis = [_axis_sums(zeta[j], {expo[j] % spec.nodes for expo in f.terms}, circle) for j in range(n)]
    quad = 0j
    for expo, coeff in sorted(f.terms.items()):
        term = coeff
        for j, e in enumerate(expo):
            term *= axis[j][e % spec.nodes]
        quad += term
    return prefactor * quad


def verify_reproduction(
    kernel: KernelData,
    f: PolyFunction,
    zetas: Iterable[Sequence[complex]],
    spec: QuadratureSpec,
) -> list[dict]:
    """Reproduction report for one test function over sample points."""
    report = []
    for zeta in zetas:
        computed = evaluate_representation(kernel, f, zeta, spec)
        expected = f(zeta)
        report.append(
            {
                "zeta": [[z.real, z.imag] for z in map(complex, zeta)],
                "expected": [expected.real, expected.imag],
                "computed": [computed.real, computed.imag],
                "abs_error": abs(computed - expected),
                "N": spec.nodes,
            }
        )
    return report
