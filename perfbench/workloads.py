"""Benchmark workloads: seeded inputs and the CLI commands of one pass.

A pass is the list of ``coordarr`` commands a workload runs, in order, in
one fresh process.  ``plan`` is a pure function of (workload, seed, work
directory), so the pass process that runs the commands and the parent
that checks their artifacts build the same plan independently.

Why each workload exists (see README.md for the metric map):

* ``corpus``     -- thousands of tiny blocks; per-call assembly and
  elimination overhead dominate.
* ``spheres``    -- a few large sparse integer blocks; Smith form and
  rational rank dominate, the Čech cover is tiny.
* ``rp2_cycles`` -- Čech tuple enumeration and rational rank only; the
  integer path is never reached.
* ``kernel``     -- the only workload that reaches the cocycle pullback,
  the resolvents, quadrature and large artifacts.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

DEFAULT_SEED = 20260810
WORKLOADS = ("corpus", "spheres", "rp2_cycles", "kernel")

#: facets of the 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]

SPHERES = (6, 7, 8)
CYCLES = (8, 9)
KERNEL_SPHERES = (5, 6)


@dataclass(frozen=True)
class Step:
    """One CLI invocation and how to check what it wrote.

    ``check`` is ``"exit"`` (exit code only), ``"compare"`` or ``"hodge"``
    (tables against ``reference[ref]``), ``"kernel"`` (normalization) or
    ``"verify"`` (reproduction of ``poly`` at ``zeta``).
    """

    argv: tuple[str, ...]
    check: str
    artifact: Path | None = None
    ref: str | None = None
    poly: dict[tuple[int, ...], complex] = field(default_factory=dict)
    zeta: tuple[complex, ...] = ()


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    inputs: dict[Path, dict]
    steps: tuple[Step, ...]


def _shuffled_facets(facets: list[list[int]], n: int, rng: random.Random) -> list[list[int]]:
    """An isomorphic complex written differently: the vertices are relabeled
    by a random permutation, and the facet order and the vertex order inside
    each facet are shuffled."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for facet in facets:
        mapped = [perm[v - 1] for v in facet]
        rng.shuffle(mapped)
        out.append(mapped)
    rng.shuffle(out)
    return out


def sphere_facets(n: int) -> list[list[int]]:
    """Facets of the boundary of the (n-1)-simplex on n vertices."""
    return [list(c) for c in combinations(range(1, n + 1), n - 1)]


def cycle_facets(n: int) -> list[list[int]]:
    return [[i, i % n + 1] for i in range(1, n + 1)]


def _complex_text(c: complex, digits: int) -> str:
    return f"({c.real:.{digits}f}{c.imag:+.{digits}f}i)"


def _polynomial(n: int, rng: random.Random) -> tuple[dict[tuple[int, ...], complex], str]:
    """Three monomials of degree at most 3 per variable, coefficients with
    two decimals; returns the exact terms and the CLI text for them."""
    terms: dict[tuple[int, ...], complex] = {}
    for _ in range(3):
        expo = tuple(rng.randint(0, 3) for _ in range(n))
        terms[expo] = complex(round(rng.uniform(-1, 1), 2), round(rng.uniform(-1, 1), 2))
    parts = []
    for expo, coeff in sorted(terms.items()):
        factors = [_complex_text(coeff, 2)]
        factors += [f"z{j + 1}^{e}" for j, e in enumerate(expo) if e]
        parts.append("*".join(factors))
    return terms, "+".join(parts)


def _point(n: int, rng: random.Random) -> tuple[tuple[complex, ...], str]:
    """A point with every coordinate of modulus at most 0.7, so the
    trapezoid rule's geometric tail is far below the check tolerance."""
    zeta = []
    for _ in range(n):
        r = rng.uniform(0.0, 0.7)
        theta = rng.uniform(0.0, 2 * math.pi)
        zeta.append(complex(round(r * math.cos(theta), 4), round(r * math.sin(theta), 4)))
    return tuple(zeta), ",".join(_complex_text(z, 4) for z in zeta)


def plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Inputs and commands of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs: dict[Path, dict] = {}
    steps: list[Step] = []

    def add_input(name: str, n: int, facets: list[list[int]]) -> str:
        path = workdir / f"{name}.json"
        inputs[path] = {"n": n, "facets": _shuffled_facets(facets, n, rng)}
        return str(path)

    def artifact(name: str) -> Path:
        return workdir / f"{name}.out.json"

    if workload == "corpus":
        steps.append(Step(("corpus", "--seed", str(seed)), "exit"))
    elif workload == "spheres":
        for n in SPHERES:
            ref = f"sphere{n}"
            path = add_input(ref, n, sphere_facets(n))
            for command in ("compare", "hodge"):
                out = artifact(f"{command}-{ref}")
                steps.append(Step((command, path, "--json", str(out)), command, out, ref))
    elif workload == "rp2_cycles":
        complexes = [("rp2", 6, RP2_FACETS)] + [(f"cycle{n}", n, cycle_facets(n)) for n in CYCLES]
        for ref, n, facets in complexes:
            path = add_input(ref, n, facets)
            out = artifact(f"hodge-{ref}")
            steps.append(Step(("hodge", path, "--json", str(out)), "hodge", out, ref))
    elif workload == "kernel":
        for n in KERNEL_SPHERES:
            ref = f"sphere{n}"
            path = add_input(ref, n, sphere_facets(n))
            s = str(2 * n - 1)
            out = artifact(f"kernel-{ref}")
            steps.append(Step(("kernel", path, "--s", s, "--json", str(out)), "kernel", out))
        for n in KERNEL_SPHERES:
            ref = f"sphere{n}"
            poly, poly_text = _polynomial(n, rng)
            zeta, zeta_text = _point(n, rng)
            out = artifact(f"verify-{ref}")
            argv = ("verify-kernel", str(workdir / f"{ref}.json"), "--s", str(2 * n - 1),
                    f"--f={poly_text}", f"--zeta={zeta_text}", "--json", str(out))
            steps.append(Step(argv, "verify", out, poly=poly, zeta=zeta))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Plan(workload, seed, inputs, tuple(steps))


def write_inputs(p: Plan) -> None:
    for path, doc in p.inputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
