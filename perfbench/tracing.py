"""Per-layer spans for the traced pass, recorded from the benchmark's side.

``install`` replaces each layer's public functions at every module attribute
its callers look them up through (``cech`` imports ``rank_rational`` by
name, ``cli`` imports ``parse_complex`` and ``build_resolvent``, and so on),
so coordarr itself is unchanged.  A wrapper appends one span
``[name, parent, start, end, counts, count_s]`` to an in-memory list; counts
are read from arguments and return values after the span has closed, and
the time spent reading them (``count_s``) belongs to no layer: it is taken
out of the parent's self time and out of the command time.  The spans are
written out once, at the end of the pass, and ``layer_metrics`` turns them
into the ``per_layer`` metrics of BENCHMARK.json.

A span's self time is its duration minus its children's durations and
counting times; metric ``<span name>_s`` is the summed self time of that
span name, and the root span around each command is ``cli.self``, so
per-layer self times add up to the command time less the counting time by
construction -- ``coverage_error`` checks that they really do, which fails
when a span name has no metric.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

Span = list  # [name, parent index or -1, start, end, counts dict or None, count_s]
Counts = Callable[[tuple, object], dict]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Counts | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, result)
                record[5] = clock() - record[3]
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, counts: Counts | None = None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), counts))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class _JsonProxy:
    """Stands in for the ``json`` module inside ``coordarr.cli`` so that its
    ``dumps`` calls (artifact serialization) become spans."""

    def __init__(self, module, dumps: Callable) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)


def _snf_counts(args, result) -> dict:
    m = args[0]
    return {
        "linalg.snf_nnz": len(m.entries),
        "linalg.pivots": result.rank,
        "input": hash((m.rows, m.cols, frozenset(m.entries.items()))),
    }


def _nnz(metric: str) -> Counts:
    return lambda args, result: {metric: len(result.entries)}


def _parse_with_faces(parse: Callable) -> Callable:
    """Parsing plus face enumeration: the complex-derivation layer."""

    def parse_complex(document):
        K = parse(document)
        K.faces  # noqa: B018 - a cached property, computed here on purpose
        return K

    return parse_complex


def install(recorder: Recorder) -> None:
    """Patch every layer binding of an already imported coordarr."""
    from coordarr import cech, cells, cli, corpus, kernels, koszul, linalg

    r = recorder
    r.patch(linalg, "smith_normal_form", "linalg.snf", _snf_counts)
    r.patch(linalg, "rank_rational", "linalg.rank_q",
            lambda args, rank: {"linalg.pivots": rank, "linalg.rank_q_nnz": len(args[0].entries)})
    r.patch(linalg, "compose_is_zero", "linalg.compose_check")
    r.patch(cech, "rank_rational", "cech.rank",
            lambda args, rank: {"cech.rank_rows": args[0].rows})
    for module in (cech, cells):
        r.patch(module, "kernel_basis", "linalg.basis")
        r.patch(module, "quotient_basis", "linalg.basis")
    r.patch(koszul, "basis", "koszul.assembly")
    r.patch(koszul, "differential_matrix", "koszul.assembly", _nnz("koszul.assembly_nnz"))
    r.patch(cells, "cells_of_bidegree", "cells.assembly")
    # every cell matrix is built by boundary_matrix; the coboundary is its
    # negated transpose, so only the former counts nonzeros
    r.patch(cells, "boundary_matrix", "cells.assembly", _nnz("cells.assembly_nnz"))
    r.patch(cells, "coboundary_matrix", "cells.assembly")
    r.patch(cells, "homology", "cells.homology")
    r.patch(cech, "cohomology", "cech.cohomology")
    r.patch(cech, "representative_cocycles", "cech.representatives")
    r.patch(cech, "pullback_to_faces", "cech.pullback",
            lambda args, result: {"cech.pullback_tuples": len(result.values)})
    top = lambda args, result: {"resolvents.top_tuples": len(result.top.values)}  # noqa: E731
    r.patch(kernels, "build_resolvent", "resolvents.build", top)
    r.patch(cli, "build_resolvent", "resolvents.build", top)
    r.patch(kernels, "pair", "resolvents.pair")
    r.patch(kernels, "resolvent_pairing", "resolvents.pair",
            lambda args, result: {"pairing.top": len(args[0].top.values),
                                  "pairing.cocycle": len(args[1].values)})
    r.patch(kernels, "build_kernel", "kernels.build")
    r.patch(kernels, "evaluate_representation", "kernels.quadrature")
    cli.parse_complex = r.wrap("complexes.parse", _parse_with_faces(cli.parse_complex),
                               lambda args, result: {"complexes.faces": len(result.faces)})
    r.patch(corpus, "standard_corpus", "corpus.generate")
    r.patch(kernels.KernelData, "to_json", "cli.to_json")
    cli.json = _JsonProxy(cli.json, r.wrap("cli.to_json", cli.json.dumps))


# ---------------------------------------------------------------------------
# aggregation, in the parent process
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children and
    the time spent reading their counts."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, count_s in spans:
        if parent >= 0:
            out[parent] -= end - start + count_s
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self time per span name (``<name>_s``), call counts (``<name>_calls``),
    summed counts, and the derived ratios, for one pass."""
    totals: dict[str, float] = defaultdict(float)
    roots: list[int] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for index, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        name, parent, _, _, counts, _ = span
        roots.append(index if parent < 0 else roots[parent])
        totals[f"{name}_s"] += self_s
        totals[f"{name}_calls"] += 1
        for key, value in (counts or {}).items():
            if key == "input":
                # the same Smith input met again within one command
                duplicates += (roots[index], value) in seen
                seen.add((roots[index], value))
            elif key.endswith("_max"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    snf_calls = totals["linalg.snf_calls"]
    totals["linalg.snf_duplicate_frac"] = duplicates / snf_calls if snf_calls else 0.0
    cocycle = totals.pop("pairing.cocycle", 0)
    top = totals.pop("pairing.top", 0)
    totals["kernels.pullback_useful_ratio"] = top / cocycle if cocycle else 0.0
    return dict(totals)


def coverage_error(spans: list[Span], metric_names: set[str], command_s: float) -> float:
    """|sum of the self times that some ``*_s`` metric reports - command
    time| as a share of the command time, which is measured outside the
    spans and has the counting time taken out."""
    attributed = sum(
        self_s
        for (name, *_), self_s in zip(spans, self_times(spans))
        if f"{name}_s" in metric_names
    )
    command_s -= sum(span[5] for span in spans)
    return abs(attributed - command_s) / command_s if command_s > 0 else 1.0
