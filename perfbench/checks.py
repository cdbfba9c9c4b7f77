"""Correctness checks on the artifacts one pass wrote.

Every check recomputes its verdict from the artifact and from data the
benchmark owns (the committed reference tables, the polynomial and point it
generated); none trusts the ``checks`` block the CLI writes about itself.
A check returns ``(label, ok)``; the caller counts them into
``attempted``/``failed``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import Step

#: reproduction tolerance, the CLI's ``--tolerance`` default
VERIFY_TOLERANCE = 1e-9

Check = tuple[str, bool]


def _expected_filtration(h: dict[str, int]) -> dict[str, int]:
    """Nonzero F(k, s) = sum of h(p, s - p) over p >= k."""
    cells = [(*map(int, key.split(",")), rank) for key, rank in h.items()]
    out: dict[str, int] = {}
    for k in range(max(p for p, _, _ in cells) + 1):
        for s in sorted({p + q for p, q, _ in cells}):
            total = sum(r for p, q, r in cells if p >= k and p + q == s)
            if total:
                out[f"{k},{s}"] = total
    return out


def table_checks(step: Step, artifacts: dict, reference: dict) -> list[Check]:
    """``compare``: each model's table against the reference ranks (and
    torsion, for the integer models).  ``hodge``: h and F."""
    ref = reference[step.ref]
    name = Path(step.argv[1]).stem
    if step.check == "compare":
        out = []
        for model in ("rk", "cell", "cech"):
            blocks = artifacts.get(model, {}).get("h", {})
            ranks = {k: b["rank"] for k, b in blocks.items() if b["rank"]}
            ok = ranks == ref["h"]
            if model != "cech":
                torsion = {k: b["torsion"] for k, b in blocks.items() if b["torsion"]}
                ok = ok and torsion == ref["torsion"]
            out.append((f"compare {name}: {model} table", ok))
        return out
    h = artifacts.get("h")
    return [
        (f"hodge {name}: h table", h == ref["h"]),
        (f"hodge {name}: filtration", artifacts.get("F") == _expected_filtration(ref["h"])),
    ]


def kernel_normalized(artifacts: dict) -> bool:
    """Exact pairing of cocycle and top piece, times the stored scale, is 1.

    A top-piece atom pairs only when its disk part is empty; its torus
    directions must then match the form's index set.  Every surviving term
    carries (2 pi i)^n, which the scale's tau power must cancel.
    """
    n = artifacts["n"]
    forms = {
        tuple(map(tuple, entry["tuple"])): {tuple(f["I"]): Fraction(f["coeff"]) for f in entry["forms"]}
        for entry in artifacts["cocycle"]
    }
    total = Fraction(0)
    for entry in artifacts["top_piece"]:
        form = forms.get(tuple(map(tuple, entry["tuple"])))
        if not form:
            continue
        for atom in entry["atoms"]:
            if not atom["sigma"]:
                total += form.get(tuple(atom["gamma"]), 0) * atom["coeff"]
    scale = artifacts["scale"]
    coeff = Fraction(int(scale["num"]), int(scale["den"]))
    return total * coeff == 1 and scale["tau_power"] + n == 0


def _evaluate(poly: dict[tuple[int, ...], complex], zeta: tuple[complex, ...]) -> complex:
    value = 0j
    for expo, coeff in poly.items():
        term = coeff
        for z, e in zip(zeta, expo):
            term *= z**e
        value += term
    return value


def reproduction_error(step: Step, artifacts: dict) -> float:
    """Largest |computed - f(zeta)| in a ``verify-kernel`` report, with
    f(zeta) evaluated here from the benchmark's own polynomial."""
    expected = _evaluate(step.poly, step.zeta)
    errors = [abs(complex(*entry["computed"]) - expected) for entry in artifacts["report"]]
    return max(errors) if errors else float("inf")


def step_reproduction_error(step: Step) -> float | None:
    """``reproduction_error`` of a ``verify`` step's artifact; None for any
    other step, or when the artifact is missing or malformed (which its
    checks already count as failed)."""
    if step.check != "verify" or step.artifact is None:
        return None
    try:
        artifacts = json.loads(step.artifact.read_text(encoding="utf-8"))["artifacts"]
        return reproduction_error(step, artifacts)
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return None


def step_checks(step: Step, code: int | None, reference: dict) -> list[Check]:
    """All checks of one command: its exit code, then its artifact."""
    label = " ".join([step.argv[0]] + [Path(a).stem for a in step.argv[1:2]])
    out: list[Check] = [(f"{label}: exit code {code}", code == 0)]
    if step.check == "exit":
        return out
    artifacts = None
    if code == 0 and step.artifact is not None:
        try:
            artifacts = json.loads(step.artifact.read_text(encoding="utf-8"))["artifacts"]
        except (OSError, ValueError, KeyError) as exc:
            out.append((f"{label}: artifact unreadable ({exc})", False))
            return out
    try:
        if step.check in ("compare", "hodge"):
            if artifacts is None:
                return out + [(f"{label}: table", False)]
            return out + table_checks(step, artifacts, reference)
        if step.check == "kernel":
            ok = artifacts is not None and kernel_normalized(artifacts)
            return out + [(f"{label}: kernel normalized", ok)]
        if step.check == "verify":
            ok = artifacts is not None and reproduction_error(step, artifacts) <= VERIFY_TOLERANCE
            return out + [(f"{label}: reproduction within {VERIFY_TOLERANCE:g}", ok)]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return out + [(f"{label}: artifact malformed ({exc!r})", False)]
    raise ValueError(f"unknown check {step.check!r}")
