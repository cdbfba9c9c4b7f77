"""Command-line front end.

Exit codes: 0 on success, 1 when a mathematical check fails (model
disagreement, a differential that does not square to zero, a broken
resolvent identity, reproduction outside tolerance, no kernel in the
requested degree), 2 on unreadable or malformed input.  The --json artifact is
byte-identical across identical invocations; wall-clock timing therefore
goes to stdout only, never into the artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import cech, cells, corpus, kernels, koszul
from .complexes import ComplexError, SimplicialComplex, parse_complex
from .kernels import KernelUnavailableError, QuadratureSpec, _parse_complex_literal
from .linalg import BigradedTable, CheckFailed
from .resolvents import build_resolvent

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


def _load(path: str) -> tuple[SimplicialComplex, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ComplexError(f"cannot read {path}: {exc}") from exc
    return parse_complex(text), text


def _emit(report: dict, json_path: str | None) -> None:
    if json_path:
        Path(json_path).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def _report(command: str, source_text: str, artifacts: dict, checks: dict[str, bool]) -> dict:
    return {
        "command": command,
        "input_sha256": hashlib.sha256(source_text.encode()).hexdigest(),
        "artifacts": artifacts,
        "checks": {name: ("pass" if ok else "fail") for name, ok in checks.items()},
    }


def cmd_cohomology(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    coeff = args.coeff.upper()
    if args.model == "rk":
        table = koszul.cohomology(K, coeff)
    elif args.model == "cech":
        if coeff != "Q":
            raise ComplexError("the Čech model is rational; use --coeff q")
        table = cech.cohomology(K)
    else:  # pragma: no cover - argparse restricts choices
        raise ComplexError(f"unknown model {args.model}")
    print(f"# bigraded cohomology ({args.model}, coefficients {coeff})")
    print(table if table.blocks else "(trivial)")
    _emit(_report(f"cohomology {args.model}", text, table.to_json(), {}), args.json)
    return OK


def _compare_models(K: SimplicialComplex) -> tuple[dict[str, BigradedTable], dict[str, bool]]:
    """Tables and checks of the model comparison.

    The rk table is computed over Z and the Čech table over Q.  The cell
    model is checked through the identity of its coboundary matrices with
    the rk differentials, so its table is the rk table and is returned only
    when that identity holds.
    """
    tables: dict[str, BigradedTable] = {}
    checks: dict[str, bool] = {}
    for name, compute in (
        ("rk", lambda: koszul.cohomology(K, "Z")),
        ("cech", lambda: cech.cohomology(K)),
    ):
        # a differential that fails to square to zero is rejected by the
        # model itself; report it as a failed check, not a crash
        try:
            tables[name] = compute()
            checks[f"{name} model consistent"] = True
        except CheckFailed as exc:
            checks[f"{name} model consistent"] = False
            print(f"FAIL  {name} model: {exc}")
    mismatches = cells.phi_mismatches(K)
    checks["differentials rk=cell"] = not mismatches
    if mismatches:
        print(f"FAIL  cell coboundary differs from the rk differential at (p, q) = {mismatches}")
    elif "rk" in tables:
        tables["cell"] = tables["rk"]
    if "rk" in tables and "cech" in tables:
        checks["ranks rk=cech"] = tables["rk"].ranks() == tables["cech"].ranks()
    return tables, checks


def cmd_compare(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    t0 = time.perf_counter()
    tables, checks = _compare_models(K)
    elapsed = time.perf_counter() - t0
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if not checks.get("ranks rk=cech", True):
        print("rk:  ", tables["rk"].ranks(), tables["rk"].torsions())
        print("cech:", tables["cech"].ranks())
    print(f"({elapsed:.3f}s)")
    artifacts = {name: table.to_json() for name, table in tables.items()}
    _emit(_report("compare", text, artifacts, checks), args.json)
    return OK if all(checks.values()) else CHECK_FAILED


def cmd_hodge(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    table = cech.hodge_table(K)
    print("# Hodge numbers h(p, q)")
    for (p, q), r in sorted(table.h.items()):
        print(f"h({p},{q}) = {r}")
    print("# filtration ranks F(k, s) (nonzero)")
    for (k, s), r in sorted(table.F.items()):
        if r:
            print(f"F({k},{s}) = {r}")
    _emit(_report("hodge", text, table.to_json(), {}), args.json)
    return OK


def cmd_resolvent(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    generators = cells.homology(K).generators(args.p, args.q)
    if not 0 <= args.index < len(generators):
        raise ComplexError(
            f"bidegree ({args.p},{args.q}) has {len(generators)} free generators; "
            f"index {args.index} out of range"
        )
    resolvent = build_resolvent(K, generators[args.index])
    try:
        resolvent.validate()
        ok = True
    except CheckFailed:
        ok = False
    print(f"resolvent of length {resolvent.q} for generator {args.index} "
          f"of bidegree ({args.p},{args.q}); identities {'hold' if ok else 'FAIL'}")
    payload = resolvent.to_json()
    print(json.dumps(payload, sort_keys=True, indent=2))
    _emit(_report("resolvent", text, payload, {"identities": ok}), args.json)
    return OK if ok else CHECK_FAILED


def cmd_kernel(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    try:
        data = kernels.build_kernel(K, args.s)
    except KernelUnavailableError as exc:
        print(f"FAIL  {exc}")
        return CHECK_FAILED
    ok = data.check_normalized()
    print(f"kernel for total degree {args.s}: scale {data.scale}, "
          f"{len(data.top_piece.values)} top tuples; normalization {'exact' if ok else 'FAIL'}")
    payload = data.to_json()
    print(json.dumps(payload, sort_keys=True, indent=2))
    _emit(_report("kernel", text, payload, {"normalized": ok}), args.json)
    return OK if ok else CHECK_FAILED


def _parse_zeta(text: str) -> list[complex]:
    try:
        return [_parse_complex_literal(part) for part in text.split(",")]
    except ValueError as exc:
        raise ComplexError(str(exc)) from exc


def cmd_verify_kernel(args: argparse.Namespace) -> int:
    K, text = _load(args.path)
    try:
        f = kernels.parse_polynomial(args.f, K.n)
    except ValueError as exc:
        raise ComplexError(f"bad polynomial: {exc}") from exc
    zeta = _parse_zeta(args.zeta)
    if len(zeta) != K.n:
        raise ComplexError(f"zeta needs {K.n} coordinates, got {len(zeta)}")
    try:
        data = kernels.build_kernel(K, args.s)
    except KernelUnavailableError as exc:
        print(f"FAIL  {exc}")
        return CHECK_FAILED
    spec = QuadratureSpec(args.nodes)
    try:
        computed = kernels.evaluate_representation(data, f, zeta, spec)
    except ValueError as exc:
        raise ComplexError(str(exc)) from exc
    expected = complex(f(np.asarray(zeta, dtype=complex)))
    error = abs(computed - expected)
    ok = error <= args.tolerance
    print(f"{'PASS' if ok else 'FAIL'}  |computed - f(zeta)| = {error:.3e} "
          f"(tolerance {args.tolerance:g}, N = {args.nodes})")
    artifacts = {
        "report": kernels.verify_reproduction(data, f, [zeta], spec),
        "tolerance": args.tolerance,
    }
    _emit(_report("verify-kernel", text, artifacts, {"reproduction": ok}), args.json)
    return OK if ok else CHECK_FAILED


def cmd_corpus(args: argparse.Namespace) -> int:
    items = corpus.standard_corpus(args.random, args.seed)
    failures = 0
    t0 = time.perf_counter()
    for i, K in enumerate(items):
        _, checks = _compare_models(K)
        if not all(checks.values()):
            failures += 1
            print(f"FAIL  #{i}: {K!r}")
    elapsed = time.perf_counter() - t0
    print(f"{len(items) - failures}/{len(items)} complexes agree across models ({elapsed:.1f}s)")
    return OK if failures == 0 else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coordarr",
        description="bigraded cohomology, Hodge filtration and integral kernels "
        "of coordinate subspace arrangement complements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="JSON file with {'n': ..., 'facets': ...} or missing_faces")
        p.add_argument("--json", help="write the machine-readable report here")

    p = sub.add_parser("cohomology", help="bigraded table of one model")
    add_common(p)
    p.add_argument("--model", choices=["rk", "cech"], default="rk")
    p.add_argument("--coeff", choices=["z", "q"], default="z")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("compare", help="run all three models and compare")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("hodge", help="Hodge numbers and filtration ranks")
    add_common(p)
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("resolvent", help="resolvent of a homology generator")
    add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("kernel", help="integral representation data")
    add_common(p)
    p.add_argument("--s", type=int, required=True, help="total cohomological degree")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify-kernel", help="numerically verify the reproduction")
    add_common(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--f", required=True,
                   help="polynomial, e.g. '1+z1^2*z2^3' or '(0.5-2i)*z1*z2'")
    p.add_argument("--zeta", required=True,
                   help="comma-separated complex coordinates, e.g. '0.3,-0.4'")
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify_kernel)

    p = sub.add_parser("corpus", help="three-model comparison over the standard corpus")
    p.add_argument("--random", type=int, default=200)
    p.add_argument("--seed", type=int, default=20260810)
    p.set_defaults(func=cmd_corpus)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
