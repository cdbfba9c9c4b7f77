"""Command-line front end.

Each ``cmd_*`` is a function of the parsed arguments and the complex read
from the input path (``None`` for ``corpus``, which reads none).  It
returns its ``command`` label, its artifacts, its checks (name -> passed)
and the lines to print, and does no file I/O, no printing and no choice of
exit code.  ``run`` is the one place that ends a command: it reads and
parses the input, calls the command, writes the ``--json`` report
(``command``, ``input_sha256``, ``artifacts``, ``checks``), prints the
lines through ``_print_last`` and returns the exit code.  The report is
streamed into its file by one ``json.dump``, so no string of the whole
report is built.  stdout holds the lines for a person; ``resolvent`` and
``kernel`` add an echo of their payload only when no ``--json`` path is
given, so each run encodes an artifact once.

Exit codes: 0 exactly when every check passes; 1 when a check fails, a
model raises ``CheckFailed`` (a differential that does not square to zero,
a broken resolvent identity) or the requested degree has no kernel; 2 on
unreadable or malformed input, an unwritable ``--json`` path included.
A usage error raises ``SystemExit(2)`` through argparse; an option value
that argparse parsed as a list (``--f=--`` on some versions) is one.
The ``--json`` file holds this run's artifact or nothing: a file left
there by an earlier run is removed first, before the arguments are parsed,
so a usage error leaves none either; a file that another word of the
command names, the input among them, stays.  A symlink at the ``--json``
path is never removed (``/dev/stdout`` is one): a run writes through it,
and a run that ends without a report leaves its target as it was.
The artifact is byte-identical across identical invocations; wall-clock
timing goes to stdout only.  The artifact is written before anything is
printed, so a reader that closes stdout early (``| head -1``) changes
neither the artifact nor the exit code.

``run`` builds the argument parser on its first call and reuses it for
every later call in the same process, so a batch caller (the benchmark's
worker, the test suite, a notebook) pays the argparse set-up once, not once
per command.  Nothing else is kept across calls: ``parse_args`` returns a
fresh namespace each time, and the commands look up their module-level
names when they run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

from . import cech, cells, corpus, kernels, koszul
from .complexes import ComplexError, SimplicialComplex, parse_complex
from .kernels import KernelUnavailableError, QuadratureSpec, _parse_complex_literal
from .linalg import BigradedTable, CheckFailed
from .resolvents import build_resolvent

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2

#: what a command returns: its label, artifacts, checks and printed lines
Outcome = tuple[str, object, dict[str, bool], list[str]]


def _print_last(*lines: str) -> None:
    """Print the lines of a command whose checks and artifact are done.

    A reader may close stdout early (``| head -1``): the rest of the output
    is then dropped, and stdout is pointed at the null device so that the
    interpreter's final flush does not fail either; the exit code stays the
    one the checks gave."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_cohomology(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    coeff = (args.coeff or {"rk": "z", "cech": "q"}[args.model]).upper()
    if args.model == "rk":
        table = koszul.cohomology(K, coeff)
    else:
        if coeff != "Q":
            raise ComplexError("the Čech model is rational; use --coeff q")
        table = cech.cohomology(K)
    lines = [f"# bigraded cohomology ({args.model}, coefficients {coeff})", str(table)]
    return f"cohomology {args.model}", table.to_json(), {}, lines


def _compare_models(
    K: SimplicialComplex,
    shapes: koszul.Shapes | None = None,
    families: cech.Families | None = None,
    checked: cells.Checked | None = None,
) -> tuple[dict[str, BigradedTable], dict[str, bool], list[str]]:
    """Tables, checks and FAIL lines of the model comparison.

    The rk table over Z is the one every command reports,
    ``koszul.cohomology``; the Čech table over Q is its oracle.  The cell
    table is the rk table, returned only when ``cells.phi_mismatches``
    finds every block of the two models identical, entry by entry: a term
    of either model that the other lacks, or that lands outside its block,
    fails the check and does not crash it.  ``shapes``, ``families`` and
    ``checked`` are the caches a batch shares between its complexes: the
    engine's summand groups, the oracle's families and the identity check's
    summands of J.  The FAIL lines are returned for the caller to print once
    its work is done.
    """
    tables: dict[str, BigradedTable] = {}
    checks: dict[str, bool] = {}
    lines: list[str] = []
    for name, compute in (
        ("rk", lambda: koszul.cohomology(K, "Z", shapes)),
        ("cech", lambda: cech.cohomology(K, families)),
    ):
        # a differential that fails to square to zero is rejected by the
        # model itself; report it as a failed check, not a crash
        try:
            tables[name] = compute()
            checks[f"{name} model consistent"] = True
        except CheckFailed as exc:
            checks[f"{name} model consistent"] = False
            lines.append(f"FAIL  {name} model: {exc}")
    mismatches = cells.phi_mismatches(K, checked)
    checks["differentials rk=cell"] = not mismatches
    if mismatches:
        lines.append(f"FAIL  cell coboundary differs from the rk differential at (p, q) = {mismatches}")
    elif "rk" in tables:
        tables["cell"] = tables["rk"]
    if "rk" in tables and "cech" in tables:
        checks["ranks rk=cech"] = tables["rk"].ranks() == tables["cech"].ranks()
    return tables, checks, lines


def cmd_compare(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    t0 = time.perf_counter()
    tables, checks, lines = _compare_models(K)
    elapsed = time.perf_counter() - t0
    lines += [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks.items()]
    if not checks.get("ranks rk=cech", True):
        lines.append(f"rk:   {tables['rk'].ranks()} {tables['rk'].torsions()}")
        lines.append(f"cech: {tables['cech'].ranks()}")
    artifacts = {name: table.to_json() for name, table in tables.items()}
    return "compare", artifacts, checks, [*lines, f"({elapsed:.3f}s)"]


def cmd_hodge(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    table = koszul.hodge_table(K)
    lines = [
        "# Hodge numbers h(p, q)",
        *(f"h({p},{q}) = {r}" for (p, q), r in sorted(table.h.items())),
        "# filtration ranks F(k, s) (nonzero)",
        *(f"F({k},{s}) = {r}" for (k, s), r in sorted(table.F.items()) if r),
    ]
    return "hodge", table.to_json(), {}, lines


def cmd_resolvent(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    generators = cells.homology(K, args.p, args.q)
    if not 0 <= args.index < len(generators):
        raise ComplexError(
            f"bidegree ({args.p},{args.q}) has {len(generators)} free generators; "
            f"index {args.index} out of range"
        )
    # build_resolvent checks each piece as it builds it: a broken identity
    # raises CheckFailed (exit 1).  The payload is echoed to stdout only when
    # no --json file takes it, so each run encodes it once
    resolvent = build_resolvent(K, generators[args.index])
    payload = resolvent.to_json()
    lines = [f"resolvent of length {resolvent.q} for generator {args.index} "
             f"of bidegree ({args.p},{args.q}); identities hold"]
    if not args.json:
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
    return "resolvent", payload, {"identities": True}, lines


def cmd_kernel(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    data = kernels.build_kernel(K, args.s)
    ok = data.check_normalized()
    payload = data.to_json()
    lines = [f"kernel for total degree {args.s}: scale ({data.scale})*(2pii)^{-data.n}, "
             f"{len(data.top_piece.values)} top tuples; normalization {'exact' if ok else 'FAIL'}"]
    if not args.json:
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
    return "kernel", payload, {"normalized": ok}, lines


def cmd_verify_kernel(args: argparse.Namespace, K: SimplicialComplex) -> Outcome:
    if not 0 <= args.tolerance < math.inf:
        raise ComplexError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    spec = QuadratureSpec(args.nodes)
    try:
        f = kernels.parse_polynomial(args.f, K.n)
    except ValueError as exc:
        raise ComplexError(f"bad polynomial: {exc}") from exc
    zeta = [_parse_complex_literal(part) for part in args.zeta.split(",")]
    if len(zeta) != K.n:
        raise ComplexError(f"zeta needs {K.n} coordinates, got {len(zeta)}")
    if not all(abs(z) < 1.0 for z in zeta):  # also false for nan
        raise ComplexError("evaluation point must lie strictly inside the unit polydisc")
    data = kernels.build_kernel(K, args.s)
    report = kernels.verify_reproduction(data, f, [zeta], spec)
    error = report[0]["abs_error"]
    ok = error <= args.tolerance
    lines = [f"{'PASS' if ok else 'FAIL'}  |computed - f(zeta)| = {error:.3e} "
             f"(tolerance {args.tolerance:g}, N = {args.nodes})"]
    return "verify-kernel", {"report": report, "tolerance": args.tolerance}, {"reproduction": ok}, lines


def cmd_corpus(args: argparse.Namespace, _: None) -> Outcome:
    if args.random < 0:
        raise ComplexError(f"--random must be >= 0, got {args.random}")
    items = corpus.standard_corpus(args.random, args.seed)
    lines: list[str] = []
    failures = 0
    # one cache per model and one for the identity check, for this run
    # only: a complex of the batch reads what an earlier one eliminated or
    # checked, and no later command sees any of them
    shapes: koszul.Shapes = {}
    families: cech.Families = {}
    checked: cells.Checked = {}
    t0 = time.perf_counter()
    for i, K in enumerate(items):
        _, checks, fail_lines = _compare_models(K, shapes, families, checked)
        lines += fail_lines
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            failures += 1
            lines.append(f"FAIL  #{i}: {K!r} [{', '.join(failed)}]")
    elapsed = time.perf_counter() - t0
    lines.append(f"{len(items) - failures}/{len(items)} complexes agree across models ({elapsed:.1f}s)")
    return "corpus", None, {"models agree": failures == 0}, lines


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
    p.add_argument("--coeff", choices=["z", "q"],
                   help="coefficient ring (default: z for rk, q for cech)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


@functools.cache
def _json_parser() -> argparse.ArgumentParser:
    """Reads the ``--json`` path as the commands do, ``--js`` and
    ``--json=`` included, and leaves every other word over.  A bare
    ``--json`` reads as None, so this parse never exits."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--json", nargs="?")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by every later one in
    the process, so a caller that runs many commands pays the argparse
    set-up once; the parsed arguments are new on each call."""
    parser = _parser()
    try:
        # the --json file holds this run's artifact or nothing, so an old one
        # goes before a usage error can end the run; a file another word
        # names, the input among them, stays.  Only a word that exists can
        # name it, so only those are resolved
        known, words = _json_parser().parse_known_args(argv)
        old = known.json
        if old and os.path.isfile(old) and not os.path.islink(old):
            target = Path(old).resolve()
            if not any(os.path.exists(w) and Path(w).resolve() == target for w in words):
                try:
                    os.remove(old)
                except OSError as exc:
                    raise ComplexError(f"cannot write {old}: {exc}") from exc
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, list):  # some interpreters parse `--f=--` as []
                parser.error(f"argument --{name}: expected one argument")
        out = getattr(args, "json", None)
        K = text = None
        if "path" in args:
            try:
                text = Path(args.path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ComplexError(f"cannot read {args.path}: {exc}") from exc
            K = parse_complex(text)
        command, artifacts, checks, lines = args.func(args, K)
        if out:
            report = {
                "command": command,
                "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "artifacts": artifacts,
                "checks": {name: ("pass" if ok else "fail") for name, ok in checks.items()},
            }
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, sort_keys=True, indent=2)
                    fh.write("\n")
            except OSError as exc:
                raise ComplexError(f"cannot write {out}: {exc}") from exc
        _print_last(*lines)
        return OK if all(checks.values()) else CHECK_FAILED
    except KernelUnavailableError as exc:
        _print_last(f"FAIL  {exc}")
        return CHECK_FAILED
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
