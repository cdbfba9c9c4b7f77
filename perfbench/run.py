"""Benchmark of the ``coordarr`` command line, end to end and per layer.

    python3 perfbench/run.py --workload spheres --seed 20260810 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 20260810     # every workload in turn

Each pass of a workload runs the workload's commands in a fresh worker
process (``worker.py``), one command at a time: a closed loop with one
client and no threads.  Passes repeat until the next one would overrun
``--seconds``; the metrics are medians over passes.  Times are rescaled to
the reference host speed (``hostspeed.py``); the summary also shows them as
measured.  After every pass the artifacts are checked (``checks.py``) and
hashed.  With ``--trace 0`` the
last line reports the ``end_to_end`` metrics of BENCHMARK.json; with
``--trace 1`` traced and untraced passes alternate and it reports the
``per_layer`` metrics, the tracing overhead among them.  The lines before
it are a human-readable summary: environment, seed, samples, quartiles,
failed checks and artifact digests.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: set-up-only worker processes per run, on top of each pass's own set-up
SETUP_SAMPLES = 5
#: one worker may not outlive this; a run must end within 180 s
WORKER_TIMEOUT_S = 150
#: largest share of the traced command time the per-layer self times may miss
COVERAGE_TOLERANCE = 0.01


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the worker's set-up end time and
    # the parent's spawn time are on the same clock
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Outcome:
    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    #: untraced pass times as measured, less the time spent probing
    measured_wall_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    traced_wall_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    checks: list[checks.Check] = field(default_factory=list)
    digests: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)


def _spawn(plan: workloads.Plan, workdir: Path, *flags: str) -> tuple[dict | None, float]:
    """Run one worker; its JSON result (None if it failed) and spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", plan.workload,
           "--seed", str(plan.seed), "--dir", str(workdir), *flags]
    start = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {WORKER_TIMEOUT_S}s: {' '.join(cmd)}", file=sys.stderr)
        return None, start
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker exited with {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None, start
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict, layer_names: set[str]) -> Outcome:
    workdir = OUT / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.plan(workload, seed, workdir)
    out = Outcome(workload, seed)

    _spawn(plan, workdir, "--setup-only")  # warm-up: fills byte-code caches, not timed
    for _ in range(SETUP_SAMPLES):
        result, start = _spawn(plan, workdir, "--setup-only")
        if result is None:
            out.checks.append(("set-up process exits cleanly", False))
        else:
            out.setup_s.append(hostspeed.rescale(result["ready"] - start, result["setup_probe_s"]))

    deadline = _now() + seconds
    longest = 0.0
    for traced in itertools.cycle((False, True)) if trace else itertools.repeat(False):
        for step in plan.steps:
            if step.artifact is not None:
                step.artifact.unlink(missing_ok=True)
        result, start = _spawn(plan, workdir, "--trace", "1" if traced else "0")
        longest = max(longest, _now() - start)
        if result is None:
            for step in plan.steps:
                out.checks.extend(checks.step_checks(step, None, reference))
            break
        out.setup_s.append(hostspeed.rescale(result["ready"] - start, result["setup_probe_s"]))
        for step, code in zip(plan.steps, result["codes"]):
            out.checks.extend(checks.step_checks(step, code, reference))
            if step.artifact is not None and step.artifact.exists():
                out.digests[step.artifact.name].add(_sha256(step.artifact))
        if traced:
            spans_path = workdir / "spans.json"
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            layers = tracing.layer_metrics(spans)
            layers["cli.artifact_bytes"] = result["artifact_bytes"]
            errors = [e for e in map(checks.step_reproduction_error, plan.steps) if e is not None]
            if errors:
                layers["kernels.reproduction_err_max"] = max(errors)
            out.layers.append(layers)
            out.traced_wall_s.append(result["wall_s"])
            gap = tracing.coverage_error(spans, layer_names, sum(result["command_s"]))
            out.checks.append((f"per-layer self times cover the command time (gap {gap:.2%})",
                               gap <= COVERAGE_TOLERANCE))
        else:
            out.wall_s.append(hostspeed.rescale(result["wall_s"], result["probe_s"], result["probing_s"]))
            out.measured_wall_s.append(result["wall_s"] - result["probing_s"])
            out.probe_s.append(result["probe_s"])
            out.peak_rss_mb.append(result["peak_rss_mb"])
        enough = out.wall_s and (out.traced_wall_s or not trace)
        if enough and _now() + longest > deadline:
            break
    return out


def end_to_end(out: Outcome) -> dict[str, float]:
    return {
        "wall_s": _median(out.wall_s),
        "setup_s": _median(out.setup_s),
        "peak_rss_mb": _median(out.peak_rss_mb),
    }


def per_layer(out: Outcome, names: list[str]) -> dict[str, float]:
    """Median over traced passes; 0 for a layer the workload never reaches.
    Layer times are as measured: a traced pass is not probed."""
    values = {name: _median([layers.get(name, 0.0) for layers in out.layers]) for name in names}
    untraced = _median(out.measured_wall_s)
    values["trace.overhead_frac"] = _median(out.traced_wall_s) / untraced - 1 if untraced else 0.0
    return values


def digest_report(out: Outcome, committed: dict, record: bool) -> list[str]:
    """One line per artifact whose digest is not the committed one; with
    ``record``, store this run's digests as the committed ones instead."""
    if record and out.digests:
        committed.setdefault(str(out.seed), {})[out.workload] = {}
    mine = committed.get(str(out.seed), {}).get(out.workload, {})
    lines, matched = [], 0
    for name, seen in sorted(out.digests.items()):
        digest = next(iter(seen))
        if len(seen) > 1:
            lines.append(f"#   DIGEST UNSTABLE {name}: {len(seen)} different digests across passes")
        elif record:
            mine[name] = digest
        elif name not in mine:
            lines.append(f"#   digest unreferenced {name}: {digest}")
        elif mine[name] != digest:
            lines.append(f"#   DIGEST CHANGED {name}: {digest} (committed {mine[name]})")
        else:
            matched += 1
    if record:
        return [f"#   digests: recorded {len(mine)} for seed {out.seed}"] + lines
    return [f"#   digests: {matched}/{len(out.digests)} artifacts match the committed digests"] + lines


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"# env: nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}")


def summary(out: Outcome, metrics: dict[str, float], units: dict[str, str], trace: bool) -> list[str]:
    samples = {"wall_s": out.wall_s, "setup_s": out.setup_s, "peak_rss_mb": out.peak_rss_mb}
    lines = [f"# workload={out.workload} seed={out.seed} trace={int(trace)} "
             f"passes={len(out.wall_s)} traced_passes={len(out.traced_wall_s)}"]
    for name, value in metrics.items():
        spread = f"  ({_quartiles(samples[name])})" if name in samples else ""
        lines.append(f"#   {name:<30} {value:.6g} {units[name]}{spread}")
    if out.measured_wall_s:
        lines.append(f"#   {'wall_s as measured':<30} {_median(out.measured_wall_s):.6g} s  "
                     f"({_quartiles(out.measured_wall_s)}; probe median "
                     f"{_median(out.probe_s) * 1e3:.4g} ms, reference "
                     f"{hostspeed.REFERENCE_PROBE_S * 1e3:.4g} ms)")
    frac = out.failed / len(out.checks) if out.checks else 1.0
    lines.append(f"#   {'failed_frac':<30} {frac:.6g} ratio  ({out.failed}/{len(out.checks)} checks failed)")
    lines += [f"#   FAIL {label}" for label, ok in out.checks if not ok][:20]
    return lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's artifact digests in digests.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "coordarr" / "cli.py").is_file():
        print(f"no coordarr sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    names = [m["name"] for m in specs]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}

    print(environment(), flush=True)
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results: dict[str, dict] = {}
    attempted = failed = 0
    for workload in chosen:
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference,
                           set(names))
        if not out.wall_s:
            print(f"no pass of {workload} completed", file=sys.stderr)
            return 1
        metrics = per_layer(out, names) if args.trace else end_to_end(out)
        print("\n".join(summary(out, metrics, units, bool(args.trace))
                        + digest_report(out, committed, args.record_digests)), flush=True)
        prefix = f"{workload}." if args.workload == "all" else ""
        results.update({prefix + name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()})
        attempted += len(out.checks)
        failed += out.failed
    if args.record_digests:
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
