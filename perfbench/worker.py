"""One workload pass in a fresh process.

Set-up is everything a user pays before the first command: interpreter
start, ``import coordarr`` (numpy, scipy) and writing the input files; a
burst of host-speed probes follows it, untimed.  The pass then calls
``coordarr.cli.run(argv)`` in-process for each command of the workload, one
after another, with stdout sent to /dev/null; an untraced pass samples the
host speed all through (``hostspeed.py``).  The result -- set-up end time,
pass wall time, probe times, exit codes, peak RSS -- is printed as one JSON
line; with ``--trace 1`` the spans go to ``spans.json`` in the work
directory.

    python3 perfbench/worker.py --workload spheres --seed 1 --dir DIR [--trace 1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    from coordarr import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"coordarr was imported from {cli.__file__}, not from {SRC}")
    return cli


def _run(run, argv: list[str]) -> int:
    """Exit code of one command; a crash counts as exit code 1."""
    try:
        return run(argv)
    except Exception:  # noqa: BLE001 - a crashing command is a failed check, not a dead pass
        traceback.print_exc()
        return 1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_cli()
    plan = workloads.plan(args.workload, args.seed, args.dir.resolve())
    workloads.write_inputs(plan)
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    result["setup_probe_s"] = hostspeed.burst()
    if args.setup_only:
        print(json.dumps(result))
        return

    run = cli.run
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        run = recorder.wrap("cli.self", cli.run)
    # spans would charge the probes to whichever layer they interrupt, so a
    # traced pass is not sampled
    sampler = hostspeed.Sampler()
    codes, command_s = [], []
    with (open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull),
          contextlib.nullcontext() if args.trace else sampler):
        start = time.perf_counter()
        for step in plan.steps:
            t0 = time.perf_counter()
            codes.append(_run(run, list(step.argv)))
            command_s.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
    probes = sampler.durations
    result.update(
        wall_s=wall,
        probe_s=sum(probes) / len(probes) if probes else result["setup_probe_s"],
        probing_s=sum(probes),
        command_s=command_s,
        codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        artifact_bytes=sum(s.artifact.stat().st_size for s in plan.steps
                           if s.artifact is not None and s.artifact.exists()),
    )
    if recorder is not None:
        recorder.write(args.dir / "spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
