"""Self-test of the benchmark's checker: every check must be able to fail.

Runs the real CLI in-process on the boundary of the 3-simplex (4 vertices),
checks its artifacts once as written (every check passes) and then with
one fault each, confirming that each fault raises ``failed_frac``:

* a wrong reference table (``compare`` and ``hodge``);
* a kernel whose scale no longer normalizes it;
* a reproduction off by more than the tolerance;
* a non-zero exit code;
* a traced pass with a span no metric accounts for (coverage check); the
  same spans with every metric present must pass, counting time and all.

    python3 perfbench/selftest.py      # exit 0 when every fault is caught
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import sys
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "out" / "selftest"


def _failed_frac(results: list[checks.Check]) -> float:
    return sum(1 for _, ok in results if not ok) / len(results)


def _steps() -> list[workloads.Step]:
    """compare, hodge, kernel and verify-kernel on the 4-vertex sphere."""
    path = WORK / "sphere4.json"
    path.write_text(json.dumps({"n": 4, "facets": workloads.sphere_facets(4)}), encoding="utf-8")
    poly = {(1, 0, 2, 0): 0.5 - 0.25j, (0, 0, 0, 0): 1.0 + 0j}
    zeta = (0.3 + 0.1j, -0.2 + 0j, 0.1 - 0.4j, 0.25 + 0.25j)
    f_text = "(0.50-0.25i)*z1^1*z3^2+(1.00+0.00i)"
    zeta_text = ",".join(f"({z.real}{z.imag:+}i)" for z in zeta)
    return [
        workloads.Step(("compare", str(path), "--json", str(WORK / "compare.json")),
                       "compare", WORK / "compare.json", "sphere4"),
        workloads.Step(("hodge", str(path), "--json", str(WORK / "hodge.json")),
                       "hodge", WORK / "hodge.json", "sphere4"),
        workloads.Step(("kernel", str(path), "--s", "7", "--json", str(WORK / "kernel.json")),
                       "kernel", WORK / "kernel.json"),
        workloads.Step(("verify-kernel", str(path), "--s", "7", f"--f={f_text}",
                        f"--zeta={zeta_text}", "--json", str(WORK / "verify.json")),
                       "verify", WORK / "verify.json", poly=poly, zeta=zeta),
    ]


def _rewrite(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["artifacts"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    sys.path.insert(0, str(HERE.parent / "src"))
    from coordarr import cli

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    steps = _steps()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        codes = [cli.run(list(step.argv)) for step in steps]

    def check_all(ref: dict, codes: list[int]) -> list[checks.Check]:
        return [c for step, code in zip(steps, codes) for c in checks.step_checks(step, code, ref)]

    cases: list[tuple[str, float, bool]] = []  # (name, failed_frac, fault expected)
    cases.append(("artifacts as written", _failed_frac(check_all(reference, codes)), False))

    wrong = copy.deepcopy(reference)
    wrong["sphere4"]["h"]["0,0"] = 2
    cases.append(("wrong reference table", _failed_frac(check_all(wrong, codes)), True))
    cases.append(("non-zero exit code", _failed_frac(check_all(reference, [0, 2, 0, 0])), True))

    kernel, verify = steps[2].artifact, steps[3].artifact
    saved = {p: p.read_text(encoding="utf-8") for p in (kernel, verify)}
    _rewrite(kernel, lambda a: a["scale"].update(num=str(2 * int(a["scale"]["num"]))))
    cases.append(("kernel not normalized", _failed_frac(check_all(reference, codes)), True))
    kernel.write_text(saved[kernel], encoding="utf-8")
    _rewrite(verify, lambda a: a["report"][0]["computed"].__setitem__(0, a["report"][0]["computed"][0] + 1e-6))
    cases.append(("reproduction off by 1e-6", _failed_frac(check_all(reference, codes)), True))
    verify.write_text(saved[verify], encoding="utf-8")

    # spans: a command of 1.0 s holding one child of 0.4 s whose counts took
    # 0.1 s to read; that 0.1 s belongs to no layer
    spans = [["cli.self", -1, 0.0, 1.0, None, 0.0], ["linalg.snf", 0, 0.2, 0.6, {}, 0.1]]
    names = {"cli.self_s", "linalg.snf_s"}
    cases.append(("coverage, every span has a metric",
                  float(tracing.coverage_error(spans, names, 1.0) > 0.01), False))
    cases.append(("coverage, a span without a metric",
                  float(tracing.coverage_error(spans, names - {"linalg.snf_s"}, 1.0) > 0.01), True))

    ok = True
    for name, frac, fault in cases:
        caught = frac > 0
        good = caught == fault
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: failed_frac {frac:.3f}"
              f" ({'fault expected' if fault else 'no fault expected'})")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
