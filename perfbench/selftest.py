#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit on every workload, that the exact counts of the traced run repeat
across two traced runs, that a missing traced name is reported as absent,
that the correctness gate can fail (a tampered right-hand side gives
fail_frac > 0 and a nonzero exit), and that the benchmark exits nonzero
without a result where no quotbox sources exist.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--seed", "7", "--seconds", "0.3", "--tiny")

sys.path[:0] = [str(HERE), str(SRC)]
import spans  # noqa: E402
import workloads  # noqa: E402

expectations = 0
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    global expectations
    expectations += 1
    if not cond:
        print("FAIL " + what)
        failures.append(what)


def run(args, cwd=ROOT, prelude=None):
    """Run the benchmark; return (exit code, stdout lines, last-line JSON)."""
    if prelude is None:
        cmd = [sys.executable, str(HERE / "run.py"), *args]
    else:
        cmd = [sys.executable, "-c", prelude, *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def expect_metrics(tag, lines, result, specs) -> None:
    units = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    expect(set(got) == set(units), f"{tag}: result names exactly the BENCHMARK.json metrics")
    for name, unit in units.items():
        m = got.get(name, {})
        expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
               f"{tag}: {name} has a value in {unit}")
        expect(any(line.split()[::2] == [name, unit] for line in lines),
               f"{tag}: {name} printed with its unit")


def check_untraced(name) -> None:
    code, lines, result = run(["--workload", name, "--trace", "0", *TINY])
    tag = f"{name} trace 0"
    expect(code == 0 and result["correct"] and result["failed"] == 0, f"{tag}: passes its gate")
    expect_metrics(tag, lines, result, BENCH["end_to_end"])
    expect("fail_frac 0 ratio" in lines, f"{tag}: fail_frac printed")
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    expect({"git_sha", "python", "nproc", "seed", "passes"} <= set(stamp), f"{tag}: stamped")


def check_traced(name) -> None:
    exact = [n for n, _, is_exact, _, _ in spans.PER_LAYER if is_exact]
    counts = []
    for attempt in (1, 2):
        code, lines, result = run(["--workload", name, "--trace", "1", *TINY])
        tag = f"{name} trace 1 run {attempt}"
        expect(code == 0 and result["correct"], f"{tag}: passes its gate")
        expect_metrics(tag, lines, result, BENCH["per_layer"])
        counts.append({n: result["metrics"][n]["value"] for n in exact})
    expect(counts[0] == counts[1], f"{name}: exact counts repeat across two traced runs")
    meta, arrays = spans.load_spans(HERE / "out" / f"{name}.spans")
    expect(all(len(a) == meta["count"] for a in arrays.values()) and meta["count"] > 0,
           f"{name}: spans file reads back")


def check_absent() -> None:
    """A traced name that no longer exists makes its metrics absent."""
    targets = [t for t in spans.TARGETS if t[2] != spans.CONSTRAIN]
    targets.append(("quotbox.quotfixed", "no_such_name", spans.CONSTRAIN))
    checks = workloads.build("product-deep", 7, tiny=True)
    tracer = spans.Tracer(targets)
    with tracer:
        tracer.start_pass()
        for check in checks:
            check.judge(check.call())
    metrics, _ = spans.per_layer_metrics(tracer, [1.0], 1.0)
    expect(tracer.absent == [spans.CONSTRAIN], "missing name listed as absent")
    expect(metrics["quotfixed.constrain.s"]["value"] is None
           and metrics["quotfixed.infeasible"]["value"] is None
           and metrics["quotfixed.enumerate.s"]["value"] is not None,
           "metrics built on the missing name are absent, the others are not")
    import quotbox.quotfixed

    expect(not hasattr(quotbox.quotfixed.stratum_euler, "__wrapped__"), "wrappers removed")


TAMPER = """
import sys
sys.path[:0] = [{here!r}, {src!r}]
import quotbox.verify as verify
import run

closed_form = verify.quot_closed_form

def tampered(v, order):
    s = closed_form(v, order)
    return type(s)(s.order, s.coeffs[:-1] + (s.coeffs[-1] + 1,))

verify.quot_closed_form = tampered
sys.exit(run.main(sys.argv[1:]))
"""


def check_gate_can_fail() -> None:
    prelude = TAMPER.format(here=str(HERE), src=str(SRC))
    code, lines, result = run(["--workload", "product-deep", "--trace", "0", *TINY],
                              prelude=prelude)
    expect(code != 0, "tampered rhs: nonzero exit")
    expect(result is not None and result["failed"] > 0 and not result["correct"],
           "tampered rhs: failed checks counted")
    frac = next((line for line in lines if line.startswith("fail_frac ")), "fail_frac 0 ratio")
    expect(float(frac.split()[1]) > 0, "tampered rhs: fail_frac > 0")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "closed-forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without quotbox sources: nonzero exit, no result")
    shutil.rmtree(bare)


def main() -> int:
    for name in workloads.WORKLOADS:
        check_untraced(name)
        check_traced(name)
    check_absent()
    check_gate_can_fail()
    check_bare_directory()
    print(f"{expectations} expectations, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
