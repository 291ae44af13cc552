#!/usr/bin/env python3
"""Run one quotbox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload product-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A workload runs in this one process with one thread, as a closed loop:
the checks of a pass run one after another, each waiting for the last,
and passes repeat until ``--seconds`` have gone by (at least one full
pass; the last may stop partway).  ``wall_s`` is the sum of the checks'
median times, ``slowest_check_s`` the largest of those medians.
Every result is checked; a wrong result or an exception counts as a
failed check and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced passes for half the time, then traced passes for the other
half, and prints the per-layer metrics (see spans.py).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric by name with its unit, ``fail_frac`` and a stamp of the run.
``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured this many times in fresh processes, plus once in the
# measuring process, and the median is reported.
SETUP_CHILDREN = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description="quotbox benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the same checks at millisecond sizes (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def attempt(check) -> tuple[bool, float]:
    """Run one check; return (correct, seconds spent in the call)."""
    t0 = time.perf_counter()
    try:
        result = check.call()
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        ok = False
    else:
        seconds = time.perf_counter() - t0
        try:
            ok = bool(check.judge(result))
        except Exception:
            traceback.print_exc()
            ok = False
    if not ok:
        print(f"perfbench: FAILED {check.label}", file=sys.stderr)
    return ok, seconds


def timed_setup(args):
    """Import quotbox, build the inputs and run one warm-up check.

    Returns (seconds, checks, warm-up correct).
    """
    t0 = time.perf_counter()
    import quotbox  # noqa: F401  (the import is part of what is timed)

    checks = workloads.build(args.workload, args.seed, args.tiny)
    warmup = workloads.build(args.workload, args.seed, tiny=True)[0]
    ok, _ = attempt(warmup)
    return time.perf_counter() - t0, checks, ok


def run_checks(checks, seconds, between=None):
    """Closed loop over the checks, pass after pass, until ``seconds`` have
    gone by; at least one full pass, and the last pass may stop partway.
    ``between(elapsed)`` runs after each check, outside the check times.

    Returns (the times of each check, attempted, failed).
    """
    samples = [[] for _ in checks]
    attempted = failed = 0
    begin = time.perf_counter()
    while attempted < len(checks) or time.perf_counter() - begin < seconds:
        j = attempted % len(checks)
        ok, s = attempt(checks[j])
        samples[j].append(s)
        attempted += 1
        failed += not ok
        if between is not None:
            between(time.perf_counter() - begin)
    return samples, attempted, failed


def pass_estimate(samples) -> float:
    """Seconds for one full pass: the sum of each check's median time."""
    return sum(statistics.median(times) for times in samples)


def run_traced_passes(checks, seconds, tracer):
    """Full passes under ``tracer`` while the next one is expected to end
    within ``seconds`` (at least one); returns (pass walls, attempted,
    failed)."""
    walls = []
    attempted = failed = 0
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + walls[-1] <= seconds:
        tracer.start_pass()
        t0 = time.perf_counter()
        for check in checks:
            tracer.check_id = attempted
            ok, _ = attempt(check)
            attempted += 1
            failed += not ok
        walls.append(time.perf_counter() - t0)
    return walls, attempted, failed


def setup_child(args) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("set-up process failed")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quotbox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def emit(record: dict) -> int:
    """Print the metrics, the stamp and the result line; save the record."""
    attempted, failed = record["attempted"], record["failed"]
    for name, m in record["metrics"].items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {shown} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ratio")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    s = record["stamp"]
    tag = "-tiny" if s["tiny"] else ""
    (OUT / f"{s['workload']}-seed{s['seed']}-trace{s['trace']}{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_untraced(args) -> int:
    setup_s, checks, warm_ok = timed_setup(args)
    samples = [setup_s]

    def sample_setup(elapsed):
        # Spread the set-up processes over the run, at most one after each
        # check, so their median sees the same machine as the checks do.
        if len(samples) <= SETUP_CHILDREN and elapsed >= (
                len(samples) - 1) * args.seconds / SETUP_CHILDREN:
            samples.append(setup_child(args))

    samples_s, attempted, failed = run_checks(checks, args.seconds, sample_setup)
    while len(samples) <= SETUP_CHILDREN:
        samples.append(setup_child(args))
    attempted += 1
    failed += not warm_ok
    check_s = [statistics.median(times) for times in samples_s]
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": sum(check_s), "unit": "s"},
        "slowest_check_s": {"value": max(check_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    return emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "stamp": dict(stamp(args), passes=min(map(len, samples_s))),
        "checks": [c.label for c in checks],
        "check_s": check_s,
        "check_samples": samples_s,
        "setup_samples": samples,
    })


def run_traced(args) -> int:
    import spans

    _, checks, warm_ok = timed_setup(args)
    untraced, attempted, failed = run_checks(checks, args.seconds / 2)
    tracer = spans.Tracer()
    with tracer:
        traced_walls, a, f = run_traced_passes(checks, args.seconds / 2, tracer)
    attempted += a + 1
    failed += f + (not warm_ok)
    metrics, stable = spans.per_layer_metrics(tracer, traced_walls, pass_estimate(untraced))
    if not stable:
        print("perfbench: exact counts differ between traced passes", file=sys.stderr)
    for name in tracer.absent:
        print(f"absent {name}")
    run_stamp = dict(stamp(args), passes=min(map(len, untraced)), traced_passes=len(traced_walls))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}.spans", run_stamp)
    return emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "stamp": run_stamp,
        "checks": [c.label for c in checks],
        "counts_stable": stable,
        "absent": tracer.absent,
        "check_samples": untraced,
        "traced_pass_walls": traced_walls,
    })


def run_all(args) -> int:
    """Every workload in its own fresh process; exit code is the worst."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines():
            print(f"[{name}] {line}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quotbox" / "__init__.py").is_file():
        print(f"perfbench: no quotbox sources at {SRC / 'quotbox'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_s, _, ok = timed_setup(args)
        print(json.dumps({"setup_s": setup_s, "warmup_ok": ok}))
        return 0 if ok else 1
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
