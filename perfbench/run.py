"""Benchmark of knotcalc's invariant engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout, importing knotcalc from ``src``.  The
workload's fixed batch of operations (one pass) runs again and again,
each pass in a fresh single-threaded interpreter, until ``--seconds``
have passed and at least three passes are done.  A few extra
interpreters only set up, so set-up time has enough samples.  Every
operation's result is checked against an independent reference; a
wrong or failed operation makes the run incorrect and the exit code 1.

With ``--trace 1``, traced and untraced passes alternate: the traced
ones wrap each layer's public functions (see tracing.py) and give the
per-layer metrics, the untraced ones the base for the tracing overhead.

Times are in reference seconds (see calibration.py): measured time
rescaled by a calibration kernel run around it, because other tenants
of a shared machine change its speed by up to a factor of two.

The last line printed is one JSON object: correct, attempted, failed and
the metrics (end-to-end without tracing, per-layer with it).  The lines
before it give the machine, the commit, the seed, the operation counts,
fail_frac and the memo counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import summary
import tracing
from calibration import calibrate, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cable-sweep", "braid-invariants", "table-verify")
SETUP_PROBES = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without knotcalc's own settings; string
    hashing is fixed so that every pass iterates sets identically."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KNOTCALC_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, traced: bool = False,
          setup_only: bool = False) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up reference seconds, its pass or
    None).  Set-up is calibrated by a reading here before the start and
    the worker's first reading after it."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if line == "ready\n":
                    break
            setup = time.perf_counter() - start
            lines += proc.stdout.read().splitlines(keepends=True)
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or "ready\n" not in lines:
        tail = "".join(lines[-5:]).strip() or f"exit code {proc.returncode}"
        raise WorkerFailed(f"{workload} worker failed: {tail}")
    result = json.loads(lines[-1])
    setup = reference_seconds(setup, before, result["calibrations"][0])
    return setup, None if setup_only else result


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """(set-up times, untraced passes, traced passes) of one run."""
    start = time.perf_counter()
    setups = [spawn(workload, seed, setup_only=True)[0]
              for _ in range(SETUP_PROBES)]
    untraced: list = []
    traced: list = []
    while True:
        want_trace = trace and len(traced) < len(untraced)
        setup, result = spawn(workload, seed, traced=want_trace)
        if want_trace:
            traced.append(result)
        else:
            untraced.append(result)
            setups.append(setup)
        if (time.perf_counter() - start >= seconds
                and len(untraced) >= MIN_PASSES
                and (not trace or len(traced) >= MIN_PASSES)):
            return setups, untraced, traced


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knotcalc" / "__init__.py").is_file():
        print(f"error: no knotcalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        setups, untraced, traced = collect(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    passes = untraced + traced
    attempted, failed = summary.fail_counts(passes)
    problems = summary.inconsistencies(passes)
    problems += sorted({p for r in passes for p in r["problems"]})
    metrics, details = summary.end_to_end(setups, untraced)
    if args.trace:
        metrics = summary.per_layer(tracing.PER_LAYER, traced, untraced)
    correct = failed == 0 and not problems

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "commit": commit(),
        "engine_cap": untraced[0]["engine_cap"],
        "cable_engine_cap": "max(engine_cap, crossings of the cable)",
        "env": "KNOTCALC_* unset, PYTHONHASHSEED=0, one worker thread",
        "attempted": attempted, "failed": failed, **details,
        "memo": untraced[0]["memo"],
        "absent": traced[0]["trace"]["absent"] if traced else [],
        "problems": problems[:20],
    }
    print(f"knotcalc benchmark: {args.workload}, seed {args.seed}, "
          f"{details['passes']} passes of {details['ops_per_pass']} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':32s} {details['fail_frac']:>14.6g} "
          f"({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
