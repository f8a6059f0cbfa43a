"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports knotcalc from the checkout's ``src``, sets the pass up, prints
``ready`` (the parent times set-up up to that line), runs every operation
once with a calibration reading before each and after the last, checks
each result outside its timed region, and prints one JSON
line: per-operation times and verdicts, the calibration readings, the
benchmark's memo counts, the peak resident memory and, with ``--trace``,
the per-layer spans.  With ``--setup-only`` it exits after one
calibration reading.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibration import calibrate  # noqa: E402

MAX_PROBLEMS = 20


def run_ops(ops, tracer=None) -> dict:
    """Time each operation, then check it with tracing paused.  The
    calibration kernel runs before each operation and after the last."""
    times, verdicts, problems, calibrations = [], [], [], []
    for op in ops:
        calibrations.append(calibrate())
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:   # an engine error is a failed operation
            elapsed = time.perf_counter() - start
            found = [f"raised {type(e).__name__}: {e}"]
        else:
            elapsed = time.perf_counter() - start
            with tracer.paused() if tracer else nullcontext():
                try:
                    found = op.check(out)
                except Exception as e:
                    found = [f"check raised {type(e).__name__}: {e}"]
        times.append(elapsed)
        verdicts.append(not found)
        if found and len(problems) < MAX_PROBLEMS:
            problems.append(f"{op.label}: {'; '.join(found)}")
    calibrations.append(calibrate())
    return {"labels": [op.label for op in ops], "times": times,
            "calibrations": calibrations, "ok": verdicts,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops, memos = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"calibrations": [calibrate()]}), flush=True)
        return 0
    result = run_ops(ops, tracer)
    result.update(
        memo=memos.stats(),
        engine_cap=workloads.ENGINE_CAP,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        trace=tracer.snapshot() if tracer else None,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
