"""Turning the passes of one run into the reported metrics.

A pass is the JSON a worker prints: labels, per-operation times and
verdicts, calibration readings, memo counts, peak RSS and, when traced,
the per-layer spans.
Every pass of a run has the same inputs, so its operations line up by
position across passes.
"""

from __future__ import annotations

import math
import statistics

from calibration import reference_seconds


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile, and how many samples lie above it.

    A percentile is valid only with at least ten samples beyond it, so
    p90 needs 100 samples; the run reports the count."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def fail_counts(passes) -> tuple[int, int]:
    """(operations attempted, operations failed) over all passes."""
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(1 for p in passes for ok in p["ok"] if not ok)
    return attempted, failed


def fail_frac(passes) -> float:
    attempted, failed = fail_counts(passes)
    return failed / attempted if attempted else 1.0


def inconsistencies(passes) -> list[str]:
    """Passes of one run must do identical work: same operations in the
    same order and exactly the same memo counts."""
    problems = []
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        if p["labels"] != first["labels"]:
            problems.append(f"pass {k} ran other operations than pass 1")
        if p["memo"] != first["memo"]:
            problems.append(f"pass {k} memo counts differ from pass 1")
    counted = [p["trace"] for p in passes if p["trace"]]
    for trace in counted[1:]:
        calls = {k: v[0] for k, v in trace["spans"].items()}
        if calls != {k: v[0] for k, v in counted[0]["spans"].items()}:
            problems.append("traced passes made different call counts")
            break
    return problems


def calibrated_times(passes) -> list[list]:
    """Each pass's operation times in reference seconds, each calibrated
    by the readings taken just before and just after it."""
    return [[reference_seconds(t, before, after)
             for t, before, after in zip(p["times"], p["calibrations"],
                                         p["calibrations"][1:])]
            for p in passes]


def end_to_end(setups: list[float], passes) -> tuple[dict, dict]:
    """(metrics, details) of the untraced passes of one run."""
    scaled = calibrated_times(passes)
    pooled = [t for times in scaled for t in times]
    p50, _ = percentile(pooled, 50)
    p90, beyond_p90 = percentile(pooled, 90)
    calibrations = [c for p in passes for c in p["calibrations"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(times) for times in scaled), "s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    details = {
        "setup_samples": len(setups),
        "passes": len(passes),
        "ops_per_pass": len(passes[0]["times"]),
        "latency_samples": len(pooled),
        "samples_beyond_p90": beyond_p90,
        "uncalibrated_wall_s": statistics.median(sum(p["times"])
                                                 for p in passes),
        "calibration_ms": {"min": 1000 * min(calibrations),
                           "median": 1000 * statistics.median(calibrations)},
        "pass_wall_s": [round(sum(times), 4) for times in scaled],
        "fail_frac": fail_frac(passes),
    }
    return metrics, details


def _pass_reference_seconds(p: dict, seconds: float) -> float:
    reading = statistics.median(p["calibrations"])
    return reference_seconds(seconds, reading, reading)


def per_layer(layers, traced, untraced) -> dict:
    """Per-layer metrics from the traced passes; the untraced passes of
    the same run give the overhead base.  Self times are medians over the
    traced passes, each pass's in reference seconds by its median
    calibration reading; counts are identical in every pass."""
    wall, base = (statistics.median(sum(times) for times in
                                    calibrated_times(passes))
                  for passes in (traced, untraced))
    trace_values = {"wall_s": wall, "untraced_wall_s": base,
                    "overhead_frac": wall / base - 1}
    first = traced[0]
    out = {}
    for name, unit, _better, source, _moves in layers:
        kind, *key = source
        if kind == "memo":
            value = first["memo"][key[0]][key[1]]
        elif kind == "trace":
            value = trace_values[key[0]]
        elif kind == "calls":
            value = first["trace"]["spans"].get(key[0], [0])[0]
        elif kind == "self":
            value = statistics.median(
                _pass_reference_seconds(
                    p, p["trace"]["spans"].get(key[0], [0, 0, 0])[2])
                for p in traced)
        else:   # "sum" or "max" of an observed result size
            value = first["trace"]["observed"].get(key[0], [0, 0])[
                0 if kind == "sum" else 1]
        out[name] = (value, unit)
    return out
