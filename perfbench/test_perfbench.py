"""Tests of the benchmark's own code: statistics, tracing, the gate."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

from knotcalc import skein, verification  # noqa: E402
from knotcalc.polyring import LaurentPoly  # noqa: E402


def _pass(ok, labels=None, times=None, memo=None):
    labels = labels or [f"op{k}" for k in range(len(ok))]
    return {"labels": labels, "ok": ok,
            "times": times or [0.001] * len(ok),
            "calibrations": [calibration.REFERENCE_S] * (len(ok) + 1),
            "memo": memo or {}, "trace": None, "problems": []}


# ---------------------------------------------------------------- statistics

def test_percentile_is_nearest_rank_with_the_count_beyond_it():
    samples = list(range(100, 0, -1))
    assert summary.percentile(samples, 50) == (50, 50)
    assert summary.percentile(samples, 90) == (90, 10)
    assert summary.percentile(samples, 100) == (100, 0)
    assert summary.percentile(range(1, 37), 90) == (33, 3)
    assert summary.percentile([7.5], 90) == (7.5, 0)
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_times_are_rescaled_by_the_readings_around_them():
    ref_s = calibration.REFERENCE_S
    passes = [_pass([True] * 2, times=[3.0, 1.0])]
    passes[0]["calibrations"] = [ref_s, ref_s, 3 * ref_s]
    assert summary.calibrated_times(passes) == [[3.0, 0.5]]
    assert calibration.reference_seconds(2.0, 2 * ref_s, 2 * ref_s) == 1.0


def test_fail_frac_counts_every_failed_operation_of_every_pass():
    passes = [_pass([True, False, True, True]), _pass([True, True, True, False])]
    assert summary.fail_counts(passes) == (8, 2)
    assert summary.fail_frac(passes) == 0.25
    assert summary.fail_frac([_pass([True, True])]) == 0.0


def test_passes_doing_different_work_are_reported():
    first = _pass([True, True], memo={"bracket": {"hits": 1}})
    same = _pass([True, True], memo={"bracket": {"hits": 1}})
    assert summary.inconsistencies([first, same]) == []
    other_memo = _pass([True, True], memo={"bracket": {"hits": 2}})
    other_ops = _pass([True, True], labels=["x", "y"],
                      memo={"bracket": {"hits": 1}})
    assert len(summary.inconsistencies([first, other_memo, other_ops])) == 2


def test_run_ops_counts_a_raising_operation_as_failed():
    def boom():
        raise ValueError("no")

    ops = [workloads.Op("fine", lambda: 1, lambda out: []),
           workloads.Op("wrong", lambda: 2, lambda out: ["value"]),
           workloads.Op("raises", boom, lambda out: [])]
    result = run_ops(ops)
    assert result["ok"] == [True, False, False]
    assert summary.fail_frac([dict(result, memo={}, trace=None)]) == 2 / 3
    assert result["problems"][1].startswith("raises: raised ValueError")


# ------------------------------------------------------------------- tracing

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_child_spans():
    clock = _Clock()
    tracer = tracing.Tracer(clock)

    def inner(step):
        clock.now += step

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)
        with tracer.paused():
            inner(10.0)   # untraced: stays in outer's self time

    tracer.wrap("outer", outer)()
    assert tracer.spans["inner"] == [2, 5.0, 5.0]
    assert tracer.spans["outer"] == [1, 16.5, 11.5]


def test_a_raising_span_still_closes():
    clock = _Clock()
    tracer = tracing.Tracer(clock)

    def fails():
        clock.now += 1.0
        raise KeyError("x")

    fails = tracer.wrap("fails", fails)

    def outer():
        clock.now += 1.0
        with pytest.raises(KeyError):
            fails()

    tracer.wrap("outer", outer)()
    assert tracer.spans["fails"] == [1, 1.0, 1.0]
    assert tracer.spans["outer"] == [1, 2.0, 1.0]


def test_install_wraps_every_binding_and_reports_absent_names():
    from knotcalc import moves, polyring

    spans = [("knotcalc.moves", "simplify", "moves.simplify", None),
             ("knotcalc.polyring", "LaurentPoly.__add__", "add", None),
             ("knotcalc.skein", "no_such_engine", "missing", None)]
    original = moves.simplify
    tracer = tracing.Tracer()
    tracer.install(spans)
    try:
        assert skein._simplify_diagram is moves.simplify is not original
        one = LaurentPoly.one()
        one + one
        1 + one   # __radd__ is the same function under another name
        assert tracer.spans["add"][0] == 2
        assert tracer.absent == ["knotcalc.skein.no_such_engine"]
    finally:
        tracer.uninstall()
    assert skein._simplify_diagram is moves.simplify is original
    assert polyring.LaurentPoly.__radd__ is polyring.LaurentPoly.__add__


# ------------------------------------------------------------- the gate

def _cable_op(label):
    ops, _ = workloads.build("cable-sweep", 0)
    (op,) = [op for op in ops if op.label == label]
    return op


def test_cable_gate_passes_the_paper_case():
    assert run_ops([_cable_op("6_1@0")])["ok"] == [True]


def test_printed_kauffman_polynomial_fails_the_gate(monkeypatch):
    monkeypatch.setattr(skein, "kauffman_F", lambda *a, **k:
                        verification.KAUFFMAN_61_PRINTED)
    result = run_ops([_cable_op("6_1@0")])
    assert summary.fail_frac([dict(result, memo={}, trace=None)]) > 0
    problem = result["problems"][0]
    for what in ("king_verify", "cabling identity (reference)",
                 "F(6_1) vs the paper", "F specialized to Jones vs the table"):
        assert what in problem


def test_table_gate_catches_a_wrong_stored_field():
    entry = workloads.table.entry("3_1")
    computed = workloads._verify_entry(entry, workloads.Memos())
    assert workloads.check_entry(entry, computed) == []
    assert workloads.check_entry(entry._replace(signature=0), computed)


def test_references_match_known_values():
    # right-handed trefoil T(2,3)
    assert ref.torus_jones(2, 3) == {4: (1, 0), 12: (1, 0), 16: (-1, 0)}
    assert ref.torus_alexander(2, 3) == {-4: (1, 0), 0: (-1, 0), 4: (1, 0)}
    assert ref.torus_signature(2, 3) == 2
    assert ref.torus_signature(3, 4) == 6
    v_cable = ref.from_laurent(verification.JONES_CABLE_61)
    assert ref.king_identity_holds(
        verification.KAUFFMAN_61_CORRECTED.terms, v_cable, 0)
    assert not ref.king_identity_holds(
        verification.KAUFFMAN_61_PRINTED.terms, v_cable, 0)


def test_random_words_close_to_knots():
    rng = random.Random(5)
    for strands, length in workloads.RANDOM_WORDS:
        letters = workloads.random_word(rng, strands, length)
        assert len(letters) == length
        assert workloads._closure(strands, letters).n_components == 1
    with pytest.raises(ValueError):
        workloads.random_word(rng, 3, 11)


# ---------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads._BUILDERS)
    metrics, _ = summary.end_to_end([0.1], [_pass([True] * 10)
                                            | {"peak_rss_mb": 1.0}])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracing.PER_LAYER]
