"""Tests for the end-to-end benchmark's own arithmetic and bookkeeping."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import run
from e2e_stats import OpLog, OpRecord, Timing, percentile, samples_beyond, tail_percentile
from e2e_trace import PER_LAYER, Patches, Tracer, _spanned, layer_metrics


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize("count", [20, 57, 100, 123, 1000])
def test_samples_beyond_counts_samples_above_the_percentile(count):
    samples = [float(value) for value in range(count)]
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0):
        cut = percentile(samples, pct)
        assert sum(1 for value in samples if value > cut) == samples_beyond(count, pct)


def test_timing_reports_median_tail_and_count():
    timing = Timing.of([float(value) for value in range(1, 101)])
    assert (timing.count, timing.p50, timing.tail_pct, timing.tail) == (100, 50.5, 90.0, 90.0)
    assert Timing.of([1.0] * 5).tail is None


# ---------------------------------------------------------- span self time


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")          # 0 .. 10
    clock.now = 1.0
    child = tracer.enter("child")          # 1 .. 4
    clock.now = 2.0
    grandchild = tracer.enter("leaf")      # 2 .. 3
    clock.now = 3.0
    tracer.exit(grandchild)
    clock.now = 4.0
    tracer.exit(child)
    clock.now = 5.0
    second = tracer.enter("child")         # 5 .. 6
    clock.now = 6.0
    tracer.exit(second)
    clock.now = 10.0
    tracer.exit(outer)
    totals = tracer.totals()
    assert totals["outer"] == (1, 10.0, 6.0)
    assert totals["child"] == (2, 4.0, 3.0)
    assert totals["leaf"] == (1, 1.0, 1.0)


def test_same_layer_nesting_counts_each_interval_once_in_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("core.controller")
    clock.now = 2.0
    inner = tracer.enter("core.controller")
    clock.now = 5.0
    tracer.exit(inner)
    clock.now = 6.0
    tracer.exit(outer)
    calls, total, own = tracer.totals()["core.controller"]
    assert (calls, own) == (2, 6.0)
    assert total == 9.0  # inclusive time double-counts; self time does not


def test_spans_on_other_threads_do_not_subtract_from_this_one():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("client")

    def worker():
        frame = tracer.enter("server")
        clock.now = 3.0
        tracer.exit(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clock.now = 4.0
    tracer.exit(outer)
    totals = tracer.totals()
    assert totals["client"] == (1, 4.0, 4.0)
    assert totals["server"] == (1, 3.0, 3.0)


def test_out_of_order_close_is_an_error():
    tracer = Tracer(FakeClock())
    first = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(first)


def test_wrapped_methods_nest_and_restore():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Layer:
        def outer(self):
            clock.now += 1.0
            self.inner()
            clock.now += 1.0
            return "done"

        def inner(self):
            clock.now += 2.0

    original = Layer.__dict__["outer"]
    patches = Patches()
    for name in ("outer", "inner"):
        patches.replace(Layer, name, _spanned(tracer, name, Layer.__dict__[name]))
    assert Layer().outer() == "done"
    patches.restore()
    assert Layer.__dict__["outer"] is original
    totals = tracer.totals()
    assert totals["outer"] == (1, 4.0, 2.0)
    assert totals["inner"] == (1, 2.0, 2.0)


def test_layer_metrics_derive_ratios_from_counts():
    clock = FakeClock()
    tracer = Tracer(clock)
    for _ in range(3):
        frame = tracer.enter("uarch.step")
        clock.now += 1.0
        tracer.exit(frame)
    tracer.count("uarch.skipped_cycles", 9)
    tracer.count("uarch.issue_queue.scanned", 40)
    tracer.count("uarch.issue_queue.selected", 10)
    metrics = layer_metrics(tracer)
    assert metrics["uarch.stepped_cycles"] == 3
    assert metrics["uarch.skip_ratio"] == 0.75
    assert metrics["uarch.host_ns_per_cycle"] == 3.0 * 1e9 / 12
    assert metrics["uarch.issue_queue.issued_per_scan"] == 0.25
    assert metrics["simulation.multicore.driver_s"] == 0.0


# ------------------------------------------------------------ failed ratio


class FakeWorkload:
    """Three operations per round: one passes, one raises, one fails a check."""

    name = "fake"
    ops_per_round = 3

    def kind_of(self, index):
        return ""

    def op(self, index):
        if index % 3 == 1:
            raise ValueError("simulated crash")
        record = OpRecord(kind="cell", label=f"cell {index}", host_s=0.001)
        if index % 3 == 2:
            record.problems.append("committed 9 of 10 micro-ops")
        return record


def test_failed_ratio_counts_raised_and_checked_failures():
    log = OpLog()
    run.run_pass(FakeWorkload(), log, rounds=2)
    assert (log.attempted, log.failed) == (6, 4)
    log.run_problems.append("sampled result differs")
    assert (log.attempted, log.failed) == (7, 5)
    assert log.failed_ratio == pytest.approx(5 / 7)
    assert any("ValueError: simulated crash" in line for line in log.problems())


def test_timed_pass_runs_whole_rounds():
    log = OpLog()
    run.run_pass(FakeWorkload(), log, seconds=0.0)
    assert len(log.ops) == 3


# -------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        ["fig2-single", "mc-contention", "service-sweeps"]
    )


# ------------------------------------------------------- service traffic


def test_service_rounds_are_a_new_document_then_its_resubmission(tmp_path):
    from e2e_workloads import SERVICE_SAMPLE_FROM, ServiceSweeps

    workload = ServiceSweeps(seed=5, work_dir=tmp_path)
    cells = set()
    for index in range(0, 1_000, workload.ops_per_round):
        kind, doc = workload.document(index)
        assert kind == "cold"
        assert workload.document(index + 1) == ("warm", doc)
        spec = doc["spec"]
        new = {(name, spec["num_uops"]) for name in spec["workloads"]}
        assert len(new) == 2 and not new & cells
        cells |= new
    assert workload.sample_index < workload.ops_per_round * SERVICE_SAMPLE_FROM
    assert ServiceSweeps(seed=5, work_dir=tmp_path).document(40) == workload.document(40)
