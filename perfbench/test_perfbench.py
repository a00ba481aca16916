"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from accounting import (  # noqa: E402
    TAIL_BEYOND,
    Tally,
    harrell_davis_median,
    summarize_latencies,
)
from calibration import MIN_SAMPLES, NEAR, REFERENCE_S, Calibrator  # noqa: E402
from layers import Tracer  # noqa: E402


# -- tail percentile rule -----------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]  # 1..100, shuffled below
    samples = samples[::2] + samples[1::2]
    summary = summarize_latencies(samples)
    assert summary.n == 100
    assert summary.tail == 90.0
    assert sum(1 for x in samples if x > summary.tail) == TAIL_BEYOND
    assert summary.tail_percentile == pytest.approx(90.0)
    assert summary.p50 == pytest.approx(50.5)
    assert not summary.tail_is_max


def test_tail_at_the_smallest_sample_count_that_leaves_ten_beyond():
    summary = summarize_latencies([float(x) for x in range(11)])
    assert summary.tail == 0.0
    assert summary.tail_percentile == pytest.approx(100.0 / 11)


def test_tail_falls_back_to_max_and_says_so():
    summary = summarize_latencies([3.0, 1.0, 2.0])
    assert summary.tail == 3.0 and summary.tail_is_max
    assert "max" in summary.describe()


def test_sample_count_is_printed():
    text = summarize_latencies([0.001 * x for x in range(50)]).describe()
    assert text.startswith("n=50 ")
    assert "p80.0" in text  # 50 samples: the 40th leaves ten beyond


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize_latencies([])


# -- the median estimator -------------------------------------------------------------


def test_harrell_davis_median_of_symmetric_samples_is_the_centre():
    assert harrell_davis_median([4.0]) == pytest.approx(4.0)
    assert harrell_davis_median([1.0, 3.0]) == pytest.approx(2.0)
    assert harrell_davis_median([float(x) for x in range(1, 102)]) == pytest.approx(51.0)


def test_harrell_davis_median_moves_smoothly_across_a_gap():
    """Bimodal samples split near half and half: the order-statistic median
    jumps from one mode to the other, the estimate moves a little."""
    fast, slow = [1.0] * 26 + [3.0] * 24, [1.0] * 24 + [3.0] * 26
    low, high = harrell_davis_median(fast), harrell_davis_median(slow)
    assert 1.0 < low < 2.0 < high < 3.0
    assert high - low < 0.5


# -- host-speed calibration ----------------------------------------------------------


class FakeKernel:
    """A calibration kernel whose duration the test sets."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self):
        return self.seconds


def test_calibrator_runs_the_kernel_once_per_interval_of_operations():
    kernel = FakeKernel(REFERENCE_S)
    calibrator = Calibrator(every_s=0.02, run=kernel)
    for _ in range(10):
        calibrator.after_op(0.005)  # a kernel call every fourth operation
    assert len(calibrator.samples) == 2
    calibrator.after_op(1.0)  # a long operation still gets one call
    assert len(calibrator.samples) == 3
    assert calibrator.spent == pytest.approx(3 * REFERENCE_S)


def test_calibrator_scale_is_reference_over_measured_kernel_time():
    kernel = FakeKernel(2 * REFERENCE_S)  # the host runs at half speed
    calibrator = Calibrator(run=kernel)
    assert calibrator.scale() == pytest.approx(0.5)
    assert len(calibrator.samples) == MIN_SAMPLES  # topped up at the end


def test_operation_scale_follows_the_host_speed_around_it():
    kernel = FakeKernel(REFERENCE_S)
    calibrator = Calibrator(every_s=0.0, run=kernel)
    marks = []
    for op in range(40):
        kernel.seconds = REFERENCE_S if op < 20 else 2 * REFERENCE_S
        calibrator.after_op(0.1)
        marks.append(calibrator.mark)
    assert calibrator.scale_near(marks[5]) == pytest.approx(1.0)
    assert calibrator.scale_near(marks[35]) == pytest.approx(0.5)
    assert 0.5 < calibrator.scale_near(marks[20]) < 1.0  # NEAR calls each side
    assert NEAR >= 1


def test_a_run_attempts_a_fixed_number_of_sets():
    import workloads

    for workload in workloads.WORKLOADS.values():
        assert workload.sets(15) == workload.sets(15) >= 2
        assert workload.sets(60) > workload.sets(15)


# -- self time of nested wrappers ------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(seconds):
        clock.now += seconds

    inner = tracer.wrap("inner", leaf)

    def middle():
        clock.now += 1.0
        inner(2.0)
        inner(3.0)

    outer = tracer.wrap("outer", middle)
    outer()
    assert tracer.spans["outer"].total_s == pytest.approx(6.0)
    assert tracer.spans["outer"].self_s == pytest.approx(1.0)
    assert tracer.spans["inner"].total_s == pytest.approx(5.0)
    assert tracer.spans["inner"].self_s == pytest.approx(5.0)
    assert tracer.spans["inner"].calls == 2


def test_reentrant_span_total_counts_outermost_call_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    calls = []

    def body(depth):
        clock.now += 1.0
        calls.append(depth)
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap("span", body)
    wrapped(2)
    stats = tracer.spans["span"]
    assert stats.calls == 3
    assert stats.total_s == pytest.approx(3.0)  # not 3 + 2 + 1
    assert stats.self_s == pytest.approx(3.0)


def test_span_closes_and_hook_runs_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom, on_error=seen.append)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.spans["boom"].total_s == pytest.approx(1.0)
    assert isinstance(seen[0], KeyError)
    assert tracer._stack == []


def test_uninstall_restores_patched_attributes():
    from repro.amr.stepper import AMRStepper
    from layers import install_layer_probes

    original = AMRStepper.__dict__["step"]
    tracer = Tracer()
    install_layer_probes(tracer)
    assert AMRStepper.__dict__["step"] is not original
    tracer.uninstall()
    assert AMRStepper.__dict__["step"] is original


# -- failure counting ----------------------------------------------------------------


def test_tally_counts_raised_and_wrong_outputs():
    tally = Tally()
    tally.succeeded(3)
    tally.raised(ValueError("drift"))
    tally.raised(ValueError("again"))
    assert (tally.attempted, tally.failed, tally.correct) == (5, 2, True)
    assert tally.errors == {"ValueError": 2}
    tally.check_failed(1, "bad output")
    assert (tally.attempted, tally.failed, tally.correct) == (5, 3, False)
    assert tally.failed_ratio == pytest.approx(0.6)


def test_workflow_grid_counts_a_raising_run_as_failed(monkeypatch):
    import workloads
    from repro.errors import PolicyError

    grid = workloads.WORKLOADS["workflow_grid"]
    points = grid.build(seed=3, index=0)[:3]
    real = workloads.CoupledWorkflow
    calls = []

    def flaky(config, trace):
        calls.append(config)
        if len(calls) == 2:
            raise PolicyError("est_intransit_remaining must be non-negative")
        return real(config, trace)

    monkeypatch.setattr(workloads, "CoupledWorkflow", flaky)
    tally = Tally()
    kernel = FakeKernel(REFERENCE_S)
    outcome = grid.execute(points, tally, Calibrator(every_s=0.0, run=kernel))
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, True)
    assert tally.errors == {"PolicyError": 1}
    assert len(outcome.latencies) == 2  # only successful runs are timed
    assert outcome.marks == [0, 2]  # each with the kernel call after its run


@pytest.mark.parametrize("where", ["step", "capture"])
def test_gas_capture_counts_a_raising_capture_as_failed(monkeypatch, where):
    import workloads
    from repro.errors import TraceError

    gas = workloads.WORKLOADS["gas_capture"]
    stepper = gas.build(seed=3, index=0)
    real_step = stepper.step

    def second_step_raises():
        if stepper.step_count >= 1:
            raise TraceError("negative cells")
        return real_step()

    def capture_trace(stepper, nsteps, name=""):
        stepper.step()
        stepper.step()  # raises in the step itself, or here after it
        raise TraceError("malformed rank_bytes")

    if where == "step":
        stepper.step = second_step_raises
    monkeypatch.setattr(workloads.capture, "capture_trace", capture_trace)
    tally = Tally()
    outcome = gas.execute(stepper, tally)
    completed = 1 if where == "step" else 2
    assert (tally.attempted, tally.failed) == (completed + 1, 1)
    assert tally.errors == {"TraceError": 1}
    assert len(outcome.latencies) == completed


def test_cold_guard_trips_on_a_memo_hit(monkeypatch):
    from functools import lru_cache

    import workloads
    from repro.experiments import common

    stub = lru_cache(maxsize=4)(lambda key: key)
    monkeypatch.setattr(common, "run_mode_at_scale", stub)
    stub(1)
    workloads.assert_cold()  # a miss is still cold
    stub(1)
    with pytest.raises(workloads.ColdPathError):
        workloads.assert_cold()
    workloads.clear_memos()
    workloads.assert_cold()


def test_cold_guard_trips_when_the_experiment_cache_exists(monkeypatch):
    import workloads
    from repro.experiments import cache

    monkeypatch.setattr(cache, "_DEFAULT", object())
    with pytest.raises(workloads.ColdPathError):
        workloads.assert_cold()


# -- the command line ------------------------------------------------------------------


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gas_capture",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_manifest_names_every_metric_the_runner_prints():
    import json

    import run

    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    expected = {name: "s" for name in run.SPAN_METRICS}
    expected.update(run.COUNT_METRICS)
    expected.update(run.RATIO_METRICS)
    assert layer == expected
    import workloads

    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
