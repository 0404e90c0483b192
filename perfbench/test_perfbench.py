"""Tests of the benchmark's own helpers: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from harness import (
    MIN_TAIL_SAMPLES,
    HostSpeed,
    bitwise_equal,
    check_metric_names,
    normalized_figures,
    poisson_schedule,
    tail_percentile,
    window_factors,
)
from probes import SpanRecorder, layer_times, summarize

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99)), 90) is None  # 9.9 samples beyond p90
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert tail_percentile(list(range(10 * MIN_TAIL_SAMPLES - 1)), 90) is None
    assert tail_percentile(list(range(999)), 99) is None


def test_declared_metric_names_are_valid_and_unique():
    names = [entry["name"] for key in ("end_to_end", "per_layer") for entry in SPEC[key]]
    check_metric_names(names)
    assert len(names) == len(set(names))
    with pytest.raises(ValueError):
        check_metric_names(["latency p50"])
    with pytest.raises(ValueError):
        check_metric_names(["µs"])


def test_bitwise_check_fails_on_one_ulp():
    expected = np.random.default_rng(0).normal(size=(4, 10))
    actual = expected.copy()
    assert bitwise_equal(actual, expected)
    actual[2, 3] = np.nextafter(actual[2, 3], np.inf)
    assert not bitwise_equal(actual, expected)
    assert not bitwise_equal(expected.astype(np.float32), expected)
    assert not bitwise_equal(expected.reshape(10, 4), expected)
    assert not bitwise_equal(np.array([0.0]), np.array([-0.0]))


def test_poisson_schedule_reproduces_from_its_seed():
    first = poisson_schedule(40.0, 20.0, seed=7)
    assert np.array_equal(first, poisson_schedule(40.0, 20.0, seed=7))
    assert not np.array_equal(first, poisson_schedule(40.0, 20.0, seed=8))
    assert len(first) == 800
    assert np.all(np.diff(first) >= 0)
    assert first[0] >= 0.0 and first[-1] < 20.0


def test_window_factors_average_the_samples_around_each_window():
    assert window_factors([1.0, 1.5, 1.5, 1.0], 3) == [1.25, 1.5, 1.25]
    with pytest.raises(ValueError):
        window_factors([1.0, 1.5], 2)


def test_a_slow_spell_cancels_but_a_slower_program_does_not():
    # 20 windows of 10 operations of 100 ms; the host runs 1.6x slower in
    # windows 5-14, and the speed samples around them say so.
    speed = [1.6 if 5 <= sample <= 15 else 1.0 for sample in range(21)]
    factors = window_factors(speed, 20)
    windows = [window for window in range(20) for _ in range(10)]
    phase = SimpleNamespace(
        speed=speed,
        windows=windows,
        latencies_s=[0.1 * factors[window] for window in windows],
        images=200,
        open_s=20.0,
    )
    figures = normalized_figures(phase, concurrency=1)
    assert figures["latency_p50_ms"] == pytest.approx(100.0)
    assert figures["throughput_img_per_s"] == pytest.approx(10.0)  # 1 image per 100 ms
    assert normalized_figures(phase, concurrency=2)["throughput_img_per_s"] == pytest.approx(20.0)
    # An open loop runs at its offered rate: 200 images in 20 open seconds.
    assert normalized_figures(phase, concurrency=0)["throughput_img_per_s"] == 10.0
    # Without the factors the slow spell shows: 100 ops at 160 ms, 20 at
    # 130 ms in the windows half inside it, 80 at 100 ms.
    as_measured = normalized_figures(phase, exponent=0.0)
    assert as_measured["throughput_img_per_s"] == pytest.approx(200 / 26.6)

    # A stall in every fourth window of a program on a steady host stays in.
    phase.speed = [1.0] * 21
    phase.latencies_s = [0.3 if window % 4 == 0 else 0.1 for window in windows]
    assert normalized_figures(phase)["throughput_img_per_s"] == pytest.approx(200 / 30.0)


def test_host_speed_sample_is_a_positive_ratio():
    speed = HostSpeed(repeats=3)
    samples = [speed.sample() for _ in range(3)]
    assert all(0.05 < sample < 50.0 for sample in samples)


class _Model:
    def forward(self, layers):
        return [self.layer(width) for width in layers]

    def layer(self, width):
        return self.kernel(width) + self.kernel(width)

    def kernel(self, width):
        return sum(range(width))


def test_span_recorder_nests_attributes_and_restores():
    original = _Model.layer
    recorder = SpanRecorder()
    recorder.wrap(_Model, "forward", "run_batch", size=lambda args, kwargs: len(args[1]))
    recorder.wrap(_Model, "layer", "linear")
    recorder.wrap(_Model, "kernel", "kernel")
    try:
        recorder.set_op(3)
        assert _Model().forward([10, 20_000, 30]) == [90, 399_980_000, 870]
    finally:
        recorder.uninstall()
    assert _Model.layer is original

    summary = summarize(recorder.spans)
    assert {name: entry["count"] for name, entry in summary.items()} == {
        "run_batch": 1,
        "linear": 3,
        "kernel": 6,
    }
    for name in ("run_batch", "linear"):
        assert 0.0 <= summary[name]["self_s"] < summary[name]["total_s"]
    assert summary["kernel"]["self_s"] == pytest.approx(summary["kernel"]["total_s"])
    assert {span.op for span in recorder.spans} == {3}
    (batch,) = [span for span in recorder.spans if span.name == "run_batch"]
    assert batch.size == 3 and batch.parent is None

    layers = layer_times(recorder.spans, ["a", "b", "c"])
    assert max(layers, key=layers.get) == "b"  # the widest layer, attributed in call order
    with pytest.raises(ValueError):
        layer_times(recorder.spans, ["a", "b"])
