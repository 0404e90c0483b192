"""The traced benchmark run's spans still resolve on the read path.

``perfbench/probes.py`` records spans by wrapping named callables of the
program, and the traced ``lenet-offline`` metrics index those spans by name.
A read path that stops calling a probed callable still passes every
functional test but breaks ``perfbench/run.py --trace 1``; this test runs one
warm LeNet batch under the benchmark's own recorder (loaded read-only from
its file) and checks that every span those metrics read is recorded.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.config import optimal_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.nn import build_lenet5

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"

#: Span names the ``lenet-offline`` per-layer metrics read (``perfbench/layers.py``).
OFFLINE_SPANS = {
    "run_batch",
    "im2col",
    "odac_modulate",
    "array_matmul",
    "signed_matmul",
    "sharding.execute",
}


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warm_lenet_batch_records_every_offline_span():
    probes = _load_probes()
    network = build_lenet5()
    weights = generate_random_weights(network, seed=1, scale=0.3)
    engine = FunctionalInferenceEngine(network, weights, optimal_chip())
    images = np.random.default_rng(2).uniform(0.0, 1.0, (4,) + network.input_shape.as_tuple())
    expected = engine.run_batch(images)  # programs every layer: the next batch is warm

    with probes.SpanRecorder() as recorder:
        traced = engine.run_batch(images)

    names = {span.name for span in recorder.spans}
    assert OFFLINE_SPANS <= names, sorted(OFFLINE_SPANS - names)
    layers = [info.name for info in network.crossbar_layers]
    assert all(seconds > 0 for seconds in probes.layer_times(recorder.spans, layers).values())
    assert traced.tobytes() == expected.tobytes()
