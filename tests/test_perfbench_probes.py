"""The traced benchmark run's spans still resolve on the read and build paths.

``perfbench/probes.py`` records spans by wrapping named callables of the
program, and the traced ``lenet-offline`` and ``lenet-reprogram`` metrics
index those spans by name.  A path that stops calling a probed callable
still passes every functional test but breaks ``perfbench/run.py --trace
1``; these tests run LeNet under the benchmark's own recorder (loaded
read-only from its file): one warm batch, and one fresh engine's first
batch, and check that every span those metrics read is recorded.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.config import default_sweep_chip, optimal_chip
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

#: Span names the ``lenet-reprogram`` plan-build metrics read
#: (``crossbar.tile_program.ms``, ``accelerator.plan_build_frac``, ...).
REPROGRAM_SPANS = {"tile_init", "tile_program", "linear"}


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


def test_fresh_lenet_engine_records_every_plan_build_span():
    probes = _load_probes()
    network = build_lenet5()
    weights = generate_random_weights(network, seed=1, scale=0.3)
    image = np.random.default_rng(2).uniform(0.0, 1.0, (1,) + network.input_shape.as_tuple())
    expected = FunctionalInferenceEngine(network, weights, default_sweep_chip()).run_batch(image)

    with probes.SpanRecorder() as recorder:
        engine = FunctionalInferenceEngine(network, weights, default_sweep_chip())
        traced = engine.run_batch(image)

    names = [span.name for span in recorder.spans]
    assert REPROGRAM_SPANS <= set(names), sorted(REPROGRAM_SPANS - set(names))
    # Every layer's plan is built once: one engine made and programmed each.
    layers = len(network.crossbar_layers)
    assert names.count("tile_init") == names.count("tile_program") == layers
    assert traced.tobytes() == expected.tobytes()
