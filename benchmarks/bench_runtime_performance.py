"""Performance benchmarks of the simulator itself (not a paper figure).

These measure the wall-clock cost of the reproduction's two main code paths —
the analytical dataflow simulator and the functional INT6 crossbar — so
regressions in the modelling code show up in the benchmark history.  Unlike
the figure benchmarks these use multiple rounds, since they are cheap.

The batched-inference benchmarks guard the vectorized GEMM datapath: the
64-vector ``CrossbarArray.matmul`` must stay at least 10x faster than the
seed's per-vector Python loop, a full LeNet ``run_batch`` reads the
engine's programmed layers end to end, and the per-image cost of LeNet-5 on
the paper's 128x128 chip must fall as the batch grows: warm from B = 1 to 8,
and program-then-read from B = 8 to 32.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import optimal_chip, small_test_chip
from repro.core.accelerator import OpticalCrossbarAccelerator
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.crossbar import CrossbarArray
from repro.nn import build_lenet5, build_resnet50
from repro.perf.metrics import evaluate_runtime
from repro.scalesim.simulator import CrossbarDataflowSimulator


def test_dataflow_simulation_speed(benchmark):
    """Full ResNet-50 dataflow simulation + metrics on the optimal chip."""
    network = build_resnet50()
    config = optimal_chip()

    def run():
        runtime = CrossbarDataflowSimulator(config).simulate(network)
        return evaluate_runtime(runtime).inferences_per_second

    ips = benchmark(run)
    assert ips > 10_000


def test_network_construction_speed(benchmark):
    """Building the ResNet-50 shape graph (175+ layers) and its totals."""
    total_macs = benchmark(lambda: build_resnet50().total_macs)
    assert 3.9e9 < total_macs < 4.3e9


def test_functional_matvec_speed(benchmark):
    """One 128x128 optical matrix-vector product (quantised, no noise)."""
    rng = np.random.default_rng(0)
    array = CrossbarArray(128, 128)
    array.program_weights(rng.uniform(0, 1, (128, 128)))
    inputs = rng.uniform(0, 1, 128)

    result = benchmark(lambda: array.matvec(inputs))
    assert result.shape == (128,)


def _per_vector_matmul(array: CrossbarArray, inputs: np.ndarray) -> np.ndarray:
    """The seed's matmul: a Python loop of per-vector matvec calls."""
    return np.stack([array.matvec(vector) for vector in inputs])


def test_functional_batch_matmul_speed(benchmark):
    """Streaming 64 input vectors through a 64x64 array as one GEMM.

    Asserts the vectorized batched path is at least 10x faster than the
    seed's per-vector Python loop over the same array.
    """
    rng = np.random.default_rng(1)
    array = CrossbarArray(64, 64)
    array.program_weights(rng.uniform(0, 1, (64, 64)))
    inputs = rng.uniform(0, 1, (64, 64))

    result = benchmark(lambda: array.matmul(inputs))
    assert result.shape == (64, 64)
    assert np.array_equal(result, _per_vector_matmul(array, inputs))

    def best_of(func, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            func()
            times.append(time.perf_counter() - start)
        return min(times)

    batched_s = best_of(lambda: array.matmul(inputs), repeats=20)
    per_vector_s = best_of(lambda: _per_vector_matmul(array, inputs), repeats=3)
    speedup = per_vector_s / batched_s
    print(f"\nbatched 64x64 matmul speedup over per-vector loop: {speedup:.1f}x")
    assert speedup >= 10.0


def test_functional_signed_gemm_batch_speed(benchmark):
    """64-vector signed GEMM through the tiled linear() path of a programmed layer."""
    rng = np.random.default_rng(2)
    accelerator = OpticalCrossbarAccelerator(small_test_chip(rows=64, columns=64))
    weights = rng.normal(size=(100, 40))
    inputs = rng.uniform(-1, 1, (64, 100))
    layer = accelerator.layer(weights)
    accelerator.linear(layer, inputs)  # program once

    result = benchmark(lambda: accelerator.linear(layer, inputs))
    assert result.shape == (64, 40)
    stats = accelerator.functional_statistics()
    # 2x1 tile grid, two differential arrays per tile, programmed exactly once.
    assert stats["programming_events"] == 4


def test_functional_lenet_run_batch_speed(benchmark):
    """One full functional LeNet batch (8 images) through run_batch."""
    network = build_lenet5(input_size=12)
    weights = generate_random_weights(network, seed=6, scale=0.3)
    engine = FunctionalInferenceEngine(network, weights, small_test_chip(rows=64, columns=64))
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, (8, 12, 12, 1))
    engine.run_batch(images)  # programs the engine's layers

    outputs = benchmark(lambda: engine.run_batch(images))
    assert outputs.shape == (8, 10)


def test_lenet_per_image_cost_falls_with_batch_size():
    """Host time per image of LeNet-5 on the paper's 128x128 chip falls with B.

    Each step must cost at most 0.9x the previous step per image:

    * B = 1 -> 8, warm: every tile is programmed first, and each sample runs
      the same 32 images as 32/B batches of B, so batching amortises the
      per-read work.
    * B = 8 -> 32, program-then-read (the setting of the paper's Fig. 7):
      each sample builds a fresh engine, whose first read of B images
      programs every tile, so batching amortises the programming.  A warm
      read has no programming left to amortise and costs about the same per
      image at B = 8 and 32.

    The best of 5 samples counts at each point, with the batch sizes
    interleaved so host-speed drift hits them alike.
    """
    network = build_lenet5()
    weights = generate_random_weights(network, seed=1, scale=0.3)
    engine = FunctionalInferenceEngine(network, weights, optimal_chip())
    images = np.random.default_rng(2).uniform(0, 1, (32,) + network.input_shape.as_tuple())
    engine.run_batch(images)  # program every tile

    warm = {1: float("inf"), 8: float("inf")}
    cold = {8: float("inf"), 32: float("inf")}
    for _ in range(5):
        for batch in warm:
            start = time.perf_counter()
            for first in range(0, len(images), batch):
                engine.run_batch(images[first : first + batch])
            warm[batch] = min(warm[batch], (time.perf_counter() - start) / len(images))
        for batch in cold:
            fresh = FunctionalInferenceEngine(network, weights, optimal_chip())
            start = time.perf_counter()
            fresh.run_batch(images[:batch])
            cold[batch] = min(cold[batch], (time.perf_counter() - start) / batch)
    print("\nwarm ms/image at B=1/8: " + " / ".join(f"{warm[b] * 1e3:.2f}" for b in warm))
    print("cold ms/image at B=8/32: " + " / ".join(f"{cold[b] * 1e3:.2f}" for b in cold))
    assert warm[8] <= 0.9 * warm[1]
    assert cold[32] <= 0.9 * cold[8]
