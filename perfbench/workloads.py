"""The four benchmark workloads, all on LeNet-5.

Each workload builds its inputs from the seed in ``__init__`` (untimed),
builds the program under test in :meth:`Workload.setup` (timed as
``setup_s``: network, weights, engine or server, and the warm-up that
programs the tiles), then runs timed operations for a given number of
seconds, in windows of about :attr:`Workload.window_s` with a host-speed
sample (:class:`harness.HostSpeed`) between each two, taken while the
program is idle.  :meth:`Workload.verify` checks the outputs afterwards,
outside the timed phase and outside any recorded spans.

* ``lenet-offline`` — closed loop, one thread: warm ``run_batch`` at B=32 on
  the 128×128 dual-core chip, cycling a few seeded batches.  Crossbar reads.
* ``lenet-reprogram`` — each operation builds a fresh engine on the 32×32
  chip for the next weight set of a seeded pool and runs one image.  Tile
  programming and plan build.
* ``serve-open`` — in-process ``InferenceServer`` (serial executor, max
  batch 8, max wait 2 ms), fed one image at a time by an open-loop Poisson
  schedule at 20 requests/s; latency runs from each request's due time.
* ``http-closed`` — ``python -m repro serve --http 0`` in a child process;
  two client threads on two keep-alive connections each POST 8 images as
  npy-b64 and wait for the reply.  Only the traced run probes it; it takes
  no host-speed samples.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from harness import HostSpeed, bitwise_equal, poisson_schedule

from repro.config.presets import default_sweep_chip, optimal_chip
from repro.core.inference import FunctionalInferenceEngine, generate_random_weights
from repro.nn.models import build_lenet5
from repro.serve.http import HTTPInferenceClient
from repro.serve.server import InferenceServer

ROOT = Path(__file__).resolve().parents[1]

#: Weight scale of the serve CLI's synthetic weights; every workload uses it
#: so the HTTP server's weights can be rebuilt here for the bitwise check.
WEIGHT_SCALE = 0.3
INPUT_SHAPE = build_lenet5().input_shape.as_tuple()


@dataclass
class Phase:
    """What one timed phase did: per-operation latencies and counts."""

    latencies_s: List[float] = field(default_factory=list)
    #: Window each operation with a latency ran in.
    windows: List[int] = field(default_factory=list)
    #: Host-speed samples: ``speed[w]`` before window ``w``, ``speed[w + 1]`` after it.
    speed: List[float] = field(default_factory=list)
    images: int = 0
    #: Open loops: seconds the arrivals were open, host-speed samples excluded.
    open_s: float = 0.0
    #: Operations that raised (they have no latency).
    errors: int = 0
    #: Operations that raised or returned a wrong output.
    failed: int = 0
    #: ``(image indices, output rows)`` per operation, for :meth:`Workload.verify`.
    outputs: list = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.errors

    def error(self) -> None:
        self.errors += 1
        self.failed += 1

    def record(self, latency_s: float, images: int, window: int = 0) -> None:
        self.latencies_s.append(latency_s)
        self.windows.append(window)
        self.images += images

    def merge(self, other: "Phase") -> None:
        """Add the operations of ``other``, a phase that ran concurrently or later.

        ``other``'s windows follow this phase's.  ``extra`` is taken from
        ``other``: a workload's extras count from its set-up.
        """
        self.latencies_s += other.latencies_s
        self.windows += [window + len(self.speed) for window in other.windows]
        self.speed += other.speed
        self.images += other.images
        self.open_s += other.open_s
        self.errors += other.errors
        self.failed += other.failed
        self.outputs += other.outputs
        self.extra = other.extra


def _images(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 1.0, (count,) + INPUT_SHAPE)


class Workload:
    name = ""
    #: Fresh set-ups per end-to-end run; ``setup_s`` is their median.
    setups = 15
    #: Seconds between host-speed samples in the timed phase.
    window_s = 1.0
    #: Clients of a closed loop; 0 for an open loop.
    concurrency = 1
    #: Timings are divided by the host-speed factor to this power: the
    #: elasticity of the workload's time to the factor, fitted over runs.
    host_exponent = 1.0
    config = None

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced
        self.speed = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setups(self, count: int):
        """``count`` fresh set-ups: ``(seconds, host factor)`` of each.

        A set-up's factor is the mean of the host-speed samples just before
        and just after it.  The previous instance is closed and collected
        first, outside the timing.
        """
        timings = []
        before = self.speed.sample()
        for _ in range(count):
            self.close()
            gc.collect()
            began = time.perf_counter()
            self.setup()
            seconds = time.perf_counter() - began
            after = self.speed.sample()
            timings.append((seconds, (before + after) / 2.0))
            before = after
        return timings

    def run(self, seconds: float, recorder=None) -> Phase:
        raise NotImplementedError

    def verify(self, phase: Phase) -> int:
        """Mismatching outputs of ``phase`` not yet counted in ``phase.failed``."""
        return 0

    def close(self) -> None:
        pass

    def _weights(self, network, seed: Optional[int] = None):
        return generate_random_weights(
            network, seed=self.seed if seed is None else seed, scale=WEIGHT_SCALE
        )


def _closed_loop(seconds: float, operation, speed: HostSpeed, window_s: float, recorder=None):
    """Run ``operation(index) -> (images, ok)`` back to back for ``seconds``.

    A host-speed sample opens the phase and closes each window of at least
    ``window_s`` seconds of operations.
    """
    phase = Phase(speed=[speed.sample()])
    start = time.perf_counter()
    deadline = start + seconds
    window_end = start + window_s
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        if recorder is not None:
            recorder.set_op(index)
        began = time.perf_counter()
        try:
            images, ok = operation(index)
        except Exception:  # a failing operation is counted, not fatal
            phase.error()
        else:
            phase.record(time.perf_counter() - began, images, len(phase.speed) - 1)
            phase.failed += 0 if ok else 1
        index += 1
        if time.perf_counter() >= window_end or time.perf_counter() >= deadline:
            phase.speed.append(speed.sample())
            window_end = time.perf_counter() + window_s
    if recorder is not None:
        recorder.set_op(None)
    return phase


class LenetOffline(Workload):
    name = "lenet-offline"
    setups = 7
    window_s = 1.2  # about three batches
    # Large-array numpy work: over 25 runs at factors 1.3-2.2, p50 went
    # as the factor to the power 0.33 (correlation 0.76).
    host_exponent = 1 / 3
    batch = 32
    num_batches = 4

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.config = optimal_chip()
        images = _images(seed, self.batch * self.num_batches)
        self.batches = np.split(images, self.num_batches)

    def setup(self) -> None:
        network = build_lenet5()
        self.engine = FunctionalInferenceEngine(network, self._weights(network), self.config)
        # Each batch's first warm output is its reference; batch 0's is the warm-up.
        self.reference = {0: self.engine.run_batch(self.batches[0])}

    def close(self) -> None:
        self.engine = self.reference = None

    def run(self, seconds: float, recorder=None) -> Phase:
        def operation(index):
            slot = index % self.num_batches
            output = self.engine.run_batch(self.batches[slot])
            return self.batch, bitwise_equal(output, self.reference.setdefault(slot, output))

        return _closed_loop(seconds, operation, self.speed, self.window_s, recorder)


class LenetReprogram(Workload):
    name = "lenet-reprogram"
    pool = 6

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.config = default_sweep_chip()
        self.images = _images(seed, self.pool)

    def _operation(self, slot: int):
        engine = FunctionalInferenceEngine(self.network, self.weight_pool[slot], self.config)
        output = engine.run_batch(self.images[slot : slot + 1])
        return engine, output

    def setup(self) -> None:
        self.network = build_lenet5()
        self.weight_pool = [
            self._weights(self.network, seed=self.seed * self.pool + slot)
            for slot in range(self.pool)
        ]
        # The warm-up cycle programs every weight set once; its outputs are
        # what the first timed cycle is compared against.
        self.previous = [self._operation(slot)[1] for slot in range(self.pool)]
        self.counts = dict.fromkeys(
            ("programming_events", "tile_cache_hits", "tile_cache_misses"), 0
        )

    def close(self) -> None:
        self.network = self.weight_pool = self.previous = None

    def run(self, seconds: float, recorder=None) -> Phase:
        def operation(index):
            slot = index % self.pool
            engine, output = self._operation(slot)
            stats = engine.accelerator.functional_statistics()
            for key in self.counts:
                self.counts[key] += int(stats[key])
            ok = bitwise_equal(output, self.previous[slot])
            self.previous[slot] = output
            return 1, ok

        phase = _closed_loop(seconds, operation, self.speed, self.window_s, recorder)
        phase.extra["functional_statistics"] = dict(self.counts)  # since set-up
        return phase


def _reference_outputs(seed: int, images: np.ndarray) -> np.ndarray:
    """A direct ``run_batch`` of ``images`` with the serving weights and chip."""
    network = build_lenet5()
    weights = generate_random_weights(network, seed=seed, scale=WEIGHT_SCALE)
    return FunctionalInferenceEngine(network, weights, default_sweep_chip()).run_batch(images)


def _mismatches(outputs, reference: np.ndarray) -> int:
    """Outputs ``(image indices, rows)`` that differ from ``reference[indices]``."""
    return sum(not bitwise_equal(rows, reference[indices]) for indices, rows in outputs)


class ServeOpen(Workload):
    name = "serve-open"
    setups = 31  # a set-up takes about 20 ms
    concurrency = 0
    rate_per_s = 20.0
    pool = 64

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.config = default_sweep_chip()
        self.images = _images(seed, self.pool)
        self.server: Optional[InferenceServer] = None

    def setup(self) -> None:
        network = build_lenet5()
        self.server = InferenceServer(
            network,
            self._weights(network),
            self.config,
            executor="serial",
            max_batch=8,
            max_wait_s=0.002,
            tracing=self.traced,
        ).start()
        self.lateness_s: List[float] = []

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run(self, seconds: float, recorder=None) -> Phase:
        """Offer the Poisson schedule window by window.

        A window opens, offers the arrivals due in it, waits until every
        request is answered and its span has passed, and closes with a
        host-speed sample while the server is idle; the next window's
        arrivals start after the sample.
        """
        due = poisson_schedule(self.rate_per_s, seconds, self.seed)
        picks = np.random.default_rng(self.seed + 1).integers(0, self.pool, len(due))
        windows = max(1, round(seconds / self.window_s))
        length = seconds / windows
        due_at = [0.0] * len(due)
        done = [0.0] * len(due)
        futures = []

        def stamp(index, _future):
            done[index] = time.perf_counter()

        phase = Phase(speed=[self.speed.sample()])
        for window in range(windows):
            opened = time.perf_counter()
            pending = []
            for index in np.flatnonzero((due >= window * length) & (due < (window + 1) * length)):
                due_at[index] = opened + due[index] - window * length
                delay = due_at[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lateness_s.append(time.perf_counter() - due_at[index])
                try:
                    future = self.server.submit(self.images[picks[index]])
                except Exception:
                    phase.error()
                    continue
                future.add_done_callback(functools.partial(stamp, index))
                futures.append((index, window, future))
                pending.append(future)
            concurrent.futures.wait(pending, timeout=60)
            remaining = opened + length - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            phase.open_s += time.perf_counter() - opened
            phase.speed.append(self.speed.sample())
        for index, window, future in futures:
            try:
                phase.outputs.append(([picks[index]], future.result(timeout=60)[None]))
            except Exception:
                phase.error()
                continue
            phase.record(done[index] - due_at[index], 1, window)
        # Both extras count from set-up, like the server's own telemetry.
        phase.extra["lateness_s"] = list(self.lateness_s)
        phase.extra["stats"] = self.server.stats()
        return phase

    def verify(self, phase: Phase) -> int:
        return _mismatches(phase.outputs, _reference_outputs(self.seed, self.images))


class HttpClosed(Workload):
    name = "http-closed"
    concurrency = 2
    images_per_post = 8
    pool = 64
    ready_timeout_s = 60.0

    def __init__(self, seed: int, traced: bool = False) -> None:
        super().__init__(seed, traced)
        self.config = default_sweep_chip()
        self.images = _images(seed, self.pool)
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[HTTPInferenceClient] = None

    def _command(self) -> List[str]:
        return [
            sys.executable, "-m", "repro",
            "serve", "--http", "0", "--trace-sample", "0",
            "--rows", str(self.config.rows), "--columns", str(self.config.columns),
            "--executor", "serial", "--max-batch", "8", "--max-wait-ms", "2",
            "--weight-seed", str(self.seed),
        ]

    def setup(self) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            self._command(), cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        urls: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(self.process.stdout, urls), daemon=True
        )
        self._reader.start()
        try:
            url = urls.get(timeout=self.ready_timeout_s)
        except queue.Empty:
            url = ""
        if not url:
            self.close()
            raise RuntimeError("the HTTP server exited or never reported its URL")
        self.client = HTTPInferenceClient(
            url, encoding="npy_b64", max_connections=self.concurrency, max_retries=0
        )

    def _drain(self, stream, urls) -> None:
        for line in stream:
            match = re.search(r" at (http://\S+)$", line.strip())
            if match and line.startswith("serving "):
                urls.put(match.group(1))
        urls.put("")  # the server exited; unblock a setup still waiting

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._reader.join(timeout=10)
            self.process.stdout.close()
            self.process = None

    def run(self, seconds: float, recorder=None) -> Phase:
        results: List[Phase] = [Phase() for _ in range(self.concurrency)]
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(slot: int) -> None:
            phase = results[slot]
            rng = np.random.default_rng([self.seed, slot])
            while not phase.latencies_s or time.perf_counter() < deadline:
                indices = rng.integers(0, self.pool, self.images_per_post)
                began = time.perf_counter()
                try:
                    rows = self.client.infer_batch(self.images[indices])
                except Exception:
                    phase.error()
                    if time.perf_counter() >= deadline:
                        return
                    continue
                phase.record(time.perf_counter() - began, len(indices))
                phase.outputs.append((indices, rows))

        threads = [
            threading.Thread(target=client_loop, args=(slot,), name=f"perfbench-client-{slot}")
            for slot in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase()
        for part in results:
            phase.merge(part)
        phase.extra["server_latency_p50_s"] = self.client.stats()["telemetry"]["latency_p50_s"]
        return phase

    def verify(self, phase: Phase) -> int:
        return _mismatches(phase.outputs, _reference_outputs(self.seed, self.images))


def batch_sweep(seed: int, sizes=(1, 8, 32), rounds: int = 4) -> Dict[str, float]:
    """Warm ``run_batch`` host ms per image at each batch size on the 128×128 chip.

    The sizes take turns for ``rounds`` rounds and each reports its best
    round, so a slow spell of the host cannot favour one size.
    """
    network = build_lenet5()
    weights = generate_random_weights(network, seed=seed, scale=WEIGHT_SCALE)
    engine = FunctionalInferenceEngine(network, weights, optimal_chip())
    images = _images(seed, max(sizes))
    engine.run_batch(images)  # programs the tiles and warms every buffer size
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(rounds):
        for size in sizes:
            began = time.perf_counter()
            engine.run_batch(images[:size])
            best[size] = min(best[size], time.perf_counter() - began)
    return {f"inference.ms_per_img.b{size}": best[size] * 1e3 / size for size in sizes}


WORKLOADS = {cls.name: cls for cls in (LenetOffline, LenetReprogram, ServeOpen, HttpClosed)}
