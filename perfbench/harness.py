"""Statistics, arrival schedules, output checks and the host-speed reference.

Everything here except :class:`HostSpeed` is pure and deterministic so
``test_perfbench.py`` can pin it down without running a workload.
"""

from __future__ import annotations

import re
import statistics
import time
from typing import Iterable, List, Optional, Sequence

import numpy as np

#: Metric names the result line may carry.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Seconds one reference kernel takes on the reference host (a quiet 2-vCPU
#: Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).  Reported times
#: are in seconds of a host running the kernel at this speed.
REFERENCE_KERNEL_S = 2.0e-3


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly interpolated."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """``percentile(values, q)``, or ``None`` when too few samples lie beyond it."""
    if len(values) * (100.0 - q) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


class HostSpeed:
    """Times a fixed kernel that shares no code with the program under test.

    Other tenants of a shared host slow it by up to 1.6x, in bursts of one
    to twenty seconds and in drifts over minutes.  The workloads call
    :meth:`sample` between operations, while the program is idle, and
    divide each timing by the speed factor sampled next to it (raised to
    the workload's sensitivity), so a slow spell of the host cancels while
    a slower program does not.  The kernel
    mixes a GEMM, small-array numpy calls and allocation-heavy interpreter
    work, as the workloads mix BLAS, per-tile numpy and Python time.
    """

    def __init__(self, repeats: int = 5) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((1024, 128))
        self._b = rng.standard_normal((128, 128))
        self._out = np.empty((1024, 128))
        self.repeats = repeats
        self._kernel()  # first call pays for page faults

    def _kernel(self) -> int:
        np.matmul(self._a, self._b, out=self._out)
        np.clip(self._out, -1.0, 1.0, out=self._out)
        row = self._out[0, :8].copy()
        for index in range(500):  # small-array calls, as in per-tile code
            row = np.maximum(row * 0.5, self._out[index, :8])
        objects = {}
        for index in range(4000):  # allocation-heavy interpreter work
            objects[index] = (index, [index])
        return len(objects) + int(row.argmax())

    def sample(self) -> float:
        """The host's slowness now: median kernel time over :data:`REFERENCE_KERNEL_S`."""
        times = []
        for _ in range(self.repeats):
            began = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - began)
        return statistics.median(times) / REFERENCE_KERNEL_S


def window_factors(samples: Sequence[float], windows: int) -> List[float]:
    """Speed factor of each of ``windows`` windows bracketed by ``samples``.

    ``samples[w]`` was taken just before window ``w`` and ``samples[w + 1]``
    just after it; a window's factor is their mean.
    """
    if len(samples) != windows + 1:
        raise ValueError(f"{windows} windows need {windows + 1} samples, got {len(samples)}")
    return [(samples[w] + samples[w + 1]) / 2.0 for w in range(windows)]


def normalized_figures(phase, concurrency: int = 1, exponent: float = 1.0) -> dict:
    """Whole-phase throughput and p50, each operation's time over its window's factor.

    The factor is raised to ``exponent``, the workload's measured
    sensitivity to the host (0 gives the figures as measured).  A closed loop of ``concurrency`` clients completes ``concurrency``
    operations per operation latency (Little's law), so its throughput is
    images over summed normalized latency.  An open loop (``concurrency=0``)
    runs at its offered rate; its throughput is images over the seconds its
    arrivals were open, untouched by the factors.
    """
    factors = [factor**exponent for factor in window_factors(phase.speed, len(phase.speed) - 1)]
    latencies = [
        latency / factors[window] for latency, window in zip(phase.latencies_s, phase.windows)
    ]
    if concurrency:
        throughput = concurrency * phase.images / sum(latencies)
    else:
        throughput = phase.images / phase.open_s
    return {
        "throughput_img_per_s": throughput,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
    }


def poisson_schedule(rate_per_s: float, seconds: float, seed: int) -> np.ndarray:
    """Sorted due times (s from start) of a Poisson process over ``seconds``.

    The process is conditioned on its count: ``round(rate * seconds)``
    arrivals placed uniformly at random in ``[0, seconds)``.  Gaps stay
    exponential, but every run offers the same number of requests over the
    same span, so throughput does not swing with the seed.
    """
    if rate_per_s <= 0 or seconds <= 0:
        raise ValueError("rate and duration must be positive")
    count = max(1, int(round(rate_per_s * seconds)))
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, seconds, size=count))


def bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> bool:
    """True when both arrays have the same dtype, shape and bytes."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()
    )


def check_metric_names(names: Iterable[str]) -> None:
    """Raise ``ValueError`` for a name the result line may not carry."""
    bad = [name for name in names if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
