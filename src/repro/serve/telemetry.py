"""SLO telemetry for the serving subsystem.

:class:`ServeTelemetry` is a thread-safe sink the server (and the load
generator, for client-side numbers) records into:

* per-request **latency** samples (enqueue → response delivery), summarised
  as p50/p95/p99/mean/max.  Samples live in a bounded
  :class:`LatencyReservoir` (Algorithm R): exact percentiles below the bound,
  an unbiased uniform sample above it, and exact streaming count/mean/max
  always — so a week-long serve does not grow memory without bound;
* **throughput** — completed requests over the observation window, measured
  *first admission → last delivery* only (rejections and sheds do not
  stretch the window, so an idle tail after the last response
  cannot deflate the reported rate);
* **per-stage breakdown** — time per pipeline stage
  (:data:`repro.obs.STAGES`), fed from request traces via
  :meth:`ServeTelemetry.record_stages`; ``snapshot()["stage_breakdown"]``
  answers "where does p99 go" stage by stage, and the stage totals sum to
  the end-to-end latency because the spans tile the request exactly;
* **queue depth** — sampled at every admission, reported as mean/max;
* **batch-size histogram** — how large the dynamically formed micro-batches
  actually were, the knob the paper's Fig. 7 batch analysis turns;
* **flush reasons and sizes** — why each micro-batch left the queue
  (``full`` / ``deadline`` / ``close``) and how big it was when it did
  (per-reason batch/request counts and mean/max sizes), which is how you see
  whether a flush policy is building batches or timing out.

All durations are seconds; the CLI formats milliseconds.  Percentiles use
the same linear interpolation as ``numpy.percentile``, so telemetry numbers
are directly comparable with offline analyses of recorded latency traces.
:meth:`ServeTelemetry.register_metrics` exports everything into a
:class:`repro.obs.MetricsRegistry` for the ``/metrics`` endpoint.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.concurrency import make_lock, thread_shared
from repro.errors import SimulationError

#: Latency percentiles reported by :meth:`ServeTelemetry.snapshot`.
LATENCY_PERCENTILES = (50, 95, 99)

#: Default bound on retained end-to-end latency samples.
DEFAULT_LATENCY_RESERVOIR = 8192

#: Bound on retained samples per pipeline stage.
STAGE_RESERVOIR = 2048


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/mean/max summary (seconds) of a latency sample list.

    An empty sample yields zeros rather than NaNs so reports stay printable
    for zero-request runs.
    """
    if len(latencies_s) == 0:
        return {
            **{f"latency_p{q}_s": 0.0 for q in LATENCY_PERCENTILES},
            "latency_mean_s": 0.0,
            "latency_max_s": 0.0,
        }
    values = np.asarray(latencies_s, dtype=float)
    summary = {
        f"latency_p{q}_s": float(np.percentile(values, q)) for q in LATENCY_PERCENTILES
    }
    summary["latency_mean_s"] = float(values.mean())
    summary["latency_max_s"] = float(values.max())
    return summary


class LatencyReservoir:
    """Bounded uniform sample of a duration stream (Vitter's Algorithm R).

    Below ``capacity`` the sample is the full stream, so percentiles are
    exact; above it each of the ``n`` observations is retained with equal
    probability ``capacity / n`` (seeded RNG, so runs are reproducible).
    Count, sum, mean and max are streamed exactly regardless of capacity.

    Not self-locking — the owning :class:`ServeTelemetry` serializes access
    under its own lock.
    """

    def __init__(self, capacity: int = DEFAULT_LATENCY_RESERVOIR, seed: int = 0) -> None:
        if capacity < 1:
            raise SimulationError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rng = random.Random(seed)
        self._values: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def add(self, value: float) -> None:
        number = float(value)
        self._count += 1
        self._sum += number
        if number > self._max:
            self._max = number
        if len(self._values) < self.capacity:
            self._values.append(number)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.capacity:
                self._values[slot] = number

    @property
    def count(self) -> int:
        """Exact number of observations (not capped by capacity)."""
        return self._count

    @property
    def total(self) -> float:
        """Exact sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def saturated(self) -> bool:
        """Whether percentiles are now estimates (stream outgrew capacity)."""
        return self._count > self.capacity

    def values(self) -> List[float]:
        """The retained sample (the full stream while unsaturated)."""
        return list(self._values)

    def summary(self) -> Dict[str, float]:
        """:func:`latency_summary` of the sample, with exact mean/max."""
        summary = latency_summary(self._values)
        summary["latency_mean_s"] = self.mean
        summary["latency_max_s"] = self._max
        return summary


@thread_shared
class ServeTelemetry:
    """Thread-safe SLO metrics sink for one serving session."""

    def __init__(
        self,
        clock=time.perf_counter,
        reservoir_capacity: int = DEFAULT_LATENCY_RESERVOIR,
        seed: int = 0,
    ) -> None:
        self._clock = clock
        self._lock = make_lock("ServeTelemetry._lock")
        self._latencies = LatencyReservoir(capacity=reservoir_capacity, seed=seed)
        self._stage_stats: Dict[str, LatencyReservoir] = {}
        self._batch_sizes: Counter = Counter()
        self._flush_reasons: Counter = Counter()
        self._flush_requests: Counter = Counter()
        self._flush_max_size: Counter = Counter()
        self._service_time_s = 0.0
        self._queue_depth_sum = 0
        self._queue_depth_samples = 0
        self._queue_depth_max = 0
        self._admitted = 0
        self._rejected = 0
        self._shed = 0
        self._requests_failed = 0
        self._batches_failed = 0
        # Throughput window endpoints: first admission and last delivery.
        # Nothing else moves them — a rejection burst must not stretch the
        # window and dilute throughput_rps.
        self._first_admission_ts: Optional[float] = None
        self._last_delivery_ts: Optional[float] = None

    # ------------------------------------------------------------------ record
    def record_admission(self, queue_depth: int) -> None:
        """One request entered the queue; ``queue_depth`` includes it."""
        with self._lock:
            if self._first_admission_ts is None:
                self._first_admission_ts = self._clock()
            self._admitted += 1
            self._queue_depth_sum += int(queue_depth)
            self._queue_depth_samples += 1
            self._queue_depth_max = max(self._queue_depth_max, int(queue_depth))

    def record_rejection(self) -> None:
        """One request was refused admission (queue overflow)."""
        with self._lock:
            self._rejected += 1

    def record_shed(self) -> None:
        """One request was shed by the circuit breaker (no queue contact)."""
        with self._lock:
            self._shed += 1

    def record_batch_failure(self, size: int) -> None:
        """One micro-batch of ``size`` requests failed permanently.

        The requests' futures resolve with the error; they are counted here
        (not in the latency samples) so ``requests_failed`` +
        ``requests_completed`` accounts for every delivered outcome.
        """
        with self._lock:
            self._batches_failed += 1
            self._requests_failed += int(size)

    def record_flush(self, reason: str, size: int) -> None:
        """One micro-batch of ``size`` requests flushed because of ``reason``."""
        key = str(reason)
        with self._lock:
            self._flush_reasons[key] += 1
            self._flush_requests[key] += int(size)
            self._flush_max_size[key] = max(self._flush_max_size[key], int(size))

    def record_batch(self, size: int, service_time_s: float) -> None:
        """One micro-batch of ``size`` requests finished executing."""
        with self._lock:
            self._batch_sizes[int(size)] += 1
            self._service_time_s += float(service_time_s)

    def record_response(self, latency_s: float) -> None:
        """One request was delivered ``latency_s`` after admission."""
        with self._lock:
            self._last_delivery_ts = self._clock()
            self._latencies.add(float(latency_s))

    def record_stages(self, stages_s: Mapping[str, float]) -> None:
        """Per-stage durations of one delivered request (from its trace).

        ``stages_s`` maps stage names (:data:`repro.obs.STAGES`, plus
        ``"e2e"``) to seconds, as produced by
        :meth:`repro.obs.RequestTrace.stage_durations`.
        """
        with self._lock:
            for name, value in stages_s.items():
                reservoir = self._stage_stats.get(name)
                if reservoir is None:
                    reservoir = LatencyReservoir(capacity=STAGE_RESERVOIR)
                    self._stage_stats[name] = reservoir
                reservoir.add(float(value))

    # ------------------------------------------------------------------ report
    def snapshot(self) -> Dict[str, object]:
        """Aggregate SLO metrics of everything recorded so far."""
        with self._lock:
            completed = self._latencies.count
            latency = self._latencies.summary()
            latency_samples = self._latencies.count if not self._latencies.saturated else len(
                self._latencies.values()
            )
            latency_saturated = self._latencies.saturated
            stage_breakdown = {
                name: {
                    "count": reservoir.count,
                    "total_s": reservoir.total,
                    "mean_s": reservoir.mean,
                    "max_s": reservoir.max,
                    **{
                        f"p{q}_s": percentile
                        for q, percentile in zip(
                            LATENCY_PERCENTILES,
                            _percentiles(reservoir.values()),
                        )
                    },
                }
                for name, reservoir in sorted(self._stage_stats.items())
            }
            batch_sizes = dict(sorted(self._batch_sizes.items()))
            flush_reasons = dict(sorted(self._flush_reasons.items()))
            flush_sizes = {
                reason: {
                    "batches": count,
                    "requests": self._flush_requests[reason],
                    "mean_size": self._flush_requests[reason] / count if count else 0.0,
                    "max_size": self._flush_max_size[reason],
                }
                for reason, count in flush_reasons.items()
            }
            service_time_s = self._service_time_s
            admitted = self._admitted
            rejected = self._rejected
            shed = self._shed
            requests_failed = self._requests_failed
            batches_failed = self._batches_failed
            depth_sum = self._queue_depth_sum
            depth_samples = self._queue_depth_samples
            depth_max = self._queue_depth_max
            first_ts = self._first_admission_ts
            last_ts = self._last_delivery_ts

        window_s = (last_ts - first_ts) if (first_ts is not None and last_ts is not None) else 0.0
        num_batches = sum(batch_sizes.values())
        batched_requests = sum(size * count for size, count in batch_sizes.items())
        snapshot: Dict[str, object] = {
            "requests_admitted": admitted,
            "requests_rejected": rejected,
            "requests_shed": shed,
            "requests_completed": completed,
            "requests_failed": requests_failed,
            "batches_failed": batches_failed,
            "window_s": window_s,
            "throughput_rps": completed / window_s if window_s > 0 else 0.0,
            "batches": num_batches,
            "batch_size_histogram": batch_sizes,
            "flush_reasons": flush_reasons,
            "flush_sizes": flush_sizes,
            "mean_batch_size": batched_requests / num_batches if num_batches else 0.0,
            "service_time_s": service_time_s,
            "queue_depth_mean": depth_sum / depth_samples if depth_samples else 0.0,
            "queue_depth_max": depth_max,
            "latency_samples": latency_samples,
            "latency_sample_saturated": latency_saturated,
            "stage_breakdown": stage_breakdown,
        }
        snapshot.update(latency)
        return snapshot

    def register_metrics(self, registry, labels: Optional[Dict[str, str]] = None) -> None:
        """Export this sink into a :class:`repro.obs.MetricsRegistry`.

        Registers a scrape-time collector over :meth:`snapshot`, so the
        counters stay single-sourced here and ``/metrics`` always reflects
        the numbers ``GET /v1/stats`` reports.
        """
        base = dict(labels or {})

        def _collect():
            snap = self.snapshot()
            families = [
                {
                    "name": "repro_serve_requests_total",
                    "type": "counter",
                    "help": "Requests by outcome (admitted/rejected/shed/completed/failed).",
                    "samples": [
                        ({**base, "outcome": outcome}, float(snap[f"requests_{outcome}"]))
                        for outcome in ("admitted", "rejected", "shed", "completed", "failed")
                    ],
                },
                {
                    "name": "repro_serve_batches_total",
                    "type": "counter",
                    "help": "Micro-batches executed.",
                    "samples": [(base, float(snap["batches"]))],
                },
                {
                    "name": "repro_serve_batches_failed_total",
                    "type": "counter",
                    "help": "Micro-batches that failed permanently.",
                    "samples": [(base, float(snap["batches_failed"]))],
                },
                {
                    "name": "repro_serve_throughput_rps",
                    "type": "gauge",
                    "help": "Completed requests per second, first admission to last delivery.",
                    "samples": [(base, float(snap["throughput_rps"]))],
                },
                {
                    "name": "repro_serve_queue_depth_max",
                    "type": "gauge",
                    "help": "Maximum admission-queue depth observed.",
                    "samples": [(base, float(snap["queue_depth_max"]))],
                },
                {
                    "name": "repro_serve_mean_batch_size",
                    "type": "gauge",
                    "help": "Mean executed micro-batch size.",
                    "samples": [(base, float(snap["mean_batch_size"]))],
                },
                {
                    "name": "repro_serve_latency_seconds",
                    "type": "gauge",
                    "help": "End-to-end latency quantiles (seconds).",
                    "samples": [
                        (
                            {**base, "quantile": str(q / 100)},
                            float(snap[f"latency_p{q}_s"]),
                        )
                        for q in LATENCY_PERCENTILES
                    ],
                },
            ]
            if snap["flush_reasons"]:
                families.append(
                    {
                        "name": "repro_serve_flushes_total",
                        "type": "counter",
                        "help": "Micro-batch flushes by reason.",
                        "samples": [
                            ({**base, "reason": reason}, float(count))
                            for reason, count in snap["flush_reasons"].items()
                        ],
                    }
                )
            breakdown = snap["stage_breakdown"]
            if breakdown:
                families.append(
                    {
                        "name": "repro_serve_stage_seconds_total",
                        "type": "counter",
                        "help": "Cumulative time per pipeline stage (seconds).",
                        "samples": [
                            ({**base, "stage": stage}, float(stats["total_s"]))
                            for stage, stats in breakdown.items()
                        ],
                    }
                )
                families.append(
                    {
                        "name": "repro_serve_stage_p99_seconds",
                        "type": "gauge",
                        "help": "p99 time per pipeline stage (seconds).",
                        "samples": [
                            ({**base, "stage": stage}, float(stats["p99_s"]))
                            for stage, stats in breakdown.items()
                        ],
                    }
                )
            return families

        registry.register_collector(_collect)


def _percentiles(values: Sequence[float]) -> List[float]:
    """:data:`LATENCY_PERCENTILES` of ``values`` (zeros when empty)."""
    if not values:
        return [0.0 for _ in LATENCY_PERCENTILES]
    array = np.asarray(values, dtype=float)
    return [float(np.percentile(array, q)) for q in LATENCY_PERCENTILES]


@thread_shared
class FrontendTelemetry:
    """Thread-safe counters for one HTTP front-end (connections and routes).

    The serving telemetry above describes the *engine* side of a request
    (admission, batching, delivery); this sink describes the *wire* side —
    how many sockets are open, how many requests each route answered with
    which status class, and how much of the traffic used the streaming /
    SSE surfaces.  The async front-end records into one of these and
    exports it via :meth:`register_metrics`; the connection gauge is what
    distinguishes "one thread per client" saturation from event-loop
    multiplexing on a dashboard.
    """

    def __init__(self) -> None:
        self._lock = make_lock("FrontendTelemetry._lock")
        self._connections_opened = 0
        self._connections_active = 0
        self._requests: Counter = Counter()  # (route, status) -> count
        self._streams_started = 0
        self._stream_items = 0
        self._sse_streams = 0
        self._sse_events = 0

    def connection_opened(self) -> None:
        with self._lock:
            self._connections_opened += 1
            self._connections_active += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._connections_active -= 1

    def record_request(self, route: str, status: int) -> None:
        """One answered request: ``route`` is the route template, not the URL."""
        with self._lock:
            self._requests[(str(route), int(status))] += 1

    def record_stream(self, items: int) -> None:
        """One finished NDJSON streaming response that delivered ``items``."""
        with self._lock:
            self._streams_started += 1
            self._stream_items += int(items)

    def record_sse(self, events: int) -> None:
        """One finished SSE subscription that emitted ``events`` events."""
        with self._lock:
            self._sse_streams += 1
            self._sse_events += int(events)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "connections_opened": self._connections_opened,
                "connections_active": self._connections_active,
                "requests": {
                    f"{route} {status}": count
                    for (route, status), count in sorted(self._requests.items())
                },
                "streams_started": self._streams_started,
                "stream_items": self._stream_items,
                "sse_streams": self._sse_streams,
                "sse_events": self._sse_events,
            }

    def register_metrics(self, registry, labels: Optional[Dict[str, str]] = None) -> None:
        """Export into a :class:`repro.obs.MetricsRegistry` (scrape-time)."""
        base = dict(labels or {})

        def _collect():
            with self._lock:
                requests = dict(self._requests)
                opened = self._connections_opened
                active = self._connections_active
                streams = self._streams_started
                stream_items = self._stream_items
                sse_streams = self._sse_streams
                sse_events = self._sse_events
            families = [
                {
                    "name": "repro_http_connections_opened_total",
                    "type": "counter",
                    "help": "TCP connections accepted by the HTTP front-end.",
                    "samples": [(base, float(opened))],
                },
                {
                    "name": "repro_http_connections_active",
                    "type": "gauge",
                    "help": "Currently open HTTP connections.",
                    "samples": [(base, float(active))],
                },
                {
                    "name": "repro_http_streamed_items_total",
                    "type": "counter",
                    "help": "Per-item results delivered over NDJSON streaming responses.",
                    "samples": [(base, float(stream_items))],
                },
                {
                    "name": "repro_http_streams_total",
                    "type": "counter",
                    "help": "Streaming (NDJSON) inference responses served.",
                    "samples": [(base, float(streams))],
                },
                {
                    "name": "repro_http_sse_streams_total",
                    "type": "counter",
                    "help": "Server-sent-event progress subscriptions served.",
                    "samples": [(base, float(sse_streams))],
                },
                {
                    "name": "repro_http_sse_events_total",
                    "type": "counter",
                    "help": "Server-sent events emitted.",
                    "samples": [(base, float(sse_events))],
                },
            ]
            if requests:
                families.append(
                    {
                        "name": "repro_http_requests_total",
                        "type": "counter",
                        "help": "HTTP requests answered, by route template and status.",
                        "samples": [
                            (
                                {**base, "route": route, "status": str(status)},
                                float(count),
                            )
                            for (route, status), count in sorted(requests.items())
                        ],
                    }
                )
            return families

        registry.register_collector(_collect)
