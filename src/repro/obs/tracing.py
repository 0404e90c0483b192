"""Per-request tracing for the serving pipeline.

One :class:`RequestTrace` is born per admitted request and follows it through
the whole pipeline; each pipeline stage records one :class:`Span`.  The span
taxonomy tiles the request's lifetime exactly — every stage's end timestamp
is the next stage's start — so the per-stage durations sum to the end-to-end
latency with no unaccounted gaps::

    admit → queue_wait → batch_assemble → dispatch → replica_execute
                                                        │ (children:
                                                        │  replica_run,
                                                        │  attempt/restart)
                                          reorder ◀─────┘
                                             └─▶ deliver

All timestamps come from a monotonic clock (``time.monotonic`` by default),
shared with the micro-batcher and the dispatch loop, so spans recorded by
different threads are directly comparable.

:class:`Tracer` owns sampling (seeded, deterministic) and a bounded ring of
finished traces; it exports Chrome trace-event JSON loadable in Perfetto or
``chrome://tracing`` (:meth:`Tracer.chrome_trace` / :meth:`Tracer.export_chrome`).

:class:`DispatchTraceRecorder` is the piece that crosses execution
boundaries: the dispatch loop packs one ``(trace_id, parent_span_id)``
context per traced request into it, the worker pool records retry/restart
events into it, and the replica — *including a process replica on the far
side of a pickle boundary* (see :func:`replica_span_records`) — sends back
child span records that splice into each request's trace under its
``replica_execute`` span.  Worker-side records carry times relative to the
worker's own entry, rebased onto the parent's clock at splice time, so
cross-process spans stay on one consistent timeline.
"""

from __future__ import annotations

import json
import random
import time
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.concurrency import make_lock, thread_shared
from repro.errors import SimulationError

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "DispatchTraceRecorder",
    "ROOT_SPAN_NAME",
    "RequestTrace",
    "STAGES",
    "Span",
    "Tracer",
    "replica_span_records",
]

#: Pipeline stages, in order.  Stage spans tile the request lifetime exactly;
#: everything else (``replica_run``, ``attempt``, ``restart``) nests *under*
#: ``replica_execute`` and is excluded from the stage breakdown to avoid
#: double counting.
STAGES = (
    "admit",
    "queue_wait",
    "batch_assemble",
    "dispatch",
    "replica_execute",
    "reorder",
    "deliver",
)

#: Name of every trace's root span (the whole request).
ROOT_SPAN_NAME = "request"

#: Finished traces kept in the tracer's ring before the oldest are dropped.
DEFAULT_TRACE_CAPACITY = 1024

#: Span id of every trace's root span.
ROOT_SPAN_ID = "s0"


class Span:
    """One named, closed time interval inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s", "end_s", "meta")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start_s: float,
        end_s: float,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = float(start_s)
        self.end_s = float(end_s)
        self.meta = dict(meta or {})

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "meta": dict(self.meta),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.span_id}, parent={self.parent_id}, "
            f"{self.duration_s * 1e3:.3f} ms)"
        )


@thread_shared
class RequestTrace:
    """One request's spans, from admission to delivery.

    Pipeline stages hand the trace object from thread to thread (submit →
    dispatch loop → pool thread → delivery callback) with a happens-before
    edge at every handoff, but span recording still takes the trace's own
    lock so late writers (a worker record splicing in while a reader
    snapshots) stay safe.
    """

    def __init__(
        self,
        trace_id: str,
        name: str = ROOT_SPAN_NAME,
        start_s: float = 0.0,
        tracer: Optional["Tracer"] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = str(trace_id)
        self.name = str(name)
        self.start_s = float(start_s)
        self._tracer = tracer
        self._lock = make_lock("RequestTrace._lock")
        self._spans: List[Span] = []
        self._next_span = 1
        self._end_s: Optional[float] = None
        self._meta: Dict[str, object] = dict(meta or {})

    # ------------------------------------------------------------------ recording
    def _reserve_span_id_locked(self) -> str:
        span_id = f"s{self._next_span}"
        self._next_span += 1
        return span_id

    def reserve_span_id(self) -> str:
        """Allocate a span id now, to be recorded (or propagated) later.

        This is how the dispatch loop names each request's ``replica_execute``
        span *before* the batch leaves for the replica, so the worker on the
        far side can parent its own spans onto it.
        """
        with self._lock:
            return self._reserve_span_id_locked()

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[str] = ROOT_SPAN_ID,
        span_id: Optional[str] = None,
        **meta: object,
    ) -> Span:
        """Record one closed span; returns it.

        ``span_id=None`` allocates the next id; passing a previously
        :meth:`reserve_span_id`-reserved id closes that span.  ``parent_id``
        defaults to the root span.
        """
        with self._lock:
            if span_id is None:
                span_id = self._reserve_span_id_locked()
            span = Span(self.trace_id, span_id, parent_id, name, start_s, end_s, meta)
            self._spans.append(span)
            return span

    def finish(self, end_s: Optional[float] = None, **meta: object) -> None:
        """Close the root span and hand the trace to the tracer's ring.

        Idempotent: a second finish only merges ``meta``.  ``end_s=None``
        stamps the tracer's clock (or the last span's end without a tracer).
        """
        tracer = self._tracer
        with self._lock:
            if meta:
                self._meta.update(meta)
            if self._end_s is not None:
                return
            if end_s is None:
                if tracer is not None:
                    end_s = tracer.now()
                else:
                    end_s = max((s.end_s for s in self._spans), default=self.start_s)
            self._end_s = float(end_s)
        if tracer is not None:
            tracer._store(self)

    # ------------------------------------------------------------------ reading
    @property
    def finished(self) -> bool:
        with self._lock:
            return self._end_s is not None

    @property
    def end_s(self) -> Optional[float]:
        with self._lock:
            return self._end_s

    def spans(self) -> List[Span]:
        """Every recorded span, root first, in recording order."""
        with self._lock:
            end = self._end_s
            if end is None:
                end = max((s.end_s for s in self._spans), default=self.start_s)
            root = Span(
                self.trace_id, ROOT_SPAN_ID, None, self.name, self.start_s, end, self._meta
            )
            return [root] + list(self._spans)

    def stage_durations(self) -> Dict[str, float]:
        """Seconds spent per pipeline stage, plus ``"e2e"`` when finished.

        Only :data:`STAGES` spans count (children like ``replica_run`` nest
        inside ``replica_execute`` and would double-count).
        """
        durations: Dict[str, float] = {}
        with self._lock:
            for span in self._spans:
                if span.name in STAGES:
                    durations[span.name] = durations.get(span.name, 0.0) + span.duration_s
            if self._end_s is not None:
                durations["e2e"] = max(self._end_s - self.start_s, 0.0)
        return durations

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (the ``GET /v1/trace/{id}`` body)."""
        spans = self.spans()
        root = spans[0]
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": root.end_s,
            "duration_s": root.duration_s,
            "finished": self.finished,
            "meta": dict(root.meta),
            "stage_durations_s": self.stage_durations(),
            "spans": [span.as_dict() for span in spans],
        }


@thread_shared
class Tracer:
    """Samples, names and retains request traces.

    Parameters
    ----------
    capacity:
        Finished traces kept in the in-memory ring (oldest dropped first).
    sample_rate:
        Fraction of requests traced, in ``[0, 1]``.  ``1.0`` (the default)
        traces everything and never consults the RNG; the sampling decision
        is drawn from a seeded RNG so a given request stream reproduces the
        same sample.
    clock:
        Monotonic timestamp source shared by every span.
    seed:
        Seed for the sampling RNG and the trace-id prefix.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        sample_rate: float = 1.0,
        clock=time.monotonic,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"trace capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample_rate <= 1.0:
            raise SimulationError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self._clock = clock
        self._lock = make_lock("Tracer._lock")
        self._rng = random.Random(seed)
        self._prefix = f"{self._rng.getrandbits(32):08x}"
        self._started = 0
        self._sampled_out = 0
        self._dropped = 0
        self._finished: "OrderedDict[str, RequestTrace]" = OrderedDict()

    def now(self) -> float:
        """A timestamp on the tracer's clock (for caller-recorded spans)."""
        return self._clock()

    # ------------------------------------------------------------------ lifecycle
    def start_trace(self, name: str = ROOT_SPAN_NAME, **meta: object) -> Optional[RequestTrace]:
        """Begin one trace, or ``None`` when sampling skips this request."""
        with self._lock:
            self._started += 1
            sequence = self._started
            if self.sample_rate < 1.0:
                if self.sample_rate <= 0.0 or self._rng.random() >= self.sample_rate:
                    self._sampled_out += 1
                    return None
            trace_id = f"{self._prefix}-{sequence:06d}"
        return RequestTrace(
            trace_id, name=name, start_s=self._clock(), tracer=self, meta=meta
        )

    def _store(self, trace: RequestTrace) -> None:
        """Ring insertion, called by :meth:`RequestTrace.finish`."""
        with self._lock:
            self._finished[trace.trace_id] = trace
            while len(self._finished) > self.capacity:
                self._finished.popitem(last=False)
                self._dropped += 1

    # ------------------------------------------------------------------ reading
    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        """One finished trace as a JSON-friendly dict, or ``None``."""
        with self._lock:
            trace = self._finished.get(trace_id)
        return None if trace is None else trace.as_dict()

    def trace_ids(self) -> List[str]:
        """Ids of retained finished traces, oldest first."""
        with self._lock:
            return list(self._finished)

    def traces(self) -> List[RequestTrace]:
        """Retained finished traces, oldest first."""
        with self._lock:
            return list(self._finished.values())

    def snapshot(self) -> Dict[str, object]:
        """Tracer bookkeeping for the stats endpoint."""
        with self._lock:
            return {
                "started": self._started,
                "sampled_out": self._sampled_out,
                "finished": len(self._finished),
                "dropped": self._dropped,
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
            }

    # ------------------------------------------------------------------ export
    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (Perfetto / ``chrome://tracing`` loadable).

        Every span becomes one complete ("X") event; each trace gets its own
        ``tid`` row named after the trace id, so Perfetto renders one lane
        per request with the stage spans tiled across it.
        """
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-serve"},
            }
        ]
        for tid, trace in enumerate(self.traces(), start=1):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": trace.trace_id},
                }
            )
            for span in trace.spans():
                events.append(
                    {
                        "name": span.name,
                        "cat": "serve",
                        "ph": "X",
                        "ts": span.start_s * 1e6,
                        "dur": span.duration_s * 1e6,
                        "pid": 1,
                        "tid": tid,
                        "args": {
                            "trace_id": span.trace_id,
                            "span_id": span.span_id,
                            "parent_id": span.parent_id,
                            **span.meta,
                        },
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the trace count."""
        payload = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(self.trace_ids())


# ---------------------------------------------------------------------------
# boundary crossing
# ---------------------------------------------------------------------------


def replica_span_records(
    contexts: Sequence[Tuple[str, str]],
    pid: int,
    token: int,
    rel_start_s: float,
    rel_end_s: float,
    name: str = "replica_run",
    **meta: object,
) -> List[Dict[str, object]]:
    """Child-span records a replica reports back to the dispatching parent.

    ``contexts`` is the dispatch payload's ``(trace_id, parent_span_id)``
    list — one per traced request in the batch.  Times are *relative to the
    replica's own entry* (a worker process's monotonic clock shares no epoch
    with the parent's); the parent rebases them when splicing
    (:meth:`DispatchTraceRecorder.add_replica_records`).  ``token`` is a
    per-process uniquifier so retried attempts do not collide on span ids.
    The records are plain dicts of scalars, so they pickle across the
    process boundary unchanged.
    """
    return [
        {
            "trace_id": str(trace_id),
            "parent_id": str(parent_id),
            "span_id": f"p{int(pid)}.{int(token)}.{index}",
            "name": str(name),
            "rel_start_s": float(rel_start_s),
            "rel_end_s": float(rel_end_s),
            "meta": {"pid": int(pid), **meta},
        }
        for index, (trace_id, parent_id) in enumerate(contexts)
    ]


class DispatchTraceRecorder:
    """Span context carrier for one micro-batch dispatch.

    Built by the dispatch loop when a batch contains traced requests and
    threaded through ``EngineWorkerPool.submit`` down to the replica.  Not
    locked: ownership moves dispatch loop → pool thread → completion callback
    with a happens-before edge at each step, and no two threads touch it
    concurrently.

    ``events`` are batch-level (retry/restart) intervals that apply to every
    traced request; ``replica_records`` are fully-addressed child spans the
    replica produced (see :func:`replica_span_records`), already rebased onto
    the parent's clock.
    """

    __slots__ = ("contexts", "events", "replica_records", "replica_start_s")

    def __init__(self, contexts: Sequence[Tuple[str, str]]) -> None:
        self.contexts: List[Tuple[str, str]] = list(contexts)
        self.events: List[Dict[str, object]] = []
        self.replica_records: List[Dict[str, object]] = []
        self.replica_start_s: Optional[float] = None

    def mark_replica_start(self, at_s: float) -> None:
        """Stamp when the first dispatch attempt hands the batch to a replica.

        The ``dispatch`` stage ends and ``replica_execute`` starts at this
        stamp; retries keep the first one.
        """
        if self.replica_start_s is None:
            self.replica_start_s = float(at_s)

    def add_event(self, name: str, start_s: float, end_s: float, **meta: object) -> None:
        """Record one batch-level interval (e.g. a retry attempt)."""
        self.events.append(
            {
                "name": str(name),
                "start_s": float(start_s),
                "end_s": float(end_s),
                "meta": dict(meta),
            }
        )

    def add_replica_records(
        self, records: Iterable[Dict[str, object]], base_s: float
    ) -> None:
        """Splice replica-produced records, rebasing relative times on ``base_s``."""
        for record in records:
            self.replica_records.append(
                {
                    "trace_id": record["trace_id"],
                    "span_id": record["span_id"],
                    "parent_id": record["parent_id"],
                    "name": record["name"],
                    "start_s": base_s + float(record["rel_start_s"]),
                    "end_s": base_s + float(record["rel_end_s"]),
                    "meta": dict(record.get("meta") or {}),
                }
            )
