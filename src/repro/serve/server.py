"""The online inference server.

:class:`InferenceServer` glues the serving pipeline together, once per
hosted model::

    submit(image, model=...) ─▶ router ─▶ MicroBatcher ─▶ dispatch ─▶ EngineWorkerPool
         ▲                    (ModelRegistry) (bounded      loop        (serial /
         │                                     queue,      (per model)   thread:N /
      Future ◀──── in-order delivery ◀──────── batch completion          process:N)

A server hosts one or many named models (see
:class:`~repro.serve.registry.ModelRegistry`); every model owns its own
micro-batcher, flush policy, telemetry sink, worker pool and dispatch
thread, so one hot workload cannot head-of-line-block another.  Requests
that do not name a model route to the *default* (first registered) model,
which keeps the single-model constructor API — and its outputs — bitwise
unchanged.

Guarantees
----------
* **In-order delivery**: response futures resolve in submission order *per
  model* even when later micro-batches finish first on a parallel executor
  (a re-order buffer holds early completions).  Head-of-line blocking is
  therefore *included* in the reported latency, which is what an SLO cares
  about.
* **Determinism**: with no noise model, served outputs are bitwise identical
  to a direct :meth:`FunctionalInferenceEngine.run_batch` of the same images
  on the same model, regardless of executor kind, batch boundaries,
  completion order or how many other models the server hosts.
* **Backpressure**: each model's admission queue is bounded (blocking or
  fail-fast submits), and at most ``2 × max replicas`` micro-batches are in
  flight per model, so a slow executor pushes delay back into its own queue
  instead of accumulating unbounded in-flight work.
* **Elasticity**: with an :class:`~repro.serve.autoscaler.AutoscalerPolicy`,
  a per-server control loop grows each model's replica pool under sustained
  queue depth and shrinks it back after an idle cooldown, draining replicas
  (in-flight batches complete) before retiring them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.concurrency import make_lock
from repro.config.chip import ChipConfig
from repro.crossbar.noise import CrossbarNoiseModel
from repro.errors import BadRequestError, CircuitOpenError, ServeError
from repro.nn.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowRequestLog
from repro.obs.tracing import DispatchTraceRecorder, Tracer
from repro.serve.autoscaler import Autoscaler, AutoscalerPolicy
from repro.serve.batcher import FlushPolicy, MicroBatcher, ServeRequest
from repro.serve.faults import BREAKER_CLOSED, BREAKER_OPEN, CircuitBreaker
from repro.serve.registry import ModelDefinition, ModelRegistry
from repro.serve.telemetry import ServeTelemetry
from repro.serve.workers import EngineWorkerPool, ExecutorSpec


class _ModelRuntime:
    """Everything one hosted model owns while the server runs."""

    def __init__(
        self,
        definition: ModelDefinition,
        autoscaler_policy: Optional[AutoscalerPolicy],
        on_response: Optional[Callable[[int, np.ndarray], None]],
        tracer: Optional[Tracer] = None,
        slow_log: Optional[SlowRequestLog] = None,
    ) -> None:
        self.definition = definition
        self.name = definition.name
        self.input_shape = definition.input_shape
        self.policy: FlushPolicy = definition.build_policy()
        self.telemetry = ServeTelemetry()
        self.tracer = tracer
        self.slow_log = slow_log
        self.batcher = MicroBatcher(
            capacity=definition.queue_capacity,
            policy=self.policy,
            on_flush=self.telemetry.record_flush,
        )
        self._on_response = on_response
        self.breaker: Optional[CircuitBreaker] = definition.build_breaker()

        # Replica range: per-model bounds override the autoscaler defaults;
        # without an autoscaler the executor's count is simply fixed.
        executor: ExecutorSpec = definition.executor
        if autoscaler_policy is not None:
            self.min_replicas = (
                autoscaler_policy.min_replicas
                if definition.min_replicas is None
                else int(definition.min_replicas)
            )
            self.max_replicas = (
                autoscaler_policy.max_replicas
                if definition.max_replicas is None
                else int(definition.max_replicas)
            )
            self.max_replicas = max(self.max_replicas, self.min_replicas)
        else:
            self.min_replicas = self.max_replicas = executor.resolved_count()

        self.pool: Optional[EngineWorkerPool] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._inflight: Optional[threading.BoundedSemaphore] = None
        self._delivery_lock = make_lock("_ModelRuntime._delivery_lock")
        self._next_delivery_seq = 0
        # seq -> (request, outcome-or-output, completion timestamp); the
        # completion timestamp bounds the request's reorder span.
        self._completed: Dict[int, Tuple[ServeRequest, object, float]] = {}

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        executor: ExecutorSpec = self.definition.executor
        if self.pool is not None:
            raise ServeError(f"model {self.name!r} already started")
        initial = executor.resolved_count()
        if executor.kind != "serial":
            initial = max(self.min_replicas, min(initial, self.max_replicas))
            executor = ExecutorSpec(executor.kind, initial)
        self.pool = EngineWorkerPool(
            self.definition.replica_spec(),
            executor,
            max_count=self.max_replicas,
            dispatch_timeout_s=self.definition.dispatch_timeout_s,
            max_attempts=self.definition.max_attempts,
            backoff_base_s=self.definition.backoff_base_s,
            backoff_max_s=self.definition.backoff_max_s,
            fault_injector=self.definition.build_fault_injector(),
        )
        self._inflight = threading.BoundedSemaphore(2 * self.max_replicas)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"serve-dispatch-{self.name}", daemon=True
        )
        self._dispatcher.start()

    def stop(self, drain: bool = True) -> None:
        """Stop this model: close admission, run down the dispatch loop.

        ``drain=True`` (graceful) finishes every queued request first;
        ``drain=False`` fails the still-queued requests immediately
        (in-flight batches complete either way — replicas are not killed).
        """
        self.batcher.close(drain=drain)
        if self._dispatcher is not None:
            self._dispatcher.join()
        if self.pool is not None:
            self.pool.close()

    # ------------------------------------------------------------------ health
    def health(self) -> str:
        """This model's health level: ``ok`` / ``degraded`` / ``down``.

        ``down`` means the breaker is open (admissions are shed);
        ``degraded`` means recovery is in progress — a replica restart, a
        run of consecutive dispatch failures, or a half-open breaker still
        probing.  Both resolve back to ``ok`` on clean traffic.
        """
        if self.breaker is not None and self.breaker.state == BREAKER_OPEN:
            return "down"
        if self.breaker is not None and self.breaker.state != BREAKER_CLOSED:
            return "degraded"
        if self.pool is not None:
            faults = self.pool.fault_statistics()
            if faults["restarting"] or faults["consecutive_failures"]:
                return "degraded"
        return "ok"

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, object]:
        """This model's SLO telemetry plus pool and scaling state."""
        pool_stats = self.pool.statistics() if self.pool is not None else {}
        return {
            "health": self.health(),
            "breaker": self.breaker.snapshot() if self.breaker is not None else None,
            "model": self.name,
            "network": self.definition.network.name,
            "executor": str(self.definition.executor),
            "max_batch": self.batcher.max_batch,
            "max_wait_s": self.batcher.max_wait_s,
            "queue_capacity": self.batcher.capacity,
            "queue_depth": self.batcher.depth,
            "replicas": self.pool.count if self.pool is not None else 0,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "policy": self.policy.snapshot(),
            "telemetry": self.telemetry.snapshot(),
            "tracer": self.tracer.snapshot() if self.tracer is not None else None,
            "pool": pool_stats,
        }

    def describe(self, default: bool) -> Dict[str, object]:
        """The ``/v1/models`` listing entry for this model."""
        return {
            "name": self.name,
            "network": self.definition.network.name,
            "input_shape": list(self.input_shape),
            "executor": str(self.definition.executor),
            "policy": self.policy.kind,
            "replicas": self.pool.count if self.pool is not None else 0,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "default": bool(default),
        }

    # ------------------------------------------------------------------ dispatch
    def _dispatch_loop(self) -> None:
        assert self.pool is not None and self._inflight is not None
        while True:
            batch = self.batcher.next_batch(poll_timeout_s=0.05)
            if batch is None:
                if self.batcher.closed and self.batcher.depth == 0:
                    return
                continue
            images = np.stack([request.image for request in batch])
            self._inflight.acquire()
            dispatch_ts = time.monotonic()
            # Record the queued stages for every traced request in the batch
            # and reserve each one's replica_execute span id; the id travels
            # to the replica as the parent for its own child spans and is
            # closed in _complete_batch.  The flush timestamp stamped by the
            # batcher splits queue_wait (waiting in line) from batch_assemble
            # (popped but not yet dispatched).
            traced = [request for request in batch if request.trace is not None]
            recorder: Optional[DispatchTraceRecorder] = None
            if traced:
                contexts = []
                for request in traced:
                    trace = request.trace
                    flush_ts = (
                        request.flush_time
                        if request.flush_time is not None
                        else dispatch_ts
                    )
                    trace.add_span(
                        "queue_wait",
                        request.enqueue_time,
                        flush_ts,
                        reason=request.flush_reason,
                    )
                    trace.add_span("batch_assemble", flush_ts, dispatch_ts, batch=len(batch))
                    contexts.append((trace.trace_id, trace.reserve_span_id()))
                recorder = DispatchTraceRecorder(contexts)
            try:
                future = self.pool.submit(images, trace=recorder)
            except BaseException as error:
                self._inflight.release()
                self._complete_batch(batch, error, dispatch_ts, recorder)
                continue
            future.add_done_callback(
                lambda done,
                batch=batch,
                ts=dispatch_ts,
                rec=recorder: self._on_batch_done(batch, ts, rec, done)
            )

    def _on_batch_done(
        self,
        batch: List[ServeRequest],
        dispatch_ts: float,
        recorder: Optional[DispatchTraceRecorder],
        future: Future,
    ) -> None:
        assert self._inflight is not None
        self._inflight.release()
        error = future.exception()
        outcome = error if error is not None else future.result()
        self._complete_batch(batch, outcome, dispatch_ts, recorder)

    def _complete_batch(
        self,
        batch: List[ServeRequest],
        outcome: object,
        dispatch_ts: float,
        recorder: Optional[DispatchTraceRecorder] = None,
    ) -> None:
        now = time.monotonic()
        self.telemetry.record_batch(len(batch), now - dispatch_ts)
        if isinstance(outcome, BaseException):
            self.telemetry.record_batch_failure(len(batch))
            if self.breaker is not None:
                self.breaker.record_failure()
        else:
            if self.breaker is not None:
                self.breaker.record_success()
            # Feed the flush policy so adaptive batching can calibrate its
            # wall-clock service-time scale from real dispatches.
            self.batcher.observe_batch(len(batch), now - dispatch_ts)
        if recorder is not None:
            self._record_execution_spans(batch, outcome, dispatch_ts, now, recorder)
        slow_entries: List[Dict[str, object]] = []
        with self._delivery_lock:
            if isinstance(outcome, BaseException):
                for request in batch:
                    self._completed[request.seq] = (request, outcome, now)
            else:
                outputs = np.asarray(outcome)
                for request, output in zip(batch, outputs):
                    self._completed[request.seq] = (request, output, now)
            slow_entries = self._deliver_ready_locked()
        # Exemplar I/O happens outside the delivery lock so a slow sink
        # cannot stall in-order delivery.
        if self.slow_log is not None:
            for entry in slow_entries:
                self.slow_log.observe(**entry)

    def _record_execution_spans(
        self,
        batch: List[ServeRequest],
        outcome: object,
        dispatch_ts: float,
        end_ts: float,
        recorder: DispatchTraceRecorder,
    ) -> None:
        """Close every traced request's ``dispatch`` and ``replica_execute``
        spans and splice in the pool's retry/restart events plus replica-side
        child spans.

        ``dispatch`` ends, and ``replica_execute`` starts, when the pool handed
        the batch to a replica (:meth:`DispatchTraceRecorder.mark_replica_start`)
        — also for the serial executor, whose ``submit`` runs the batch inline.
        A batch that never reached a replica spends no time in ``dispatch``.
        """
        start_ts = recorder.replica_start_s
        if start_ts is None:
            start_ts = dispatch_ts
        records_by_trace: Dict[str, List[Dict[str, object]]] = {}
        for record in recorder.replica_records:
            records_by_trace.setdefault(str(record["trace_id"]), []).append(record)
        traced = [request for request in batch if request.trace is not None]
        failed = isinstance(outcome, BaseException)
        for request, (trace_id, span_id) in zip(traced, recorder.contexts):
            trace = request.trace
            meta: Dict[str, object] = {"batch": len(batch)}
            if failed:
                meta["error"] = type(outcome).__name__
            trace.add_span("dispatch", dispatch_ts, start_ts)
            trace.add_span("replica_execute", start_ts, end_ts, span_id=span_id, **meta)
            for event in recorder.events:
                trace.add_span(
                    str(event["name"]),
                    float(event["start_s"]),
                    float(event["end_s"]),
                    parent_id=span_id,
                    **dict(event["meta"]),
                )
            for record in records_by_trace.get(trace_id, ()):
                trace.add_span(
                    str(record["name"]),
                    float(record["start_s"]),
                    float(record["end_s"]),
                    parent_id=str(record["parent_id"]),
                    span_id=str(record["span_id"]),
                    **dict(record["meta"]),
                )

    def _deliver_ready_locked(self) -> List[Dict[str, object]]:
        """Release contiguous completed responses in submission order.

        Returns slow-request exemplar entries for the caller to log *after*
        the delivery lock is released.
        """
        slow_entries: List[Dict[str, object]] = []
        while self._next_delivery_seq in self._completed:
            request, outcome, complete_ts = self._completed.pop(self._next_delivery_seq)
            self._next_delivery_seq += 1
            delivery_ts = time.monotonic()
            trace = request.trace
            if isinstance(outcome, BaseException):
                request.future.set_exception(outcome)
                if trace is not None:
                    trace.add_span("reorder", complete_ts, delivery_ts)
                    trace.finish(
                        delivery_ts, outcome="error", error=type(outcome).__name__
                    )
            else:
                latency_s = delivery_ts - request.enqueue_time
                self.telemetry.record_response(latency_s)
                request.future.set_result(outcome)
                if self._on_response is not None:
                    try:
                        self._on_response(request.seq, outcome)
                    except Exception:  # repro: noqa[RPR105] - a raising
                        # observer callback must not stall delivery of the
                        # responses still buffered behind it.
                        pass
                if trace is not None:
                    trace.add_span("reorder", complete_ts, delivery_ts)
                    done_ts = time.monotonic()
                    trace.add_span("deliver", delivery_ts, done_ts)
                    trace.finish(done_ts, outcome="ok", model=self.name, seq=request.seq)
                    stages = trace.stage_durations()
                    self.telemetry.record_stages(stages)
                    if (
                        self.slow_log is not None
                        and stages.get("e2e", latency_s) >= self.slow_log.threshold_s
                    ):
                        slow_entries.append(
                            {
                                "model": self.name,
                                "seq": request.seq,
                                "latency_s": stages.get("e2e", latency_s),
                                "trace_id": trace.trace_id,
                                "stages_s": stages,
                            }
                        )
        return slow_entries


class InferenceServer:
    """Online serving front-end over pools of functional-engine replicas.

    Two construction styles share one implementation:

    * **Single model** (the original API): pass ``network``/``weights`` plus
      the serving knobs; the server hosts one model named after the network.
    * **Multi-workload**: pass a :class:`~repro.serve.registry.ModelRegistry`
      via :meth:`hosting` (or ``registry=``); each
      :class:`~repro.serve.registry.ModelDefinition` carries its own knobs,
      and requests route by model name (default = first registered).

    Parameters
    ----------
    network, weights, config, noise_model, seed:
        Forwarded into every engine replica (see
        :class:`~repro.serve.workers.EngineReplicaSpec`).  Ignored (must be
        omitted) when ``registry`` is given.
    executor:
        Replica-pool executor spelling: ``"serial"``, ``"thread[:N]"`` or
        ``"process[:N]"`` (see :func:`~repro.serve.workers.parse_executor_spec`).
    max_batch, max_wait_s, queue_capacity:
        Dynamic micro-batching policy; see :class:`~repro.serve.batcher.MicroBatcher`.
    policy:
        Flush-policy spelling (``"fixed"`` or ``"adaptive"``) or a built
        :class:`~repro.serve.batcher.FlushPolicy`.
    slo_s:
        Per-request latency budget for the adaptive policy.
    warmup:
        Run one zero image through every replica at :meth:`start` so the
        one-time PCM tile programming does not land on the first request.
    registry:
        A pre-built :class:`ModelRegistry` hosting one model per definition.
    autoscaler:
        An :class:`~repro.serve.autoscaler.AutoscalerPolicy` enabling the
        queue-depth-driven replica scaling loop (``thread``/``process``
        executors only; ``serial`` models are left at one replica).
    on_response:
        Optional ``callback(seq, output)`` invoked in per-model submission
        order as responses are delivered.
    tracing:
        Per-request tracing (see :mod:`repro.obs.tracing`): ``True`` (the
        default) builds a :class:`~repro.obs.Tracer` sampling at
        ``trace_sample``, ``False`` disables tracing entirely, and a
        pre-built :class:`~repro.obs.Tracer` passes through.  The tracer is
        shared by every hosted model; export with :meth:`export_trace` or
        read single traces back via ``GET /v1/trace/{id}``.
    trace_sample:
        Fraction of requests traced in ``[0, 1]``; ``0`` disables tracing.
    slow_ms:
        Latency threshold (milliseconds) above which a delivered request is
        logged as a JSON-lines exemplar (see :class:`~repro.obs.SlowRequestLog`);
        ``None`` (the default) disables the slow log.
    slow_stream:
        Stream the slow log writes to (defaults to stderr).
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        weights: Optional[Dict[str, np.ndarray]] = None,
        config: Optional[ChipConfig] = None,
        *,
        noise_model: Optional[CrossbarNoiseModel] = None,
        seed: int = 0,
        executor: Union[str, int, ExecutorSpec] = "serial",
        max_batch: int = 8,
        max_wait_s: float = 0.002,
        queue_capacity: int = 128,
        policy: Union[str, FlushPolicy] = "fixed",
        slo_s: float = 0.05,
        warmup: bool = True,
        registry: Optional[ModelRegistry] = None,
        autoscaler: Optional[AutoscalerPolicy] = None,
        on_response: Optional[Callable[[int, np.ndarray], None]] = None,
        tracing: Union[bool, Tracer] = True,
        trace_sample: float = 1.0,
        slow_ms: Optional[float] = None,
        slow_stream=None,
    ) -> None:
        if registry is None:
            if network is None or weights is None:
                raise ServeError(
                    "InferenceServer needs either (network, weights) or a registry"
                )
            registry = ModelRegistry(
                [
                    ModelDefinition(
                        name=network.name,
                        network=network,
                        weights=dict(weights),
                        config=config,
                        noise_model=noise_model,
                        seed=seed,
                        executor=executor,
                        max_batch=max_batch,
                        max_wait_s=max_wait_s,
                        queue_capacity=queue_capacity,
                        policy=policy,
                        slo_s=slo_s,
                        warmup=warmup,
                    )
                ]
            )
        elif network is not None or weights is not None:
            raise ServeError(
                "pass either (network, weights) or registry=, not both"
            )
        if len(registry) == 0:
            raise ServeError("model registry is empty: register a model first")
        self.registry = registry
        self.autoscaler_policy = autoscaler
        if isinstance(tracing, Tracer):
            self.tracer: Optional[Tracer] = tracing
        elif tracing and trace_sample > 0:
            self.tracer = Tracer(sample_rate=float(trace_sample))
        else:
            self.tracer = None
        self.slow_log: Optional[SlowRequestLog] = (
            SlowRequestLog(float(slow_ms) / 1e3, stream=slow_stream)
            if slow_ms is not None
            else None
        )
        self.metrics = MetricsRegistry()
        self._runtimes: Dict[str, _ModelRuntime] = {
            definition.name: _ModelRuntime(
                definition,
                autoscaler,
                on_response,
                tracer=self.tracer,
                slow_log=self.slow_log,
            )
            for definition in registry
        }
        self._autoscaler: Optional[Autoscaler] = None
        self._started = False
        self._stopped = False
        self._metrics_registered = False

    @classmethod
    def hosting(
        cls,
        registry: ModelRegistry,
        autoscaler: Optional[AutoscalerPolicy] = None,
        on_response: Optional[Callable[[int, np.ndarray], None]] = None,
    ) -> "InferenceServer":
        """Build a multi-workload server over a :class:`ModelRegistry`."""
        return cls(registry=registry, autoscaler=autoscaler, on_response=on_response)

    # ------------------------------------------------------------------ routing
    @property
    def default_model(self) -> str:
        """The model requests route to when they do not name one."""
        return self.registry.default_name

    def model_names(self) -> List[str]:
        return self.registry.names()

    def _runtime(self, model: Optional[str]) -> _ModelRuntime:
        definition = self.registry.resolve(model)
        return self._runtimes[definition.name]

    def input_shape(self, model: Optional[str] = None) -> tuple:
        """The input-image shape of ``model`` (default model when ``None``)."""
        return self._runtime(model).input_shape

    # Single-model back-compat surface: these delegate to the default model.
    @property
    def network(self) -> Network:
        return self._runtime(None).definition.network

    @property
    def executor(self) -> ExecutorSpec:
        return self._runtime(None).definition.executor

    @property
    def policy(self) -> FlushPolicy:
        return self._runtime(None).policy

    @property
    def telemetry(self) -> ServeTelemetry:
        return self._runtime(None).telemetry

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "InferenceServer":
        """Build every model's replica pool and start dispatching."""
        if self._started:
            raise ServeError("server already started")
        started = []
        try:
            for runtime in self._runtimes.values():
                runtime.start()
                started.append(runtime)
        except BaseException:
            # A later model failing to start must not leak the earlier
            # models' dispatch threads and replica pools (process replicas
            # would otherwise outlive the failed constructor call).
            for runtime in started:
                try:
                    runtime.stop()
                except Exception:  # repro: noqa[RPR105] - rollback cleanup;
                    pass  # the original startup failure re-raises below
            raise
        self._started = True
        self._register_metrics()
        if self.autoscaler_policy is not None:
            self._autoscaler = Autoscaler(self._runtimes, self.autoscaler_policy)
            self._autoscaler.start()
            self._autoscaler.register_metrics(self.metrics)
        return self

    def _register_metrics(self) -> None:
        """Wire every subsystem into the unified metrics registry (once)."""
        if self._metrics_registered:
            return
        self._metrics_registered = True
        for name, runtime in self._runtimes.items():
            labels = {"model": name}
            runtime.telemetry.register_metrics(self.metrics, labels)
            if runtime.breaker is not None:
                runtime.breaker.register_metrics(self.metrics, labels)
            if runtime.pool is not None:
                runtime.pool.register_metrics(self.metrics, labels)
        if self.tracer is not None:
            tracer = self.tracer

            def _tracer_families():
                snap = tracer.snapshot()
                return [
                    {
                        "name": "repro_traces_started_total",
                        "type": "counter",
                        "help": "Requests seen by the tracer (traced + sampled out).",
                        "samples": [({}, float(snap["started"]))],
                    },
                    {
                        "name": "repro_traces_sampled_out_total",
                        "type": "counter",
                        "help": "Requests skipped by trace sampling.",
                        "samples": [({}, float(snap["sampled_out"]))],
                    },
                    {
                        "name": "repro_traces_retained",
                        "type": "gauge",
                        "help": "Finished traces held in the in-memory ring.",
                        "samples": [({}, float(snap["finished"]))],
                    },
                ]

            self.metrics.register_collector(_tracer_families)

    def export_trace(self, path: str) -> int:
        """Write retained traces as Chrome trace-event JSON; returns the count.

        The file loads directly in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Raises :class:`ServeError` with tracing off.
        """
        if self.tracer is None:
            raise ServeError("tracing is disabled: no traces to export")
        return self.tracer.export_chrome(path)

    def stop(self, drain: bool = True) -> None:
        """Stop serving and shut the pools down.

        ``drain=True`` (the default, and the graceful path) finishes every
        queued request and resolves its future before tearing anything down;
        ``drain=False`` fails still-queued requests immediately (in-flight
        batches complete either way).  The autoscaler loop joins first, so
        no resize races the teardown.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self._autoscaler is not None:
            self._autoscaler.stop()
        for runtime in self._runtimes.values():
            runtime.stop(drain=drain)

    def __enter__(self) -> "InferenceServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ producer API
    def submit(
        self,
        image: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        model: Optional[str] = None,
    ) -> "Future[np.ndarray]":
        """Admit one single-image request; returns its response future.

        ``model`` routes to a hosted model by name (``None`` = default).
        Raises :class:`~repro.errors.UnknownModelError` for unknown names,
        :class:`~repro.errors.QueueOverflowError` on a full queue when
        ``block=False`` (or after ``timeout``), :class:`BadRequestError` for
        a wrong image shape or a non-finite (NaN/Inf) pixel, and
        :class:`ServeError` for a stopped server.  Bad input is rejected here,
        before the breaker or a batch sees it, so one client's garbage can
        never fail a replica or the requests batched with it.
        """
        if not self._started or self._stopped:
            raise ServeError("server is not running (call start() before submit())")
        runtime = self._runtime(model)
        image = np.asarray(image, dtype=float)
        if image.shape != runtime.input_shape:
            raise BadRequestError(
                f"request image for model {runtime.name!r} must have shape "
                f"{runtime.input_shape}, got {image.shape}"
            )
        if not np.isfinite(image).all():
            raise BadRequestError(
                f"request image for model {runtime.name!r} has non-finite "
                "(NaN/Inf) pixels"
            )
        if runtime.breaker is not None and not runtime.breaker.allow():
            runtime.telemetry.record_shed()
            raise CircuitOpenError(
                f"model {runtime.name!r} is shedding load: circuit breaker is "
                "open after repeated batch failures",
                retry_after_s=max(1.0, runtime.breaker.retry_after_s()),
                model=runtime.name,
            )
        trace = (
            runtime.tracer.start_trace(model=runtime.name)
            if runtime.tracer is not None
            else None
        )
        try:
            request = runtime.batcher.submit(
                image, block=block, timeout=timeout, trace=trace
            )
        except Exception as error:
            runtime.telemetry.record_rejection()
            if trace is not None:
                trace.finish(outcome="rejected", error=type(error).__name__)
            raise
        runtime.telemetry.record_admission(runtime.batcher.depth)
        return request.future

    def serve_batch(
        self, images: np.ndarray, model: Optional[str] = None
    ) -> np.ndarray:
        """Submit every image of ``images`` and gather responses in order.

        Convenience for verification: the result is directly comparable with
        ``FunctionalInferenceEngine.run_batch(images)`` on the same model.
        """
        futures = [
            self.submit(image, model=model)
            for image in np.asarray(images, dtype=float)
        ]
        return np.stack([future.result() for future in futures])

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched, summed over all models."""
        return sum(runtime.batcher.depth for runtime in self._runtimes.values())

    def replica_count(self, model: Optional[str] = None) -> int:
        """Current replica count of ``model`` (default model when ``None``)."""
        runtime = self._runtime(model)
        return runtime.pool.count if runtime.pool is not None else 0

    def admission_retry_after_s(self, model: Optional[str] = None) -> float:
        """Backpressure hint: seconds until ``model``'s queue likely has room.

        The HTTP front-ends attach this as the ``Retry-After`` header on
        429 (queue overflow) responses, so shedding surfaces as actionable
        backpressure instead of a bare rejection.  See
        :meth:`MicroBatcher.retry_after_hint_s` for the estimate.
        """
        return self._runtime(model).batcher.retry_after_hint_s()

    # ------------------------------------------------------------------ health
    def health_levels(self) -> Dict[str, object]:
        """Kubernetes-style live / ready / degraded health summary.

        * **live** — the server process is up (started and not stopped).
        * **ready** — live and at least one hosted model is admitting
          requests (its breaker is not open), i.e. traffic can be served.
        * **degraded** — some model is not ``ok``: a breaker open or
          half-open, a replica restarting, or a failure streak in progress.
        """
        live = self._started and not self._stopped
        models = {name: runtime.health() for name, runtime in self._runtimes.items()}
        ready = live and any(level != "down" for level in models.values())
        degraded = live and any(level != "ok" for level in models.values())
        return {
            "live": bool(live),
            "ready": bool(ready),
            "degraded": bool(degraded),
            "models": models,
        }

    # ------------------------------------------------------------------ stats
    def models(self) -> List[Dict[str, object]]:
        """The ``/v1/models`` listing: one descriptor per hosted model."""
        default = self.default_model
        return [
            runtime.describe(default=(name == default))
            for name, runtime in self._runtimes.items()
        ]

    def stats(self, model: Optional[str] = None) -> Dict[str, object]:
        """Telemetry snapshot: one model's, or the whole server's.

        With ``model=None`` the top-level keys keep the original single-model
        shape (they describe the *default* model), and a ``"models"`` section
        carries every hosted model's full snapshot.
        """
        if model is not None:
            return self._runtime(model).stats()
        default_name = self.default_model
        models = {name: runtime.stats() for name, runtime in self._runtimes.items()}
        # Reuse the default model's snapshot for the legacy top-level keys
        # instead of computing it twice (each stats() pass walks every
        # replica's functional counters under the pool lock).
        snapshot = dict(models[default_name])
        snapshot["default_model"] = default_name
        snapshot["autoscaler_enabled"] = self.autoscaler_policy is not None
        snapshot["models"] = models
        snapshot["metrics"] = self.metrics.render_json()
        return snapshot
