"""Online inference serving: dynamic micro-batching over engine replicas.

The paper's throughput analysis (Fig. 7) shows batching is what amortises
PCM tile programming; this package turns that offline observation into an
*online* serving system.  Single-image requests are admitted into a bounded
queue, flushed into micro-batches by a ``max_batch`` / ``max_wait`` policy,
executed on a pool of :class:`~repro.core.inference.FunctionalInferenceEngine`
replicas (``serial``, ``thread:N`` or GIL-free ``process:N`` executors), and
delivered in submission order with full SLO telemetry (latency percentiles,
throughput, queue depth, batch-size histogram).

Two front-ends share that pipeline: in-process submission
(:class:`InferenceServer.submit`) and an asyncio HTTP socket
(:class:`AsyncServeHTTPServer` — ``POST /v1/infer``, ``GET /v1/models``,
``GET /v1/stats``, ``GET /healthz``) with a matching stdlib
:class:`HTTPInferenceClient`.  Flush decisions are pluggable
(:class:`FixedFlushPolicy` / :class:`AdaptiveFlushPolicy` with SLO deadlines
and batch auto-tuning seeded by the dual-core tile schedule).

Serving is **fault tolerant**: replica dispatches are supervised (crash /
hang / corruption detection, exponential-backoff restarts, bounded
re-dispatch — bitwise-identical because inference is pure), a per-model
:class:`CircuitBreaker` sheds load as HTTP 503 + ``Retry-After`` while a
model is sick, and a seeded deterministic :class:`FaultInjector`
(``--inject-fault``) makes the whole failure path testable in CI (the
``chaos`` lane).

One server can host **several named models** (a :class:`ModelRegistry` of
:class:`ModelDefinition`\\ s — each with its own batcher, flush policy,
telemetry and replica pool) behind the same endpoints, with requests routed
by model name.  Each model runs exactly the replicas its executor names.

Serving is **observable** end to end: every request carries a trace through
``admit → queue_wait → batch_assemble → dispatch → replica_execute →
reorder → deliver`` (propagated across process-replica boundaries, exported
as Chrome trace-event JSON or ``GET /v1/trace/{id}``), every component
registers into a unified :class:`~repro.obs.MetricsRegistry` exposed as
Prometheus text at ``GET /metrics``, and the per-stage latency breakdown
plus a slow-request exemplar log (``--slow-ms``) pinpoint where time goes.
See ``docs/observability.md``.

See ``docs/serving.md`` for the CLI commands (``python -m repro serve`` /
``python -m repro loadgen``), the HTTP API and the knob reference.
"""

from repro.serve.batcher import (
    AdaptiveFlushPolicy,
    AnalyticalCostModel,
    FixedFlushPolicy,
    FlushPolicy,
    MicroBatcher,
    POLICY_KINDS,
    ServeRequest,
    make_flush_policy,
)
from repro.serve.faults import (
    FAULT_KINDS,
    CircuitBreaker,
    CircuitBreakerPolicy,
    FaultAction,
    FaultInjector,
    FaultRule,
    parse_fault_spec,
)
from repro.serve.registry import ModelDefinition, ModelRegistry
from repro.serve.http import (
    API_ROUTES,
    HTTPInferenceClient,
    decode_array_b64,
    encode_array_b64,
)
from repro.serve.http_async import AsyncServeHTTPServer
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    LoadGenerator,
    LoadReport,
    bursty_arrivals,
    mixed_model_schedule,
    poisson_arrivals,
)
from repro.serve.server import InferenceServer
from repro.serve.telemetry import (
    FrontendTelemetry,
    LatencyReservoir,
    ServeTelemetry,
    latency_summary,
)
from repro.serve.workers import (
    DEFAULT_REPLICAS,
    EngineReplicaSpec,
    EngineWorkerPool,
    ExecutorSpec,
    merge_functional_statistics,
    parse_executor_spec,
    spec_serialization_count,
    subtract_functional_statistics,
)

__all__ = [
    "API_ROUTES",
    "ARRIVAL_PROCESSES",
    "AdaptiveFlushPolicy",
    "AnalyticalCostModel",
    "AsyncServeHTTPServer",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "DEFAULT_REPLICAS",
    "EngineReplicaSpec",
    "EngineWorkerPool",
    "ExecutorSpec",
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjector",
    "FaultRule",
    "FixedFlushPolicy",
    "FlushPolicy",
    "FrontendTelemetry",
    "HTTPInferenceClient",
    "InferenceServer",
    "LatencyReservoir",
    "LoadGenerator",
    "LoadReport",
    "MicroBatcher",
    "ModelDefinition",
    "ModelRegistry",
    "POLICY_KINDS",
    "ServeRequest",
    "ServeTelemetry",
    "bursty_arrivals",
    "decode_array_b64",
    "encode_array_b64",
    "latency_summary",
    "make_flush_policy",
    "merge_functional_statistics",
    "mixed_model_schedule",
    "parse_executor_spec",
    "parse_fault_spec",
    "poisson_arrivals",
    "spec_serialization_count",
    "subtract_functional_statistics",
]
