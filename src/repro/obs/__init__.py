"""Observability layer: per-request tracing, metrics registry, slow-request log.

Three parts, wired through the serving pipeline (`repro.serve`):

* :mod:`repro.obs.tracing` — `Tracer`/`RequestTrace`/`Span`: one trace per
  request with stage spans that tile admit→deliver exactly, propagated
  across the process-replica boundary, exported as Chrome trace-event JSON.
* :mod:`repro.obs.metrics` — `MetricsRegistry` of scrape-time collectors;
  renders Prometheus text exposition (``GET /metrics``) and JSON
  (``GET /v1/stats``).
* :mod:`repro.obs.slowlog` — `SlowRequestLog`: JSON-lines exemplars for
  requests over a latency threshold, carrying trace ids.

:mod:`repro.obs.report` summarizes an exported trace file offline
(``python -m repro trace-report``).  See docs/observability.md.
"""

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry, escape_label_value
from repro.obs.report import format_report, load_chrome_trace, summarize_chrome_trace
from repro.obs.slowlog import SlowRequestLog
from repro.obs.tracing import (
    DEFAULT_TRACE_CAPACITY,
    ROOT_SPAN_NAME,
    STAGES,
    DispatchTraceRecorder,
    RequestTrace,
    Span,
    Tracer,
    replica_span_records,
)

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "DispatchTraceRecorder",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "ROOT_SPAN_NAME",
    "RequestTrace",
    "STAGES",
    "SlowRequestLog",
    "Span",
    "Tracer",
    "escape_label_value",
    "format_report",
    "load_chrome_trace",
    "replica_span_records",
    "summarize_chrome_trace",
]
