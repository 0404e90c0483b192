"""Per-layer metrics of the traced run.

Each metric is measured on the workload it targets (see
``perfbench/README.md``): crossbar read-path times on ``lenet-offline``,
programming on ``lenet-reprogram``, batcher and server stages on
``serve-open``, and the HTTP front-end on ``http-closed``.  Times are
milliseconds per operation of that workload (one ``run_batch``, one
reprogram step, one request, one POST) unless the name says otherwise.
``inference.ms_per_img`` and ``obs.trace_overhead_pct`` describe the
workload under test.
"""

from __future__ import annotations

from harness import percentile
from probes import layer_times, summarize

from repro.nn.models import build_lenet5
from repro.obs.tracing import STAGES

LAYERS = [info.name for info in build_lenet5().crossbar_layers]


def per_layer_metrics(name, phases, spans, sweep, overhead) -> dict:
    """Metrics of the traced ``phases`` when ``name`` is the workload under test.

    ``overhead`` is the traced p50 of ``name`` over its untraced p50.
    """
    metrics = dict(sweep)
    engine_s = sum(span.duration for span in spans[name] if span.name == "run_batch")
    metrics["inference.ms_per_img"] = engine_s * 1e3 / phases[name].images
    metrics["obs.trace_overhead_pct"] = 100.0 * (overhead - 1.0)
    metrics.update(_offline(phases["lenet-offline"], spans["lenet-offline"]))
    metrics.update(_reprogram(phases["lenet-reprogram"], spans["lenet-reprogram"]))
    metrics.update(_serving(phases["serve-open"], spans["serve-open"]))
    metrics.update(_http(phases["http-closed"], spans["http-closed"]))
    return metrics


def _offline(phase, spans) -> dict:
    ops = len(phase.latencies_s)
    summary = summarize(spans)
    metrics = {
        f"inference.layer.{layer}.ms": seconds * 1e3 / ops
        for layer, seconds in layer_times(spans, LAYERS).items()
    }
    matmuls = [span for span in spans if span.name == "array_matmul"]
    metrics.update(
        {
            "im2col.ms": summary["im2col"]["total_s"] * 1e3 / ops,
            "photonics.odac_modulate.ms": summary["odac_modulate"]["total_s"] * 1e3 / ops,
            "crossbar.array_matmul.self_ms": summary["array_matmul"]["self_s"] * 1e3 / ops,
            "crossbar.signed_matmul.self_ms": summary["signed_matmul"]["self_s"] * 1e3 / ops,
            "crossbar.array_matmul.calls": len(matmuls) / ops,
            "crossbar.vectors_per_call": sum(span.size for span in matmuls) / len(matmuls),
            "sharding.execute.self_ms": summary["sharding.execute"]["self_s"] * 1e3 / ops,
            "crossbar.read_path_frac": summary["sharding.execute"]["total_s"]
            / summary["run_batch"]["total_s"],
        }
    )
    return metrics


def _reprogram(phase, spans) -> dict:
    ops = len(phase.latencies_s)
    summary = summarize(spans)
    plan_build_s = (
        summary["linear"]["self_s"]
        + summary["tile_init"]["total_s"]
        + summary["tile_program"]["total_s"]
    )
    counts = phase.extra["functional_statistics"]
    return {
        "crossbar.tile_program.ms": summary["tile_program"]["total_s"] * 1e3 / ops,
        "crossbar.tile_init.ms": summary["tile_init"]["total_s"] * 1e3 / ops,
        "accelerator.linear.self_ms": summary["linear"]["self_s"] * 1e3 / ops,
        "accelerator.plan_build_frac": plan_build_s / sum(phase.latencies_s),
        "accelerator.programming_events": counts["programming_events"] / ops,
        "accelerator.tile_cache_hits": counts["tile_cache_hits"] / ops,
        "accelerator.tile_cache_misses": counts["tile_cache_misses"] / ops,
    }


def _serving(phase, spans) -> dict:
    batches = [span for span in spans if span.name == "run_batch"]
    telemetry = phase.extra["stats"]["telemetry"]
    flushes = telemetry["flush_reasons"]
    stages = telemetry["stage_breakdown"]
    metrics = {
        "serve.batch_size.mean": sum(span.size for span in batches) / len(batches),
        "serve.engine_busy_frac": sum(span.duration for span in batches) / phase.open_s,
        "serve.submit_ms.p50": percentile(
            [span.duration for span in spans if span.name == "submit"], 50
        )
        * 1e3,
        "serve.flush.full": flushes.get("full", 0) / sum(flushes.values()),
        "serve.flush.deadline": flushes.get("deadline", 0) / sum(flushes.values()),
        "loadgen.lateness_ms.p99": percentile(phase.extra["lateness_s"], 99) * 1e3,
    }
    for stage in STAGES:
        metrics[f"serve.stage.{stage}.ms"] = stages[stage]["mean_s"] * 1e3
    return metrics


def _http(phase, spans) -> dict:
    posts = len(phase.latencies_s)
    codec_s = sum(span.duration for span in spans if span.name == "codec")
    server_p50_ms = phase.extra["server_latency_p50_s"] * 1e3
    return {
        "http.client_codec_ms": codec_s * 1e3 / posts,
        "http.server_latency_ms.p50": server_p50_ms,
        "http.frontend_ms.p50": percentile(phase.latencies_s, 50) * 1e3 - server_p50_ms,
    }
