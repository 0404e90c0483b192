"""Host-time benchmark of the optical-crossbar reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload lenet-offline --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload with no
probes installed.  Every timing is divided by the host-speed factor sampled
next to it (``harness.HostSpeed``) raised to the workload's
``host_exponent``, so a slow spell of a shared host cancels; the details
line also prints the figures as measured.
``--trace 1`` is the per-layer run: the workload spends a third of
``--seconds`` untraced and a third traced, alternating in ``PAIRS`` chunks
(the median p50 ratio of a pair is the tracing overhead); every other
workload, ``http-closed`` included, runs a short traced probe, so each
per-layer metric is measured on the workload it targets; and a batch sweep
times warm ``run_batch`` at B=1, 8 and 32 on the 128×128 chip.
``BENCHMARK.json`` lists the metrics; ``perfbench/README.md`` says which
end-to-end metric each per-layer metric should move.

The last stdout line is the result object; the line before it records the
host.  The exit code is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: The workloads ``BENCHMARK.json`` declares, spelled out so arguments parse
#: before the thread pins and the numpy import.  ``http-closed`` is only probed.
WORKLOAD_NAMES = ("lenet-offline", "lenet-reprogram", "serve-open")
#: Traced run time of each workload other than the one under test.
PROBE_SECONDS = 2.5
#: Untraced/traced chunk pairs the workload under test alternates through.
PAIRS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_metadata(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg_1m": os.getloadavg()[0],
        **{variable: os.environ[variable] for variable in THREAD_VARIABLES},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def end_to_end(workload, seconds: float):
    """Time ``workload.setups`` fresh set-ups, run one, return the metrics.

    Half the set-ups come before the timed phase and half after it, so
    their median spans the run rather than one moment of the host.
    """
    from harness import normalized_figures, tail_percentile

    from repro.core.accelerator import OpticalCrossbarAccelerator
    from repro.nn.models import build_lenet5

    try:
        setups = workload.timed_setups((workload.setups + 1) // 2)
        phase = workload.run(seconds)
        setups += workload.timed_setups(workload.setups // 2)
    finally:
        workload.close()
    peak_rss = peak_rss_mb()  # before the reference run of the output check
    phase.failed += workload.verify(phase)
    chip = OpticalCrossbarAccelerator(workload.config).evaluate(build_lenet5())

    def setup_s(exponent: float) -> float:
        return statistics.median(seconds / factor**exponent for seconds, factor in setups)

    metrics = {
        "setup_s": setup_s(workload.host_exponent),
        **normalized_figures(phase, workload.concurrency, workload.host_exponent),
        "peak_rss_mb": peak_rss,
        "chip_ips": chip.inferences_per_second,
        "chip_uj_per_image": chip.energy_per_inference_j * 1e6,
    }
    p90 = tail_percentile(phase.latencies_s, 90)
    details = {
        "operations": len(phase.latencies_s),
        "host_factor_p50": statistics.median(phase.speed),
        "host_exponent": workload.host_exponent,
        "as_measured": {
            "setup_s": setup_s(0.0),
            **normalized_figures(phase, workload.concurrency, exponent=0.0),
            "latency_p90_ms": None if p90 is None else p90 * 1e3,
        },
        "setups": setups,
    }
    return metrics, phase.attempted, phase.failed, details


def traced(name: str, seed: int, seconds: float):
    """The per-layer run; see the module docstring."""
    from harness import percentile
    from layers import per_layer_metrics
    from probes import SpanRecorder
    from workloads import WORKLOADS, Phase, batch_sweep

    sweep = batch_sweep(seed)
    recorder = SpanRecorder()
    phases, spans, ratios, checked = {}, {}, [], []
    plain, probed = WORKLOADS[name](seed), WORKLOADS[name](seed, traced=True)
    own, spans[name] = Phase(), []
    try:
        plain.setup()
        probed.setup()
        for _ in range(PAIRS):
            base = plain.run(seconds / 3 / PAIRS)
            with recorder:
                mark = len(recorder.spans)
                part = probed.run(seconds / 3 / PAIRS, recorder)
                spans[name] += recorder.spans[mark:]
            ratios.append(percentile(part.latencies_s, 50) / percentile(base.latencies_s, 50))
            base.failed += plain.verify(base)
            checked.append(base)
            own.merge(part)
    finally:
        plain.close()
        probed.close()
    own.failed += probed.verify(own)
    phases[name] = own

    with recorder:
        for other in WORKLOADS:
            if other == name:
                continue
            workload = WORKLOADS[other](seed, traced=True)
            try:
                workload.setup()
                mark = len(recorder.spans)
                phase = workload.run(PROBE_SECONDS, recorder)
                spans[other] = recorder.spans[mark:]
            finally:
                workload.close()
            phase.failed += workload.verify(phase)
            phases[other] = phase

    metrics = per_layer_metrics(name, phases, spans, sweep, statistics.median(ratios))
    checked += phases.values()
    attempted = sum(phase.attempted for phase in checked)
    failed = sum(phase.failed for phase in checked)
    details = {
        "operations": {other: len(phase.latencies_s) for other, phase in phases.items()},
        "trace_overhead_ratios": ratios,
    }
    return metrics, attempted, failed, details


def declared_metrics(trace: int) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        from harness import check_metric_names
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    host = host_metadata(numpy)

    if args.trace:
        metrics, attempted, failed, details = traced(args.workload, args.seed, args.seconds)
    else:
        workload = WORKLOADS[args.workload](args.seed)
        metrics, attempted, failed, details = end_to_end(workload, args.seconds)

    units = declared_metrics(args.trace)
    check_metric_names(units)
    if set(metrics) != set(units):
        differing = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differing}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host, **details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
