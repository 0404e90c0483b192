"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows without
writing any Python:

* ``evaluate``  — evaluate a workload on a design point and print the report;
* ``compare``   — Table I style comparison against the NVIDIA A100;
* ``optimize``  — run the Section VI-B design-space optimization flow;
* ``figure``    — regenerate one of the paper's figures/tables and write the
  series to CSV/JSON;
* ``infer``     — run batched functional INT6 inference on the optical
  crossbar and report optical-vs-float agreement plus throughput;
* ``serve``     — run an online serving session (dynamic micro-batching over
  an engine-replica pool) under synthetic traffic and report SLO telemetry,
  or expose the server over HTTP with ``--http PORT``;
* ``loadgen``   — sweep open-/closed-loop load points against a fresh server
  per point (or a remote ``--url`` HTTP server) and print a
  throughput/latency table;
* ``workloads`` — list the bundled CNN workload descriptions;
* ``trace-report`` — summarise a Chrome trace-event JSON file written by
  ``serve --trace-out`` into a per-stage latency table (offline analysis);
* ``lint``      — run the project-specific static-analysis rules (RPR1xx)
  over the package source (exit 1 on any unsuppressed finding).

Examples
--------
::

    python -m repro evaluate --network resnet50 --rows 128 --columns 128
    python -m repro compare --network resnet50
    python -m repro optimize --network resnet50 --area-cap 160
    python -m repro figure --name fig6 --output fig6.csv
    python -m repro infer --network lenet5 --images 16 --rows 64 --columns 64
    python -m repro infer --network lenet5 --images 16 --workers process:2
    python -m repro serve --network lenet5 --requests 32 --rate 500 --executor thread:2
    python -m repro serve --network lenet5 --http 8080 --policy adaptive --slo-ms 50
    python -m repro loadgen --network lenet5 --mode closed --concurrency 1,2,4
    python -m repro loadgen --network lenet5 --url http://127.0.0.1:8080 --rates 250,500
    python -m repro serve --network lenet5 --requests 64 --trace-out trace.json --slow-ms 20
    python -m repro trace-report trace.json --top 3
    python -m repro lint --format json --select RPR103,RPR106
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from collections import Counter
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.analysis import (
    generate_fig1_landscape,
    generate_fig6_array_sweep,
    generate_fig7a_batch_power,
    generate_fig7b_sram_ipsw,
    generate_fig7c_dual_core_ips,
    generate_fig8_breakdown,
    generate_table1,
    save_rows,
)
from repro.config import ChipConfig, SramConfig, default_sweep_chip
from repro.core import (
    DesignOptimizer,
    SimulationFramework,
    compare_to_gpu,
    format_comparison_table,
    format_metrics_report,
)
from repro.core.inference import (
    FunctionalInferenceEngine,
    agreement_metrics,
    generate_random_weights,
)
from repro.crossbar.noise import CrossbarNoiseModel
from repro.errors import SimulationError
from repro.nn import (
    Network,
    build_alexnet,
    build_lenet5,
    build_mlp,
    build_mobilenet_v1,
    build_resnet18,
    build_resnet34,
    build_resnet50,
    build_vgg16,
)
from repro.serve import (
    ARRIVAL_PROCESSES,
    POLICY_KINDS,
    AsyncServeHTTPServer,
    CircuitBreakerPolicy,
    EngineReplicaSpec,
    EngineWorkerPool,
    ExecutorSpec,
    HTTPInferenceClient,
    InferenceServer,
    LoadGenerator,
    ModelRegistry,
    mixed_model_schedule,
    parse_executor_spec,
    parse_fault_spec,
)

#: Workload name -> builder mapping used by the ``--network`` option.
WORKLOADS: Dict[str, Callable[[], Network]] = {
    "resnet50": build_resnet50,
    "resnet34": build_resnet34,
    "resnet18": build_resnet18,
    "vgg16": build_vgg16,
    "alexnet": build_alexnet,
    "mobilenet_v1": build_mobilenet_v1,
    "lenet5": build_lenet5,
    "mlp": build_mlp,
}

#: Figure name -> generator mapping used by the ``figure`` command.
FIGURES = {
    "fig1": generate_fig1_landscape,
    "fig6": generate_fig6_array_sweep,
    "fig7a": generate_fig7a_batch_power,
    "fig7b": generate_fig7b_sram_ipsw,
    "fig7c": generate_fig7c_dual_core_ips,
    "fig8": generate_fig8_breakdown,
    "table1": generate_table1,
}


def _parse_model_assignment(value: str):
    """Parse one ``--model NAME=WORKLOAD`` assignment into ``(name, workload)``.

    ``NAME`` is the hosted-model name requests route by; ``WORKLOAD`` is one
    of the bundled workload builders (see ``--network`` / ``workloads``).
    """
    name, separator, workload = value.partition("=")
    name = name.strip()
    workload = workload.strip()
    if not separator or not name or not workload:
        raise argparse.ArgumentTypeError(
            f"expected NAME=WORKLOAD (e.g. small=lenet5), got {value!r}"
        )
    if workload not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {workload!r}; choose from {', '.join(sorted(WORKLOADS))}"
        )
    return name, workload


def _parse_workers(value: str) -> ExecutorSpec:
    """Parse an executor spelling shared by ``infer --workers`` and ``serve``.

    Delegates to :func:`repro.serve.parse_executor_spec`, so every command
    accepts exactly the same spellings: 'serial', 'thread', 'thread:N',
    'process', 'process:N' or a positive integer N (N thread replicas).
    Malformed specs are rejected with the parser's SimulationError message.
    """
    try:
        return parse_executor_spec(value)
    except SimulationError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


#: Noise preset name -> model used by the functional commands.
NOISE_PRESETS = {
    "none": lambda: None,
    "typical": CrossbarNoiseModel.typical,
    "pessimistic": CrossbarNoiseModel.pessimistic,
}


def build_network(name: str) -> Network:
    """Build a bundled workload by name."""
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown network {name!r}; choose from {', '.join(sorted(WORKLOADS))}"
        ) from None


def config_from_args(args: argparse.Namespace) -> ChipConfig:
    """Build a ChipConfig from the common CLI options."""
    return ChipConfig(
        rows=args.rows,
        columns=args.columns,
        num_cores=args.cores,
        batch_size=args.batch,
        mac_clock_hz=args.clock_ghz * 1e9,
        dram_kind=args.dram,
        sram=SramConfig(
            input_mb=args.input_sram_mb,
            filter_mb=args.filter_sram_mb,
            output_mb=args.output_sram_mb,
            accumulator_mb=args.accumulator_sram_mb,
        ),
    )


def _parse_number_list(value: str, convert=float):
    """Parse a comma-separated list of positive numbers ('250,500,1000')."""
    try:
        numbers = tuple(convert(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None
    if not numbers or any(number <= 0 for number in numbers):
        raise argparse.ArgumentTypeError(f"expected positive numbers, got {value!r}")
    return numbers


def _parse_int_list(value: str):
    """Parse a comma-separated list of positive integers ('1,2,4')."""
    return _parse_number_list(value, convert=int)


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _positive_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value!r}"
        ) from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value!r}")
    return number


def _nonnegative_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {value!r}")
    return number


def _nonnegative_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return number


def _unit_interval_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number in [0, 1], got {value!r}"
        ) from None
    if not (0.0 <= number <= 1.0):
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {value!r}")
    return number


def _parse_fault_rule(value: str) -> str:
    """Validate an ``--inject-fault`` spelling eagerly (keep the string)."""
    try:
        parse_fault_spec(value)
    except SimulationError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return value


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``serve`` and ``loadgen`` commands."""
    parser.add_argument("--network", default="lenet5", help="workload name")
    _add_chip_arguments(parser)
    parser.add_argument(
        "--model",
        action="append",
        dest="models",
        type=_parse_model_assignment,
        metavar="NAME=WORKLOAD",
        default=None,
        help=(
            "host a named model (repeatable): NAME routes requests, WORKLOAD "
            "is a bundled workload (e.g. --model small=lenet5 --model mlp=mlp); "
            "without --model the server hosts one model named after --network"
        ),
    )
    parser.add_argument(
        "--mix",
        type=_parse_number_list,
        default=None,
        help=(
            "per-model traffic weights for synthetic multi-model traffic "
            "(comma-separated, one per --model; default: uniform)"
        ),
    )
    parser.add_argument(
        "--executor",
        type=_parse_workers,
        default="serial",
        help=(
            "engine-replica pool: 'serial', 'thread[:N]' or 'process:N' "
            "(process replicas scale past the GIL)"
        ),
    )
    parser.add_argument(
        "--max-batch", type=_positive_int, default=8, help="micro-batch flush-on-full size"
    )
    parser.add_argument(
        "--max-wait-ms",
        type=_nonnegative_float,
        default=2.0,
        help="micro-batch flush-on-timeout wait in milliseconds",
    )
    parser.add_argument(
        "--queue-capacity", type=_positive_int, default=128, help="admission-queue bound"
    )
    parser.add_argument(
        "--policy",
        choices=POLICY_KINDS,
        default="fixed",
        help=(
            "micro-batch flush policy: 'fixed' (static max-batch/max-wait) or "
            "'adaptive' (SLO-deadline flush with analytical max-batch auto-tuning; "
            "--max-batch becomes the cap)"
        ),
    )
    parser.add_argument(
        "--slo-ms",
        type=_positive_float,
        default=50.0,
        help="adaptive policy: per-request latency budget in milliseconds",
    )
    parser.add_argument(
        "--noise",
        choices=sorted(NOISE_PRESETS),
        default="none",
        help="analog impairment preset for the optical datapath",
    )
    parser.add_argument("--weight-seed", type=int, default=0, help="synthetic weight seed")
    parser.add_argument("--image-seed", type=int, default=1, help="random image seed")
    parser.add_argument("--arrival-seed", type=int, default=2, help="arrival-process seed")
    # ---------------------------------------------------------------- robustness
    parser.add_argument(
        "--dispatch-timeout-ms",
        type=_positive_float,
        default=None,
        help=(
            "per-dispatch replica answer budget in milliseconds; a process "
            "replica that misses it is declared hung, killed and replaced "
            "(default: wait forever)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        help=(
            "re-dispatch attempts for a micro-batch after a replica failure "
            "before it fails permanently; with --url this also bounds the "
            "HTTP client's transport retries"
        ),
    )
    parser.add_argument(
        "--breaker",
        action="store_true",
        help=(
            "enable the per-model circuit breaker: repeated batch failures "
            "open it and shed load as HTTP 503 + Retry-After until recovery"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=_positive_float,
        default=0.5,
        help="failure fraction over the rolling window that opens the breaker",
    )
    parser.add_argument(
        "--breaker-window",
        type=_positive_int,
        default=8,
        help="batch outcomes in the breaker's rolling window",
    )
    parser.add_argument(
        "--breaker-recovery-ms",
        type=_positive_float,
        default=5000.0,
        help="how long an open breaker sheds load before half-opening",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        dest="inject_faults",
        type=_parse_fault_rule,
        metavar="SPEC",
        default=None,
        help=(
            "inject a deterministic replica fault (repeatable; demos/chaos "
            "drills): KIND[:key=value,...] with KIND crash|hang|slow|corrupt "
            "and keys every/at/probability/delay_ms/times/seed, e.g. "
            "'crash:every=5' or 'slow:probability=0.2,delay_ms=30,seed=7'"
        ),
    )
    # ---------------------------------------------------------------- observability
    parser.add_argument(
        "--trace-sample",
        type=_unit_interval_float,
        default=1.0,
        metavar="RATE",
        help=(
            "fraction of requests that carry a full trace (seeded sampling; "
            "1.0 traces everything, 0 disables tracing entirely)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write the retained request traces as Chrome trace-event JSON "
            "(load in Perfetto / chrome://tracing, or summarise offline "
            "with 'python -m repro trace-report FILE')"
        ),
    )
    parser.add_argument(
        "--slow-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help=(
            "log a JSON-lines exemplar (trace id + per-stage breakdown) to "
            "stderr for every request slower end-to-end than this many "
            "milliseconds"
        ),
    )


def _add_chip_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=128, help="crossbar rows (default 128)")
    parser.add_argument("--columns", type=int, default=128, help="crossbar columns (default 128)")
    parser.add_argument("--cores", type=int, default=2, choices=(1, 2), help="crossbar cores")
    parser.add_argument("--batch", type=int, default=32, help="batch size (default 32)")
    parser.add_argument("--clock-ghz", type=float, default=10.0, help="MAC clock in GHz")
    parser.add_argument("--dram", choices=("hbm", "pcie"), default="hbm", help="DRAM attachment")
    parser.add_argument("--input-sram-mb", type=float, default=26.3)
    parser.add_argument("--filter-sram-mb", type=float, default=0.75)
    parser.add_argument("--output-sram-mb", type=float, default=0.75)
    parser.add_argument("--accumulator-sram-mb", type=float, default=0.75)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optical PCM crossbar accelerator modelling (Sturm & Moazeni, DATE 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = subparsers.add_parser("evaluate", help="evaluate a workload on a design point")
    evaluate.add_argument("--network", default="resnet50", help="workload name")
    _add_chip_arguments(evaluate)
    evaluate.add_argument("--json", action="store_true", help="print a JSON summary instead of text")

    compare = subparsers.add_parser("compare", help="Table I comparison against the NVIDIA A100")
    compare.add_argument("--network", default="resnet50", help="workload name")
    _add_chip_arguments(compare)

    optimize = subparsers.add_parser("optimize", help="run the Section VI-B optimization flow")
    optimize.add_argument("--network", default="resnet50", help="workload name")
    optimize.add_argument("--area-cap", type=float, default=160.0, help="chip area cap in mm^2")

    figure = subparsers.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument("--name", required=True, choices=sorted(FIGURES), help="figure id")
    figure.add_argument("--network", default="resnet50", help="workload name")
    figure.add_argument("--output", default=None, help="write the series to this CSV/JSON file")

    infer = subparsers.add_parser(
        "infer", help="batched functional INT6 inference on the optical crossbar"
    )
    infer.add_argument("--network", default="lenet5", help="workload name")
    _add_chip_arguments(infer)
    infer.add_argument(
        "--images", type=int, default=8, help="number of random images in the batch"
    )
    infer.add_argument(
        "--noise",
        choices=sorted(NOISE_PRESETS),
        default="none",
        help="analog impairment preset for the optical datapath",
    )
    infer.add_argument(
        "--workers",
        type=_parse_workers,
        default="serial",
        help=(
            "execution: 'serial' (default, one engine), or 'thread[:N]' / a "
            "positive count N / 'process[:N]' (data-parallel engine replicas "
            "on threads or processes, as in serve); deterministic results are "
            "bitwise identical for every setting (with --noise, replicas each "
            "run a chunk of the batch, so noisy outputs differ from one "
            "monolithic batch)"
        ),
    )
    infer.add_argument("--weight-seed", type=int, default=0, help="synthetic weight seed")
    infer.add_argument("--image-seed", type=int, default=1, help="random image seed")
    infer.add_argument("--json", action="store_true", help="print a JSON summary instead of text")

    serve = subparsers.add_parser(
        "serve",
        help="online serving session: dynamic micro-batching over engine replicas",
    )
    _add_serving_arguments(serve)
    serve.add_argument(
        "--requests",
        type=_positive_int,
        default=32,
        help="number of requests to serve (default 32)",
    )
    serve.add_argument(
        "--rate", type=_positive_float, default=500.0, help="mean arrival rate in requests/s"
    )
    serve.add_argument(
        "--arrival",
        choices=sorted(ARRIVAL_PROCESSES),
        default="poisson",
        help="open-loop arrival process",
    )
    serve.add_argument("--json", action="store_true", help="print a JSON summary instead of text")
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "expose the server over HTTP on this port (0 picks a free one) "
            "instead of driving synthetic traffic; serves until interrupted, "
            "--duration elapses or a /v1/shutdown request arrives"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind host (default 127.0.0.1)"
    )
    serve.add_argument(
        "--duration",
        type=_positive_float,
        default=None,
        help="HTTP mode: stop serving after this many seconds",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="HTTP mode: honour POST /v1/shutdown requests",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help=(
            "HTTP mode: write the bound base URL to this file once the socket "
            "is listening (lets scripts and CI discover a --http 0 port "
            "without racing the bind)"
        ),
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="sweep open-/closed-loop load points and print a throughput/latency table",
    )
    _add_serving_arguments(loadgen)
    loadgen.add_argument(
        "--mode", choices=("open", "closed"), default="open", help="load-generation loop"
    )
    loadgen.add_argument(
        "--arrival",
        choices=sorted(ARRIVAL_PROCESSES),
        default="poisson",
        help="open-loop arrival process",
    )
    loadgen.add_argument(
        "--rates",
        type=_parse_number_list,
        default=(250.0, 500.0, 1000.0),
        help="comma-separated open-loop arrival rates in requests/s",
    )
    loadgen.add_argument(
        "--concurrency",
        type=_parse_int_list,
        default=(1, 2, 4),
        help="comma-separated closed-loop client counts",
    )
    loadgen.add_argument(
        "--requests",
        type=_positive_int,
        default=24,
        help="requests per load point (default 24)",
    )
    loadgen.add_argument(
        "--shed",
        action="store_true",
        help="open loop: drop (rather than block) requests when the queue is full",
    )
    loadgen.add_argument("--json", action="store_true", help="print a JSON summary instead of text")
    loadgen.add_argument(
        "--url",
        default=None,
        help=(
            "drive a remote HTTP server (e.g. http://127.0.0.1:8080) instead of "
            "building a local one; chip/executor/policy options are then decided "
            "by the remote server and the bitwise check is skipped"
        ),
    )
    loadgen.add_argument(
        "--encoding",
        choices=("json", "npy"),
        default="json",
        help="HTTP payload encoding for --url mode (npy is denser and bitwise-exact)",
    )
    loadgen.add_argument(
        "--connections",
        type=_positive_int,
        default=16,
        metavar="N",
        help=(
            "--url mode: keep-alive connection budget — at most N sockets "
            "are held open and reused across requests (default 16)"
        ),
    )

    subparsers.add_parser("workloads", help="list the bundled workload descriptions")

    trace_report = subparsers.add_parser(
        "trace-report",
        help="summarise a Chrome trace-event JSON file into a per-stage latency table",
    )
    trace_report.add_argument(
        "trace_file",
        help="Chrome trace-event JSON written by 'serve --trace-out'",
    )
    trace_report.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="number of slowest requests to list (default 5)",
    )
    trace_report.add_argument(
        "--json", action="store_true", help="print a JSON summary instead of text"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the project-specific static-analysis rules (RPR1xx)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the repro package source)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is the stable machine-readable schema)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (e.g. RPR101,RPR103); default all",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by `# repro: noqa[CODE]` comments",
    )
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    network = build_network(args.network)
    config = config_from_args(args)
    metrics = SimulationFramework(network).evaluate(config)
    if args.json:
        print(json.dumps(metrics.summary(), indent=2, default=float))
    else:
        print(format_metrics_report(metrics))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    network = build_network(args.network)
    config = config_from_args(args)
    metrics = SimulationFramework(network).evaluate(config)
    print(format_comparison_table(compare_to_gpu(metrics)))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    network = build_network(args.network)
    optimizer = DesignOptimizer(network, default_sweep_chip(), area_cap_mm2=args.area_cap)
    result = optimizer.optimize()
    print(json.dumps(result.summary(), indent=2, default=float))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    network = build_network(args.network)
    generator = FIGURES[args.name]
    data = generator(network=network)
    if args.output:
        if isinstance(data, list):
            save_rows(data, args.output)
        else:
            with open(args.output, "w") as handle:
                json.dump(data, handle, indent=2, default=float)
        print(f"wrote {args.name} series to {args.output}")
    else:
        print(json.dumps(data, indent=2, default=float))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    if args.images < 1:
        raise SystemExit(f"--images must be >= 1, got {args.images}")
    network = build_network(args.network)
    config = config_from_args(args)
    noise_model = NOISE_PRESETS[args.noise]()
    weights = generate_random_weights(network, seed=args.weight_seed, scale=0.3)
    rng = np.random.default_rng(args.image_seed)
    images = rng.uniform(0.0, 1.0, (args.images,) + network.input_shape.as_tuple())

    # The first (cold) batch pays the one-time PCM tile programming; the
    # second (warm) batch only reads the programmed layers, which is the
    # steady-state throughput.  Both are reported so programming's cost shows.
    if args.workers.kind == "serial":
        engine = FunctionalInferenceEngine(network, weights, config, noise_model=noise_model)
        start = time.perf_counter()
        optical = engine.run_batch(images)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        engine.run_batch(images)
        warm_s = time.perf_counter() - start
        reference = engine.run_batch_reference(images)
        stats = engine.accelerator.functional_statistics()
    else:
        # Data-parallel path: the batch is chunked across N engine replicas,
        # on threads or each in its own worker process (scales past the GIL).
        replica = EngineReplicaSpec(
            network=network, weights=weights, config=config, noise_model=noise_model
        )
        with EngineWorkerPool(replica, args.workers) as pool:
            start = time.perf_counter()
            optical = pool.run_batch_sharded(images)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            pool.run_batch_sharded(images)
            warm_s = time.perf_counter() - start
            stats = pool.statistics()
        reference = FunctionalInferenceEngine(
            network, weights, config
        ).run_batch_reference(images)

    agreement = agreement_metrics(optical, reference)
    summary = {
        "network": args.network,
        "images": args.images,
        "noise": args.noise,
        "workers": str(args.workers),
        "per_core_tile_dispatches": list(stats["per_core_tile_dispatches"]),
        "cold_batch_seconds": cold_s,
        "warm_batch_seconds": warm_s,
        "images_per_second": args.images / warm_s if warm_s > 0 else float("inf"),
        "mean_relative_error": agreement["mean_relative_error"],
        "top1_match_rate": agreement["top1_match_rate"],
        "programming_events": stats["programming_events"],
        "tile_cache_hits": stats["tile_cache_hits"],
        "tile_cache_misses": stats["tile_cache_misses"],
    }
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
    else:
        print(
            f"{args.network}: {args.images} images, cold batch {cold_s:.3f} s, "
            f"warm batch {warm_s:.3f} s "
            f"({summary['images_per_second']:.1f} images/s, noise={args.noise})"
        )
        print(
            f"  agreement: mean relative error {summary['mean_relative_error']:.4f}, "
            f"top-1 match rate {summary['top1_match_rate']:.2f}"
        )
        print(
            f"  PCM programming events: {summary['programming_events']} "
            f"(tile cache: {summary['tile_cache_hits']} hits, "
            f"{summary['tile_cache_misses']} misses)"
        )
        dispatches = ", ".join(
            f"core {core}: {count}"
            for core, count in enumerate(summary["per_core_tile_dispatches"])
        )
        print(f"  tile GEMMs per crossbar core (workers={summary['workers']}): {dispatches}")
    return 0


def _model_entries(args: argparse.Namespace):
    """``[(name, workload)]`` from repeated ``--model``, or the legacy ``--network``."""
    entries = list(getattr(args, "models", None) or [(args.network, args.network)])
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise SystemExit(f"duplicate model names in --model: {', '.join(names)}")
    if args.mix is not None and len(args.mix) != len(entries):
        raise SystemExit(
            f"--mix needs one weight per model, got {len(args.mix)} weights "
            f"for {len(entries)} models"
        )
    return entries


def _built_entries(args: argparse.Namespace):
    """``[(name, network, weights)]`` with per-model synthetic weights.

    Models get staggered weight seeds (``--weight-seed + index``) so two
    hosted variants of the same workload still compute distinct functions —
    which is what makes the routing bitwise-check meaningful.
    """
    entries = []
    for index, (name, workload) in enumerate(_model_entries(args)):
        network = build_network(workload)
        weights = generate_random_weights(
            network, seed=args.weight_seed + index, scale=0.3
        )
        entries.append((name, network, weights))
    return entries


def _make_server(args: argparse.Namespace, built_entries) -> InferenceServer:
    """Build a (possibly multi-model) inference server."""
    config = config_from_args(args)
    noise_model = NOISE_PRESETS[args.noise]()
    breaker = None
    if getattr(args, "breaker", False):
        try:
            breaker = CircuitBreakerPolicy(
                failure_threshold=args.breaker_threshold,
                window=args.breaker_window,
                recovery_s=args.breaker_recovery_ms / 1e3,
            )
        except SimulationError as error:
            raise SystemExit(str(error)) from error
    dispatch_timeout_ms = getattr(args, "dispatch_timeout_ms", None)
    registry = ModelRegistry()
    for name, network, weights in built_entries:
        registry.add(
            name,
            network,
            weights,
            config=config,
            noise_model=noise_model,
            executor=args.executor,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1e3,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            slo_s=args.slo_ms / 1e3,
            dispatch_timeout_s=(
                None if dispatch_timeout_ms is None else dispatch_timeout_ms / 1e3
            ),
            max_attempts=getattr(args, "max_retries", 2) + 1,
            breaker=breaker,
            faults=getattr(args, "inject_faults", None),
        )
    trace_sample = getattr(args, "trace_sample", 1.0)
    return InferenceServer(
        registry=registry,
        tracing=trace_sample > 0,
        trace_sample=trace_sample,
        slow_ms=getattr(args, "slow_ms", None),
    )


def _export_trace(args: argparse.Namespace, server: Optional[InferenceServer]) -> None:
    """Honour ``--trace-out`` after a serving run (no-op without the flag)."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return
    if server is None or server.tracer is None:
        print(
            "--trace-out ignored: no local tracer "
            "(tracing disabled or remote --url target)",
            file=sys.stderr,
        )
        return
    traces = server.export_trace(trace_out)
    # stderr, so `--json` stdout stays machine-parseable.
    print(f"wrote {traces} request traces to {trace_out}", file=sys.stderr)


def _build_traffic(args: argparse.Namespace, built_entries, num_requests: int):
    """Per-request model schedule + interleaved images for synthetic traffic.

    Returns ``(schedule, images, images_by_model)``; ``schedule`` is ``None``
    for a single-model session (requests then route to the default model,
    exactly like the pre-multi-model CLI).
    """
    if num_requests < 1:
        raise SystemExit(f"--requests must be >= 1, got {num_requests}")
    names = [name for name, _, _ in built_entries]
    shapes = {name: network.input_shape.as_tuple() for name, network, _ in built_entries}
    if len(names) == 1:
        rng = np.random.default_rng(args.image_seed)
        images = rng.uniform(0.0, 1.0, (num_requests,) + shapes[names[0]])
        return None, images, {names[0]: images}
    schedule = mixed_model_schedule(
        names, num_requests, weights=args.mix, seed=args.arrival_seed
    )
    images_by_model = {}
    for index, name in enumerate(names):
        rng = np.random.default_rng(args.image_seed + index)
        count = schedule.count(name)
        images_by_model[name] = rng.uniform(0.0, 1.0, (count,) + shapes[name])
    cursors = {name: iter(images_by_model[name]) for name in names}
    images = [next(cursors[name]) for name in schedule]
    return schedule, images, images_by_model


def _direct_references(args, built_entries, images_by_model):
    """Per-model direct ``run_batch`` references for bitwise verification.

    None when verification does not apply (a noise model makes served noise
    streams differ from one monolithic batch).
    """
    if args.noise != "none":
        return None
    config = config_from_args(args)
    return {
        name: FunctionalInferenceEngine(network, weights, config).run_batch(
            images_by_model[name]
        )
        for name, network, weights in built_entries
        if len(images_by_model[name])
    }


def _verify_served_outputs(directs, report, schedule) -> Optional[bool]:
    """Bitwise check of served outputs vs the precomputed direct references.

    Returns None when the check does not apply (no reference, or open-loop
    shedding dropped requests so the output rows no longer line up 1:1).
    """
    by_model = _verify_by_model(directs, report, schedule)
    if by_model is None:
        return None
    return all(by_model.values())


def _cross_model_telemetry(report, schedule) -> Dict[str, object]:
    """Whole-run latency/batch/queue numbers for the serve/loadgen summaries.

    Single-model runs use the server's own telemetry (delivery-inclusive
    latency).  Multi-model runs merge the per-model batch/queue counters and
    take the latency percentiles from the client side — each model's server
    telemetry describes only its own traffic, so presenting the default
    model's numbers as whole-run figures would be misleading.
    """
    if schedule is None:
        telemetry = report.server["telemetry"]
        return {
            "latency_p50_s": telemetry["latency_p50_s"],
            "latency_p95_s": telemetry["latency_p95_s"],
            "latency_p99_s": telemetry["latency_p99_s"],
            "batch_size_histogram": telemetry["batch_size_histogram"],
            "mean_batch_size": telemetry["mean_batch_size"],
            "queue_depth_max": telemetry["queue_depth_max"],
        }
    histogram: Counter = Counter()
    depth_max = 0
    for model_stats in report.server["models"].values():
        telemetry = model_stats["telemetry"]
        histogram.update(
            {int(size): count for size, count in telemetry["batch_size_histogram"].items()}
        )
        depth_max = max(depth_max, telemetry["queue_depth_max"])
    batches = sum(histogram.values())
    batched_requests = sum(size * count for size, count in histogram.items())
    return {
        "latency_p50_s": report.client_latency["latency_p50_s"],
        "latency_p95_s": report.client_latency["latency_p95_s"],
        "latency_p99_s": report.client_latency["latency_p99_s"],
        "batch_size_histogram": dict(sorted(histogram.items())),
        "mean_batch_size": batched_requests / batches if batches else 0.0,
        "queue_depth_max": depth_max,
    }


def _cross_model_pool(report, schedule):
    """``(per_core_tile_dispatches, replicas)`` summed over every model's pool."""
    if schedule is None:
        pool = report.server["pool"]
        return list(pool.get("per_core_tile_dispatches", ())), pool.get("replicas")
    dispatches: Optional[tuple] = None
    replicas = 0
    for model_stats in report.server["models"].values():
        pool = model_stats["pool"]
        replicas += pool.get("replicas") or 0
        per_core = tuple(pool.get("per_core_tile_dispatches", ()))
        if not per_core:
            continue  # a model that served nothing has no per-core counters
        if dispatches is None:
            dispatches = per_core
        else:
            dispatches = tuple(a + b for a, b in zip(dispatches, per_core))
    return list(dispatches or ()), replicas


def _verify_by_model(directs, report, schedule) -> Optional[Dict[str, bool]]:
    """Per-model bitwise verdicts (see :func:`_verify_served_outputs`).

    Models that received zero requests have no reference and therefore no
    verdict — look them up with ``.get(name)`` (``None`` renders as "n/a").
    """
    if directs is None or report.rejected:
        return None
    if schedule is None:
        (name, direct), = directs.items()
        return {name: bool(np.array_equal(report.outputs, direct))}
    verdicts = {}
    for name, direct in directs.items():
        rows = [report.outputs[i] for i, n in enumerate(schedule) if n == name]
        served = np.stack(rows) if rows else np.empty((0, 0))
        verdicts[name] = bool(np.array_equal(served, direct))
    return verdicts


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """``serve --http PORT``: expose the server over a socket until stopped."""
    built = _built_entries(args)
    server = _make_server(args, built)
    hosted = ", ".join(name for name, _, _ in built)
    with server:
        with AsyncServeHTTPServer(
            server,
            host=args.host,
            port=args.http,
            allow_shutdown=args.allow_remote_shutdown,
        ) as front:
            if args.ready_file:
                with open(args.ready_file, "w") as handle:
                    handle.write(front.url + "\n")
            print(
                f"serving {hosted} (executor={args.executor}, "
                f"policy={args.policy}) at {front.url}"
            )
            print(f"  POST {front.url}/v1/infer    — single image or batch (optional 'model')")
            print(
                f"  POST {front.url}/v1/infer    — ... with 'stream': true for "
                "NDJSON streaming, 'request_id' for SSE progress"
            )
            print(f"  GET  {front.url}/v1/infer/ID/events — SSE progress stream")
            print(f"  GET  {front.url}/v1/models   — hosted-model listing")
            print(f"  GET  {front.url}/v1/stats    — SLO telemetry snapshot (?model=NAME)")
            print(f"  GET  {front.url}/metrics     — Prometheus text exposition")
            if server.tracer is not None:
                print(f"  GET  {front.url}/v1/trace/ID — one request trace as JSON")
            print(f"  GET  {front.url}/healthz     — liveness probe")
            if args.allow_remote_shutdown:
                print(f"  POST {front.url}/v1/shutdown — stop the server")

            # Graceful shutdown: SIGTERM (orchestrators) and SIGINT (Ctrl-C)
            # flip the front-end's shutdown flag; the context managers below
            # then stop accepting connections, drain the admission queues,
            # finish in-flight batches and join the dispatch threads —
            # exiting 0 with final telemetry, not mid-flight.
            def _graceful_shutdown(signum, frame):
                print(
                    f"received {signal.Signals(signum).name}, draining and "
                    "shutting down"
                )
                front.request_shutdown()

            previous_handlers = {}
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous_handlers[signum] = signal.signal(
                        signum, _graceful_shutdown
                    )
                except ValueError:
                    pass  # not the main thread (embedded/test use): skip
            try:
                front.wait(args.duration)
            except KeyboardInterrupt:
                print("interrupted, shutting down")
            finally:
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
        final_stats = server.stats()
    _export_trace(args, server)
    for name, model_stats in final_stats["models"].items():
        telemetry = model_stats["telemetry"]
        faults = (model_stats.get("pool") or {}).get("faults") or {}
        robustness = ""
        if faults.get("replica_restarts") or telemetry.get("requests_failed"):
            robustness = (
                f", replica restarts {faults.get('replica_restarts', 0)}, "
                f"failed {telemetry.get('requests_failed', 0)}"
            )
        print(
            f"{name}: served {telemetry['requests_completed']} requests "
            f"(p99 {telemetry['latency_p99_s'] * 1e3:.2f} ms, "
            f"mean batch {telemetry['mean_batch_size']:.2f}, "
            f"replicas {model_stats['replicas']}"
            f"{robustness})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http is not None:
        return _cmd_serve_http(args)
    built = _built_entries(args)
    schedule, images, images_by_model = _build_traffic(args, built, args.requests)
    arrivals = ARRIVAL_PROCESSES[args.arrival](args.rate, args.requests, seed=args.arrival_seed)
    with _make_server(args, built) as server:
        report = LoadGenerator(server).run_open_loop(images, arrivals, models=schedule)
    _export_trace(args, server)
    directs = _direct_references(args, built, images_by_model)
    by_model = _verify_by_model(directs, report, schedule)
    bitwise = None if by_model is None else all(by_model.values())

    telemetry = _cross_model_telemetry(report, schedule)
    dispatches, replicas = _cross_model_pool(report, schedule)
    summary = {
        "network": args.network if schedule is None else None,
        "models": {
            name: {
                "network": model_stats["network"],
                "requests": model_stats["telemetry"]["requests_completed"],
                "replicas": model_stats["replicas"],
                "bitwise_match_vs_run_batch": None if by_model is None else by_model.get(name),
            }
            for name, model_stats in report.server["models"].items()
        },
        "executor": str(args.executor),
        "arrival": args.arrival,
        "rate_rps": args.rate,
        "requests": report.requests,
        "achieved_rps": report.achieved_rps,
        "latency_p50_ms": telemetry["latency_p50_s"] * 1e3,
        "latency_p95_ms": telemetry["latency_p95_s"] * 1e3,
        "latency_p99_ms": telemetry["latency_p99_s"] * 1e3,
        "mean_batch_size": telemetry["mean_batch_size"],
        "batch_size_histogram": telemetry["batch_size_histogram"],
        "queue_depth_max": telemetry["queue_depth_max"],
        "per_core_tile_dispatches": dispatches,
        "replicas": replicas,
        "bitwise_match_vs_run_batch": bitwise,
    }
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
    else:
        hosted = args.network if schedule is None else ", ".join(summary["models"])
        print(
            f"{hosted}: served {summary['requests']} requests "
            f"({args.arrival} arrivals at {args.rate:.0f} rps, "
            f"executor={summary['executor']}) -> {summary['achieved_rps']:.1f} rps"
        )
        print(
            f"  latency p50/p95/p99: {summary['latency_p50_ms']:.2f} / "
            f"{summary['latency_p95_ms']:.2f} / {summary['latency_p99_ms']:.2f} ms"
        )
        histogram = ", ".join(
            f"{size}x{count}" for size, count in summary["batch_size_histogram"].items()
        )
        print(
            f"  micro-batches: mean size {summary['mean_batch_size']:.2f} "
            f"(histogram: {histogram}); max queue depth {summary['queue_depth_max']}"
        )
        dispatches = ", ".join(
            f"core {core}: {count}"
            for core, count in enumerate(summary["per_core_tile_dispatches"])
        )
        print(f"  tile GEMMs per crossbar core (all replicas): {dispatches}")
        if schedule is not None:
            for name, model_summary in summary["models"].items():
                verdict = {None: "n/a", True: "bitwise-identical", False: "MISMATCH"}[
                    model_summary["bitwise_match_vs_run_batch"]
                ]
                print(
                    f"  model {name} ({model_summary['network']}): "
                    f"{model_summary['requests']} requests, "
                    f"replicas {model_summary['replicas']}, "
                    f"outputs {verdict}"
                )
        if bitwise is not None:
            verdict = "bitwise-identical" if bitwise else "MISMATCH"
            print(f"  served outputs vs direct run_batch: {verdict}")
    return 0 if bitwise in (None, True) else 1


def _run_load_point(args: argparse.Namespace, generator: LoadGenerator, images, point, schedule):
    """One open-/closed-loop load point against an already-built target."""
    if args.mode == "open":
        arrivals = ARRIVAL_PROCESSES[args.arrival](
            point, args.requests, seed=args.arrival_seed
        )
        return generator.run_open_loop(
            images, arrivals, shed_on_overflow=args.shed, models=schedule
        )
    return generator.run_closed_loop(images, concurrency=int(point), models=schedule)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    if args.url:
        # The remote server owns the chip/executor/policy/weight choices, so
        # only each workload's input shape matters locally: build the images,
        # skip weight/noise construction and the bitwise reference.  With
        # --model the request schedule routes by name on the remote server.
        entries = _model_entries(args)
        shaped = [(name, build_network(workload), None) for name, workload in entries]
        schedule, images, _ = _build_traffic(args, shaped, args.requests)
        directs = None
    else:
        built = _built_entries(args)
        schedule, images, images_by_model = _build_traffic(args, built, args.requests)
        directs = _direct_references(args, built, images_by_model)
    encoding = "npy_b64" if args.encoding == "npy" else "json"
    points = args.rates if args.mode == "open" else args.concurrency
    rows = []
    last_server: Optional[InferenceServer] = None
    for point in points:
        if args.url:
            with HTTPInferenceClient(
                args.url,
                encoding=encoding,
                max_retries=args.max_retries,
                max_connections=getattr(args, "connections", 16),
            ) as client:
                report = _run_load_point(
                    args, LoadGenerator(client), images, point, schedule
                )
                transport = client.transport_stats()
        else:
            with _make_server(args, built) as server:
                report = _run_load_point(
                    args, LoadGenerator(server), images, point, schedule
                )
            last_server = server
        bitwise = _verify_served_outputs(directs, report, schedule)
        telemetry = _cross_model_telemetry(report, schedule)
        # Against a remote server the telemetry snapshot is cumulative over
        # the server's whole lifetime (other points, other clients), so the
        # per-point latency columns come from this run's client-side samples
        # instead; multi-model runs also use client-side latency (server
        # telemetry is per model); locally a single-model point gets a fresh
        # server and the (delivery-inclusive) server-side numbers are the
        # better ones.
        latency_source = (
            report.client_latency if (args.url or schedule is not None) else telemetry
        )
        row = {
            "load": point if args.mode == "open" else int(point),
            "requests": report.requests,
            "rejected": report.rejected,
            "achieved_rps": report.achieved_rps,
            "latency_p50_ms": latency_source["latency_p50_s"] * 1e3,
            "latency_p99_ms": latency_source["latency_p99_s"] * 1e3,
            "mean_batch_size": telemetry["mean_batch_size"],
            "queue_depth_max": telemetry["queue_depth_max"],
            "bitwise_match_vs_run_batch": bitwise,
        }
        if args.url:
            # How hard the keep-alive pool worked: dials vs reuses shows
            # whether --connections actually bounded the socket count.
            row["transport"] = transport
        rows.append(row)
    # Each local load point gets a fresh server, so the exported trace covers
    # the last point of the sweep (a remote --url target has no local tracer).
    _export_trace(args, last_server)
    if args.json:
        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "executor": str(args.executor),
                    "url": args.url,
                    "points": rows,
                },
                indent=2,
                default=float,
            )
        )
    else:
        load_header = "rate_rps" if args.mode == "open" else "clients"
        target = args.url if args.url else f"executor={args.executor}"
        hosted = (
            args.network
            if schedule is None
            else ", ".join(name for name, _ in _model_entries(args))
        )
        print(
            f"{hosted}: {args.mode}-loop sweep, {target}, "
            f"{args.requests} requests/point"
        )
        print(
            f"  {load_header:>9s} {'rps':>8s} {'p50_ms':>8s} {'p99_ms':>8s} "
            f"{'batch':>6s} {'depth':>6s} {'shed':>5s} {'match':>6s}"
        )
        for row in rows:
            match = {None: "n/a", True: "yes", False: "NO"}[
                row["bitwise_match_vs_run_batch"]
            ]
            print(
                f"  {row['load']:>9.0f} {row['achieved_rps']:>8.1f} "
                f"{row['latency_p50_ms']:>8.2f} {row['latency_p99_ms']:>8.2f} "
                f"{row['mean_batch_size']:>6.2f} {row['queue_depth_max']:>6d} "
                f"{row['rejected']:>5d} {match:>6s}"
            )
    failed = any(row["bitwise_match_vs_run_batch"] is False for row in rows)
    return 1 if failed else 0


def _cmd_workloads(_: argparse.Namespace) -> int:
    for name in sorted(WORKLOADS):
        network = WORKLOADS[name]()
        print(
            f"{name:<14s} {network.total_macs / 1e9:7.2f} GMAC   "
            f"{network.total_weights / 1e6:7.2f} M params   "
            f"{len(network.crossbar_layers):3d} crossbar layers"
        )
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.report import format_report, report_from_file

    try:
        summary = report_from_file(args.trace_file, top=args.top)
    except OSError as error:
        raise SystemExit(f"cannot read {args.trace_file!r}: {error}") from error
    except SimulationError as error:
        raise SystemExit(str(error)) from error
    if args.json:
        print(json.dumps(summary, indent=2, default=float))
    else:
        print(format_report(summary))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import format_json, format_text, run_lint

    paths = args.paths or [Path(__file__).resolve().parent]
    select = (
        [code for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    report = run_lint(paths, select=select)
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report, show_suppressed=args.show_suppressed))
    return 1 if report.unsuppressed else 0


COMMANDS = {
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "optimize": _cmd_optimize,
    "figure": _cmd_figure,
    "infer": _cmd_infer,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "workloads": _cmd_workloads,
    "trace-report": _cmd_trace_report,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
