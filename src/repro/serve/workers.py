"""Executor specifications and the engine-replica worker pool.

Serving parallelism in this subsystem is *data parallelism over engine
replicas*: every worker owns a full :class:`~repro.core.inference.
FunctionalInferenceEngine` (network + weights + programmed PCM tiles), and
micro-batches are dispatched to whichever replica is free.  Three executor
kinds are supported, spelled the same way everywhere (the ``serve`` /
``loadgen`` commands and ``infer --workers`` share :func:`parse_executor_spec`):

``serial``
    One replica, executed inline on the calling thread.
``thread`` / ``thread:N``
    ``N`` replicas served by a thread pool.  Replicas are checked out of a
    free-list per dispatch, so no engine is ever used by two threads at once.
``process`` / ``process:N``
    ``N`` replicas, each living in its own worker *process*.  The replica
    specification (network, weights, chip config, noise model, seed) is
    serialized to every worker, which rebuilds — and re-programs — its own
    layers at start-up.  Because the per-tile noise seeds are
    content-keyed (see :mod:`repro.core.accelerator`), every replica programs
    bitwise-identical tiles; in deterministic mode the pool's outputs are
    bitwise identical to a single local engine.  This is the executor that
    finally scales sharded functional inference past the GIL.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import signal
import threading
import time
from collections import Counter
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.concurrency import make_lock, thread_shared
from repro.config.chip import ChipConfig
from repro.core.accelerator import accelerator_metric_families
from repro.core.inference import FunctionalInferenceEngine
from repro.crossbar.noise import CrossbarNoiseModel
from repro.errors import (
    CorruptResultError,
    ReplicaCrashError,
    ReplicaFailureError,
    ReplicaTimeoutError,
    ServeError,
    SimulationError,
)
from repro.nn.network import Network
from repro.obs.tracing import DispatchTraceRecorder, replica_span_records
from repro.serve.faults import FaultAction, FaultInjector

#: Executor kinds understood by :func:`parse_executor_spec`.
EXECUTOR_KINDS = ("serial", "thread", "process")

#: Default replica count when a bare ``thread`` / ``process`` spelling leaves
#: it implicit and no contextual default applies (bounded so a bare spelling
#: on a many-core host cannot fork dozens of replicas by accident).
DEFAULT_REPLICAS = max(2, min(4, os.cpu_count() or 2))


@dataclass(frozen=True)
class ExecutorSpec:
    """A parsed executor specification.

    ``count is None`` means "use the context's default": the replica pool maps
    bare ``thread`` / ``process`` to :data:`DEFAULT_REPLICAS`.
    """

    kind: str
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in EXECUTOR_KINDS:
            raise SimulationError(
                f"executor kind must be one of {EXECUTOR_KINDS}, got {self.kind!r}"
            )
        if self.kind == "serial":
            object.__setattr__(self, "count", 1)
        if self.count is not None and self.count < 1:
            raise SimulationError(
                f"executor worker count must be >= 1, got {self.count}"
            )

    def resolved_count(self, default: int = DEFAULT_REPLICAS) -> int:
        """The worker count, with ``default`` filling an implicit spelling."""
        return int(self.count) if self.count is not None else max(int(default), 1)

    def __str__(self) -> str:
        if self.kind == "serial" or self.count is None:
            return self.kind
        return f"{self.kind}:{self.count}"


def parse_executor_spec(value: Union[str, int, "ExecutorSpec"]) -> ExecutorSpec:
    """Parse an executor spelling shared by ``serve`` and ``infer --workers``.

    Accepted spellings: ``"serial"``, ``"thread"``, ``"thread:N"``,
    ``"process"``, ``"process:N"`` and a bare positive integer ``N``, which
    means ``"thread:N"``.  Anything else raises a
    :class:`~repro.errors.SimulationError` naming the accepted forms.
    """
    if isinstance(value, ExecutorSpec):
        return value
    if isinstance(value, bool):
        raise SimulationError(_spec_error_message(value))
    if isinstance(value, int):
        if value < 1:
            raise SimulationError(_spec_error_message(value))
        return ExecutorSpec("thread", value)
    if not isinstance(value, str):
        raise SimulationError(_spec_error_message(value))

    text = value.strip()
    if text in EXECUTOR_KINDS:
        return ExecutorSpec(text, 1 if text == "serial" else None)
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        count = int(text)
        if count < 1:
            raise SimulationError(_spec_error_message(value))
        return ExecutorSpec("thread", count)
    kind, separator, suffix = text.partition(":")
    if separator and kind in ("thread", "process"):
        if not suffix.isdigit() or int(suffix) < 1:
            raise SimulationError(_spec_error_message(value))
        return ExecutorSpec(kind, int(suffix))
    raise SimulationError(_spec_error_message(value))


def _spec_error_message(value) -> str:
    return (
        f"invalid executor spec {value!r}: expected 'serial', 'thread', "
        "'thread:N', 'process', 'process:N' or a positive integer"
    )


#: How many times any :class:`EngineReplicaSpec` has been pickled in this
#: process.  The worker pool serializes each spec exactly once (the payload
#: is cached and reused across replica builds *and* supervision restarts);
#: this counter is the hook the regression test uses to prove it.
_SPEC_SERIALIZATIONS = 0


def spec_serialization_count() -> int:
    """Process-wide count of :class:`EngineReplicaSpec` pickle events."""
    return _SPEC_SERIALIZATIONS


@dataclass(frozen=True)
class EngineReplicaSpec:
    """Everything needed to (re)build an engine replica in any worker.

    The fields are plain dataclasses and numpy arrays, so the spec pickles
    cleanly into worker processes; :meth:`build` reconstructs the engine —
    including re-programming its PCM layers on first use.  Replicas built
    from the same spec share the accelerator seed, and per-tile noise streams
    are content-keyed, so deterministic outputs are identical across replicas.

    Serializing a spec is not cheap (the weights ride along), so the pool
    pickles it once and hands every worker the same cached bytes;
    :meth:`__getstate__` counts serializations to keep that guarantee tested.
    """

    network: Network
    weights: Dict[str, np.ndarray]
    config: Optional[ChipConfig] = None
    noise_model: Optional[CrossbarNoiseModel] = None
    seed: int = 0
    #: Optional representative input run through every replica at start-up so
    #: the one-time PCM tile programming does not land on the first request.
    warmup_image: Optional[np.ndarray] = None

    def __getstate__(self) -> Dict[str, object]:
        global _SPEC_SERIALIZATIONS
        _SPEC_SERIALIZATIONS += 1
        return dict(self.__dict__)

    def build(self) -> FunctionalInferenceEngine:
        engine = FunctionalInferenceEngine(
            self.network,
            dict(self.weights),
            self.config,
            noise_model=self.noise_model,
            seed=self.seed,
        )
        if self.warmup_image is not None:
            engine.run_batch(np.asarray(self.warmup_image, dtype=float)[None])
        return engine


# ---------------------------------------------------------------------------
# process-worker plumbing (module level so it pickles)
# ---------------------------------------------------------------------------

_WORKER_ENGINE: Optional[FunctionalInferenceEngine] = None
_WORKER_BASELINE: Dict[str, object] = {}

#: Per-process uniquifier for replica span ids: a batch retried on the same
#: worker (or two batches on one worker) must not reuse span ids.
_WORKER_SPAN_TOKEN = itertools.count()


def subtract_functional_statistics(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, object]:
    """``current - baseline``, counter-wise (tuples subtract elementwise)."""
    delta: Dict[str, object] = {}
    for key, value in current.items():
        base = baseline.get(key)
        if isinstance(value, tuple):
            base = base if isinstance(base, tuple) else (0,) * len(value)
            delta[key] = tuple(a - b for a, b in zip(value, base))
        else:
            delta[key] = value - (base or 0)
    return delta


def _process_worker_init(payload: Union[bytes, EngineReplicaSpec]) -> None:
    """Build this worker process's private engine replica (runs once).

    ``payload`` is normally the pool's cached ``pickle.dumps(spec)`` bytes —
    decoded here so the executor machinery never re-pickles the spec itself —
    but a raw spec is still accepted for direct use.

    The post-build statistics snapshot (which includes any warmup batch) is
    kept as this replica's baseline, so the counters reported back to the
    parent describe served traffic only.
    """
    global _WORKER_ENGINE, _WORKER_BASELINE
    spec = pickle.loads(payload) if isinstance(payload, bytes) else payload
    _WORKER_ENGINE = spec.build()
    _WORKER_BASELINE = _WORKER_ENGINE.accelerator.functional_statistics()


def _poison_outputs(outputs: np.ndarray) -> np.ndarray:
    """NaN-poison a copy of ``outputs`` (the ``corrupt`` fault payload)."""
    poisoned = np.array(outputs, dtype=float, copy=True)
    poisoned.reshape(-1)[0] = np.nan
    return poisoned


def _process_worker_run(
    images: np.ndarray,
    fault: Optional[FaultAction] = None,
    trace_contexts: Optional[List[Tuple[str, str]]] = None,
) -> Tuple[int, np.ndarray, Dict[str, object], List[Dict[str, object]]]:
    """Run one micro-batch on this process's replica.

    Returns ``(pid, outputs, stats, trace_records)`` — the traffic-only
    functional statistics snapshot (start-up baseline subtracted) rides along
    with every result so the parent can aggregate per-replica counters
    without a separate round-trip, and so do the replica-side span records
    when ``trace_contexts`` carries ``(trace_id, parent_span_id)`` pairs
    across the pickle boundary (see
    :func:`repro.obs.tracing.replica_span_records`; times are relative to
    this call's entry, on this process's own monotonic clock).

    ``fault`` (injected chaos, see :mod:`repro.serve.faults`) is applied
    *here*, inside the worker process, so an injected ``crash`` is a real
    SIGKILL mid-batch (the parent sees ``BrokenProcessPool``, exactly like a
    genuine OOM kill), ``hang``/``slow`` stall the worker for real, and
    ``corrupt`` returns NaN-poisoned outputs for the parent's validation to
    catch.
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always ran
        raise ServeError("process worker used before initialization")
    entry_s = time.monotonic()
    if fault is not None:
        if fault.kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind in ("hang", "slow"):
            time.sleep(fault.delay_s)
    outputs = _WORKER_ENGINE.run_batch(images)
    if fault is not None and fault.kind == "corrupt":
        outputs = _poison_outputs(outputs)
    stats = subtract_functional_statistics(
        _WORKER_ENGINE.accelerator.functional_statistics(), _WORKER_BASELINE
    )
    records: List[Dict[str, object]] = []
    if trace_contexts:
        records = replica_span_records(
            trace_contexts,
            os.getpid(),
            next(_WORKER_SPAN_TOKEN),
            0.0,
            time.monotonic() - entry_s,
            batch=int(np.asarray(images).shape[0]),
        )
    return os.getpid(), outputs, stats, records


def merge_functional_statistics(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum functional-statistics snapshots across engine replicas.

    Scalar counters add; the ``per_core_*`` tuples add elementwise.  An empty
    list yields an empty dict (no replica has executed yet).
    """
    merged: Dict[str, object] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, tuple):
                previous = merged.get(key, (0,) * len(value))
                merged[key] = tuple(a + b for a, b in zip(previous, value))
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


class _LocalReplica:
    """One in-process engine replica (``serial`` / ``thread`` executors).

    A thread cannot be SIGKILLed or interrupted mid-``run_batch``, so the
    ``crash`` and ``hang`` faults are *simulated* here: a crash raises
    :class:`~repro.errors.ReplicaCrashError` before touching the engine, and
    a hang sleeps (bounded by the dispatch timeout) then raises
    :class:`~repro.errors.ReplicaTimeoutError` — the same exceptions the
    supervision layer sees from a real process-replica death or timeout, so
    every retry/restart path is exercised without a process executor.
    """

    def __init__(self, spec: EngineReplicaSpec) -> None:
        self.engine = spec.build()
        # Traffic-only statistics: anything the build (warmup included)
        # accumulated is baseline, not served work.
        self.baseline = self.engine.accelerator.functional_statistics()

    def run(
        self,
        images: np.ndarray,
        timeout_s: Optional[float] = None,
        fault: Optional[FaultAction] = None,
        recorder: Optional[DispatchTraceRecorder] = None,
    ) -> np.ndarray:
        start_s = time.monotonic()
        if fault is not None:
            if fault.kind == "crash":
                raise ReplicaCrashError("injected crash (in-process replica)")
            if fault.kind == "hang":
                stall = fault.delay_s if timeout_s is None else min(fault.delay_s, timeout_s)
                time.sleep(stall)
                raise ReplicaTimeoutError(
                    f"injected hang: replica stalled past the "
                    f"{timeout_s if timeout_s is not None else fault.delay_s} s budget"
                )
            if fault.kind == "slow":
                time.sleep(fault.delay_s)
        outputs = self.engine.run_batch(images)
        if fault is not None and fault.kind == "corrupt":
            outputs = _poison_outputs(outputs)
        if recorder is not None and recorder.contexts:
            records = replica_span_records(
                recorder.contexts,
                os.getpid(),
                next(_WORKER_SPAN_TOKEN),
                0.0,
                time.monotonic() - start_s,
                batch=int(np.asarray(images).shape[0]),
            )
            recorder.add_replica_records(records, start_s)
        return outputs

    def statistics_delta(self) -> Dict[str, object]:
        return subtract_functional_statistics(
            self.engine.accelerator.functional_statistics(), self.baseline
        )

    def kill(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessReplica:
    """One engine replica living in its own worker process.

    Each replica owns a single-worker :class:`ProcessPoolExecutor`, so the
    pool can add and retire process replicas independently (the fixed-size
    executor of the original design could not grow or shrink).  Per-batch
    functional statistics ride back with every result and are pushed into the
    owning pool's pid-keyed sink, where they survive the replica's retirement.

    ``payload`` is the pool's cached ``pickle.dumps(spec)`` — serialized once
    per pool, not once per replica build, so supervision restarts do not
    re-pickle the (weight-laden) spec.
    """

    def __init__(self, payload: Union[bytes, EngineReplicaSpec], stats_sink) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=1, initializer=_process_worker_init, initargs=(payload,)
        )
        self._stats_sink = stats_sink

    def run(
        self,
        images: np.ndarray,
        timeout_s: Optional[float] = None,
        fault: Optional[FaultAction] = None,
        recorder: Optional[DispatchTraceRecorder] = None,
    ) -> np.ndarray:
        contexts = list(recorder.contexts) if recorder is not None else None
        # Worker span records carry times relative to the worker's own entry;
        # rebasing them on the submit timestamp keeps them on this process's
        # monotonic timeline (the small pickle/IPC lead is absorbed into the
        # replica_run span rather than appearing as an unexplained gap).
        base_s = time.monotonic()
        future = self._executor.submit(_process_worker_run, images, fault, contexts)
        try:
            pid, outputs, stats, records = future.result(timeout=timeout_s)
        except FuturesTimeoutError:
            # The worker is hung (or just too slow): it stays checked out of
            # the free list, so the supervisor can kill and replace it
            # without racing a late result.
            raise ReplicaTimeoutError(
                f"process replica did not answer within {timeout_s} s"
            ) from None
        self._stats_sink(pid, stats)
        if recorder is not None and records:
            recorder.add_replica_records(records, base_s)
        return outputs

    def statistics_delta(self) -> Optional[Dict[str, object]]:
        return None  # reported through the pid-keyed sink instead

    def pids(self) -> List[int]:
        """Live worker PIDs (empty until the lazy first dispatch forks)."""
        processes = getattr(self._executor, "_processes", None) or {}
        return [proc.pid for proc in list(processes.values()) if proc.pid is not None]

    def kill(self) -> None:
        """Hard-stop the worker process (used when it is hung or broken)."""
        processes = getattr(self._executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):
                pass  # already dead or already reaped; the goal is "not running"
        self._executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


@thread_shared
class EngineWorkerPool:
    """A fixed-size pool of :class:`FunctionalInferenceEngine` replicas.

    Parameters
    ----------
    replica:
        The serialized engine description every worker builds its replica
        from.
    executor:
        Executor spelling (see :func:`parse_executor_spec`) or a parsed
        :class:`ExecutorSpec`.
    dispatch_timeout_s:
        Per-dispatch answer budget.  A process replica that does not return
        within it is declared hung, hard-killed and replaced; ``None`` (the
        default) waits forever.  In-process replicas cannot be interrupted,
        so for ``thread`` pools the budget only bounds *injected* hangs.
    max_attempts:
        Dispatch attempts per micro-batch before it fails permanently with
        :class:`~repro.errors.ReplicaFailureError`.  Inference is pure, so a
        retried batch re-executes bitwise identically on the fresh replica.
    backoff_base_s, backoff_max_s:
        Exponential restart backoff: the ``k``-th consecutive replica failure
        waits ``min(backoff_base_s * 2**(k-1), backoff_max_s)`` before the
        replacement replica is built (a crash-looping workload must not
        hot-spin rebuilds).  A successful batch resets the streak.
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector` consulted once
        per dispatch.  ``None`` (the default) skips injection entirely.
    validate_outputs:
        Reject non-finite (NaN/Inf) replica outputs as
        :class:`~repro.errors.CorruptResultError`, which counts as a replica
        failure and triggers the same replace-and-retry path.
    sleep:
        Injectable backoff sleeper (tests pass a recorder to assert the
        exponential schedule without waiting it out).

    :meth:`submit` dispatches one micro-batch to one free replica and returns
    a future of the (batch, num_outputs) result; :meth:`run_batch_sharded`
    splits a large batch across all replicas and reassembles the outputs in
    input order.  The replica count is the executor's and never changes.

    **Supervision.**  A replica that crashes (``BrokenProcessPool``), hangs
    past ``dispatch_timeout_s``, or returns corrupted outputs is *retired* —
    never returned to the free list, which is the invariant that keeps one
    dead process from poisoning the pool — and replaced in place, so the
    pool's ``count`` never changes during a restart.  The failed batch is
    re-dispatched to another replica up to ``max_attempts`` times.
    """

    def __init__(
        self,
        replica: EngineReplicaSpec,
        executor: Union[str, int, ExecutorSpec] = "serial",
        *,
        dispatch_timeout_s: Optional[float] = None,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        fault_injector: Optional[FaultInjector] = None,
        validate_outputs: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.replica = replica
        self.spec = parse_executor_spec(executor)
        self.count = self.spec.resolved_count()
        if dispatch_timeout_s is not None and dispatch_timeout_s <= 0:
            raise SimulationError(
                f"dispatch_timeout_s must be > 0 (or None), got {dispatch_timeout_s}"
            )
        if int(max_attempts) < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise SimulationError("backoff_base_s and backoff_max_s must be >= 0")
        self.dispatch_timeout_s = dispatch_timeout_s
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.validate_outputs = bool(validate_outputs)
        self._injector = fault_injector
        self._sleep = sleep
        self._closed = False
        self._replicas: List[object] = []
        self._free: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        # _structure_lock guards the replica/retired lists and is only ever
        # held briefly.
        self._structure_lock = make_lock("EngineWorkerPool._structure_lock")
        self._retired_stats: List[Dict[str, object]] = []
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._process_stats: Dict[int, Dict[str, object]] = {}
        self._process_stats_lock = make_lock("EngineWorkerPool._process_stats_lock")
        # Supervision bookkeeping (kept off the no-fault hot path: a clean
        # dispatch touches none of this beyond one unlocked streak read).
        self._fault_lock = make_lock("EngineWorkerPool._fault_lock")
        self._failure_counts: Counter = Counter()
        self._retry_histogram: Counter = Counter()
        self._restarts = 0
        self._restarting = 0
        self._batches_failed = 0
        self._batches_recovered = 0
        self._consecutive_failures = 0
        self._last_backoff_s = 0.0

        # One serialization per spec, ever: the cached payload is reused by
        # every replica build *and* every supervision restart (the
        # double-pickle fix — the weight-laden spec used to be re-pickled by
        # ProcessPoolExecutor on each restart).
        self._replica_payload: Optional[bytes] = None
        if self.spec.kind == "process":
            self._replica_payload = pickle.dumps(self.replica)

        for _ in range(self.count):
            handle = self._build_replica()
            self._replicas.append(handle)
            self._free.put(handle)
        if self.spec.kind != "serial":
            # Dispatch threads block while their checked-out replica runs (for
            # process replicas: while waiting on the worker), so the pool
            # needs one thread per replica.
            self._dispatch = ThreadPoolExecutor(
                max_workers=self.count, thread_name_prefix="serve-replica"
            )

    def _build_replica(self):
        if self.spec.kind == "process":
            return _ProcessReplica(self._replica_payload, self._record_process_stats)
        return _LocalReplica(self.replica)

    def _record_process_stats(self, pid: int, stats: Dict[str, object]) -> None:
        with self._process_stats_lock:
            self._process_stats[pid] = stats

    # ------------------------------------------------------------------ dispatch
    def submit(
        self,
        images: np.ndarray,
        trace: Optional[DispatchTraceRecorder] = None,
    ) -> "Future[np.ndarray]":
        """Dispatch one micro-batch to one free replica; returns a future.

        ``trace`` (a :class:`~repro.obs.tracing.DispatchTraceRecorder`)
        carries the batch's span contexts down to the replica and collects
        retry/restart events plus replica-side child spans on the way back.
        """
        if self._closed:
            raise ServeError("worker pool is closed")
        images = np.asarray(images, dtype=float)
        if self._dispatch is not None:
            return self._dispatch.submit(self._checkout_run, images, trace)
        future: "Future[np.ndarray]" = Future()
        try:
            future.set_result(self._checkout_run(images, trace))
        except Exception as error:  # surface through the future like the pools do
            future.set_exception(error)
        return future

    def _checkout_run(
        self,
        images: np.ndarray,
        trace: Optional[DispatchTraceRecorder] = None,
    ) -> np.ndarray:
        attempt = 0
        while True:
            handle = self._free.get()
            attempt_start = time.monotonic()
            action = self._injector.next_action() if self._injector is not None else None
            if trace is not None:
                trace.mark_replica_start(attempt_start)
            try:
                outputs = handle.run(
                    images,
                    timeout_s=self.dispatch_timeout_s,
                    fault=action,
                    recorder=trace,
                )
                if self.validate_outputs and not np.all(np.isfinite(outputs)):
                    raise CorruptResultError(
                        "replica returned non-finite outputs (NaN/Inf); "
                        "result dropped and replica replaced"
                    )
            except (
                ReplicaCrashError,
                ReplicaTimeoutError,
                CorruptResultError,
                BrokenExecutor,
            ) as error:
                # Replica fault: the handle is never returned to the free
                # list (a broken process pool would poison every later
                # dispatch) — it is retired and replaced, and the batch is
                # re-dispatched while the attempt budget lasts.
                attempt += 1
                failure_ts = time.monotonic()
                self._record_replica_failure(error)
                if trace is not None:
                    trace.add_event(
                        "attempt",
                        attempt_start,
                        failure_ts,
                        attempt=attempt,
                        error=type(error).__name__,
                    )
                try:
                    self._replace_replica(handle)
                except Exception as rebuild_error:
                    self._record_batch_failed()
                    raise ReplicaFailureError(
                        f"replica restart failed after {type(error).__name__} "
                        f"({error}): {rebuild_error}",
                        attempts=attempt,
                        last_error=error,
                    ) from error
                finally:
                    if trace is not None:
                        trace.add_event(
                            "restart", failure_ts, time.monotonic(), attempt=attempt
                        )
                if attempt >= self.max_attempts:
                    self._record_batch_failed()
                    raise ReplicaFailureError(
                        f"micro-batch failed after {attempt} dispatch "
                        f"attempt(s); last error: {type(error).__name__}: {error}",
                        attempts=attempt,
                        last_error=error,
                    ) from error
                continue
            except BaseException:
                # Not a replica fault (e.g. a malformed batch): the replica
                # is healthy, so return it and surface the error unchanged.
                self._free.put(handle)
                raise
            self._free.put(handle)
            self._record_batch_success(attempt)
            return outputs

    # ------------------------------------------------------------------ supervision
    def _record_replica_failure(self, error: BaseException) -> None:
        with self._fault_lock:
            self._failure_counts[type(error).__name__] += 1

    def _record_batch_failed(self) -> None:
        with self._fault_lock:
            self._batches_failed += 1

    def _record_batch_success(self, attempt: int) -> None:
        if attempt == 0 and self._consecutive_failures == 0:
            return  # clean dispatch on a healthy pool: nothing to record
        with self._fault_lock:
            if attempt:
                self._batches_recovered += 1
                self._retry_histogram[attempt] += 1
            self._consecutive_failures = 0

    def _replace_replica(self, failed: object) -> None:
        """Retire ``failed`` and install a fresh replica in its slot.

        The swap is in place under ``_structure_lock``, so ``count`` is
        constant throughout, and a local replica's served traffic moves to
        ``_retired_stats`` so :meth:`statistics` keeps counting it.  The
        exponential backoff runs on the failing dispatch thread; healthy
        replicas keep serving meanwhile.
        """
        with self._fault_lock:
            self._consecutive_failures += 1
            streak = self._consecutive_failures
            self._restarting += 1
        try:
            delta = None
            try:
                delta = failed.statistics_delta()
            except Exception:  # repro: noqa[RPR105] - a dead process replica
                pass  # has no readable counters; losing its stats is the cost
            try:
                failed.kill()
            except Exception:  # repro: noqa[RPR105] - best-effort kill of an
                pass  # already-crashed replica; failure means it is gone
            backoff = min(
                self.backoff_base_s * (2 ** (streak - 1)), self.backoff_max_s
            )
            with self._fault_lock:
                self._last_backoff_s = backoff
            if backoff > 0:
                self._sleep(backoff)
            if self._closed:
                with self._structure_lock:
                    if failed in self._replicas:
                        self._replicas.remove(failed)
                        self.count = len(self._replicas)
                raise ServeError("worker pool closed during replica restart")
            replacement = self._build_replica()
            with self._structure_lock:
                if delta:
                    self._retired_stats.append(delta)
                try:
                    index = self._replicas.index(failed)
                except ValueError:
                    self._replicas.append(replacement)
                else:
                    self._replicas[index] = replacement
                self.count = len(self._replicas)
            self._free.put(replacement)
            with self._fault_lock:
                self._restarts += 1
        finally:
            with self._fault_lock:
                self._restarting -= 1

    @property
    def restarting(self) -> int:
        """Replica restarts in progress (a restarting model reports ``degraded``)."""
        with self._fault_lock:
            return self._restarting

    def replica_pids(self) -> List[int]:
        """Worker PIDs of live process replicas (empty for local kinds)."""
        with self._structure_lock:
            handles = list(self._replicas)
        pids: List[int] = []
        for handle in handles:
            getter = getattr(handle, "pids", None)
            if getter is not None:
                pids.extend(getter())
        return pids

    def fault_statistics(self) -> Dict[str, object]:
        """Supervision counters: failures, restarts, retries, injection."""
        with self._fault_lock:
            stats: Dict[str, object] = {
                "dispatch_timeout_s": self.dispatch_timeout_s,
                "max_attempts": self.max_attempts,
                "replica_failures": dict(sorted(self._failure_counts.items())),
                "replica_restarts": self._restarts,
                "restarting": self._restarting,
                "batches_failed": self._batches_failed,
                "batches_recovered": self._batches_recovered,
                "retry_histogram": {
                    int(k): v for k, v in sorted(self._retry_histogram.items())
                },
                "consecutive_failures": self._consecutive_failures,
                "last_backoff_s": self._last_backoff_s,
            }
        stats["injection"] = (
            self._injector.snapshot() if self._injector is not None else None
        )
        return stats

    def run_batch(self, images: np.ndarray) -> np.ndarray:
        """Run one batch on a single replica, synchronously."""
        return self.submit(images).result()

    def run_batch_sharded(self, images: np.ndarray) -> np.ndarray:
        """Split ``images`` across all replicas and reassemble in input order.

        This is the data-parallel path ``infer --workers process:N`` uses: each
        replica runs a contiguous chunk of the batch, and the chunk outputs are
        concatenated back in order, so deterministic results are bitwise
        identical to a single-engine :meth:`run_batch` of the whole batch.
        """
        images = np.asarray(images, dtype=float)
        chunks = [c for c in np.array_split(images, self.count) if c.shape[0] > 0]
        futures = [self.submit(chunk) for chunk in chunks]
        return np.concatenate([future.result() for future in futures], axis=0)

    # ------------------------------------------------------------------ stats
    def statistics(self) -> Dict[str, object]:
        """Aggregate *traffic-only* functional statistics across replicas.

        Whatever a replica accumulated while being built (including its
        warmup batch and the PCM tile programming it triggers) is treated as
        baseline and subtracted, so the counters describe served work and are
        comparable across executor kinds.  Replicas replaced after a fault
        keep contributing the traffic they served.  For process replicas the
        counters come from the snapshot piggybacked on each result, so
        replicas that have not executed a batch yet are invisible (the pool
        cannot reach into their address space) — which is consistent: a
        replica that never served contributes zero traffic.
        """
        if self.spec.kind == "process":
            with self._process_stats_lock:
                snapshots = list(self._process_stats.values())
        else:
            with self._structure_lock:
                handles = list(self._replicas)
                retired = list(self._retired_stats)
            snapshots = [handle.statistics_delta() for handle in handles] + retired
        merged = merge_functional_statistics([s for s in snapshots if s])
        merged["replicas"] = self.count
        merged["executor"] = str(self.spec)
        merged["faults"] = self.fault_statistics()
        return merged

    def register_metrics(self, registry, labels: Optional[Dict[str, str]] = None) -> None:
        """Export pool state into a :class:`repro.obs.MetricsRegistry`.

        Registers a scrape-time collector over :meth:`statistics`, so the
        replica count, the accelerator's merged functional counters (the
        paper's cost drivers: PCM programming events/energy/time, programmed-layer
        reads, per-core dispatch balance) and the supervision counters all
        land on ``/metrics`` without double bookkeeping.
        """
        base = dict(labels or {})

        def _family(name, metric_type, help_text, samples):
            return {"name": name, "type": metric_type, "help": help_text, "samples": samples}

        def _collect():
            stats = self.statistics()
            faults = stats.get("faults") or {}
            families = [
                _family(
                    "repro_replicas",
                    "gauge",
                    "Live engine replicas in the worker pool.",
                    [(base, float(stats.get("replicas", 0)))],
                ),
                _family(
                    "repro_replica_restarts_total",
                    "counter",
                    "Replica restarts performed by the supervisor.",
                    [(base, float(faults.get("replica_restarts", 0)))],
                ),
                _family(
                    "repro_batches_recovered_total",
                    "counter",
                    "Micro-batches recovered by dispatch retry.",
                    [(base, float(faults.get("batches_recovered", 0)))],
                ),
            ]
            failures = faults.get("replica_failures") or {}
            if failures:
                families.append(
                    _family(
                        "repro_replica_failures_total",
                        "counter",
                        "Replica failures by error type.",
                        [
                            ({**base, "error": error}, float(count))
                            for error, count in sorted(failures.items())
                        ],
                    )
                )
            families.extend(accelerator_metric_families(stats, base))
            return families

        registry.register_collector(_collect)

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the pool down (idempotent); pending futures complete first."""
        with self._structure_lock:
            if self._closed:
                return
            self._closed = True
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
        for handle in self._replicas:
            handle.close()

    def __enter__(self) -> "EngineWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
