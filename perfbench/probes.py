"""Spans recorded from outside the program, by wrapping its public callables.

:class:`SpanRecorder` replaces each probed function or method with a wrapper
that records ``(name, start, end, parent, op, span_id, size)`` in memory and
calls the original.  Spans nest through a per-thread stack, so a span's self time
is its duration minus the durations of its direct children.  The program
itself is not modified: :meth:`SpanRecorder.uninstall` restores every
original.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    span_id: int
    #: Rows of the first array argument, for probes that record it.
    size: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs) -> int:
    """Leading dimension of a method's first argument after ``self``."""
    return len(args[1])


def probe_points():
    """``(owner, attribute, span name, size)`` of every layer boundary probed."""
    import repro.core.accelerator as accelerator
    import repro.serve.http as http
    from repro.core.inference import FunctionalInferenceEngine
    from repro.core.sharding import ShardedExecutionEngine
    from repro.crossbar.array import CrossbarArray
    from repro.crossbar.signed import SignedCrossbarEngine
    from repro.photonics.ring import RingResonatorODAC
    from repro.serve.server import InferenceServer

    return [
        (FunctionalInferenceEngine, "run_batch", "run_batch", _rows),
        (accelerator.OpticalCrossbarAccelerator, "conv2d", "conv2d", None),
        (accelerator.OpticalCrossbarAccelerator, "linear", "linear", None),
        (accelerator, "im2col_matrix", "im2col", None),
        (ShardedExecutionEngine, "execute", "sharding.execute", None),
        (SignedCrossbarEngine, "__init__", "tile_init", None),
        (SignedCrossbarEngine, "program", "tile_program", None),
        (SignedCrossbarEngine, "matmul", "signed_matmul", None),
        (CrossbarArray, "matmul", "array_matmul", _rows),
        (RingResonatorODAC, "modulate", "odac_modulate", None),
        (InferenceServer, "submit", "submit", None),
        (http, "encode_array_b64", "codec", None),
        (http, "decode_array_b64", "codec", None),
    ]


class SpanRecorder:
    """Keeps every span in memory while its probes are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans recorded on this thread with operation id ``op``."""
        self._local.op = op

    def wrap(self, owner, attribute: str, name: str, size=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``size(args, kwargs)``, when given, is stored as the span's ``size``.
        """
        original = getattr(owner, attribute)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(original)
        def probed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    Span(
                        name,
                        start,
                        end,
                        parent,
                        getattr(local, "op", None),
                        span_id,
                        None if size is None else size(args, kwargs),
                    )
                )

        setattr(owner, attribute, probed)
        self._patches.append((owner, attribute, original))

    def install(self) -> "SpanRecorder":
        for owner, attribute, name, size in probe_points():
            self.wrap(owner, attribute, name, size)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total_s`` and ``self_s`` (total minus children)."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_time.get(span.span_id, 0.0)
    return summary


def layer_times(spans: List[Span], layer_names: List[str]) -> Dict[str, float]:
    """Total seconds per network layer over every ``run_batch`` in ``spans``.

    The accelerator's ``conv2d``/``linear`` calls made directly by a
    ``run_batch`` are attributed to the network's crossbar layers in call
    order.
    """
    batches = {span.span_id for span in spans if span.name == "run_batch"}
    calls: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent in batches and span.name in ("conv2d", "linear"):
            calls[span.parent].append(span)
    totals = dict.fromkeys(layer_names, 0.0)
    for layer_calls in calls.values():
        layer_calls.sort(key=lambda span: span.start)
        if len(layer_calls) != len(layer_names):
            raise ValueError(
                f"run_batch made {len(layer_calls)} layer calls, expected {len(layer_names)}"
            )
        for layer, span in zip(layer_names, layer_calls):
            totals[layer] += span.duration
    return totals
