"""Unified metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` per server collects every subsystem's numbers —
`ServeTelemetry`, `EngineWorkerPool`, `CircuitBreaker`, and the
accelerator's functional statistics all register here — and renders them two
ways: Prometheus text exposition format 0.0.4 (``GET /metrics``) and JSON
(inside ``GET /v1/stats``).

Two registration styles:

* **Instruments** (:meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge`
  / :meth:`~MetricsRegistry.histogram`): live objects the caller increments /
  sets / observes.  Families support labels via ``.labels(name=value)``;
  zero-label families can be used directly.  Creation is idempotent — asking
  for an existing name with the same type and label names returns the
  existing family.
* **Collectors** (:meth:`MetricsRegistry.register_collector`): a callable
  evaluated at scrape time returning family dicts
  (``{"name", "type", "help", "samples": [(labels_dict, value), ...]}``).
  This is how subsystems that already keep their own counters under their
  own locks export without double bookkeeping.  Collector families with the
  same name (e.g. accelerator counters from several replicas) are merged at
  render time so ``# HELP``/``# TYPE`` stay unique per family.

Everything is thread-safe; instrument updates take one short lock per family.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.concurrency import make_lock, thread_shared
from repro.errors import SimulationError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "escape_label_value",
    "format_value",
]

#: Content type of the ``/metrics`` response.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets, tuned for sub-millisecond-to-seconds latencies.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: (suffix, labels, value) — one exposition line of a family.
_Sample = Tuple[str, Dict[str, str], float]


def escape_label_value(value: object) -> str:
    """Escape a label value per the text exposition format."""
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: object) -> str:
    """Render a sample value: integers without a decimal point, IEEE specials
    in Prometheus spelling."""
    number = float(value)
    if number != number:
        return "NaN"
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_label_set(labels: Mapping[str, object]) -> str:
    """``{a="x",b="y"}`` with sorted names and escaped values ('' if empty)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _validate_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise SimulationError(f"invalid metric name: {name!r}")
    return name


def _validate_label_names(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(str(name) for name in labelnames)
    for name in names:
        if not _LABEL_NAME_RE.match(name) or name == "le":
            raise SimulationError(f"invalid label name: {name!r}")
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate label names: {names!r}")
    return names


# ---------------------------------------------------------------------------
# instrument children (one per label-value combination)
# ---------------------------------------------------------------------------


class _CounterChild:
    __slots__ = ("_family", "_value")

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SimulationError(f"counter increments must be >= 0, got {amount}")
        with self._family._lock:
            self._value += float(amount)

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._value

    def _samples(self, labels: Dict[str, str]) -> List[_Sample]:
        with self._family._lock:
            return [("", labels, self._value)]


class _GaugeChild:
    __slots__ = ("_family", "_value")

    def __init__(self, family: "MetricFamily") -> None:
        self._family = family
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self._value -= float(amount)

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._value

    def _samples(self, labels: Dict[str, str]) -> List[_Sample]:
        with self._family._lock:
            return [("", labels, self._value)]


class _HistogramChild:
    __slots__ = ("_family", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, family: "Histogram") -> None:
        self._family = family
        self._bounds = family.buckets
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        number = float(value)
        with self._family._lock:
            self._count += 1
            self._sum += number
            index = bisect_left(self._bounds, number)
            if index < len(self._bounds):
                self._counts[index] += 1

    @property
    def count(self) -> int:
        with self._family._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._family._lock:
            return self._sum

    def _samples(self, labels: Dict[str, str]) -> List[_Sample]:
        with self._family._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        samples: List[_Sample] = []
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            samples.append(
                ("_bucket", {**labels, "le": format_value(bound)}, float(cumulative))
            )
        samples.append(("_bucket", {**labels, "le": "+Inf"}, float(total)))
        samples.append(("_sum", dict(labels), acc))
        samples.append(("_count", dict(labels), float(total)))
        return samples


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class MetricFamily:
    """A named metric with zero or more labelled children."""

    metric_type = "untyped"

    def __init__(self, name: str, documentation: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_metric_name(str(name))
        self.documentation = str(documentation)
        self.labelnames = _validate_label_names(labelnames)
        self._lock = make_lock("MetricFamily._lock")
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues: object):
        """The child for this label-value combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise SimulationError(
                f"metric {self.name} expects labels {sorted(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise SimulationError(
                f"metric {self.name} has labels {sorted(self.labelnames)}; "
                "use .labels(...) first"
            )
        return self.labels()

    def collect(self) -> Dict[str, object]:
        """Normalized family dict: ``{name, type, help, samples}``."""
        with self._lock:
            children = list(self._children.items())
        samples: List[_Sample] = []
        for key, child in children:
            labels = dict(zip(self.labelnames, key))
            samples.extend(child._samples(labels))
        return {
            "name": self.name,
            "type": self.metric_type,
            "help": self.documentation,
            "samples": samples,
        }


class Counter(MetricFamily):
    """Monotonically increasing count."""

    metric_type = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(MetricFamily):
    """A value that can go up and down."""

    metric_type = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(MetricFamily):
    """Cumulative-bucket histogram (Prometheus classic histogram)."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS_S))
        if not bounds:
            raise SimulationError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise SimulationError(f"histogram buckets must be strictly increasing: {bounds}")
        super().__init__(name, documentation, labelnames)
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@thread_shared
class MetricsRegistry:
    """Thread-safe home for every metric family plus scrape-time collectors."""

    def __init__(self) -> None:
        self._lock = make_lock("MetricsRegistry._lock")
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], Iterable[Dict[str, object]]]] = []

    # ------------------------------------------------------------- registration
    def _get_or_create(self, cls, name, documentation, labelnames, **kwargs) -> MetricFamily:
        labelnames = _validate_label_names(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise SimulationError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type} with labels {existing.labelnames}"
                    )
                return existing
            family = cls(name, documentation, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, documentation: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, documentation, labelnames)

    def gauge(self, name: str, documentation: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, documentation, labelnames)

    def histogram(
        self,
        name: str,
        documentation: str,
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, documentation, labelnames, buckets=buckets
        )

    def register_collector(
        self, collector: Callable[[], Iterable[Dict[str, object]]]
    ) -> None:
        """Register a scrape-time callable returning family dicts
        (``{"name", "type", "help", "samples": [(labels, value), ...]}``)."""
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------ scraping
    def collect(self) -> List[Dict[str, object]]:
        """Every family (instruments + collectors), merged by name, sorted."""
        with self._lock:
            families = list(self._families.values())
            collectors = list(self._collectors)
        merged: Dict[str, Dict[str, object]] = {}
        ordered: List[str] = []

        def _absorb(family: Dict[str, object], samples: List[_Sample]) -> None:
            name = _validate_metric_name(str(family["name"]))
            slot = merged.get(name)
            if slot is None:
                merged[name] = {
                    "name": name,
                    "type": str(family.get("type", "untyped")),
                    "help": str(family.get("help", "")),
                    "samples": list(samples),
                }
                ordered.append(name)
            else:
                slot["samples"].extend(samples)

        for family in families:
            collected = family.collect()
            _absorb(collected, collected["samples"])
        for collector in collectors:
            for family in collector():
                samples = [
                    ("", dict(labels), float(value))
                    for labels, value in family.get("samples", ())
                ]
                _absorb(family, samples)
        return [merged[name] for name in sorted(ordered)]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (the ``/metrics`` body)."""
        lines: List[str] = []
        for family in self.collect():
            name = family["name"]
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['type']}")
            for suffix, labels, value in family["samples"]:
                lines.append(
                    f"{name}{suffix}{render_label_set(labels)} {format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def render_json(self) -> Dict[str, object]:
        """JSON view of the same families (embedded in ``GET /v1/stats``)."""
        payload: Dict[str, object] = {}
        for family in self.collect():
            payload[family["name"]] = {
                "type": family["type"],
                "help": family["help"],
                "samples": [
                    {
                        "name": f"{family['name']}{suffix}",
                        "labels": dict(labels),
                        "value": float(value),
                    }
                    for suffix, labels, value in family["samples"]
                ],
            }
        return payload
