"""Unified metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` per server collects every subsystem's numbers —
`ServeTelemetry`, the HTTP front end, `EngineWorkerPool`, `CircuitBreaker`,
the tracer and the accelerator's functional statistics all register here —
and renders them two ways: Prometheus text exposition format 0.0.4
(``GET /metrics``) and JSON (inside ``GET /v1/stats``).

Every subsystem registers a *collector*
(:meth:`MetricsRegistry.register_collector`): a callable evaluated at scrape
time returning family dicts
(``{"name", "type", "help", "samples": [(labels_dict, value), ...]}``).  The
subsystems keep their own counters under their own locks, so nothing is
bookkept twice.  Collector families with the same name (e.g. accelerator
counters from several replicas) are merged at render time so
``# HELP``/``# TYPE`` stay unique per family.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from repro.concurrency import make_lock, thread_shared
from repro.errors import SimulationError

__all__ = [
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "escape_label_value",
    "format_value",
]

#: Content type of the ``/metrics`` response.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: (labels, value) — one exposition line of a family.
_Sample = Tuple[Dict[str, str], float]


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


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@thread_shared
class MetricsRegistry:
    """Thread-safe home for every scrape-time collector."""

    def __init__(self) -> None:
        self._lock = make_lock("MetricsRegistry._lock")
        self._collectors: List[Callable[[], Iterable[Dict[str, object]]]] = []

    # ------------------------------------------------------------- registration
    def register_collector(
        self, collector: Callable[[], Iterable[Dict[str, object]]]
    ) -> None:
        """Register a scrape-time callable returning family dicts
        (``{"name", "type", "help", "samples": [(labels, value), ...]}``)."""
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------ scraping
    def collect(self) -> List[Dict[str, object]]:
        """Every collector's families, merged by name, sorted."""
        with self._lock:
            collectors = list(self._collectors)
        merged: Dict[str, Dict[str, object]] = {}
        ordered: List[str] = []

        def _absorb(family: Dict[str, object]) -> None:
            name = _validate_metric_name(str(family["name"]))
            samples: List[_Sample] = [
                (dict(labels), float(value)) for labels, value in family.get("samples", ())
            ]
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

        for collector in collectors:
            for family in collector():
                _absorb(family)
        return [merged[name] for name in sorted(ordered)]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (the ``/metrics`` body)."""
        lines: List[str] = []
        for family in self.collect():
            name = family["name"]
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['type']}")
            for labels, value in family["samples"]:
                lines.append(f"{name}{render_label_set(labels)} {format_value(value)}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> Dict[str, object]:
        """JSON view of the same families (embedded in ``GET /v1/stats``)."""
        payload: Dict[str, object] = {}
        for family in self.collect():
            payload[family["name"]] = {
                "type": family["type"],
                "help": family["help"],
                "samples": [
                    {"name": family["name"], "labels": dict(labels), "value": value}
                    for labels, value in family["samples"]
                ],
            }
        return payload
