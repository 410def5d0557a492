"""Labelled counters, gauges, and histograms for simulated runs.

The registry plays the role of Charm++'s Projections summary counters: a
cheap, always-consistent tally of *what happened* (events scheduled,
messages by protocol path, bytes by size bucket, launches per PE), as
opposed to the tracer's *when it happened* timeline.

The registry is an engine observer like :class:`~repro.sim.tracing.Tracer`:
``registry.attach(engine)`` subscribes it to the engine's hook events, and
its ``on_<event>`` methods below hold the whole counter catalogue (names
and labels).  A run without a registry pays one ``hooks is None`` test
per instrumented site and allocates nothing.

Label discipline
----------------
Metrics are keyed by ``(name, sorted label items)``.  Label values come
from small enumerable domains (pe index, protocol name, msg-size bucket);
a per-metric cardinality cap (default :data:`MAX_SERIES`) guards against a
bug introducing an unbounded label (e.g. a per-message id): past the cap,
samples are folded into a single ``(overflow)`` series instead of growing
memory without bound, and ``dropped_series`` records how many samples
were folded.  Each metric builds a label set's key once and caches it
(see docs/observability.md).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from typing import Any, Iterable, Optional

from ..sim.engine import Observer

__all__ = [
    "MAX_SERIES",
    "OVERFLOW_METRIC",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "size_bucket",
]

#: Per-metric cap on distinct label sets (series).
MAX_SERIES = 1024

#: Synthetic counter name under which the registry exposes how many label
#: sets each metric folded into its ``(overflow)`` series — present in
#: ``snapshot()`` / ``scalar_totals()`` only when folding happened, so a
#: cardinality bug is visible in the perf report instead of silent.
OVERFLOW_METRIC = "repro_metrics_overflow_total"

#: Power-of-4 byte buckets for message-size histograms: "64", "256", ...,
#: "(2^30)+" — coarse enough to stay readable, fine enough to separate the
#: eager / rendezvous / pipelined protocol regimes.
SIZE_BUCKETS = tuple(4 ** k for k in range(3, 16))

_OVERFLOW_KEY = (("_overflow", "true"),)


def size_bucket(size: float) -> str:
    """The histogram bucket label for a byte count (upper edge, or ``+inf``)."""
    idx = bisect_left(SIZE_BUCKETS, size)
    if idx >= len(SIZE_BUCKETS):
        return "+inf"
    return str(SIZE_BUCKETS[idx])


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared storage: one value cell per distinct label set."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", max_series: int = MAX_SERIES):
        self.name = name
        self.help = help
        self.max_series = max_series
        self.series: dict[tuple, Any] = {}
        self.dropped_series = 0
        self._overflow_warned = False
        # Label probe -> series key, for label sets that have a series.
        self._keys: dict[tuple, tuple] = {}

    def _cell_key(self, labels: dict) -> tuple:
        # The probe pairs each label with its value's type: ``pe=1`` and
        # ``pe=True`` hash equal but render as different series.
        try:
            probe = (*labels.items(), *map(type, labels.values()))
            key = self._keys.get(probe)
        except TypeError:  # an unhashable label value: no caching
            probe = key = None
        if key is not None:
            return key
        key = _label_key(labels)
        if key not in self.series and len(self.series) >= self.max_series:
            self.dropped_series += 1
            if not self._overflow_warned:
                # Warn once per metric: the first fold is the signal (an
                # unbounded label leaked in); repeating it per sample
                # would bury the run's output.
                self._overflow_warned = True
                warnings.warn(
                    f"metric {self.name!r} exceeded {self.max_series} label "
                    f"sets; folding further series into (overflow) — see "
                    f"{OVERFLOW_METRIC}", RuntimeWarning, stacklevel=4)
            # Not cached: every folded sample must reach this count.
            return _OVERFLOW_KEY
        if probe is not None and len(self._keys) < self.max_series:
            self._keys[probe] = key
        return key

    def snapshot(self) -> dict:
        out = {
            "kind": self.kind,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self.series.items())
            ],
        }
        if self.help:
            out["help"] = self.help
        if self.dropped_series:
            out["dropped_series"] = self.dropped_series
        return out


class Counter(_Metric):
    """A monotonically increasing sum (events, messages, bytes, seconds)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        self._add(value, labels)

    def _add(self, value: float, labels: dict) -> None:
        """:meth:`inc` with the labels as a dict."""
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        series = self.series
        key = self._cell_key(labels)
        series[key] = series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self.series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self.series.values())


class Gauge(_Metric):
    """A point-in-time level (queue depth, live frames); tracks the max seen."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._put(value, labels)

    def _put(self, value: float, labels: dict) -> None:
        """:meth:`set` with the labels as a dict."""
        key = self._cell_key(labels)
        cell = self.series.get(key)
        if cell is None:
            self.series[key] = {"value": value, "max": value}
        else:
            cell["value"] = value
            if value > cell["max"]:
                cell["max"] = value

    def value(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["value"] if cell else 0.0

    def max(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["max"] if cell else 0.0


class Histogram(_Metric):
    """Bucketed distribution; buckets are *upper edges* (last bucket +inf).

    Defaults to the message-size buckets of :data:`SIZE_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None,
                 max_series: int = MAX_SERIES):
        super().__init__(name, help=help, max_series=max_series)
        edges = tuple(buckets) if buckets is not None else SIZE_BUCKETS
        if list(edges) != sorted(edges):
            raise ValueError(f"histogram {name}: bucket edges must be sorted")
        self.edges = edges

    def observe(self, value: float, **labels) -> None:
        self._sample(value, labels)

    def _sample(self, value: float, labels: dict) -> None:
        """:meth:`observe` with the labels as a dict."""
        key = self._cell_key(labels)
        cell = self.series.get(key)
        if cell is None:
            cell = self.series[key] = {
                "count": 0, "sum": 0.0, "buckets": [0] * (len(self.edges) + 1)
            }
        cell["count"] += 1
        cell["sum"] += value
        cell["buckets"][bisect_left(self.edges, value)] += 1

    def count(self, **labels) -> int:
        cell = self.series.get(_label_key(labels))
        return cell["count"] if cell else 0

    def sum(self, **labels) -> float:
        cell = self.series.get(_label_key(labels))
        return cell["sum"] if cell else 0.0


class MetricsRegistry(Observer):
    """A named collection of metrics, attachable to one :class:`Engine`.

    Instrumented components use the auto-creating helpers (:meth:`inc`,
    :meth:`set`, :meth:`observe`), so a site never has to pre-declare its
    metric; analysis code can also :meth:`declare` metrics up front with
    help strings for the catalogue.
    """

    def __init__(self, max_series: int = MAX_SERIES):
        self._metrics: dict[str, _Metric] = {}
        self.max_series = max_series
        # The per-event counters' series dicts, bound at their first event
        # (so a registry that saw no event has no such metric).
        self._scheduled: dict = {}
        self._executed: dict = {}

    # -- hook events: the simulator's counter catalogue --------------------
    def on_event_scheduled(self, event) -> None:
        try:
            self._scheduled[()] += 1.0
        except KeyError:
            self._scheduled = self._bind_event_counter("sim.events.scheduled")

    def on_event_executed(self, time, event) -> None:
        try:
            self._executed[()] += 1.0
        except KeyError:
            self._executed = self._bind_event_counter("sim.events.executed")

    def _bind_event_counter(self, name: str) -> dict:
        """Count one event through :meth:`inc` (creating the counter) and
        return the series dict holding its unlabelled cell.  While that
        cell is folded into ``(overflow)`` every event comes back here."""
        self.inc(name)
        return self._metrics[name].series

    def on_sched_dequeue(self, scheduler, is_resume: bool) -> None:
        pe = scheduler.pe.index
        self.inc("sched.messages", pe=pe, kind="resume" if is_resume else "entry")
        self.set("sched.queue_depth", len(scheduler.queue.items), pe=pe)

    def on_cpu_busy(self, pe, seconds: float) -> None:
        self.inc("sched.busy_s", seconds, pe=pe.index)

    def on_sched_launch(self, pe, kind: str) -> None:
        self.inc("sched.launches", pe=pe.index, kind=kind)

    def on_gm_send(self, pe: int, size: int) -> None:
        self.inc("gm.sends", pe=pe)
        self.inc("gm.bytes", size, pe=pe)

    def on_net_send(self, network, message) -> None:
        same = network.node_of_pe(message.src_pe) == network.node_of_pe(message.dst_pe)
        route = "intra" if same else "inter"
        self.inc("net.messages", route=route)
        self.inc("net.bytes", message.size, route=route)

    def on_ucx_post(self, ucx, handle) -> None:
        device = "gpu" if handle.on_device else "host"
        if handle.kind == "recv":
            self.inc("ucx.recvs_posted", device=device)
            return
        proto = handle.protocol.name.lower()
        self.inc("ucx.messages", protocol=proto, device=device)
        self.inc("ucx.bytes", handle.size, protocol=proto)
        self.observe("ucx.msg_bytes", handle.size, protocol=proto)

    def on_ucx_pipeline(self, handle, chunks: int) -> None:
        self.inc("ucx.pipeline_chunks", chunks, pe=handle.src_pe)

    # -- declaration ------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Iterable[float]] = None) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(
                name, help=help, buckets=buckets, max_series=self.max_series)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already declared as {metric.kind}")
        return metric

    def _declare(self, cls, name, help):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help, max_series=self.max_series)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} already declared as {metric.kind}")
        return metric

    # -- instrumentation-site helpers (auto-create) ------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Counter:
            metric = self.counter(name)  # create, or raise on kind clash
        metric._add(value, labels)

    def set(self, name: str, value: float, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Gauge:
            metric = self.gauge(name)
        metric._put(value, labels)

    def observe(self, name: str, value: float, **labels) -> None:
        metric = self._metrics.get(name)
        if metric is None or metric.__class__ is not Histogram:
            metric = self.histogram(name)
        metric._sample(value, labels)

    # -- queries -----------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def overflow_total(self) -> int:
        """Label sets folded into ``(overflow)`` across every metric."""
        return sum(m.dropped_series for m in self._metrics.values())

    def snapshot(self) -> dict:
        """JSON-ready dump of every metric (stable ordering), plus the
        synthetic :data:`OVERFLOW_METRIC` counter when any metric folded."""
        out = {name: self._metrics[name].snapshot() for name in self.names()}
        if self.overflow_total():
            out[OVERFLOW_METRIC] = {
                "kind": "counter",
                "help": "label sets folded into (overflow), per metric",
                "series": [
                    {"labels": {"metric": name}, "value": metric.dropped_series}
                    for name, metric in sorted(self._metrics.items())
                    if metric.dropped_series
                ],
            }
        return out

    def scalar_totals(self) -> dict[str, float]:
        """Counter totals across labels — the compact summary used by
        :class:`~repro.obs.report.PerfReport`.  Includes
        :data:`OVERFLOW_METRIC` when any metric hit its cardinality cap."""
        out = {
            name: metric.total()
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }
        overflow = self.overflow_total()
        if overflow:
            out[OVERFLOW_METRIC] = float(overflow)
        return out

    def render_text(self) -> str:
        lines = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"{name} ({metric.kind})")
            for key, value in sorted(metric.series.items()):
                label_txt = ", ".join(f"{k}={v}" for k, v in key) or "-"
                if metric.kind == "counter":
                    shown = f"{value:g}"
                elif metric.kind == "gauge":
                    shown = f"{value['value']:g} (max {value['max']:g})"
                else:
                    shown = f"count={value['count']} sum={value['sum']:g}"
                lines.append(f"  {label_txt:40s} {shown}")
            if metric.dropped_series:
                lines.append(f"  (overflow: {metric.dropped_series} label sets folded)")
        return "\n".join(lines)
