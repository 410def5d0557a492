"""Execution tracing and utilization accounting.

The tracer is the stand-in for Nsight Systems in the paper's methodology:
tests and analysis use it to *prove* that overlap happens (GPU busy while
messages are in flight), to measure per-resource utilization, and to debug
schedules.

Tracing is opt-in: a :class:`Tracer` is one more engine observer (see
:meth:`~repro.sim.Engine.attach`), and an engine with none attached pays
one ``hooks is None`` test per instrumented site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .engine import Engine, Observer

__all__ = ["TraceRecord", "Tracer", "IntervalTracker", "overlap_seconds", "to_chrome_trace"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Simulation time of the event.
    category:
        Dotted namespace, e.g. ``"gpu.kernel"``, ``"nic.send"``,
        ``"sched.message"``.
    actor:
        The emitting component's name (``"node3.gpu2"``).
    data:
        Free-form payload dictionary.
    """

    time: float
    category: str
    actor: str
    data: dict[str, Any] = field(default_factory=dict)


class Tracer(Observer):
    """Collects :class:`TraceRecord` entries from the engine's hook events.

    The tracer owns the trace format: it turns GPU op spans, network
    sends/deliveries and UCX pipelines into records, and keeps any
    free-form ``trace`` event (see :func:`trace`) as is.

    Parameters
    ----------
    categories:
        If given, only records whose category starts with one of these
        prefixes are kept.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self.records: list[TraceRecord] = []
        self._prefixes = tuple(categories) if categories else None
        self.enabled = True

    def emit(self, category: str, actor: str, **data: Any) -> None:
        self.on_trace(category, actor, data)

    # -- hook events ---------------------------------------------------------
    def on_trace(self, category: str, actor: str, data: dict) -> None:
        if not self.enabled:
            return
        if self._prefixes is not None and not category.startswith(self._prefixes):
            return
        assert self.engine is not None, "Tracer.emit before attach()"
        self.records.append(TraceRecord(self.engine.now, category, actor, data))

    def on_op_start(self, device, op, kind: str, duration: float) -> None:
        self.on_trace(f"gpu.{kind}", device.name,
                      {"op": op.name, "start": self.engine.now, "duration": duration})

    def on_net_send(self, network, message) -> None:
        self.on_trace("net.send", f"pe{message.src_pe}",
                      {"dst": message.dst_pe, "size": message.size, "tag": message.tag})

    def on_net_deliver(self, network, message) -> None:
        self.on_trace("net.deliver", f"pe{message.dst_pe}",
                      {"src": message.src_pe, "size": message.size, "tag": message.tag,
                       "latency": self.engine.now - message.sent_at})

    def on_ucx_pipeline(self, handle, chunks: int) -> None:
        self.on_trace("ucx.pipeline", f"pe{handle.src_pe}",
                      {"size": handle.size, "chunks": chunks})

    # -- queries -------------------------------------------------------------
    def select(
        self,
        category: Optional[str] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Records filtered by category prefix / actor / arbitrary predicate."""
        out = []
        for rec in self.records:
            if category is not None and not rec.category.startswith(category):
                continue
            if actor is not None and rec.actor != actor:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        self.records.clear()


def trace(engine: Engine, category: str, actor: str, **data: Any) -> None:
    """Report a free-form ``trace`` hook event (no-op with no observer)."""
    h = engine.hooks
    if h is not None:
        for fn in h.trace:
            fn(category, actor, data)


class IntervalTracker:
    """Tracks busy intervals of one resource for utilization/overlap math.

    Call :meth:`begin` / :meth:`end` around each busy span.  Overlapping
    spans are allowed (e.g. several concurrent copies on a shared link); the
    tracker keeps raw spans and computes their union lazily.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self.spans: list[tuple[float, float]] = []
        self._open: list[float] = []
        # The last busy_seconds answer, keyed by (span count, t0, t1).
        self._busy_key: Optional[tuple] = None
        self._busy_total = 0.0

    def begin(self) -> int:
        """Open a busy span; returns a token for :meth:`end`."""
        self._open.append(self.engine.now)
        return len(self._open) - 1

    def end(self, token: int) -> None:
        start = self._open[token]
        if start is None:
            raise ValueError("span already closed")
        self._open[token] = None  # type: ignore[call-overload]
        self.spans.append((start, self.engine.now))

    def busy_union(self) -> list[tuple[float, float]]:
        """Merged busy intervals, sorted."""
        return merge_intervals(self.spans)

    def busy_seconds(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Total busy time within the window ``[t0, t1]``."""
        if t1 is None:
            t1 = self.engine.now
        # Spans are only ever appended, so the same count and window give
        # the same answer (a run and its perf report both ask for it).
        key = (len(self.spans), t0, t1)
        if key == self._busy_key:
            return self._busy_total
        total = 0.0
        for a, b in self.busy_union():
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                total += hi - lo
        self._busy_key, self._busy_total = key, total
        return total

    def utilization(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Busy fraction of the window (0 when window is empty)."""
        if t1 is None:
            t1 = self.engine.now
        window = t1 - t0
        if window <= 0:
            return 0.0
        return self.busy_seconds(t0, t1) / window


def to_chrome_trace(tracer: Tracer) -> list[dict]:
    """Convert trace records to Chrome-trace (``chrome://tracing`` /
    Perfetto) events — the reproduction's stand-in for an Nsight timeline.

    Records carrying a ``duration`` in their payload become complete ("X")
    slices; everything else becomes an instant ("i") event.  Times are
    emitted in microseconds as the format requires.  Write the returned
    list as JSON and load it in ``ui.perfetto.dev``.
    """
    events = []
    for rec in tracer.records:
        base = {
            "name": str(rec.data.get("op", rec.category)),
            "cat": rec.category,
            "pid": rec.actor.split(".")[0] if "." in rec.actor else rec.actor,
            "tid": rec.actor,
            "ts": rec.time * 1e6,
            "args": {k: v for k, v in rec.data.items() if isinstance(v, (int, float, str))},
        }
        duration = rec.data.get("duration")
        if duration is not None:
            base["ph"] = "X"
            base["dur"] = float(duration) * 1e6
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
    return events


def merge_intervals(spans: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping ``(start, end)`` intervals."""
    ordered = sorted((a, b) for a, b in spans if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in ordered:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def overlap_seconds(
    spans_a: Iterable[tuple[float, float]], spans_b: Iterable[tuple[float, float]]
) -> float:
    """Total time during which both interval sets are simultaneously busy.

    This is the quantitative definition of computation-communication overlap
    used by the integration tests: ``spans_a`` = GPU compute busy intervals,
    ``spans_b`` = in-flight message intervals.
    """
    a_list = merge_intervals(spans_a)
    b_list = merge_intervals(spans_b)
    total = 0.0
    i = j = 0
    while i < len(a_list) and j < len(b_list):
        lo = max(a_list[i][0], b_list[j][0])
        hi = min(a_list[i][1], b_list[j][1])
        if hi > lo:
            total += hi - lo
        if a_list[i][1] < b_list[j][1]:
            i += 1
        else:
            j += 1
    return total
