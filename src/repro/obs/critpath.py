"""Critical-path analysis over a finished run's activity intervals.

"Why didn't ODF=4 help" is a question about the *longest dependent chain*:
if the makespan is an unbroken chain of NIC transfers, more overlap cannot
shorten it; if the chain is mostly PE scheduling overhead, overdecomposition
itself is the cost.  This module reconstructs that chain from the run's
recorded activity intervals with the standard backward attribution walk:

1. Start at the makespan ``t_end``.
2. The path step at time ``t`` is the activity interval still running (or
   just finishing) at ``t`` that began *earliest* — the longest continuous
   activity whose completion gated ``t``.  Move ``t`` to its start.
3. If *nothing* was active at ``t``, the gap back to the latest earlier
   completion is attributed to ``wait`` (dependency latency that no
   recorded resource explains, e.g. the rendezvous RTT or HAPI polling).
4. Repeat until ``t_start``.

The walk partitions ``[t_start, t_end]`` exactly, so the reported path
length always equals the analysed window (the acceptance check: path
length == simulated makespan) and the *composition* — seconds per resource
category along the path — is the actionable output.  This is the interval
approximation of a full event-graph longest path: activity intervals are
recorded with zero model overhead, and simultaneous-activity selection uses
earliest-start, which on this simulator's FIFO resources matches the true
dependency chain except where two resources genuinely race (both ends then
appear in the composition across steps).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim import Tracer, merge_intervals
from .timeline import PhaseSpans, gpu_phase_spans

__all__ = ["PathSegment", "CriticalPath", "collect_segments", "critical_path"]

#: Composition category for unattributed dependency gaps.
WAIT = "wait"


@dataclass(frozen=True)
class PathSegment:
    """One maximal stretch of the critical path on a single category."""

    start: float
    end: float
    category: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The reconstructed longest chain for one window of a run."""

    t_start: float
    t_end: float
    segments: list[PathSegment]  # in time order

    @property
    def length_s(self) -> float:
        return self.t_end - self.t_start

    @property
    def wait_s(self) -> float:
        return sum(s.duration for s in self.segments if s.category == WAIT)

    def composition(self) -> dict[str, float]:
        """Seconds per category along the path, descending."""
        comp: dict[str, float] = {}
        for seg in self.segments:
            comp[seg.category] = comp.get(seg.category, 0.0) + seg.duration
        return dict(sorted(comp.items(), key=lambda kv: (-kv[1], kv[0])))

    def to_dict(self, max_segments: int = 50) -> dict:
        longest = sorted(self.segments, key=lambda s: -s.duration)[:max_segments]
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "length_s": self.length_s,
            "wait_s": self.wait_s,
            "n_segments": len(self.segments),
            "composition": self.composition(),
            "longest_segments": [
                {"start": s.start, "end": s.end, "category": s.category,
                 "duration": s.duration}
                for s in longest
            ],
        }

    def render_text(self) -> str:
        lines = [f"critical path: {self.length_s * 1e3:.3f} ms over "
                 f"[{self.t_start:g}, {self.t_end:g}] in {len(self.segments)} segments"]
        for cat, secs in self.composition().items():
            pct = 100.0 * secs / self.length_s if self.length_s > 0 else 0.0
            lines.append(f"  {cat:12s} {secs * 1e3:10.3f} ms  {pct:5.1f}%")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Interval collection
# ---------------------------------------------------------------------------


def collect_segments(cluster, tracer: Optional[Tracer] = None,
                     classify=None, spans: Optional[PhaseSpans] = None,
                     ) -> list[tuple[float, float, str]]:
    """Every recorded activity interval of a run as ``(start, end, category)``.

    PE-core busy time and the network in-flight tracker come from the
    cluster's interval trackers; GPU activity comes from the trace when one
    was attached (phase-classified per operation through ``classify``, the
    app's trace classifier — default: the stencil declaration; or taken
    from ``spans``, the trace already classified) and falls back to the
    per-engine trackers (category ``gpu.<engine>``) otherwise.
    """
    segments: list[tuple[float, float, str]] = []
    for pe in cluster.all_pes():
        segments.extend((a, b, "pe") for a, b in pe.busy.spans)
    segments.extend((a, b, "nic") for a, b in cluster.network.inflight.spans)
    if spans is not None:
        traced = spans.gpu
    else:
        traced = gpu_phase_spans(tracer, classify) if tracer is not None else []
    if traced:
        segments.extend(traced)
    else:
        for node in cluster.nodes:
            for gpu in node.gpus:
                for kind, tracker in gpu.trackers.items():
                    segments.extend((a, b, f"gpu.{kind}") for a, b in tracker.spans)
    return segments


# ---------------------------------------------------------------------------
# The backward walk
# ---------------------------------------------------------------------------


def critical_path(
    segments: Iterable[tuple[float, float, str]],
    t_start: float = 0.0,
    t_end: Optional[float] = None,
) -> CriticalPath:
    """Backward-walk attribution of ``[t_start, t_end]`` over ``segments``.

    ``segments`` are ``(start, end, category)`` activity intervals (any
    order, overlaps fine).  ``t_end`` defaults to the latest interval end.
    The returned path tiles the window exactly: its ``length_s`` equals
    ``t_end - t_start`` by construction, and unexplained time appears as
    ``wait`` segments rather than being dropped.
    """
    by_cat: dict[str, list[tuple[float, float]]] = {}
    for a, b, cat in segments:
        if b > a:
            by_cat.setdefault(cat, []).append((a, b))
    merged = {cat: merge_intervals(spans) for cat, spans in by_cat.items()}
    starts = {cat: [a for a, _ in spans] for cat, spans in merged.items()}
    categories = sorted(merged)

    if t_end is None:
        t_end = max((spans[-1][1] for spans in merged.values() if spans), default=t_start)
    if t_end <= t_start:
        return CriticalPath(t_start, t_end, [])

    eps = 1e-12 * max(1.0, abs(t_end))
    path: list[PathSegment] = []
    t = t_end
    while t > t_start + eps:
        chosen: Optional[tuple[float, str]] = None  # (interval start, category)
        latest_end = t_start
        for cat in categories:
            idx = bisect_left(starts[cat], t) - 1  # greatest start < t
            if idx < 0:
                continue
            a, b = merged[cat][idx]
            if b >= t - eps:
                # Active at (or finishing at) t: a path candidate.
                if chosen is None or a < chosen[0]:
                    chosen = (a, cat)
            elif b > latest_end:
                latest_end = b
        if chosen is not None:
            seg_start = max(chosen[0], t_start)
            path.append(PathSegment(seg_start, t, chosen[1]))
            t = seg_start
        else:
            # Nothing active: dependency gap back to the latest completion.
            path.append(PathSegment(latest_end, t, WAIT))
            t = latest_end
    path.reverse()
    return CriticalPath(t_start, t_end, path)
