"""Timeline analysis: per-resource busy/idle and per-iteration phase attribution.

This is the analysis half of the paper's Nsight-Systems methodology: given
a finished run's cluster (interval trackers) and optional trace, answer

* **where did the time go per resource** — busy/idle/utilization for every
  PE core, every GPU engine (compute, D2H, H2D, D2D), and the network;
* **what was each iteration spent on** — per-phase attribution, computed
  from trace intervals and the per-iteration ``app.iter_done`` markers the
  driver emits.  The phase vocabulary is *app-declared*: every analysis
  function takes ``phases`` (display-ordered tuple) and ``classify``
  (``(category, op_name) -> phase``), normally supplied from the app's
  :class:`~repro.apps.registry.AppSpec`; they default to the shared stencil
  core's declaration;
* **did overlap happen** — the quantitative computation/communication
  overlap definition shared by the driver, tests, and reports
  (:func:`compute_comm_overlap` is the single implementation; call sites
  no longer hand-roll ``merge_intervals`` + ``overlap_seconds``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from ..hardware.gpu import COMPUTE
from ..sim import Tracer, merge_intervals, overlap_seconds

__all__ = [
    "PhaseSpans",
    "ResourceUsage",
    "compute_comm_overlap",
    "gpu_compute_spans",
    "gpu_phase_spans",
    "iteration_boundaries",
    "per_iteration_phases",
    "phase_breakdown",
    "phase_intervals",
    "resource_usage",
]


def _stencil_phase_decl():
    """The stencil core's phase declaration — the default vocabulary.
    Imported lazily so :mod:`repro.obs` stays importable without the app
    stack."""
    from ..apps.stencil.phases import STENCIL_PHASES, classify_stencil_op

    return STENCIL_PHASES, classify_stencil_op


@dataclass(frozen=True)
class ResourceUsage:
    """Busy/idle accounting for one resource over a window."""

    name: str
    kind: str  # "pe" | "gpu.compute" | "gpu.copy_d2h" | ... | "net"
    busy_s: float
    window_s: float

    @property
    def idle_s(self) -> float:
        return max(0.0, self.window_s - self.busy_s)

    @property
    def utilization(self) -> float:
        return self.busy_s / self.window_s if self.window_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "busy_s": self.busy_s,
            "window_s": self.window_s,
            "utilization": self.utilization,
        }


# ---------------------------------------------------------------------------
# Resource busy/idle
# ---------------------------------------------------------------------------


def resource_usage(cluster, t0: float = 0.0, t1: Optional[float] = None) -> list[ResourceUsage]:
    """Per-resource busy time within ``[t0, t1]`` for every PE core, GPU
    engine, and the network's in-flight tracker."""
    if t1 is None:
        t1 = cluster.engine.now
    window = max(0.0, t1 - t0)
    out: list[ResourceUsage] = []
    for pe in cluster.all_pes():
        out.append(ResourceUsage(pe.name, "pe", pe.busy.busy_seconds(t0, t1), window))
    for node in cluster.nodes:
        for gpu in node.gpus:
            for kind, tracker in gpu.trackers.items():
                out.append(ResourceUsage(
                    f"{gpu.name}.{kind}", f"gpu.{kind}",
                    tracker.busy_seconds(t0, t1), window))
    net = cluster.network
    out.append(ResourceUsage("net.inflight", "net", net.inflight.busy_seconds(t0, t1), window))
    return out


def gpu_compute_spans(cluster) -> list[tuple[float, float]]:
    """Merged busy intervals of every GPU compute engine in the cluster."""
    spans: list[tuple[float, float]] = []
    for node in cluster.nodes:
        for gpu in node.gpus:
            spans.extend(gpu.trackers[COMPUTE].spans)
    return merge_intervals(spans)


def compute_comm_overlap(cluster) -> float:
    """Seconds during which any GPU computes *while* any message is in
    flight — the paper's computation/communication overlap.  The single
    shared implementation behind :class:`~repro.apps.jacobi3d` results and
    perf reports."""
    return overlap_seconds(gpu_compute_spans(cluster), cluster.network.inflight.spans)


# ---------------------------------------------------------------------------
# Phase attribution from trace intervals
# ---------------------------------------------------------------------------


def _resolve_phase_decl(phases, classify):
    if phases is None or classify is None:
        default_phases, default_classify = _stencil_phase_decl()
        phases = default_phases if phases is None else phases
        classify = default_classify if classify is None else classify
    return phases, classify


def gpu_phase_spans(tracer: Tracer, classify=None) -> list[tuple[float, float, str]]:
    """``(start, end, phase)`` for every duration-carrying ``gpu.*`` trace
    record, in trace order, classified through ``classify`` (default: the
    stencil declaration)."""
    if classify is None:
        classify = _stencil_phase_decl()[1]
    out = []
    for rec in tracer.records:
        if rec.category.startswith("gpu."):
            duration = rec.data.get("duration")
            if duration is not None:
                start = float(rec.data.get("start", rec.time))
                out.append((start, start + float(duration),
                            classify(rec.category, str(rec.data.get("op", "")))))
    return out


class PhaseSpans:
    """A trace's busy intervals per phase, classified and merged once.

    ``gpu`` is :func:`gpu_phase_spans`; ``raw`` adds the ``net.deliver``
    records' in-flight windows (whose ``latency`` payload reconstructs
    them) and groups per phase, unmerged; ``merged`` is each phase's
    union.  ``phases``/``classify`` come from the app's spec; default: the
    stencil declaration.  Network in-flight windows land in ``nic`` when
    the vocabulary declares it, else in the last phase (the catch-all).
    """

    def __init__(self, tracer: Tracer, phases=None, classify=None):
        phases, classify = _resolve_phase_decl(phases, classify)
        self.gpu = gpu_phase_spans(tracer, classify)
        raw: dict[str, list[tuple[float, float]]] = {phase: [] for phase in phases}
        for a, b, phase in self.gpu:
            raw[phase].append((a, b))
        net = raw["nic" if "nic" in raw else phases[-1]]
        for rec in tracer.records:
            if rec.category == "net.deliver":
                latency = float(rec.data.get("latency", 0.0))
                if latency > 0.0:
                    net.append((rec.time - latency, rec.time))
        self.raw = raw
        self.merged = {phase: merge_intervals(spans) for phase, spans in raw.items()}
        self._ends = {phase: [b for _, b in spans] for phase, spans in self.merged.items()}

    def busy(self, phase: str, t0: float, t1: float) -> float:
        """Busy seconds of ``phase`` within ``[t0, t1]``."""
        spans = self.merged[phase]
        total = 0.0
        # Merged spans are disjoint and sorted, so their ends are too: the
        # first span ending after t0 is the first that can overlap.
        for i in range(bisect_right(self._ends[phase], t0), len(spans)):
            a, b = spans[i]
            if a >= t1:
                break
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                total += hi - lo
        return total

    def breakdown(self, t0: float = 0.0, t1: Optional[float] = None) -> dict[str, float]:
        """Busy seconds per phase within ``[t0, t1]``; ``t1`` defaults to
        the latest span end."""
        if t1 is None:
            t1 = max((b for spans in self.raw.values() for _, b in spans), default=t0)
        return {phase: self.busy(phase, t0, t1) for phase in self.merged}

    def per_iteration(self, boundaries: list[float]) -> list[dict]:
        """Phase attribution per iteration window (see
        :func:`per_iteration_phases`)."""
        out = []
        t_prev = 0.0
        for i, t_end in enumerate(boundaries):
            out.append({
                "iteration": i,
                "t0": t_prev,
                "t1": t_end,
                "phases": {phase: self.busy(phase, t_prev, t_end) for phase in self.merged},
            })
            t_prev = t_end
        return out


def phase_intervals(tracer: Tracer, phases=None,
                    classify=None) -> dict[str, list[tuple[float, float]]]:
    """Raw (unmerged) busy intervals per phase from a run's trace (see
    :class:`PhaseSpans`)."""
    return PhaseSpans(tracer, phases, classify).raw


def phase_breakdown(tracer: Tracer, t0: float = 0.0,
                    t1: Optional[float] = None, phases=None,
                    classify=None) -> dict[str, float]:
    """Busy seconds per phase within ``[t0, t1]`` (union per phase, so
    concurrent same-phase work on different devices counts once per unit
    of wall-clock — the *footprint* of the phase, matching how an Nsight
    timeline reads)."""
    return PhaseSpans(tracer, phases, classify).breakdown(t0, t1)


def iteration_boundaries(tracer: Tracer) -> list[float]:
    """``boundaries[i]`` = time the *last* unit finished iteration ``i``
    (from the driver's ``app.iter_done`` markers); empty without markers."""
    latest: dict[int, float] = {}
    for rec in tracer.records:
        if rec.category != "app.iter_done":
            continue
        it = int(rec.data["iter"])
        if rec.time > latest.get(it, float("-inf")):
            latest[it] = rec.time
    return [latest[it] for it in sorted(latest)]


def per_iteration_phases(tracer: Tracer, phases=None, classify=None) -> list[dict]:
    """Phase attribution per iteration window.

    Iteration ``i``'s window runs from the previous iteration's boundary
    (0 for the first) to its own — the same global-progress windows
    Projections uses for its time-profile view.  Returns one dict per
    iteration: ``{"iteration", "t0", "t1", "phases": {phase: seconds}}``.
    """
    boundaries = iteration_boundaries(tracer)
    if not boundaries:
        return []
    return PhaseSpans(tracer, phases, classify).per_iteration(boundaries)
