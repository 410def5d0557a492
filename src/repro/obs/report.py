"""Perf reports: collection, rendering, persistence, and the regression gate.

:class:`Observatory` bundles the tracer and the metrics registry into one
attachable probe; :func:`run_app(config, observatory=obs)
<repro.apps.driver.run_app>` wires it into a run, and ``obs.report(result)``
then answers the paper's evaluation questions in one object: per-resource
utilization, per-iteration phase attribution (in the app's declared phase
vocabulary), the critical path, overlap, and the counter catalogue.

Reports serialize to JSON (``save``/``load``), render as text or a
self-contained HTML page, and feed the perf-regression gate:
:func:`compare_perf` flags any time-like metric that got slower than
``baseline * (1 + tolerance)``.  The gate understands both perf-report
JSON (simulated, deterministic — the strict CI gate) and
``results/bench_meta.json`` trajectories (wall-clock — the loose gate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..sim import Tracer, to_chrome_trace
from .critpath import collect_segments, critical_path
from .metrics import MetricsRegistry
from .timeline import PhaseSpans, iteration_boundaries, resource_usage

__all__ = [
    "COMPARE_SCHEMA",
    "Observatory",
    "PerfReport",
    "Comparison",
    "Regression",
    "append_bench_history",
    "collect_perf",
    "compare_perf",
    "extract_comparable",
]


class Observatory:
    """One run's observability probe: a tracer plus a metrics registry.

    Pass to :func:`~repro.apps.driver.run_app` via ``observatory=``; the
    driver calls :meth:`begin` once the engine and cluster exist.  After
    the run, :meth:`report` produces the :class:`PerfReport` (phase
    attribution in the app's declared vocabulary) and :meth:`chrome_trace`
    the Perfetto timeline.
    """

    def __init__(self, categories=None, include_metrics: bool = True):
        self.tracer = Tracer(categories)
        self.registry = MetricsRegistry()
        self.include_metrics = include_metrics
        self.engine = None
        self.cluster = None

    def begin(self, engine, cluster) -> None:
        """Driver hook: attach the probe to a fresh run."""
        self.tracer.attach(engine)
        self.registry.attach(engine)
        self.engine = engine
        self.cluster = cluster

    def chrome_trace(self) -> list[dict]:
        """The run's Perfetto/Chrome-trace events (``ui.perfetto.dev``)."""
        return to_chrome_trace(self.tracer)

    def report(self, result) -> "PerfReport":
        """Build the full perf report for a finished run."""
        if self.engine is None or self.cluster is None:
            raise RuntimeError("Observatory.report() before the run (begin was never called)")
        from ..apps import spec_for

        spec = spec_for(result.config)
        t_end = self.engine.now
        t_warm = result.warmup_boundary
        spans = PhaseSpans(self.tracer, phases=spec.phases, classify=spec.classify_op)
        path = critical_path(collect_segments(self.cluster, spans=spans),
                             t_start=0.0, t_end=t_end)
        return PerfReport(
            config=result.config.to_dict(),
            makespan=t_end,
            warmup_boundary=t_warm,
            time_per_iteration=result.time_per_iteration,
            overlap_s=result.overlap_s,
            gpu_utilization=result.gpu_utilization,
            resources=[r.to_dict() for r in resource_usage(self.cluster, t_warm, t_end)],
            phases=spans.breakdown(0.0, t_end),
            iterations=spans.per_iteration(iteration_boundaries(self.tracer)),
            critical_path=path.to_dict(),
            counters=self.registry.scalar_totals(),
            metrics=self.registry.snapshot() if self.include_metrics else None,
        )


def collect_perf(config, validate: bool = False):
    """Run one config under a fresh :class:`Observatory`; returns
    ``(result, report)``.  (App import is lazy: ``repro.obs`` stays
    importable without the application stack.)"""
    from ..apps import run_app

    obs = Observatory()
    result = run_app(config, validate=validate, observatory=obs)
    return result, obs.report(result)


@dataclass
class PerfReport:
    """The serialized answer to "where did the time go" for one run."""

    config: Optional[dict]
    makespan: float
    warmup_boundary: float
    time_per_iteration: float
    overlap_s: float
    gpu_utilization: float
    resources: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    iterations: list = field(default_factory=list)
    critical_path: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    metrics: Optional[dict] = None

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "schema": "repro.perf/1",
            "config": self.config,
            "makespan": self.makespan,
            "warmup_boundary": self.warmup_boundary,
            "time_per_iteration": self.time_per_iteration,
            "overlap_s": self.overlap_s,
            "gpu_utilization": self.gpu_utilization,
            "resources": self.resources,
            "phases": self.phases,
            "iterations": self.iterations,
            "critical_path": self.critical_path,
            "counters": self.counters,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "PerfReport":
        return cls(
            config=d.get("config"),
            makespan=d["makespan"],
            warmup_boundary=d.get("warmup_boundary", 0.0),
            time_per_iteration=d["time_per_iteration"],
            overlap_s=d.get("overlap_s", 0.0),
            gpu_utilization=d.get("gpu_utilization", 0.0),
            resources=d.get("resources", []),
            phases=d.get("phases", {}),
            iterations=d.get("iterations", []),
            critical_path=d.get("critical_path", {}),
            counters=d.get("counters", {}),
            metrics=d.get("metrics"),
        )

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path) -> "PerfReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- comparison hooks --------------------------------------------------
    def scalar_metrics(self) -> dict[str, float]:
        """Time-like scalars (lower is better) for the regression gate."""
        return {
            "time_per_iteration": self.time_per_iteration,
            "makespan": self.makespan,
        }

    # -- rendering ---------------------------------------------------------
    def _phase_order(self) -> list:
        """The report's phases in the app's declared (pipeline) order.

        Fresh reports store phases in declared order already; JSON
        round-trips sort the keys, so look the order up again from the
        registry when the config names a registered app."""
        order = list(self.phases)
        app = (self.config or {}).get("app")
        if app:
            try:
                from ..apps import get_app

                declared = [p for p in get_app(app).phases if p in self.phases]
            except ValueError:
                declared = []
            order = declared + [p for p in order if p not in declared]
        return order

    def _resource_rollup(self) -> list[tuple[str, int, float, float]]:
        """(kind, count, mean util, max util) per resource kind."""
        by_kind: dict[str, list[float]] = {}
        for r in self.resources:
            by_kind.setdefault(r["kind"], []).append(r["utilization"])
        return [
            (kind, len(utils), sum(utils) / len(utils), max(utils))
            for kind, utils in sorted(by_kind.items())
        ]

    def render_text(self) -> str:
        lines = []
        cfg = self.config or {}
        if cfg:
            lines.append(
                f"perf report: {cfg.get('version', '?')} nodes={cfg.get('nodes', '?')} "
                f"grid={tuple(cfg.get('grid', ()))} odf={cfg.get('odf', '?')}")
        lines.append(f"  makespan          : {self.makespan * 1e3:12.3f} ms")
        lines.append(f"  time/iteration    : {self.time_per_iteration * 1e6:12.2f} us")
        lines.append(f"  overlap           : {self.overlap_s * 1e3:12.3f} ms")
        lines.append(f"  GPU utilization   : {self.gpu_utilization * 100:12.1f} %")
        lines.append("  resources (measured window):")
        for kind, count, mean, peak in self._resource_rollup():
            lines.append(f"    {kind:14s} x{count:<4d} mean {mean * 100:5.1f}%  "
                         f"max {peak * 100:5.1f}%")
        lines.append("  phase footprint (whole run):")
        for phase in self._phase_order():
            secs = self.phases.get(phase, 0.0)
            if secs > 0:
                lines.append(f"    {phase:8s} {secs * 1e3:10.3f} ms")
        if self.iterations:
            lines.append(f"  per-iteration attribution ({len(self.iterations)} iterations):")
            for entry in self.iterations:
                busiest = sorted(entry["phases"].items(), key=lambda kv: -kv[1])[:3]
                top = ", ".join(f"{p} {s * 1e3:.3f}ms" for p, s in busiest if s > 0)
                span = entry["t1"] - entry["t0"]
                lines.append(f"    iter {entry['iteration']:3d}: {span * 1e3:8.3f} ms  ({top})")
        cp = self.critical_path
        if cp:
            lines.append(f"  critical path: {cp['length_s'] * 1e3:.3f} ms "
                         f"({cp['n_segments']} segments, wait {cp['wait_s'] * 1e3:.3f} ms)")
            for cat, secs in cp.get("composition", {}).items():
                pct = 100.0 * secs / cp["length_s"] if cp["length_s"] > 0 else 0.0
                lines.append(f"    {cat:12s} {secs * 1e3:10.3f} ms  {pct:5.1f}%")
        if self.counters:
            lines.append("  counters:")
            for name, total in self.counters.items():
                lines.append(f"    {name:28s} {total:g}")
        return "\n".join(lines)

    def render_html(self) -> str:
        """A dependency-free single-file HTML report."""

        def bar(frac: float, color: str = "#4a7") -> str:
            pct = max(0.0, min(1.0, frac)) * 100.0
            return (f'<div style="background:#eee;width:160px;height:10px;'
                    f'display:inline-block"><div style="background:{color};'
                    f'width:{pct:.1f}%;height:10px"></div></div>')

        cfg = self.config or {}
        rows = []
        for kind, count, mean, peak in self._resource_rollup():
            rows.append(f"<tr><td>{kind}</td><td>{count}</td>"
                        f"<td>{mean * 100:.1f}% {bar(mean)}</td>"
                        f"<td>{peak * 100:.1f}%</td></tr>")
        phase_rows = []
        phase_total = sum(self.phases.values()) or 1.0
        for phase in self._phase_order():
            secs = self.phases.get(phase, 0.0)
            if secs > 0:
                phase_rows.append(f"<tr><td>{phase}</td><td>{secs * 1e3:.3f} ms</td>"
                                  f"<td>{bar(secs / phase_total, '#47a')}</td></tr>")
        cp = self.critical_path or {}
        cp_rows = []
        for cat, secs in cp.get("composition", {}).items():
            frac = secs / cp["length_s"] if cp.get("length_s") else 0.0
            cp_rows.append(f"<tr><td>{cat}</td><td>{secs * 1e3:.3f} ms</td>"
                           f"<td>{frac * 100:.1f}% {bar(frac, '#a47')}</td></tr>")
        return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>repro perf report</title>
<style>body{{font:14px sans-serif;margin:2em}}table{{border-collapse:collapse}}
td,th{{border:1px solid #ccc;padding:4px 8px;text-align:left}}</style></head>
<body>
<h1>Perf report</h1>
<p>{cfg.get('version', '?')} &middot; nodes={cfg.get('nodes', '?')} &middot;
grid={tuple(cfg.get('grid', ()))} &middot; odf={cfg.get('odf', '?')}</p>
<ul>
<li>makespan: {self.makespan * 1e3:.3f} ms</li>
<li>time/iteration: {self.time_per_iteration * 1e6:.2f} &micro;s</li>
<li>overlap: {self.overlap_s * 1e3:.3f} ms</li>
<li>GPU utilization: {self.gpu_utilization * 100:.1f}%</li>
</ul>
<h2>Resources</h2>
<table><tr><th>kind</th><th>count</th><th>mean util</th><th>max util</th></tr>
{''.join(rows)}</table>
<h2>Phase footprint</h2>
<table><tr><th>phase</th><th>time</th><th>share</th></tr>
{''.join(phase_rows)}</table>
<h2>Critical path ({cp.get('length_s', 0.0) * 1e3:.3f} ms,
{cp.get('n_segments', 0)} segments)</h2>
<table><tr><th>category</th><th>time</th><th>share</th></tr>
{''.join(cp_rows)}</table>
</body></html>
"""


# ---------------------------------------------------------------------------
# The regression gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regression:
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (f"{self.metric}: {self.baseline:g} -> {self.current:g} "
                f"({(self.ratio - 1.0) * 100:+.1f}%)")


#: ``repro perf compare --format json`` schema identifier (pinned in tests;
#: bump the suffix on any breaking change to :meth:`Comparison.to_dict`).
COMPARE_SCHEMA = "repro.perf-compare/1"


@dataclass
class Comparison:
    """Outcome of one baseline/current comparison."""

    tolerance: float
    regressions: list[Regression] = field(default_factory=list)
    improvements: list[Regression] = field(default_factory=list)
    unchanged: int = 0
    #: Per-metric tolerance overrides that were in effect (metric → frac).
    overrides: dict = field(default_factory=dict)
    #: Critical-path blame line from the differential (set when both inputs
    #: are full perf reports and the gate tripped) — explains *why*.
    blame: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render_text(self) -> str:
        lines = [f"perf compare (tolerance {self.tolerance * 100:.1f}%): "
                 f"{len(self.regressions)} regression(s), "
                 f"{len(self.improvements)} improvement(s), "
                 f"{self.unchanged} within tolerance"]
        for metric, tol in sorted(self.overrides.items()):
            lines.append(f"  (tolerance override: {metric} at {tol * 100:.1f}%)")
        for reg in self.regressions:
            lines.append(f"  REGRESSION {reg}")
        for imp in self.improvements:
            lines.append(f"  improved   {imp}")
        if self.blame:
            lines.append(f"  blame: {self.blame}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Stable JSON shape for ``repro perf compare --format json``."""
        def rows(entries):
            return [
                {"metric": r.metric, "baseline": r.baseline,
                 "current": r.current, "ratio": r.ratio}
                for r in entries
            ]

        return {
            "schema": COMPARE_SCHEMA,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "overrides": dict(sorted(self.overrides.items())),
            "regressions": rows(self.regressions),
            "improvements": rows(self.improvements),
            "unchanged": self.unchanged,
            "blame": self.blame,
        }


def extract_comparable(doc: dict) -> dict[str, float]:
    """Time-like (lower-is-better) scalars from a perf-gate input file.

    Understands two shapes:

    * a :class:`PerfReport` JSON (``schema: repro.perf/1`` or any dict with
      ``time_per_iteration``) — simulated, deterministic metrics;
    * a ``bench_meta.json`` trajectory — per-figure wall-clock, where each
      figure's newest history entry supplies ``<figure>.wall_s``, plus the
      engine microbenchmark's per-mix cost as
      ``<key>.us_per_event.<mix>`` (also lower-is-better, so an event-loop
      slowdown trips the same gate as a figure slowdown).
    """
    if "time_per_iteration" in doc:
        out = {"time_per_iteration": float(doc["time_per_iteration"])}
        if "makespan" in doc:
            out["makespan"] = float(doc["makespan"])
        return out
    out = {}
    for key, slot in doc.items():
        if not isinstance(slot, dict):
            continue
        entry = slot
        if "latest" in slot and isinstance(slot["latest"], dict):
            entry = slot["latest"]
        elif "history" in slot and slot["history"]:
            entry = slot["history"][-1]
        wall = entry.get("wall_s")
        if isinstance(wall, (int, float)):
            out[f"{key}.wall_s"] = float(wall)
        upe = entry.get("us_per_event")
        if isinstance(upe, dict):
            for mix, cost in upe.items():
                if isinstance(cost, (int, float)):
                    out[f"{key}.us_per_event.{mix}"] = float(cost)
    return out


def compare_perf(baseline: dict, current: dict, tolerance: float = 0.05,
                 overrides: Optional[dict] = None) -> Comparison:
    """Compare two perf-gate documents; a metric regresses when
    ``current > baseline * (1 + tol)`` (and improves symmetrically), where
    ``tol`` is the metric's entry in ``overrides`` when present, else
    ``tolerance``.  Only metrics present in *both* documents are compared.
    Overrides for metrics absent from the inputs are allowed (baselines
    vary across apps) but still validated to be >= 0."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    overrides = {str(k): float(v) for k, v in (overrides or {}).items()}
    for metric, tol in overrides.items():
        if tol < 0:
            raise ValueError(f"tolerance override for {metric} must be >= 0")
    base = extract_comparable(baseline)
    curr = extract_comparable(current)
    comparison = Comparison(tolerance=tolerance, overrides=overrides)
    for metric in sorted(set(base) & set(curr)):
        b, c = base[metric], curr[metric]
        tol = overrides.get(metric, tolerance)
        if c > b * (1.0 + tol) and c - b > 1e-12:
            comparison.regressions.append(Regression(metric, b, c))
        elif c < b * (1.0 - tol):
            comparison.improvements.append(Regression(metric, b, c))
        else:
            comparison.unchanged += 1
    return comparison


# ---------------------------------------------------------------------------
# Bench-meta trajectories
# ---------------------------------------------------------------------------


def append_bench_history(path, key: str, entry: dict, now=None, limit: int = 200) -> dict:
    """Append one timestamped entry to ``key``'s history in a
    ``bench_meta.json`` file (creating or migrating as needed) and return
    the updated document.

    Each slot holds ``{"latest": entry, "history": [oldest..newest]}`` so
    the file records a *trajectory* instead of only the last run; legacy
    flat entries become the first history item.  ``now`` (a datetime or
    ISO string) is stamped as ``entry["at"]`` when given — injected by the
    caller so this module stays clock-free.
    """
    path = Path(path)
    try:
        meta = json.loads(path.read_text())
        if not isinstance(meta, dict):
            meta = {}
    except (OSError, ValueError):
        meta = {}
    slot = meta.get(key)
    if isinstance(slot, dict) and isinstance(slot.get("history"), list):
        history = slot["history"]
    elif isinstance(slot, dict):
        history = [slot]  # legacy flat entry: keep it as the oldest point
    else:
        history = []
    entry = dict(entry)
    if now is not None:
        entry["at"] = now if isinstance(now, str) else now.isoformat(timespec="seconds")
    history.append(entry)
    history = history[-limit:]
    meta[key] = {"latest": entry, "history": history}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return meta
