"""The benchmark's workloads: what one pass runs and which outputs it pins.

Each workload is a closed loop of back-to-back passes in one process
(``jobs=1``, no threads).  Constructing a workload is its set-up: it imports
``repro`` and builds every config, so a fresh interpreter that has built one
is "ready to run".  :meth:`Workload.run_pass` runs one pass and returns

* ``outputs``: the simulated outputs, keyed by a stable label, compared for
  exact equality with ``pins.json`` on every pass;
* ``counters``: per-pass counts for the per-layer ledger.

A pass raises :class:`PassFailure` when a checker reports a problem; any
exception fails the pass.

The simulator is deterministic, so a workload's inputs are its configs.
``seed`` permutes the order in which a pass runs them and sets the app-level
input seed where an app has one (cholesky, allreduce).  Neither changes a
simulated number, so one set of pins serves every seed.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

#: Result fields pinned for every simulated config.
PINNED_FIELDS = (
    "time_per_iteration",
    "total_time",
    "messages_sent",
    "bytes_sent",
    "protocol_counts",
    "gpu_utilization",
)

#: Wire protocols reported as ``comm.proto.<name>``.
PROTOCOLS = ("device_ipc", "rndv_gpudirect", "rndv_host")

FIG9_NODES = (1, 4)


class PassFailure(RuntimeError):
    """A pass finished but a checker (sanitizer, cache accounting) objected."""


def _pinned(result) -> dict:
    pinned = {name: getattr(result, name) for name in PINNED_FIELDS}
    pinned["protocol_counts"] = {p.value: n for p, n in result.protocol_counts.items()}
    return pinned


def _comm_counters(results) -> dict:
    counters = {"comm.messages": 0, "comm.bytes": 0}
    for name in PROTOCOLS:
        counters[f"comm.proto.{name}"] = 0
    for r in results:
        counters["comm.messages"] += r["messages_sent"]
        counters["comm.bytes"] += r["bytes_sent"]
        for name in PROTOCOLS:
            counters[f"comm.proto.{name}"] += r["protocol_counts"].get(name, 0)
    return counters


class Workload:
    """A list of ``(label, config)`` pairs run back to back by plain
    :func:`repro.apps.run_app`."""

    def __init__(self, seed: int, workdir: Path):
        from repro.apps import get_app, run_app

        self.run_app = run_app
        self.configs = self.build(get_app, seed)
        random.Random(seed).shuffle(self.configs)

    def build(self, get_app, seed: int) -> list:
        raise NotImplementedError

    def run_one(self, config):
        return self.run_app(config), {}

    def run_pass(self) -> tuple[dict, dict]:
        outputs, counters = {}, {}
        for label, config in self.configs:
            result, extra = self.run_one(config)
            outputs[label] = _pinned(result)
            for key, value in extra.items():
                counters[key] = counters.get(key, 0) + value
        counters.update(_comm_counters(outputs.values()))
        return outputs, counters


class CharmStrong(Workload):
    """The paper's fine-grained strong-scaling regime (ODF 8 on 48 GPUs):
    the scheduler and event kernel carry the load."""

    def build(self, get_app, seed):
        jacobi = get_app("jacobi3d").config_cls
        return [("jacobi3d charm-d 8n 384^3 odf8", jacobi(
            version="charm-d", nodes=8, grid=(384, 384, 384), odf=8,
            iterations=2, warmup=1))]


class MpiHost(Workload):
    """Host-staged MPI: tag matching, host rendezvous and H2D/D2H copies;
    the Charm++ scheduler is nearly idle."""

    def build(self, get_app, seed):
        jacobi = get_app("jacobi3d").config_cls
        return [("jacobi3d mpi-h 16n 768x384x384", jacobi(
            version="mpi-h", nodes=16, grid=(768, 384, 384),
            iterations=5, warmup=1))]


class Checked(Workload):
    """Three small configs, each under an Observatory, the invariant checker
    and a sanitizer: the only workload where the observer layers work."""

    def __init__(self, seed: int, workdir: Path):
        from repro.obs import Observatory
        from repro.sanitize import Sanitizer

        self.Observatory = Observatory
        self.Sanitizer = Sanitizer
        super().__init__(seed, workdir)

    def build(self, get_app, seed):
        return [
            ("jacobi3d charm-d 2n 192^3 odf4", get_app("jacobi3d").config_cls(
                version="charm-d", nodes=2, grid=(192, 192, 192), odf=4)),
            ("cholesky ampi-d 2n 16 tiles", get_app("cholesky").config_cls(
                version="ampi-d", nodes=2, tiles=16, seed=seed)),
            ("allreduce mpi-d 2n", get_app("allreduce").config_cls(
                version="mpi-d", nodes=2, seed=seed)),
        ]

    def run_one(self, config):
        observatory = self.Observatory()
        sanitizer = self.Sanitizer()
        # validate=True raises InvariantError on any breached invariant.
        result = self.run_app(config, observatory=observatory, validate=True,
                              sanitize=sanitizer)
        if sanitizer.findings:
            raise PassFailure(sanitizer.report())
        observatory.report(result)
        return result, {
            "sanitize.ops_checked": sanitizer.ops_checked,
            "sanitize.accesses_checked": sanitizer.accesses_checked,
            "sanitize.findings": len(sanitizer.findings),
            "obs.trace_records": len(observatory.tracer.records),
        }


class Figure9(Workload):
    """``figure9`` through a ParallelRunner with a fresh ResultCache, cold
    then warm: the only workload that reaches exec/core/analysis and the
    CUDA-graph and fusion paths."""

    def __init__(self, seed: int, workdir: Path):
        from repro.apps import get_app
        from repro.core.figures import figure9, iterations_for, strong_grid
        from repro.exec import ExperimentPlan, ParallelRunner, ResultCache
        from repro.hardware import MachineSpec
        from repro.kernels.fusion import FusionStrategy

        self.figure9 = figure9
        self.ParallelRunner = ParallelRunner
        self.ResultCache = ResultCache
        self.cache_dir = Path(workdir) / "fig9-cache"
        # The plan figure9 executes, rebuilt here so every pass can check
        # that each point landed at its content-addressed entry.
        jacobi = get_app("jacobi3d").config_cls
        machine = MachineSpec.summit()
        self.plan = ExperimentPlan("fig9")
        for odf in (1, 8):
            for fusion in (FusionStrategy.NONE, FusionStrategy.C):
                for nodes in FIG9_NODES:
                    iterations, warmup = iterations_for(nodes)
                    for graphs in (False, True):
                        self.plan.add(jacobi(
                            version="charm-d", nodes=nodes, grid=strong_grid(768),
                            odf=odf, fusion=fusion, cuda_graphs=graphs,
                            iterations=iterations, warmup=warmup, machine=machine))

    def run_pass(self):
        points = len(self.plan)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        cache = self.ResultCache(self.cache_dir)
        try:
            cold = self.figure9(nodes=FIG9_NODES, runner=self.ParallelRunner(cache=cache))
            warm = self.figure9(nodes=FIG9_NODES, runner=self.ParallelRunner(cache=cache))
            stats = cache.stats
            # Misses are not checked: the runner skips lookups while the
            # cache is empty, so a cold pass counts none.
            if (stats.hits, stats.writes) != (points, points):
                raise PassFailure(
                    f"cache accounting: hits={stats.hits} writes={stats.writes} "
                    f"(expected {points} each)")
            # A missing entry raises here and fails the pass.
            results = [json.loads(cache.path_for(p.config).read_text())["result"]
                       for p in self.plan]
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        counters = _comm_counters(results)
        counters.update({"exec.cache_hits": stats.hits, "exec.cache_misses": stats.misses,
                         "exec.cache_writes": stats.writes})
        outputs = {
            f"{phase} {label}": series.points
            for phase, fig in (("cold", cold), ("warm", warm))
            for label, series in fig.series.items()
        }
        return outputs, counters


WORKLOADS = {
    "charm-strong": CharmStrong,
    "mpi-host": MpiHost,
    "checked": Checked,
    "figure9": Figure9,
}
NAMES = tuple(WORKLOADS)


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Set up workload ``name``: import, build configs, ready to run."""
    return WORKLOADS[name](seed, workdir)
