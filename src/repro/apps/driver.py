"""The generic application driver: run any registered app end to end.

:func:`run_app` owns everything that is *not* app-specific — engine,
cluster, tracer/observatory attachment, invariant checking, metrics
collection, and result assembly.  The app supplies only its config class,
context factory, Charm++ block class and MPI/AMPI rank program, all looked
up through its :class:`~repro.apps.registry.AppSpec`.
"""

from __future__ import annotations

from typing import Optional

from ..ampi import AmpiProcess, AmpiWorld
from ..hardware import COMPUTE, Cluster
from ..mpi import MpiProcess, MpiWorld
from ..obs.timeline import compute_comm_overlap
from ..runtime import CharmRuntime
from ..sim import Engine, Tracer, trace
from ..validate.invariants import InvariantChecker
from .registry import spec_for

__all__ = ["run_app"]


def _rank_class(program, eager_setup: bool):
    """Host a rank-program mixin as MPI (``eager_setup``) or AMPI ranks.

    An MPI rank has its ``pe``/``gpu`` at construction, so device setup
    runs in ``init`` — the historical event order every cached result
    depends on.  An AMPI rank gets them only when its hosting chare
    attaches, so setup waits for the top of ``main``.
    """
    host = MpiProcess if eager_setup else AmpiProcess

    class Rank(program, host):
        def init(self):
            self._bind_unit()
            if eager_setup:
                self._setup_device()

        def main(self, msg=None):
            if not eager_setup:
                self._setup_device()
            yield from self._main_body()

    return Rank


def run_app(
    config,
    tracer: Optional[Tracer] = None,
    initial_state: Optional[dict] = None,
    validate: bool = False,
    observatory=None,
    context_out: Optional[list] = None,
    sanitize=False,
    context_hook=None,
):
    """Simulate one run of ``config``'s app; returns measurements (and, in
    functional mode, every block's final interior).

    ``initial_state`` (functional mode): block index -> interior array, to
    continue from a checkpoint/restart instead of the cold initial
    condition.  The decomposition depends only on the total block count, so
    a checkpoint taken on N nodes restarts cleanly on M nodes whenever
    ``n_blocks`` matches (overdecomposition absorbs the difference).

    ``validate=True`` attaches an :class:`~repro.validate.InvariantChecker`
    for the whole run and raises :class:`~repro.validate.InvariantError`
    if any simulation invariant is breached.  Observers are passive:
    the event schedule (and therefore every result) is unchanged.

    ``sanitize`` attaches a happens-before concurrency
    :class:`~repro.sanitize.Sanitizer` (another pure observer — see
    docs/sanitizer.md).  ``True`` creates one and raises
    :class:`~repro.sanitize.SanitizerError` on findings; passing a
    ``Sanitizer`` instance attaches it and leaves the findings for the
    caller to inspect (what ``repro sanitize`` does).

    ``observatory`` (an :class:`~repro.obs.Observatory`) attaches a tracer
    *and* a metrics registry for perf reporting; pass either it or a bare
    ``tracer``, not both.

    ``context_out`` (a list): receives the app context right after
    construction, so post-run audits can read app-side ledgers — the DAG
    property suite inspects the Cholesky
    :class:`~repro.runtime.taskspace.TaskSpace` journal through this hook.

    ``context_hook`` (callable): invoked with the context before any
    frontend is built — the seam the sanitizer's fault injectors use to
    deliberately corrupt a plan (e.g. drop a declared DAG edge) and prove
    the detectors fire.
    """
    spec = spec_for(config)
    if observatory is not None and tracer is not None:
        raise ValueError("pass either tracer= or observatory=, not both")
    engine = Engine()
    if tracer is not None:
        tracer.attach(engine)
    cluster = Cluster(engine, config.machine, config.nodes)
    if observatory is not None:
        observatory.begin(engine, cluster)
    checker = None
    if validate:
        checker = InvariantChecker().attach(engine)
        checker.watch_cluster(cluster)
    sanitizer = None
    if sanitize:
        from ..sanitize import Sanitizer

        sanitizer = sanitize if isinstance(sanitize, Sanitizer) else Sanitizer()
        sanitizer.attach(engine)
    ctx = spec.make_context(config, initial_state=initial_state)
    if context_out is not None:
        context_out.append(ctx)
    if context_hook is not None:
        context_hook(ctx)
    metrics = ctx.metrics

    def observer(name, unit, **data):
        metrics.on_event(name, unit, now=engine.now, **data)
        if name == "iter_done":
            key = getattr(unit, "index", None) or getattr(unit, "rank", None)
            trace(engine, "app.iter_done", str(key), iter=data["iter"])

    runtime = world = None
    if config.is_charm:
        runtime = CharmRuntime(cluster)
        runtime.observe(observer)
    else:
        if config.is_ampi:
            world = AmpiWorld(cluster, vranks=config.n_blocks())
            runtime = world.runtime
        else:
            world = MpiWorld(cluster)
        world.observe(observer)
    ucx = world.ucx if runtime is None else runtime.ucx
    if checker is not None:
        checker.watch_ucx(ucx)
        if runtime is not None:
            checker.watch_runtime(runtime)
    if sanitizer is not None and runtime is not None:
        sanitizer.watch_runtime(runtime)

    blocks = None
    if world is None:
        array = runtime.create_array(
            spec.make_block_class(ctx), shape=ctx.shape, mapping="block", name=spec.name
        )
        array.broadcast("run")
        runtime.run()
        if config.functional:
            blocks = {idx: ch.data.f_interior() for idx, ch in array.elements.items()}
    else:
        program = spec.make_rank_program(ctx)
        ranks = world.launch(_rank_class(program, eager_setup=config.is_mpi))
        world.run()
        if config.functional:
            blocks = {r.index: r.data.f_interior() for r in ranks}

    metrics.check_complete(config.total_iterations)
    if checker is not None:
        checker.finish()
    if sanitizer is not None:
        sanitizer.finish(raise_on_findings=sanitize is True)
    t_end = engine.now
    t_warm = metrics.warmup_boundary
    measured = t_end - t_warm
    if measured <= 0:
        raise RuntimeError("measured window is empty; increase iterations")
    per_iteration = metrics.time_per_iteration(config.iterations)

    # All busy/overlap accounting is windowed to the measured (post-warmup)
    # interval so warmup iterations do not inflate utilization.
    gpu_busy = sum(
        gpu.trackers[COMPUTE].busy_seconds(t_warm, t_end)
        for node in cluster.nodes
        for gpu in node.gpus
    )
    overlap = compute_comm_overlap(cluster)
    window = measured * cluster.n_gpus
    pe_busy = sum(pe.busy.busy_seconds(t_warm, t_end) for pe in cluster.all_pes())

    return spec.result_cls(
        config=config,
        total_time=t_end,
        warmup_boundary=t_warm,
        time_per_iteration=per_iteration,
        gpu_busy_s=gpu_busy,
        gpu_utilization=min(1.0, gpu_busy / window) if window > 0 else 0.0,
        pe_busy_s=pe_busy,
        messages_sent=cluster.network.messages_sent,
        bytes_sent=cluster.network.bytes_sent,
        protocol_counts=dict(ucx.protocol_counts),
        overlap_s=overlap,
        max_halo_bytes=ctx.max_payload_bytes(),
        blocks=blocks,
        residuals=ctx.residuals.history() if config.functional else None,
    )
