"""AMPI: virtualized MPI ranks running as chares.

An :class:`AmpiProcess` runs the same rank program as
:class:`repro.mpi.MpiProcess`, but hosted by a chare on the Charm++-like
runtime, so:

* ``waitall``/``wait``/``sync`` *suspend the chare* instead of spinning the
  CPU: other virtual ranks on the same PE keep working (automatic
  computation-communication overlap, no code changes);
* the number of ranks is decoupled from the number of PEs
  (*virtualization ratio* = ranks per PE, AMPI's +vp option);
* ranks inherit the runtime's scheduling, priorities and (between phases)
  migratability.

Limitations (faithful to the scope of the paper's future-work remark):
collectives and point-to-point work across any virtualization ratio, but
ranks must not migrate while communication is in flight.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..comm.ucx import PRIORITY_COMM
from ..hardware import Cluster
from ..mpi.api import MpiCosts, RankProcess, Request, _Irecv, _Isend, _WaitAll
from ..runtime import Chare, CharmRuntime
from ..runtime.commands import Await, Launch, LaunchGraph, Work
from ..sim import SimulationError

__all__ = ["AmpiProcess", "AmpiWorld"]


class AmpiProcess(RankProcess):
    """Base class for AMPI rank programs; subclass and implement ``main()``.

    ``pe``/``gpu`` are bound *after* ``init``, when the hosting chare
    attaches: allocate device state in ``main``.
    """

    BARRIER_TAG = "ampi-bar"
    ALLREDUCE_TAG = "ampi-ared"

    def __init__(self, world: "AmpiWorld", rank: int):
        self._chare: Optional[Chare] = None  # bound by the hosting chare
        super().__init__(world, rank)

    def main(self, msg=None):  # pragma: no cover - must be overridden
        """The virtual rank program: ``pe``/``gpu`` are bound by now, and
        its waits suspend the hosting chare instead of spinning the PE."""
        raise NotImplementedError
        yield  # repro-lint: disable=RPL003 -- unreachable generator-marker idiom

    @property
    def pe(self):
        return self._chare.pe

    @property
    def gpu(self):
        return self._chare.gpu


def _make_rank_chare(world: "AmpiWorld"):
    """A chare class hosting one virtual rank each."""

    class AmpiRank(Chare):
        def init(self):
            self.vrank = self.index[0]
            self.proc = world.ranks[self.vrank]
            self.proc._chare = self

        def run(self, msg):
            proc = self.proc
            costs = world.costs
            ucx = self.runtime.ucx
            engine = self.runtime.engine
            coroutine = proc.main()
            value = None
            while True:
                try:
                    cmd = coroutine.send(value)
                except StopIteration:
                    world._finished += 1
                    return
                value = None
                if isinstance(cmd, (Work, Launch, LaunchGraph)):
                    value = yield cmd  # the scheduler handles these natively
                elif isinstance(cmd, (_Isend, _Irecv)):
                    yield self.work(costs.call_overhead_s)
                    if isinstance(cmd, _Isend):
                        handle = ucx.isend(
                            self.pe.index,
                            world.pe_of(cmd.dest),
                            cmd.size,
                            tag=("ampi", proc.rank, cmd.dest, cmd.tag),
                            on_device=cmd.device,
                            priority=PRIORITY_COMM,
                            payload=cmd.payload,
                        )
                    else:
                        handle = ucx.irecv(
                            world.pe_of(cmd.source),
                            self.pe.index,
                            cmd.size,
                            tag=("ampi", cmd.source, proc.rank, cmd.tag),
                            on_device=cmd.device,
                        )
                    h = engine.hooks
                    if h is not None:
                        for fn in h.transfer_post:
                            fn(handle, self, None)
                    value = Request(handle, handle.kind)
                elif isinstance(cmd, _WaitAll):
                    yield self.work(costs.completion_s * max(1, len(cmd.requests)))
                    pending = [r.done for r in cmd.requests if not r.done.processed]
                    if pending:
                        # The AMPI difference: suspend, don't spin — the PE
                        # is free for other virtual ranks meanwhile.
                        yield self.wait_all(pending)
                    h = engine.hooks
                    if h is not None:
                        for r in cmd.requests:
                            for fn in h.wake:
                                fn(self, r.done)
                    value = [r.data for r in cmd.requests]
                elif isinstance(cmd, Await):
                    if not cmd.event.processed:
                        yield self.wait(cmd.event)
                    elif engine.hooks is not None:
                        for fn in engine.hooks.wake:
                            fn(self, cmd.event)
                    value = cmd.event.value
                else:
                    raise SimulationError(
                        f"virtual rank {proc.rank} yielded unknown command {cmd!r}"
                    )

    return AmpiRank


class AmpiWorld:
    """All virtual ranks of one AMPI job.

    Parameters
    ----------
    cluster:
        The machine.
    vranks:
        Total virtual ranks; the virtualization ratio is ``vranks / n_pes``
        (need not be an integer multiple, but usually is).
    """

    def __init__(self, cluster: Cluster, vranks: Optional[int] = None,
                 costs: Optional[MpiCosts] = None,
                 runtime: Optional[CharmRuntime] = None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.costs = costs or MpiCosts()
        self.runtime = runtime or CharmRuntime(cluster)
        self.size = vranks if vranks is not None else cluster.n_pes
        if self.size < 1:
            raise ValueError("need at least one virtual rank")
        self.ranks: list[AmpiProcess] = []
        self._array = None
        self._observers: list[Callable] = []
        self._finished = 0

    @property
    def virtualization_ratio(self) -> float:
        return self.size / self.cluster.n_pes

    def pe_of(self, vrank: int) -> int:
        if self._array is None:
            raise SimulationError("launch() before communication")
        return self._array.mapping[(vrank,)]

    def launch(self, process_cls, **kwargs) -> list[AmpiProcess]:
        if self.ranks:
            raise SimulationError("AmpiWorld.launch called twice")
        self.ranks = [process_cls(self, r, **kwargs) for r in range(self.size)]
        self._array = self.runtime.create_array(
            _make_rank_chare(self), shape=(self.size,), mapping="block", name="ampi"
        )
        self._array.broadcast("run")
        return self.ranks

    def run(self, max_events: Optional[int] = None) -> None:
        """Run to completion of every virtual rank (raises on deadlock)."""
        if self._array is None:
            raise SimulationError("launch() before run()")
        self.runtime.run(max_events=max_events)
        if self._finished != self.size:
            raise SimulationError(
                f"AMPI deadlock: {self.size - self._finished} virtual ranks unfinished"
            )

    def observe(self, fn: Callable) -> None:
        self._observers.append(fn)

    def _notify(self, event: str, proc: AmpiProcess, **data) -> None:
        for fn in self._observers:
            fn(event, proc, **data)
