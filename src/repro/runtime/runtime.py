"""The Charm++-like runtime facade.

:class:`CharmRuntime` owns the per-PE schedulers, chare arrays, the UCX
context (for the Channel / GPU-Messaging APIs), and reduction machinery.
Typical use::

    engine = Engine()
    cluster = Cluster(engine, MachineSpec.summit(), n_nodes)
    runtime = CharmRuntime(cluster)
    blocks = runtime.create_array(Block, shape=(4, 2, 2))
    blocks.broadcast("run")
    runtime.run()            # drives the engine until quiescence

Quiescence = every started SDAG frame finished and no messages pending; an
unfinished frame after the event heap drains is reported as a deadlock with
per-frame diagnostics (which ``when``/event each stuck chare awaits).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..comm import UcxContext
from ..hardware import Cluster
from ..sim import SimulationError
from .array import ChareArray
from .costs import RuntimeCosts
from .mapping import make_mapping
from .messages import EntryMessage
from .reductions import ReductionManager
from .scheduler import Scheduler

__all__ = ["CharmRuntime"]


class CharmRuntime:
    """One runtime instance per simulated job."""

    def __init__(
        self,
        cluster: Cluster,
        costs: Optional[RuntimeCosts] = None,
        ucx: Optional[UcxContext] = None,
    ):
        self.cluster = cluster
        self.engine = cluster.engine
        self.costs = costs or RuntimeCosts()
        self.ucx = ucx or UcxContext(cluster)
        self.schedulers = [Scheduler(self, pe) for pe in cluster.all_pes()]
        self.reductions = ReductionManager(self)
        self._arrays: dict[int, ChareArray] = {}
        self._observers: list[Callable] = []
        self._live_frames = 0
        self._frames_ever = 0
        self._stuck: list = []
        #: (array_id, index) -> chare, filled lazily by :meth:`chare_at`.
        #: Array elements are fixed at creation, so entries never go stale.
        self._chare_cache: dict = {}
        #: chare class -> {method name -> (function | None, is_generator)},
        #: the per-class entry dispatch tables built lazily by the
        #: schedulers (shared here so every PE reuses the same lookups).
        self._entry_tables: dict[type, dict] = {}

    # -- arrays -----------------------------------------------------------------
    def create_array(
        self,
        chare_cls,
        shape: Sequence[int],
        mapping: str | dict = "block",
        name: str = "",
    ) -> ChareArray:
        """Create a chare array over all PEs (like ``ckNew``)."""
        array_id = len(self._arrays)
        if isinstance(mapping, str):
            mapping = make_mapping(mapping, shape, self.cluster.n_pes)
        array = ChareArray(self, array_id, chare_cls, shape, mapping, name=name)
        self._arrays[array_id] = array
        return array

    def array_by_id(self, array_id: int) -> ChareArray:
        return self._arrays[array_id]

    def chare_at(self, array_id: int, index):
        key = (array_id, index) if type(index) is tuple else (array_id, tuple(index))
        chare = self._chare_cache.get(key)
        if chare is None:
            chare = self._arrays[array_id].elements[key[1]]
            self._chare_cache[key] = chare
        return chare

    def scheduler_of(self, pe_index: int) -> Scheduler:
        return self.schedulers[pe_index]

    # -- message routing -----------------------------------------------------------
    def deliver(self, msg: EntryMessage, src_pe: int, dst_pe: int) -> None:
        """Route an entry message (called from a send thunk at flush time)."""
        from ..hardware.network import Message as NetMessage

        if src_pe == dst_pe:
            # Same-PE: pointer enqueue after a small delivery delay.
            self.engine.pause(self.costs.local_delivery_s).add_callback(
                lambda _e: self.schedulers[dst_pe].enqueue(msg)
            )
        else:
            wire = NetMessage(
                src_pe,
                dst_pe,
                msg.data_bytes + self.costs.envelope_bytes,
                tag=("entry", msg.method),
                priority=msg.priority,
            )
            self.cluster.network.transfer(wire).add_callback(
                lambda _e: self.schedulers[dst_pe].enqueue(msg)
            )

    # -- frame lifecycle / quiescence --------------------------------------------------
    def _frame_started(self, frame) -> None:
        self._live_frames += 1
        self._frames_ever += 1

    def _frame_finished(self, frame) -> None:
        self._live_frames -= 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drive the simulation to quiescence (or ``until``).

        Raises
        ------
        SimulationError
            If the event heap drains while SDAG frames are still waiting —
            a deadlock; the error lists every stuck frame.
        """
        self.engine.run(until=until, max_events=max_events)
        if until is None and self._live_frames > 0:
            stuck = []
            for array in self._arrays.values():
                for chare in array.elements.values():
                    for frame in chare._frames:
                        wait = frame.waiting_when
                        what = (
                            f"when({wait.method!r}, ref={wait.ref!r})"
                            if wait is not None
                            else "an Await event"
                        )
                        stuck.append(f"  {frame.name or chare!r} waiting on {what}")
            detail = "\n".join(stuck[:20])
            for observer in self.engine.observers:
                explain = getattr(observer, "explain_deadlock", None)
                extra = explain() if explain is not None else ""
                if extra:
                    detail = f"{detail}\n{extra}"
            raise SimulationError(
                f"deadlock: {self._live_frames} unfinished frames after quiescence:\n{detail}"
            )

    # -- observers -------------------------------------------------------------------
    def observe(self, fn: Callable) -> None:
        """Register ``fn(event_name, chare, **data)`` for app notifications."""
        self._observers.append(fn)

    def _notify(self, event: str, chare, **data) -> None:
        for fn in self._observers:
            fn(event, chare, **data)

    # -- stats ------------------------------------------------------------------------
    def total_messages_processed(self) -> int:
        return sum(s.messages_processed for s in self.schedulers)
