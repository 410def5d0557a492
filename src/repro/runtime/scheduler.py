"""The per-PE message-driven scheduler (paper Fig. 2).

One scheduler process runs per PE.  It pops prioritized items off its
message queue and either (a) starts/dispatches an entry method on the
target chare, (b) delivers a mailbox message — resuming an SDAG
continuation waiting in a matching ``when`` — or (c) resumes a continuation
woken by asynchronous completion detection (HAPI).

All CPU costs (scheduling, dispatch, sends, kernel-launch calls) are
charged here, serially, because the PE is a single core: a chare busy
launching kernels delays every other chare on that PE — the fine-grained
overhead that caps useful ODF in Figs. 7–9.

Hot-path notes (see ``docs/performance.md``): entry-method lookup goes
through a per-chare-class dispatch table built lazily on first delivery
(no ``getattr`` + ``inspect`` per message), command dispatch in the SDAG
driver is a single class-keyed table lookup, and the busy/flush helpers
are inlined behind cheap guards so the zero-charge case allocates no
generators.  None of this changes the event schedule: a zero-second
charge never yielded an event before either.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from ..sim import PriorityStore, SimulationError
from .chare import Frame
from .commands import Await, Launch, LaunchGraph, When, Work
from .messages import EntryMessage, Resume, queue_priority

__all__ = ["Scheduler"]

# Command kinds for the SDAG driver's flat dispatch (resolved once per
# command class; subclasses of the five command types fold onto their base).
_WORK, _LAUNCH, _GRAPH, _WHEN, _AWAIT = range(5)
_COMMAND_KINDS: dict[type, int] = {
    Work: _WORK, Launch: _LAUNCH, LaunchGraph: _GRAPH, When: _WHEN, Await: _AWAIT,
}


def _command_kind(cmd) -> Optional[int]:
    """Kind of ``cmd``, caching unseen (sub)classes; ``None`` = not a command."""
    for base, kind in ((Work, _WORK), (Launch, _LAUNCH), (LaunchGraph, _GRAPH),
                       (When, _WHEN), (Await, _AWAIT)):
        if isinstance(cmd, base):
            _COMMAND_KINDS[cmd.__class__] = kind
            return kind
    return None


class Scheduler:
    """Message-driven scheduler for one PE."""

    def __init__(self, runtime, pe):
        self.runtime = runtime
        self.pe = pe
        self.engine = runtime.engine
        self.costs = runtime.costs
        self.queue = PriorityStore(
            self.engine, name=f"{pe.name}.msgq", priority=queue_priority
        )
        self._pending_charge = 0.0
        self._outbox: list[Callable[[], None]] = []
        self.messages_processed = 0
        self._proc = self.engine.process(self._loop(), name=f"{pe.name}.sched")

    # -- queue entry points ------------------------------------------------------
    def enqueue(self, item) -> None:
        self.queue.put_nowait(item)

    def add_charge(self, seconds: float) -> None:
        """Accumulate CPU cost, paid at the next flush point."""
        self._pending_charge += seconds

    def post_send(self, cost: float, thunk: Callable[[], None]) -> None:
        """Register an outgoing communication action; it is charged and
        executed at the issuing entry method's next yield point."""
        self._pending_charge += cost
        self._outbox.append(thunk)

    # -- main loop ------------------------------------------------------------
    def _loop(self):
        engine = self.engine
        costs = self.costs
        queue = self.queue
        while True:
            item = yield queue.get()
            self.messages_processed += 1
            is_resume = item.__class__ is Resume or isinstance(item, Resume)
            h = engine.hooks
            if h is not None:
                for fn in h.sched_dequeue:
                    fn(self, is_resume)
            if is_resume:
                if item.frame.finished:
                    continue
                # One combined charge: queue pop + continuation resume.
                seconds = costs.scheduling_overhead_s + costs.resume_overhead_s
                if seconds > 0:
                    if h is not None:
                        for fn in h.cpu_busy:
                            fn(self.pe, seconds)
                    token = self.pe.busy.begin()
                    yield seconds
                    self.pe.busy.end(token)
                yield from self._drive(item.frame, item.value)
            elif item.__class__ is EntryMessage or isinstance(item, EntryMessage):
                yield from self._dispatch(item)
            else:  # pragma: no cover - guarded by types
                raise SimulationError(f"unknown queue item {item!r}")

    def _entry_info(self, cls: type, method: str):
        """``(bound-unbound function | None, is_generator)`` for an entry
        method, from the runtime-wide per-class dispatch table (built
        lazily: one ``getattr`` + ``inspect`` per (class, method), ever)."""
        tables = self.runtime._entry_tables
        table = tables.get(cls)
        if table is None:
            table = tables[cls] = {}
        info = table.get(method)
        if info is None:
            fn = getattr(cls, method, None)
            info = (fn, fn is not None and inspect.isgeneratorfunction(fn))
            table[method] = info
        return info

    def _dispatch(self, msg: EntryMessage):
        engine = self.engine
        costs = self.costs
        chare = self.runtime.chare_at(msg.array_id, msg.index)
        if chare.pe is not self.pe:
            raise SimulationError(
                f"message for {chare!r} landed on wrong scheduler {self.pe.name}"
            )
        method, is_gen = self._entry_info(chare.__class__, msg.method)
        # One combined charge: queue pop + envelope + entry dispatch.
        seconds = costs.scheduling_overhead_s + costs.entry_dispatch_s
        if seconds > 0:
            h = engine.hooks
            if h is not None:
                for fn in h.cpu_busy:
                    fn(self.pe, seconds)
            token = self.pe.busy.begin()
            yield seconds
            self.pe.busy.end(token)
        if method is None:
            # Mailbox deposit: resume a matching `when`, else buffer.
            frame = chare._take_waiting_frame(msg.method, msg.ref)
            if frame is None:
                chare._mailbox_push(msg)
                return
        h = engine.hooks
        if h is not None:
            for fn in h.msg_consume:
                fn(chare, msg)
        if method is None:
            yield from self._drive(frame, msg)
        elif is_gen:
            coroutine = method(chare, msg)
            frame = Frame(chare, coroutine, method=msg.method)
            chare._frames.append(frame)
            self.runtime._frame_started(frame)
            yield from self._drive(frame, None)
        else:
            method(chare, msg)
            if self._pending_charge > 0 or self._outbox:
                yield from self._flush()

    # -- SDAG continuation driver -----------------------------------------------
    def _drive(self, frame: Frame, value):
        engine = self.engine
        pe = self.pe
        coroutine = frame.coroutine
        chare = frame.chare
        kinds = _COMMAND_KINDS
        while True:
            try:
                cmd = coroutine.send(value)
            except StopIteration:
                frame.finished = True
                chare._frames.remove(frame)
                if self._pending_charge > 0 or self._outbox:
                    yield from self._flush()
                self.runtime._frame_finished(frame)
                return
            value = None
            kind = kinds.get(cmd.__class__)
            if kind is None:
                kind = _command_kind(cmd)
                if kind is None:
                    frame.finished = True
                    chare._frames.remove(frame)
                    self.runtime._frame_finished(frame)
                    raise SimulationError(
                        f"{frame.name} yielded {cmd!r}; entry methods must yield Commands"
                    )
            if kind == _WHEN:
                msg = chare._mailbox_pop(cmd.method, cmd.ref)
                if msg is not None:
                    h = engine.hooks
                    if h is not None:
                        for fn in h.msg_consume:
                            fn(chare, msg)
                    value = msg
                    continue
                if self._pending_charge > 0 or self._outbox:
                    yield from self._flush()
                frame.waiting_when = cmd
                return
            if self._pending_charge > 0 or self._outbox:
                yield from self._flush()
            if kind == _WORK:
                seconds = cmd.seconds
            elif kind == _LAUNCH:
                seconds = cmd.stream.device.cpu_launch_cost(cmd.work)
            elif kind == _GRAPH:
                seconds = cmd.exec.cpu_launch_cost
            else:  # _AWAIT
                event = cmd.event
                if event.processed:
                    h = engine.hooks
                    if h is not None:
                        for fn in h.wake:
                            fn(chare, event)
                    value = event.value
                    continue
                self._register_wakeup(frame, event, cmd.priority)
                return
            if seconds > 0:
                h = engine.hooks
                if h is not None:
                    for fn in h.cpu_busy:
                        fn(pe, seconds)
                token = pe.busy.begin()
                yield seconds
                pe.busy.end(token)
            if kind == _LAUNCH:
                value = cmd.stream.enqueue(
                    cmd.work, name=cmd.name, wait_events=list(cmd.wait_events),
                    reads=cmd.reads, writes=cmd.writes,
                )
                h = engine.hooks
                if h is not None:
                    for fn in h.sched_launch:
                        fn(pe, "kernel")
                    for fn in h.launch_issue:
                        fn(chare, value)
            elif kind == _GRAPH:
                h = engine.hooks
                if h is not None:
                    for fn in h.sched_launch:
                        fn(pe, "graph")
                value = cmd.exec.launch(priority=cmd.priority, after=list(cmd.after))

    def _register_wakeup(self, frame: Frame, event, priority: float) -> None:
        """Asynchronous completion detection: when ``event`` fires, a Resume
        enters the queue after the HAPI polling delay."""
        poll = self.costs.hapi_poll_s

        def on_fire(ev):
            h = self.engine.hooks
            if h is not None:
                for fn in h.wake:
                    fn(frame.chare, ev)
            self.engine.pause(poll).add_callback(
                lambda _t: self.enqueue(Resume(frame, ev.value, priority))
            )

        event.add_callback(on_fire)

    # -- cost accounting -----------------------------------------------------------
    def _busy(self, seconds: float):
        if seconds > 0:
            h = self.engine.hooks
            if h is not None:
                for fn in h.cpu_busy:
                    fn(self.pe, seconds)
            token = self.pe.busy.begin()
            yield seconds
            self.pe.busy.end(token)

    def _flush(self):
        """Charge accumulated CPU cost, then release queued sends."""
        if self._pending_charge > 0:
            charge, self._pending_charge = self._pending_charge, 0.0
            yield from self._busy(charge)
        if self._outbox:
            outbox, self._outbox = self._outbox, []
            for thunk in outbox:
                thunk()
