"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy, written
from scratch for this reproduction.  Simulated entities are *processes*:
plain Python generators that ``yield`` events (timeouts, other events,
other processes, or ``AllOf``/``AnyOf`` combinations) and are resumed by the
:class:`Engine` when those events trigger.

Determinism rules
-----------------
* The event heap orders by ``(time, priority, sequence)``; the sequence
  number breaks ties in scheduling order, so two runs of the same program
  interleave identically.
* All randomness must come from :mod:`repro.sim.rng` named streams.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def proc(name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.process(proc("a", 2.0)); _ = eng.process(proc("b", 1.0))
>>> eng.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError, StopEngine

__all__ = [
    "HOOK_EVENTS",
    "Hooks",
    "Observer",
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

# Event lifecycle states.
PENDING = 0  # not yet succeeded/failed
TRIGGERED = 1  # succeeded/failed, callbacks scheduled but not yet run
PROCESSED = 2  # callbacks have run

# Scheduling priorities: lower runs first at equal times.  URGENT is used for
# internal bookkeeping (e.g. condition evaluation) so user-visible ordering
# stays intuitive.
URGENT = 0
NORMAL = 1

#: The observer vocabulary.  Each name is a moment the simulator reports;
#: an observer subscribes by defining ``on_<name>`` with the arguments
#: listed here.  Instrumented sites pass plain simulator objects — metric
#: names, labels and trace formats live in the observers.
HOOK_EVENTS = (
    "event_scheduled",  # (event) pushed onto the heap
    "event_executed",   # (time, event) popped, before its callbacks run
    "op_enqueue",       # (stream, op) GPU op submitted to a stream
    "op_dispatch",      # (stream, op, deps) stream hands op to the device
    "op_start",         # (device, op, kind, duration) op holds its engine
    "op_done",          # (op) op finished on the device
    "event_record",     # (stream, cuda_event) stream reached a CUDA event
    "launch_issue",     # (owner, op) owner issued op (a launch or later post)
    "wake",             # (owner, event) owner resumed on event
    "msg_deposit",      # (msg, owner, event) sent by owner / completed by event
    "msg_consume",      # (owner, msg) owner consumed msg
    "transfer_post",    # (handle, owner, issued) see launch_issue(owner, issued)
    "net_send",         # (network, message) message entered the wire
    "net_deliver",      # (network, message) message reached its node
    "ucx_post",         # (ucx, handle) UCX isend/irecv posted
    "ucx_pipeline",     # (handle, chunks) send staged in chunks
    "grant",            # (resource, amount) resource units granted
    "release",          # (resource, amount) resource units released
    "task_attach",      # (space, key, done_event) TaskSpace task issued
    "sched_dequeue",    # (scheduler, is_resume) PE scheduler popped an item
    "sched_launch",     # (pe, kind) scheduler launched a kernel or graph
    "cpu_busy",         # (pe, seconds) PE charged CPU time
    "gm_send",          # (pe, size) GPU Messaging API send
    "trace",            # (category, actor, data) free-form trace record
)


class Hooks:
    """An engine's observer table: attribute ``<name>`` holds the tuple of
    attached observers' bound ``on_<name>`` methods, in attach order.  A
    site reports with ``h = engine.hooks; if h is not None: for fn in
    h.<name>: fn(...)``."""

    __slots__ = HOOK_EVENTS


class Observer:
    """The shared attach/detach contract: ``obs.attach(engine)`` is
    ``engine.attach(obs)`` returning ``obs``; :meth:`detach` and the context
    manager undo it.  Subclasses implement any ``on_<name>`` hooks."""

    #: The engine this observer is attached to (maintained by the engine).
    engine: Optional["Engine"] = None
    #: If true, an engine admits at most one instance of the class.
    exclusive = False

    def attach(self, engine: "Engine"):
        engine.attach(self)
        return self

    def detach(self) -> None:
        """Unsubscribe from the current engine (no-op when unattached)."""
        if self.engine is not None:
            self.engine.detach(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and becomes *processed* once its
    callbacks have executed at the trigger time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_state", "_ok", "name")

    #: Class-level flags read by the run loop instead of ``isinstance``
    #: checks (one monomorphic attribute load per event).  ``_crashable``
    #: marks events whose unwatched failure must abort the run
    #: (:class:`Process`); ``_poolable`` marks engine-recycled events that
    #: must never be retained past their trigger time (see
    #: :meth:`Engine.pause`).
    _crashable = False
    _poolable = False

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._state = PENDING
        self._ok = True
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        engine = self.engine
        _heappush(engine._heap, (engine.now, priority, engine._seq, self))
        engine._seq += 1
        h = engine.hooks
        if h is not None:
            for fn in h.event_scheduled:
                fn(self)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; ``exc`` is thrown into waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._ok = False
        self._value = exc
        self.engine._push(0.0, priority, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed the callback fires
        immediately (at the current simulation time).
        """
        if self._state == PROCESSED:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}[self._state]
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.engine.now:g}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + Engine._push: one constructor frame
        # instead of three on a path taken once per timeout.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._state = TRIGGERED
        self._ok = True
        self.name = name
        self.delay = delay
        _heappush(engine._heap, (engine.now + delay, NORMAL, engine._seq, self))
        engine._seq += 1
        h = engine.hooks
        if h is not None:
            for fn in h.event_scheduled:
                fn(self)


class _PooledEvent(Event):
    """A recyclable pre-triggered delay, reused through the engine's
    free-list (see :meth:`Engine.pause`).  Never constructed by user code
    and never safe to retain after it fires: the run loop resets and
    recycles the object as soon as its callbacks have run.

    ``_waiter`` is the single-waiter fast lane used by the bare-number
    yield in :meth:`Process._resume` — one slot store instead of a
    callbacks-list append, one call instead of a list iteration.  A pooled
    event may carry a ``_waiter``, ``callbacks``, or both (fired in that
    order, matching registration order: the waiter is only ever installed
    at creation time)."""

    __slots__ = ("_waiter",)

    _poolable = True

    def __init__(self, engine: "Engine", name: str = ""):
        super().__init__(engine, name=name)
        self._waiter = None

    def _process(self) -> None:
        self._state = PROCESSED
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter(self)
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for fn in callbacks:
                fn(self)


class _ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_n_done")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name=name)
        self.events = tuple(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
            if ev._poolable:
                # A condition reads child values when *it* triggers, which
                # can be after the child was recycled — reject outright.
                raise SimulationError(
                    "conditions cannot wait on pooled pause() events")
        self._n_done = 0
        if not self.events:
            self.succeed(self._result())
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _result(self) -> list[Any]:
        return [ev.value for ev in self.events if ev.processed and ev.ok]

    def _on_child(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev.ok:
            self.fail(ev.value, priority=URGENT)
            return
        self._n_done += 1
        if self._check():
            self.succeed(self._result(), priority=URGENT)

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_ConditionBase):
    """Triggers once *all* child events have triggered.

    The value is the list of child values in child order.
    """

    __slots__ = ()

    def _result(self) -> list[Any]:
        return [ev.value for ev in self.events]

    def _check(self) -> bool:
        return self._n_done == len(self.events)


class AnyOf(_ConditionBase):
    """Triggers once *any* child event has triggered.

    The value is the list of values of children processed so far.
    """

    __slots__ = ()

    def _check(self) -> bool:
        return self._n_done >= 1


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process is itself an :class:`Event` that triggers with the
    generator's return value when it finishes (or fails with its unhandled
    exception).
    """

    __slots__ = ("_generator", "_send", "_throw", "_waiting_on", "_resume_cb")

    _crashable = True

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {type(generator).__name__}")
        super().__init__(engine, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        # Bound methods cached once: _resume runs once per wakeup and the
        # attribute chain through the generator is measurable there.
        self._send = generator.send
        self._throw = generator.throw
        # One bound method for the process's whole life: _resume re-registers
        # itself on every yielded event, and `self._resume` builds a fresh
        # bound object each time it is evaluated.
        self._resume_cb = self._resume
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time via an immediately-triggered event.
        start = Event(engine, name="<start>")
        start._state = TRIGGERED
        start._ok = True
        engine._push(0.0, NORMAL, start)
        start.add_callback(self._resume_cb)
        self._waiting_on = start

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        from .errors import Interrupt

        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is not None:
            target = self._waiting_on
            if target._poolable and target._waiter is self._resume_cb:
                target._waiter = None  # defuse the pending bare-yield tick
            elif self._resume_cb in target.callbacks:
                target.callbacks.remove(self._resume_cb)
        wake = Event(self.engine, name="<interrupt>")
        wake._state = TRIGGERED
        wake._ok = False
        wake._value = Interrupt(cause)
        self.engine._push(0.0, URGENT, wake)
        wake.add_callback(self._resume_cb)
        self._waiting_on = wake

    def _resume(self, trigger: Event) -> None:
        if self._state != PENDING:  # stale wakeup after the process finished
            return
        self._waiting_on = None
        engine = self.engine
        engine._active_process = self
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            engine._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            engine._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        engine._active_process = None
        # Monomorphic accept: the dominant yields are bare delays, pooled
        # pauses and fresh Events; fall back to isinstance otherwise.
        cls = target.__class__
        if cls is float or cls is int:
            # `yield delay` — shorthand for `yield engine.pause(delay)`,
            # scheduled identically (one push, one sequence number) but
            # with the pause inlined: no constructor, no dispatch checks.
            if target < 0:
                self._generator.close()
                self.fail(SimulationError(f"cannot schedule into the past (delay={target})"))
                return
            pool = engine._event_pool
            ev = pool.pop() if pool else _PooledEvent(engine, name="<pause>")
            ev._state = TRIGGERED
            ev._waiter = self._resume_cb
            _heappush(engine._heap, (engine.now + target, NORMAL, engine._seq, ev))
            engine._seq += 1
            h = engine.hooks
            if h is not None:
                for fn in h.event_scheduled:
                    fn(ev)
            self._waiting_on = ev
            return
        if cls is not _PooledEvent and cls is not Event and not isinstance(target, Event):
            crash = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
            self._generator.close()
            self.fail(crash)
            return
        if target.engine is not engine:
            self._generator.close()
            self.fail(SimulationError("yielded event belongs to a different engine"))
            return
        self._waiting_on = target
        if target._state != PROCESSED:
            target.callbacks.append(self._resume_cb)
        else:  # already-processed target: resume immediately (add_callback semantics)
            self._resume(target)


class Engine:
    """The simulation clock and event loop.

    Attributes
    ----------
    now:
        Current simulation time (seconds by convention throughout
        :mod:`repro`).
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: The observer table (see :meth:`attach`); ``None`` while nothing
        #: is attached, so every instrumented site costs one test.
        self.hooks: Optional[Hooks] = None
        self._observers: list = []
        #: Events processed over the engine's lifetime (plain int: the
        #: events/sec numerator for ``benchmarks/bench_engine.py``).
        self.events_executed = 0
        #: Free-list of recycled :class:`_PooledEvent` objects (see
        #: :meth:`pause`); the run loop returns fired pooled events here.
        self._event_pool: list[_PooledEvent] = []

    # -- observers ---------------------------------------------------------
    @property
    def observers(self) -> tuple:
        """The attached observers, in attach order."""
        return tuple(self._observers)

    def attach(self, observer):
        """Subscribe ``observer`` to the hook events it implements (an
        ``on_<name>`` method for any ``<name>`` in :data:`HOOK_EVENTS`);
        returns it.

        Idempotent per engine.  An :class:`Observer` is first detached from
        any other engine and records this one as its ``engine``; an
        ``exclusive`` observer class admits one instance per engine.  The
        bound methods are looked up now (a method patched later is not
        seen).  Attach before :meth:`run`: the bare loop it picks when
        nothing is attached never reports ``event_executed``.
        """
        if any(o is observer for o in self._observers):
            return observer
        if getattr(observer, "exclusive", False) and any(
                type(o) is type(observer) for o in self._observers):
            raise SimulationError(
                f"engine already has a {type(observer).__name__} attached")
        if isinstance(observer, Observer):
            if observer.engine is not None:
                observer.engine.detach(observer)
            observer.engine = self
        self._observers.append(observer)
        self._rebuild_hooks()
        return observer

    def detach(self, observer) -> None:
        """Unsubscribe ``observer`` (no-op if it is not attached here)."""
        for i, o in enumerate(self._observers):
            if o is observer:
                del self._observers[i]
                if isinstance(observer, Observer):
                    observer.engine = None
                self._rebuild_hooks()
                return

    def _rebuild_hooks(self) -> None:
        if not self._observers:
            self.hooks = None
            return
        hooks = Hooks()
        for name in HOOK_EVENTS:
            fns = (getattr(o, "on_" + name, None) for o in self._observers)
            setattr(hooks, name, tuple(fn for fn in fns if fn is not None))
        self.hooks = hooks

    # -- event construction ------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """An event triggering ``delay`` after now."""
        return Timeout(self, delay, value=value, name=name)

    def pause(self, delay: float, value: Any = None) -> Event:
        """A pooled, pre-triggered delay — :meth:`timeout` for the hot
        create-yield-discard pattern, without a fresh allocation per call.

        Schedules identically to a timeout (one push at ``NORMAL``
        priority, one sequence number), so swapping ``timeout`` for
        ``pause`` never changes the event schedule.  The returned object
        is recycled by the run loop the moment its callbacks finish.

        Contract: wait on it immediately (``yield`` it or
        ``add_callback``) and never retain a reference past its trigger
        time.  Conditions (:class:`AllOf`/:class:`AnyOf`) reject pooled
        events because they read child values after the child fires.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
        else:
            event = _PooledEvent(self, name="<pause>")
        event._state = TRIGGERED
        event._value = value
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        _heappush(self._heap, (self.now + delay, NORMAL, self._seq, event))
        self._seq += 1
        h = self.hooks
        if h is not None:
            for fn in h.event_scheduled:
                fn(event)
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        """An event triggering when all of ``events`` have triggered."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Iterable[Event], name: str = "") -> AnyOf:
        """An event triggering when any of ``events`` has triggered."""
        return AnyOf(self, events, name=name)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling --------------------------------------------------------
    def _push(self, delay: float, priority: int, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, event))
        self._seq += 1
        h = self.hooks
        if h is not None:
            for fn in h.event_scheduled:
                fn(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one scheduled event."""
        time, _prio, _seq, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = time
        self.events_executed += 1
        h = self.hooks
        if h is not None:
            for fn in h.event_executed:
                fn(time, event)
        event._process()
        if event._poolable:
            # Back to the free-list, reset so pause() can hand it out again.
            event._value = None
            event._ok = True
            self._event_pool.append(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Parameters
        ----------
        until:
            Stop (with ``now = until``) before processing events scheduled
            after this time.
        max_events:
            Safety valve: raise :class:`SimulationError` once exactly
            ``max_events`` events have been processed and more remain
            (catches accidental infinite event loops in tests).  A program
            that finishes in exactly ``max_events`` events does not raise.
            Same semantics as in :meth:`run_until_complete`.

        Raises
        ------
        ProcessCrashed
            If any process dies with an unhandled exception and nobody is
            waiting on it.

        Notes
        -----
        This is the simulator's innermost loop, in two variants.  With no
        bound and no observer attached at entry, a bare kernel runs: locals
        are hoisted, the event-processing protocol (``Event._process`` plus
        the crash check) is inlined, and the loop body carries no bound or
        observer check at all.  Otherwise one general loop checks the
        bounds and reports ``event_executed`` to :attr:`hooks` per event.
        """
        heap = self._heap
        pop = heapq.heappop
        pool = self._event_pool
        count = 0
        try:
            if until is None and max_events is None and self.hooks is None:
                # Bare fast-dispatch kernel: no bounds, no observers.  The
                # pop count falls out of arithmetic (pops = starting heap
                # size + pushes − leftovers), so the loop body carries no
                # counter either.
                start_len = len(heap)
                seq0 = self._seq
                try:
                    while heap:
                        time, _prio, _seq, event = pop(heap)
                        self.now = time
                        # Inlined Event._process(): swap-before-iterate
                        # keeps interrupt-during-dispatch semantics.
                        event._state = PROCESSED
                        if event._poolable:
                            # Pooled events have no outside watchers by
                            # contract, so nothing appends to `callbacks`
                            # while it runs — the list object itself is
                            # recycled with the event.  (`_ok` can never
                            # go False on a pooled event: `fail` refuses
                            # non-pending events.)
                            waiter = event._waiter
                            if waiter is not None:
                                event._waiter = None
                                waiter(event)
                            callbacks = event.callbacks
                            if callbacks:
                                for fn in callbacks:
                                    fn(event)
                                del callbacks[:]
                            event._value = None
                            pool.append(event)
                        else:
                            callbacks = event.callbacks
                            if callbacks:
                                event.callbacks = []
                                for fn in callbacks:
                                    fn(event)
                            elif event._crashable and not event._ok:
                                self._raise_crash(event)
                finally:
                    count = start_len + (self._seq - seq0) - len(heap)
            else:
                while heap:
                    if until is not None and heap[0][0] > until:
                        self.now = until
                        return
                    if max_events is not None and count >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    time, _prio, _seq, event = pop(heap)
                    count += 1
                    self.now = time
                    h = self.hooks
                    if h is not None:
                        for fn in h.event_executed:
                            fn(time, event)
                    event._state = PROCESSED
                    if event._poolable:
                        # Pooled events have no outside watchers by contract,
                        # so nothing appends to `callbacks` while it runs —
                        # the list object itself is recycled with the event.
                        waiter = event._waiter
                        if waiter is not None:
                            event._waiter = None
                            waiter(event)
                        callbacks = event.callbacks
                        if callbacks:
                            for fn in callbacks:
                                fn(event)
                            del callbacks[:]
                        event._value = None
                        event._ok = True
                        pool.append(event)
                    else:
                        callbacks = event.callbacks
                        if callbacks:
                            event.callbacks = []
                            for fn in callbacks:
                                fn(event)
                        elif event._crashable and not event._ok:
                            self._raise_crash(event)
        except StopEngine:
            return
        finally:
            self.events_executed += count
        if until is not None and until > self.now:
            self.now = until

    def run_until_complete(self, *events: Event, max_events: Optional[int] = None) -> list[Any]:
        """Run until every event in ``events`` has triggered; return values.

        Raises :class:`ProcessCrashed` if a watched process failed, and
        :class:`SimulationError` once exactly ``max_events`` events have
        been processed with the awaited events still pending (same
        semantics as :meth:`run`).
        """
        done = self.all_of(events)
        count = 0
        while not done.triggered and self._heap:
            if max_events is not None and count >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} in run_until_complete")
            self.step()
            count += 1
        if not done.triggered:
            raise SimulationError("event heap drained before awaited events triggered (deadlock?)")
        if not done.ok:
            self._raise_crash_value(done.value)
        return done.value

    def stop(self) -> None:
        """Stop :meth:`run` at the current time (from inside a callback)."""
        raise StopEngine()

    @staticmethod
    def _raise_crash(process: Process) -> None:
        exc = process.value
        raise ProcessCrashed(f"process {process.name!r} crashed: {exc!r}") from exc

    @staticmethod
    def _raise_crash_value(exc: BaseException) -> None:
        raise ProcessCrashed(f"awaited event failed: {exc!r}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:g} pending={len(self._heap)}>"
