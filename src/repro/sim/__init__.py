"""Discrete-event simulation kernel (the substrate for all of :mod:`repro`).

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf` — the event loop and process model.
* :class:`Store`, :class:`FilterStore`, :class:`PriorityStore`,
  :class:`Resource`, :class:`TokenPool` — queueing primitives.
* :meth:`Engine.attach` with :class:`Observer` subscribers over the
  :data:`HOOK_EVENTS` vocabulary; :class:`Tracer`,
  :class:`IntervalTracker` — instrumentation.
* :class:`RandomStreams` — reproducible named RNG streams.
"""

from .engine import HOOK_EVENTS, AllOf, AnyOf, Engine, Event, Hooks, Observer, Process, Timeout
from .errors import (
    EventAlreadyTriggered,
    Interrupt,
    ProcessCrashed,
    SimulationError,
    StopEngine,
)
from .resources import FilterStore, PriorityStore, Request, Resource, Store, TokenPool
from .rng import RandomStreams
from .tracing import (IntervalTracker, Tracer, TraceRecord, merge_intervals, overlap_seconds, to_chrome_trace, trace)

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "HOOK_EVENTS",
    "Hooks",
    "Observer",
    "Process",
    "Timeout",
    "EventAlreadyTriggered",
    "Interrupt",
    "ProcessCrashed",
    "SimulationError",
    "StopEngine",
    "FilterStore",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "TokenPool",
    "RandomStreams",
    "IntervalTracker",
    "Tracer",
    "TraceRecord",
    "merge_intervals",
    "overlap_seconds",
    "to_chrome_trace",
    "trace",
]
