"""GPU device model: streams, copy engines, kernels, CUDA events.

The model captures exactly the mechanisms the paper's optimizations exploit:

* **Asynchronous streams with priorities** — each stream is a FIFO of
  operations; operations from different streams compete for the device's
  engines, with lower `priority` values winning ties (CUDA's
  ``cudaStreamCreateWithPriority``).  A queued high-priority packing kernel
  therefore jumps ahead of other chares' queued update kernels — but never
  preempts a running one.
* **Separate copy engines** — D2H and H2D DMA engines are independent of the
  compute engine, so copies overlap with kernels *iff* they are issued on
  different streams (the paper's §III-C optimization).
* **CUDA events** — cross-stream dependencies (``cudaStreamWaitEvent``).
* **Launch overheads** — host-side launch cost is charged to the *calling
  PE* via :meth:`GpuDevice.cpu_launch_cost`; device-side launch gap is part
  of the operation duration.  These overheads are what kernel fusion and
  CUDA Graphs (see :mod:`repro.hardware.graphs`) attack.

Durations are computed from :class:`~repro.hardware.specs.GpuSpec` via
:class:`WorkModel` subclasses, keeping "what runs" separate from "how long
it takes".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim import Engine, Event, IntervalTracker, Resource, SimulationError, Store
from .specs import GpuSpec, HostLinkSpec

__all__ = [
    "WorkModel",
    "KernelWork",
    "CopyWork",
    "GpuOp",
    "CudaEvent",
    "CudaStream",
    "GpuDevice",
    "COMPUTE",
    "COPY_D2H",
    "COPY_H2D",
    "COPY_D2D",
]

# Engine kinds on a device.
COMPUTE = "compute"
COPY_D2H = "copy_d2h"
COPY_H2D = "copy_h2d"
COPY_D2D = "copy_d2d"


class WorkModel:
    """How long an operation occupies its engine, given the device specs."""

    engine = COMPUTE

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:  # pragma: no cover
        raise NotImplementedError

    def device_overhead(self, gpu: GpuSpec) -> float:
        """Device-side launch gap (amortized away inside CUDA graphs)."""
        return gpu.kernel_launch_device_s

    def cpu_launch_cost(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        """Host-side cost of issuing this op (charged to the calling PE)."""
        return gpu.kernel_launch_cpu_s


@dataclass(frozen=True)
class KernelWork(WorkModel):
    """A compute kernel; duration is the roofline max of its memory and
    flop demands, plus a fixed efficiency factor.

    Parameters
    ----------
    bytes_moved:
        Total DRAM traffic (reads + writes).
    flops:
        Floating-point operations.
    efficiency:
        Fraction of peak the kernel achieves (fused kernels with divergent
        warps use < 1).
    """

    bytes_moved: float
    flops: float = 0.0
    efficiency: float = 1.0

    engine = COMPUTE

    def __post_init__(self):
        if self.bytes_moved < 0 or self.flops < 0:
            raise ValueError("negative work")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        mem_t = self.bytes_moved / gpu.mem_bandwidth
        flop_t = self.flops / gpu.flops
        return max(mem_t, flop_t) / self.efficiency


@dataclass(frozen=True)
class CopyWork(WorkModel):
    """A DMA copy.  ``direction`` selects the engine; host-link bandwidth
    applies to D2H/H2D, device memory bandwidth (both a read and a write)
    to D2D."""

    size: int
    direction: str = COPY_D2H

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative copy size")
        if self.direction not in (COPY_D2H, COPY_H2D, COPY_D2D):
            raise ValueError(f"bad copy direction {self.direction!r}")

    @property
    def engine(self) -> str:  # type: ignore[override]
        return self.direction

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        if self.direction == COPY_D2D:
            return 2.0 * self.size / gpu.mem_bandwidth
        return link.latency + self.size / link.bandwidth

    def cpu_launch_cost(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        return link.copy_setup_cpu_s


_op_ids = itertools.count()


class GpuOp:
    """One operation enqueued on a stream.

    ``done`` triggers when the operation completes on the device.
    ``wait_events`` are extra dependencies (CUDA events from other streams).
    ``reads``/``writes`` are the logical buffers the op touches — pure
    declarations for the concurrency sanitizer (docs/sanitizer.md); the
    device model never reads them.
    """

    __slots__ = ("work", "name", "done", "wait_events", "op_id",
                 "in_graph_overhead", "reads", "writes")

    def __init__(
        self,
        engine: Engine,
        work: WorkModel,
        name: str = "",
        wait_events: Optional[Iterable[Event]] = None,
        reads: tuple = (),
        writes: tuple = (),
    ):
        self.work = work
        self.name = name or type(work).__name__
        self.done = Event(engine, self.name)
        self.wait_events = list(wait_events or ())
        self.op_id = next(_op_ids)
        self.in_graph_overhead: Optional[float] = None  # set when run via CUDA graph
        self.reads = tuple(reads)
        self.writes = tuple(writes)


class CudaEvent:
    """``cudaEventRecord`` equivalent: triggers when the stream reaches it
    (all prior ops in the stream complete)."""

    __slots__ = ("fired",)

    def __init__(self, engine: Engine, name: str = "cuda_event"):
        self.fired = engine.event(name=name)


class CudaStream:
    """A FIFO of GPU operations with a scheduling priority.

    Lower ``priority`` values are more urgent (matches
    ``cudaStreamCreateWithPriority`` where -1 is higher priority than 0; we
    simply use the raw number for engine arbitration).
    """

    def __init__(self, device: "GpuDevice", priority: int = 0, name: str = ""):
        self.device = device
        self.priority = priority
        self.name = name or f"{device.name}.stream"
        self._queue: Store = Store(device.engine, name=f"{self.name}.q")
        self._proc = device.engine.process(self._run(), name=f"{self.name}.proc")
        self.ops_issued = 0

    # -- public API ----------------------------------------------------------
    def enqueue(self, work: WorkModel, name: str = "", wait_events=None,
                reads: tuple = (), writes: tuple = ()) -> GpuOp:
        """Submit an operation; returns the op (``op.done`` = completion)."""
        op = GpuOp(self.device.engine, work, name=name, wait_events=wait_events,
                   reads=reads, writes=writes)
        h = self.device.engine.hooks
        if h is not None:
            for fn in h.op_enqueue:
                fn(self, op)
        self._queue.put_nowait(op)
        self.ops_issued += 1
        return op

    def record_event(self, name: str = "") -> CudaEvent:
        """Record a CUDA event at the current tail of the stream."""
        ev = CudaEvent(self.device.engine, name=name or f"{self.name}.event")
        self._queue.put_nowait(ev)
        return ev

    def wait_event(self, event: CudaEvent) -> None:
        """Make all subsequently-enqueued ops wait for ``event``
        (``cudaStreamWaitEvent``)."""
        self._queue.put_nowait(_WaitMarker(event))

    def synchronize_event(self) -> Event:
        """A sim event that triggers when all currently-enqueued work done
        (``cudaStreamSynchronize`` as an awaitable, for HAPI-style use)."""
        return self.record_event().fired

    # -- stream executor -------------------------------------------------------
    def _run(self):
        eng = self.device.engine
        pending_waits: list[Event] = []
        while True:
            item = yield self._queue.get()
            cls = item.__class__
            if cls is not GpuOp:
                if isinstance(item, CudaEvent):
                    h = eng.hooks
                    if h is not None:
                        for fn in h.event_record:
                            fn(self, item)
                    item.fired.succeed()
                    continue
                if isinstance(item, _WaitMarker):
                    pending_waits.append(item.event.fired)
                    continue
            op: GpuOp = item
            deps = ()
            if pending_waits or op.wait_events:
                deps = pending_waits + op.wait_events
                pending_waits = []
                yield eng.all_of(deps)
            h = eng.hooks
            if h is not None:
                for fn in h.op_dispatch:
                    fn(self, op, deps)
            yield from self.device._execute(op, self.priority)


class _WaitMarker:
    __slots__ = ("event",)

    def __init__(self, event: CudaEvent):
        self.event = event


class GpuDevice:
    """One GPU: engines, memory accounting, utilization trackers.

    Parameters
    ----------
    engine:
        The simulation engine.
    spec / link:
        Performance characteristics.
    name:
        E.g. ``"node3.gpu2"`` (appears in traces).
    """

    def __init__(self, engine: Engine, spec: GpuSpec, link: HostLinkSpec, name: str = "gpu"):
        self.engine = engine
        self.spec = spec
        self.link = link
        self.name = name
        self.engines: dict[str, Resource] = {
            COMPUTE: Resource(engine, capacity=spec.max_concurrent_kernels, name=f"{name}.compute"),
            COPY_D2H: Resource(engine, capacity=spec.copy_engine_count, name=f"{name}.d2h"),
            COPY_H2D: Resource(engine, capacity=spec.copy_engine_count, name=f"{name}.h2d"),
            COPY_D2D: Resource(engine, capacity=1, name=f"{name}.d2d"),
        }
        self.trackers: dict[str, IntervalTracker] = {
            kind: IntervalTracker(engine, f"{name}.{kind}") for kind in self.engines
        }
        self.mem_allocated = 0
        self._streams: list[CudaStream] = []
        # What-if duration scaling (specs.GpuSpec knobs), resolved once so
        # the neutral default costs a single boolean test in _execute.
        self._copy_scales = {
            COPY_D2H: spec.d2h_scale,
            COPY_H2D: spec.h2d_scale,
            COPY_D2D: spec.d2d_scale,
        }
        self._op_scales = spec.op_scales
        self._has_scaling = bool(spec.op_scales) or any(
            s != 1.0 for s in self._copy_scales.values())

    # -- streams ---------------------------------------------------------------
    def create_stream(self, priority: int = 0, name: str = "") -> CudaStream:
        stream = CudaStream(self, priority=priority, name=name or f"{self.name}.s{len(self._streams)}")
        self._streams.append(stream)
        return stream

    # -- memory accounting -------------------------------------------------------
    def malloc(self, size: int) -> None:
        """Track a device allocation; raises on out-of-memory."""
        if size < 0:
            raise ValueError("negative allocation")
        if self.mem_allocated + size > self.spec.mem_capacity:
            raise MemoryError(
                f"{self.name}: device OOM "
                f"({(self.mem_allocated + size) / 2**30:.2f} GiB > "
                f"{self.spec.mem_capacity / 2**30:.2f} GiB)"
            )
        self.mem_allocated += size

    def free(self, size: int) -> None:
        if size > self.mem_allocated:
            raise SimulationError(f"{self.name}: freeing more than allocated")
        self.mem_allocated -= size

    # -- cost helpers (paid by the calling PE, not the device) -------------------
    def cpu_launch_cost(self, work: WorkModel) -> float:
        return work.cpu_launch_cost(self.spec, self.link)

    # -- execution ----------------------------------------------------------------
    def _execute(self, op: GpuOp, priority: int):
        """Generator fragment: run ``op`` on its engine at ``priority``."""
        kind = op.work.engine
        resource = self.engines[kind]
        req = resource.request(priority=priority)
        yield req
        if op.in_graph_overhead is not None:
            overhead = op.in_graph_overhead
        else:
            overhead = op.work.device_overhead(self.spec)
        duration = overhead + op.work.duration(self.spec, self.link)
        if self._has_scaling:
            duration *= self._duration_scale(kind, op.name)
        token = self.trackers[kind].begin()
        h = self.engine.hooks
        if h is not None:
            for fn in h.op_start:
                fn(self, op, kind, duration)
        yield duration
        self.trackers[kind].end(token)
        resource.release(req)
        h = self.engine.hooks
        if h is not None:
            for fn in h.op_done:
                fn(op)
        op.done.succeed()

    def _duration_scale(self, kind: str, name: str) -> float:
        """The what-if factor for one op (see ``GpuSpec.op_scales``)."""
        if kind == COMPUTE:
            if name.startswith("graph."):
                name = name[len("graph."):]
            for prefix, scale in self._op_scales:
                if name.startswith(prefix):
                    return scale
            return 1.0
        return self._copy_scales[kind]

    # -- introspection --------------------------------------------------------------
    def busy_seconds(self, kind: str = COMPUTE) -> float:
        return self.trackers[kind].busy_seconds()

    def utilization(self, kind: str = COMPUTE, t0: float = 0.0, t1: Optional[float] = None) -> float:
        return self.trackers[kind].utilization(t0, t1)
