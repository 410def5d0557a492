"""The network: NIC ports, wire transfers, intra-node transport.

Transfer model (LogGP-flavoured cut-through):

* The sender's **injection port** and the receiver's **ejection port** are
  each a unit resource serializing concurrent messages; one transfer holds
  *both* while its bytes stream at ``injection_bandwidth``, so an
  uncontended transfer takes ``size/BW + latency(hops)`` — not the doubled
  store-and-forward time.
* Port arbitration honours priorities (the runtime gives halo messages a
  high priority, matching the paper's §III-A).
* Per-message *CPU* overheads (``NicSpec.overhead_s``) are charged by the
  communication layer to the sending/receiving PE, not here.

Intra-node messages bypass the NIC and use the node's shared internal
transport (``NodeSpec.intra_node_bandwidth``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..sim import Engine, Event, IntervalTracker, Resource
from .specs import MachineSpec
from .topology import FatTree

__all__ = ["Message", "Network"]

_msg_ids = itertools.count()


@dataclass
class Message:
    """A message in flight between two PEs.

    ``payload`` carries arbitrary runtime data (entry-method invocations,
    raw numpy halo arrays in functional mode); its size for timing purposes
    is always the explicit ``size`` field.
    """

    src_pe: int
    dst_pe: int
    size: int
    tag: Any = None
    payload: Any = None
    priority: float = 0.0
    # Port-occupancy multiplier: > 1 models protocol inefficiency (e.g. the
    # chunk-synchronization gaps of UCX's pipelined host staging, which keep
    # the port from streaming at full rate).  Does not affect byte counters.
    wire_time_scale: float = 1.0
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    sent_at: float = float("nan")
    delivered_at: float = float("nan")


class Network:
    """All NIC ports plus the fat-tree latency model for one cluster.

    Parameters
    ----------
    engine, spec, n_nodes, pes_per_node:
        Machine shape.  PE *global* index = ``node * pes_per_node + local``.
    """

    def __init__(self, engine: Engine, spec: MachineSpec, n_nodes: int, pes_per_node: int):
        self.engine = engine
        self.spec = spec
        self.n_nodes = n_nodes
        self.pes_per_node = pes_per_node
        self.tree = FatTree(spec.topology)
        nic = spec.node.nic
        self._bw = nic.injection_bandwidth
        self._intra_bw = spec.node.intra_node_bandwidth
        self._intra_lat = spec.node.intra_node_latency_s
        # What-if knob: dilates every in-flight window (serialization and
        # delivery latency, NIC and intra-node alike).  1.0 is bit-neutral.
        self._wire_scale = nic.wire_scale
        self.inject = [Resource(engine, name=f"n{i}.inject") for i in range(n_nodes)]
        self.eject = [Resource(engine, name=f"n{i}.eject") for i in range(n_nodes)]
        self.intra = [Resource(engine, name=f"n{i}.intra") for i in range(n_nodes)]
        self.inflight = IntervalTracker(engine, "net.inflight")
        # All-pairs wire latency, precomputed vectorized on first use and
        # stored as plain nested lists (two list indexes per lookup beats
        # re-walking the tree levels per message; plain floats keep numpy
        # scalar types out of simulation timestamps).
        self._lat_matrix: Optional[list[list[float]]] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0

    # -- helpers ------------------------------------------------------------
    def node_of_pe(self, pe: int) -> int:
        return pe // self.pes_per_node

    def wire_latency(self, src_node: int, dst_node: int) -> float:
        matrix = self._lat_matrix
        if matrix is None:
            matrix = self._lat_matrix = self.tree.latency_matrix(
                self.n_nodes, self.spec.node.nic)
        return matrix[src_node][dst_node]

    def uncontended_time(self, src_pe: int, dst_pe: int, size: int) -> float:
        """Pure-wire transfer time with idle ports (for tests/analysis)."""
        a, b = self.node_of_pe(src_pe), self.node_of_pe(dst_pe)
        if a == b:
            return (self._intra_lat + size / self._intra_bw) * self._wire_scale
        return (self.wire_latency(a, b) + size / self._bw) * self._wire_scale

    def uncontended_times(self, src_pes, dst_pes, sizes):
        """Vectorized :meth:`uncontended_time` over equal-length batches;
        returns a float64 array, each element bit-identical to the scalar
        path (same divisions and additions, element-wise)."""
        import numpy as np

        src = np.asarray(src_pes, dtype=np.int64) // self.pes_per_node
        dst = np.asarray(dst_pes, dtype=np.int64) // self.pes_per_node
        size = np.asarray(sizes, dtype=np.float64)
        matrix = self._lat_matrix
        if matrix is None:
            matrix = self._lat_matrix = self.tree.latency_matrix(
                self.n_nodes, self.spec.node.nic)
        wire = (np.asarray(matrix)[src, dst] + size / self._bw) * self._wire_scale
        intra = (self._intra_lat + size / self._intra_bw) * self._wire_scale
        return np.where(src == dst, intra, wire)

    # -- transfer ------------------------------------------------------------
    def transfer(self, message: Message) -> Event:
        """Move ``message`` across the machine; the returned event triggers
        at delivery (when the last byte reaches the destination node)."""
        done = Event(self.engine, name="net.deliver")
        self.engine.process(self._transfer_proc(message, done), name="net.xfer")
        return done

    def _transfer_proc(self, message: Message, done: Event):
        eng = self.engine
        src_node = self.node_of_pe(message.src_pe)
        dst_node = self.node_of_pe(message.dst_pe)
        message.sent_at = eng.now
        self.messages_sent += 1
        self.bytes_sent += message.size
        h = eng.hooks
        if h is not None:
            for fn in h.net_send:
                fn(self, message)
        token = self.inflight.begin()
        if src_node == dst_node:
            hold = self.intra[src_node].request(priority=message.priority)
            yield hold
            yield message.size * message.wire_time_scale / self._intra_bw * self._wire_scale
            self.intra[src_node].release(hold)
            yield self._intra_lat * self._wire_scale
        else:
            inj = self.inject[src_node].request(priority=message.priority)
            yield inj
            ej = self.eject[dst_node].request(priority=message.priority)
            yield ej
            yield message.size * message.wire_time_scale / self._bw * self._wire_scale
            self.inject[src_node].release(inj)
            self.eject[dst_node].release(ej)
            yield self.wire_latency(src_node, dst_node) * self._wire_scale
        message.delivered_at = eng.now
        self.messages_delivered += 1
        self.inflight.end(token)
        h = eng.hooks
        if h is not None:
            for fn in h.net_deliver:
                fn(self, message)
        done.succeed(message)
