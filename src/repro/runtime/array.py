"""Chare arrays and proxies.

A :class:`ChareArray` is an indexed collection of chares distributed over
the PEs by a mapping (see :mod:`repro.runtime.mapping`).  Invoking an entry
method through the array (or the sugar :class:`Proxy`) becomes an
asynchronous :class:`~repro.runtime.messages.EntryMessage`:

* same-PE destinations are enqueued locally after a tiny delivery delay;
* remote destinations ride the simulated network with an envelope, paying
  the runtime's send-side costs on the issuing PE.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..hardware.network import Message as NetMessage
from .costs import MsgPriority
from .mapping import all_indices, make_mapping
from .messages import EntryMessage

__all__ = ["ChareArray", "Proxy", "ElementProxy"]


class ChareArray:
    """An N-dimensional indexed collection of chares."""

    def __init__(self, runtime, array_id: int, chare_cls, shape: Sequence[int],
                 mapping: dict, name: str = ""):
        self.runtime = runtime
        self.array_id = array_id
        self.chare_cls = chare_cls
        self.shape = tuple(shape)
        self.mapping = mapping
        self.name = name or chare_cls.__name__
        self.elements = {idx: chare_cls(runtime, self, idx) for idx in all_indices(shape)}

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index) -> "ElementProxy":
        return Proxy(self)[index]

    @property
    def proxy(self) -> "Proxy":
        return Proxy(self)

    def element(self, index):
        return self.elements[tuple(index)]

    def elements_on_pe(self, pe_index: int):
        return [c for idx, c in self.elements.items() if self.mapping[idx] == pe_index]

    # -- messaging -------------------------------------------------------------
    def send(
        self,
        sender,
        index,
        method: str,
        ref: Any = None,
        data_bytes: int = 0,
        payload: Any = None,
        priority: float = MsgPriority.HALO_DATA,
    ) -> None:
        """Send from chare ``sender`` to element ``index`` (cost charged to
        the sender's PE at its next yield point)."""
        index = tuple(index)
        if index not in self.elements:
            raise KeyError(f"no element {index} in array {self.name} {self.shape}")
        runtime = self.runtime
        costs = runtime.costs
        src_pe = sender.pe.index
        dst_pe = self.mapping[index]
        msg = EntryMessage(
            array_id=self.array_id,
            index=index,
            method=method,
            ref=ref,
            payload=payload,
            data_bytes=data_bytes,
            priority=priority,
            src_pe=src_pe,
        )
        cost = costs.send_overhead_s
        if dst_pe != src_pe:
            cost += costs.location_lookup_s + runtime.cluster.spec.node.nic.overhead_s
        h = runtime.engine.hooks
        if h is not None:
            for fn in h.msg_deposit:
                fn(msg, sender, None)
        scheduler = runtime.scheduler_of(src_pe)
        scheduler.post_send(cost, lambda: runtime.deliver(msg, src_pe, dst_pe))

    def inject(self, index, method: str, ref: Any = None, payload: Any = None,
               data_bytes: int = 0, priority: float = MsgPriority.NORMAL) -> None:
        """Mainchare-style external invocation (no issuing-PE cost): enqueue
        directly on the owning PE.  Used to kick off ``run`` broadcasts."""
        index = tuple(index)
        msg = EntryMessage(
            array_id=self.array_id, index=index, method=method, ref=ref,
            payload=payload, data_bytes=data_bytes, priority=priority,
        )
        self.runtime.scheduler_of(self.mapping[index]).enqueue(msg)

    def broadcast(self, method: str, payload: Any = None) -> None:
        """Invoke ``method`` on every element (like ``proxy.run()``)."""
        for idx in self.elements:
            self.inject(idx, method, payload=payload)


class Proxy:
    """Sugar: ``array.proxy[(0,0,1)].recvHalo(ref=3, data_bytes=...)``.

    Element attribute calls map to :meth:`ChareArray.inject` (external,
    cost-free) unless a ``sender`` chare is given, in which case the send is
    charged to that chare's PE like any entry-method invocation.
    """

    def __init__(self, array: ChareArray, sender=None):
        self._array = array
        self._sender = sender

    def __getitem__(self, index) -> "ElementProxy":
        return ElementProxy(self._array, tuple(index), self._sender)

    def __call__(self, *index) -> "ElementProxy":
        return ElementProxy(self._array, tuple(index), self._sender)

    def from_chare(self, sender) -> "Proxy":
        return Proxy(self._array, sender)

    def broadcast(self, method: str, payload: Any = None) -> None:
        self._array.broadcast(method, payload=payload)


class ElementProxy:
    """One element of a proxy; attribute access yields an async invoker."""

    def __init__(self, array: ChareArray, index: tuple, sender=None):
        self._array = array
        self._index = index
        self._sender = sender

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def invoke(ref=None, payload=None, data_bytes=0, priority=MsgPriority.HALO_DATA):
            if self._sender is None:
                self._array.inject(self._index, method, ref=ref, payload=payload,
                                   data_bytes=data_bytes)
            else:
                self._array.send(self._sender, self._index, method, ref=ref,
                                 payload=payload, data_bytes=data_bytes, priority=priority)

        return invoke
