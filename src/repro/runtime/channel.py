"""Channel API: two-sided GPU-aware communication between chare pairs.

The paper's Channel API (§II-B, Fig. 5) gives a pair of chares two-sided
``send``/``recv`` semantics over UCX, with a Charm++ callback invoked on
completion — *without* transferring control flow to the receiver first
(unlike the GPU Messaging API).  Here each completion deposits a mailbox
message on the owning chare, consumed with ``yield self.when(...)``::

    ch = self.channel_to(neighbour_index)
    ch.send(halo_bytes, mailbox="ch_send", ref=(it, face))
    ch.recv(halo_bytes, mailbox="ch_recv", ref=(it, face))
    ...
    yield self.when("ch_recv", ref=(it, face))   # data is in GPU memory

Matching is FIFO per direction per pair (sequence-number tags), which is
sound because both endpoints advance in step via SDAG reference numbers.
"""

from __future__ import annotations

from typing import Any, Optional

from ..comm.ucx import PRIORITY_COMM, TransferHandle
from .costs import MsgPriority
from .messages import EntryMessage

__all__ = ["Channel"]


class Channel:
    """One endpoint of a chare-pair communication channel."""

    def __init__(self, chare, peer_index: tuple):
        self.chare = chare
        self.array = chare.array
        self.peer_index = tuple(peer_index)
        if self.peer_index not in self.array.elements:
            raise KeyError(f"no element {self.peer_index} to open a channel to")
        self._send_seq = 0
        self._recv_seq = 0

    @property
    def peer_pe(self) -> int:
        # Looked up per operation: the peer may migrate between LB phases.
        return self.array.mapping[self.peer_index]

    @classmethod
    def get(cls, chare, peer_index: tuple) -> "Channel":
        cache = getattr(chare, "_channels", None)
        if cache is None:
            cache = chare._channels = {}
        key = tuple(peer_index)
        channel = cache.get(key)
        if channel is None:
            channel = cache[key] = cls(chare, key)
        return channel

    # -- operations -----------------------------------------------------------
    def send(self, size: int, mailbox: str = "ch_send", ref: Any = None,
             payload: Any = None, note: Any = None) -> None:
        """Nonblocking GPU-buffer send.

        ``payload`` (functional-mode data) travels to the peer's matching
        receive; the *local* completion deposit carries ``(note, None)`` when
        the source buffer is reusable.
        """
        seq = self._send_seq
        self._send_seq += 1
        tag = ("ch", self.array.array_id, self.chare.index, self.peer_index, seq)
        self._post(
            lambda ucx, src, dst: ucx.isend(src, dst, size, tag=tag, on_device=True,
                                            priority=PRIORITY_COMM, payload=payload),
            mailbox, ref, note,
        )

    def recv(self, size: int, mailbox: str = "ch_recv", ref: Any = None,
             note: Any = None) -> None:
        """Nonblocking GPU-buffer receive; the completion deposit carries
        ``(note, received_payload)`` once data is in device memory."""
        seq = self._recv_seq
        self._recv_seq += 1
        tag = ("ch", self.array.array_id, self.peer_index, self.chare.index, seq)
        self._post(
            lambda ucx, src, dst: ucx.irecv(dst, src, size, tag=tag, on_device=True),
            mailbox, ref, note,
        )

    # -- internals ---------------------------------------------------------------
    def _post(self, op, mailbox: str, ref: Any, note: Any) -> None:
        chare = self.chare
        runtime = chare.runtime
        my_pe = chare.pe.index
        scheduler = runtime.scheduler_of(my_pe)
        poll = runtime.costs.hapi_poll_s
        engine = runtime.engine

        def thunk():
            handle: TransferHandle = op(runtime.ucx, my_pe, self.peer_pe)
            h = engine.hooks
            if h is not None:
                for fn in h.transfer_post:
                    fn(handle, chare, op)

            def on_done(ev):
                # Deposit (note, data): data is the sender's payload for
                # receives, None for send completions.
                data = (note, ev.value)
                msg = EntryMessage(
                    array_id=self.array.array_id,
                    index=chare.index,
                    method=mailbox,
                    ref=ref,
                    payload=data,
                    priority=MsgPriority.GPU_COMPLETION,
                )
                h = engine.hooks
                if h is not None:
                    for fn in h.msg_deposit:
                        fn(msg, None, handle.done)
                engine.pause(poll).add_callback(
                    lambda _t: scheduler.enqueue(msg)
                )

            handle.done.add_callback(on_done)

        # Causality is fixed at the *call* site: the thunk only runs after
        # the NIC-overhead charge, by which point the chare may have moved on.
        h = engine.hooks
        if h is not None:
            for fn in h.launch_issue:
                fn(chare, op)
        cost = runtime.cluster.spec.node.nic.overhead_s
        scheduler.post_send(cost, thunk)
