"""GPU Messaging API: the message-driven (pre-Channel) GPU-aware mechanism.

Per the paper (§II-B), this API keeps message-driven semantics but needs an
extra *post entry method* on the receiver to tell the runtime where the
destination GPU buffer lives.  The receive can only be posted after that
entry method is scheduled and executed — the source of its latency
disadvantage versus the Channel API (measured by
``benchmarks/bench_comm_apis.py``).

Flow modeled here:

1. sender posts the UCX device send *and* a small metadata entry message;
2. the metadata message waits in the receiver's scheduler queue like any
   entry method, then ``Chare._gm_post`` runs and posts the matching
   ``irecv``;
3. when the transfer completes, the user's mailbox/entry message fires.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..comm.ucx import PRIORITY_COMM
from .costs import MsgPriority
from .messages import EntryMessage

__all__ = ["gpu_message_send", "install_gm_post"]

_gm_seq = itertools.count()


def gpu_message_send(chare, index, method: str, size: int, ref: Any = None) -> None:
    """Send a device buffer to ``index`` via the GPU Messaging API; the
    target chare gets a ``method[ref]`` mailbox deposit when data lands."""
    array = chare.array
    index = tuple(index)
    runtime = chare.runtime
    src_pe = chare.pe.index
    dst_pe = array.mapping[index]
    tag = ("gm", array.array_id, next(_gm_seq))
    scheduler = runtime.scheduler_of(src_pe)
    engine = runtime.engine

    def thunk():
        handle = runtime.ucx.isend(src_pe, dst_pe, size, tag=tag, on_device=True,
                                   priority=PRIORITY_COMM)
        h = engine.hooks
        if h is not None:
            for fn in h.transfer_post:
                fn(handle, chare, tag)

    h = engine.hooks
    if h is not None:
        for fn in h.gm_send:
            fn(src_pe, size)
        for fn in h.launch_issue:
            fn(chare, tag)
    cost = runtime.costs.send_overhead_s + runtime.cluster.spec.node.nic.overhead_s
    scheduler.post_send(cost, thunk)
    # The post entry method travels as a regular (small) entry message and
    # must be *scheduled* on the receiver before the recv can be posted.
    array.send(
        chare, index, "_gm_post", ref=ref,
        payload={"tag": tag, "size": size, "method": method, "src_pe": src_pe},
        data_bytes=48, priority=MsgPriority.HALO_DATA,
    )


def _gm_post(self, msg: EntryMessage) -> None:
    """Post entry method (installed on :class:`~repro.runtime.chare.Chare`):
    posts the receive for an incoming GPU buffer, then arranges the user
    mailbox deposit on completion."""
    info = msg.payload
    runtime = self.runtime
    scheduler = runtime.scheduler_of(self.pe.index)
    poll = runtime.costs.hapi_poll_s
    engine = runtime.engine

    def thunk():
        handle = runtime.ucx.irecv(info["src_pe"], self.pe.index, info["size"],
                                   tag=info["tag"], on_device=True)
        h = engine.hooks
        if h is not None:
            for fn in h.transfer_post:
                fn(handle, self, msg)

        def on_done(_ev):
            deposit = EntryMessage(
                array_id=self.array.array_id, index=self.index,
                method=info["method"], ref=msg.ref,
                priority=MsgPriority.GPU_COMPLETION,
            )
            h = engine.hooks
            if h is not None:
                for fn in h.msg_deposit:
                    fn(deposit, None, handle.done)
            engine.pause(poll).add_callback(
                lambda _t: scheduler.enqueue(deposit)
            )

        handle.done.add_callback(on_done)

    h = engine.hooks
    if h is not None:
        for fn in h.launch_issue:
            fn(self, msg)
    scheduler.post_send(runtime.cluster.spec.node.nic.overhead_s, thunk)


def install_gm_post(chare_cls) -> None:
    """Attach the ``_gm_post`` entry method to a chare class (done for the
    base :class:`Chare` at import time in :mod:`repro.runtime`)."""
    chare_cls._gm_post = _gm_post
