"""The shared stencil rank program (paper Fig. 1), host-staging and
CUDA-aware.

One rank per GPU under plain MPI, ``odf`` virtual ranks per PE under
AMPI — the *same* ``main`` loop either way, which is AMPI's selling point
and exactly what the differential validation harness leans on.  The
default flow is the non-overlapping variant the paper evaluates: post
receives, pack (+stage), **block** on the stream sync, send, **block** in
``MPI_Waitall``, unpack, update, block again.

``mpi_overlap=True`` enables Fig. 1's manual-overlap branch as an
extension: the interior update is launched while halo exchanges are in
flight, and only the exterior update waits for them.

Rank-to-block assignment is the row-major inverse of
:func:`~repro.runtime.mapping.linearize`, for any dimensionality.
"""

from __future__ import annotations

from ...comm.ucx import PRIORITY_COMM, PRIORITY_COMPUTE
from ...hardware.gpu import COPY_D2H, COPY_H2D, CopyWork
from ...kernels import opposite
from ...runtime.mapping import delinearize, linearize
from .context import StencilContext

__all__ = ["make_rank_program"]


def make_rank_program(ctx: StencilContext):
    """A mixin class implementing Fig. 1 against this run's context.

    Host classes (``MpiProcess``/``AmpiProcess`` subclasses) must call
    ``_bind_unit`` before communication and ``_setup_device`` before the
    first kernel launch, then drive :meth:`RankProgram._main_body`.
    """

    shape = ctx.geometry.shape

    class RankProgram:
        app = ctx

        def _bind_unit(self):
            self.index = delinearize(self.rank, shape)
            self.data = ctx.block_data(self.index)
            self.update_done = None

        def _setup_device(self):
            self.gpu.malloc(self.data.device_bytes)
            self.comm_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.comm"
            )
            self.d2h_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.d2h"
            )
            self.h2d_stream = self.gpu.create_stream(
                priority=PRIORITY_COMM, name=f"{self.gpu.name}.h2d"
            )
            self.update_stream = self.gpu.create_stream(
                priority=PRIORITY_COMPUTE, name=f"{self.gpu.name}.upd"
            )

        def _main_body(self):
            cfg = ctx.config
            d = self.data
            idx = self.index
            device = cfg.gpu_aware
            engine = self.world.engine
            for it in range(cfg.total_iterations):
                # Post all receives first (paper Fig. 1).
                recv_reqs = {}
                for face, nbr in d.neighbors.items():
                    nbr_rank = linearize(nbr, shape)
                    recv_reqs[face] = yield self.irecv(
                        nbr_rank, d.face_bytes[face], tag=(it, face), device=device
                    )
                # Pack halos (stream-dependent on the previous update), plus
                # explicit D2H staging for the host version.
                dep = [self.update_done] if self.update_done is not None else []
                ready = []
                for face in d.neighbors:
                    p = yield self.launch(
                        self.comm_stream, d.packs[face], name=f"pack{face}", wait=dep,
                        reads=[("int", idx)], writes=[("pack", idx, face)],
                    )
                    if device:
                        ready.append(p.done)
                    else:
                        c = yield self.launch(
                            self.d2h_stream,
                            CopyWork(d.face_bytes[face], COPY_D2H),
                            name=f"d2h{face}",
                            wait=[p.done],
                            reads=[("pack", idx, face)],
                        )
                        ready.append(c.done)
                d.f_pack_all()
                if ready:
                    # Blocking cudaStreamSynchronize before sending.
                    yield self.sync(engine.all_of(ready))
                send_reqs = []
                for face, nbr in d.neighbors.items():
                    nbr_rank = linearize(nbr, shape)
                    send_reqs.append((yield self.isend(
                        nbr_rank, d.face_bytes[face], tag=(it, opposite(face)),
                        device=device, payload=d.f_halo(face),
                    )))
                interior_op = None
                if cfg.mpi_overlap:
                    # Manual overlap: interior update is independent of halos.
                    interior_op = yield self.launch(
                        self.update_stream, d.interior, name="interior",
                        reads=[("int", idx)], writes=[("int", idx)],
                    )
                # Block in MPI_Waitall until every halo moved.
                yield self.waitall(list(recv_reqs.values()) + send_reqs)
                # Unpack (+ H2D staging for the host version).
                unpack_events = []
                for face, req in recv_reqs.items():
                    waits = []
                    if not device:
                        h = yield self.launch(
                            self.h2d_stream,
                            CopyWork(d.face_bytes[face], COPY_H2D),
                            name=f"h2d{face}",
                            writes=[("gstage", idx, face)],
                        )
                        waits = [h.done]
                    op = yield self.launch(
                        self.comm_stream, d.unpacks[face], name=f"unpack{face}",
                        wait=waits,
                        reads=[("gstage", idx, face)] if not device else (),
                        writes=[("ghost", idx, face)],
                    )
                    unpack_events.append(op.done)
                    d.f_unpack(face, req.data)
                if cfg.mpi_overlap:
                    upd = yield self.launch(
                        self.update_stream, d.exterior, name="exterior",
                        wait=unpack_events + [interior_op.done],
                        reads=[("ghost", idx, f) for f in d.neighbors] + [("int", idx)],
                        writes=[("int", idx)],
                    )
                else:
                    upd = yield self.launch(
                        self.update_stream, d.update, name="update", wait=unpack_events,
                        reads=[("ghost", idx, f) for f in d.neighbors] + [("int", idx)],
                        writes=[("int", idx)],
                    )
                self.update_done = upd.done
                d.f_update()
                # Typical MPI GPU app: block until the update finishes.
                yield self.sync(self.update_done)
                self.notify("iter_done", iter=it)
            self.notify("block_done")

    return RankProgram
