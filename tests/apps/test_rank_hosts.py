"""One rank program, two hosts: when each host runs ``_setup_device``.

Every registered app hands the driver one rank program; the driver hosts it
as plain-MPI ranks (device setup in ``init``, so allocations precede the
first event — the order every cached result depends on) or as AMPI virtual
ranks (setup at the top of ``main``, once the hosting chare has bound
``pe``/``gpu``).
"""

import pytest

from repro.ampi import AmpiWorld
from repro.apps import app_names, get_app, run_app
from repro.mpi import MpiWorld


def _gpus(world):
    return [gpu for node in world.cluster.nodes for gpu in node.gpus]


def _record_launch(monkeypatch, world_cls):
    """Patch ``world_cls.launch`` to snapshot every GPU's allocation the
    moment it returns; the snapshots land in the returned list."""
    seen = []
    launch = world_cls.launch

    def recording_launch(world, process_cls, **kwargs):
        ranks = launch(world, process_cls, **kwargs)
        seen.append((world, ranks, {g.name: g.mem_allocated for g in _gpus(world)}))
        return ranks

    monkeypatch.setattr(world_cls, "launch", recording_launch)
    return seen


@pytest.mark.parametrize("app", app_names())
def test_mpi_ranks_set_up_their_device_at_construction(app, monkeypatch):
    seen = _record_launch(monkeypatch, MpiWorld)
    run_app(get_app(app).differential_base().with_(version="mpi-d", odf=1))
    [(world, ranks, allocated)] = seen
    assert len(ranks) == world.size
    for rank in ranks:
        assert allocated[rank.gpu.name] > 0


@pytest.mark.parametrize("app", app_names())
def test_ampi_ranks_defer_device_setup_to_main(app, monkeypatch):
    seen = _record_launch(monkeypatch, AmpiWorld)
    run_app(get_app(app).differential_base().with_(version="ampi-d"))
    [(world, ranks, allocated)] = seen
    assert len(ranks) == world.size
    assert set(allocated.values()) == {0}
    # ...and setup did run once the ranks started.
    assert all(g.mem_allocated > 0 for g in _gpus(world))
