"""The engine's single observer mechanism: one attach/detach contract shared
by every observer, and observers that never see (or change) each other."""

import pytest

from repro.apps import run_app
from repro.hardware import COPY_D2H, Cluster, CopyWork, KiB, MachineSpec
from repro.obs import MetricsRegistry
from repro.sanitize import Sanitizer
from repro.sim import Engine, SimulationError, Tracer
from repro.validate.golden import CANONICAL_CONFIGS, trace_digest
from repro.validate.invariants import InvariantChecker

#: observer class -> how much it has seen of a run.
OBSERVERS = {
    "tracer": (Tracer, lambda o: len(o.records)),
    "metrics": (MetricsRegistry, lambda o: o.scalar_totals().get("sim.events.executed", 0)),
    "invariants": (InvariantChecker, lambda o: o.events_processed),
    "sanitizer": (Sanitizer, lambda o: o.ops_checked),
}


def _workload(engine):
    """One GPU copy: events, a traced op span and a dispatched op."""
    cluster = Cluster(engine, MachineSpec.small_debug(), 1)
    stream = cluster.nodes[0].gpus[0].create_stream()
    stream.enqueue(CopyWork(4 * KiB, COPY_D2H), name="copy")
    engine.run()


@pytest.mark.parametrize("kind", sorted(OBSERVERS))
def test_observer_attach_contract(kind):
    cls, seen = OBSERVERS[kind]

    # A bare engine has no hook table and an unattached observer sees nothing.
    bare, idle = Engine(), cls()
    _workload(bare)
    assert bare.hooks is None and seen(idle) == 0

    reference = cls().attach(Engine())
    _workload(reference.engine)
    assert seen(reference) > 0

    # Attaching twice to the same engine is a no-op (no double counting).
    eng1 = Engine()
    obs = cls()
    assert obs.attach(eng1) is obs
    assert eng1.attach(obs) is obs
    assert eng1.observers == (obs,) and obs.engine is eng1
    _workload(eng1)
    assert seen(obs) == seen(reference)

    # Attaching to a second engine detaches from the first.
    eng2 = Engine()
    obs.attach(eng2)
    assert obs.engine is eng2 and eng2.observers == (obs,)
    assert eng1.observers == () and eng1.hooks is None

    # detach is safe to repeat and leaves a foreign subscriber alone.
    foreign = (Tracer if cls is Sanitizer else cls)().attach(eng2)
    obs.detach()
    obs.detach()
    assert obs.engine is None and eng2.observers == (foreign,)

    # The context manager detaches on exit; what was seen survives.
    with cls().attach(Engine()) as scoped:
        eng3 = scoped.engine
        _workload(eng3)
    assert scoped.engine is None and eng3.hooks is None
    assert seen(scoped) == seen(reference)

    # A second Sanitizer on one engine is rejected; other observers stack.
    eng4 = Engine()
    first = cls().attach(eng4)
    if cls is Sanitizer:
        with pytest.raises(SimulationError, match="already has a Sanitizer"):
            cls().attach(eng4)
        assert eng4.observers == (first,)
    else:
        second = cls().attach(eng4)
        assert eng4.observers == (first, second)


class _Probe:
    """Stands in for an Observatory: attaches the given observers to the
    run's engine as soon as it exists."""

    def __init__(self, *observers):
        self.observers = observers

    def begin(self, engine, cluster):
        for observer in self.observers:
            observer.attach(engine)


def _times(result):
    return (result.total_time, result.warmup_boundary, result.time_per_iteration,
            result.messages_sent, result.bytes_sent)


@pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
def test_all_observers_together_match_each_alone(name):
    config = CANONICAL_CONFIGS[name]
    bare = _times(run_app(config))

    tracer = Tracer()
    assert _times(run_app(config, tracer=tracer)) == bare
    registry = MetricsRegistry()
    assert _times(run_app(config, observatory=_Probe(registry))) == bare
    assert _times(run_app(config, validate=True)) == bare
    assert _times(run_app(config, sanitize=True)) == bare

    tracer_all, registry_all, sanitizer_all = Tracer(), MetricsRegistry(), Sanitizer()
    together = run_app(config, observatory=_Probe(tracer_all, registry_all),
                       validate=True, sanitize=sanitizer_all)
    assert _times(together) == bare
    assert trace_digest(tracer_all) == trace_digest(tracer)
    totals = registry_all.scalar_totals()
    assert totals == registry.scalar_totals()
    assert totals["sim.events.scheduled"] == totals["sim.events.executed"] > 0
    assert sanitizer_all.ok and sanitizer_all.ops_checked > 0
