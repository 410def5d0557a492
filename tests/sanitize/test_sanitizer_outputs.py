"""The sanitizer's outputs are pinned byte for byte, and its clocks are
copy-on-write.

``sanitizer_outputs.json`` holds, for the whole 24-case ``repro sanitize``
matrix and for every fault injector in :mod:`repro.sanitize.faults`
(a dropped Cholesky dependency at three points of the DAG on every
frontend; skipped ``pack``/``unpack`` waits on four frontends), the full
:meth:`Sanitizer.report` text and the ``ops_checked`` /
``accesses_checked`` counts.  A change to how clocks are stored, shared or
joined must leave every one of them unchanged.

Regenerate (only when a report's format changes on purpose) with
``PYTHONPATH=src python tests/sanitize/test_sanitizer_outputs.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import ALL_VERSIONS, get_app, run_app
from repro.apps.cholesky import CholeskyConfig
from repro.hardware import MachineSpec
from repro.sanitize import Sanitizer, declared_dep_pairs, drop_cholesky_dep, drop_wait
from repro.sanitize.driver import sanitize_matrix

PINNED = Path(__file__).with_name("sanitizer_outputs.json")

DROP_POINTS = (0.25, 0.5, 0.75)
WAIT_VERSIONS = ("charm-h", "charm-d", "mpi-h", "ampi-d")
WAIT_MATCHES = ("pack", "unpack")


def _outputs(sanitizer) -> dict:
    return {"report": sanitizer.report(), "ops_checked": sanitizer.ops_checked,
            "accesses_checked": sanitizer.accesses_checked}


def _dropped_dep_run(version, point):
    config = CholeskyConfig(version=version, nodes=2, tiles=5, tile=16,
                            odf=1 if version.startswith("mpi") else 2,
                            machine=MachineSpec.small_debug())

    def hook(ctx):
        pairs = declared_dep_pairs(ctx)
        drop_cholesky_dep(ctx, *pairs[int(len(pairs) * point)])

    sanitizer = Sanitizer()
    run_app(config, sanitize=sanitizer, context_hook=hook)
    return sanitizer


def _dropped_wait_run(version, match):
    kwargs = dict(nodes=2, grid=(48, 48, 48), iterations=3, warmup=1)
    if not version.startswith("mpi"):
        kwargs["odf"] = 2
    sanitizer = Sanitizer()
    with drop_wait(match, count=2):
        run_app(get_app("jacobi3d").config_cls(version=version, **kwargs),
                sanitize=sanitizer)
    return sanitizer


FAULT_CASES = {
    **{f"drop-dep {v} {p}": (_dropped_dep_run, v, p)
       for v in ALL_VERSIONS for p in DROP_POINTS},
    **{f"drop-wait {v} {m}": (_dropped_wait_run, v, m)
       for v in WAIT_VERSIONS for m in WAIT_MATCHES},
}


def collect_outputs() -> dict:
    outputs = {f"matrix {case.app} {case.version}": _outputs(case.sanitizer)
               for case in sanitize_matrix()}
    for name, (run, *args) in FAULT_CASES.items():
        outputs[name] = _outputs(run(*args))
    return outputs


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_cases_cover_matrix_and_injectors(pinned):
    assert sum(name.startswith("matrix ") for name in pinned) == 24
    assert set(FAULT_CASES) <= set(pinned)
    # The injectors are live.  Every dropped dependency is found; a skipped
    # wait can stay covered by other ordering, so only most of them are.
    with_findings = {n for n in FAULT_CASES if "FINDING" in pinned[n]["report"]}
    assert {n for n in FAULT_CASES if n.startswith("drop-dep")} <= with_findings
    assert sum(n.startswith("drop-wait") for n in with_findings) >= 4


def test_matrix_outputs_are_pinned(pinned):
    for case in sanitize_matrix():
        name = f"matrix {case.app} {case.version}"
        assert _outputs(case.sanitizer) == pinned[name], name


@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_fault_injector_outputs_are_pinned(name, pinned):
    run, *args = FAULT_CASES[name]
    assert _outputs(run(*args)) == pinned[name]


@pytest.mark.parametrize("app,version,kwargs", [
    ("jacobi3d", "charm-d", dict(nodes=2, odf=2, grid=(48, 48, 48),
                                 iterations=3, warmup=1)),
    ("jacobi3d", "mpi-h", dict(nodes=2, grid=(48, 48, 48),
                               iterations=3, warmup=1)),
    ("cholesky", "ampi-d", dict(nodes=2, odf=2, tiles=5, tile=32)),
    ("allreduce", "charm-h", dict(nodes=2, odf=2, elements=4096,
                                  iterations=2, warmup=1)),
])
def test_registered_clocks_are_never_mutated(app, version, kwargs, monkeypatch):
    """Copy-on-write: events, messages and issued ops share clock arrays,
    so a clock bound to an event must never change afterwards."""
    registered = []
    original = Sanitizer.register_event

    def register_event(self, event, clock):
        if clock is not None:
            registered.append((clock, clock.copy()))
        original(self, event, clock)

    monkeypatch.setattr(Sanitizer, "register_event", register_event)
    sanitizer = Sanitizer()
    run_app(get_app(app).config_cls(version=version, **kwargs), sanitize=sanitizer)
    assert sanitizer.ok, sanitizer.report()
    assert registered
    for clock, at_registration in registered:
        assert np.array_equal(clock, at_registration)
    # Sharing is live: fewer distinct arrays than registrations.
    assert len({id(clock) for clock, _ in registered}) < len(registered)


if __name__ == "__main__":
    PINNED.write_text(json.dumps(collect_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
