"""Self-tests of the benchmark's ledger.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import cProfile
import math
import pstats
import time

import pytest

import ledger
from run import tail
from worker import closed_loop


def test_layer_of_path():
    assert ledger.layer_of_path("/x/repro/src/repro/sim/engine.py") == "sim"
    assert ledger.layer_of_path("/x/repro/src/repro/runtime/sub/mod.py") == "runtime"
    assert ledger.layer_of_path("/x/repro/src/repro/cli.py") == "other"
    assert ledger.layer_of_path("/x/repro/src/repro/lint/rules.py") == "other"
    assert ledger.layer_of_path("/x/repro/perfbench/worker.py") == "other"
    assert ledger.layer_of_path("/usr/lib/python3.11/heapq.py") == "other"


def _stats(rows):
    """A pstats table from ``{func: (tt, {caller: (nc, tt)})}``."""
    return {func: (sum(nc for nc, _ in callers.values()) or 1,
                   sum(nc for nc, _ in callers.values()) or 1, tt, tt,
                   {c: (nc, nc, ctt, ctt) for c, (nc, ctt) in callers.items()})
            for func, (tt, callers) in rows.items()}


def test_builtins_are_charged_to_their_callers():
    sim = ("/s/repro/sim/engine.py", 10, "run")
    rt = ("/s/repro/runtime/scheduler.py", 20, "enqueue")
    helper = ("/s/repro/runtime/scheduler.py", 30, "_loop")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    length = ("~", 0, "<built-in method builtins.len>")
    stats = _stats({
        sim: (1.0, {}),
        rt: (0.5, {sim: (7, 0.5)}),
        helper: (0.25, {rt: (3, 0.25)}),
        # 0.3 s of heappush from sim, 0.2 s from runtime, 0.1 s with no caller
        push: (0.6, {sim: (5, 0.3), helper: (2, 0.2)}),
        # a builtin called only by a builtin takes its caller's layer
        length: (0.05, {push: (4, 0.05)}),
    })
    book = ledger.build_ledger(stats)
    assert book["sim"]["self_s"] == pytest.approx(1.0 + 0.3 + 0.05)
    assert book["runtime"]["self_s"] == pytest.approx(0.5 + 0.25 + 0.2)
    assert book["other"]["self_s"] == pytest.approx(0.1)
    total = sum(row["self_s"] for row in book.values())
    assert total == pytest.approx(ledger.total_self_s(stats))
    # 7 calls into runtime's public ``enqueue`` from sim; ``_loop`` is private
    # and called from inside runtime.
    assert book["runtime"]["calls"] == 7
    assert book["sim"]["calls"] == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(list(range(10))) is None
    pct, value = tail(list(range(100)))
    assert (pct, value) == (90.0, 89)
    assert sum(1 for x in range(100) if x > value) == 10


class _OnePass:
    def __init__(self, result):
        self.result = result

    def run_pass(self):
        if isinstance(self.result, Exception):
            raise self.result
        return self.result, {}


@pytest.mark.parametrize("total_time, failure", [
    (1.5, None),
    (math.nextafter(1.5, 2.0), "differ from pins"),  # one ulp off
    (RuntimeError("boom"), "boom"),
])
def test_closed_loop_counts_mismatches_and_exceptions_as_failures(total_time, failure):
    pins = {"cfg": {"total_time": 1.5, "protocol_counts": {"device_ipc": 2}}}
    result = total_time if isinstance(total_time, Exception) else {
        "cfg": {"total_time": total_time, "protocol_counts": {"device_ipc": 2}}}
    record = closed_loop(_OnePass(result), seconds=0.0, pins=pins)
    assert record["attempted"] == 1
    if failure is None:
        assert len(record["samples"]) == 1 and record["failures"] == []
    else:
        assert record["samples"] == [] and failure in record["failures"][0]


# -- against real runs -------------------------------------------------------

def _config():
    from repro.apps import get_app

    return get_app("jacobi3d").config_cls(
        version="charm-d", nodes=1, grid=(96, 96, 96), odf=2, iterations=2, warmup=1)


def _profile():
    from repro.apps import run_app
    from repro.sanitize import Sanitizer

    config = _config()
    profiler = cProfile.Profile(builtins=True)
    profiler.enable()
    try:
        run_app(config, sanitize=Sanitizer())
    finally:
        profiler.disable()
    return pstats.Stats(profiler).stats


def _target(layer):
    if layer == "sanitize":
        from repro.sanitize import Sanitizer
        return Sanitizer, "on_op_dispatch"
    if layer == "runtime":
        from repro.runtime.scheduler import Scheduler
        return Scheduler, "enqueue"
    from repro.comm.ucx import UcxContext
    return UcxContext, "isend"


def _inject_delay(monkeypatch, cls, name, seconds):
    """Replace ``cls.name`` by a wrapper that spins for ``seconds`` first.
    The wrapper is compiled with the original's source file, so the profile
    places the spin in the original's layer, as it would a real slowdown."""
    original = getattr(cls, name)
    namespace = {"perf_counter": time.perf_counter, "original": original, "seconds": seconds}
    source = ("def delayed(*args, **kwargs):\n"
              "    end = perf_counter() + seconds\n"
              "    while perf_counter() < end:\n"
              "        pass\n"
              "    return original(*args, **kwargs)\n")
    exec(compile(source, original.__code__.co_filename, "exec"), namespace)
    monkeypatch.setattr(cls, name, namespace["delayed"])


@pytest.fixture(scope="module")
def baseline():
    _profile()  # warm lazy imports and first-call paths
    return _profile()


def test_real_ledger_partitions_the_profile(baseline):
    book = ledger.build_ledger(baseline)
    total = ledger.total_self_s(baseline)
    assert math.isclose(sum(row["self_s"] for row in book.values()), total, rel_tol=1e-9)
    for layer in ("sim", "runtime", "comm", "hardware", "apps", "sanitize"):
        assert book[layer]["self_s"] > 0 and book[layer]["calls"] > 0, layer
    for layer in ("mpi", "exec", "core", "validate"):
        assert book[layer]["self_s"] == 0 and book[layer]["calls"] == 0, layer


@pytest.mark.parametrize("layer", ["sanitize", "runtime", "comm"])
def test_injected_slowdown_is_blamed_on_its_layer(baseline, monkeypatch, layer):
    cls, name = _target(layer)
    code = getattr(cls, name).__code__
    calls = sum(entry[1] for func, entry in baseline.items()
                if func == (code.co_filename, code.co_firstlineno, code.co_name))
    assert calls > 0
    # A 10% slowdown of the whole traced run, all of it in one function.
    injected = 0.10 * ledger.total_self_s(baseline)
    _inject_delay(monkeypatch, cls, name, injected / calls)
    slowed = _profile()
    before, after = ledger.build_ledger(baseline), ledger.build_ledger(slowed)
    assert ledger.blame(before, after) == layer
    assert after[layer]["self_s"] - before[layer]["self_s"] > 0.5 * injected
