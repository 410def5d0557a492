"""One benchmark process: set a workload up and run it as a closed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Modes:

* ``--setup-only``: build the workload, print ``ready`` and exit; the
  parent times this from process start (``setup_s``).
* default: run passes back to back for ``--seconds``, check every pass's
  outputs against ``pins.json``, print one JSON record on the last line.
  With ``--profile`` every pass runs under ``cProfile`` and the record
  carries the per-layer ledger.
* ``--record``: run one pass and print its outputs (used to write pins).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import ledger
import workloads

PINS = Path(__file__).with_name("pins.json")


def _normalise(outputs: dict) -> dict:
    # The pins went through JSON once; compare like with like.
    return json.loads(json.dumps(outputs, sort_keys=True))


class _EventCounter:
    """Counts events the simulation kernel executes, by wrapping
    ``Engine.run`` (traced passes only; untraced passes run unpatched)."""

    def __init__(self):
        from repro.sim import Engine

        self.Engine = Engine
        self.original = Engine.run
        self.events = 0

    def __enter__(self):
        original = self.original

        def run(engine, *args, **kwargs):
            before = engine.events_executed
            try:
                return original(engine, *args, **kwargs)
            finally:
                self.events += engine.events_executed - before

        self.Engine.run = run
        return self

    def __exit__(self, *exc):
        self.Engine.run = self.original


def closed_loop(workload, seconds: float, pins, profiler=None) -> dict:
    """Run passes back to back until the next one would end after
    ``seconds``; at least one pass runs."""
    samples, failures, counters = [], [], {}
    t_start = time.perf_counter()
    while True:
        gc.collect()  # each pass starts from a collected heap, as a fresh process would
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outputs, counters = workload.run_pass()
            error = None
        except Exception:  # a failed pass is counted, not fatal
            error = traceback.format_exc(limit=3)
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - t0
        if error is None and _normalise(outputs) != pins:
            diff = sorted(k for k in set(pins) | set(outputs)
                          if pins.get(k) != _normalise(outputs).get(k))
            error = f"outputs differ from pins.json for {diff}"
        if error is None:
            samples.append(wall)
        else:
            failures.append(error)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(samples) if samples else wall
        if elapsed + typical > seconds:
            break
    return {
        "samples": samples,
        "attempted": len(samples) + len(failures),
        "failures": failures,
        "counters": counters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def profiled_loop(workload, seconds: float, pins) -> dict:
    profiler = cProfile.Profile(builtins=True)
    with _EventCounter() as events:
        record = closed_loop(workload, seconds, pins, profiler)
    stats = pstats.Stats(profiler).stats
    passes = max(record["attempted"], 1)
    record["ledger"] = {
        name: {"self_s": row["self_s"] / passes, "calls": row["calls"] / passes}
        for name, row in ledger.build_ledger(stats).items()
    }
    record["traced_total_s"] = ledger.total_self_s(stats) / passes
    record["counters"]["sim.events"] = events.events / passes
    record["counters"]["exec.get_us"] = ledger.mean_us(stats, "exec/cache.py", "get")
    record["counters"]["exec.put_us"] = ledger.mean_us(stats, "exec/cache.py", "put")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--profile", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.record:
        outputs, _ = workload.run_pass()
        print(json.dumps(_normalise(outputs), sort_keys=True))
        return 0
    pins = json.loads(PINS.read_text())[args.workload]
    if args.profile:
        record = profiled_loop(workload, args.seconds, pins)
    else:
        record = closed_loop(workload, args.seconds, pins)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
