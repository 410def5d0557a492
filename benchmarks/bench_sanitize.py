"""Checker overhead: bare vs. observed wall-clock for the same run.

Not a paper figure: the sanitizer, tracer, metrics registry, invariant
checker and perf report are host-side bookkeeping on the engine's observer
table, and this pins what each costs so a clock-join, counter or report
change that regresses shows up in ``results/bench_meta.json`` next to the
figure timings.

Every variant runs ``ROUNDS`` times, interleaved round by round so host
drift spreads evenly; each records the median and the interquartile range.
Two slots are written:

* ``sanitize`` — bare vs. sanitized seconds and the overhead;
* ``observers`` — one row per observer (tracer, metrics, invariants,
  sanitizer: the run with that observer alone; report: building
  ``Observatory.report`` after an observed run), each as overhead against
  the bare run.

The run doubles as a self-host check — the sanitized case must come back
clean, and (pure-observer contract) every observed run must report the
identical simulated elapsed time.  No wall-clock bound is asserted.
"""

import statistics
import time
from datetime import datetime, timezone

from conftest import BENCH_META_PATH, RESULTS_DIR, current_commit

from repro.apps import get_app, run_app
from repro.obs import MetricsRegistry, Observatory, append_bench_history
from repro.sanitize import Sanitizer
from repro.sim import Tracer

ROUNDS = 5


def _config():
    spec = get_app("jacobi3d")
    return spec.config_cls(version="charm-d", nodes=2, odf=4,
                           grid=(96, 96, 96), iterations=10, warmup=2)


class _MetricsOnly:
    """The ``observatory=`` seam of :func:`run_app`, attaching only a
    :class:`MetricsRegistry` (an Observatory also brings a tracer)."""

    def __init__(self):
        self.registry = MetricsRegistry()

    def begin(self, engine, cluster):
        self.registry.attach(engine)


def _bare():
    return run_app(_config()), None


def _tracer():
    return run_app(_config(), tracer=Tracer()), None


def _metrics():
    return run_app(_config(), observatory=_MetricsOnly()), None


def _invariants():
    return run_app(_config(), validate=True), None


def _sanitizer():
    san = Sanitizer()
    return run_app(_config(), sanitize=san), san


def _observed():
    observatory = Observatory()
    return run_app(_config(), observatory=observatory), observatory


VARIANTS = {
    "bare": _bare,
    "tracer": _tracer,
    "metrics": _metrics,
    "invariants": _invariants,
    "sanitizer": _sanitizer,
}


def _stats(samples) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": round(statistics.median(samples), 6),
            "iqr_s": round(q3 - q1, 6)}


def _measure(rounds=ROUNDS):
    """Seconds per round for every variant and for the report build, plus
    the last round's results and sanitizer."""
    times = {name: [] for name in [*VARIANTS, "report"]}
    results, sanitizer = {}, None
    for _ in range(rounds):
        for name, fn in VARIANTS.items():
            t0 = time.perf_counter()
            results[name], extra = fn()
            times[name].append(time.perf_counter() - t0)
            if name == "sanitizer":
                sanitizer = extra
        result, observatory = _observed()
        t0 = time.perf_counter()
        observatory.report(result)
        times["report"].append(time.perf_counter() - t0)
        results["report"] = result
    return times, results, sanitizer


def test_sanitize_overhead(benchmark):
    times, results, san = benchmark.pedantic(_measure, rounds=1, iterations=1)

    assert san.ok, san.report()
    assert san.ops_checked > 0 and san.accesses_checked > 0
    # Pure observers: identical simulated schedule with and without.
    bare = results["bare"]
    for name, result in results.items():
        assert result.total_time == bare.total_time, name
        assert result.time_per_iteration == bare.time_per_iteration, name

    stats = {name: _stats(samples) for name, samples in times.items()}
    bare_s = stats["bare"]["median_s"]

    def overhead_pct(seconds):
        return round(100.0 * seconds / bare_s, 2)

    rows = {}
    for name in ("tracer", "metrics", "invariants", "sanitizer"):
        rows[name] = dict(stats[name],
                          overhead_pct=overhead_pct(stats[name]["median_s"] - bare_s))
    rows["report"] = dict(stats["report"],
                          overhead_pct=overhead_pct(stats["report"]["median_s"]))

    stamp = {"rounds": ROUNDS}
    commit = current_commit()
    if commit:
        stamp["commit"] = commit
    now = datetime.now(timezone.utc)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    append_bench_history(
        BENCH_META_PATH,
        "sanitize",
        {
            "bare_s": bare_s,
            "bare_iqr_s": stats["bare"]["iqr_s"],
            "sanitized_s": stats["sanitizer"]["median_s"],
            "sanitized_iqr_s": stats["sanitizer"]["iqr_s"],
            "overhead_pct": rows["sanitizer"]["overhead_pct"],
            "ops_checked": san.ops_checked,
            "accesses_checked": san.accesses_checked,
            "findings": len(san.findings),
            **stamp,
        },
        now=now,
    )
    append_bench_history(BENCH_META_PATH, "observers",
                         {"bare": stats["bare"], **rows, **stamp}, now=now)
    print(f"\n[observers] bare {bare_s:.3f}s (median of {ROUNDS}, "
          f"IQR {stats['bare']['iqr_s']:.3f}s)")
    for name, row in rows.items():
        print(f"  {name:10s} {row['median_s']:.3f}s (IQR {row['iqr_s']:.3f}s) "
              f"+{row['overhead_pct']:.1f}%")
    print(f"  sanitizer checked {san.ops_checked} ops / "
          f"{san.accesses_checked} accesses")
