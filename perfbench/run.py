"""Host-time benchmark of the simulator: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload charm-strong --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, traced and not
    python3 perfbench/run.py --record-pins             # rewrite pins.json

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` runs untraced passes, then traced (``cProfile``) passes in a
separate process, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every run also writes a record, stamped with the machine
and the code it measured, to ``.perfbench/records/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in ledger.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.us_per_call"] = "us"
    units["other.self_s"] = "s"
    units.update({
        "sim.events": "count", "sim.events_per_s": "1/s",
        "comm.messages": "count", "comm.bytes": "B",
        **{f"comm.proto.{p}": "count" for p in workloads.PROTOCOLS},
        "exec.cache_hits": "count", "exec.cache_misses": "count",
        "exec.cache_writes": "count", "exec.get_us": "us", "exec.put_us": "us",
        "sanitize.ops_checked": "count", "sanitize.accesses_checked": "count",
        "sanitize.findings": "count", "obs.trace_records": "count",
        "trace_overhead": "ratio",
    })
    return units


# -- machine stamp ---------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _source_sha256() -> str:
    """Digest of every ``.py`` under ``src``: names the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop (best
    of three).  Recorded beside every result; no metric is divided by it."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best


def machine_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "calibration_mops": calibration_score(),
    }


# -- child processes -------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker_cmd(workload: str, seed: int, *extra: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(WORKDIR / "work"), *extra]


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    proc = subprocess.run(_worker_cmd(workload, seed, *extra), env=_env(), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter to the workload being
    ready to run, ``SETUP_SAMPLES`` times after one untimed warm-up
    (which compiles bytecode on a fresh checkout)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(workload, seed, "--setup-only"), env=_env(),
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up of {workload} failed")
        if i:
            samples.append(elapsed)
    return samples


# -- one benchmark run -----------------------------------------------------

def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def _median(samples: list) -> float:
    """Median of the passes that succeeded; 0 when none did (the run then
    reports ``correct: false``)."""
    return statistics.median(samples) if samples else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setup = setup_seconds(workload, seed)
        run = run_worker(workload, seed, "--seconds", str(seconds))
        runs = [run]
        metrics = {
            "wall_s": _median(run["samples"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        detail = {"wall_samples": run["samples"], "setup_samples": setup,
                  "wall_tail": tail(run["samples"])}
    else:
        plain = run_worker(workload, seed, "--seconds", str(seconds / 2))
        traced = run_worker(workload, seed, "--seconds", str(seconds / 2), "--profile")
        runs = [plain, traced]
        wall = _median(plain["samples"])
        metrics = {}
        for layer in ledger.LAYERS:
            row = traced["ledger"][layer]
            metrics[f"{layer}.calls"] = row["calls"]
            metrics[f"{layer}.self_s"] = row["self_s"]
            metrics[f"{layer}.us_per_call"] = (
                row["self_s"] / row["calls"] * 1e6 if row["calls"] else 0.0)
        metrics["other.self_s"] = traced["ledger"][ledger.OTHER]["self_s"]
        counters = traced["counters"]
        for name in per_layer_units():
            if name not in metrics:
                metrics[name] = counters.get(name, 0)
        metrics["sim.events_per_s"] = counters["sim.events"] / wall if wall else 0.0
        metrics["trace_overhead"] = _median(traced["samples"]) / wall if wall else 0.0
        detail = {"untraced_samples": plain["samples"], "traced_samples": traced["samples"],
                  "traced_total_s": traced["traced_total_s"]}
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return {"attempted": attempted, "failures": failures, "metrics": metrics, **detail}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: bool, result: dict, stamp: dict) -> None:
    units = per_layer_units() if trace else END_TO_END_UNITS
    failed = len(result["failures"])
    print(f"== {workload} seed={seed} trace={int(trace)}: {result['attempted']} passes, "
          f"{failed} failed, error_rate {failed / result['attempted']:.3g}")
    for failure in result["failures"][:3]:
        print("  FAILED: " + failure.strip().replace("\n", "\n          "))
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {_fmt(value):>14} {units[name]}")
    if not trace:
        print(f"  {'wall_s samples':<28} {len(result['wall_samples']):>14} count")
        if result["wall_tail"] is None:
            print(f"  {'wall_s tail':<28} {'n/a':>14} (fewer than 11 samples)")
        else:
            pct, value = result["wall_tail"]
            print(f"  {'wall_s tail':<28} {_fmt(value):>14} s (p{pct:.0f})")
    print(f"  stamp: python {stamp['python']}, {stamp['cpu']}, nproc {stamp['nproc']}, "
          f"load {stamp['loadavg']:.2f}, commit {stamp['commit'][:12]}, "
          f"src {stamp['source_sha256'][:12]}, calibration {stamp['calibration_mops']:.3f} Mop/s")


def save_record(workload: str, seed: int, trace: bool, seconds: float, result: dict,
                stamp: dict) -> Path:
    path = WORKDIR / "records" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "stamp": stamp, **result,
              "units": per_layer_units() if trace else END_TO_END_UNITS}
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return path


def summary_line(results: list) -> dict:
    """The result line printed last; metric names gain a ``<workload>/``
    prefix when ``results`` spans several runs."""
    units = {**END_TO_END_UNITS, **per_layer_units()}
    metrics = {}
    for result in results:
        for name, value in result["metrics"].items():
            key = name if len(results) == 1 else f"{result['workload']}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(len(r["failures"]) for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def record_pins() -> None:
    pins = {name: run_worker(name, 1, "--record") for name in workloads.NAMES}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'pins.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.record_pins:
        record_pins()
        return 0

    stamp = machine_stamp()
    if args.workload == "all":
        plan = [(name, trace) for name in workloads.NAMES for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for workload, trace in plan:
        result = measure(workload, args.seed, args.seconds, trace)
        result["workload"] = workload
        report(workload, args.seed, trace, result, stamp)
        print(f"  record: {save_record(workload, args.seed, trace, args.seconds, result, stamp)}")
        results.append(result)
    print(json.dumps(summary_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
