"""Benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (compress_cold, error_scan, solve_ivp or mlf_reference) in
fresh interpreters started by worker.py and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced run, plus the tracing overhead measured against
an untraced run of the same inputs.  Exits non-zero, printing no result, if
any run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("kernel_mix", "solve_mix",
             "compress_cold", "error_scan", "solve_ivp", "mlf_reference")

# Set-ups measured per untraced run; setup_s is their median.
SETUP_SAMPLES = 3

# The whole command ends within this many seconds.
DEADLINE_S = 170.0

# Numerical libraries would otherwise start a thread per core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class RunFailed(RuntimeError):
    pass


def _spawn(args, deadline, seconds=None, trace=0, setup_only=False) -> dict:
    """One worker; returns its JSON result with setup_s added."""
    remaining = deadline - time.monotonic()
    if remaining <= 5.0:
        raise RunFailed("no time left for another worker")
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds if seconds is not None else args.seconds),
           "--trace", str(trace), "--max-wall", repr(max(remaining - 30.0, 1.0))]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **SINGLE_THREAD_ENV),
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"worker exceeded {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(args, deadline):
    setups = [_spawn(args, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _spawn(args, deadline)
    if run["completed"] < 2:
        raise RunFailed("fewer than two requests completed")
    setups.append(run["setup_s"])
    print(f"{args.workload} seed {args.seed}: {run['completed']} requests in "
          f"{run['timed_s']:.2f} s timed, checks {run['check_s']:.2f} s; "
          f"latency_p90_ms over {run['completed']} samples, "
          f"{run['beyond_p90']} beyond it; setup_s median of {len(setups)}")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "requests_per_s": _metric(run["requests_per_s"], "req/s"),
        "latency_p50_ms": _metric(run["p50_ms"], "ms"),
        "latency_p90_ms": _metric(run["p90_ms"], "ms"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    return [run], metrics


def _per_layer(args, deadline):
    half = args.seconds / 2.0
    plain = _spawn(args, deadline, seconds=half)
    traced = _spawn(args, deadline, seconds=half, trace=1)
    if plain["completed"] < 2 or traced["completed"] < 2:
        raise RunFailed("fewer than two requests completed")
    metrics = {name: _metric(value, unit) for name, (value, unit) in traced["layers"].items()}
    rps_plain, rps_traced = plain["requests_per_s"], traced["requests_per_s"]
    metrics["bench.untraced_requests_per_s"] = _metric(rps_plain, "req/s")
    metrics["bench.traced_requests_per_s"] = _metric(rps_traced, "req/s")
    metrics["bench.trace_overhead_ratio"] = _metric(rps_plain / rps_traced - 1.0, "ratio")
    metrics["bench.untraced_request_ms"] = _metric(1e3 / rps_plain, "ms")
    print(f"{args.workload} seed {args.seed}: untraced {plain['completed']} and traced "
          f"{traced['completed']} requests; trace written under {BENCH / 'out'}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    try:
        runs, metrics = (_per_layer if args.trace else _end_to_end)(args, deadline)
    except RunFailed as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
