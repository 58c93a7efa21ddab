"""One benchmark workload in a fresh interpreter.

Imports fracsum from the checkout's src/, does the workload's set-up, then
runs it as a closed loop with one client: each request is timed around the
library calls, then checked outside the timed region.  Prints one JSON line
with its measurements; run.py starts it and reads that line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Each run completes at least this many requests, so that ten samples lie
# beyond the 90th percentile.
MIN_REQUESTS = 100


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed request time to accumulate")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report when it ended")
    p.add_argument("--max-wall", type=float, default=150.0,
                   help="stop after the current round once this much wall time has passed")
    return p.parse_args(argv)


def _import_fracsum():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracsum
    if Path(fracsum.__file__).resolve().parent != src / "fracsum":
        raise ImportError(f"fracsum imported from {fracsum.__file__}, not from {src}")
    return fracsum


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    fracsum = _import_fracsum()
    from tracing import Tracer, install, public_api, summarize
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, fracsum, tracer)
    workload.warm(public_api(fracsum, None))
    api = public_api(fracsum, tracer)
    if tracer is not None:
        install(tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    latencies: list[float] = []
    attempted = failed = wrong = 0
    check_s = 0.0
    round_index = 0
    if tracer is not None:
        tracer.enabled = True
    while True:
        for request in workload.round(round_index):
            attempted += 1
            if tracer is not None:
                tracer.request = attempted
                tracer.open("bench.request")
            start = perf_counter()
            try:
                output = workload.run(api, request)
            except Exception:  # a failed request is counted, and the loop goes on
                end = None
                failed += 1
                traceback.print_exc()
            else:
                end = perf_counter()
            finally:
                if tracer is not None:
                    tracer.close()
            if end is None:
                continue
            latencies.append(end - start)
            if tracer is not None:
                tracer.enabled = False
            c0 = perf_counter()
            ok = workload.check(request, output)
            c1 = perf_counter()
            check_s += c1 - c0
            if tracer is not None:
                tracer.record("bench.check", c0, c1)
                tracer.enabled = True
            if not ok:
                failed += 1
                wrong += 1
                print(f"wrong output for {request!r}", file=sys.stderr)
        round_index += 1
        enough = sum(latencies) >= args.seconds and len(latencies) >= MIN_REQUESTS
        if enough or time.monotonic() - started > args.max_wall:
            break

    timed_s = sum(latencies)
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "completed": len(latencies),
        "timed_s": timed_s,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(latencies) >= 2:
        ms = sorted(1e3 * x for x in latencies)
        result["p50_ms"] = statistics.median(ms)
        result["p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[-1]
        result["beyond_p90"] = sum(1 for x in ms if x > result["p90_ms"])
        result["requests_per_s"] = len(latencies) / timed_s
    if tracer is not None:
        tracer.enabled = False
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        result["layers"] = summarize(tracer, len(latencies))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
