"""One workload in its own process: set up, then measure or trace.

Usage: python3 perfbench/worker.py --workload NAME --seed N
           --mode setup|measure|trace [--seconds S]

Prints `ready` once set up (interpreter, import decogauss, first inputs,
warm-up), then, unless the mode is `setup`, one JSON result line.  Started
by run.py, which times spawn-to-`ready` as the set-up time.

measure: closed loop, one client; whole pairs of blocks of operations
until `--seconds` have passed (an odd block mirrors the inputs of the even
one before it).  Only the operation is timed; its check runs between
operations.
trace:   a fixed number of blocks, once untraced and once with the tracer
installed, so counts repeat exactly and the difference of the two passes
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from importlib import metadata

import numpy as np

import checks
import tracer as tracing
from workloads import WORKLOADS

MAX_ERRORS_SHOWN = 5


def execute(workload, op):
    """Run and check one operation: (ok, seconds, error, accuracy).  A
    raised exception or a failed check makes a failed operation."""
    trace = workload.tracer
    start = time.perf_counter()
    try:
        with trace.span("op") if trace else contextlib.nullcontext():
            output = workload.operate(op)
    except Exception as exc:  # noqa: BLE001 - counted, reported and run on
        return False, time.perf_counter() - start, f"{op.kind}: {exc!r}", {}
    elapsed = time.perf_counter() - start
    try:
        with trace.paused() if trace else contextlib.nullcontext():
            accuracy = workload.check(op, output)
    except checks.CheckFailure as exc:
        return False, elapsed, str(exc), {}
    return True, elapsed, None, accuracy


class Tally:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.accuracy = {}

    def add(self, outcome):
        ok, seconds, error, accuracy = outcome
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(error)
        for key, value in accuracy.items():
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)


def percentile(values, pct):
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload, seconds):
    tally = Tally()
    pairs = []  # latencies of each block pair, in ms
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        start = len(tally.latencies)
        for op in (*workload.block(index), *workload.block(index + 1)):
            tally.add(execute(workload, op))
        pairs.append([1e3 * s for s in tally.latencies[start:]])
        index += 2
        if time.perf_counter() >= deadline:
            break
    ms = [1e3 * s for s in tally.latencies]
    if workload.per_pair:
        # A percentile of single operations would hinge on which of a few
        # unequal parameter sets the seed draws (oracle_check), or on which
        # of two speeds a fresh process happens to get (cli_cold).  A pair
        # of blocks holds every stratum twice (mirrored on oracle_check), so
        # its mean costs about the same on every seed; the tail is the mean
        # of its slower half.
        p50 = statistics.median(statistics.fmean(pair) for pair in pairs)
        tail = statistics.median(statistics.fmean(sorted(pair)[len(pair) // 2:])
                                 for pair in pairs)
    else:
        p50, tail = percentile(ms, 50), percentile(ms, workload.tail)
    metrics = {
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (len(ms) / sum(tally.latencies), "1/s"),
    }
    return tally, metrics


def trace(workload):
    blocks = [workload.block(index) for index in range(workload.trace_blocks)]
    untraced = Tally()
    for ops in blocks:
        for op in ops:
            untraced.add(execute(workload, op))
    workload.tracer = tracing.instrument(tracing.Tracer())
    workload.tracer.active = True
    traced = Tally()
    try:
        for ops in blocks:
            for op in ops:
                traced.add(execute(workload, op))
    finally:
        workload.tracer.active = False
        workload.tracer.restore()
    summary = workload.tracer.summary()
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (summary["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (summary["self_s"].get(layer, 0.0), "s")
    units = {"bytes": "B"}
    for key in tracing.COUNTS:
        metrics[key] = (summary["counts"].get(key, 0), units.get(key.rsplit(".", 1)[-1], "count"))
    metrics["oracle.integrate.peak_mb"] = (summary["peak_mb"], "MB")
    for key in ("oracle.max_rel_err", "spectrum.max_eig_rel_err", "spectrum.max_overlap_deficit"):
        metrics[key] = (traced.accuracy.get(key, 0.0), "1")
    total_traced, total_untraced = sum(traced.latencies), sum(untraced.latencies)
    metrics["op.total_s"] = (total_traced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (total_traced - total_untraced) / total_untraced, "%")
    merged = Tally()
    for tally in (untraced, traced):
        merged.latencies += tally.latencies
        merged.failed += tally.failed
        merged.errors += tally.errors
    return merged, metrics


def facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            tally, metrics = measure(workload, args.seconds)
        else:
            tally, metrics = trace(workload)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "peak_rss_mb": peak_kb / 1024.0,
        "facts": facts(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
