"""decogauss benchmark: one workload per process, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: report_sweep, oracle_check, grid_spectrum, cli_cold (see
workloads.py and BENCHMARK.json for why each was chosen).

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh workload processes, spawn to ready), peak RSS, median and tail
latency of one operation (on oracle_check and cli_cold, of the mean
operation in a pair of blocks; see worker.measure) and operations per
second.  --trace 1 prints the per-layer metrics of a separate traced run.
Machine and run facts go on the line before the result; the last line of
stdout is the result, {"correct", "attempted", "failed", "metrics"}.  With
`all`, each workload is run in turn and a table of its metrics is printed.

The package is imported from the checkout's own src/ directory; the run
fails, printing no result, if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # set-up-only processes per run; set-up time is their median
BLAS_THREADS = 1  # eigh's time depends on it; one thread is the steadiest
WORKLOAD_NAMES = ("report_sweep", "oracle_check", "grid_spectrum", "cli_cold")
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def workload_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def spawn(workload, seed, mode, seconds):
    """Start a worker; return (process, seconds from spawn to `ready`)."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    # unbuffered, so reading `ready` reads nothing beyond it
    process = subprocess.Popen(command, cwd=ROOT, env=workload_env(),
                               stdout=subprocess.PIPE, bufsize=0)
    readable, _, _ = select.select([process.stdout], [], [], READY_TIMEOUT_S)
    line = process.stdout.readline() if readable else b""
    setup = time.perf_counter() - start
    if line != b"ready\n":
        process.kill()
        process.communicate()
        raise BenchError(f"{workload} worker did not become ready")
    return process, setup


def finish(process, timeout):
    """Wait for a worker; return its result line, if it printed one."""
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError("worker timed out") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited with {process.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_workload(workload, seed, seconds, traced):
    """Facts and the result of one workload."""
    if traced:
        process, _ = spawn(workload, seed, "trace", seconds)
        result = finish(process, RUN_TIMEOUT_S)
        metrics = result["metrics"]
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            process, setup = spawn(workload, seed, "setup", seconds)
            finish(process, READY_TIMEOUT_S)
            setups.append(setup)
        process, setup = spawn(workload, seed, "measure", seconds)
        setups.append(setup)
        result = finish(process, RUN_TIMEOUT_S)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            **result["metrics"],
        }
    for error in result["errors"]:
        print(f"{workload}: failed operation: {error}", file=sys.stderr)
    facts = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": workload_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        **result["facts"],
    }
    return facts, {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="decogauss benchmark")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "decogauss" / "__init__.py").is_file():
        print(f"no decogauss source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            facts, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"facts": facts}))
            if args.workload == "all":
                print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
                for metric, entry in result["metrics"].items():
                    print(f"  {metric:<38} {entry['value']:>16.6g} {entry['unit']}")
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
