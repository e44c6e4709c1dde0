"""pconvex benchmark: four workloads, end-to-end metrics and a traced run.

One workload, as BENCHMARK.json runs it (the last stdout line is the JSON
result):

    python3 perfbench/run.py --workload risk-inversion --seed 1 --seconds 20 --trace 0

Every workload, untraced and then traced, with every metric printed by name
and unit and the table of each layer's share of request time:

    python3 perfbench/run.py --all

Run from the root of a pconvex checkout; the program is imported from its
src/ directory.  Each run starts fresh worker processes (worker.py) with
BLAS/OpenMP threads and PCONVEX_THREADS pinned to 1.  The exit code is 1
when a correctness check failed and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# The worker's own set-up plus this many set-up-only processes give the
# samples whose median is setup_s.
EXTRA_SETUPS = 6
DEADLINE_S = 170.0
# Span groups each workload is predicted to bypass (under 5% of its time).
BYPASS = {
    "quadrature": ("large-samples", "risk-inversion"),
    "inversion": ("large-samples", "density-quadrature"),
}
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PCONVEX_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)  # the worker imports pconvex from ROOT/src only
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, WORKER] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {args}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): {args}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return call_worker(base + ["--trace", "1"], deadline)
    setups = [call_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(EXTRA_SETUPS)]
    result = call_worker(base + ["--trace", "0"], deadline)
    setups.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["details"]["setup_samples_s"] = setups
    return result


def report(workload: str, result: dict) -> None:
    fp = dict(result["fingerprint"], cpu=cpu_model())
    print(f"== {workload}  (machine: {json.dumps(fp, sort_keys=True)}; "
          "CPU frequency and cgroup limits are not controlled)")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    details = dict(result["details"])
    shares = details.pop("layer_share", None)
    print(f"  failed {result['failed']} of {result['attempted']} attempted; "
          + json.dumps(details, sort_keys=True))
    if shares:
        print("  share of request time: " + ", ".join(
            f"{layer} {100.0 * share:.1f}%" for layer, share in shares.items()))
    for err in result["errors"]:
        print(f"  FAILED: {err}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result["metrics"].items())},
    })


def run_all(seed: int, seconds: float) -> int:
    shares = {}
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, seed, seconds, trace,
                                  time.monotonic() + 3 * DEADLINE_S)
            report(workload + (" (traced)" if trace else ""), result)
            failed += result["failed"]
            if trace:
                shares[workload] = result["details"]["layer_share"]
    layers = list(next(iter(shares.values())))
    print("\nshare of request time by layer (traced runs, self time):")
    print(f"  {'layer':14s}" + "".join(f"{w:>20s}" for w in shares))
    for layer in layers:
        print(f"  {layer:14s}" + "".join(f"{100.0 * shares[w][layer]:19.1f}%" for w in shares))
    for group, bypassing in BYPASS.items():
        for w in bypassing:
            share = shares[w][group]
            verdict = "holds" if share < 0.05 else "VIOLATED"
            print(f"  predicted bypass: {group} on {w} takes {100.0 * share:.2f}% ({verdict})")
    print("correct" if failed == 0 else f"{failed} requests FAILED")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pconvex", "__init__.py")):
        print(f"no pconvex program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload or --all is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              time.monotonic() + DEADLINE_S)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, result)
    print(result_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
