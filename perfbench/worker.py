"""Run one workload in this fresh process and print one JSON result line.

Started by run.py with BLAS/OpenMP threads and PCONVEX_THREADS pinned to 1.
Requests run as a closed loop with one caller: each starts only after the
previous one has finished.  With --trace 1 the same cycles run in untraced
rounds and then in one traced round, so the trace overhead is measured on
identical requests and the two passes must produce identical outputs.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg import eig_banded  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

# The tail is the highest nearest-rank percentile with this many requests
# beyond it.
BEYOND_TAIL = 10
MIN_ROUNDS = 3
# A shared host's speed drifts: other tenants of its cores slow every process
# by up to 2x, for seconds to minutes at a time, and slow plain Python, numpy
# calls on tiny arrays, numpy kernels on long arrays and LAPACK by different
# factors.  So the worker times a fixed calibration loop of all four (no
# pconvex code; the LAPACK part is the eigenproblem that yields Gauss-Legendre
# nodes, which dominates light quadrature requests)
# between every two requests and divides each request's latency by the mean
# slowdown of the loops right before and right after it, against
# REFERENCE_S: times are reported at the speed at which the loop takes
# REFERENCE_S.  The unscaled times are in the details.
REFERENCE_S = 2e-3
SETUP_CALIBRATIONS = 25
_CAL_SHORT = np.linspace(0.0, 1.0, 256)
_CAL_LONG = np.linspace(0.0, 1.0, 4096)
_CAL_TINY = [1.0, 2.0, 3.0]
_CAL_K = np.arange(1.0, 100.0)
# the Jacobi matrix of the 100-point Legendre rule, in banded upper form
_CAL_BAND = np.vstack([np.r_[0.0, _CAL_K / np.sqrt(4.0 * _CAL_K ** 2 - 1.0)], np.zeros(100)])


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1000):
        s += math.sqrt(i) * 1.5
    for _ in range(15):
        s += float(np.sum(np.sin(_CAL_SHORT)))
    for _ in range(50):
        a = np.asarray(_CAL_TINY)
        s += float(np.dot(np.clip(a, 0.0, 2.0), a))
    for _ in range(4):
        s += float(np.exp(np.sin(_CAL_LONG)).sum())
    s += float(eig_banded(_CAL_BAND)[0][0])
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than the reference speed the host runs now."""
    return calibrate() / REFERENCE_S


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pconvex
    import pconvex.cli  # noqa: F401  (the cli-small workload calls it in-process)

    if not os.path.abspath(pconvex.__file__).startswith(src + os.sep):
        raise SystemExit(f"pconvex was imported from {pconvex.__file__}, not from {src}")
    return pconvex


def clear_caches(pc) -> None:
    """Empty the program's memo caches so that every round does the same work."""
    for name, module in list(sys.modules.items()):
        if name == pc.__name__ or name.startswith(pc.__name__ + "."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def cycle(workload: str, seed: int, index: int, workdir: str):
    requests = workloads.generate(workload, seed, index)
    return workloads.prepare_cycle(requests, os.path.join(workdir, f"cycle-{index}"))


class Pass:
    """Rounds over a fixed list of cycles: latencies, failures, fingerprints.

    A round runs every cycle once, after emptying the program's memo caches,
    so each round repeats exactly the same work.  `latencies[j]` holds one
    latency per round for request j, and `scaled[j]` the same latencies at
    reference speed.
    """

    def __init__(self, pc, cycles: list, tracer=None):
        self.pc, self.cycles = pc, cycles
        self.session = workloads.Session(pc, tracer)
        self.latencies: list[list[float]] = [[] for c in cycles for _ in c]
        self.fingerprints: list[list[str]] = []
        self.errors: list[str] = []
        self.scaled: list[list[float]] = [[] for _ in self.latencies]
        self.round_s: list[float] = []

    def run_round(self) -> None:
        clear_caches(self.pc)
        tracer = self.session.tracer
        clock = time.perf_counter
        prints = []
        j = 0
        before = slowdown()
        for index, requests in enumerate(self.cycles):
            self.session.state = {}
            for kind, params in requests:
                if tracer is not None:
                    tracer.current_request = j
                t0 = clock()
                try:
                    fingerprint = workloads.execute(self.session, kind, params)
                except Exception as exc:  # a failed request is counted, not fatal
                    fingerprint = None
                    self.errors.append(f"round {len(self.round_s)} cycle {index} {kind}: "
                                       f"{type(exc).__name__}: {exc}")
                self.latencies[j].append(clock() - t0)
                after = slowdown()
                self.scaled[j].append(self.latencies[j][-1] / (0.5 * (before + after)))
                before = after
                prints.append(repr(fingerprint))
                j += 1
        if self.fingerprints and prints != self.fingerprints[0]:
            self.errors.append(f"round {len(self.round_s)}: outputs differ from round 0")
        self.fingerprints.append(prints)
        self.round_s.append(math.fsum(lat[-1] for lat in self.latencies))

    def run_for(self, seconds: float, min_rounds: int) -> None:
        """Whole rounds until the next one would end after `seconds`."""
        start = time.perf_counter()
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            if (len(self.round_s) >= min_rounds
                    and elapsed + elapsed / len(self.round_s) > seconds):
                return

    @property
    def attempted(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    def typical(self, scaled: bool = True) -> list[float]:
        """Each request's median latency over the rounds, in seconds."""
        return [statistics.median(lat) for lat in (self.scaled if scaled else self.latencies)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between request types)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `values`.

    A weighted mean of the order statistics, with weights from a beta
    distribution centred on rank q(n + 1).  Unlike a single order statistic
    it does not jump when requests of different kinds swap places next to
    the quantile.
    """
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def run_untraced(pc, args, cycles: list) -> dict:
    warm = Pass(pc, cycles[:1])
    warm.run_round()
    measured = Pass(pc, cycles)
    measured.run_for(args.seconds, MIN_ROUNDS)
    lat = measured.typical()
    n = len(lat)
    tail_q = 100.0 * (n - BEYOND_TAIL) / n
    tail = percentile(lat, tail_q)
    metrics = {
        "requests_per_s": (n / math.fsum(lat), "1/s"),
        # over every latency of the run, each request once per round
        "latency_p50_ms": (1e3 * harrell_davis([v for x in measured.scaled for v in x], 0.5),
                           "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = warm.attempted + measured.attempted
    failed = len(warm.errors) + len(measured.errors)
    raw = measured.typical(scaled=False)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": (warm.errors + measured.errors)[:20],
        "metrics": metrics,
        "details": {
            "rounds": len(measured.round_s),
            "requests": n,
            "tail_percentile": round(tail_q, 2),
            "requests_beyond_tail": sum(1 for v in lat if v > tail),
            "unscaled_requests_per_s": n / math.fsum(raw),
            "unscaled_latency_p50_ms": 1e3 * harrell_davis(
                [v for x in measured.latencies for v in x], 0.5),
            "unscaled_latency_tail_ms": 1e3 * percentile(raw, tail_q),
            "failed_fraction": failed / attempted,
        },
    }


def layer_metrics(s: dict, tracer: tracing.Tracer, traced: Pass,
                  untraced: Pass) -> tuple[dict, dict]:
    """Per-request means of the traced round, and each layer's share of it."""
    n = len(traced.latencies)
    busy_s = traced.round_s[0]
    counts = tracer.counts

    def calls(name):
        return (s.get(name + ".calls", 0.0) / n, "count")

    def self_ms(*names):
        return (1e3 * sum(s.get(name + ".self_s", 0.0) for name in names) / n, "ms")

    def count(key):
        return (counts.get(key, 0) / n, "count")

    m = {}
    for name in ("numerics.integrate", "numerics.integrate_jacobi"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_ms"] = self_ms(name)
        m[name + ".refinements"] = count(name + ".refinements")
    m["distributions.pdf.calls"] = count("distributions.pdf.calls")
    m["distributions.pdf.points"] = count("distributions.pdf.points")
    for name in ("numerics.invert_monotone", "numerics.fd_derivative"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_ms"] = self_ms(name)
    m["risk.certainty_equivalent.calls"] = calls("risk.certainty_equivalent")
    m["risk.self_ms"] = self_ms("risk", "risk.certainty_equivalent")
    for key in ("scalar_calls", "array_calls", "points"):
        m[f"functions.eval.{key}"] = count(f"functions.eval.{key}")
    m["functions.eval.self_ms"] = self_ms(tracing.EVAL)
    for name in (tracing.EVAL_ON, "distributions.expect", "distributions.shifted_moment",
                 "convexity.certify"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_ms"] = self_ms(name)
    m["convexity.certify.grid_points"] = count("convexity.certify.grid_points")
    for name in ("mgf", "jensen", "hermite", "cli.main", "cli.run_problem"):
        m[name + ".self_ms"] = self_ms(name)
    m["cli.bytes_written"] = (traced.session.bytes_written / n, "bytes")
    # both at reference speed, so a change of host speed between them cancels
    m["trace.overhead"] = (math.fsum(traced.typical()) / math.fsum(untraced.typical()), "ratio")
    unattributed = busy_s - s["root_s"]
    m["trace.unattributed_ms"] = (1e3 * unattributed / n, "ms")

    shares = {}
    for layer in tracing.LAYERS:
        total = sum(v for k, v in s.items()
                    if k.endswith(".self_s") and k.split(".")[0] == layer)
        shares[layer] = total / busy_s
    shares["unattributed"] = unattributed / busy_s
    # the span groups that the bypass predictions name
    for group, names in tracing.GROUPS.items():
        shares[group] = sum(s.get(name + ".self_s", 0.0) for name in names) / busy_s
    return m, shares


def run_traced(pc, args, cycles: list) -> dict:
    warm = Pass(pc, cycles[:1])
    warm.run_round()
    untraced = Pass(pc, cycles)
    untraced.run_for(args.seconds / 2.0, 1)
    tracer = tracing.Tracer()
    traced = Pass(pc, cycles, tracer)
    tracer.install(pc)
    try:
        traced.run_round()
    finally:
        tracer.uninstall()
    mismatches = [i for i, (a, b) in enumerate(zip(untraced.fingerprints[0],
                                                   traced.fingerprints[0])) if a != b]
    errors = warm.errors + untraced.errors + traced.errors + [
        f"request {i}: traced output differs from untraced output" for i in mismatches]
    spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}.npz")
    tracer.save(spans_path)
    metrics, shares = layer_metrics(tracer.summary(), tracer, traced, untraced)
    return {
        "attempted": warm.attempted + untraced.attempted + traced.attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "metrics": metrics,
        "details": {
            "untraced_rounds": len(untraced.round_s),
            "requests": len(traced.latencies),
            "layer_share": shares,
            "spans": len(tracer.start),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "output_digest": _digest(traced.fingerprints[0]),
        },
    }


def _digest(fingerprints: list[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, generate the inputs and stop")
    args = parser.parse_args(argv)

    pc = import_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        cycles = [cycle(args.workload, args.seed, i, workdir)
                  for i in range(workloads.CYCLES[args.workload])]
        setup_s = time.perf_counter() - _STARTED
        setup_slowdown = statistics.median(slowdown() for _ in range(SETUP_CALIBRATIONS))
        if args.setup_only:
            result = {"setup_s": setup_s / setup_slowdown}
        elif args.trace:
            result = run_traced(pc, args, cycles)
        else:
            result = run_untraced(pc, args, cycles)
            result["setup_s"] = setup_s / setup_slowdown
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["fingerprint"] = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
