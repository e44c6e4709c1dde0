"""Workload input generators, request executors and correctness checks.

A run of a workload measures a fixed number of cycles (`CYCLES`); cycle i is
generated from the seed with numpy alone (see `Draws`), so the same seed
gives the same inputs and the program under test only ever receives the
generated descriptors, arrays and argument lists.  Each cycle has a fixed
list of request slots (the request *shapes* and sizes never change with the
seed, only the drawn parameters do), and the scalar parameters of a slot are
stratified over the run's cycles, so a seed changes the inputs without
changing how much work a run holds.

A request is what a user would run: certify, then bound, then compare with
the oracle.  Every executor raises `CheckFailed` when an output is wrong and
returns a fingerprint of its outputs (used to show that tracing does not
change results).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("cli-small", "large-samples", "density-quadrature", "risk-inversion")
# Distinct cycles a run measures.  Fixed per workload, so that a seed changes
# the inputs but not the number of requests the percentiles are taken over.
CYCLES = {"cli-small": 4, "large-samples": 4, "density-quadrature": 7,
          "risk-inversion": 2}
# Marks the entropy of the stratum permutations apart from that of a cycle.
_STRATA = 0x5354

# Grid of the risk-aversion certifications: the 512-point default costs
# 2-3 s per pair, too slow for enough rounds in a 20 s run.
RISK_GRID = 256
SANDWICH_TOL = 1e-8

# JACOBI_NOTE: inputs integrated by Gauss-Jacobi (fractional-hh densities,
# fractional Hermite-Hadamard, Riemann-Liouville) keep alpha >= 0.7 and the
# interval within [0, 2].  Below that, integrate_jacobi's absolute tolerance
# (1e-10) is smaller than the rounding error of the Gauss-Jacobi weights,
# which grows with the node count, so node doubling never converges and runs
# to 64 * 2^12 nodes: one Riemann-Liouville integral of x^4 at alpha = 0.31
# on [0, 2.49] ran for minutes.  That is a defect of the program.


class CheckFailed(Exception):
    """A request finished but its output is wrong."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def cycle_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    entropy = [int(seed), WORKLOADS.index(workload), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


class Draws:
    """The random draws of cycle `index` of a workload's run.

    Scalar `uniform` and `integers` draws are stratified over the run's
    `CYCLES` cycles: the k-th scalar draw of each cycle falls in its own
    1/CYCLES slice of the range, and a permutation seeded by (seed, k) says
    which cycle gets which slice.  A seed thus changes every value, but every
    run spreads its values alike over their ranges, so that one seed's run
    holds no more costly inputs than another's.  Array draws and all other
    methods pass through to the cycle's own generator.
    """

    def __init__(self, workload: str, seed: int, index: int):
        self.rng = cycle_rng(workload, seed, index)
        self.cycles = CYCLES[workload]
        self.stratum_of = int(index) % self.cycles
        self.key = [int(seed), WORKLOADS.index(workload), _STRATA]
        self.k = 0

    def _unit(self) -> float:
        perm = np.random.default_rng(self.key + [self.k]).permutation(self.cycles)
        self.k += 1
        return (int(perm[self.stratum_of]) + self.rng.random()) / self.cycles

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if size is not None:
            return self.rng.uniform(low, high, size)
        return float(low + (high - low) * self._unit())

    def integers(self, low: int, high: int, size=None):
        if size is not None:
            return self.rng.integers(low, high, size)
        return min(int(low + (high - low) * self._unit()), high - 1)

    def __getattr__(self, name):
        return getattr(self.rng, name)


# ---------------------------------------------------------------------------
# Descriptor helpers (plain JSON data)
# ---------------------------------------------------------------------------


def power(q: float, b: float) -> dict:
    return {"family": "shifted-power", "params": {"q": float(q), "a": 0.0},
            "domain": [0.0, float(b)]}


def log_affine(b: float, lo: float) -> dict:
    return {"family": "log-affine", "params": {"b": float(b)},
            "domain": [float(lo), float(b)]}


def exponential(s: float, b: float) -> dict:
    return {"family": "exponential", "params": {"s": float(s)},
            "domain": [0.0, float(b)]}


def lottery(rng: Draws, lo: float, hi: float) -> dict:
    k = int(rng.integers(2, 6))
    atoms = np.sort(rng.uniform(lo, hi, size=k))
    probs = rng.dirichlet(np.ones(k))
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return {"kind": "discrete", "atoms": atoms.tolist(), "probs": probs.tolist(),
            "support": [float(lo), float(hi)]}


def density(family: str, rng: Draws, lo: float, hi: float) -> dict:
    if family == "uniform":
        width = hi - lo
        a = lo + rng.uniform(0.0, 0.3) * width
        b = hi - rng.uniform(0.0, 0.3) * width
        return {"kind": "density", "family": "uniform", "params": {"a": a, "b": b},
                "support": [a, b]}
    if family == "beta-like":
        return {"kind": "density", "family": "beta-like",
                "params": {"c": rng.uniform(2.0, 3.5), "d": rng.uniform(2.0, 3.5)},
                "support": [lo, hi]}
    return {"kind": "density", "family": "fractional-hh",
            "params": {"alpha": rng.uniform(0.7, 2.5)}, "support": [lo, hi]}


def pnorm(desc: dict, order: int) -> float:
    """Independent closed form ||X||_order of a discrete lottery."""
    atoms = np.asarray(desc["atoms"])
    probs = np.asarray(desc["probs"])
    return math.fsum(probs * atoms ** order) ** (1.0 / order)


# ---------------------------------------------------------------------------
# Generators: one cycle of (kind, params) requests
# ---------------------------------------------------------------------------


def _gen_large_samples(rng: Draws) -> list[tuple[str, dict]]:
    out = []

    def sample(n, lo, hi):
        return lo + (hi - lo) * rng.beta(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), n)

    for kind, n in (("jensen_lower", 2000), ("jensen_lower", 5000),
                    ("jensen_lower", 8000), ("jensen_upper", 3000),
                    ("jensen_upper", 10000)):
        b = rng.uniform(1.0, 3.0)
        p = int(rng.integers(1, 3))
        out.append((kind, {"f": power(rng.uniform(p + 1.0, p + 2.5), b), "p": p,
                           "interval": [0.0, b], "values": sample(n, 0.0, b)}))
    for n in (1500, 6000):
        b = rng.uniform(1.0, 3.0)
        lo = 0.05 * b
        out.append(("jensen_lower_decreasing",
                    {"f": log_affine(b, lo), "p": 1, "interval": [lo, b],
                     "values": sample(n, lo, b)}))
    for kind, n in (("mgf_lower", 4000), ("mgf_lower", 9000),
                    ("mgf_upper", 2500), ("mgf_upper", 7000)):
        b = rng.uniform(0.5, 2.0)
        out.append((kind, {"s": rng.uniform(0.5, 2.0), "p": int(rng.integers(2, 4)),
                           "values": sample(n, 0.0, b)}))
    for n in (1000, 5000):
        out.append(("am_gm_lower", {"p": int(rng.integers(1, 4)),
                                    "values": sample(n, 1.0, rng.uniform(2.0, 5.0))}))
    for rows, iters in ((200, 4), (400, 3)):
        weight = rng.uniform(0.3, 0.7)
        means = rng.uniform(0.1, 0.9, size=(2, 20))
        comp = rng.random(rows) < weight
        data = (rng.random((rows, 20)) < np.where(comp[:, None], means[0], means[1]))
        out.append(("em_demo", {"data": data.astype(float), "iters": iters,
                                "seed": int(rng.integers(0, 2 ** 31))}))
    return out


def _gen_density(rng: Draws) -> list[tuple[str, dict]]:
    out = []
    for kind, family in (("jensen_lower", "uniform"), ("jensen_lower", "beta-like"),
                         ("jensen_lower", "fractional-hh"), ("jensen_upper", "uniform"),
                         ("jensen_upper", "beta-like"), ("jensen_upper", "fractional-hh")):
        b = rng.uniform(1.0, 2.0)
        p = int(rng.integers(1, 3))
        out.append((kind, {"f": power(rng.uniform(p + 1.0, p + 2.0), b), "p": p,
                           "interval": [0.0, b], "X": density(family, rng, 0.0, b)}))
    for family in ("uniform", "beta-like"):
        b = rng.uniform(1.0, 2.0)
        lo = 0.1 * b
        out.append(("jensen_lower_decreasing",
                    {"f": log_affine(b, lo), "p": 1, "interval": [lo, b],
                     "X": density(family, rng, lo, b)}))
    for kind, family in (("mgf_lower", "beta-like"), ("mgf_lower", "fractional-hh"),
                         ("mgf_upper", "uniform"), ("mgf_upper", "beta-like")):
        b = rng.uniform(0.5, 2.0)
        out.append((kind, {"s": rng.uniform(0.5, 1.5), "p": int(rng.integers(2, 4)),
                           "X": density(family, rng, 0.0, b)}))
    b = rng.uniform(1.0, 2.0)
    p = int(rng.integers(1, 4))
    out.append(("hh_bounds", {"f": power(rng.uniform(p + 0.5, p + 2.0), b), "p": p,
                              "interval": [0.0, b]}))
    b = rng.uniform(1.0, 2.0)
    p = int(rng.integers(1, 4))
    out.append(("fractional_hh_bounds",
                {"f": power(rng.uniform(p + 0.5, p + 2.0), b), "p": p,
                 "interval": [0.0, b], "alpha": rng.uniform(0.7, 2.5)}))
    b = rng.uniform(1.0, 2.0)
    out.append(("rl_integral", {"f": power(rng.uniform(1.0, 4.0), b),
                                "alpha": rng.uniform(0.7, 2.5),
                                "x": rng.uniform(0.5, 1.0) * b}))
    return out


def _gen_risk(rng: Draws) -> list[tuple[str, dict]]:
    l4, l2 = power(4.0, 50.0), power(2.0, 50.0)
    n = rng.uniform(1.5, 2.5)
    passing = {"l": power(n * rng.uniform(2.25, 3.0), 50.0), "f": power(n, 50.0),
               "p": 2, "horizon": rng.uniform(5.0, 15.0)}
    n = rng.uniform(2.5, 4.0)
    failing = {"l": power(n * rng.uniform(0.4, 0.7), 50.0), "f": power(n, 50.0),
               "p": 1, "horizon": rng.uniform(5.0, 15.0)}
    criterion6 = {"l": l4, "f": l2, "p": 2, "horizon": 10.0}
    criterion6_back = {"l": l2, "f": l4, "p": 1, "horizon": 10.0}
    out = [
        ("certify_risk", dict(criterion6, holds=True)),
        ("certify_risk", dict(criterion6_back, holds=False, witness="c6")),
        ("certify_risk", dict(passing, holds=True)),
        ("certify_risk", dict(failing, holds=False, witness="random")),
    ]
    for pair in (criterion6, passing):
        out.append(("falsify", dict(pair, trials=200, seed=int(rng.integers(0, 2 ** 31)))))
    for pair, witness in ((criterion6_back, "c6"), (failing, "random")) * 2:
        out.append(("falsify", dict(pair, trials=300, seed=int(rng.integers(0, 2 ** 31)),
                                    directed=witness)))
    for _ in range(5):
        X = lottery(rng, 0.05, 5.0)
        for p in (1, 2, 3):
            out.append(("risk_measure", {"X": X, "p": p}))
    return out


def _gen_cli(rng: Draws) -> list[tuple[str, dict]]:
    """25 CLI invocations; `{name}` in argv is a file of this cycle."""
    def b_():
        return float(rng.uniform(1.0, 3.0))

    out = []

    def add(argv, expect_exit=0, check_kind="none", files=None, outputs=("out",), **extra):
        out.append(("cli", {"argv": argv, "exit": expect_exit, "check": check_kind,
                            "files": files or {}, "outputs": list(outputs), **extra}))

    p = int(rng.integers(1, 3))
    b = b_()
    add(["certify", "-f", "{f}", "--class", "I", "-p", str(p), "-a", "0", "-b", repr(b),
         "--out", "{out}"], check_kind="verdict", verdict="pass",
        files={"f": power(rng.uniform(p + 1.0, p + 3.0), b)})
    b = b_()
    add(["certify", "-f", "{f}", "--class", "D", "-p", "1", "-a", repr(0.1 * b),
         "-b", repr(b), "--out", "{out}"], check_kind="verdict", verdict="pass",
        files={"f": log_affine(b, 0.05 * b)})
    p = int(rng.integers(1, 3))
    add(["certify", "-f", "{f}", "--class", "Lp", "-p", str(p), "--horizon",
         repr(rng.uniform(5.0, 15.0)), "--out", "{out}"], check_kind="verdict",
        verdict="pass", files={"f": power(rng.uniform(p + 1.0, p + 2.5), 50.0)})
    b = b_()
    add(["certify", "-f", "{f}", "--class", "I", "-p", "1", "-a", "0", "-b", repr(b),
         "--out", "{out}"], check_kind="verdict", verdict="fail",
        files={"f": exponential(rng.uniform(0.5, 2.0), b)})
    for kind in ("lower", "upper"):
        p = int(rng.integers(1, 3))
        b = b_()
        dump = kind == "lower"
        add(["bound", "-f", "{f}", "-d", "{d}", "-p", str(p), "--kind", kind, "-a", "0",
             "-b", repr(b), "--out", "{out}"] + (["--dump-canonical", "{dump}"] if dump else []),
            check_kind="bound", files={"f": power(rng.uniform(p + 1.0, p + 2.5), b),
                                       "d": lottery(rng, 0.0, b)},
            outputs=("out", "dump") if dump else ("out",), keep="bound" if dump else None)
    b = b_()
    add(["bound", "-f", "{f}", "-d", "{d}", "-p", "1", "--kind", "lower-decreasing",
         "-a", repr(0.1 * b), "-b", repr(b), "--out", "{out}"], check_kind="bound",
        files={"f": log_affine(b, 0.1 * b), "d": lottery(rng, 0.1 * b, b)})
    b = b_()
    add(["bound", "-f", "{f}", "-d", "{d}", "-p", "1", "--kind", "lower", "-a", "0",
         "-b", repr(b), "--out", "{out}"], expect_exit=2, outputs=(),
        files={"f": exponential(rng.uniform(0.5, 2.0), b), "d": lottery(rng, 0.0, b)})
    X = lottery(rng, 0.05, 5.0)
    p = int(rng.integers(1, 4))
    add(["risk", "measure", "-d", "{d}", "-p", str(p), "--out", "{out}"],
        check_kind="risk_measure", files={"d": X}, p=p, closed_form=pnorm(X, p + 1))
    add(["mgf", "-d", "{d}", "-s", repr(rng.uniform(0.5, 2.0)), "-p",
         str(int(rng.integers(1, 4))), "--out", "{out}"], check_kind="gap_columns",
        files={"d": lottery(rng, 0.0, b_())})
    add(["amgm", "-d", "{d}", "-p", str(int(rng.integers(1, 4))), "--out", "{out}"],
        check_kind="gap_columns", files={"d": lottery(rng, 1.0, rng.uniform(2.0, 5.0))})
    for dump in (False, True):
        p = int(rng.integers(1, 4))
        b = b_()
        add(["hh", "-f", "{f}", "-p", str(p), "-a", "0", "-b", repr(b), "--out", "{out}"]
            + (["--dump-canonical", "{dump}"] if dump else []), check_kind="hh",
            files={"f": power(rng.uniform(p + 0.5, p + 2.0), b)},
            outputs=("out", "dump") if dump else ("out",), keep="hh" if dump else None)
    b = b_()
    add(["hh", "-f", "{f}", "-p", "2", "-a", "0", "-b", repr(b), "--out", "{out}"],
        expect_exit=2, outputs=(), files={"f": exponential(rng.uniform(0.5, 2.0), b)})
    p = int(rng.integers(1, 4))
    b = rng.uniform(1.0, 2.0)  # Gauss-Jacobi path: see JACOBI_NOTE
    add(["hh-fractional", "-f", "{f}", "-p", str(p), "--alpha", repr(rng.uniform(0.7, 2.5)),
         "-a", "0", "-b", repr(b), "--out", "{out}"], check_kind="hh",
        files={"f": power(rng.uniform(p + 0.5, p + 2.0), b)})
    b = b_()
    add(["hh-fractional", "-f", "{f}", "-p", "2", "--alpha", repr(rng.uniform(0.7, 2.5)),
         "-a", "0", "-b", repr(b), "--out", "{out}"], expect_exit=2, outputs=(),
        files={"f": exponential(rng.uniform(0.5, 2.0), b)})
    b = rng.uniform(1.0, 2.0)
    q, alpha, x = rng.uniform(1.0, 4.0), rng.uniform(0.7, 2.5), rng.uniform(0.5, 1.0) * b
    add(["rl", "-f", "{f}", "--alpha", repr(alpha), "--side", "left", "-x", repr(x),
         "-a", "0", "-b", repr(b), "--out", "{out}"], check_kind="rl",
        files={"f": power(q, b)}, expected=rl_closed_form(q, alpha, x))
    add(["em-demo", "--samples", "40", "--dims", "5", "--iters", "4", "--seed",
         str(int(rng.integers(0, 2 ** 31))), "--out", "{out}"], check_kind="em")
    p_max = int(rng.integers(3, 5))
    add(["sweep", "--suite", "hh", "-f", "{f}", "--p-max", str(p_max), "--out", "{out}",
         "--plot", "{plot}"], check_kind="gap_columns", outputs=("out", "plot"),
        files={"f": power(rng.uniform(p_max + 1.0, p_max + 3.0), 1.0)})
    b = b_()
    p_max = int(rng.integers(2, 4))
    add(["sweep", "--suite", "jensen", "-f", "{f}", "-d", "{d}", "--p-max", str(p_max),
         "--out", "{out}"], check_kind="gap_columns",
        files={"f": power(rng.uniform(p_max + 1.0, p_max + 3.0), b),
               "d": lottery(rng, 0.0, b)})
    add(["sweep", "--suite", "mgf", "-d", "{d}", "-p", str(int(rng.integers(1, 4))),
         "--out", "{out}"], check_kind="gap_columns", files={"d": lottery(rng, 0.0, b_())})
    for kept in ("bound", "hh"):
        add(["run", "{dump:%s}" % kept, "--out", "{out}"], check_kind="same_bytes",
            same_as=kept)
    b = b_()
    add(["bound", "-f", "{f}", "-d", "{d}", "-p", "1", "--kind", "upper", "-a", "0",
         "-b", repr(b), "--out", "{out}"], check_kind="bound",
        files={"f": power(rng.uniform(2.0, 3.5), b), "d": density("uniform", rng, 0.0, b)})
    b = b_()
    add(["certify", "-f", "{f}", "--class", "D", "-p", "2", "-a", repr(0.1 * b),
         "-b", repr(b), "--out", "{out}"], check_kind="verdict", verdict="fail",
        files={"f": log_affine(b, 0.05 * b)})
    return out


GENERATORS = {
    "cli-small": _gen_cli,
    "large-samples": _gen_large_samples,
    "density-quadrature": _gen_density,
    "risk-inversion": _gen_risk,
}


def generate(workload: str, seed: int, index: int) -> list[tuple[str, dict]]:
    return GENERATORS[workload](Draws(workload, seed, index))


def rl_closed_form(q: float, alpha: float, x: float) -> float:
    """Left Riemann-Liouville integral of t^q from 0 to x."""
    return math.exp(math.lgamma(q + 1.0) - math.lgamma(q + alpha + 1.0)) * x ** (q + alpha)


def input_digest(workload: str, seed: int, cycles: int) -> str:
    """sha256 over the generated inputs of the first `cycles` cycles."""
    h = hashlib.sha256()

    def encode(obj):
        if isinstance(obj, np.ndarray):
            return {"ndarray": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
                    "shape": list(obj.shape)}
        raise TypeError(type(obj))

    for i in range(cycles):
        for kind, params in generate(workload, seed, i):
            h.update(json.dumps([kind, params], sort_keys=True, default=encode).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Session:
    """What one pass of requests shares: the API, the tracer, chained state.

    `spec` and `variable` hand the program traced copies of its inputs when
    a tracer is installed, and the inputs unchanged otherwise.
    """

    def __init__(self, pc, tracer=None):
        self.pc = pc
        self.tracer = tracer
        self.state: dict = {}
        self.bytes_written = 0

    def spec(self, desc: dict):
        f = self.pc.function_from_descriptor(desc)
        return self.tracer.spec(f) if self.tracer else f

    def variable(self, X):
        return self.tracer.variable(X) if self.tracer else X


def prepare_cycle(requests: list[tuple[str, dict]], cycle_dir: str) -> list[tuple[str, dict]]:
    """Write a CLI cycle's descriptor files and resolve the argv paths."""
    prepared = []
    for slot, (kind, params) in enumerate(requests):
        if kind != "cli":
            prepared.append((kind, params))
            continue
        os.makedirs(cycle_dir, exist_ok=True)
        paths = {}
        for name, desc in params["files"].items():
            path = os.path.join(cycle_dir, f"{slot:02d}-{name}.json")
            with open(path, "w") as fh:
                json.dump(desc, fh)
            paths[name] = path
        for name in ("out", "dump", "plot"):
            paths[name] = os.path.join(cycle_dir, f"{slot:02d}.{name}")
        prepared.append((kind, dict(params, paths=paths)))
    # `run` replays the canonical file dumped earlier in the same cycle.
    kept = {params["keep"]: params["paths"] for kind, params in prepared
            if kind == "cli" and params.get("keep")}
    for kind, params in prepared:
        if kind == "cli":
            for name, src in kept.items():
                params["paths"][f"dump:{name}"] = src["dump"]
    return prepared


def _bound(session: Session, kind: str, params: dict):
    pc = session.pc
    f = session.spec(params["f"])
    a, b = params["interval"]
    if "values" in params:
        X = pc.from_sample(params["values"], (a, b))
    else:
        X = session.variable(pc.distribution_from_descriptor(params["X"]))
    if kind == "jensen_lower_decreasing":
        cert = pc.certify_p_concave(f, params["p"], a, b)
    else:
        cert = pc.certify_p_convex(f, params["p"], a, b)
    check(cert.passed, f"{kind}: certificate failed: {cert.witness}")
    rep = getattr(pc, kind)(f, cert, X)
    tol = SANDWICH_TOL + rep.oracle_error + rep.value_error
    check(rep.gap_to_oracle >= -tol,
          f"{kind}: value {rep.value!r} outside oracle {rep.oracle!r} (tol {tol:.2e})")
    return (rep.value, rep.oracle, rep.oracle_error, rep.classical, rep.value_error)


def _mgf(session: Session, kind: str, params: dict):
    pc = session.pc
    if "values" in params:
        X = pc.from_sample(params["values"])
    else:
        X = session.variable(pc.distribution_from_descriptor(params["X"]))
    rep = getattr(pc, kind)(X, params["s"], params["p"])
    tol = SANDWICH_TOL * max(1.0, rep.exact) + rep.exact_error
    if kind == "mgf_lower":
        check(rep.lower <= rep.exact + tol, f"mgf_lower {rep.lower!r} > exact {rep.exact!r}")
        return (rep.lower, rep.exact, rep.exact_error) + rep.moments_used
    check(rep.upper >= rep.exact - tol, f"mgf_upper {rep.upper!r} < exact {rep.exact!r}")
    return (rep.upper, rep.exact, rep.exact_error) + rep.moments_used


def _am_gm(session: Session, kind: str, params: dict):
    values = params["values"]
    value = session.pc.am_gm_lower(session.pc.from_sample(values), params["p"])
    mean = math.fsum(values.tolist()) / len(values)
    check(value <= mean * (1.0 + SANDWICH_TOL), f"am_gm_lower {value!r} > mean {mean!r}")
    return (value,)


def _check_em_rows(rows) -> None:
    for it, loglik, classical, tight in rows:
        tol = SANDWICH_TOL * max(1.0, abs(loglik))
        check(classical <= tight + tol and tight <= loglik + tol,
              f"EM row {it}: chain classical {classical!r} <= tight {tight!r} "
              f"<= loglik {loglik!r} broken")
    logliks = [r[1] for r in rows]
    check(all(b >= a - SANDWICH_TOL * max(1.0, abs(a)) for a, b in zip(logliks, logliks[1:])),
          f"EM log-likelihood not monotone: {logliks}")


def _em(session: Session, kind: str, params: dict):
    trace = session.pc.em_demo(params["data"], params["iters"], params["seed"])
    _check_em_rows(trace.rows)
    return tuple(v for row in trace.rows for v in row)


def _check_hh(lower: float, mid: float, upper: float, err: float, what: str) -> None:
    tol = SANDWICH_TOL * max(1.0, abs(mid)) + err
    check(lower <= mid + tol and mid <= upper + tol,
          f"{what}: lower {lower!r} <= mid {mid!r} <= upper {upper!r} broken")


def _hh(session: Session, kind: str, params: dict):
    pc = session.pc
    f = session.spec(params["f"])
    a, b = params["interval"]
    p = params["p"]
    cert = pc.certify_p_convex(f, p - 1, a, b)
    check(cert.passed, f"{kind}: certificate failed: {cert.witness}")
    if kind == "hh_bounds":
        rep = pc.hh_bounds(f, cert, p)
        _check_hh(rep.lower, rep.mid, rep.upper, rep.mid_error, kind)
        return (rep.lower, rep.mid, rep.upper, rep.mid_error)
    rep = pc.fractional_hh_bounds(f, cert, p, params["alpha"])
    _check_hh(rep.lower, rep.mid, rep.upper, 0.0, kind)
    mid = pc.fractional_mid_via_density(f, a, b, params["alpha"])
    check(abs(mid - rep.mid) <= 1e-7 * max(1.0, abs(mid)),
          f"fractional mid routes disagree: {rep.mid!r} vs {mid!r}")
    return (rep.lower, rep.mid, rep.upper, mid)


def _rl(session: Session, kind: str, params: dict):
    f = session.spec(params["f"])
    q = params["f"]["params"]["q"]
    value = session.pc.rl_integral(f, params["alpha"], "left", params["x"])
    expected = rl_closed_form(q, params["alpha"], params["x"])
    check(abs(value - expected) <= 1e-8 * max(1.0, abs(expected)),
          f"rl_integral {value!r} != closed form {expected!r}")
    return (value,)


def _certify_risk(session: Session, kind: str, params: dict):
    pc = session.pc
    comp = pc.certify_p_more_risk_averse(session.spec(params["l"]), session.spec(params["f"]),
                                         params["p"], params["horizon"], grid_size=RISK_GRID)
    check(comp.holds == params["holds"],
          f"risk verdict {comp.holds} != expected {params['holds']}: "
          f"{comp.certificate.witness}")
    if "witness" in params:
        session.state[params["witness"]] = comp.certificate.witness.point
    return (comp.holds, comp.certificate.slack_used) + tuple(comp.certificate.margins.values())


def _falsify(session: Session, kind: str, params: dict):
    directed = None
    if "directed" in params:
        directed = session.state[params["directed"]]
    hit = session.pc.falsify_p_more_risk_averse(
        session.spec(params["l"]), session.spec(params["f"]), params["p"],
        params["trials"], params["seed"], params["horizon"], directed_from=directed)
    if directed is None:
        check(hit is None, f"falsifier found a violation of a member pair: {hit}")
        return (None,)
    check(hit is not None and hit.margin > 0.0, "directed falsifier found no violation")
    return (hit.threshold, hit.margin) + hit.lottery.atoms + hit.lottery.probs


def _risk_measure(session: Session, kind: str, params: dict):
    pc = session.pc
    p = params["p"]
    rep = pc.risk_measure(pc.distribution_from_descriptor(params["X"]), p)
    cf = pnorm(params["X"], p + 1)
    check(abs(rep.closed_form - cf) <= 1e-12 * cf,
          f"risk closed form {rep.closed_form!r} != ||X||_{p + 1} = {cf!r}")
    _check_risk_measure(rep.closed_form, rep.sweep_infimum, rep.achiever, p)
    return (rep.closed_form, rep.sweep_infimum, rep.achiever)


def _check_risk_measure(closed_form: float, infimum: float, achiever: str, p: int) -> None:
    check(abs(infimum - closed_form) <= 1e-12 * max(closed_form, 1e-30),
          f"sweep infimum {infimum!r} != closed form {closed_form!r}")
    check(achiever == f"x^{p + 1}", f"achiever {achiever!r} != x^{p + 1}")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli(session: Session, kind: str, params: dict):
    paths = params["paths"]
    argv = [paths[tok[1:-1]] if tok.startswith("{") else tok for tok in params["argv"]]
    with contextlib.redirect_stderr(io.StringIO()):
        code = session.pc.cli.main(argv)
    check(code == params["exit"], f"{argv[0]}: exit {code}, expected {params['exit']}")
    artifacts = {}
    for name in params["outputs"]:
        with open(paths[name], "rb") as fh:
            artifacts[name] = fh.read()
        session.bytes_written += len(artifacts[name])
    what = params["check"]
    out = artifacts.get("out")
    if what == "verdict":
        verdict = json.loads(out)["verdict"]
        check(verdict == params["verdict"], f"certify verdict {verdict} != {params['verdict']}")
    elif what == "bound":
        for row in _read_csv(paths["out"]):
            check(float(row["gap_to_oracle"]) >= -SANDWICH_TOL,
                  f"bound row outside oracle: {row}")
    elif what == "gap_columns":
        for row in _read_csv(paths["out"]):
            for col, cell in row.items():
                if col.endswith("gap"):
                    check(float(cell) >= -SANDWICH_TOL, f"negative {col} in {row}")
    elif what == "hh":
        for row in _read_csv(paths["out"]):
            _check_hh(float(row["lower"]), float(row["mid"]), float(row["upper"]), 0.0, "hh")
    elif what == "risk_measure":
        rep = json.loads(out)
        check(abs(rep["closed_form"] - params["closed_form"]) <= 1e-12 * params["closed_form"],
              f"risk closed form {rep['closed_form']!r} != {params['closed_form']!r}")
        _check_risk_measure(rep["closed_form"], rep["sweep_infimum"], rep["achiever"],
                            params["p"])
    elif what == "rl":
        value = float(_read_csv(paths["out"])[0]["value"])
        check(abs(value - params["expected"]) <= 1e-8 * max(1.0, abs(params["expected"])),
              f"rl {value!r} != closed form {params['expected']!r}")
    elif what == "em":
        _check_em_rows([tuple(float(v) for v in row.values())
                        for row in _read_csv(paths["out"])])
    elif what == "same_bytes":
        check(out == session.state[params["same_as"]],
              f"replayed {params['same_as']} artifact differs from the original")
    if params.get("keep"):
        session.state[params["keep"]] = out
    return tuple(hashlib.sha256(artifacts[n]).hexdigest() for n in sorted(artifacts))


EXECUTORS = {
    "jensen_lower": _bound,
    "jensen_upper": _bound,
    "jensen_lower_decreasing": _bound,
    "mgf_lower": _mgf,
    "mgf_upper": _mgf,
    "am_gm_lower": _am_gm,
    "em_demo": _em,
    "hh_bounds": _hh,
    "fractional_hh_bounds": _hh,
    "rl_integral": _rl,
    "certify_risk": _certify_risk,
    "falsify": _falsify,
    "risk_measure": _risk_measure,
    "cli": _cli,
}


def execute(session: Session, kind: str, params: dict):
    return EXECUTORS[kind](session, kind, params)
