"""Span recorder for the traced benchmark run.

Tracing is done from outside the program: `Tracer.install()` replaces the
public functions of each measured layer, in every `pconvex` module namespace
that holds them, with a recorder that keeps one span per call in memory
(name, start, end, parent, request id).  `FunctionSpec.eval_on` is replaced
on the class.  Function evaluations are counted through wrapped copies of
the `FunctionSpec`s the benchmark passes in (`Tracer.spec`), and density
evaluations through wrapped copies of a random variable's pdf
(`Tracer.variable`).  No file of the program changes.

Self time of a span is its duration minus the part covered by its child
spans; children never overlap because the program is single-threaded here
(`PCONVEX_THREADS=1`).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute) of every public function it covers.
TRACED = {
    "numerics.integrate": [("numerics", "integrate")],
    "numerics.integrate_jacobi": [("numerics", "integrate_jacobi")],
    "numerics.invert_monotone": [("numerics", "invert_monotone")],
    "numerics.fd_derivative": [("numerics", "fd_derivative")],
    "distributions.expect": [("distributions", "expect")],
    "distributions.shifted_moment": [("distributions", "shifted_moment")],
    "convexity.certify": [("convexity", name) for name in (
        "certify_p_convex", "certify_p_concave", "certify_loss_class",
        "check_power_transform_convex", "check_ratio_monotone")],
    "jensen": [("jensen", name) for name in (
        "jensen_lower", "jensen_upper", "jensen_lower_decreasing")],
    "hermite": [("hermite", name) for name in (
        "hh_bounds", "fractional_hh_bounds", "fractional_mid_via_density",
        "rl_integral", "derivative_hh_bound", "taylor_hh", "abs_derivative",
        "gamma_coefficient")],
    "mgf": [("mgf", name) for name in (
        "mgf_lower", "mgf_upper", "am_gm_lower", "em_demo", "elbo_tight",
        "elbo_classical", "loglik_exact", "likelihood_instance",
        "generate_mixture_data")],
    "risk": [("risk", name) for name in (
        "certify_p_more_risk_averse", "falsify_p_more_risk_averse",
        "risk_measure")],
    "risk.certainty_equivalent": [("risk", "certainty_equivalent")],
    "cli.main": [("cli", "main")],
    "cli.run_problem": [("cli", "run_problem")],
}
EVAL = "functions.eval"
EVAL_ON = "functions.eval_on"
LAYERS = ("numerics", "functions", "distributions", "convexity", "jensen",
          "hermite", "mgf", "risk", "cli")
# Span groups that some workloads are predicted to bypass.
GROUPS = {
    "quadrature": ("numerics.integrate", "numerics.integrate_jacobi"),
    "inversion": ("numerics.invert_monotone", "numerics.fd_derivative", "risk",
                  "risk.certainty_equivalent"),
}


class Tracer:
    """Keeps spans and counters for one traced pass in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, name: str, fn, on_result=None):
        nid = self._intern(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, clock())
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _eval_wrapper(self, fn):
        nid = self._intern(EVAL)
        counts = self.counts
        clock = time.perf_counter

        def traced(x, *args, **kwargs):
            size = np.size(x)
            if np.ndim(x) == 0:
                counts[EVAL + ".scalar_calls"] += 1
            else:
                counts[EVAL + ".array_calls"] += 1
            counts[EVAL + ".points"] += size
            sid = self._open(nid)
            t0 = clock()
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close(sid, t0, clock())

        return traced

    def spec(self, f):
        """A copy of FunctionSpec f whose evaluations are counted and timed."""
        return dataclasses.replace(
            f, eval_fn=self._eval_wrapper(f.eval_fn),
            derivatives=tuple(self._eval_wrapper(d) for d in f.derivatives))

    def variable(self, X):
        """A copy of RandomVariable X whose density evaluations are counted."""
        if X.pdf is None:
            return X
        pdf = X.pdf
        counts = self.counts

        def counted(x):
            counts["distributions.pdf.calls"] += 1
            counts["distributions.pdf.points"] += np.size(x)
            return pdf(x)

        return dataclasses.replace(X, pdf=counted)

    # -- installation --------------------------------------------------------

    def _count_refinements(self, name: str):
        def record(result) -> None:
            self.counts[name + ".refinements"] += int(result.refinements)
        return record

    def _count_grid(self, cert) -> None:
        self.counts["convexity.certify.grid_points"] += int(cert.grid_size) + 1

    def install(self, package) -> None:
        """Swap every traced function in every loaded module of `package`."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        replacement: dict[int, object] = {}
        for name, targets in TRACED.items():
            on_result = None
            if name in ("numerics.integrate", "numerics.integrate_jacobi"):
                on_result = self._count_refinements(name)
            elif name == "convexity.certify":
                on_result = self._count_grid
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"{prefix}.{mod_name}"], attr)
                replacement[id(original)] = self.wrap(name, original, on_result)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped)
        spec_cls = sys.modules[f"{prefix}.functions"].FunctionSpec
        self._saved.append((spec_cls, "eval_on", spec_cls.eval_on))
        spec_cls.eval_on = self.wrap(EVAL_ON, spec_cls.eval_on)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one compressed .npz file."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Total calls and self seconds per span name, plus root coverage."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name + ".calls"] = float(np.count_nonzero(mask))
            out[name + ".self_s"] = float(np.sum(self_time[mask]))
        out["root_s"] = float(np.sum(dur[~has_parent]))
        return out
