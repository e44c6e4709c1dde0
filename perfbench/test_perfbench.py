"""Tests of the benchmark itself: seeded inputs and a trace that repeats
exactly without changing what it measures.

Run with `python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import pconvex  # noqa: E402
import pconvex.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402

PLAIN = (dict, list, tuple, str, int, float, bool, type(None), np.ndarray)


def _plain(obj) -> bool:
    if isinstance(obj, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(_plain(v) for v in obj)
    return isinstance(obj, PLAIN)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_seed_deterministic(workload):
    first = workloads.input_digest(workload, 3, 2)
    assert workloads.input_digest(workload, 3, 2) == first
    assert workloads.input_digest(workload, 4, 2) != first
    assert workloads.input_digest(workload, 3, 3) != first
    for kind, params in workloads.generate(workload, 3, 0):
        assert kind in workloads.EXECUTORS
        assert _plain(params), f"{kind} input holds a non-data object"


def _requests(workload: str, workdir: str):
    """One cycle, cut to keep the test short; CLI cycles chain, so all stay."""
    requests = workloads.prepare_cycle(workloads.generate(workload, 5, 1), workdir)
    if workload == "cli-small":
        return requests
    if workload == "risk-inversion":
        # the passing certifications are the slow ones (about 1 s each)
        return [(k, p) for k, p in requests if not (k == "certify_risk" and p["holds"])]
    first = {}
    for kind, params in requests:
        first.setdefault(kind, (kind, params))
    return list(first.values())


def _run(requests, tracer=None):
    session = workloads.Session(pconvex, tracer)
    if tracer is not None:
        tracer.install(pconvex)
    try:
        fingerprints = []
        for i, (kind, params) in enumerate(requests):
            if tracer is not None:
                tracer.current_request = i
            fingerprints.append(repr(workloads.execute(session, kind, params)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return fingerprints, session.bytes_written


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_counts_repeat_and_do_not_change_results(workload, tmp_path):
    requests = _requests(workload, str(tmp_path))
    plain, plain_bytes = _run(requests)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        fingerprints, written = _run(requests, tracer)
        assert fingerprints == plain, "traced results differ from untraced results"
        assert written == plain_bytes
        calls = {k: v for k, v in tracer.summary().items() if k.endswith(".calls")}
        runs.append((dict(tracer.counts), calls, written, list(tracer.request)))
    assert runs[0] == runs[1]
    counts, calls, _, _ = runs[0]
    assert sum(calls.values()) > 0
    # a traced pass leaves the program as it found it
    assert pconvex.jensen.expect is pconvex.distributions.expect
    assert not hasattr(pconvex.distributions.expect, "__wrapped__")
    assert not hasattr(pconvex.functions.FunctionSpec.eval_on, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer()
    s = tracer.summary()
    assert s["outer.calls"] == s["inner.calls"] == 1.0
    a = tracer.arrays()
    total = a["end"][0] - a["start"][0]
    assert s["outer.self_s"] + s["inner.self_s"] == pytest.approx(total, rel=1e-9)
    assert a["parent"].tolist() == [-1, 0]
    assert s["root_s"] == pytest.approx(total)
