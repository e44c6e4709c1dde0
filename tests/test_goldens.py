"""Goldens that pin the command line and the certificate producers.

For each CLI task: the canonical problem file written by --dump-canonical
(byte for byte) and the artifact its replay produces (numerically, 1e-12
relative).  For each subcommand: every flag with its dest, default, choices
and required.  For each certificate producer: the certificate dict of a
passing and a failing input.

The golden file is regenerated by running this module as a script:

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pconvex import cli
from pconvex.convexity import (
    certificate_to_dict,
    certify_loss_class,
    certify_p_concave,
    certify_p_convex,
    check_power_transform_convex,
    check_ratio_monotone,
)
from pconvex.functions import FunctionSpec, Jet, log_affine, polynomial, shifted_power

GOLDEN_PATH = Path(__file__).with_name("goldens") / "refactor.json"

_CUBE = {"family": "shifted-power", "params": {"q": 3.0, "a": 0.0}, "domain": [0.0, 1.0]}
_QUARTIC = {"family": "shifted-power", "params": {"q": 4.0, "a": 0.0}, "domain": [0.0, 50.0]}
_SQUARE = {"family": "shifted-power", "params": {"q": 2.0, "a": 0.0}, "domain": [0.0, 50.0]}
_COIN = {"kind": "discrete", "atoms": [0.0, 1.0], "probs": [0.5, 0.5]}
_SPREAD = {"kind": "discrete", "atoms": [1.0, 4.0], "probs": [0.5, 0.5]}

_INPUTS = {"cube.json": _CUBE, "quartic.json": _QUARTIC, "square.json": _SQUARE,
           "coin.json": _COIN, "spread.json": _SPREAD}

# One invocation per task; file arguments name the descriptors above.
TASK_ARGV = {
    "certify": ["certify", "-f", "cube.json", "--class", "I", "-p", "1",
                "-a", "0", "-b", "1"],
    "bound": ["bound", "-f", "cube.json", "-d", "coin.json", "-p", "1"],
    "risk-measure": ["risk", "measure", "-d", "coin.json", "-p", "1"],
    "risk-compare": ["risk", "compare", "-f", "quartic.json", "--baseline",
                     "square.json", "-p", "2", "--trials", "20", "--seed", "7"],
    "mgf": ["mgf", "-d", "coin.json", "-s", "1.0", "-p", "2"],
    "amgm": ["amgm", "-d", "spread.json", "-p", "1"],
    "em-demo": ["em-demo", "--samples", "20", "--dims", "3", "--iters", "3",
                "--seed", "3"],
    "hh": ["hh", "-f", "cube.json", "-p", "2"],
    "hh-fractional": ["hh-fractional", "-f", "cube.json", "-p", "2", "--alpha", "0.5"],
    "rl": ["rl", "-f", "cube.json", "--alpha", "0.5", "-x", "1.0"],
    "sweep": ["sweep", "--suite", "hh", "-f", "cube.json", "--p-max", "3"],
}


def _run_task(argv: list[str], workdir: Path) -> dict:
    """Run one task directly (dumping its canonical file), then replay it."""
    for name, payload in _INPUTS.items():
        (workdir / name).write_text(json.dumps(payload))
    argv = [str(workdir / a) if a in _INPUTS else a for a in argv]
    canon, direct, replay = (workdir / n for n in ("canon.json", "direct.out", "replay.out"))
    assert cli.main(argv + ["--dump-canonical", str(canon), "--out", str(direct)]) == 0
    assert cli.main(["run", str(canon), "--out", str(replay)]) == 0
    return {"canonical": canon.read_bytes().decode(),
            "artifact": replay.read_bytes().decode()}


def _flags(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    out: dict = {}
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_flags(sub, f"{prefix}{name} "))
            rows.append({"dest": action.dest, "required": action.required})
            continue
        rows.append({"option_strings": list(action.option_strings),
                     "dest": action.dest, "default": action.default,
                     "choices": None if action.choices is None else list(action.choices),
                     "required": action.required,
                     "type": getattr(action.type, "__name__", None),
                     "metavar": action.metavar, "help": action.help})
    out[prefix.strip() or "pconvex"] = rows
    return out


def _certificates() -> dict:
    cube = shifted_power(3.0, domain=(0.0, 1.0))
    square = shifted_power(2.0, domain=(0.0, 1.0))
    identity = shifted_power(1.0, domain=(0.0, 1.0))
    concave = polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))  # x - x^2
    la = log_affine(0.6)
    # custom specs, each with the exact jet of a catalog member
    jet_sq = FunctionSpec("jet-square", (0.0, 1.0), jet=Jet(
        lambda x, lo, hi: [(x * x, 2.0 * x, np.full_like(x, 2.0))[k] if k <= 2
                           else np.zeros_like(x) for k in range(lo, hi + 1)], 4))
    jet_la = FunctionSpec("jet-log-affine", (1e-3, 0.6), jet=Jet(
        lambda x, lo, hi: [np.log(x) - x / 0.6 if k == 0 else 1.0 / x - 1.0 / 0.6 if k == 1
                           else (-1.0) ** (k - 1) * math.factorial(k - 1) * x ** -float(k)
                           for k in range(lo, hi + 1)], 4))
    loss = shifted_power(2.0, domain=(0.0, 10.0))
    sq_cert = certify_p_convex(square, 1, 0.0, 1.0, 64)
    cube_cert = certify_p_convex(cube, 1, 0.0, 1.0, 64)
    certs = {
        "p_convex/pass": certify_p_convex(cube, 1, 0.0, 1.0, 64),
        "p_convex/fail": certify_p_convex(identity, 1, 0.0, 1.0, 64),
        "p_convex/order0-fail": certify_p_convex(concave, 0, 0.0, 1.0, 64),
        "p_convex/jet-pass": certify_p_convex(jet_sq, 1, 0.0, 1.0, 64),
        "p_concave/pass": certify_p_concave(la, 1, la.domain[0], 0.6, 64),
        "p_concave/fail": certify_p_concave(square, 1, 0.0, 1.0, 64),
        "p_concave/jet-pass": certify_p_concave(jet_la, 1, 1e-3, 0.6, 64),
        "p_concave/jet-fail": certify_p_concave(jet_sq, 1, 0.0, 1.0, 64),
        "loss_class/pass": certify_loss_class(loss, 1, 10.0, 64),
        "loss_class/fail": certify_loss_class(loss, 2, 10.0, 64),
        "power_transform/pass": check_power_transform_convex(cube, cube_cert),
        "power_transform/fail": check_power_transform_convex(concave, sq_cert),
        "ratio/pass": check_ratio_monotone(cube, cube_cert),
        "ratio/fail": check_ratio_monotone(concave, sq_cert),
    }
    return {name: certificate_to_dict(c) for name, c in certs.items()}


def _observe() -> dict:
    tasks = {}
    for task, argv in TASK_ARGV.items():
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            tasks[task] = _run_task(argv, Path(tmp))
    return {"tasks": tasks, "flags": _flags(cli._build_parser()),
            "certificates": _certificates()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _numbers_close(got, want, rel: float, abs_: float = 1e-15) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_numbers_close(got[k], want[k], rel, abs_) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_numbers_close(g, w, rel, abs_) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want or math.isclose(got, want, rel_tol=rel, abs_tol=abs_)
    return got == want


def _csv_cells(text: str) -> list:
    def cell(s: str):
        try:
            return float(s)
        except ValueError:
            return s
    return [[cell(c) for c in line.split(",")] for line in text.split("\r\n")]


@pytest.mark.parametrize("task", sorted(TASK_ARGV))
def test_canonical_file_and_replay(task, golden, tmp_path):
    got = _run_task(TASK_ARGV[task], tmp_path)
    want = golden["tasks"][task]
    assert got["canonical"] == want["canonical"]
    if want["artifact"].lstrip().startswith("{"):
        assert _numbers_close(json.loads(got["artifact"]),
                              json.loads(want["artifact"]), 1e-12)
    else:
        assert _numbers_close(_csv_cells(got["artifact"]),
                              _csv_cells(want["artifact"]), 1e-12)


def test_every_flag_and_default(golden):
    assert json.loads(json.dumps(_flags(cli._build_parser()))) == golden["flags"]


def test_certificate_dicts(golden):
    got = _certificates()
    assert got.keys() == golden["certificates"].keys()
    for name, want in golden["certificates"].items():
        have = got[name]
        for key in ("class", "p", "interval", "grid_size", "verdict", "label"):
            assert have[key] == want[key], (name, key)
        assert have["slack_used"] == pytest.approx(want["slack_used"], rel=1e-12), name
        assert list(have["margins"]) == list(want["margins"]), name
        assert _numbers_close(have["margins"], want["margins"], 1e-9, 1e-9), name
        assert ("witness" in have) == ("witness" in want), name
        if "witness" in want:
            assert have["witness"]["condition"] == want["witness"]["condition"], name
            assert have["witness"]["point"] == pytest.approx(want["witness"]["point"],
                                                             rel=1e-12, abs=1e-15), name
            assert _numbers_close(have["witness"]["margin"], want["witness"]["margin"],
                                  1e-9, 1e-9), name


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_observe(), indent=1) + "\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)}")
