"""End-to-end CLI tests: exit codes, artifacts, determinism, round trips."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from conftest import bad_points
from hypothesis import given, settings
from hypothesis import strategies as st
from test_goldens import TASK_ARGV, _run_task

from pconvex.cli import _TASKS, _build_parser, main
from pconvex.errors import InputFormatError
from pconvex.svgplot import render_lines


@pytest.fixture
def fn_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"family": "shifted-power",
                                "params": {"q": 3.0, "a": 0.0},
                                "domain": [0.0, 1.0]}))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"family": "shifted-power",
                                "params": {"q": 1.0, "a": 0.0},
                                "domain": [0.0, 1.0]}))
    return str(path)


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"kind": "discrete", "atoms": [0.0, 1.0],
                                "probs": [0.5, 0.5]}))
    return str(path)


class TestCertify:
    def test_pass_emits_json(self, fn_file, capsys):
        assert main(["certify", "-f", fn_file, "--class", "I",
                     "-p", "1", "-a", "0", "-b", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert payload["class"] == "I"

    def test_fail_verdict_is_still_exit_zero(self, identity_file, capsys):
        assert main(["certify", "-f", identity_file, "--class", "I",
                     "-p", "1", "-a", "0", "-b", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "fail"
        assert payload["witness"]["point"] == 0.0

    def test_loss_class(self, tmp_path, capsys):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({"family": "shifted-power",
                                    "params": {"q": 2.0, "a": 0.0},
                                    "domain": [0.0, "inf"]}))
        assert main(["certify", "-f", str(path), "--class", "Lp",
                     "-p", "1", "--horizon", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_concave_class(self, tmp_path, capsys):
        path = tmp_path / "la.json"
        path.write_text(json.dumps({"family": "log-affine",
                                    "params": {"b": 0.6},
                                    "domain": [1e-4, 0.6]}))
        assert main(["certify", "-f", str(path), "--class", "D", "-p", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"

    def test_malformed_json_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"family": "shifted-power", ')
        assert main(["certify", "-f", str(bad), "--class", "I",
                     "-p", "1", "-a", "0", "-b", "1"]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_file_is_exit_one(self, capsys):
        assert main(["certify", "-f", "/nonexistent.json", "--class", "I",
                     "-p", "1", "-a", "0", "-b", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["certify", "--seed", "3"],
        ["certify", "--class", "Q", "-p", "1"],
        ["bound", "-p", "one"],
        ["no-such-command"],
        [],
    ], ids=["undeclared-flag", "bad-choice", "bad-type", "bad-command", "empty"])
    def test_usage_error_is_exit_one(self, argv, capsys):
        # exit 2 is reserved for failing certificates
        assert main(argv) == 1
        assert "input error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--class" in capsys.readouterr().out


class TestBadDistributionFiles:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bad_points(), st.sampled_from(["sample", "atoms", "probs"]))
    def test_exit_one_without_traceback(self, bad, where):
        n = max(len(bad), 1)
        raw = ({"kind": "sample", "values": bad} if where == "sample" else
               {"kind": "discrete", "atoms": bad, "probs": [1.0 / n] * n} if where == "atoms"
               else {"kind": "discrete", "atoms": list(range(n)), "probs": bad})
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            path = os.path.join(tmp, "bad.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            # an exception escaping main would fail the test with its traceback
            assert main(["mgf", "-d", path, "-s", "0.5", "-p", "2"]) == 1
        assert err.getvalue().startswith(("input error: ", "error: "))
        assert "Traceback" not in err.getvalue()
        assert "ConstructionError(" not in err.getvalue()


class TestBadFunctionFiles:
    @pytest.mark.parametrize("raw", [
        {"family": "shifted-power", "params": {"q": "abc"}},
        {"family": "shifted-power", "params": {"q": 3.0}, "domain": [0.0, "x"]},
        {"family": "shifted-power", "params": [3.0]},
        {"family": "exp-taylor-remainder", "params": {"p": 2.5}},
        {"family": "nonneg-weighted-sum", "params": {"terms": [5]}},
    ], ids=["string-q", "string-domain", "list-params", "fractional-p", "bare-term"])
    def test_exit_one_without_traceback(self, raw, tmp_path):
        # the string q raised ValueError out of main; p = 2.5 was read as 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["certify", "-f", str(path), "--class", "I", "-p", "1",
                         "-a", "0", "-b", "1"]) == 1
        assert err.getvalue().startswith(("input error: ", "error: "))


# descriptors with a key that nothing reads, or density ends that disagree,
# and what the error says; each once ran (the shifted power as x^2, where
# "a": 1 gives (x-1)^2) or was read one way for uniform, another for beta-like
_ENDS = "support [0, 2] and params a = 0, b = 1 disagree"
_PROBES = [
    ("shifted-power-shift", {"family": "shifted-power", "params": {"q": 2, "shift": 1},
                             "domain": [1, 3]}, "nothing reads 'shift'"),
    ("exponential-rate", {"family": "exponential", "params": {"rate": 2.0},
                          "domain": [0.0, 1.0]}, "nothing reads 'rate'"),
    ("top-level-domian", {"family": "shifted-power", "params": {"q": 3.0},
                          "domian": [0.0, 1.0]}, "nothing reads 'domian'"),
    ("fractional-hh-extra", {"kind": "density", "family": "fractional-hh",
                             "params": {"alpha": 0.5, "beta": 2.0}, "support": [0.0, 1.0]},
     "nothing reads 'beta'"),
    ("uniform-ends", {"kind": "density", "family": "uniform", "params": {"a": 0, "b": 1},
                      "support": [0, 2]}, _ENDS),
    ("beta-like-ends", {"kind": "density", "family": "beta-like",
                        "params": {"a": 0, "b": 1, "c": 2, "d": 3}, "support": [0, 2]}, _ENDS),
    # a JSON boolean where a number is read: each ran, true as 1 and false as 0
    ("bool-q", {"family": "shifted-power", "params": {"q": True}}, "'q' holds a boolean"),
    ("bool-domain", {"family": "shifted-power", "params": {"q": 2.0}, "domain": [False, True]},
     "'domain' holds a boolean"),
    ("bool-p", {"family": "exp-taylor-remainder", "params": {"p": True}},
     "'p' holds a boolean"),
    ("bool-coeff", {"family": "polynomial", "params": {"coeffs": [True, 2]}},
     "'coeffs' holds a boolean"),
    ("bool-weight", {"family": "nonneg-weighted-sum", "params": {"terms": [
        {"weight": True, "function": {"family": "exponential"}}]}}, "'weight' holds a boolean"),
    ("bool-atom", {"kind": "discrete", "atoms": [True, 2.0], "probs": [0.5, 0.5]},
     "'atoms' holds a boolean"),
    ("bool-value", {"kind": "sample", "values": [0.5, False, 2.0]}, "'values' holds a boolean"),
    ("bool-support", {"kind": "density", "family": "uniform", "support": [False, 1.0]},
     "'support' holds a boolean"),
    ("bool-c", {"kind": "density", "family": "beta-like", "params": {"c": True, "d": 2.0},
                "support": [0.0, 1.0]}, "'c' holds a boolean"),
]


class TestDescriptorKeys:
    @pytest.mark.parametrize("route", ["flag", "problem file"])
    @pytest.mark.parametrize("raw, words", [probe[1:] for probe in _PROBES],
                             ids=[probe[0] for probe in _PROBES])
    def test_unread_key_or_disagreeing_ends_exit_one(self, raw, words, route, tmp_path,
                                                     capsys):
        if "kind" in raw:
            argv, problem = ["mgf", "-d", "{}", "-s", "0.5", "-p", "2"], {
                "task": "mgf", "params": {"s": 0.5, "p": 2}, "distribution": raw}
        else:
            argv, problem = ["certify", "-f", "{}", "--class", "I", "-p", "1"], {
                "task": "certify", "params": {"class": "I", "p": 1}, "function": raw}
        path = tmp_path / "in.json"
        if route == "flag":
            path.write_text(json.dumps(raw))
            argv = [str(path) if tok == "{}" else tok for tok in argv]
        else:
            path.write_text(json.dumps({"version": 1, **problem}))
            argv = ["run", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and words in err


class TestBound:
    def test_lower_csv_row(self, fn_file, dist_file, capsys):
        assert main(["bound", "-f", fn_file, "-d", dist_file,
                     "-p", "1", "--kind", "lower"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\r\n")
        assert lines[0] == "kind,p,a,b,value,oracle,classical,gap_to_oracle,gap_to_classical"
        cells = lines[1].split(",")
        assert cells[0] == "jensen-lower-I"
        assert float(cells[4]) == pytest.approx(0.5 ** 1.5, abs=1e-12)
        assert float(cells[5]) == pytest.approx(0.5)

    def test_failing_certificate_is_exit_two(self, identity_file, dist_file, capsys):
        assert main(["bound", "-f", identity_file, "-d", dist_file,
                     "-p", "1", "--kind", "lower"]) == 2
        assert "certificate failed" in capsys.readouterr().err

    def test_upper_kind(self, fn_file, dist_file, capsys):
        assert main(["bound", "-f", fn_file, "-d", dist_file,
                     "-p", "1", "--kind", "upper"]) == 0
        row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert float(row[4]) >= float(row[5]) - 1e-12

    def test_nan_atom_is_exit_one(self, fn_file, tmp_path, capsys):
        d = tmp_path / "nan.json"
        d.write_text(json.dumps({"kind": "discrete", "atoms": [0.0, math.nan],
                                 "probs": [0.5, 0.5]}))
        assert main(["bound", "-f", fn_file, "-d", str(d),
                     "-p", "1", "--kind", "lower"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_density_distribution(self, fn_file, tmp_path, capsys):
        d = tmp_path / "unif.json"
        d.write_text(json.dumps({"kind": "density", "family": "uniform",
                                 "params": {"a": 0.0, "b": 1.0},
                                 "support": [0.0, 1.0]}))
        assert main(["bound", "-f", fn_file, "-d", str(d),
                     "-p", "1", "--kind", "upper"]) == 0
        row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert float(row[4]) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert float(row[5]) == pytest.approx(0.25, abs=1e-8)


class TestRisk:
    def test_measure(self, dist_file, capsys):
        assert main(["risk", "measure", "-d", dist_file, "-p", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == pytest.approx(math.sqrt(0.5))
        assert payload["achiever"] == "x^2"

    def test_compare_positive(self, tmp_path, capsys):
        l = tmp_path / "l.json"
        f = tmp_path / "f.json"
        l.write_text(json.dumps({"family": "shifted-power",
                                 "params": {"q": 4.0, "a": 0.0}, "domain": [0.0, 50.0]}))
        f.write_text(json.dumps({"family": "shifted-power",
                                 "params": {"q": 2.0, "a": 0.0}, "domain": [0.0, 50.0]}))
        assert main(["risk", "compare", "-f", str(l), "--baseline", str(f),
                     "-p", "2", "--trials", "300", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert "falsifier" not in payload

    def test_compare_negative_finds_falsifier(self, tmp_path, capsys):
        l = tmp_path / "l.json"
        f = tmp_path / "f.json"
        l.write_text(json.dumps({"family": "shifted-power",
                                 "params": {"q": 2.0, "a": 0.0}, "domain": [0.0, 50.0]}))
        f.write_text(json.dumps({"family": "shifted-power",
                                 "params": {"q": 4.0, "a": 0.0}, "domain": [0.0, 50.0]}))
        assert main(["risk", "compare", "-f", str(l), "--baseline", str(f),
                     "-p", "1", "--trials", "5000", "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["falsifier"]["margin"] > 0


class TestMgfAndFriends:
    def test_mgf_both(self, dist_file, capsys):
        assert main(["mgf", "-d", dist_file, "-s", "1.0", "-p", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\r\n")
        assert lines[0] == "kind,s,p,value,exact,gap"
        assert len(lines) == 3

    def test_amgm(self, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps({"kind": "discrete", "atoms": [1.0, 4.0],
                                 "probs": [0.5, 0.5]}))
        assert main(["amgm", "-d", str(d), "-p", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert float(row[1]) == pytest.approx(2.0, abs=1e-12)

    def test_em_demo_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["em-demo", "--samples", "30", "--dims", "4",
                     "--iters", "4", "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "iter,loglik,elbo_classical,elbo_tight"
        assert len(lines) == 6  # header + iterations 0..4
        lls = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


class TestHHAndRl:
    def test_hh_row(self, fn_file, capsys):
        assert main(["hh", "-f", fn_file, "-p", "2"]) == 0
        row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert float(row[4]) == pytest.approx(0.19245008972987523, abs=1e-8)
        assert float(row[5]) == pytest.approx(0.25, abs=1e-8)

    def test_hh_fractional_alpha_one_matches_hh(self, fn_file, capsys):
        assert main(["hh", "-f", fn_file, "-p", "2"]) == 0
        plain = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert main(["hh-fractional", "-f", fn_file, "-p", "2", "--alpha", "1"]) == 0
        frac = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        for i in (4, 5, 6):
            assert float(frac[i]) == pytest.approx(float(plain[i]), abs=1e-9)

    def test_rl_value(self, fn_file, capsys):
        assert main(["rl", "-f", fn_file, "--alpha", "1.0", "-x", "1.0"]) == 0
        row = capsys.readouterr().out.strip().split("\r\n")[1].split(",")
        assert float(row[3]) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("side, lone, pair", [
        ("left", ["-a", "0.4"], ["-a", "0.4", "-b", "1"]),
        ("right", ["-b", "0.8"], ["-a", "0", "-b", "0.8"]),
    ], ids=["lone-a", "lone-b"])
    def test_rl_takes_a_lone_interval_end(self, fn_file, side, lone, pair, capsys):
        # a lone -a or -b was dropped and the whole domain integrated
        def value(tail):
            argv = ["rl", "-f", fn_file, "--alpha", "0.5", "-x", "0.5", "--side", side]
            assert main(argv + tail) == 0
            return capsys.readouterr().out.strip().split("\r\n")[1].split(",")[3]
        assert value(lone) == value(pair) != value([])

    def test_hh_failing_certificate_is_exit_two(self, identity_file, capsys):
        # x at order p=2 needs certification at order 1, which the identity fails
        assert main(["hh", "-f", identity_file, "-p", "2"]) == 2
        assert "certificate failed" in capsys.readouterr().err

    def test_problem_file_with_bad_kind_is_exit_one(self, fn_file, dist_file,
                                                    tmp_path, capsys):
        # problem files bypass argparse choices; the handler still validates
        problem = {"version": 1, "task": "bound",
                   "function": json.loads(open(fn_file).read()),
                   "distribution": json.loads(open(dist_file).read()),
                   "params": {"p": 1, "kind": "sideways"}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        assert main(["run", str(path)]) == 1
        assert "kind" in capsys.readouterr().err


class TestSweepAndDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        svgs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"gaps_{tag}.csv"
            svg_path = tmp_path / f"gaps_{tag}.svg"
            assert main(["sweep", "--suite", "hh",
                         "--out", str(csv_path), "--plot", str(svg_path)]) == 0
            outs.append(csv_path.read_bytes())
            svgs.append(svg_path.read_bytes())
        assert outs[0] == outs[1]
        assert svgs[0] == svgs[1]

    def test_run_plot_writes_the_sweep_svg(self, tmp_path):
        canon, direct, replay = (tmp_path / n for n in ("canon.json", "direct.svg", "replay.svg"))
        assert main(["sweep", "--suite", "hh", "--p-max", "2", "--dump-canonical",
                     str(canon), "--out", str(tmp_path / "gaps.csv"),
                     "--plot", str(direct)]) == 0
        assert main(["run", str(canon), "--out", str(tmp_path / "replay.csv"),
                     "--plot", str(replay)]) == 0
        assert replay.read_text().startswith("<svg")
        assert replay.read_bytes() == direct.read_bytes()

    def test_run_plot_is_rejected_for_a_task_without_it(self, fn_file, tmp_path, capsys):
        canon, svg = tmp_path / "canon.json", tmp_path / "x.svg"
        assert main(["hh", "-f", fn_file, "-p", "2", "--dump-canonical", str(canon),
                     "--out", str(tmp_path / "hh.csv")]) == 0
        assert main(["run", str(canon), "--plot", str(svg)]) == 1
        assert "takes no --plot" in capsys.readouterr().err
        assert not svg.exists()

    def test_problem_file_with_seed_param_fails_closed(self, tmp_path, capsys):
        # sweep has no --seed any more; a file written when it had one ran
        # with the seed ignored, and now names it
        canon, out = tmp_path / "canon.json", tmp_path / "out.csv"
        assert main(["sweep", "--suite", "hh", "--p-max", "2", "--dump-canonical",
                     str(canon), "--out", str(out)]) == 0
        problem = json.loads(canon.read_text())
        assert "seed" not in problem["params"]
        problem["params"]["seed"] = 42
        canon.write_text(json.dumps(problem))
        assert main(["run", str(canon), "--out", str(out)]) == 1
        assert "nothing reads 'seed'" in capsys.readouterr().err

    def test_hh_sweep_gap_structure(self, tmp_path):
        csv_path = tmp_path / "gaps.csv"
        assert main(["sweep", "--suite", "hh", "--out", str(csv_path)]) == 0
        lines = csv_path.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "p,lower_gap,upper_gap"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 6
        assert all(r[1] >= 0 and r[2] >= 0 for r in rows)

    def test_jensen_and_mgf_suites_run(self, tmp_path):
        for suite in ("jensen", "mgf"):
            out = tmp_path / f"{suite}.csv"
            assert main(["sweep", "--suite", suite, "--out", str(out)]) == 0
            assert out.read_bytes().decode().startswith(("p,", "s,"))

    @pytest.mark.parametrize("route", ["flag", "problem file"])
    @pytest.mark.parametrize("suite, flag, value, words", [
        ("hh", "-p", 2, "does not take -p"),
        ("jensen", "-p", 2, "does not take -p"),
        ("mgf", "--p-max", 3, "does not take --p-max"),
        ("mgf", "-f", "function", "does not take -f"),
        ("hh", "-d", "distribution", "does not take -d"),
        ("hh", "--p-max", 0, "--p-max must be >= 1"),
        ("hh", "--p-max", -2, "--p-max must be >= 1"),
        ("jensen", "--p-max", 0, "--p-max must be >= 1"),
    ])
    def test_input_the_suite_does_not_read_exits_one(self, suite, flag, value, words, route,
                                                     fn_file, dist_file, tmp_path, capsys):
        # each ran and exited 0: -p, -f and -d were ignored, --p-max 0 ran
        # orders 1..6 and --p-max -2 wrote a header-only CSV
        files = {"function": fn_file, "distribution": dist_file}
        out = tmp_path / "out.csv"
        if route == "flag":
            argv = ["sweep", "--suite", suite, flag, files.get(value, str(value))]
        else:
            problem = {"version": 1, "task": "sweep", "params": {"suite": suite}}
            if value in files:
                problem[value] = json.loads(Path(files[value]).read_text())
            else:
                problem["params"][flag.lstrip("-").replace("-", "_")] = value
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            argv = ["run", str(path)]
        assert main(argv + ["--out", str(out)]) == 1
        assert words in capsys.readouterr().err
        assert not out.exists()

    def test_threads_env_preserves_output(self, tmp_path, monkeypatch):
        base = tmp_path / "seq.csv"
        assert main(["sweep", "--suite", "hh", "--out", str(base)]) == 0
        monkeypatch.setenv("PCONVEX_THREADS", "4")
        par = tmp_path / "par.csv"
        assert main(["sweep", "--suite", "hh", "--out", str(par)]) == 0
        assert base.read_bytes() == par.read_bytes()


class TestProblemFiles:
    def test_dump_canonical_roundtrip(self, fn_file, dist_file, tmp_path, capsys):
        canon = tmp_path / "problem.json"
        assert main(["bound", "-f", fn_file, "-d", dist_file, "-p", "1",
                     "--kind", "lower", "--dump-canonical", str(canon),
                     "--out", str(tmp_path / "direct.csv")]) == 0
        payload = json.loads(canon.read_text())
        assert payload["version"] == 1
        assert payload["task"] == "bound"
        # replaying the canonical problem reproduces the artifact byte for byte
        assert main(["run", str(canon), "--out", str(tmp_path / "replay.csv")]) == 0
        assert (tmp_path / "direct.csv").read_bytes() == \
            (tmp_path / "replay.csv").read_bytes()
        # and the canonical form is a fixed point of dump -> load -> dump
        from pconvex.cli import Problem
        reloaded = Problem.load(payload)
        reloaded.dump(str(tmp_path / "problem2.json"))
        assert canon.read_bytes() == (tmp_path / "problem2.json").read_bytes()

    def test_run_rejects_mistyped_parameter(self, fn_file, tmp_path, capsys):
        # problem files bypass argparse; their params get the same typing
        problem = {"version": 1, "task": "hh",
                   "function": json.loads(open(fn_file).read()),
                   "params": {"p": "two"}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        assert main(["run", str(path)]) == 1
        assert "'p'" in capsys.readouterr().err

    def test_run_rejects_bad_version(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 2, "task": "hh"}))
        assert main(["run", str(bad)]) == 1
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize("argv_tail", [
        ["certify", "--class", "I", "-p", "1", "-a", "0", "-b", "1"],
        ["hh", "-p", "2"],
        ["rl", "--alpha", "0.5", "-x", "1.0"],
    ], ids=lambda t: t[0])
    def test_replay_matches_direct_for_each_task(self, fn_file, tmp_path, argv_tail):
        canon = tmp_path / "p.json"
        direct = tmp_path / "direct.out"
        replay = tmp_path / "replay.out"
        assert main(argv_tail + ["-f", fn_file, "--dump-canonical", str(canon),
                                 "--out", str(direct)]) == 0
        assert main(["run", str(canon), "--out", str(replay)]) == 0
        assert direct.read_bytes() == replay.read_bytes()

    @pytest.mark.parametrize("task", sorted(_TASKS))
    def test_unread_problem_fields_fail_closed(self, task, tmp_path, capsys):
        # a certify file with "grid_size": 64 ran at grid 1024, and a
        # top-level field such as "tolerances" was ignored
        canonical = json.loads(_run_task(TASK_ARGV[task], tmp_path)["canonical"])
        path = tmp_path / "stray.json"
        for stray, words in [
                ({**canonical, "params": {**canonical["params"], "grid_size": 64}},
                 "nothing reads 'grid_size'"),
                ({**canonical, "tolerances": {"certify_slack": 1.0}},
                 "unknown field 'tolerances'")]:
            path.write_text(json.dumps(stray))
            assert main(["run", str(path)]) == 1
            assert words in capsys.readouterr().err

    def test_descriptor_the_task_does_not_take_fails_closed(self, fn_file, dist_file,
                                                            tmp_path, capsys):
        problem = {"version": 1, "task": "amgm", "params": {"p": 1},
                   "distribution": json.loads(open(dist_file).read()),
                   "function": json.loads(open(fn_file).read())}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        assert main(["run", str(path)]) == 1
        assert "nothing reads 'function'" in capsys.readouterr().err

    def test_replay_mgf_task(self, dist_file, tmp_path):
        canon = tmp_path / "p.json"
        direct = tmp_path / "direct.csv"
        replay = tmp_path / "replay.csv"
        assert main(["mgf", "-d", dist_file, "-s", "1.0", "-p", "2",
                     "--dump-canonical", str(canon), "--out", str(direct)]) == 0
        assert main(["run", str(canon), "--out", str(replay)]) == 0
        assert direct.read_bytes() == replay.read_bytes()


class TestArtifactWriter:
    """--out, --dump-canonical and --plot rewrite the named file in place."""

    def _hh(self, fn_file, capsys):
        assert main(["hh", "-f", fn_file, "-p", "2"]) == 0
        return capsys.readouterr().out.encode()

    def test_shorter_report_leaves_no_stale_tail(self, fn_file, tmp_path, capsys):
        want = self._hh(fn_file, capsys)
        out = tmp_path / "hh.csv"
        out.write_bytes(b"x" * (10 * len(want)))
        inode = out.stat().st_ino
        assert main(["hh", "-f", fn_file, "-p", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert out.stat().st_ino == inode

    def test_dev_null(self, fn_file):
        assert main(["hh", "-f", fn_file, "-p", "2", "--out", os.devnull]) == 0

    def test_fifo_is_written(self, fn_file, tmp_path, capsys):
        want = self._hh(fn_file, capsys)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["hh", "-f", fn_file, "-p", "2", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert got == [want]

    def test_symlink_updates_its_target(self, fn_file, tmp_path, capsys):
        want = self._hh(fn_file, capsys)
        target = tmp_path / "target.csv"
        target.write_bytes(b"old contents, longer than nothing\n" * 40)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["hh", "-f", fn_file, "-p", "2", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want

    def test_mode_bits_are_kept(self, fn_file, tmp_path):
        out = tmp_path / "hh.csv"
        out.write_bytes(b"old")
        out.chmod(0o640)
        assert main(["hh", "-f", fn_file, "-p", "2", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_no_write_truncates_on_open(self, fn_file, tmp_path, monkeypatch):
        # truncating an existing file to zero on open is the slow path the
        # writer avoids; every artifact must go through one os.open
        from pconvex import cli
        opened = {}
        real = cli.os.open

        def recording(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real(path, flags, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording)
        out, canon, plot = (str(tmp_path / n) for n in ("gaps.csv", "p.json", "gaps.svg"))
        for _ in range(2):  # the second run rewrites existing files
            assert main(["sweep", "--suite", "hh", "--p-max", "2", "--out", out,
                         "--dump-canonical", canon, "--plot", plot]) == 0
        assert set(opened) == {out, canon, plot}
        assert not any(flags & os.O_TRUNC for flags in opened.values())

    @pytest.mark.parametrize("where", ["out", "dump", "plot", "out-dir", "input-dir",
                                       "input-bytes"])
    def test_io_failure_is_exit_one(self, where, fn_file, tmp_path, capsys):
        bad = str(tmp_path / "no" / "such" / "dir" / "x")
        if where.endswith("dir"):
            bad = str(tmp_path)
        elif where == "input-bytes":
            bad = str(tmp_path / "latin1.json")
            Path(bad).write_bytes(b'{"kind": "\xe9"}')
        argv = {"out": ["hh", "-f", fn_file, "-p", "2", "--out", bad],
                "dump": ["hh", "-f", fn_file, "-p", "2", "--dump-canonical", bad],
                "plot": ["sweep", "--suite", "hh", "--p-max", "2", "--plot", bad],
                "out-dir": ["hh", "-f", fn_file, "-p", "2", "--out", bad],
                "input-dir": ["mgf", "-d", bad, "-s", "0.5", "-p", "2"],
                "input-bytes": ["mgf", "-d", bad, "-s", "0.5", "-p", "2"]}[where]
        # an exception escaping main would fail the test with its traceback
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: ")
        assert "Traceback" not in err


class TestGapPlot:
    def test_single_row(self):
        svg = render_lines("p", [1.0], {"gap": [0.5]})
        assert svg.startswith("<svg")
        assert "circle" in svg

    def test_empty_body_rejected(self):
        with pytest.raises(InputFormatError):
            render_lines("p", [], {"gap": []})

    def test_deterministic_bytes(self):
        args = ("p", [1.0, 2.0, 3.0], {"lo": [0.1, 0.05, 0.02], "hi": [0.4, 0.3, 0.2]})
        assert render_lines(*args) == render_lines(*args)


class TestFailClosedInputs:
    """Inputs that ran to exit 0 with NaN output, a NaN grid or an interval
    outside the descriptor's domain now exit 1 with a message."""

    @pytest.mark.parametrize("tail, words", [
        (["certify", "--class", "I", "-p", "1", "-b", "inf"], "b must be finite"),
        (["certify", "--class", "D", "-p", "1", "-b", "inf"], "b must be finite"),
        (["certify", "--class", "I", "-p", "1", "-a", "0", "-b", "2"], "leaves the domain"),
        (["certify", "--class", "D", "-p", "1", "-a", "-1", "-b", "1"], "leaves the domain"),
        (["certify", "--class", "Lp", "-p", "1", "--horizon", "inf"], "horizon must be finite"),
        (["certify", "--class", "Lp", "-p", "1", "-a", "nan"], "a must be finite"),
        (["certify", "--class", "Lp", "-p", "1", "--horizon", "0"], "exceed domain start"),
        (["certify", "--class", "Lp", "-p", "1", "--horizon", "1e-300"],
         "no grid point above"),
        (["certify", "--class", "Lp", "-p", "1", "-a", "5"], "does not take -a"),
        (["certify", "--class", "Lp", "-p", "1", "-b", "5"], "does not take -b"),
        (["certify", "--class", "D", "-p", "1", "--horizon", "5"],
         "does not take --horizon"),
        (["rl", "--alpha", "0.5", "-x", "0.5", "-a", "0", "-b", "inf"], "b must be finite"),
        (["hh", "-p", "0"], "order p must be >= 1, got 0"),
        (["hh-fractional", "-p", "0", "--alpha", "0.5"], "order p must be >= 1, got 0"),
    ], ids=["I-b-inf", "D-b-inf", "I-outside-domain", "D-outside-domain",
            "Lp-horizon-inf", "Lp-a-nan", "Lp-horizon-0", "Lp-no-interior-point",
            "Lp-with-a", "Lp-with-b", "D-with-horizon", "rl-b-inf", "hh-p0", "hh-fractional-p0"])
    def test_function_tasks(self, fn_file, tail, words, capsys):
        assert main(tail + ["-f", fn_file]) == 1
        assert words in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_mgf_rate(self, dist_file, s, capsys):
        assert main(["mgf", "-d", dist_file, "-s", s, "-p", "2"]) == 1
        assert "s must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor", [
        {"family": "uniform", "params": {"a": 0.0, "b": math.inf}},
        {"family": "beta-like", "support": [0.0, 1.0], "params": {"c": 2.0, "d": math.nan}},
        {"family": "fractional-hh", "support": [0.0, 1.0], "params": {"alpha": math.inf}},
    ], ids=["uniform-b-inf", "beta-like-d-nan", "fractional-hh-alpha-inf"])
    def test_non_finite_density_parameter(self, fn_file, tmp_path, descriptor, capsys):
        d = tmp_path / "density.json"
        d.write_text(json.dumps({"kind": "density", **descriptor}))
        assert main(["bound", "-f", fn_file, "-d", str(d), "-p", "1", "--kind", "lower"]) == 1
        assert "needs finite parameters" in capsys.readouterr().err

    def test_em_demo_without_columns(self, capsys):
        assert main(["em-demo", "--samples", "5", "--dims", "0"]) == 1
        assert "nonempty n x d" in capsys.readouterr().err

    @pytest.mark.parametrize("tail, words", [
        (["--samples", "-1"], "n must be >= 0, got -1"),
        (["--dims", "-2"], "dims must be >= 0, got -2"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["negative-samples", "negative-dims", "negative-seed"])
    def test_em_demo_sizes(self, tail, words, capsys):
        # a negative count or seed raised numpy's ValueError out of main
        assert main(["em-demo", "--samples", "5"] + tail) == 1
        assert words in capsys.readouterr().err

    def test_tolerance_profile_flag_is_unknown(self, fn_file, tmp_path, capsys):
        # the slack is --slack; the profile's other two values are constants
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"certify_slack": 1.0}))
        assert main(["certify", "-f", fn_file, "--class", "I", "-p", "1",
                     "--tolerance-profile", str(path)]) == 1
        assert "unrecognized arguments: --tolerance-profile" in capsys.readouterr().err

    @pytest.mark.parametrize("value, words", [
        ("tight", "invalid float value: 'tight'"), ("nan", "slack must be finite"),
        ("inf", "slack must be finite"), ("0", "slack must be positive and finite"),
        ("-1e-8", "slack must be positive and finite")])
    def test_slack_must_be_positive_and_finite(self, fn_file, value, words, capsys):
        assert main(["certify", "-f", fn_file, "--class", "I", "-p", "1",
                     f"--slack={value}"]) == 1
        assert words in capsys.readouterr().err

    def test_problem_file_with_infinite_parameter(self, fn_file, tmp_path, capsys):
        # problem files do not pass through the parser; their params are checked too
        problem = {"version": 1, "task": "certify",
                   "function": json.loads(open(fn_file).read()),
                   "params": {"class": "I", "p": 1, "b": "Infinity"}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        assert main(["run", str(path)]) == 1
        assert "b must be finite" in capsys.readouterr().err


class TestTypedProblemValues:
    """JSON booleans and non-integral numbers ran as numbers: a boolean
    slack as 1.0, "p": 2.5 as 2, "samples": 10.9 and "dims": true as 10
    and 1.  Problem files now reject them (exit 1)."""

    @staticmethod
    def _run(tmp_path, task, params, function=None) -> int:
        problem = {"version": 1, "task": task, "params": params}
        if function is not None:
            problem["function"] = json.loads(open(function).read())
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        return main(["run", str(path)])

    @pytest.mark.parametrize("value", [True, False, [1e-8], "tight"])
    def test_slack_in_a_problem_file_must_be_a_number(self, identity_file, tmp_path,
                                                      value, capsys):
        # with slack 1.0, x on [0, 1] certified as a class-I member at p = 1
        params = {"class": "I", "p": 1, "slack": value}
        assert self._run(tmp_path, "certify", params, identity_file) == 1
        assert f"bad value {value!r} for 'slack'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, words", [
        ("tolerances", 5, "tolerance profiles are gone"),
        ("tolerances", [1e-8], "tolerance profiles are gone"),
        ("params", [1], "field 'params' must be an object"),
        ("params", "p", "field 'params' must be an object"),
        ("function", 5, "function descriptor must be an object"),
        ("function", [1e-8], "function descriptor must be an object")])
    def test_problem_fields_must_be_objects(self, fn_file, tmp_path, field, value, words,
                                            capsys):
        # a bare TypeError escaped main with a traceback
        problem = {"version": 1, "task": "certify", "function": json.loads(open(fn_file).read()),
                   "params": {"class": "I", "p": 1}, field: value}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        assert main(["run", str(path)]) == 1
        assert words in capsys.readouterr().err

    def test_slack_read_from_flag_and_problem_file(self, identity_file, tmp_path, capsys):
        assert main(["certify", "-f", identity_file, "--class", "I", "-p", "1",
                     "--slack", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["slack_used"] == 1.0
        assert self._run(tmp_path, "certify", {"class": "I", "p": 1, "slack": 1},
                         identity_file) == 0
        assert json.loads(capsys.readouterr().out)["slack_used"] == 1.0

    @pytest.mark.parametrize("params, key", [
        ({"p": 2.5}, "p"), ({"p": True}, "p"), ({"p": "2"}, "p"), ({"p": 2, "grid": 64.5}, "grid"),
        ({"p": 2, "a": True}, "a"), ({"p": 2, "b": False}, "b")])
    def test_function_task_values(self, fn_file, tmp_path, params, key, capsys):
        assert self._run(tmp_path, "hh", params, fn_file) == 1
        assert f"bad value {params[key]!r} for {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("params, key", [
        ({"samples": 10.9}, "samples"), ({"samples": 10, "dims": True}, "dims"),
        ({"iters": 1.5}, "iters"), ({"seed": True}, "seed")])
    def test_em_demo_values(self, tmp_path, params, key, capsys):
        assert self._run(tmp_path, "em-demo", params) == 1
        assert f"bad value {params[key]!r} for {key!r}" in capsys.readouterr().err

    def test_integral_floats_are_the_integers(self, fn_file, tmp_path, capsys):
        assert self._run(tmp_path, "hh", {"p": 2.0, "grid": 64.0}, fn_file) == 0
        by_float = capsys.readouterr().out
        assert self._run(tmp_path, "hh", {"p": 2, "grid": 64}, fn_file) == 0
        assert capsys.readouterr().out == by_float


def test_exp_taylor_remainder_past_float_factorials_exits_one(tmp_path, capsys):
    # (p + 1)! overflowed a float at the first evaluation: a bare OverflowError
    path = tmp_path / "tail.json"
    path.write_text(json.dumps({"family": "exp-taylor-remainder", "params": {"p": 200},
                                "domain": [0.0, 1.0]}))
    assert main(["certify", "-f", str(path), "--class", "I", "-p", "1"]) == 1
    assert "p must be < 170" in capsys.readouterr().err


def test_risk_comparison_past_the_composed_jet_exits_one(tmp_path, capsys):
    # p = 8 reads order 9 of a jet of depth 8; it read forward differences
    paths = []
    for name, q in (("l", 18.0), ("f", 2.0)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"family": "shifted-power", "params": {"q": q},
                                         "domain": [0.0, 50.0]}))
    assert main(["risk", "compare", "-f", str(paths[0]), "--baseline", str(paths[1]),
                 "-p", "8", "--trials", "5"]) == 1
    assert "outside its stack" in capsys.readouterr().err


def _risk_files(tmp_path, loss: dict, baseline: dict) -> list[str]:
    paths = []
    for name, desc in (("l", loss), ("f", baseline)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(desc))
    return [str(p) for p in paths]


def test_risk_comparison_over_unbounded_domains_agrees_with_its_falsifier(tmp_path, capsys):
    # with no domains the composition ran to x = 1e6 and clamped every grid
    # point of [0, 100] to y = 1000: this false pair printed "holds": true
    # next to the falsifier's violating lottery
    x = {"family": "shifted-power", "params": {"q": 1.0}}
    x4 = {"family": "shifted-power", "params": {"q": 4.0}}
    loss = {"family": "nonneg-weighted-sum",
            "params": {"terms": [{"weight": 1.0, "function": x},
                                 {"weight": 1.0, "function": x4}]}}
    l, f = _risk_files(tmp_path, loss, {"family": "shifted-power", "params": {"q": 2.0}})
    assert main(["risk", "compare", "-f", l, "--baseline", f, "-p", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["certificate"]["verdict"] == "fail"
    assert payload["falsifier"]["margin"] > 0.0


def test_risk_comparison_contradicting_its_falsifier_exits_one(tmp_path, capsys, monkeypatch):
    from pconvex import risk
    from pconvex.distributions import two_point

    square = {"family": "shifted-power", "params": {"q": 2.0}, "domain": [0.0, 50.0]}
    quartic = {"family": "shifted-power", "params": {"q": 4.0}, "domain": [0.0, 50.0]}
    l, f = _risk_files(tmp_path, quartic, square)
    hit = risk.Falsifier(lottery=two_point(1.0, 3.0, 0.5), threshold=2.0, margin=0.25)
    monkeypatch.setattr(risk, "falsify_p_more_risk_averse", lambda *a, **k: hit)
    assert main(["risk", "compare", "-f", l, "--baseline", f, "-p", "2",
                 "--trials", "5", "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "certificate that x^4 is 2-more risk averse than x^2 passes" in err
    assert "violating lottery" in err and "margin 0.25" in err
    assert not (tmp_path / "out.json").exists()


def test_parser_is_built_once_and_lazily():
    assert _build_parser() is _build_parser()
    code = "import pconvex.cli as c; print(c._build_parser.cache_info().currsize)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "0"


# -- the exit-code contract over sequences of in-process calls ----------------

_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
# (argv before the descriptors, descriptors, flags that take a float)
_FLOAT_TASKS = [
    (["certify", "--class", "I", "-p", "1", "--grid", "64"], "f", ["-a", "-b"]),
    (["certify", "--class", "D", "-p", "1", "--grid", "64"], "f", ["-a", "-b"]),
    (["certify", "--class", "Lp", "-p", "1", "--grid", "64"], "l", ["-a", "-b", "--horizon"]),
    (["bound", "-p", "1", "--grid", "64"], "fd", ["-a", "-b"]),
    (["hh", "-p", "2", "--grid", "64"], "f", ["-a", "-b"]),
    (["hh-fractional", "-p", "2", "--alpha", "0.5", "--grid", "64"], "f",
     ["-a", "-b", "--alpha"]),
    (["mgf", "-p", "2", "-s", "0.5"], "d", ["-s"]),
    (["rl", "--alpha", "0.5", "-x", "0.5"], "f", ["-a", "-b", "--alpha", "-x"]),
]
_USAGE_ERRORS = [["certify", "--seed", "3"], ["certify", "--class", "Q", "-p", "1"],
                 ["bound", "-p", "one"], ["no-such-command"], [], ["mgf", "-p", "2"],
                 ["risk"], ["rl", "-x"]]
_HELP = [["--help"], ["certify", "--help"], ["mgf", "-h"], ["risk", "compare", "-h"]]


def _number(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(repr)


@st.composite
def _cli_call(draw):
    """One call as (kind, argv with descriptor placeholders, exit code it must
    give).
    "f" is x^3 on [0, 1], "i" the identity on [0, 1] (it fails the
    certificates of bound and hh: exit 2), "l" x^2 on [0, inf) and "d" a
    lottery on {0, 1}."""
    kind = draw(st.sampled_from(["valid", "usage", "help", "non-finite"]))
    if kind == "usage":
        return kind, draw(st.sampled_from(_USAGE_ERRORS)), 1
    if kind == "help":
        return kind, draw(st.sampled_from(_HELP)), 0
    if kind == "non-finite":
        head, inputs, floats = draw(st.sampled_from(_FLOAT_TASKS))
        flag = draw(st.sampled_from(floats))
        descriptors = [x for c in inputs for x in ("-d" if c == "d" else "-f", "{" + c + "}")]
        return kind, head + descriptors + [f"{flag}={draw(_NON_FINITE)}"], 1
    fn = draw(st.sampled_from(["f", "i"]))
    b = ["-b", draw(_number(0.25, 1.0))]
    return (kind,) + draw(st.sampled_from([
        (["certify", "-f", "{" + fn + "}", "--class", "I", "-p", "1", "--grid", "64"] + b, 0),
        (["certify", "-f", "{l}", "--class", "Lp", "-p", "1", "--grid", "64",
          "--horizon", draw(_number(0.5, 20.0))], 0),
        (["bound", "-f", "{" + fn + "}", "-d", "{d}", "-p", "1", "--grid", "64",
          "--kind", draw(st.sampled_from(["lower", "upper"]))], 2 if fn == "i" else 0),
        (["hh", "-f", "{" + fn + "}", "-p", "2", "--grid", "64"] + b, 2 if fn == "i" else 0),
        (["hh-fractional", "-f", "{f}", "-p", "2", "--grid", "64",
          "--alpha", draw(_number(0.25, 3.0))], 0),
        (["mgf", "-d", "{d}", "-p", "2", "-s", draw(_number(0.0, 3.0))], 0),
        (["rl", "-f", "{f}", "--alpha", draw(_number(0.25, 3.0)),
          "-x", draw(_number(0.125, 1.0))], 0),
        (["em-demo", "--samples", "8", "--dims", "3", "--iters", "2"], 0),
    ]))


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def descriptors(tmp_path_factory):
    root = tmp_path_factory.mktemp("descriptors")
    files = {"f": {"family": "shifted-power", "params": {"q": 3.0, "a": 0.0},
                   "domain": [0.0, 1.0]},
             "i": {"family": "shifted-power", "params": {"q": 1.0, "a": 0.0},
                   "domain": [0.0, 1.0]},
             "l": {"family": "shifted-power", "params": {"q": 2.0, "a": 0.0},
                   "domain": [0.0, "inf"]},
             "d": {"kind": "discrete", "atoms": [0.0, 1.0], "probs": [0.5, 0.5]}}
    for name, payload in files.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    return {"{" + name + "}": str(root / f"{name}.json") for name in files}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_cli_call(), min_size=1, max_size=6))
def test_exit_codes_and_bytes_on_one_cached_parser(descriptors, calls):
    """A sequence of calls on one shared parser gives the exit codes and
    output bytes each call gives on a parser of its own; exit 2 is only a
    failing certificate, and every usage error or non-finite number is 1.
    Usage and help text go to the streams current at the call."""
    argvs = [[descriptors.get(tok, tok) for tok in argv] for _, argv, _ in calls]
    _build_parser.cache_clear()
    shared = [_call(argv) for argv in argvs]
    assert _build_parser.cache_info().misses == 1
    for argv, (kind, _, want), got in zip(argvs, calls, shared):
        code, out, err = got
        assert code == want, (argv, err)
        assert (code == 2) == err.startswith("certificate failed"), (argv, err)
        if kind in ("usage", "help"):
            assert (out if kind == "help" else err).startswith("usage: pconvex"), argv
        _build_parser.cache_clear()
        assert _call(argv) == got, argv
