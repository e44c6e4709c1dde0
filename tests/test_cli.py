"""End-to-end CLI tests: exit codes, artifacts, determinism, round trips."""

from __future__ import annotations

import json
import math

import pytest

from pconvex.cli import main
from pconvex.errors import InputFormatError
from pconvex.svgplot import render_gap_plot


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
            assert main(["sweep", "--suite", "hh", "--seed", "42",
                         "--out", str(csv_path), "--plot", str(svg_path)]) == 0
            outs.append(csv_path.read_bytes())
            svgs.append(svg_path.read_bytes())
        assert outs[0] == outs[1]
        assert svgs[0] == svgs[1]

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

    def test_replay_mgf_task(self, dist_file, tmp_path):
        canon = tmp_path / "p.json"
        direct = tmp_path / "direct.csv"
        replay = tmp_path / "replay.csv"
        assert main(["mgf", "-d", dist_file, "-s", "1.0", "-p", "2",
                     "--dump-canonical", str(canon), "--out", str(direct)]) == 0
        assert main(["run", str(canon), "--out", str(replay)]) == 0
        assert direct.read_bytes() == replay.read_bytes()


class TestGapPlot:
    def test_single_row(self):
        svg = render_gap_plot("p,gap\r\n1,0.5\r\n")
        assert svg.startswith("<svg")
        assert "circle" in svg

    def test_empty_body_rejected(self):
        with pytest.raises(InputFormatError):
            render_gap_plot("p,gap\r\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(InputFormatError):
            render_gap_plot("p,gap\r\n1,oops\r\n")

    def test_deterministic_bytes(self):
        csv_text = "p,lo,hi\r\n1,0.1,0.4\r\n2,0.05,0.3\r\n3,0.02,0.2\r\n"
        assert render_gap_plot(csv_text) == render_gap_plot(csv_text)
