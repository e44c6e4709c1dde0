"""Command-line front end.

JSON descriptors in, CSV/JSON/SVG reports out; no interactive mode.  Runs
that draw random numbers are seeded (--seed, default 42) and identical
inputs plus seed produce byte-identical artifacts, so reports are diff-able
in CI.  --out, --dump-canonical and --plot rewrite the named file in place
(links and permissions kept); a non-regular target is written, not
truncated.

Exit codes: 0 for success (a certification run that *reports* verdict=fail
is still a successful run), 2 when a bound is invoked with a certificate
that fails (scripts can pipeline certification before bounding), and 1 for
malformed input, usage errors and non-finite numbers included, an
unreadable input or unwritable output file, or numeric failures.

Every task is one entry of a table that declares its flags, its
certification step (if any), how it computes its report and how it renders
it; the parser, the canonical problem files and the runner are all built
from that table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import convexity, hermite, jensen, mgf, risk
from .distributions import (
    distribution_from_descriptor,
    distribution_to_descriptor,
)
from .errors import (
    CertificateError,
    ContradictionError,
    DomainError,
    InputFormatError,
    PconvexError,
)
from .functions import (
    FunctionSpec,
    function_from_descriptor,
)
from .numerics import _integer, _order
from .svgplot import render_lines

__all__ = ["main", "run_problem"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAILED = 2

PROBLEM_VERSION = 1
_PROBLEM_FIELDS = {"version", "task", "function", "distribution", "params"}
# fields older problem files carried, with where their value lives now
_REMOVED_FIELD_HINTS = {
    "tolerances": " (tolerance profiles are gone; set the slack with the params key 'slack')"}
SWEEP_GRID = 512


def _fmt(x: Any) -> str:
    """17-significant-digit decimal rendering for CSV cells."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: CRLF line endings, '.' decimals
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _json_text(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write text to path in place: the file is opened without O_TRUNC and,
    when it is a regular file, cut at the end of the text, so an existing
    artifact keeps its inode, links and mode, and a device or FIFO is
    written but never truncated."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                  newline="") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


@dataclass
class Problem:
    """Canonical in-memory form of one task invocation."""

    task: str
    function: Mapping[str, Any] | None = None
    distribution: Mapping[str, Any] | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict:
        out: dict[str, Any] = {"version": PROBLEM_VERSION, "task": self.task,
                               "params": dict(self.params)}
        if self.function is not None:
            out["function"] = dict(self.function)
        if self.distribution is not None:
            out["distribution"] = dict(self.distribution)
        return out

    def dump(self, path: str) -> None:
        _write_text(path, _json_text(self.canonical()))

    @staticmethod
    def load(raw: Mapping[str, Any]) -> "Problem":
        """The problem a file holds; a field that nothing reads is an input
        error, not ignored."""
        if not isinstance(raw, Mapping):
            raise InputFormatError("problem file must be a JSON object")
        unknown = sorted(set(raw) - _PROBLEM_FIELDS)
        if unknown:
            hint = _REMOVED_FIELD_HINTS.get(unknown[0], "")
            raise InputFormatError(f"problem file: unknown field {unknown[0]!r}{hint}")
        if raw.get("version") != PROBLEM_VERSION:
            raise InputFormatError(
                f"problem file: field 'version' must be {PROBLEM_VERSION}")
        task = raw.get("task")
        if task not in _TASKS:
            raise InputFormatError(f"problem file: unknown task {task!r}")
        if not isinstance(raw.get("params", {}), Mapping):
            raise InputFormatError("problem file: field 'params' must be an object")
        return Problem(task=task, function=raw.get("function"),
                       distribution=raw.get("distribution"),
                       params=dict(raw.get("params", {})))

    # -- lazy accessors -----------------------------------------------------

    def function_spec(self) -> FunctionSpec:
        if self.function is None:
            raise InputFormatError(f"task {self.task}: missing function descriptor (-f)")
        return function_from_descriptor(self.function)

    def rv(self):
        if self.distribution is None:
            raise InputFormatError(f"task {self.task}: missing distribution (-d)")
        return distribution_from_descriptor(self.distribution)


def _interval(params: Mapping[str, Any], f: FunctionSpec) -> tuple[float, float]:
    a = params.get("a")
    b = params.get("b")
    a = f.domain[0] if a is None else float(a)
    b = f.upper_cap if b is None else float(b)
    return a, b


# ---------------------------------------------------------------------------
# Certification and the certified tasks
# ---------------------------------------------------------------------------


def _certify(problem: Problem, args: argparse.Namespace, f: FunctionSpec,
             klass: str, p: int) -> convexity.ConvexityCertificate:
    if klass == "Lp":
        horizon = 10.0 if args.horizon is None else args.horizon
        return convexity.certify_loss_class(f, p, horizon, args.grid, args.slack)
    a, b = _interval(vars(args), f)
    if klass == "I":
        return convexity.certify_p_convex(f, p, a, b, args.grid, args.slack)
    return convexity.certify_p_concave(f, p, a, b, args.grid, args.slack)


def _certify_class(args: argparse.Namespace) -> tuple[str, int]:
    """The certify task's class and order.  Classes I and D take the
    interval (-a, -b) and Lp takes --horizon; a flag of the other kind is
    an input error, not ignored."""
    given = {"-a": args.a, "-b": args.b} if args.klass == "Lp" else {"--horizon": args.horizon}
    stray = [name for name, value in given.items() if value is not None]
    if stray:
        raise InputFormatError(
            f"certify --class {args.klass} does not take {', '.join(stray)}")
    return args.klass, args.p


_BOUNDS = {"lower": "jensen_lower", "upper": "jensen_upper",
           "lower-decreasing": "jensen_lower_decreasing"}


def _bound(problem: Problem, args: argparse.Namespace, f: FunctionSpec,
           cert) -> jensen.BoundReport:
    bound = getattr(jensen, _BOUNDS[args.kind])
    return bound(f, cert, problem.rv())


_BOUND_HEADER = ("kind", "p", "a", "b", "value", "oracle", "classical",
                 "gap_to_oracle", "gap_to_classical")


def _bound_row(rep: jensen.BoundReport) -> tuple:
    return (rep.kind, rep.p, rep.interval[0], rep.interval[1], rep.value,
            rep.oracle, rep.classical, rep.gap_to_oracle, rep.gap_to_classical)


_HH_HEADER = ("p", "alpha", "a", "b", "lower", "mid", "upper",
              "classical_lower", "classical_upper", "lower_gap", "upper_gap")


def _hh_row(rep: hermite.HHReport) -> tuple:
    return (rep.p, "" if rep.alpha is None else rep.alpha,
            rep.interval[0], rep.interval[1], rep.lower, rep.mid, rep.upper,
            rep.classical_lower, rep.classical_upper,
            rep.mid - rep.lower, rep.upper - rep.mid)


# ---------------------------------------------------------------------------
# Uncertified tasks
# ---------------------------------------------------------------------------


def _risk_measure(problem: Problem, args: argparse.Namespace) -> dict:
    rep = risk.risk_measure(problem.rv(), args.p)
    return {"task": "risk-measure", "p": rep.p,
            "distribution": rep.distribution,
            "closed_form": rep.closed_form,
            "sweep_infimum": rep.sweep_infimum,
            "achiever": rep.achiever,
            "candidates": list(rep.candidates)}


def _risk_compare(problem: Problem, args: argparse.Namespace) -> dict:
    l = problem.function_spec()
    f = function_from_descriptor(args.baseline)
    comp = risk.certify_p_more_risk_averse(l, f, args.p, args.horizon, slack=args.slack)
    directed = comp.certificate.witness.point if comp.certificate.witness else None
    hit = risk.falsify_p_more_risk_averse(l, f, args.p, args.trials, args.seed,
                                          args.horizon, directed_from=directed)
    if comp.holds and hit is not None:
        raise ContradictionError(
            f"the certificate that {l.label} is {args.p}-more risk averse than {f.label} "
            f"passes, but the falsifier found a violating lottery: atoms "
            f"{list(hit.lottery.atoms)} with probabilities {list(hit.lottery.probs)}, "
            f"threshold {hit.threshold!r}, margin {hit.margin!r}")
    payload: dict[str, Any] = {
        "task": "risk-compare", "p": args.p,
        "loss": l.label, "baseline": f.label,
        "holds": comp.holds,
        "certificate": convexity.certificate_to_dict(comp.certificate),
    }
    if hit is not None:
        payload["falsifier"] = {
            "lottery": distribution_to_descriptor(hit.lottery),
            "threshold": hit.threshold,
            "margin": hit.margin,
        }
    return payload


def _mgf(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    X = problem.rv()
    s, p = args.s, args.p
    rows = []
    if args.kind in ("lower", "both"):
        rep = mgf.mgf_lower(X, s, p)
        rows.append(("lower", s, p, rep.lower, rep.exact, rep.exact - rep.lower))
    if args.kind in ("upper", "both"):
        rep = mgf.mgf_upper(X, s, p)
        rows.append(("upper", s, p, rep.upper, rep.exact, rep.upper - rep.exact))
    return rows


def _amgm(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    X = problem.rv()
    value = mgf.am_gm_lower(X, args.p)
    mean = X.mean()
    return [(args.p, value, mean, mean - value)]


def _em_demo(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    data = mgf.generate_mixture_data(args.samples, args.dims, args.seed)
    return list(mgf.em_demo(data, args.iters, args.seed).rows)


def _rl(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    f = problem.function_spec()
    value = hermite.rl_integral(f, args.alpha, args.side, args.x,
                                _interval(vars(args), f))
    return [(args.alpha, args.side, args.x, value)]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep_hh(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    desc = problem.function or {"family": "shifted-power",
                                "params": {"q": 8.0, "a": 0.0}, "domain": [0.0, 1.0]}
    f = function_from_descriptor(desc)
    a, b = f.domain[0], f.upper_cap

    def cell(p: int) -> tuple:
        cert = convexity.certify_p_convex(f, p - 1, a, b, SWEEP_GRID, args.slack)
        rep = hermite.hh_bounds(f, cert, p)
        return (p, rep.mid - rep.lower, rep.upper - rep.mid)

    return [cell(p) for p in range(1, (args.p_max or 6) + 1)]


def _sweep_jensen(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    desc = problem.function or {"family": "shifted-power",
                                "params": {"q": 6.0, "a": 0.0}, "domain": [0.0, 1.0]}
    f = function_from_descriptor(desc)
    dist = problem.distribution or {"kind": "discrete", "atoms": [0.0, 0.5, 1.0],
                                    "probs": [0.25, 0.5, 0.25]}
    X = distribution_from_descriptor(dist)
    a, b = f.domain[0], f.upper_cap

    def cell(p: int) -> tuple:
        cert = convexity.certify_p_convex(f, p, a, b, SWEEP_GRID, args.slack)
        lo = jensen.jensen_lower(f, cert, X)
        hi = jensen.jensen_upper(f, cert, X)
        return (p, lo.gap_to_oracle, hi.gap_to_oracle)

    return [cell(p) for p in range(1, (args.p_max or 4) + 1)]


def _sweep_mgf(problem: Problem, args: argparse.Namespace) -> list[tuple]:
    dist = problem.distribution or {"kind": "discrete", "atoms": [0.0, 1.0],
                                    "probs": [0.5, 0.5]}
    X = distribution_from_descriptor(dist)
    p = 2 if args.p is None else args.p

    def cell(s: float) -> tuple:
        lo = mgf.mgf_lower(X, s, p)
        hi = mgf.mgf_upper(X, s, p)
        return (s, lo.exact - lo.lower, hi.upper - hi.exact)

    return [cell(0.25 * k) for k in range(13)]


# suite -> (its first column, its rows, the inputs it reads but --slack, --plot)
_SUITES = {"hh": ("p", _sweep_hh, ("-f", "--p-max")),
           "jensen": ("p", _sweep_jensen, ("-f", "-d", "--p-max")),
           "mgf": ("s", _sweep_mgf, ("-d", "-p"))}


def _sweep(problem: Problem, args: argparse.Namespace) -> str:
    """The suite's CSV (and plot); an input it does not read, or a --p-max
    below 1, is an input error."""
    column, suite, reads = _SUITES[args.suite]
    given = {"-f": problem.function, "-d": problem.distribution, "-p": args.p,
             "--p-max": args.p_max}
    stray = [name for name, value in given.items() if value is not None and name not in reads]
    if stray:
        raise InputFormatError(f"sweep --suite {args.suite} does not take {', '.join(stray)}")
    if args.p_max is not None:
        _integer(args.p_max, 1, "--p-max")
    header, rows = (column, "lower_gap", "upper_gap"), suite(problem, args)
    if args.plot:
        series = {name: [row[i] for row in rows] for i, name in enumerate(header[1:], 1)}
        _write_text(args.plot, render_lines(column, [row[0] for row in rows], series,
                                            f"{args.suite} sweep"))
    return _write_csv(header, rows)


# ---------------------------------------------------------------------------
# The task table
# ---------------------------------------------------------------------------


class _Flag(NamedTuple):
    """One task flag: argparse names and options, and the params key its
    value is stored under (the dest unless given), read through `load`."""

    names: tuple[str, ...]
    options: dict
    param: str | None = None
    load: Callable[[Any], Any] | None = None

    @property
    def dest(self) -> str:
        return self.options.get("dest") or self.names[-1].lstrip("-").replace("-", "_")

    @property
    def key(self) -> str:
        return self.param or self.dest


def _flag(*names: str, param: str | None = None, load=None, **options) -> _Flag:
    return _Flag(names, options, param, load)


def _csv(header: Sequence[str], row: Callable[[Any], tuple] | None = None):
    """Formatter for a fixed CSV header: one report through `row`, or rows."""
    return lambda result: _write_csv(header, [row(result)] if row else result)


@dataclass(frozen=True)
class _Task:
    """One subcommand.  `run(problem, args)` computes the report and
    `format` renders it.  With `certify`, which maps the args to the
    (class, order) to certify, `run(problem, args, f, certificate)` follows
    the certification and a CertificateError from it exits 2."""

    command: tuple[str, ...]
    help: str
    inputs: str  # descriptor flags it takes: "f" (-f) and/or "d" (-d)
    flags: tuple[_Flag, ...]
    run: Callable[..., Any]
    format: Callable[[Any], str]
    certify: Callable[[argparse.Namespace], tuple[str, int]] | None = None

    def arguments(self, problem: Problem) -> argparse.Namespace:
        """The problem's params as the parser would deliver them: typed,
        defaulted and checked against their choices (problem files do not
        pass through the parser).  A param no flag of the task reads, or a
        descriptor the task does not take, is an input error."""
        unread = sorted(set(problem.params) - {flag.key for flag in self.flags})
        unread += [name for name, letter in (("function", "f"), ("distribution", "d"))
                   if getattr(problem, name) is not None and letter not in self.inputs]
        if unread:
            raise InputFormatError(f"task {problem.task}: nothing reads {unread[0]!r}")
        args = argparse.Namespace()
        for flag in self.flags:
            value = problem.params.get(flag.key)
            opts = flag.options
            if value is None:
                if opts.get("required"):
                    raise InputFormatError(
                        f"task {problem.task}: missing parameter {flag.key!r}")
                value = opts.get("default")
            elif "choices" in opts and value not in opts["choices"]:
                raise InputFormatError(
                    f"task {problem.task}: {flag.key} must be one of "
                    f"{list(opts['choices'])}, got {value!r}")
            elif "type" in opts:
                try:
                    if isinstance(value, bool):  # float(True) is 1.0
                        raise TypeError
                    value = (_integer(value, -math.inf, flag.key) if opts["type"] is int
                             else opts["type"](value))
                except (TypeError, ValueError, DomainError):
                    raise InputFormatError(
                        f"task {problem.task}: bad value {value!r} for {flag.key!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise InputFormatError(
                    f"task {problem.task}: {flag.key} must be finite, got {value}")
            setattr(args, flag.dest, value)
        return args


_P = _flag("-p", type=int, required=True)
_A = _flag("-a", type=float)
_B = _flag("-b", type=float)
_GRID = _flag("--grid", type=int, default=convexity.DEFAULT_GRID)
_SLACK = _flag("--slack", type=float, default=convexity.CERTIFY_SLACK,
               help="certificate slack: a margin >= -slack passes")
_ALPHA = _flag("--alpha", type=float, required=True)
_SEED = _flag("--seed", type=int, default=42)

_TASKS: dict[str, _Task] = {
    "certify": _Task(
        ("certify",), "numerically certify class membership "
                      "(left-anchored I, right-anchored D, loss class Lp)", "f",
        (_flag("--class", dest="klass", required=True, choices=("I", "D", "Lp"),
               param="class"),
         _flag("-p", type=int, required=True, help="certification order"),
         _flag("-a", type=float, help="interval start (default: domain)"),
         _flag("-b", type=float, help="interval end (default: domain)"),
         _flag("--horizon", type=float, help="loss-class horizon (Lp only)"),
         _GRID, _SLACK),
        lambda problem, args, f, cert: convexity.certificate_to_dict(cert),
        _json_text, certify=_certify_class),
    "bound": _Task(
        ("bound",), "tightened Jensen bound on E f(X): the norm-shifted lower "
                    "bound, the moment-weighted endpoint upper bound, or the "
                    "concave-direction variant", "fd",
        (_P, _flag("--kind", choices=tuple(_BOUNDS), default="lower"), _A, _B, _GRID,
         _SLACK),
        _bound, _csv(_BOUND_HEADER, _bound_row),
        certify=lambda args: ("D" if args.kind == "lower-decreasing" else "I", args.p)),
    "risk-measure": _Task(
        ("risk", "measure"), "worst-case certainty equivalent: "
                             "the (p+1)-norm with a certified sweep", "d",
        (_P,), _risk_measure, _json_text),
    "risk-compare": _Task(
        ("risk", "compare"), "certify/falsify that one loss function "
                             "is p-more risk averse than another", "f",
        (_flag("--baseline", metavar="FILE", required=True, load=_load_json,
               help="JSON descriptor of the less risk-averse loss function"),
         _P, _flag("--horizon", type=float, default=10.0),
         _flag("--trials", type=int, default=10_000), _SEED, _SLACK),
        _risk_compare, _json_text),
    "mgf": _Task(
        ("mgf",), "moment-based lower/upper bounds on the "
                  "moment generating function E exp(sX)", "d",
        (_flag("-s", type=float, required=True), _P,
         _flag("--kind", choices=("lower", "upper", "both"), default="both")),
        _mgf, _csv(("kind", "s", "p", "value", "exact", "gap"))),
    "amgm": _Task(
        ("amgm",), "generalized arithmetic-geometric-mean lower "
                   "bound on E X from moments of ln X", "d",
        (_P,), _amgm, _csv(("p", "value", "mean", "gap"))),
    "em-demo": _Task(
        ("em-demo",), "Bernoulli-mixture EM logging the exact "
                      "log-likelihood, the classical ELBO and the "
                      "tightened minorant per iteration", "",
        (_flag("--samples", type=int, default=60), _flag("--dims", type=int, default=6),
         _flag("--iters", type=int, default=15), _SEED),
        _em_demo, _csv(("iter", "loglik", "elbo_classical", "elbo_tight"))),
    "hh": _Task(
        ("hh",), "generalized integral-average (Hermite-Hadamard "
                 "type) sandwich for certified functions", "f",
        (_P, _A, _B, _GRID, _SLACK),
        lambda problem, args, f, cert: hermite.hh_bounds(f, cert, args.p),
        _csv(_HH_HEADER, _hh_row), certify=lambda args: ("I", _order(args.p) - 1)),
    "hh-fractional": _Task(
        ("hh-fractional",), "fractional-integral version of the "
                            "integral-average sandwich with the "
                            "gamma-ratio endpoint weight", "f",
        (_P, _ALPHA, _A, _B, _GRID, _SLACK),
        lambda problem, args, f, cert: hermite.fractional_hh_bounds(
            f, cert, args.p, args.alpha),
        _csv(_HH_HEADER, _hh_row), certify=lambda args: ("I", _order(args.p) - 1)),
    "rl": _Task(
        ("rl",), "Riemann-Liouville fractional integral of a "
                 "catalog function at a point", "f",
        (_ALPHA, _flag("--side", choices=("left", "right"), default="left"),
         _flag("-x", type=float, required=True), _A, _B),
        _rl, _csv(("alpha", "side", "x", "value"))),
    "sweep": _Task(
        ("sweep",), "run a bound suite over its parameter grid "
                    "and emit gap curves (CSV, optional SVG)", "fd",
        (_flag("--suite", choices=sorted(_SUITES), default="hh"),
         _flag("-p", type=int, help="fixed order for the mgf suite"),
         _flag("--p-max", type=int, help="top order for hh/jensen suites"),
         _flag("--plot", metavar="FILE", help="also render the gap curves to SVG"),
         _SLACK),
        _sweep, str),
}

_GROUP_HELP = {"risk": "worst-case certainty equivalent over the "
                       "loss class, or graded more-risk-averse comparison"}


def run_problem(problem: Problem, out: str | None = None) -> int:
    task = _TASKS[problem.task]
    args = task.arguments(problem)
    if task.certify is None:
        result = task.run(problem, args)
    else:
        f = problem.function_spec()
        cert = _certify(problem, args, f, *task.certify(args))
        try:
            result = task.run(problem, args, f, cert)
        except CertificateError as exc:
            sys.stderr.write(f"certificate failed: {exc}\n")
            return EXIT_CERT_FAILED
    _emit(task.format(result), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputFormatError (exit 1) instead of exiting 2,
    which is reserved for failing certificates."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputFormatError(f"{self.prog}: {message}")


def _add_common(sub: argparse.ArgumentParser, inputs: str) -> None:
    if "f" in inputs:
        sub.add_argument("-f", "--function", metavar="FILE",
                         help="JSON function descriptor")
    if "d" in inputs:
        sub.add_argument("-d", "--distribution", metavar="FILE",
                         help="JSON distribution descriptor")
    sub.add_argument("--out", metavar="FILE", help="write the report here (default stdout)")
    sub.add_argument("--dump-canonical", metavar="FILE",
                     help="also write the canonical problem file for this invocation")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on first use and then shared by every call:
    parsing leaves no state on it (no mutable defaults or append actions,
    and usage and help go to the streams current at call time)."""
    parser = _Parser(
        prog="pconvex",
        description="Certify membership in higher-order convexity classes and "
                    "compute the tightened Jensen, risk, MGF, log-likelihood "
                    "and integral-average bounds they induce.")
    subs = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for name, task in _TASKS.items():
        where = subs
        if len(task.command) == 2:
            group = task.command[0]
            if group not in groups:
                groups[group] = subs.add_parser(group, help=_GROUP_HELP[group]) \
                    .add_subparsers(dest=f"{group}_command", required=True)
            where = groups[group]
        sub = where.add_parser(task.command[-1], help=task.help)
        _add_common(sub, task.inputs)
        for flag in task.flags:
            sub.add_argument(*flag.names, **flag.options)
        sub.set_defaults(task=name)

    s = subs.add_parser("run", help="execute a canonical problem file")
    s.add_argument("problem", metavar="PROBLEM.json")
    s.add_argument("--out", metavar="FILE")
    s.add_argument("--plot", metavar="FILE")
    return parser


def _problem_from_args(args: argparse.Namespace) -> Problem:
    params: dict[str, Any] = {}
    for flag in _TASKS[args.task].flags:
        value = getattr(args, flag.dest)
        if value is not None:
            params[flag.key] = flag.load(value) if flag.load else value
    function = _load_json(args.function) if getattr(args, "function", None) else None
    distribution = (_load_json(args.distribution)
                    if getattr(args, "distribution", None) else None)
    return Problem(task=args.task, function=function, distribution=distribution,
                   params=params)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            problem = Problem.load(_load_json(args.problem))
            if args.plot:
                if not any(flag.key == "plot" for flag in _TASKS[problem.task].flags):
                    raise InputFormatError(f"task {problem.task} takes no --plot")
                problem.params["plot"] = args.plot
            return run_problem(problem, args.out)
        problem = _problem_from_args(args)
        if args.dump_canonical:
            problem.dump(args.dump_canonical)
        return run_problem(problem, args.out)
    except InputFormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_ERROR
    except PconvexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
