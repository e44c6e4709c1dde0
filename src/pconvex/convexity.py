"""Numerical certification of higher-order convexity classes.

Three classes are certified on evaluation grids:

  "I"  - p-convex anchored at the left endpoint: f^(p) convex and increasing
         with f^(k)(a) = 0 for k = 1..p (plain convexity when p = 0).
  "D"  - the companion concave-increasing class anchored at the right
         endpoint: f^(k)(b) = 0 for k = 1..p and alternating derivative
         signs f' >= 0, f'' <= 0, f''' >= 0, ... up to order p+2.
  "Lp" - loss functions with relative curvature l''(x) x >= p l'(x) and
         positive derivatives to order p+2 away from the origin.

A certificate is a numerical verdict over a finite grid with explicit slack,
not a proof; failures always carry a witness (point, condition, margin).
Every order a certificate reads on its grid comes from one call of the
function's jet (FunctionSpec.derivatives_on), and its anchor conditions
from one more at the anchor; an order past the jet raises
DerivativeOrderError, and a complex value DomainError.  The slack is the
one tolerance a caller sets on the producers (CERTIFY_SLACK unless given;
it must be positive and finite, else DomainError); the corroboration checks
take the slack and grid of the certificate they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CertificateError, DomainError
from .functions import FunctionSpec
from .numerics import _integer, _order

__all__ = [
    "CERTIFY_SLACK",
    "ConvexityCertificate",
    "Witness",
    "certificate_to_dict",
    "certify_loss_class",
    "certify_p_concave",
    "certify_p_convex",
    "check_power_transform_convex",
    "check_ratio_monotone",
]

CERTIFY_SLACK = 1e-8
DEFAULT_GRID = 1024


@dataclass(frozen=True)
class Witness:
    point: float
    condition: str
    margin: float


@dataclass(frozen=True)
class ConvexityCertificate:
    """Verdict plus evidence for membership in one of the three classes.

    margins maps each checked condition to its minimum margin; a condition
    holds when its margin >= -slack_used.  verdict == "fail" implies the
    witness records the worst violation.
    """

    klass: str  # "I" | "D" | "Lp"
    p: int
    interval: tuple[float, float]
    grid_size: int
    verdict: str  # "pass" | "fail"
    witness: Witness | None
    slack_used: float
    margins: Mapping[str, float]
    label: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def certificate_to_dict(cert: ConvexityCertificate) -> dict:
    out = {
        "class": cert.klass,
        "p": cert.p,
        "interval": list(cert.interval),
        "grid_size": cert.grid_size,
        "verdict": cert.verdict,
        "slack_used": cert.slack_used,
        "margins": dict(cert.margins),
        "label": cert.label,
    }
    if cert.witness is not None:
        out["witness"] = {"point": cert.witness.point,
                          "condition": cert.witness.condition,
                          "margin": cert.witness.margin}
    return out


def _certify(klass: str, p: int, interval: tuple[float, float], grid_size: int,
             slack: float, label: str,
             checks: list[tuple[str, np.ndarray, np.ndarray]],
             span: tuple[float, float] | None = None) -> ConvexityCertificate:
    """Decide the verdict from an ordered list of (condition, values, points).

    Each condition's margin is its minimum value (the first NaN, if any, and
    the first point on ties), except that a +inf at a point strictly inside
    the span the points lie in (the interval unless given) is the margin
    (the first such point) when no value is NaN: a value that left double
    range there decides nothing.  A +inf at an end is allowed, as f''(0) of
    x^1.5.  Values may carry leading axes (one row per member of a stacked
    family) over the points.  A condition fails when its margin is below
    -slack or is not finite; the witness is the first failure with the
    lowest margin, a non-finite margin ranking lowest.
    """
    lo, hi = interval if span is None else span
    margins: dict[str, float] = {}
    worst: Witness | None = None
    for condition, values, points in checks:
        # array methods: np.argmin's dispatch costs more than a grid's scan
        idx = int(values.argmin())
        if values.flat[values.argmax()] == math.inf:  # argmax finds a NaN first
            inner = (values == math.inf) & (points > lo) & (points < hi)
            if inner.any():
                idx = int(inner.argmax())
        margin = float(values.flat[idx])
        margins[condition] = margin
        if math.isfinite(margin) and margin >= -slack:
            continue
        if worst is None or _rank(margin) < _rank(worst.margin):
            worst = Witness(point=float(points[idx % points.size]), condition=condition,
                            margin=margin)
    return ConvexityCertificate(
        klass=klass, p=p, interval=interval, grid_size=int(grid_size),
        verdict="pass" if worst is None else "fail", witness=worst,
        slack_used=slack, margins=margins, label=label)


def _rank(margin: float) -> float:
    return margin if math.isfinite(margin) else -math.inf


def _slack(slack: float) -> float:
    if not 0.0 < slack < math.inf:
        raise DomainError(f"slack must be positive and finite, got {slack}")
    return slack


def _grid(lo: float, hi: float, grid_size: int) -> tuple[np.ndarray, float]:
    """grid_size equal cells of [lo, hi]; grid_size must be an integer >= 2,
    else DomainError."""
    grid_size = _integer(grid_size, 2, "grid_size")
    return np.linspace(lo, hi, grid_size + 1), (hi - lo) / grid_size


def _interval(f: FunctionSpec, a: float, b: float) -> tuple[float, float]:
    """A finite [a, b] with a < b inside f's domain."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")
    lo, hi = f.domain
    if a < lo or b > hi:
        raise DomainError(f"[{a}, {b}] leaves the domain [{lo}, {hi}] of {f.label}")
    return a, b


def _point(condition: str, margin: float, x: float) -> tuple[str, np.ndarray, np.ndarray]:
    return condition, np.array([margin]), np.array([x])


def _anchor(f: FunctionSpec, p: int, x: float, end: str) -> list:
    """The conditions f^(k)(x) = 0 for k = 1..p at the anchor x, from one
    jet call; none, and no call, for p = 0."""
    if not p:
        return []
    return [_point(f"boundary f^({k})({end})=0", -abs(float(d)), x)
            for k, d in zip(range(1, p + 1), f.derivatives_on(x, 1, p))]


def _second_differences(values: np.ndarray, h: float) -> np.ndarray:
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)


def certify_p_convex(f: FunctionSpec, p: int, a: float, b: float,
                     grid_size: int = DEFAULT_GRID,
                     slack: float = CERTIFY_SLACK) -> ConvexityCertificate:
    """Certify membership in the left-anchored class at order p on [a, b].

    Conditions checked (each to within the slack):
      1. f^(k)(a) = 0 for k = 1..p,
      2. f^(p+1) >= 0 on the grid (f^(p) increasing),
      3. f^(p+2) >= 0 on the grid (f^(p) convex).

    For p = 0 only plain convexity is checked.
    """
    p = _order(p, 0)
    a, b = _interval(f, a, b)
    xs, _ = _grid(a, b, grid_size)

    checks = _anchor(f, p, a, "a")
    first = max(2, p + 1)
    for k, values in enumerate(f.derivatives_on(xs, first, p + 2), start=first):
        name = "convexity" if k == p + 2 else "increasing"
        checks.append((f"{name} f^({k})>=0", values, xs))
    return _certify("I", p, (a, b), grid_size, _slack(slack), f.label, checks)


def certify_p_concave(f: FunctionSpec, p: int, a: float, b: float,
                      grid_size: int = DEFAULT_GRID,
                      slack: float = CERTIFY_SLACK) -> ConvexityCertificate:
    """Certify the right-anchored concave-increasing class at order p.

    Checked: f^(k)(b) = 0 for k = 1..p, and the alternating sign pattern
    f^(1) >= 0, f^(2) <= 0, f^(3) >= 0, ... through order p+2 on the grid.
    This is the sign convention the downstream likelihood bound actually
    uses; the mirrored all-decreasing convention is not implemented.
    """
    p = _order(p, 1)
    a, b = _interval(f, a, b)
    xs, _ = _grid(a, b, grid_size)

    checks = _anchor(f, p, b, "b")
    for k, values in enumerate(f.derivatives_on(xs, 1, p + 2), start=1):
        sign = 1.0 if k % 2 == 1 else -1.0
        checks.append((f"sign (-1)^({k}+1) f^({k})>=0", sign * values, xs))
    return _certify("D", p, (a, b), grid_size, _slack(slack), f.label, checks)


def certify_loss_class(l: FunctionSpec, p: int, horizon: float,
                       grid_size: int = DEFAULT_GRID,
                       slack: float = CERTIFY_SLACK) -> ConvexityCertificate:
    """Certify the relative-curvature loss class at order p on [0, horizon].

    Conditions: l''(x) x - p l'(x) >= 0 on the grid, and l^(k)(x) >= 0
    for k = 1..p+2 at grid points x > 1e-6.  The curvature margin is taken
    relative to the size of its two terms, |l''(x) x| + |p l'(x)| (when
    that exceeds 1): they grow like horizon^(d-1) for a degree-d power, and
    their rounding alone would otherwise fail true members at large
    horizons.  The literal class uses strict positivity; reading it as
    >= 0 admits pure powers whose top derivatives vanish identically, which
    the closed-form achiever needs.
    A horizon that leaves no grid point above 1e-6 raises DomainError.
    l may be a stacked family, whose evaluations carry one row per member
    over the grid: it passes when every member does.
    """
    p = _order(p, 1)
    horizon = float(horizon)
    lo = max(l.domain[0], 0.0)
    if not lo < horizon < math.inf:
        raise DomainError(f"horizon {horizon} must be finite and exceed domain start {lo}")
    xs, _ = _grid(lo, horizon, grid_size)

    interior = xs > 1e-6
    if not np.any(interior):
        raise DomainError(f"horizon {horizon} leaves no grid point above 1e-6")
    derivs = l.derivatives_on(xs, 1, p + 2)
    curvature, scale = derivs[1] * xs, p * derivs[0]
    checks = [("curvature l''(x)x - p l'(x)>=0",
               (curvature - scale) / np.maximum(1.0, abs(curvature) + abs(scale)), xs)]
    xi = xs[interior]
    for k, vals in enumerate(derivs, start=1):
        checks.append((f"positivity l^({k})>=0", vals[..., interior], xi))
    return _certify("Lp", p, (lo, horizon), grid_size, _slack(slack), l.label, checks)


def _require_certificate(cert: ConvexityCertificate, klass: str, where: str,
                         p: int | None = None) -> None:
    """The hypothesis check of every bound: a passing class-`klass`
    certificate, at order p when one is given."""
    if cert.klass != klass:
        raise CertificateError(
            f"{where} needs a class-{klass} certificate, got class {cert.klass}")
    if not cert.passed:
        w = cert.witness
        detail = f" (witness: {w.condition} at x={w.point:.6g})" if w else ""
        raise CertificateError(f"{where} invoked with a failing certificate{detail}")
    if p is not None and cert.p != p:
        raise CertificateError(f"{where} needs certification order {p}, got {cert.p}")


def check_power_transform_convex(f: FunctionSpec,
                                 cert: ConvexityCertificate) -> ConvexityCertificate:
    """Corroborate a certificate by checking convexity of the power transform
    y -> f(a + y^(1/(p+1))) on [0, (b-a)^(p+1)] through second differences.

    This is the substitution that turns the tightened bound into plain
    Jensen, so its discrete convexity is an independent consistency check
    on the certified membership.
    """
    _require_certificate(cert, "I", "check_power_transform_convex")
    a, b = cert.interval
    p, grid_size = cert.p, cert.grid_size
    ys, h = _grid(0.0, (b - a) ** (p + 1), grid_size)
    vals = f.eval_on(a + ys ** (1.0 / (p + 1)), 0)
    scale = max(1.0, float(np.max(np.abs(vals))))
    checks = [("power-transform convexity d2>=0", _second_differences(vals, h), ys[1:-1])]
    return _certify("I", p, (a, b), grid_size, cert.slack_used * scale,
                    f"power-transform[{f.label}]", checks, span=(0.0, ys[-1]))


def check_ratio_monotone(f: FunctionSpec, cert: ConvexityCertificate) -> ConvexityCertificate:
    """Check that g(x) = f(x) / (x - a)^(p+1) is nondecreasing on (a, b).

    Requires f(a) = 0 (within slack).  Near the anchor the raw quotient is
    0/0 noise; when analytic derivatives reach order p+2 the quotient is
    evaluated through its Taylor expansion there, otherwise the first grid
    cell is skipped.
    """
    _require_certificate(cert, "I", "check_ratio_monotone")
    a, b = cert.interval
    p, grid_size = cert.p, cert.grid_size
    slack = cert.slack_used
    xs = _grid(a, b, grid_size)[0][1:]
    fa = float(f(a))
    if not abs(fa) <= slack:
        raise DomainError(f"ratio check needs f(a)=0, got f({a}) = {fa}")

    near = (xs - a) < 1e-4 * (b - a)
    g = np.empty_like(xs)

    far = ~near
    g[far] = f.eval_on(xs[far], 0) / (xs[far] - a) ** (p + 1)
    if np.any(near):
        if f.analytic_depth >= p + 2:
            c1, c2 = f.taylor(a, p + 1, p + 2)
            g[near] = c1 + c2 * (xs[near] - a)
        else:
            g = g[far]
            xs = xs[far]

    diffs = np.diff(g) / np.maximum(1.0, np.abs(g[:-1]))
    checks = [("ratio nondecreasing", diffs, xs[:-1])] if diffs.size else []
    return _certify("I", p, (a, b), grid_size, slack, f"ratio[{f.label}]", checks)
