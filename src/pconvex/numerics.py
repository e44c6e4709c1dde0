"""Shared numerical kernels.

Gamma function (Lanczos), Gauss-Legendre / Gauss-Jacobi / adaptive-Simpson
quadrature, stable shifted p-norm arithmetic, safeguarded monotone
inversion, and Richardson-extrapolated finite differences.

Everything here is a pure function of its inputs; plan and tolerance
objects are immutable, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    RangeOverflowError,
)

__all__ = [
    "QuadraturePlan",
    "QuadratureResult",
    "ToleranceProfile",
    "DEFAULT_PLAN",
    "DEFAULT_TOLERANCES",
    "fd_derivative",
    "gamma",
    "log_gamma",
    "integrate",
    "integrate_jacobi",
    "invert_monotone",
    "pnorm_shifted",
]

_RULES = ("gauss-legendre", "gauss-jacobi", "adaptive-simpson")


@dataclass(frozen=True)
class ToleranceProfile:
    """Package-wide numeric tolerances.

    eq_abs / eq_rel:
        absolute / relative tolerance for equality-style comparisons
        (root finding targets, support membership).
    certify_slack:
        slack granted when testing ">= 0" conditions on grids; multiplied
        by 1e3 when a function only has finite-difference derivatives.
    fd_step:
        base step for finite differences (scaled per derivative order).
    """

    eq_abs: float = 1e-10
    eq_rel: float = 1e-9
    certify_slack: float = 1e-8
    fd_step: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("eq_abs", "eq_rel", "certify_slack", "fd_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"ToleranceProfile.{name} must be positive and finite")


@dataclass(frozen=True)
class QuadraturePlan:
    """How to evaluate an integral.

    rule:
        "gauss-legendre" (default; panel-doubling refinement verified by one
        adaptive-Simpson pass), "gauss-jacobi" (endpoint power-law weight
        absorbed into the rule), or "adaptive-simpson".
    node_count:
        nodes per panel (Gauss rules) or initial subdivision hint.
    abs_tolerance:
        requested absolute error.
    max_refinements:
        panel/node doublings (or recursion depth) before giving up.
    weight_exponent:
        for gauss-jacobi: the weight is (t - a)^(weight_exponent - 1) or
        (b - t)^(weight_exponent - 1); must be > 0.
    """

    rule: str = "gauss-legendre"
    node_count: int = 64
    abs_tolerance: float = 1e-10
    max_refinements: int = 12
    weight_exponent: float | None = None

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise DomainError(f"unknown quadrature rule {self.rule!r}; allowed: {_RULES}")
        if self.node_count < 2:
            raise DomainError("node_count must be >= 2")
        if self.abs_tolerance < 0.0:
            raise DomainError("abs_tolerance must be >= 0")
        if self.max_refinements < 0:
            raise DomainError("max_refinements must be >= 0")
        if self.rule == "gauss-jacobi":
            if self.weight_exponent is None or not self.weight_exponent > 0.0:
                raise DomainError("gauss-jacobi plans need weight_exponent > 0")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    refinements: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_estimate", float(self.error_estimate))

    def __float__(self) -> float:
        return self.value


DEFAULT_TOLERANCES = ToleranceProfile()
DEFAULT_PLAN = QuadraturePlan()


def _order(p: int, least: int = 1) -> int:
    """An integer order p >= least (the order arguments of every bound)."""
    p = int(p)
    if p < least:
        raise DomainError(f"order p must be >= {least}, got {p}")
    return p


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

GAMMA_MAX_ARG = 170.0


def gamma(x: float) -> float:
    """Gamma function for real x > 0.

    Relative error stays below 1e-12 on (0, 170]; arguments above 170 are
    rejected because the result would leave double range.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    if x > GAMMA_MAX_ARG:
        raise RangeOverflowError(f"gamma({x}) exceeds double range (x > {GAMMA_MAX_ARG})")
    if x < 0.5:
        # Reflection keeps the Lanczos series in its accurate region.
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    log_pow = (z + 0.5) * math.log(t)
    if log_pow < 650.0:
        return math.sqrt(2.0 * math.pi) * (t ** (z + 0.5)) * math.exp(-t) * acc
    # Large arguments: combine the exponents before exponentiating so the
    # intermediate power cannot overflow while the result still fits.
    return math.sqrt(2.0 * math.pi) * math.exp(log_pow - t) * acc


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, valid far beyond the overflow cap of gamma().

    Used for ratios of large gamma values, which stay small after the log
    differences cancel.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=256)
def _jacgauss(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = roots_jacobi(n, alpha, beta)
    return np.asarray(nodes), np.asarray(weights)


def _eval_nodes(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on a node array, looping when f is scalar-only."""
    try:
        vals = np.asarray(f(xs), dtype=float)
    except (TypeError, ValueError):
        vals = np.asarray([float(f(float(x))) for x in xs])
    if vals.shape != xs.shape:
        vals = np.asarray([float(f(float(x))) for x in xs])
    return vals


def _gl_panels(f: Callable, a: float, b: float, n: int, panels: int) -> float:
    nodes, weights = _leggauss(n)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        h = 0.5 * (hi - lo)
        xs = 0.5 * (hi + lo) + h * nodes
        total += h * float(np.sum(weights * _eval_nodes(f, xs)))
    return total


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float, max_depth: int) -> tuple[float, float, bool]:
    """Classic adaptive Simpson with Richardson correction.

    Returns (value, error_estimate, converged).
    """
    fa, fb = float(f(a)), float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = _simpson(fa, fm, fb, b - a)

    def recurse(lo, flo, hi, fhi, mid, fmid, s, eps, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = float(f(lm)), float(f(rm))
        left = _simpson(flo, flm, fmid, mid - lo)
        right = _simpson(fmid, frm, fhi, hi - mid)
        delta = left + right - s
        if depth <= 0:
            return left + right + delta / 15.0, abs(delta) / 15.0, abs(delta) <= 15.0 * eps
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0, abs(delta) / 15.0, True
        lv, le, lok = recurse(lo, flo, mid, fmid, lm, flm, left, eps / 2.0, depth - 1)
        rv, re, rok = recurse(mid, fmid, hi, fhi, rm, frm, right, eps / 2.0, depth - 1)
        return lv + rv, le + re, lok and rok

    return recurse(a, fa, b, fb, m, fm, whole, max(tol, 1e-15), max_depth)


def integrate(f: Callable, a: float, b: float,
              plan: QuadraturePlan = DEFAULT_PLAN) -> QuadratureResult:
    """Integrate f over [a, b] to the plan's absolute tolerance.

    The default rule runs panel-doubled Gauss-Legendre and verifies against
    one adaptive-Simpson pass; a persistent mismatch raises ConvergenceError
    carrying the best estimate.  f must be finite on the closed interval
    (use integrate_jacobi when an endpoint carries a power-law singularity).
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DomainError(f"integrate requires a < b, got [{a}, {b}]")
    if plan.rule == "gauss-jacobi":
        if plan.weight_exponent is None:
            raise DomainError("gauss-jacobi plan without weight_exponent")
        return integrate_jacobi(f, a, b, plan.weight_exponent, "left", plan)

    tol = plan.abs_tolerance
    if plan.rule == "adaptive-simpson":
        value, err, ok = _adaptive_simpson(f, a, b, tol, max(plan.max_refinements, 1) + 40)
        if not ok and err > tol:
            raise ConvergenceError("adaptive Simpson did not converge", value, err)
        return QuadratureResult(value, err)

    # gauss-legendre with adaptive-simpson verification
    best = _gl_panels(f, a, b, plan.node_count, 1)
    step = math.inf
    refinements = 0
    panels = 1
    while refinements < plan.max_refinements:
        panels *= 2
        refinements += 1
        nxt = _gl_panels(f, a, b, plan.node_count, panels)
        step = abs(nxt - best)
        best = nxt
        if step <= 0.25 * max(tol, 1e-15):
            break
    verify, verify_err, _ = _adaptive_simpson(f, a, b, max(tol, 1e-12), 48)
    err = min(abs(best - verify) + verify_err, step if math.isfinite(step) else math.inf)
    if err > max(tol, 1e-15) and abs(best - verify) > max(tol, 1e-15):
        raise ConvergenceError(
            f"quadrature mismatch {abs(best - verify):.3e} exceeds tolerance {tol:.1e}",
            best, err)
    return QuadratureResult(best, err, refinements)


# Relative floor of the Gauss-Jacobi stopping rule: the rounding error of
# the nodes and weights grows with the node count, so for integrals much
# larger than one a purely absolute tolerance is never met.
JACOBI_RTOL = 1e-10


def integrate_jacobi(g: Callable, a: float, b: float, alpha: float, side: str,
                     plan: QuadraturePlan = DEFAULT_PLAN) -> QuadratureResult:
    """Integrate a power-law-weighted integrand without sampling the weight.

    side="left"  computes  integral of (t - a)^(alpha-1) * g(t) dt over [a, b];
    side="right" computes  integral of (b - t)^(alpha-1) * g(t) dt over [a, b].

    The singular factor is absorbed into Gauss-Jacobi nodes, so g itself is
    only ever evaluated at interior points.  Convergence is assessed by node
    doubling, against the plan's absolute tolerance or JACOBI_RTOL relative
    to the estimate, whichever is looser.
    """
    a, b = float(a), float(b)
    alpha = float(alpha)
    if not a < b:
        raise DomainError(f"integrate_jacobi requires a < b, got [{a}, {b}]")
    if not alpha > 0.0:
        raise DomainError(f"weight exponent alpha must be > 0, got {alpha}")
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")

    # scipy weight convention: (1-x)^aj (1+x)^bj on [-1, 1].
    aj, bj = (0.0, alpha - 1.0) if side == "left" else (alpha - 1.0, 0.0)
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    scale = h ** alpha

    def estimate(n: int) -> float:
        nodes, weights = _jacgauss(n, aj, bj)
        xs = mid + h * nodes
        return scale * float(np.sum(weights * _eval_nodes(g, xs)))

    tol = plan.abs_tolerance
    n = max(plan.node_count, 2)
    best = estimate(n)
    err = math.inf
    refinements = 0
    while refinements < plan.max_refinements:
        n *= 2
        refinements += 1
        nxt = estimate(n)
        err = abs(nxt - best)
        best = nxt
        if err <= max(tol, JACOBI_RTOL * abs(best), 1e-15):
            return QuadratureResult(best, err, refinements)
    raise ConvergenceError(
        f"gauss-jacobi did not converge (last step {err:.3e})", best, err)


# ---------------------------------------------------------------------------
# Norm arithmetic
# ---------------------------------------------------------------------------


def pnorm_shifted(moment_p1: float, order: int, scale: float = 1.0) -> float:
    """Recover a shifted p-norm from a pre-scaled moment.

    The caller supplies moment_p1 = E ((X - a) / scale)^order, with scale
    chosen as (sup X - a) so the averaged quantity lives in [0, 1] and no
    intermediate power can overflow for order <= 64.  The norm is then
    scale * moment_p1^(1/order).
    """
    if order < 1 or order != int(order):
        raise DomainError(f"order must be an integer >= 1, got {order}")
    moment_p1 = float(moment_p1)
    if moment_p1 < 0.0:
        raise DomainError(f"moment must be >= 0, got {moment_p1}")
    if scale < 0.0:
        raise DomainError(f"scale must be >= 0, got {scale}")
    if moment_p1 == 0.0:
        return 0.0
    return scale * moment_p1 ** (1.0 / int(order))


# ---------------------------------------------------------------------------
# Monotone inversion
# ---------------------------------------------------------------------------

_BRACKET_SPAN_LIMIT = 2.0 ** 40


def invert_monotone(f: Callable[[float], float], y: float,
                    bracket: tuple[float, float] | None = None,
                    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
                    max_iter: int = 200) -> float:
    """Solve f(x) = y for a strictly increasing f.

    Bisection safeguarded with secant steps; deterministic for fixed inputs.
    Iterates until |f(x) - y| <= eq_abs + eq_rel |y| and the bracket has
    collapsed to relative width ~1e-14, so downstream identities (e.g. exact
    certainty equivalents of pure powers) hold to near machine precision.
    """
    y = float(y)
    if bracket is None:
        lo, hi = 0.0, 1.0
        flo, fhi = float(f(lo)), float(f(hi))
        span = 1.0
        while flo > y and span < _BRACKET_SPAN_LIMIT:
            lo -= span
            span *= 2.0
            flo = float(f(lo))
        while fhi < y and span < _BRACKET_SPAN_LIMIT:
            hi += span
            span *= 2.0
            fhi = float(f(hi))
        if flo > y or fhi < y:
            raise BracketError(f"could not bracket y={y} within span 2^40")
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not lo <= hi:
            raise BracketError(f"invalid bracket [{lo}, {hi}]")
        flo, fhi = float(f(lo)), float(f(hi))
        slack = tolerances.eq_abs + tolerances.eq_rel * abs(y)
        if y < flo - slack or y > fhi + slack:
            raise BracketError(
                f"target y={y} outside [f(lo), f(hi)] = [{flo}, {fhi}]")
        y = min(max(y, flo), fhi)

    f_tol = tolerances.eq_abs + tolerances.eq_rel * abs(y)
    x, fx = lo, flo
    for _ in range(max_iter):
        if abs(fhi - flo) > 0.0:
            cand = lo + (y - flo) * (hi - lo) / (fhi - flo)
        else:
            cand = 0.5 * (lo + hi)
        width = hi - lo
        if not (lo + 0.01 * width <= cand <= hi - 0.01 * width):
            cand = 0.5 * (lo + hi)
        x = cand
        fx = float(f(x))
        if fx < y:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)) and abs(fx - y) <= f_tol:
            break
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            break
    return 0.5 * (lo + hi) if abs(fx - y) > f_tol else x


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

_CENTRAL_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _central_diff(f: Callable[[float], float], x: float, k: int, h: float) -> float:
    acc = 0.0
    for offset, coeff in _CENTRAL_STENCILS[k]:
        acc += coeff * float(f(x + offset * h))
    return acc / h ** k


def fd_derivative(f: Callable[[float], float], x: float, k: int,
                  base_step: float = DEFAULT_TOLERANCES.fd_step) -> float:
    """k-th derivative (k in 1..4) by central differences plus one
    Richardson extrapolation step, giving O(h^4) truncation in the
    (order-scaled) base step.

    The step grows with k to balance truncation against rounding noise;
    accuracy degrades gracefully rather than raising.
    """
    if k not in _CENTRAL_STENCILS:
        raise DomainError(f"fd_derivative supports orders 1..4, got {k}")
    x = float(x)
    h = base_step ** (4.0 / (k + 4.0)) * (1.0 + abs(x))
    coarse = _central_diff(f, x, k, h)
    fine = _central_diff(f, x, k, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0
