"""Integral-average (Hermite-Hadamard-type) bounds and fractional integrals.

For a member of the left-anchored class at order p-1 on [a, b], the
integral average sits between an interior evaluation point pulled toward b
and an endpoint mix weighted 1/(p+1), both strictly tighter than the
classical midpoint/secant pair.  The fractional variant replaces the plain
average with the symmetric Riemann-Liouville functional and the weight
1/(p+1) with gamma_coefficient(p, alpha); alpha = 1 collapses back to the
plain statement.

Every integral here is numerics.integrate's one rule, to its fixed
absolute tolerance QUADRATURE_TOLERANCE.  The fractional kernels
(t - a)^(alpha-1) are never sampled pointwise: their exponent goes into the
weights of the endpoint-graded quadrature, which handles the singular
alpha < 1 the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import ConvexityCertificate, _require_certificate
from .distributions import expect, fractional_hh_density
from .errors import DomainError, MonotonicityError
from .functions import FunctionSpec, Jet, derivative_function, exp_taylor_remainder
from .numerics import _order, gamma, integrate, log_gamma

__all__ = [
    "HHReport",
    "abs_derivative",
    "derivative_hh_bound",
    "fractional_hh_bounds",
    "fractional_mid_via_density",
    "gamma_coefficient",
    "hh_bounds",
    "rl_integral",
    "taylor_hh",
]

_SIGN_GRID = 512  # cells of the grid abs_derivative checks the sign of f' on


@dataclass(frozen=True)
class HHReport:
    """lower <= mid <= upper, with the classical midpoint/secant comparators."""

    p: int
    interval: tuple[float, float]
    alpha: float | None
    lower: float
    mid: float
    upper: float
    classical_lower: float
    classical_upper: float
    mid_error: float = 0.0


def _interior_point(a: float, b: float, weight: float, p: int) -> float:
    """a + weight^(1/p) (b - a), with the root taken in log space."""
    if weight <= 0.0:
        return a
    t = math.exp(math.log(weight) / p)
    return t * b + (1.0 - t) * a


def hh_bounds(f: FunctionSpec, cert: ConvexityCertificate, p: int) -> HHReport:
    """Generalized integral-average sandwich at order p on the certified
    interval:

        f(b/(p+1)^{1/p} + (1 - (p+1)^{-1/p}) a)
            <= (1/(b-a)) integral of f
            <= p/(p+1) f(a) + 1/(p+1) f(b),

    reported next to the classical midpoint/secant pair (the p = 1 case).
    """
    p = _order(p)
    _require_certificate(cert, "I", "hh_bounds", p - 1)
    a, b = cert.interval
    res = integrate(f.eval_fn, a, b)
    mid = res.value / (b - a)
    lower = float(f(_interior_point(a, b, 1.0 / (p + 1.0), p)))
    fa, fb = float(f(a)), float(f(b))
    upper = (p * fa + fb) / (p + 1.0)
    return HHReport(p=p, interval=(a, b), alpha=None,
                    lower=lower, mid=mid, upper=upper,
                    classical_lower=float(f(0.5 * (a + b))),
                    classical_upper=0.5 * (fa + fb),
                    mid_error=res.error_estimate / (b - a))


def taylor_hh(p: int, b: float) -> tuple[float, float, float]:
    """The exponential-tail instance of the sandwich in closed form:

        T_{p-1}(b / (p+1)^{1/p})  <=  T_p(b) / b  <=  T_{p-1}(b) / (p+1)

    where T_k is the exponential's Taylor tail of order k.
    """
    p = _order(p)
    b = float(b)
    if not 0.0 < b < math.inf:
        raise DomainError(f"b must be finite and > 0, got {b}")
    tail_prev = exp_taylor_remainder(p - 1)
    tail = exp_taylor_remainder(p)
    lower = float(tail_prev(_interior_point(0.0, b, 1.0 / (p + 1.0), p)))
    mid = float(tail(b)) / b
    upper = float(tail_prev(b)) / (p + 1.0)
    return lower, mid, upper


def derivative_hh_bound(f: FunctionSpec, cert: ConvexityCertificate,
                        p: int) -> tuple[float, float]:
    """Trapezoid-vs-average deviation bound for differentiable f whose
    |f'| is certified at order p-1:

        |(f(a)+f(b))/2 - (1/(b-a)) integral f|
            <= (b-a)/4 [ c_p |f'(a)| + (1 - c_p) |f'(b)| ],

    with c_p = 2 (p + 0.5^p) / ((p+1)(p+2)).

    The certificate must cover |f'|; build it with abs_derivative(f), which
    requires f' to be sign-definite on the interval.
    """
    p = _order(p)
    _require_certificate(cert, "I", "derivative_hh_bound", p - 1)
    a, b = cert.interval
    avg = integrate(f.eval_fn, a, b).value / (b - a)
    lhs = abs(0.5 * (float(f(a)) + float(f(b))) - avg)
    c_p = 2.0 * (p + 0.5 ** p) / ((p + 1.0) * (p + 2.0))
    d1a = abs(float(f.eval_on(a, 1)))
    d1b = abs(float(f.eval_on(b, 1)))
    rhs = (b - a) / 4.0 * (c_p * d1a + (1.0 - c_p) * d1b)
    return lhs, rhs


def abs_derivative(f: FunctionSpec) -> FunctionSpec:
    """|f'| as a FunctionSpec, requiring f' sign-definite on the domain.

    Sign changes would break differentiability of |f'| at the zero and are
    rejected (f' is checked at 513 points up to upper_cap); with a definite
    sign the jet is f's shifted by one order, times that sign.
    """
    lo, hi = f.domain[0], f.upper_cap
    xs = np.linspace(lo, hi, _SIGN_GRID + 1)
    d1 = f.eval_on(xs, 1)
    if np.any(d1 > 1e-12) and np.any(d1 < -1e-12):
        raise MonotonicityError(
            f"{f.label}: f' changes sign; |f'| has no usable derivative stack")
    sign = 1.0 if float(np.sum(d1)) >= 0.0 else -1.0
    base = derivative_function(f, 1)
    return FunctionSpec(
        label=f"|D[{f.label}]|",
        domain=f.domain,
        provenance=f.provenance,
        jet=Jet(lambda x, lo, hi: [sign * d for d in base.derivatives_on(x, lo, hi)],
                base.analytic_depth),
    )


# ---------------------------------------------------------------------------
# Riemann-Liouville integrals
# ---------------------------------------------------------------------------


def rl_integral(f: FunctionSpec, alpha: float, side: str, x: float,
                interval: tuple[float, float] | None = None) -> float:
    """Riemann-Liouville integral of order alpha > 0.

    side="left":  (1/Gamma(alpha)) integral_a^x (x - t)^(alpha-1) f(t) dt,
    side="right": (1/Gamma(alpha)) integral_x^b (t - x)^(alpha-1) f(t) dt,

    where the finite interval [a, b], a < b, defaults to f's domain (up to
    its evaluation cap).  alpha = 0 returns f(x) (the identity-operator
    convention).
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    a, b = interval if interval is not None else (f.domain[0], f.upper_cap)
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b, got [{a}, {b}]")
    x = float(x)
    if alpha == 0.0:
        return float(f(x))
    if side == "left":
        if not a < x <= b + 1e-12:
            raise DomainError(f"left integral needs x in (a, b], got x={x}")
        res = integrate(f.eval_fn, a, x, right=alpha)
    else:
        if not a - 1e-12 <= x < b:
            raise DomainError(f"right integral needs x in [a, b), got x={x}")
        res = integrate(f.eval_fn, x, b, left=alpha)
    return res.value / gamma(alpha)


def gamma_coefficient(p: int, alpha: float) -> float:
    """The fractional endpoint weight

        gamma(p, alpha) = alpha / (2 (alpha + p))
                        + Gamma(alpha+1) Gamma(p+1) / (2 Gamma(alpha+p+1)),

    always in (0, 1]; equals 1/2 for p = 1 at every alpha.
    """
    p = _order(p)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    first = alpha / (2.0 * (alpha + p))
    # the gamma ratio in log space: large alpha overflows the direct form
    # long before the ratio itself leaves double range
    second = 0.5 * math.exp(log_gamma(alpha + 1.0) + log_gamma(p + 1.0)
                            - log_gamma(alpha + p + 1.0))
    value = first + second
    if not 0.0 < value <= 1.0 + 1e-12:
        raise DomainError(f"weight left (0, 1]: {value}")
    return min(value, 1.0)


def fractional_hh_bounds(f: FunctionSpec, cert: ConvexityCertificate, p: int,
                         alpha: float) -> HHReport:
    """Fractional integral-average sandwich at order p and fractional order
    alpha on the certified [a, b] with 0 <= a < b:

        f(g^{1/p} b + (1 - g^{1/p}) a)
            <= Gamma(alpha+1) / (2 (b-a)^alpha) (I_{a+}^alpha f(b) + I_{b-}^alpha f(a))
            <= g f(b) + (1 - g) f(a),        g = gamma_coefficient(p, alpha).

    alpha = 1 reproduces hh_bounds in all three slots.
    """
    p = _order(p)
    _require_certificate(cert, "I", "fractional_hh_bounds", p - 1)
    a, b = cert.interval
    if a < -1e-12:
        raise DomainError(f"the fractional setting needs 0 <= a, got a={a}")
    g = gamma_coefficient(p, alpha)
    lower = float(f(_interior_point(a, b, g, p)))
    fa, fb = float(f(a)), float(f(b))
    upper = g * fb + (1.0 - g) * fa
    left = rl_integral(f, alpha, "left", b, (a, b))
    right = rl_integral(f, alpha, "right", a, (a, b))
    mid = gamma(alpha + 1.0) / (2.0 * (b - a) ** alpha) * (left + right)
    return HHReport(p=p, interval=(a, b), alpha=alpha,
                    lower=lower, mid=mid, upper=upper,
                    classical_lower=float(f(0.5 * (a + b))),
                    classical_upper=0.5 * (fa + fb))


def fractional_mid_via_density(f: FunctionSpec, a: float, b: float,
                               alpha: float) -> float:
    """The fractional mid term computed as an expectation under the
    symmetric endpoint-weighted density; an independent route used to
    cross-check the operator-sum evaluation.
    """
    X = fractional_hh_density(a, b, alpha)
    value, _err = expect(X, f)
    return value
