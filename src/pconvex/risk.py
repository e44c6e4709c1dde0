"""Risk-aversion comparisons and the loss-class risk measure.

A loss function maps losses to disutility, strictly convex and strictly
increasing on [0, horizon].  Two instruments live here:

* a graded "p-more risk averse" relation between two loss functions,
  certified through left-anchored convexity of the inverse composition at
  order p-1 and empirically attacked by a seeded two-point-lottery
  falsifier (the converse construction uses exactly such lotteries, so a
  two-point search is the natural falsification family);

* the worst-case certainty equivalent over the relative-curvature loss
  class, whose closed form is the (p+1)-norm; a certified sweep over a
  parametric sub-family demonstrates attainment by the pure power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import (
    ConvexityCertificate,
    certify_loss_class,
    certify_p_convex,
)
from .distributions import RandomVariable, expect, shifted_moment, two_point
from .errors import DomainError, DomainMismatchError
from .functions import (
    FunctionSpec,
    _falling_factorial,
    compose_inverse,
    polynomial,
    shifted_power,
)
from .numerics import DEFAULT_TOLERANCES, ToleranceProfile, _order, invert_monotone

__all__ = [
    "Falsifier",
    "RiskComparison",
    "RiskMeasureReport",
    "certainty_equivalent",
    "certify_p_more_risk_averse",
    "falsify_p_more_risk_averse",
    "risk_measure",
]

COMPARISON_GRID = 512


@dataclass(frozen=True)
class Falsifier:
    """A two-point lottery violating the graded risk-aversion definition."""

    lottery: RandomVariable
    threshold: float
    margin: float  # ||f(X)||_p - f(c) > 0 at a violation


@dataclass(frozen=True)
class RiskComparison:
    l_label: str
    f_label: str
    p: int
    certificate: ConvexityCertificate

    @property
    def holds(self) -> bool:
        return self.certificate.passed


@dataclass(frozen=True)
class RiskMeasureReport:
    distribution: str
    p: int
    closed_form: float
    sweep_infimum: float
    achiever: str
    candidates: tuple[str, ...]


def certainty_equivalent(l: FunctionSpec, X: RandomVariable,
                         tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> float:
    """The sure amount traded for the lottery: l^{-1}(E l(X)) in [inf X, sup X]."""
    target, _ = expect(X, l)
    return invert_monotone(l.eval_fn, target, (X.inf, X.sup), tolerances)


def certify_p_more_risk_averse(l: FunctionSpec, f: FunctionSpec, p: int,
                               horizon: float,
                               grid_size: int = COMPARISON_GRID,
                               tolerances: ToleranceProfile = DEFAULT_TOLERANCES
                               ) -> RiskComparison:
    """Certify the graded relation via the inverse composition.

    l is p-more risk averse than f exactly when l o f^{-1} is left-anchored
    convex of order p-1 on the transformed range, so the comparison reduces
    to one certification of the composed map.
    """
    p = _order(p)
    comp = compose_inverse(l, f, tolerances)
    y_lo, y_hi = comp.domain
    cap = min(y_hi, float(f(horizon)))
    cert = certify_p_convex(comp, p - 1, y_lo, cap, grid_size, tolerances)
    return RiskComparison(l_label=l.label, f_label=f.label, p=p, certificate=cert)


def falsify_p_more_risk_averse(l: FunctionSpec, f: FunctionSpec, p: int,
                               trials: int, seed: int,
                               horizon: float = 10.0,
                               directed_from: float | None = None,
                               tolerances: ToleranceProfile = DEFAULT_TOLERANCES
                               ) -> Falsifier | None:
    """Random search for a lottery X and threshold c with E l(X) = l(c) but
    ||f(X)||_p > f(c).

    Thresholds come from the certainty equivalent, so the budget identity
    holds by construction and only the norm comparison is searched.  When
    directed_from is given (a point in f's range, e.g. a certificate
    witness), lotteries straddle its preimage; otherwise they are drawn
    across (0, horizon].  All trials are drawn in one call, three values
    each in seeded order, mapped as numpy's uniform maps them; a trial whose
    two atoms tie is dropped, and its lambda value with it.  Their certainty
    equivalents are solved in one batch, and the first violating lottery is
    returned.
    """
    p = _order(p)
    rng = np.random.default_rng(int(seed))
    slack = 1e-6

    center = None
    if directed_from is not None:
        lo, hi = f.domain[0], min(f.upper_cap, horizon)
        y = min(max(directed_from, float(f(lo + 1e-9 * (hi - lo)))), float(f(hi)))
        center = max(invert_monotone(f.eval_fn, y, (lo, hi), tolerances), 1e-3 * horizon)

    # trial i draws the row u[i]; lo + (hi - lo) * u is rng.uniform(lo, hi) bit
    # for bit, with the span hi - lo computed as numpy computes it
    u = rng.random((max(int(trials), 0), 3))
    if center is None:
        lo = 1e-6 * horizon
        a1, a2 = lo + (horizon - lo) * u[:, :2].T
        x1, x2 = np.minimum(a1, a2), np.maximum(a1, a2)
    else:
        x1 = center * (0.25 + (1.0 - 0.25) * u[:, 0])
        x2 = np.minimum(center * (1.0 + (4.0 - 1.0) * u[:, 1]), horizon)
    lam = 0.05 + (0.95 - 0.05) * u[:, 2]
    keep = x1 < x2
    if not np.any(keep):
        return None
    x1, x2, lam = x1[keep], x2[keep], lam[keep]
    if x1.min() < l.domain[0] - 1e-9 or x2.max() > l.domain[1] + 1e-9:
        raise DomainMismatchError(f"a lottery leaves the domain of {l.label}")

    # every certainty equivalent in one solve; each lies between its atoms
    budget = lam * l.eval_on(x1) + (1.0 - lam) * l.eval_on(x2)
    c = invert_monotone(l.eval_fn, budget, (x1, x2), tolerances)
    lhs = (lam * f.eval_on(x1) ** p + (1.0 - lam) * f.eval_on(x2) ** p) ** (1.0 / p)
    rhs = f.eval_on(c)
    margin = lhs - rhs
    # relative threshold: inversion noise is ~1e-9 relative, violations of a
    # genuinely non-member pair are percent-scale relative
    hits = np.flatnonzero(margin > slack * np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-300))
    if hits.size == 0:
        return None
    i = hits[0]
    return Falsifier(lottery=two_point(x1[i], x2[i], lam[i]), threshold=float(c[i]),
                     margin=float(margin[i]))


# ---------------------------------------------------------------------------
# Risk measure
# ---------------------------------------------------------------------------


def _power_exp(m: int, beta: float, horizon: float) -> FunctionSpec:
    """x^m e^(beta x) with the Leibniz derivative stack."""
    if beta < 0.0:
        raise DomainError("beta must be >= 0")

    def make(k: int):
        terms = []
        for j in range(0, k + 1):
            c = math.comb(k, j) * _falling_factorial(m, j) * beta ** (k - j)
            if c != 0.0:
                terms.append((c, m - j))

        def deriv(x, _terms=tuple(terms)):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x)
            for c, e in _terms:
                acc = acc + c * x ** e
            return acc * np.exp(beta * x)

        return deriv

    return FunctionSpec(
        label=f"x^{m}*exp({beta:g}x)",
        domain=(0.0, math.inf),
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, m + 5)),
        eval_horizon=max(10.0 * horizon, 10.0),
    )


def _power_times_affine(m: int, beta: float, gamma: int,
                        horizon: float) -> FunctionSpec:
    """x^m (1 + beta x)^gamma for small integer gamma, expanded to a polynomial."""
    coeffs = [0.0] * (m + gamma + 1)
    for j in range(gamma + 1):
        coeffs[m + j] = math.comb(gamma, j) * beta ** j
    f = polynomial(coeffs, domain=(0.0, max(10.0 * horizon, 10.0)))
    return f


def _sweep_candidates(p: int, horizon: float) -> list[tuple[str, FunctionSpec]]:
    m = p + 1
    out: list[tuple[str, FunctionSpec]] = [
        (f"x^{q}", shifted_power(float(q), domain=(0.0, math.inf)))
        for q in range(m, m + 4)
    ]
    for beta in (0.25 / horizon, 1.0 / horizon):
        out.append((f"x^{m}(1+{beta:.3g}x)", _power_times_affine(m, beta, 1, horizon)))
        out.append((f"x^{m}(1+{beta:.3g}x)^2", _power_times_affine(m, beta, 2, horizon)))
        out.append((f"x^{m}e^({beta:.3g}x)", _power_exp(m, beta, horizon)))
    return out


def risk_measure(X: RandomVariable, p: int,
                 grid_size: int = 256,
                 tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> RiskMeasureReport:
    """Worst-case certainty equivalent over the order-p loss class.

    closed_form is the (p+1)-norm of X; the sweep takes the minimum
    certainty equivalent over a parametric family, each member certified
    for class membership before inclusion (uncertified candidates are
    skipped so the sweep stays sound).  The pure power attains the norm.
    The included candidates' certainty equivalents are one invert_monotone
    run, each equal to certainty_equivalent's bit for bit.
    """
    p = _order(p)
    if X.inf < -tolerances.eq_abs:
        raise DomainError("risk_measure needs a loss lottery on [0, inf)")
    closed_form = shifted_moment(X, 0.0, p + 1, tolerances).norm
    horizon = max(10.0 * X.sup, 10.0)

    included = [(label, candidate) for label, candidate in _sweep_candidates(p, horizon)
                if certify_loss_class(candidate, p, horizon, grid_size, tolerances).passed]
    labels = tuple(label for label, _ in included)
    ces = _certainty_equivalents([candidate for _, candidate in included], X, tolerances)
    # the first candidate with the least certainty equivalent, as a strict < scan finds it
    best, achiever = min(zip(ces.tolist(), labels), key=lambda pair: pair[0],
                         default=(math.inf, ""))
    return RiskMeasureReport(distribution=X.digest(), p=p,
                             closed_form=closed_form, sweep_infimum=best,
                             achiever=achiever, candidates=labels)


def _certainty_equivalents(losses: list[FunctionSpec], X: RandomVariable,
                           tolerances: ToleranceProfile) -> np.ndarray:
    """certainty_equivalent of each loss, in one array solve on (inf X, sup X).

    Point i of the solve is loss i's, evaluated at a float as the scalar
    solve evaluates it, so every element equals certainty_equivalent's bit
    for bit (a one-point solve reaches the map with a float).
    """
    targets = [expect(X, l)[0] for l in losses]

    def each_at_its_point(x):
        vals = [float(l.eval_fn(float(xi))) for l, xi in zip(losses, np.ravel(x))]
        return np.reshape(vals, np.shape(x))

    return invert_monotone(each_at_its_point, np.array(targets, dtype=float),
                           (X.inf, X.sup), tolerances)
