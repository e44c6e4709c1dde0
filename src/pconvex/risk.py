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
  parametric sub-family demonstrates attainment by the pure power.  The
  sweep members x^a (1 + b x)^g e^(e x) are scale covariant: at horizon H
  each is H^d times a unit-scale member at x / H, so every class condition
  at H is a positive multiple of the same condition on [0, 1].  Membership
  is certified once at unit scale per order (a memo cache), and the
  members are solved as one stacked jet kernel, the product of the jets of
  x^a, (1 + b x)^g and e^(e x).

Every certainty equivalent is solved in the cell of a 257-point table of
the loss function on the range of the lottery, by Newton steps from the
loss function's jet (numerics.invert_monotone).  The inverse composition a
comparison certifies is analytic when both loss functions are: its anchor
at f(lo) is read from their leading terms (functions.compose_inverse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convexity import (
    CERTIFY_SLACK,
    ConvexityCertificate,
    certify_loss_class,
    certify_p_convex,
)
from .distributions import RandomVariable, expect, expect_each, shifted_moment, two_point
from .errors import DomainError, DomainMismatchError
from .functions import FunctionSpec, Jet, _exp_rows, _power_rows, _product, compose_inverse
from .numerics import EQ_ABS, _integer, _order, _table_cell, invert_monotone

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
_MEASURE_GRID = 256  # grid risk_measure certifies its sweep members on
_CE_TABLE = 256  # cells of the table of l a certainty equivalent is solved in


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


def certainty_equivalent(l: FunctionSpec, X: RandomVariable) -> float:
    """The sure amount traded for the lottery: l^{-1}(E l(X)) in [inf X, sup X],
    solved in the cell of a 257-point table of l on that range that brackets
    E l(X).  An unbounded X raises DomainError."""
    if not X.bounded:
        raise DomainError(f"a certainty equivalent needs a bounded lottery, sup X = {X.sup}")
    target, _ = expect(X, l)
    return _solve_in_table(l, l.eval_on, target, X.inf, X.sup)


def _solve_in_table(f: FunctionSpec, table_of_f, y, lo: float, hi: float):
    """Solve f(c) = y for a float or an array of targets in one
    invert_monotone run, each target in the cell of one table of f on
    [lo, hi] that brackets it, with the cell's end values from the table.

    The table is f at _CE_TABLE + 1 points from lo to hi; table_of_f gives
    it as one row, which every target is solved in, or as one row per
    target (a stacked family, f point i being member i).
    """
    table = np.linspace(lo, hi, _CE_TABLE + 1)
    return invert_monotone(f, y, _table_cell(table, table_of_f(table), y))


def certify_p_more_risk_averse(l: FunctionSpec, f: FunctionSpec, p: int,
                               horizon: float,
                               grid_size: int = COMPARISON_GRID,
                               slack: float = CERTIFY_SLACK) -> RiskComparison:
    """Certify the graded relation via the inverse composition.

    l is p-more risk averse than f exactly when l o f^{-1} is left-anchored
    convex of order p-1 on the transformed range [f(lo), f(horizon)] (f's
    evaluation cap when that is lower), so the comparison reduces to one
    certification of the composed map, which is composed over that range
    alone.  The composition's provenance is that of l and f together: two
    analytic loss functions give an analytic composition, certified at the
    slack given, and its anchor conditions at f(lo) are read from their
    leading terms, so a pure-power pair x^a against x^b holds exactly when
    a/b >= p.  A numeric l or f makes it "mixed" or "numeric", and its
    certificate widens the slack by convexity.NUMERIC_SLACK_FACTOR.
    """
    p = _order(p)
    comp = compose_inverse(l, f, horizon)
    cert = certify_p_convex(comp, p - 1, *comp.domain, grid_size, slack)
    return RiskComparison(l_label=l.label, f_label=f.label, p=p, certificate=cert)


def falsify_p_more_risk_averse(l: FunctionSpec, f: FunctionSpec, p: int,
                               trials: int, seed: int,
                               horizon: float = 10.0,
                               directed_from: float | None = None) -> Falsifier | None:
    """Random search for a lottery X and threshold c with E l(X) = l(c) but
    ||f(X)||_p > f(c).

    Thresholds come from the certainty equivalent, so the budget identity
    holds by construction and only the norm comparison is searched.  When
    directed_from is given (a point in f's range, e.g. a certificate
    witness), lotteries straddle its preimage; otherwise they are drawn
    across (0, horizon].  A horizon that is not positive and finite, or a
    non-finite directed_from, raises DomainError.  A directed search
    centres on that preimage, raised to at least 1e-3 horizon; when f there
    already reaches the target, the centre is that floor and the preimage
    is not solved.  All trials are drawn in one call, three values each in
    seeded order, mapped as numpy's uniform maps them; a trial whose two
    atoms tie is dropped, and its lambda value with it.  Their certainty
    equivalents are solved in one batch: l is tabulated once at 257 points
    from the least to the largest atom, and each trial is solved in the
    whole table cell that brackets its budget, not cut to its atoms (as
    certainty_equivalent solves in its own table).  The first violating
    lottery is returned.
    """
    p = _order(p)
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    slack = 1e-6
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"the falsifier's horizon must be positive and finite, got {horizon}")

    center = None
    if directed_from is not None:
        if not math.isfinite(directed_from):
            raise DomainError(f"directed_from must be finite, got {directed_from}")
        lo, hi = f.domain[0], min(f.upper_cap, horizon)
        y = min(max(directed_from, float(f(lo + 1e-9 * (hi - lo)))), float(f(hi)))
        # the preimage counts only above a floor: at or below it, it is not solved
        center = floor = 1e-3 * horizon
        if floor < hi and (floor < lo or float(f(floor)) < y):
            center = max(invert_monotone(f, y, (lo, hi)), floor)

    # trial i draws the row u[i]; lo + (hi - lo) * u is rng.uniform(lo, hi) bit
    # for bit, with the span hi - lo computed as numpy computes it
    u = rng.random((max(_integer(trials, -math.inf, "trials"), 0), 3))
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

    budget = lam * l.eval_on(x1) + (1.0 - lam) * l.eval_on(x2)
    c = _solve_in_table(l, l.eval_on, budget, x1.min(), x2.max())
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


# beta = rate / horizon in the affine and exponential sweep members
_SWEEP_RATES = (0.25, 1.0)


def _sweep(p: int, horizon: float) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and parameters (rows a, b, g, e) of the order-p sweep members
    x^a (1 + b x)^g e^(e x) at a horizon: x^q for q = p+1..p+4, then
    x^(p+1) (1 + beta x), x^(p+1) (1 + beta x)^2 and x^(p+1) e^(beta x) for
    each beta = rate / horizon."""
    m = p + 1
    labels = [f"x^{q}" for q in range(m, m + 4)]
    params = [(q, 0.0, 0, 0.0) for q in range(m, m + 4)]
    for rate in _SWEEP_RATES:
        beta = rate / horizon
        labels += [f"x^{m}(1+{beta:.3g}x)", f"x^{m}(1+{beta:.3g}x)^2", f"x^{m}e^({beta:.3g}x)"]
        params += [(m, beta, 1, 0.0), (m, beta, 2, 0.0), (m, 0.0, 0, beta)]
    return tuple(labels), np.array(params, dtype=float).T


class _Sweep:
    """Sweep members x^a (1 + b x)^g e^(e x), one per column of params
    (rows a, b, g, e), evaluated by one jet kernel.

    Called on one point per member, it evaluates member i at point i; a
    one-member sweep evaluates at every point, and parameters with a
    trailing axis of length 1 evaluate every member at every point, one row
    each.  The kernel has one layout: the exponent rows a and g are copied
    out to the shape of the points before any power is taken, so numpy's
    power runs one loop for every form (an exponent broadcast along the
    points would take an exact x * x for 2), and a member has the same
    value, bit for bit, alone and in each stacked form.
    """

    def __init__(self, params: np.ndarray) -> None:
        self.params = params
        self.abge = tuple(params)  # the rows a, b, g, e, unpacked once per sweep

    def rows(self, x: np.ndarray, lo: int, hi: int) -> list:
        """The jet kernel: the product of the jets of x^a, (1 + b x)^g and
        e^(e x); x below 0 counts as 0."""
        a, b, g, e = self.abge
        flat = np.maximum(x.reshape(-1), 0.0)
        shape = np.broadcast(a, flat).shape
        a, g = np.full(shape, a), np.full(shape, g)
        power = _product(_power_rows(flat, a, 0, hi), _power_rows(1.0 + b * flat, g, 0, hi, b))
        return [r.reshape(r.shape[:-1] + x.shape)
                for r in _product(power, _exp_rows(flat, e, 0, hi))[lo:]]

    def __call__(self, x, k: int = 0):
        return self.rows(np.asarray(x, dtype=float), k, k)[0]

    def member(self, i: int) -> "_Sweep":
        return _Sweep(self.params[:, i:i + 1])

    def spec(self, label: str, depth: int) -> FunctionSpec:
        """The sweep as a FunctionSpec whose jet reaches order depth."""
        return FunctionSpec(label=label, domain=(0.0, math.inf), jet=Jet(self.rows, depth))


def _sweep_candidates(p: int, horizon: float) -> list[tuple[str, FunctionSpec]]:
    """Each order-p sweep member at a horizon, as a labelled FunctionSpec."""
    labels, params = _sweep(p, horizon)
    sweep = _Sweep(params)
    return [(label, sweep.member(i).spec(label, p + 2)) for i, label in enumerate(labels)]


@lru_cache(maxsize=64)
def _unit_members(p: int, grid_size: int) -> tuple[int, ...]:
    """Positions of the order-p sweep members in the loss class, certified at
    unit scale and CERTIFY_SLACK (risk_measure says why that holds at every
    horizon).

    One certificate covers the stacked sweep on [0, 1]; only if it fails is
    each member certified alone.
    """
    labels, params = _sweep(p, 1.0)
    family = _Sweep(params[:, :, None]).spec(f"order-{p} sweep at unit scale", p + 2)
    if certify_loss_class(family, p, 1.0, grid_size).passed:
        return tuple(range(len(labels)))
    return tuple(i for i, (_, l) in enumerate(_sweep_candidates(p, 1.0))
                 if certify_loss_class(l, p, 1.0, grid_size).passed)


def risk_measure(X: RandomVariable, p: int) -> RiskMeasureReport:
    """Worst-case certainty equivalent over the order-p loss class.

    closed_form is the (p+1)-norm of X; the sweep takes the minimum
    certainty equivalent over a parametric family, each member certified
    for class membership before inclusion (uncertified candidates are
    skipped so the sweep stays sound).  The pure power attains the norm.

    Every member at the horizon H = max(10 sup X, 10) is H^d l(x / H) for a
    member l of the same sweep at H = 1 (beta scales as 1 / H), and each
    class condition at H is a positive multiple of l's on [0, 1].  So
    membership is certified once, at unit scale on _MEASURE_GRID, per p and
    kept in a memo cache (_unit_members; cache_clear empties it), with
    CERTIFY_SLACK taken relative to unit-scale margins.  The included
    members' certainty equivalents come from the stacked kernel: the
    targets of a discrete or sample X from one call on its points, the
    257-point table on [inf X, sup X] from one more, then one
    invert_monotone run solves each member in its table cell.  Each equals
    certainty_equivalent's on the member's spec bit for bit.
    """
    p = _order(p)
    if X.inf < -EQ_ABS:
        raise DomainError("risk_measure needs a loss lottery on [0, inf)")
    closed_form = shifted_moment(X, 0.0, p + 1).norm
    horizon = max(10.0 * X.sup, 10.0)
    if not horizon < math.inf:
        raise DomainError(f"horizon {horizon} must be finite")

    labels, params = _sweep(p, horizon)
    included = list(_unit_members(p, _MEASURE_GRID))
    ces = _certainty_equivalents(params[:, included], X)
    labels = tuple(labels[i] for i in included)
    # the first candidate with the least certainty equivalent, as a strict < scan finds it
    best, achiever = min(zip(ces.tolist(), labels), key=lambda pair: pair[0],
                         default=(math.inf, ""))
    return RiskMeasureReport(distribution=X.digest(), p=p,
                             closed_form=closed_form, sweep_infimum=best,
                             achiever=achiever, candidates=labels)


def _certainty_equivalents(params: np.ndarray, X: RandomVariable) -> np.ndarray:
    """certainty_equivalent of each sweep member (a column of params), in one
    array solve; every element equals certainty_equivalent's on the
    member's spec bit for bit, since the kernel has one layout.

    The targets E l(X) come from expect_each: one kernel call, every member
    at every point, for a discrete or sample X, one expect per member for a
    density.
    """
    sweep, stacked = _Sweep(params), _Sweep(params[:, :, None])
    members = (sweep.member(i) for i in range(params.shape[1]))
    targets = np.array(expect_each(X, stacked, members), dtype=float)
    return _solve_in_table(sweep.spec("sweep members", 1), stacked, targets, X.inf, X.sup)
