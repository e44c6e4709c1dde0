"""Random variables with exact, quadrature and Monte-Carlo moment engines.

Three representations cover everything downstream: finite discrete (risk
lotteries, likelihood-ratio variables), density with support (the uniform
and endpoint-weighted densities behind the integral-average bounds), and
empirical samples (the unbounded-support case is handled through moments of
samples or quantile-truncated densities).

expect() is the brute-force oracle every bound in the package is tested
against, so it stays deliberately simple: exact weighted sums, plain
averages, or doubled Gauss quadrature that raises unless it converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    DomainMismatchError,
    InputFormatError,
    MomentDivergenceError,
    SupportViolationError,
)
from .functions import FunctionSpec
from .numerics import (
    DEFAULT_PLAN,
    DEFAULT_TOLERANCES,
    ConvergenceError,
    QuadraturePlan,
    ToleranceProfile,
    _eval_nodes,
    gamma,
    integrate,
    integrate_jacobi,
    pnorm_shifted,
)

__all__ = [
    "MomentReport",
    "RandomVariable",
    "beta_like",
    "discrete",
    "distribution_from_descriptor",
    "distribution_to_descriptor",
    "expect",
    "fractional_hh_density",
    "from_sample",
    "point_mass",
    "reflected",
    "sample_mc",
    "shifted_moment",
    "two_point",
    "uniform",
]

MAX_MOMENT_ORDER = 64
_TRUNCATION_MASS = 1e-10


@dataclass(frozen=True)
class RandomVariable:
    """A distribution in one of three representations.

    kind "discrete": atoms + probs (probs sum to 1 within 1e-12).
    kind "sample":   a nonempty list of observed values, weighted equally.
    kind "density":  pdf + support + quadrature plan; named families carry
                     params so they serialize and so singular endpoint
                     weights can be integrated by Gauss-Jacobi instead of
                     being sampled pointwise.
    """

    kind: str
    declared_support: tuple[float, float]
    atoms: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    pdf: Callable | None = None
    plan: QuadraturePlan = DEFAULT_PLAN
    density_family: str | None = None
    density_params: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        lo, hi = self.declared_support
        if not (math.isfinite(lo) and lo < hi):
            raise ConstructionError(f"invalid declared support {self.declared_support}")
        if self.kind == "discrete":
            if len(self.atoms) != len(self.probs) or not self.atoms:
                raise ConstructionError("discrete needs matching nonempty atoms/probs")
            if not all(map(math.isfinite, self.atoms + self.probs)):
                raise ConstructionError("atoms and probabilities must be finite")
            if any(p < 0.0 for p in self.probs):
                raise ConstructionError("probabilities must be nonnegative")
            total = math.fsum(self.probs)
            if abs(total - 1.0) > 1e-12:
                raise ConstructionError(f"probabilities sum to {total!r}, not 1")
            if any(a < lo - 1e-12 or a > hi + 1e-12 for a in self.atoms):
                raise ConstructionError("atoms outside declared support")
        elif self.kind == "sample":
            if not self.values:
                raise ConstructionError("sample representation needs at least one value")
            if not all(map(math.isfinite, self.values)):
                raise ConstructionError("sample values must be finite")
            if min(self.values) < lo - 1e-12 or max(self.values) > hi + 1e-12:
                raise ConstructionError("sample values outside declared support")
        elif self.kind == "density":
            if self.pdf is None:
                raise ConstructionError("density representation needs a pdf")
        else:
            raise ConstructionError(f"unknown kind {self.kind!r}")

    # -- support helpers ----------------------------------------------------

    @property
    def inf(self) -> float:
        if self.kind == "discrete":
            return min(self.atoms)
        if self.kind == "sample":
            return min(self.values)
        return self.declared_support[0]

    @property
    def sup(self) -> float:
        if self.kind == "discrete":
            return max(self.atoms)
        if self.kind == "sample":
            return max(self.values)
        return self.declared_support[1]

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup)

    def digest(self) -> str:
        if self.kind == "discrete":
            inner = ",".join(f"{a:.12g}:{p:.12g}" for a, p in zip(self.atoms, self.probs))
            return f"discrete[{inner}]"
        if self.kind == "sample":
            return f"sample[n={len(self.values)},mean={math.fsum(self.values)/len(self.values):.12g}]"
        fam = self.density_family or "custom"
        return f"density[{fam},{self.declared_support}]"

    def mean(self) -> float:
        return expect(self, lambda x: x)[0]


@dataclass(frozen=True)
class MomentReport:
    """E (X - shift)^order together with the shifted norm and its method.

    raw may be inf when the unscaled moment leaves double range; norm is
    always finite because it is computed in the scaled domain.
    """

    order: int
    shift: float
    raw: float
    norm: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self) -> None:
        if self.error_estimate < 0.0:
            raise ConstructionError("error_estimate must be >= 0")


def _unscaled(scaled: float, scale: float, order: int) -> float:
    try:
        return scaled * scale ** order
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def discrete(atoms, probs, support: tuple[float, float] | None = None) -> RandomVariable:
    atoms = tuple(float(a) for a in atoms)
    probs = tuple(float(p) for p in probs)
    if support is None:
        support = (min(atoms), max(atoms) if max(atoms) > min(atoms) else min(atoms) + 1.0)
    return RandomVariable(kind="discrete", declared_support=support,
                          atoms=atoms, probs=probs)


def point_mass(c: float) -> RandomVariable:
    return discrete([float(c)], [1.0])


def two_point(a: float, b: float, t: float) -> RandomVariable:
    """The lottery paying a with probability t and b with probability 1 - t."""
    a, b, t = float(a), float(b), float(t)
    if not a < b:
        raise ConstructionError(f"two_point needs a < b, got {a}, {b}")
    if not 0.0 <= t <= 1.0:
        raise ConstructionError(f"two_point needs t in [0, 1], got {t}")
    if t == 1.0:
        return RandomVariable(kind="discrete", declared_support=(a, b),
                              atoms=(a,), probs=(1.0,))
    if t == 0.0:
        return RandomVariable(kind="discrete", declared_support=(a, b),
                              atoms=(b,), probs=(1.0,))
    return RandomVariable(kind="discrete", declared_support=(a, b),
                          atoms=(a, b), probs=(t, 1.0 - t))


def from_sample(values, support: tuple[float, float] | None = None) -> RandomVariable:
    values = tuple(float(v) for v in values)
    if not values:
        raise ConstructionError("sample representation needs at least one value")
    if support is None:
        lo = min(values)
        hi = max(values)
        support = (lo, hi if hi > lo else lo + 1.0)
    return RandomVariable(kind="sample", declared_support=support, values=values)


def density(pdf: Callable, support: tuple[float, float],
            plan: QuadraturePlan = DEFAULT_PLAN,
            family: str | None = None,
            params: Mapping[str, Any] | None = None,
            validate: bool = True) -> RandomVariable:
    """Wrap a pdf; checks normalization unless the family guarantees it."""
    rv = RandomVariable(kind="density", declared_support=(float(support[0]), float(support[1])),
                        pdf=pdf, plan=plan, density_family=family, density_params=params)
    if validate and family is None:
        total, _ = _density_expect(rv, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        if abs(total - 1.0) > max(1e-6, 100.0 * plan.abs_tolerance):
            raise ConstructionError(f"pdf integrates to {total!r}, not 1")
    return rv


def uniform(a: float, b: float, plan: QuadraturePlan = DEFAULT_PLAN) -> RandomVariable:
    a, b = float(a), float(b)
    if not a < b:
        raise ConstructionError(f"uniform needs a < b, got {a}, {b}")
    h = 1.0 / (b - a)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), h, 0.0)

    return density(pdf, (a, b), plan, family="uniform", params={"a": a, "b": b},
                   validate=False)


def beta_like(a: float, b: float, c: float, d: float,
              plan: QuadraturePlan = DEFAULT_PLAN) -> RandomVariable:
    """Density proportional to (x-a)^(c-1) (b-x)^(d-1) on [a, b], c, d >= 1.

    Shapes below 1 are rejected so the pdf stays bounded; the singular
    endpoint-weighted case is covered by fractional_hh_density.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if not a < b:
        raise ConstructionError("beta-like needs a < b")
    if c < 1.0 or d < 1.0:
        raise ConstructionError("beta-like needs shape parameters c, d >= 1")
    norm = gamma(c) * gamma(d) / gamma(c + d) * (b - a) ** (c + d - 1.0)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        xa = np.where(inside, x - a, 0.0)
        bx = np.where(inside, b - x, 0.0)
        return xa ** (c - 1.0) * bx ** (d - 1.0) / norm

    return density(pdf, (a, b), plan, family="beta-like",
                   params={"a": a, "b": b, "c": c, "d": d}, validate=False)


def fractional_hh_density(a: float, b: float, alpha: float,
                          plan: QuadraturePlan = DEFAULT_PLAN) -> RandomVariable:
    """The symmetric endpoint-weighted density
    g(x) = alpha / (2 (b-a)^alpha) * ((x-a)^(alpha-1) + (b-x)^(alpha-1)).

    For alpha < 1 the pdf is singular at both endpoints; expectations are
    therefore evaluated through Gauss-Jacobi, never by sampling g pointwise.
    """
    a, b, alpha = float(a), float(b), float(alpha)
    if not a < b:
        raise ConstructionError("fractional density needs a < b")
    if not alpha > 0.0:
        raise ConstructionError("fractional density needs alpha > 0")
    c = alpha / (2.0 * (b - a) ** alpha)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return c * ((x - a) ** (alpha - 1.0) + (b - x) ** (alpha - 1.0))

    return density(pdf, (a, b), plan, family="fractional-hh",
                   params={"a": a, "b": b, "alpha": alpha}, validate=False)


def reflected(X: RandomVariable, center: float) -> RandomVariable:
    """The law of center - X (used for norms anchored at the upper endpoint)."""
    center = float(center)
    lo, hi = X.declared_support
    if not math.isfinite(hi):
        raise DomainError("cannot reflect an unbounded-above random variable")
    support = (center - hi, center - lo)
    if X.kind == "discrete":
        return RandomVariable(kind="discrete", declared_support=support,
                              atoms=tuple(center - a for a in X.atoms), probs=X.probs)
    if X.kind == "sample":
        return RandomVariable(kind="sample", declared_support=support,
                              values=tuple(center - v for v in X.values))
    base_pdf = X.pdf

    def pdf(y):
        return base_pdf(center - np.asarray(y, dtype=float))

    fam = X.density_family
    params = dict(X.density_params) if X.density_params else None
    if fam == "uniform" and params:
        params = {"a": center - params["b"], "b": center - params["a"]}
    elif fam == "fractional-hh" and params:
        params = {"a": center - params["b"], "b": center - params["a"],
                  "alpha": params["alpha"]}
    else:
        fam, params = None, None
    return RandomVariable(kind="density", declared_support=support, pdf=pdf,
                          plan=X.plan, density_family=fam, density_params=params)


# ---------------------------------------------------------------------------
# Expectation oracle
# ---------------------------------------------------------------------------


def _as_fn(f) -> Callable:
    return f.eval_fn if isinstance(f, FunctionSpec) else f


def _check_domain(X: RandomVariable, f) -> None:
    if isinstance(f, FunctionSpec):
        lo, hi = f.domain
        if X.inf < lo - 1e-9 or (math.isfinite(hi) and X.sup > hi + 1e-9):
            raise DomainMismatchError(
                f"support [{X.inf}, {X.sup}] leaves the domain of {f.label}")


def _truncation_horizon(X: RandomVariable) -> float:
    """Upper point H with mass(X > H) <= the truncation budget."""
    lo = X.declared_support[0]
    width = 1.0 + abs(lo)
    for _ in range(80):
        hi = lo + width
        mass = integrate(X.pdf, lo, hi, X.plan).value
        if mass >= 1.0 - _TRUNCATION_MASS:
            return hi
        width *= 2.0
    raise MomentDivergenceError("density mass does not concentrate below span 2^80")


def _density_expect(X: RandomVariable, fn: Callable) -> tuple[float, float]:
    lo, hi = X.declared_support
    if not math.isfinite(hi):
        hi = _truncation_horizon(X)
        res = integrate(lambda x: np.asarray(fn(x), dtype=float) * np.asarray(X.pdf(x), dtype=float),
                        lo, hi, X.plan)
        # Tail mass times the boundary magnitude is the cheap truncation term.
        tail = _TRUNCATION_MASS * abs(float(fn(hi)))
        return res.value, res.error_estimate + tail + _TRUNCATION_MASS
    if X.density_family == "fractional-hh":
        params = X.density_params
        a, b, alpha = params["a"], params["b"], params["alpha"]
        c = alpha / (2.0 * (b - a) ** alpha)
        left = integrate_jacobi(fn, a, b, alpha, "left", X.plan)
        right = integrate_jacobi(fn, a, b, alpha, "right", X.plan)
        return c * (left.value + right.value), c * (left.error_estimate + right.error_estimate)
    res = integrate(lambda x: np.asarray(fn(x), dtype=float) * np.asarray(X.pdf(x), dtype=float),
                    lo, hi, X.plan)
    return res.value, res.error_estimate


def expect(X: RandomVariable, f) -> tuple[float, float]:
    """E f(X) and an error estimate; the oracle for every bound test.

    Exact weighted sum for discrete, plain average for samples; for
    densities, panel-doubled Gauss-Legendre (node-doubled Gauss-Jacobi under
    singular endpoint weights), whose error estimate is the last doubling
    step.  Quadrature that does not converge raises MomentDivergenceError.
    """
    _check_domain(X, f)
    fn = _as_fn(f)
    if X.kind == "discrete":
        return math.fsum(p * float(fn(a)) for a, p in zip(X.atoms, X.probs)), 0.0
    if X.kind == "sample":
        return math.fsum(float(fn(v)) for v in X.values) / len(X.values), 0.0
    try:
        return _density_expect(X, fn)
    except ConvergenceError as exc:
        raise MomentDivergenceError(
            f"expectation quadrature diverged: {exc}") from exc


# ---------------------------------------------------------------------------
# Shifted moments
# ---------------------------------------------------------------------------


def shifted_moment(X: RandomVariable, shift: float, order: int,
                   tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> MomentReport:
    """E (X - shift)^order and the norm ||X - shift||_order.

    Requires the mass to sit above the shift; values are scaled by
    (sup - shift) before powering so intermediate powers stay in [0, 1]
    for orders up to 64.
    """
    order = int(order)
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise DomainError(f"order {order} beyond double-precision usefulness (max 64)")
    shift = float(shift)
    if X.inf < shift - tolerances.eq_abs:
        raise SupportViolationError(
            f"mass below shift: inf X = {X.inf} < shift = {shift}")

    if X.kind == "discrete":
        scale = max(X.sup - shift, 0.0)
        if scale == 0.0:
            return MomentReport(order, shift, 0.0, 0.0, "exact-sum")
        scaled = math.fsum(p * (max(a - shift, 0.0) / scale) ** order
                           for a, p in zip(X.atoms, X.probs))
        norm = pnorm_shifted(scaled, order, scale)
        return MomentReport(order, shift, _unscaled(scaled, scale, order), norm, "exact-sum")

    if X.kind == "sample":
        scale = max(X.sup - shift, 0.0)
        if scale == 0.0:
            return MomentReport(order, shift, 0.0, 0.0, "exact-sum")
        scaled = math.fsum((max(v - shift, 0.0) / scale) ** order
                           for v in X.values) / len(X.values)
        norm = pnorm_shifted(scaled, order, scale)
        return MomentReport(order, shift, _unscaled(scaled, scale, order), norm, "exact-sum")

    # density
    hi = X.declared_support[1]
    extra_err = 0.0
    if not math.isfinite(hi):
        hi = _truncation_horizon(X)
        extra_err = _TRUNCATION_MASS * (1.0 + (hi - shift))
    scale = hi - shift
    if scale <= 0.0:
        return MomentReport(order, shift, 0.0, 0.0, "quadrature")

    def integrand(x):
        u = (np.asarray(x, dtype=float) - shift) / scale
        return np.clip(u, 0.0, None) ** order

    try:
        scaled, err = _density_expect(
            RandomVariable(kind="density",
                           declared_support=(X.declared_support[0], hi),
                           pdf=X.pdf, plan=X.plan,
                           density_family=X.density_family,
                           density_params=X.density_params),
            integrand)
    except ConvergenceError as exc:
        raise MomentDivergenceError(f"moment quadrature diverged: {exc}") from exc
    scaled = max(scaled, 0.0)
    norm = pnorm_shifted(scaled, order, scale)
    return MomentReport(order, shift, _unscaled(scaled, scale, order), norm,
                        "quadrature", err + extra_err)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def sample_mc(X: RandomVariable, n: int, seed: int) -> RandomVariable:
    """Draw n values, bit-for-bit reproducible for a given seed (PCG64).

    Discrete and empirical kinds sample by inverse CDF over the atom table;
    densities invert a numerically built CDF by vectorized bisection.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))

    if X.kind == "discrete":
        cum = np.cumsum(np.asarray(X.probs))
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u, side="left")
        vals = np.asarray(X.atoms)[idx]
        return from_sample(vals, X.declared_support)

    if X.kind == "sample":
        vals = rng.choice(np.asarray(X.values), size=int(n), replace=True)
        return from_sample(vals, X.declared_support)

    lo, hi = X.declared_support
    if not math.isfinite(hi):
        hi = _truncation_horizon(X)
    if X.density_family == "uniform":
        vals = lo + (hi - lo) * u
        return from_sample(vals, X.declared_support)
    if X.density_family == "fractional-hh":
        params = X.density_params
        a, b, alpha = params["a"], params["b"], params["alpha"]

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return ((x - a) ** alpha + (b - a) ** alpha - (b - x) ** alpha) / \
                (2.0 * (b - a) ** alpha)
    else:
        grid = np.linspace(lo, hi, 4097)
        pdf_vals = _eval_nodes(X.pdf, grid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf_vals[1:] + pdf_vals[:-1])
                                               * np.diff(grid))])
        cum /= cum[-1]

        def cdf(x):
            return np.interp(np.asarray(x, dtype=float), grid, cum)

    los = np.full_like(u, lo)
    his = np.full_like(u, hi)
    for _ in range(60):
        mid = 0.5 * (los + his)
        below = cdf(mid) < u
        los = np.where(below, mid, los)
        his = np.where(below, his, mid)
    return from_sample(0.5 * (los + his), X.declared_support)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def distribution_from_descriptor(raw: Mapping[str, Any]) -> RandomVariable:
    """Parse the JSON wire format for distributions."""
    if not isinstance(raw, Mapping):
        raise InputFormatError("distribution descriptor must be an object")
    kind = raw.get("kind")
    try:
        if kind == "discrete":
            return discrete(raw["atoms"], raw["probs"],
                            tuple(raw["support"]) if "support" in raw else None)
        if kind == "sample":
            return from_sample(raw["values"],
                               tuple(raw["support"]) if "support" in raw else None)
        if kind == "density":
            family = raw.get("family")
            params = raw.get("params", {})
            support = raw.get("support")
            if family == "uniform":
                a, b = (params.get("a"), params.get("b")) if params else (None, None)
                if a is None:
                    a, b = support
                return uniform(a, b)
            if family == "beta-like":
                a, b = support if support else (params["a"], params["b"])
                return beta_like(a, b, params["c"], params["d"])
            if family == "fractional-hh":
                a, b = support if support else (params["a"], params["b"])
                return fractional_hh_density(a, b, params["alpha"])
            raise InputFormatError(f"distribution: unknown density family {family!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(f"distribution descriptor field error: {exc!r}") from exc
    raise InputFormatError(f"distribution: unknown kind {kind!r}")


def distribution_to_descriptor(X: RandomVariable) -> dict:
    if X.kind == "discrete":
        return {"kind": "discrete", "atoms": list(X.atoms), "probs": list(X.probs),
                "support": list(X.declared_support)}
    if X.kind == "sample":
        return {"kind": "sample", "values": list(X.values),
                "support": list(X.declared_support)}
    if X.density_family is None:
        raise ConstructionError("custom pdf densities have no JSON form")
    return {"kind": "density", "family": X.density_family,
            "params": dict(X.density_params or {}),
            "support": list(X.declared_support)}
