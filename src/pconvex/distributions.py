"""Random variables with exact, quadrature and Monte-Carlo moment engines.

Three representations cover everything downstream: finite discrete (risk
lotteries, likelihood-ratio variables), density with support (the uniform
and endpoint-weighted densities behind the integral-average bounds), and
empirical samples (the unbounded-support case is handled through moments of
samples or quantile-truncated densities).

expect() is the brute-force oracle every bound in the package is tested
against, so it stays deliberately simple: exact weighted sums, plain
averages, or doubled Gauss quadrature that raises unless it converges.
Named density families are integrated through their end exponents (the
quadrature's weights), never by evaluating their pdf pointwise.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    DomainMismatchError,
    InputFormatError,
    MomentDivergenceError,
    RangeOverflowError,
    SupportViolationError,
)
from .functions import FunctionSpec, Jet, _object
from .numerics import (
    EQ_ABS,
    GAMMA_MAX_ARG,
    ConvergenceError,
    _eval_nodes,
    _integer,
    fsum,
    gamma,
    integrate,
    invert_monotone,
    log_gamma,
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
    "expect_each",
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
# a custom pdf is digested by its values at the midpoints of this many equal
# cells of its support, or of [lo, lo + 1 + |lo|] when the support is unbounded
_DIGEST_NODES = 16


@dataclass(frozen=True)
class RandomVariable:
    """A distribution in one of three representations.

    kind "discrete": atoms + probs, tuples of floats (probs sum to 1 within
                     1e-12).
    kind "sample":   values, a nonempty read-only 1-D float64 array of
                     observations, weighted equally.
    kind "density":  pdf + support, integrated by numerics' one quadrature
                     rule; named families carry params so they serialize
                     and so their algebraic end weights go into the
                     quadrature weights instead of being sampled pointwise.

    A finite (discrete or sample) variable converts and validates its
    points once, here: any non-numeric, non-1-D, empty or non-finite input
    raises ConstructionError.  Its point and weight arrays and inf/sup are
    computed at construction, and its mean (and an unbounded density's
    truncation horizon) on first use; a declared support of None means the
    span of the points (widened by 1 for a single point).
    Variables compare by value; sample variables are not hashable.  Pickle
    and deepcopy rebuild a variable through the constructor.
    """

    kind: str
    declared_support: tuple[float, float] | None
    atoms: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    values: np.ndarray = ()
    pdf: Callable | None = None
    density_family: str | None = None
    density_params: Mapping[str, Any] | None = None
    inf: float = field(init=False, repr=False, compare=False)
    sup: float = field(init=False, repr=False, compare=False)
    _points: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _weights: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    _mean: float | None = field(init=False, repr=False, compare=False, default=None)
    _horizon: float | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            pts = _float_points(self.atoms, "atoms")
            wts = _float_points(self.probs, "probabilities")
            if len(pts) != len(wts) or not len(pts):
                raise ConstructionError("discrete needs matching nonempty atoms/probs")
            if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
                raise ConstructionError("atoms and probabilities must be finite")
            if (wts < 0.0).any():
                raise ConstructionError("probabilities must be nonnegative")
            total = fsum(wts)
            if abs(total - 1.0) > 1e-12:
                raise ConstructionError(f"probabilities sum to {total!r}, not 1")
            object.__setattr__(self, "atoms", tuple(pts.tolist()))
            object.__setattr__(self, "probs", tuple(wts.tolist()))
            object.__setattr__(self, "_weights", wts)
        elif self.kind == "sample":
            pts = _float_points(self.values, "sample values")
            if not len(pts):
                raise ConstructionError("sample representation needs at least one value")
            if not np.isfinite(pts).all():
                raise ConstructionError("sample values must be finite")
            object.__setattr__(self, "values", pts)
        elif self.kind == "density":
            if self.pdf is None:
                raise ConstructionError("density representation needs a pdf")
            pts = None
        else:
            raise ConstructionError(f"unknown kind {self.kind!r}")
        if pts is not None:
            inf, sup = float(pts.min()), float(pts.max())
            if self.declared_support is None:
                # a constant's support is [c, c + 1], or [c, the next float]
                # where c + 1.0 rounds back to c (|c| >= 2^53)
                hi = sup if sup > inf else max(inf + 1.0, math.nextafter(inf, math.inf))
                object.__setattr__(self, "declared_support", (inf, hi))
        lo, hi = self.declared_support
        if not (math.isfinite(lo) and lo < hi):
            raise ConstructionError(f"invalid declared support {self.declared_support}")
        if pts is None:
            inf, sup = lo, hi
        elif inf < lo - 1e-12 or sup > hi + 1e-12:
            what = "atoms" if self.kind == "discrete" else "sample values"
            raise ConstructionError(f"{what} outside declared support")
        object.__setattr__(self, "inf", inf)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "_points", pts)

    def __reduce__(self):
        # rebuilt through the constructor, so pickle and deepcopy keep the
        # arrays read-only (numpy does not carry the flag through a pickle)
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomVariable):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.compare and not (np.array_equal(a, b) if f.name == "values" else a == b):
                return False
        return True

    # -- support helpers ----------------------------------------------------

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup)

    def digest(self) -> str:
        """A string naming the law: the atoms and probabilities of a discrete
        variable, the size, mean and a hash of the values of a sample (in
        their order, so two orderings of one sample digest differently), the
        family, support and shape parameters of a named density, and for a
        custom pdf its support and a hash of its values at _digest_nodes."""
        if self.kind == "discrete":
            inner = ",".join(f"{a:.12g}:{p:.12g}" for a, p in zip(self.atoms, self.probs))
            return f"discrete[{inner}]"
        if self.kind == "sample":
            values_hash = hashlib.sha256(self.values.tobytes()).hexdigest()[:16]
            return f"sample[n={len(self.values)},mean={self.mean():.12g},{values_hash}]"
        if self.density_family:
            shape = "".join(f",{name}={value!r}" for name, value in
                            (self.density_params or {}).items() if name not in ("a", "b"))
            return f"density[{self.density_family},{self.declared_support}{shape}]"
        values = _eval_nodes(self.pdf, _digest_nodes(self.declared_support))
        pdf_hash = hashlib.sha256(values.tobytes()).hexdigest()[:16]
        return f"density[custom,{self.declared_support},{pdf_hash}]"

    def mean(self) -> float:
        """E X, computed on first use and then reused."""
        if self._mean is None:
            object.__setattr__(self, "_mean", expect(self, lambda x: x)[0])
        return self._mean


def _digest_nodes(support: tuple[float, float]) -> np.ndarray:
    lo, hi = support
    if not math.isfinite(hi):
        hi = lo + 1.0 + abs(lo)
    return lo + (hi - lo) * (np.arange(_DIGEST_NODES) + 0.5) / _DIGEST_NODES


def _float_points(points, what: str) -> np.ndarray:
    """A fresh read-only 1-D float64 copy of numeric points."""
    try:
        arr = np.asarray(points if isinstance(points, (np.ndarray, list, tuple))
                         else list(points))
        if arr.dtype.kind not in "biuf":
            raise TypeError(f"dtype {arr.dtype}")
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"{what} must be numeric: {exc}") from exc
    if arr.ndim != 1:
        raise ConstructionError(f"{what} must be one-dimensional, got shape {arr.shape}")
    # copy the caller's own array, so its later writes cannot reach the variable
    arr = arr.astype(float, copy=arr is points)
    arr.flags.writeable = False
    return arr


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
    """The lottery paying atoms[i] with probability probs[i]; both are kept as
    tuples of floats.  The support defaults to the span of the atoms."""
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
    """The empirical law of values, copied once into a read-only float64
    array; inf, sup and the default support (their span) are computed then."""
    return RandomVariable(kind="sample", declared_support=support, values=values)


def density(pdf: Callable, support: tuple[float, float],
            family: str | None = None,
            params: Mapping[str, Any] | None = None) -> RandomVariable:
    """Wrap a pdf; checks that it integrates to 1 within 1e-6 unless a
    family is named, whose constructor guarantees it."""
    rv = RandomVariable(kind="density", declared_support=(float(support[0]), float(support[1])),
                        pdf=pdf, density_family=family, density_params=params)
    if family is None:
        total, _ = _density_expect(rv, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        if abs(total - 1.0) > 1e-6:
            raise ConstructionError(f"pdf integrates to {total!r}, not 1")
    return rv


def uniform(a: float, b: float) -> RandomVariable:
    a, b = float(a), float(b)
    if not a < b:
        raise ConstructionError(f"uniform needs a < b, got {a}, {b}")
    return _family_density("uniform", {"a": a, "b": b})


def beta_like(a: float, b: float, c: float, d: float) -> RandomVariable:
    """Density proportional to (x-a)^(c-1) (b-x)^(d-1) on [a, b], c, d >= 1.

    Shapes below 1 are rejected so the pdf stays bounded; the singular
    endpoint-weighted case is covered by fractional_hh_density.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if not a < b:
        raise ConstructionError("beta-like needs a < b")
    if c < 1.0 or d < 1.0:
        raise ConstructionError("beta-like needs shape parameters c, d >= 1")
    return _family_density("beta-like", {"a": a, "b": b, "c": c, "d": d})


def fractional_hh_density(a: float, b: float, alpha: float) -> RandomVariable:
    """The symmetric endpoint-weighted density
    g(x) = alpha / (2 (b-a)^alpha) * ((x-a)^(alpha-1) + (b-x)^(alpha-1)).

    For alpha < 1 the pdf is singular at both endpoints; expectations are
    therefore integrated with the end exponents in the quadrature weights,
    never by sampling g pointwise.
    """
    a, b, alpha = float(a), float(b), float(alpha)
    if not a < b:
        raise ConstructionError("fractional density needs a < b")
    if not alpha > 0.0:
        raise ConstructionError("fractional density needs alpha > 0")
    return _family_density("fractional-hh", {"a": a, "b": b, "alpha": alpha})


def _family_terms(family: str | None, p: Mapping[str, Any] | None) -> tuple | None:
    """A named family's pdf on [a, b] as terms (scale, left, right) that sum
    scale (x-a)^(left-1) (b-x)^(right-1); None for a custom pdf."""
    if not p:
        return None
    if family == "uniform":
        return ((1.0 / (p["b"] - p["a"]), 1.0, 1.0),)
    if family == "beta-like":
        c, d, width = p["c"], p["d"], p["b"] - p["a"]
        try:
            if c + d <= GAMMA_MAX_ARG:
                norm = gamma(c) * gamma(d) / gamma(c + d) * width ** (c + d - 1.0)
            else:  # gamma(c + d) overflows, B(c, d) need not
                norm = math.exp(log_gamma(c) + log_gamma(d) - log_gamma(c + d)
                                + (c + d - 1.0) * math.log(width))
            scale = 1.0 / norm
        except (OverflowError, ZeroDivisionError):
            scale = math.inf
        if scale == math.inf:
            raise RangeOverflowError(f"beta-like normalisation B({c}, {d}) (b - a)^{c + d - 1.0}"
                                     f" leaves double range for b - a = {width}")
        return ((scale, c, d),)
    if family == "fractional-hh":
        scale = p["alpha"] / (2.0 * (p["b"] - p["a"]) ** p["alpha"])
        return ((scale, p["alpha"], 1.0), (scale, 1.0, p["alpha"]))
    return None


def _family_density(family: str, params: dict) -> RandomVariable:
    """A named family's variable, whose pdf (its terms on [a, b], 0 outside)
    serves sampling and callers; expectations integrate the terms.  A NaN or
    infinite parameter raises ConstructionError here, before any integral."""
    bad = {name: v for name, v in params.items() if not math.isfinite(v)}
    if bad:
        raise ConstructionError(f"{family} density needs finite parameters, got {bad}")
    a, b = params["a"], params["b"]
    terms = _family_terms(family, params)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        xa, bx = np.where(inside, x - a, 0.0), np.where(inside, b - x, 0.0)
        with np.errstate(divide="ignore"):
            total = sum(s * xa ** (left - 1.0) * bx ** (right - 1.0) for s, left, right in terms)
        return np.where(inside, total, 0.0)

    return density(pdf, (a, b), family=family, params=params)


def reflected(X: RandomVariable, center: float) -> RandomVariable:
    """The law of center - X (used for norms anchored at the upper endpoint)."""
    center = float(center)
    lo, hi = X.declared_support
    if not math.isfinite(hi):
        raise DomainError("cannot reflect an unbounded-above random variable")
    support = (center - hi, center - lo)
    if X.kind != "density":
        points = "atoms" if X.kind == "discrete" else "values"
        return replace(X, declared_support=support, **{points: center - X._points})
    fam, params = X.density_family, X.density_params
    if _family_terms(fam, params) is not None:
        params = {**params, "a": center - params["b"], "b": center - params["a"]}
        if fam == "beta-like":
            params["c"], params["d"] = params["d"], params["c"]
        return _family_density(fam, params)
    base_pdf = X.pdf

    def pdf(y):
        return base_pdf(center - np.asarray(y, dtype=float))

    return RandomVariable(kind="density", declared_support=support, pdf=pdf)


# ---------------------------------------------------------------------------
# Expectation oracle
# ---------------------------------------------------------------------------


def _finite_mean(X: RandomVariable, vals: np.ndarray) -> float:
    """E over a discrete or sample variable of values given at its points:
    the weighted terms or the values summed by numerics.fsum, correctly
    rounded and bit for bit math.fsum's sum.  A sum that leaves double
    range raises RangeOverflowError."""
    try:
        if X.kind == "discrete":
            return fsum(X._weights * vals)
        return fsum(vals) / len(vals)
    except OverflowError as exc:
        raise RangeOverflowError(f"the sum over the points leaves double range: {exc}") from exc


def _check_domain(X: RandomVariable, f) -> None:
    if isinstance(f, FunctionSpec):
        lo, hi = f.domain
        if X.inf < lo - 1e-9 or (math.isfinite(hi) and X.sup > hi + 1e-9):
            raise DomainMismatchError(
                f"support [{X.inf}, {X.sup}] leaves the domain of {f.label}")


def _truncation_horizon(X: RandomVariable) -> float:
    """Upper point H with mass(X > H) <= the truncation budget, searched on
    first use and then reused, as the mean is."""
    if X._horizon is None:
        lo = X.declared_support[0]
        width = 1.0 + abs(lo)
        for _ in range(80):
            if integrate(X.pdf, lo, lo + width).value >= 1.0 - _TRUNCATION_MASS:
                break
            width *= 2.0
        else:
            raise MomentDivergenceError("density mass does not concentrate below span 2^80")
        object.__setattr__(X, "_horizon", lo + width)
    return X._horizon


def _density_expect(X: RandomVariable, fn: Callable) -> tuple[float, float]:
    lo, hi = X.declared_support
    terms = _family_terms(X.density_family, X.density_params)
    if terms is not None:
        # each scale goes inside, so the quadrature tolerance holds for E f(X)
        parts = [integrate(lambda t: s * np.asarray(fn(t), dtype=float), lo, hi, *ends)
                 for s, *ends in terms]
        return sum(p.value for p in parts), sum(p.error_estimate for p in parts)
    tail = 0.0
    if not math.isfinite(hi):
        hi = _truncation_horizon(X)
        # Tail mass times the boundary magnitude is the cheap truncation term.
        tail = _TRUNCATION_MASS * abs(float(fn(hi))) + _TRUNCATION_MASS
    res = integrate(lambda x: np.asarray(fn(x), dtype=float) * np.asarray(X.pdf(x), dtype=float),
                    lo, hi)
    return res.value, res.error_estimate + tail


def expect(X: RandomVariable, f) -> tuple[float, float]:
    """E f(X) and an error estimate; the oracle for every bound test.

    Exact weighted sum for discrete, plain average for samples, both
    summed by numerics.fsum (correctly rounded, the same bits as
    math.fsum) with no error term; for densities, panel-doubled
    Gauss-Legendre, graded towards the ends of named families whose pdf
    carries an end exponent other than 1, with the last doubling step as
    error estimate.  Quadrature that does not converge raises
    MomentDivergenceError.
    """
    _check_domain(X, f)
    if X.kind != "density":
        xs = X._points
        vals = f.eval_on(xs) if isinstance(f, FunctionSpec) else _eval_nodes(f, xs)
        return _finite_mean(X, vals), 0.0
    try:
        return _density_expect(X, f.eval_fn if isinstance(f, FunctionSpec) else f)
    except ConvergenceError as exc:
        raise MomentDivergenceError(
            f"expectation quadrature diverged: {exc}") from exc


def expect_each(X: RandomVariable, stacked: Callable, members: Iterable) -> list[float]:
    """E f(X) for each callable f of members, without error estimates;
    stacked(xs) gives every member's values at an array of points, one row
    each, with the bits of the member alone.

    A discrete or sample X takes one call of stacked on its points and one
    mean per row, the values expect gives member by member; a density takes
    one expect per member, as quadrature takes one integrand, and only then
    is members iterated.
    """
    if X.kind != "density":
        return [_finite_mean(X, row) for row in stacked(X._points)]
    return [expect(X, f)[0] for f in members]


# ---------------------------------------------------------------------------
# Shifted moments
# ---------------------------------------------------------------------------


def shifted_moment(X: RandomVariable, shift: float, order: int) -> MomentReport:
    """E (X - shift)^order and the norm ||X - shift||_order.

    Requires an integer order in 1..64, a finite shift and the mass above
    the shift.  One expect of (max(x - shift, 0) / scale)^order, scale =
    sup X - shift, keeps every power in [0, 1]; an unbounded density is cut
    at _truncation_horizon first, whose term is added to the error.
    """
    order = _integer(order, 1, "moment order")
    if order > MAX_MOMENT_ORDER:
        raise DomainError(f"order {order} beyond double-precision usefulness (max 64)")
    shift = float(shift)
    if not math.isfinite(shift):
        raise DomainError(f"shift must be finite, got {shift}")
    if X.inf < shift - EQ_ABS:
        raise SupportViolationError(
            f"mass below shift: inf X = {X.inf} < shift = {shift}")
    method = "quadrature" if X.kind == "density" else "exact-sum"
    hi, truncation = X.sup, 0.0
    if not math.isfinite(hi):
        hi = _truncation_horizon(X)
        truncation = _TRUNCATION_MASS * (1.0 + (hi - shift))
        X = replace(X, declared_support=(X.declared_support[0], hi))
    scale = hi - shift
    if scale <= 0.0:
        return MomentReport(order, shift, 0.0, 0.0, method)
    scaled, err = expect(X, lambda x: (np.maximum(x - shift, 0.0) / scale) ** order)
    scaled = max(scaled, 0.0)
    norm = pnorm_shifted(scaled, order, scale)
    return MomentReport(order, shift, _unscaled(scaled, scale, order), norm, method,
                        err + truncation)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def sample_mc(X: RandomVariable, n: int, seed: int) -> RandomVariable:
    """Draw n values, bit-for-bit reproducible for a given seed (PCG64).

    Discrete and empirical kinds sample by inverse CDF over the atom table;
    uniform draws are lo + (hi - lo) u, and other densities solve cdf(x) = u
    for all draws in one invert_monotone run, on a cdf whose slope is the
    pdf (fractional-hh) or the slope of its trapezoid table.
    """
    n = _integer(n, 1, "n")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    u = rng.random(n)

    if X.kind == "discrete":
        cum = np.cumsum(X._weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, u, side="left")
        vals = X._points[idx]
        return from_sample(vals, X.declared_support)

    if X.kind == "sample":
        vals = rng.choice(X.values, size=n, replace=True)
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

        def rows(x):
            return ((x - a) ** alpha + (b - a) ** alpha - (b - x) ** alpha) / \
                (2.0 * (b - a) ** alpha), X.pdf(x)
    else:
        grid = np.linspace(lo, hi, 4097)
        pdf_vals = _eval_nodes(X.pdf, grid)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf_vals[1:] + pdf_vals[:-1])
                                               * np.diff(grid))])
        cum /= cum[-1]
        slope = np.diff(cum) / np.diff(grid)

        def rows(x):
            j = np.searchsorted(grid, x, side="right") - 1
            return np.interp(x, grid, cum), slope[np.minimum(np.maximum(j, 0), slope.size - 1)]

    cdf = FunctionSpec(label="cdf", domain=(lo, hi),
                       jet=Jet(lambda x, k_lo, k_hi: rows(x)[k_lo:k_hi + 1], 1))
    return from_sample(invert_monotone(cdf, u, (lo, hi)), X.declared_support)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


# kind -> the keys its descriptor reads
_KIND_KEYS = {"discrete": ("kind", "atoms", "probs", "support"),
              "sample": ("kind", "values", "support"),
              "density": ("kind", "family", "params", "support")}
# density family -> (its constructor from (a, b, *shape), its shape params)
_DENSITY_FAMILIES = {"uniform": (uniform, ()), "beta-like": (beta_like, ("c", "d")),
                     "fractional-hh": (fractional_hh_density, ("alpha",))}


def distribution_from_descriptor(raw: Mapping[str, Any]) -> RandomVariable:
    """Parse the JSON wire format for distributions.

    A density's ends come from "support" or from its params "a" and "b",
    which must equal the support when both are given.  A missing or
    malformed field, a key that nothing reads (see _KIND_KEYS and
    _DENSITY_FAMILIES) or ends that disagree raise InputFormatError.
    """
    if not isinstance(raw, Mapping):
        raise InputFormatError("distribution descriptor must be an object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise InputFormatError(f"distribution: unknown kind {kind!r}")
    _object(f"{kind} distribution", raw, (), _KIND_KEYS[kind])
    try:
        support = tuple(raw["support"]) if "support" in raw else None
        if kind == "discrete":
            return discrete(raw["atoms"], raw["probs"], support)
        if kind == "sample":
            return from_sample(raw["values"], support)
        family = raw.get("family")
        if not isinstance(family, str) or family not in _DENSITY_FAMILIES:
            raise InputFormatError(f"distribution: unknown density family {family!r}")
        make, shape = _DENSITY_FAMILIES[family]
        params = _object(f"{family} density params", raw.get("params", {}), (), ("a", "b") + shape)
        if support is None:
            support = (params["a"], params["b"])
        elif ("a" in params or "b" in params) and (params.get("a"), params.get("b")) != support:
            raise InputFormatError(
                f"{family} density: support {list(support)} and params a = "
                f"{params.get('a')!r}, b = {params.get('b')!r} disagree")
        return make(*support, *(params[key] for key in shape))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputFormatError):
            raise
        raise InputFormatError(f"distribution descriptor field error: {exc}") from exc


def distribution_to_descriptor(X: RandomVariable) -> dict:
    if X.kind == "discrete":
        return {"kind": "discrete", "atoms": list(X.atoms), "probs": list(X.probs),
                "support": list(X.declared_support)}
    if X.kind == "sample":
        return {"kind": "sample", "values": X.values.tolist(),
                "support": list(X.declared_support)}
    if X.density_family is None:
        raise ConstructionError("custom pdf densities have no JSON form")
    return {"kind": "density", "family": X.density_family,
            "params": dict(X.density_params or {}),
            "support": list(X.declared_support)}
