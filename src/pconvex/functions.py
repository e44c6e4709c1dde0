"""Real functions with trustworthy derivative stacks.

Certification needs derivatives it can believe, so functions are built from
a closed catalog of families (each with analytic derivatives to any stored
order) plus combinators that propagate stacks by chain/linearity rules.
A "numeric" escape hatch exists for arbitrary callables; certificates record
the degraded provenance and widen their slack accordingly.

Every evaluation callable accepts floats or numpy arrays: numeric_function
wraps a scalar-only callable so that it loops over arrays itself, the
inverse composition solves all points of a call at once, and the
antiderivative maps its per-point integral over the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConstructionError,
    DerivativeOrderError,
    DomainError,
    InputFormatError,
    MonotonicityError,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    ToleranceProfile,
    _eval_nodes,
    fd_derivative,
    integrate,
    invert_monotone,
)

__all__ = [
    "CatalogEntry",
    "FunctionSpec",
    "affine_precompose",
    "antiderivative_from",
    "compose_inverse",
    "derivative_function",
    "exp_taylor_remainder",
    "exponential",
    "function_from_descriptor",
    "function_to_descriptor",
    "log_affine",
    "make_catalog",
    "nonneg_weighted_sum",
    "numeric_function",
    "polynomial",
    "shifted_power",
    "taylor_remainder",
]

DEFAULT_EVAL_HORIZON = 1e6
_MONOTONICITY_GRID = 256  # points compose_inverse checks f' > 0 on
_CATALOG_DEPTH = 8  # analytic orders of shifted-power, exponential, log-affine

_FAMILIES = (
    "shifted-power",
    "exponential",
    "exp-taylor-remainder",
    "log-affine",
    "polynomial",
    "affine-precompose",
    "nonneg-weighted-sum",
)


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable real function on an interval with a derivative stack.

    domain is (lo, hi) with hi possibly +inf; unbounded domains are only
    ever evaluated up to eval_horizon.  derivatives holds analytic callables
    for orders 1..len(derivatives).  An "analytic" spec has no orders past
    its stack; a "numeric" or "mixed" one reaches up to 4 orders further by
    finite differences of the deepest analytic entry (of the function itself
    when the stack is empty).
    """

    label: str
    domain: tuple[float, float]
    eval_fn: Callable
    derivatives: tuple[Callable, ...] = ()
    provenance: str = "analytic"  # analytic | numeric | mixed
    descriptor: Mapping[str, Any] | None = None
    eval_horizon: float = DEFAULT_EVAL_HORIZON

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and lo < hi):
            raise ConstructionError(f"invalid domain {self.domain}")
        if self.provenance not in ("analytic", "numeric", "mixed"):
            raise ConstructionError(f"invalid provenance {self.provenance!r}")

    def __call__(self, x):
        return self.eval_fn(x)

    @property
    def analytic_depth(self) -> int:
        return len(self.derivatives)

    @property
    def upper_cap(self) -> float:
        """Finite evaluation cap: domain top, or the horizon when unbounded."""
        lo, hi = self.domain
        return hi if math.isfinite(hi) else lo + self.eval_horizon

    def derivative(self, k: int) -> Callable:
        """Callable for the k-th derivative (k = 0 is the function itself)."""
        if k < 0:
            raise DerivativeOrderError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self.eval_fn
        if k <= len(self.derivatives):
            return self.derivatives[k - 1]
        if self.provenance == "analytic":
            raise DerivativeOrderError(
                f"{self.label}: derivative order {k} exceeds the analytic stack "
                f"({len(self.derivatives)})")
        extra = k - len(self.derivatives)
        if extra > 4:
            raise DerivativeOrderError(
                f"{self.label}: order {k} needs {extra} finite-difference levels (max 4)")
        base = self.derivatives[-1] if self.derivatives else self.eval_fn

        def numeric_deriv(x, _base=base, _extra=extra):
            return fd_derivative(_base, x, _extra)

        return numeric_deriv

    def eval_on(self, xs: np.ndarray, order: int = 0) -> np.ndarray:
        """Evaluate a derivative on a grid in one array call."""
        return np.asarray(self.derivative(order)(np.asarray(xs, dtype=float)), dtype=float)

    def grid(self, n: int, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        a = self.domain[0] if lo is None else lo
        b = self.upper_cap if hi is None else hi
        return np.linspace(a, b, n + 1)


@dataclass(frozen=True)
class CatalogEntry:
    """Family name + parameters + domain; the JSON-facing constructor input."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    domain: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConstructionError(
                f"unknown catalog family {self.family!r}; allowed: {_FAMILIES}")


# ---------------------------------------------------------------------------
# Catalog families
# ---------------------------------------------------------------------------


def _finite(what: str, *values: float) -> None:
    """Reject NaN or infinite parameters; domains may still be unbounded."""
    if not all(map(math.isfinite, values)):
        raise ConstructionError(f"{what} must be finite, got {values}")


def _falling_factorial(q: float, k: int) -> float:
    c = 1.0
    for j in range(k):
        c *= q - j
    return c


def shifted_power(q: float, shift: float = 0.0,
                  domain: tuple[float, float] | None = None) -> FunctionSpec:
    """(x - shift)^q with q >= 1; domain defaults to [shift, inf)."""
    _finite("shifted-power q and shift", q, shift)
    if q < 1.0:
        raise ConstructionError(f"shifted-power needs exponent q >= 1, got {q}")
    dom = (shift, math.inf) if domain is None else (float(domain[0]), float(domain[1]))
    if dom[0] < shift - 1e-12:
        raise ConstructionError("shifted-power domain must start at or above the shift")

    def make(k: int) -> Callable:
        c = _falling_factorial(q, k)
        e = q - k

        def deriv(x, _c=c, _e=e):
            if _c == 0.0:
                return np.zeros_like(np.asarray(x, dtype=float)) + 0.0
            base = np.asarray(x, dtype=float) - shift
            if _e >= 0:
                return _c * np.where(base > 0.0, base, 0.0) ** _e
            with np.errstate(divide="ignore", invalid="ignore"):
                return _c * base ** _e

        return deriv

    return FunctionSpec(
        label=f"(x-{shift:g})^{q:g}" if shift else f"x^{q:g}",
        domain=dom,
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, _CATALOG_DEPTH + 1)),
        descriptor={"family": "shifted-power", "params": {"q": q, "a": shift}},
    )


def exponential(s: float = 1.0,
                domain: tuple[float, float] = (0.0, math.inf)) -> FunctionSpec:
    """e^(s x); all derivatives are s^k e^(s x)."""
    _finite("exponential rate s", s)

    def make(k: int) -> Callable:
        c = float(s) ** k

        def deriv(x, _c=c):
            return _c * np.exp(s * np.asarray(x, dtype=float))

        return deriv

    return FunctionSpec(
        label=f"exp({s:g}x)" if s != 1.0 else "exp(x)",
        domain=(float(domain[0]), float(domain[1])),
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, _CATALOG_DEPTH + 1)),
        descriptor={"family": "exponential", "params": {"s": float(s)}},
    )


def _exp_tail(x: np.ndarray, p: int) -> np.ndarray:
    """e^x minus its degree-p Taylor polynomial at 0, cancellation-free.

    Near zero the difference of two O(1) quantities loses all relative
    accuracy, so the tail series sum_{j>p} x^j/j! is used there instead.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= 1.0
    out = np.empty_like(x)

    xs = x[small]
    term = xs ** (p + 1) / math.factorial(p + 1)
    acc = term.copy()
    j = p + 2
    while j < p + 40:
        term = term * xs / j
        acc += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(acc) + 1e-300)):
            break
        j += 1
    out[small] = acc

    xl = x[~small]
    poly = np.zeros_like(xl)
    for j in range(p, 0, -1):
        poly = (poly + 1.0 / math.factorial(j)) * xl
    poly += 1.0
    out[~small] = np.exp(xl) - poly
    return out


def exp_taylor_remainder(p: int,
                         domain: tuple[float, float] = (0.0, math.inf)) -> FunctionSpec:
    """T_p(x) = e^x - sum_{j<=p} x^j/j!; each derivative is the next-lower tail."""
    if p < 0 or p != int(p):
        raise ConstructionError(f"exp-taylor-remainder needs integer p >= 0, got {p}")
    p = int(p)
    depth = p + 6

    def make(k: int) -> Callable:
        order = p - k

        def deriv(x, _o=order):
            x = np.asarray(x, dtype=float)
            if _o < 0:
                return np.exp(x)
            return _exp_tail(x, _o)

        return deriv

    return FunctionSpec(
        label=f"exp_tail_{p}",
        domain=(float(domain[0]), float(domain[1])),
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, depth + 1)),
        descriptor={"family": "exp-taylor-remainder", "params": {"p": p}},
    )


def log_affine(b: float, domain: tuple[float, float] | None = None) -> FunctionSpec:
    """ln(x) - x/b on (0, b]; increasing and concave with slope 0 at b."""
    _finite("log-affine b", b)
    if not b > 0.0:
        raise ConstructionError(f"log-affine needs b > 0, got {b}")
    dom = (1e-6 * b, b) if domain is None else (float(domain[0]), float(domain[1]))
    if dom[0] <= 0.0:
        raise ConstructionError("log-affine domain must stay strictly positive")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.log(x) - x / b

    def make(k: int) -> Callable:
        if k == 1:
            return lambda x: 1.0 / np.asarray(x, dtype=float) - 1.0 / b
        c = float((-1) ** (k - 1) * math.factorial(k - 1))
        return lambda x, _c=c, _k=k: _c * np.asarray(x, dtype=float) ** (-_k)

    return FunctionSpec(
        label=f"log(x)-x/{b:g}",
        domain=dom,
        eval_fn=ev,
        derivatives=tuple(make(k) for k in range(1, _CATALOG_DEPTH + 1)),
        descriptor={"family": "log-affine", "params": {"b": float(b)}},
    )


def polynomial(coeffs: Sequence[float],
               domain: tuple[float, float] = (0.0, 1.0)) -> FunctionSpec:
    """sum_j coeffs[j] x^j with the full (finite) derivative stack."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ConstructionError("polynomial needs at least one coefficient")
    _finite("polynomial coefficients", *coeffs)
    degree = len(coeffs) - 1
    depth = degree + 4

    def make(k: int) -> Callable:
        dk = tuple(coeffs[j] * _falling_factorial(j, k)
                   for j in range(k, len(coeffs)))

        def deriv(x, _dk=dk):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for c in reversed(_dk):
                out = out * x + c
            return out

        return deriv

    return FunctionSpec(
        label=f"poly{list(coeffs)}",
        domain=(float(domain[0]), float(domain[1])),
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, depth + 1)),
        descriptor={"family": "polynomial", "params": {"coeffs": list(coeffs)}},
    )


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def affine_precompose(inner: FunctionSpec, scale: float, offset: float,
                      domain: tuple[float, float] | None = None) -> FunctionSpec:
    """g(x) = inner(scale * x + offset); stack via the chain rule."""
    scale = float(scale)
    offset = float(offset)
    _finite("affine-precompose scale and offset", scale, offset)
    if scale == 0.0:
        raise ConstructionError("affine-precompose needs scale != 0")
    ilo, ihi = inner.domain
    if domain is None:
        if scale > 0.0:
            dom = ((ilo - offset) / scale,
                   (ihi - offset) / scale if math.isfinite(ihi) else math.inf)
        else:
            if not math.isfinite(ihi):
                raise ConstructionError(
                    "negative scale over an unbounded inner domain has no left endpoint")
            dom = ((ihi - offset) / scale, (ilo - offset) / scale)
    else:
        dom = (float(domain[0]), float(domain[1]))

    def make(k: int) -> Callable:
        base = inner.derivative(k)
        c = scale ** k

        def deriv(x, _f=base, _c=c):
            return _c * np.asarray(_f(scale * np.asarray(x, dtype=float) + offset))

        return deriv

    desc = None
    if inner.descriptor is not None:
        desc = {"family": "affine-precompose",
                "params": {"scale": scale, "offset": offset,
                           "inner": dict(inner.descriptor)}}
    return FunctionSpec(
        label=f"{inner.label}({scale:g}x+{offset:g})",
        domain=dom,
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, inner.analytic_depth + 1)),
        provenance=inner.provenance,
        descriptor=desc,
        eval_horizon=inner.eval_horizon,
    )


def nonneg_weighted_sum(terms: Sequence[tuple[float, FunctionSpec]],
                        domain: tuple[float, float] | None = None) -> FunctionSpec:
    """sum_i w_i f_i with w_i >= 0; stacks add by linearity."""
    if not terms:
        raise ConstructionError("weighted sum needs at least one term")
    weights = [float(w) for w, _ in terms]
    _finite("weighted-sum weights", *weights)
    if any(w < 0.0 for w in weights):
        raise ConstructionError("weights must be nonnegative")
    fns = [f for _, f in terms]
    lo = max(f.domain[0] for f in fns)
    hi = min(f.domain[1] for f in fns)
    dom = (lo, hi) if domain is None else (float(domain[0]), float(domain[1]))
    if not dom[0] < dom[1]:
        raise ConstructionError("weighted-sum domains do not overlap")
    depth = min(f.analytic_depth for f in fns)
    prov = "analytic"
    if any(f.provenance != "analytic" for f in fns):
        prov = "mixed" if any(f.provenance == "analytic" for f in fns) else "numeric"

    def make(k: int) -> Callable:
        parts = [(w, f.derivative(k)) for w, f in zip(weights, fns)]

        def deriv(x, _parts=parts):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for w, fn in _parts:
                out = out + w * np.asarray(fn(x))
            return out

        return deriv

    desc = None
    if all(f.descriptor is not None for f in fns):
        desc = {"family": "nonneg-weighted-sum",
                "params": {"terms": [{"weight": w, "function": dict(f.descriptor)}
                                     for w, f in zip(weights, fns)]}}
    return FunctionSpec(
        label=" + ".join(f"{w:g}*{f.label}" for w, f in zip(weights, fns)),
        domain=dom,
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, depth + 1)),
        provenance=prov,
        descriptor=desc,
    )


def derivative_function(f: FunctionSpec, k: int = 1) -> FunctionSpec:
    """The k-th derivative of f as a first-class FunctionSpec (stack shifts)."""
    if k < 1:
        raise ConstructionError("derivative order must be >= 1")
    if k > f.analytic_depth:
        raise DerivativeOrderError(f"{f.label} lacks analytic order {k}")
    return FunctionSpec(
        label=f"D^{k}[{f.label}]" if k > 1 else f"D[{f.label}]",
        domain=f.domain,
        eval_fn=f.derivatives[k - 1],
        derivatives=f.derivatives[k:],
        provenance=f.provenance,
        eval_horizon=f.eval_horizon,
    )


def antiderivative_from(g: FunctionSpec, base: float | None = None) -> FunctionSpec:
    """f(x) = integral from a to x of (g(z) - g(a)) dz.

    Raises membership one level: the construction turns a certified member at
    order p-1 (with the g(a) offset removed) into a candidate at order p.
    Evaluation integrates numerically; every derivative is analytic.
    """
    a = g.domain[0] if base is None else float(base)
    ga = float(g(a))

    def ev(x: float) -> float:
        if x <= a:
            return 0.0
        return integrate(lambda t: np.asarray(g(t), dtype=float) - ga, a, float(x)).value

    def first(x):
        return np.asarray(g(x), dtype=float) - ga

    derivs = (first,) + tuple(g.derivatives)
    return FunctionSpec(
        label=f"int[{g.label}]",
        domain=g.domain,
        eval_fn=np.vectorize(ev, otypes=[float]),
        derivatives=derivs,
        provenance=g.provenance,
        eval_horizon=g.eval_horizon,
    )


def numeric_function(fn: Callable, domain: tuple[float, float],
                     label: str = "numeric") -> FunctionSpec:
    """Escape hatch: a bare callable with finite-difference derivatives only.

    fn may be scalar-only; it is called on whole arrays when it accepts them
    and looped over the points otherwise.
    """
    return FunctionSpec(
        label=label,
        domain=(float(domain[0]), float(domain[1])),
        eval_fn=lambda x: _eval_nodes(fn, x),
        derivatives=(),
        provenance="numeric",
    )


# ---------------------------------------------------------------------------
# Taylor remainder and inverse composition
# ---------------------------------------------------------------------------


def taylor_remainder(f: FunctionSpec, p: int) -> FunctionSpec:
    """f minus its degree-p Taylor polynomial at 0.

    Requires analytic derivatives to order p and a domain starting at 0.
    The result has R^(k)(0) = 0 exactly for k = 0..p by construction, and
    inherits membership at order p whenever f^(p) is convex and increasing.
    """
    if p < 1 or p != int(p):
        raise DomainError(f"taylor_remainder needs integer p >= 1, got {p}")
    p = int(p)
    if f.analytic_depth < p:
        raise DerivativeOrderError(
            f"{f.label} has analytic depth {f.analytic_depth} < p = {p}")
    if abs(f.domain[0]) > 1e-12:
        raise DomainError("taylor_remainder is anchored at 0; domain must start there")

    coeffs = [float(f(0.0))] + [float(f.derivative(j)(0.0)) for j in range(1, p + 1)]

    def make(k: int) -> Callable:
        base = f.derivative(k)
        # Horner coefficients of the truncated Taylor poly's k-th derivative,
        # highest power first.
        horner = [coeffs[j] / math.factorial(j - k) for j in range(p, k - 1, -1)]

        def deriv(x, _base=base, _horner=horner):
            x = np.asarray(x, dtype=float)
            poly = np.zeros_like(x)
            for c in _horner:
                poly = poly * x + c
            return np.asarray(_base(x), dtype=float) - poly

        return deriv

    depth = f.analytic_depth
    return FunctionSpec(
        label=f"taylor_tail_{p}[{f.label}]",
        domain=f.domain,
        eval_fn=make(0),
        derivatives=tuple(make(k) for k in range(1, depth + 1)),
        provenance=f.provenance,
        eval_horizon=f.eval_horizon,
    )


def compose_inverse(l: FunctionSpec, f: FunctionSpec,
                    tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> FunctionSpec:
    """y -> l(f^{-1}(y)) on [f(lo), f(cap)] for strictly increasing f.

    One invert_monotone run solves all points of a call.  Orders 1-2 come
    from the inverse-function chain rule on the analytic stacks (closed-form
    higher inverse derivatives are too error-prone), so the result has
    "mixed" provenance: certifiers difference the order-2 entry on their
    grids, and an order >= 3 asked for at a point is a finite difference of
    it, each stencil point a fresh inversion.
    """
    lo = f.domain[0]
    hi = f.upper_cap
    xs = np.linspace(lo, hi, _MONOTONICITY_GRID + 1)
    d1 = f.eval_on(xs, 1)
    if np.any(d1 < 0.0) or np.any(d1[1:-1] <= 0.0):
        bad = float(xs[int(np.argmin(d1))])
        raise MonotonicityError(
            f"{f.label} is not strictly increasing (f' <= 0 near x = {bad:.6g})")
    vals = f.eval_on(xs, 0)
    if np.any(np.diff(vals) <= 0.0):
        raise MonotonicityError(f"{f.label} values do not strictly increase on the grid")

    y_lo, y_hi = float(vals[0]), float(vals[-1])
    # Interior clamp dodges 0/0 in l'(x)/f'(x) when f'(lo) = 0.
    y_eps = 1e-9 * (y_hi - y_lo)

    def x_of(y):
        return invert_monotone(f.eval_fn, np.clip(y, y_lo + y_eps, y_hi), (lo, hi), tolerances)

    def d1_fn(y):
        x = x_of(y)
        return l.derivative(1)(x) / f.derivative(1)(x)

    def d2_fn(y):
        x = x_of(y)
        lp, lpp = l.derivative(1)(x), l.derivative(2)(x)
        fp, fpp = f.derivative(1)(x), f.derivative(2)(x)
        # not fp ** 3: numpy's scalar and array powers differ in last bits
        return (lpp * fp - lp * fpp) / (fp * fp * fp)

    return FunctionSpec(
        label=f"{l.label} o inv[{f.label}]",
        domain=(y_lo, y_hi),
        eval_fn=lambda y: l(x_of(y)),
        derivatives=(d1_fn, d2_fn),
        provenance="mixed",
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def _domain_to_json(domain: tuple[float, float]) -> list:
    lo, hi = domain
    return [lo, "inf" if math.isinf(hi) else hi]


def _domain_from_json(raw: Any, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise InputFormatError(f"{where}: domain must be [lo, hi], got {raw!r}")
    lo = float(raw[0])
    hi = math.inf if raw[1] in ("inf", "+inf", "Infinity") else float(raw[1])
    return (lo, hi)


def make_catalog(entry: CatalogEntry) -> FunctionSpec:
    """Build a FunctionSpec from a catalog entry (the JSON-facing path)."""
    fam, params = entry.family, dict(entry.params)
    dom = entry.domain
    try:
        if fam == "shifted-power":
            return shifted_power(float(params["q"]), float(params.get("a", 0.0)), dom)
        if fam == "exponential":
            return exponential(float(params.get("s", 1.0)),
                               dom if dom is not None else (0.0, math.inf))
        if fam == "exp-taylor-remainder":
            return exp_taylor_remainder(int(params["p"]),
                                        dom if dom is not None else (0.0, math.inf))
        if fam == "log-affine":
            return log_affine(float(params["b"]), dom)
        if fam == "polynomial":
            return polynomial(params["coeffs"], dom if dom is not None else (0.0, 1.0))
        if fam == "affine-precompose":
            inner = function_from_descriptor(params["inner"])
            return affine_precompose(inner, float(params["scale"]),
                                     float(params.get("offset", 0.0)), dom)
        if fam == "nonneg-weighted-sum":
            terms = [(float(t["weight"]), function_from_descriptor(t["function"]))
                     for t in params["terms"]]
            return nonneg_weighted_sum(terms, dom)
    except KeyError as exc:
        raise ConstructionError(f"{fam}: missing parameter {exc}") from exc
    raise ConstructionError(f"unknown family {fam!r}")


def function_from_descriptor(raw: Mapping[str, Any]) -> FunctionSpec:
    """Parse {"family": ..., "params": {...}, "domain": [lo, hi|"inf"]}."""
    if not isinstance(raw, Mapping):
        raise InputFormatError(f"function descriptor must be an object, got {type(raw).__name__}")
    if "family" not in raw:
        raise InputFormatError("function descriptor: missing 'family'")
    fam = raw["family"]
    if fam not in _FAMILIES:
        raise InputFormatError(f"function descriptor: unknown family {fam!r}")
    dom = _domain_from_json(raw["domain"], f"family {fam}") if "domain" in raw else None
    entry = CatalogEntry(family=fam, params=raw.get("params", {}), domain=dom)
    return make_catalog(entry)


def function_to_descriptor(f: FunctionSpec) -> dict:
    """Lossless JSON descriptor for catalog-built functions."""
    if f.descriptor is None:
        raise ConstructionError(f"{f.label} was not built from the catalog; no descriptor")
    out = dict(f.descriptor)
    out["domain"] = _domain_to_json(f.domain)
    return out
