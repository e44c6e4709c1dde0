"""Real functions with trustworthy derivatives, carried as Taylor jets.

Certification needs derivatives it can believe, so functions are built from
a closed catalog of families (closed-form jets: f^(k) for k = lo..hi at a
set of points, in one kernel call) plus combinators that are jet arithmetic
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).
The inverse composition reverts f's series (Brent & Kung, J. ACM 25(4),
1978).  A custom function brings its own jet, exact derivatives written
out by the caller: FunctionSpec(label, domain, jet=Jet(rows, depth)).

Every evaluation callable accepts floats or numpy arrays (a caller
vectorizes a scalar-only callable), and the inverse composition solves all
points of a call at once.  A complex value, which a cast to float would cut
to its real part, raises DomainError naming the points.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import InitVar, dataclass
from functools import partial
from typing import Any

import numpy as np

from .errors import (
    ConstructionError,
    DerivativeOrderError,
    DomainError,
    InputFormatError,
    MonotonicityError,
    PconvexError,
)
from .numerics import _integer, _real, _table_cell, integrate, invert_monotone

__all__ = [
    "FunctionSpec",
    "Jet",
    "affine_precompose",
    "antiderivative_from",
    "compose_inverse",
    "derivative_function",
    "exp_taylor_remainder",
    "exponential",
    "function_from_descriptor",
    "function_to_descriptor",
    "log_affine",
    "nonneg_weighted_sum",
    "polynomial",
    "shifted_power",
    "taylor_remainder",
]

EVAL_HORIZON = 1e6  # span past lo at which an unbounded domain is capped
_MONOTONICITY_GRID = 256  # points compose_inverse checks f' > 0 on
_CATALOG_DEPTH = 8  # analytic orders of shifted-power, exponential, log-affine


@dataclass(frozen=True)
class Jet:
    """A jet kernel: rows(x, lo, hi) gives f^(k)(x) for k = lo..hi <= depth,
    one array per order, at a float array x of points (a stacked family's
    rows carry leading member axes).  Row k must not depend on lo or hi, so
    every view of the jet gives the same bits."""

    rows: Callable[[np.ndarray, int, int], Sequence[np.ndarray]]
    depth: int


def _order(jet: Jet, k: int, x):
    return jet.rows(np.asarray(x, dtype=float), k, k)[0]


@dataclass(frozen=True)
class FunctionSpec:
    """An evaluable real function on an interval with a derivative stack.

    domain is (lo, hi) with hi possibly +inf; an unbounded domain is only
    ever evaluated up to the fixed cap lo + EVAL_HORIZON (upper_cap), which
    no spec changes.  Every spec evaluates through its jet: eval_on reads one
    row, derivatives_on several in one call.  eval_fn and derivatives (orders
    1..depth) are the jet's views, and dataclasses.replace rebuilds a spec
    from them: given no jet, a spec's row k calls its k-th callable.  No
    spec has an order past its stack.  A custom function is a jet of exact
    derivatives, FunctionSpec(label, domain, jet=Jet(rows, depth)), or
    eval_fn with derivatives; every callable takes a float array.  A value
    or row that is complex raises DomainError naming the points.

    leading is the leading term (mu, c) of f(x) - f(lo) ~ c (x - lo)^mu at
    the left end, mu > 0 and c != 0, where a family states one its jet
    cannot show (x^q at its shift has an infinite row for a fractional q);
    it is a field, so a rebuilt spec keeps it.  Without it, leading_term()
    reads the term off the jet.
    """

    label: str
    domain: tuple[float, float]
    eval_fn: Callable | None = None
    derivatives: tuple[Callable, ...] = ()
    descriptor: Mapping[str, Any] | None = None
    leading: tuple[float, float] | None = None
    jet: InitVar[Jet | None] = None

    def __post_init__(self, jet: Jet | None) -> None:
        lo, hi = self.domain
        if not (math.isfinite(lo) and lo < hi):
            raise ConstructionError(f"invalid domain {self.domain}")
        if self.leading is not None:
            mu, c = map(float, self.leading)
            if not (0.0 < mu < math.inf and c != 0.0 and math.isfinite(c)):
                raise ConstructionError(f"{self.label}: invalid leading term {self.leading}")
            object.__setattr__(self, "leading", (mu, c))
        if (jet is None) == (self.eval_fn is None):
            raise ConstructionError(f"{self.label}: give either a jet or eval_fn")
        if jet is None:
            fns, label = (self.eval_fn, *self.derivatives), self.label
            jet = Jet(lambda x, lo, hi: [np.asarray(_real(fns[k](x), x, what=label), dtype=float)
                                         for k in range(lo, hi + 1)], len(fns) - 1)
        else:
            object.__setattr__(self, "eval_fn", partial(_order, jet, 0))
            object.__setattr__(self, "derivatives", tuple(
                partial(_order, jet, k) for k in range(1, jet.depth + 1)))
        object.__setattr__(self, "_jet", jet)

    def __call__(self, x):
        if isinstance(x, (list, tuple)):
            x = np.asarray(x, dtype=float)
        return _real(self.eval_fn(x), x, what=self.label)

    @property
    def analytic_depth(self) -> int:
        return self._jet.depth

    @property
    def upper_cap(self) -> float:
        """Finite evaluation cap: domain top, or lo + EVAL_HORIZON when unbounded."""
        lo, hi = self.domain
        return hi if math.isfinite(hi) else lo + EVAL_HORIZON

    def eval_on(self, xs, order: int = 0) -> np.ndarray:
        """f^(order) at xs (a float or an array), as a float array."""
        return np.asarray(self.derivatives_on(xs, order, order)[0], dtype=float)

    def derivatives_on(self, xs, lo: int, hi: int) -> list:
        """f^(k) at xs for k = lo..hi in one jet call; an order outside the
        stack 0..depth raises DerivativeOrderError, a complex row DomainError."""
        if lo < 0 or hi > self._jet.depth:
            raise DerivativeOrderError(f"{self.label}: derivative order {lo if lo < 0 else hi} "
                                       f"is outside its stack 0..{self._jet.depth}")
        xs = np.asarray(xs, dtype=float)
        return [_real(row, xs, what=self.label) for row in self._jet.rows(xs, lo, hi)]

    def taylor(self, xs, lo: int, hi: int) -> np.ndarray:
        """The normalised jet at xs: f^(k)(x)/k! for k = lo..hi, orders first."""
        return np.array([d / math.factorial(k)
                         for k, d in zip(range(lo, hi + 1), self.derivatives_on(xs, lo, hi))])

    def leading_term(self) -> tuple[float, float] | None:
        """The leading term (mu, c) at the left end: the stated one, else
        (k, f^(k)(lo)/k!) for the first jet row k >= 1 at lo that is not 0;
        None where that row is infinite or NaN, or every row is 0."""
        return _leading_at(self, self.domain[0])


def _leading_at(f: FunctionSpec, x: float) -> tuple[float, float] | None:
    """f's leading term at x: the stated one at f's left end, else
    (k, f^(k)(x)/k!) for the first row k >= 1 of f's jet at x that is not 0,
    or None where that row is not finite or every row is 0."""
    if f.leading is not None and x == f.domain[0]:
        return f.leading
    # row 1 alone first: it decides every spec whose f'(x) is not 0
    rows = f.derivatives_on(x, 1, 1) if f.analytic_depth else []
    if rows and float(rows[0]) == 0.0:
        rows += f.derivatives_on(x, 2, f.analytic_depth)
    for k, d in enumerate(map(float, rows), start=1):
        if d != 0.0:
            return (float(k), d / math.factorial(k)) if math.isfinite(d) else None
    return None


def _term(mu: float, c) -> tuple[float, float] | None:
    """(mu, c) as a leading term, or None where c left double range."""
    c = float(c)
    return (mu, c) if c != 0.0 and math.isfinite(c) else None


# ---------------------------------------------------------------------------
# Catalog families
# ---------------------------------------------------------------------------


def _finite(what: str, *values: float) -> None:
    """Reject NaN or infinite parameters; domains may still be unbounded."""
    if not all(map(math.isfinite, values)):
        raise ConstructionError(f"{what} must be finite, got {values}")


def _power_rows(base: np.ndarray, q, lo: int, hi: int, scale=1.0) -> list:
    """Rows lo..hi of the jet of base^q, base = scale x + c >= 0, for a
    float q >= 0 or an array of integer exponents (one per member):
    q (q-1)...(q-k+1) scale^k base^(q-k).  A vanishing coefficient (an
    integer q < k) gives a 0 row, its exponent floored at 0 so that base 0
    stays finite; only a float q < k meets base 0 with a negative one."""
    members = isinstance(q, np.ndarray)
    rows, c = [base ** q] if lo == 0 else [], 1.0
    for k in range(1, hi + 1):
        c = c * (q - k + 1)
        if k >= lo:
            e = np.maximum(q - k, 0.0) if members else q - k if c else 0.0
            with contextlib.nullcontext() if members or e >= 0.0 else np.errstate(divide="ignore"):
                rows.append((c + 0.0) * scale ** k * base ** e)  # + 0.0: no -0 rows
    return rows


def _exp_rows(x: np.ndarray, s, lo: int, hi: int) -> list:
    """Rows lo..hi of the jet of e^(s x): s^k e^(s x), +inf past double
    range without a warning (a certificate fails on an interior +inf)."""
    with np.errstate(over="ignore"):
        e = np.exp(s * x)
        return [e if k == 0 else s ** k * e for k in range(lo, hi + 1)]


def _product(a: Sequence, b: Sequence) -> list:
    """The jet of a product (rows 0..K) from its factors' jets: the Cauchy
    product of their Taylor coefficients, which on derivative values is
    Leibniz's rule."""
    out = []
    for n in range(len(a)):
        acc = a[0] * b[n]
        for i in range(1, n + 1):
            acc = acc + math.comb(n, i) * a[i] * b[n - i]
        out.append(acc)
    return out


def _horner(x: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """sum_j coeffs[j] x^j by Horner's rule (0 for no coefficients)."""
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def shifted_power(q: float, shift: float = 0.0,
                  domain: tuple[float, float] | None = None) -> FunctionSpec:
    """(x - shift)^q with q >= 1; domain defaults to [shift, inf).  A domain
    that starts at the shift states the leading term (q, 1) there."""
    _finite("shifted-power q and shift", q, shift)
    if q < 1.0:
        raise ConstructionError(f"shifted-power needs exponent q >= 1, got {q}")
    dom = (shift, math.inf) if domain is None else (float(domain[0]), float(domain[1]))
    if dom[0] < shift - 1e-12:
        raise ConstructionError("shifted-power domain must start at or above the shift")

    def rows(x, lo, hi):
        base = x - shift  # below the shift it counts as 0
        return _power_rows(np.where(base > 0.0, base, 0.0), q, lo, hi)

    return FunctionSpec(
        label=f"(x-{shift:g})^{q:g}" if shift else f"x^{q:g}",
        domain=dom,
        descriptor={"family": "shifted-power", "params": {"q": q, "a": shift}},
        leading=(q, 1.0) if dom[0] <= shift else None,
        jet=Jet(rows, _CATALOG_DEPTH),
    )


def exponential(s: float = 1.0,
                domain: tuple[float, float] = (0.0, math.inf)) -> FunctionSpec:
    """e^(s x); all derivatives are s^k e^(s x)."""
    _finite("exponential rate s", s)
    return FunctionSpec(
        label=f"exp({s:g}x)" if s != 1.0 else "exp(x)",
        domain=(float(domain[0]), float(domain[1])),
        descriptor={"family": "exponential", "params": {"s": float(s)}},
        jet=Jet(lambda x, lo, hi: _exp_rows(x, s, lo, hi), _CATALOG_DEPTH),
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
    """T_p(x) = e^x - sum_{j<=p} x^j/j!; each derivative is the next-lower tail.
    p must be below 170, so that (p + 1)! is a float."""
    p = _integer(p, 0, "exp-taylor-remainder p")
    if p >= 170:
        raise DomainError(f"exp-taylor-remainder p must be < 170, got {p}")
    return FunctionSpec(
        label=f"exp_tail_{p}",
        domain=(float(domain[0]), float(domain[1])),
        descriptor={"family": "exp-taylor-remainder", "params": {"p": p}},
        jet=Jet(lambda x, lo, hi: [_exp_tail(x, p - k) if k <= p else np.exp(x)
                                   for k in range(lo, hi + 1)], p + 6),
    )


def log_affine(b: float, domain: tuple[float, float] | None = None) -> FunctionSpec:
    """ln(x) - x/b on (0, b]; increasing and concave with slope 0 at b."""
    _finite("log-affine b", b)
    if not b > 0.0:
        raise ConstructionError(f"log-affine needs b > 0, got {b}")
    dom = (1e-6 * b, b) if domain is None else (float(domain[0]), float(domain[1]))
    if dom[0] <= 0.0:
        raise ConstructionError("log-affine domain must stay strictly positive")

    def row(x, k):
        if k == 0:
            return np.log(x) - x / b
        if k == 1:
            return 1.0 / x - 1.0 / b
        return float((-1) ** (k - 1) * math.factorial(k - 1)) * x ** (-k)

    return FunctionSpec(
        label=f"log(x)-x/{b:g}",
        domain=dom,
        descriptor={"family": "log-affine", "params": {"b": float(b)}},
        jet=Jet(lambda x, lo, hi: [row(x, k) for k in range(lo, hi + 1)], _CATALOG_DEPTH),
    )


def polynomial(coeffs: Sequence[float],
               domain: tuple[float, float] = (0.0, 1.0)) -> FunctionSpec:
    """sum_j coeffs[j] x^j; its k-th derivative is again a polynomial."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ConstructionError("polynomial needs at least one coefficient")
    _finite("polynomial coefficients", *coeffs)
    depth = len(coeffs) + 3
    # coefficients of each derivative, lowest power first
    table = [[coeffs[j] * float(math.perm(j, k)) for j in range(k, len(coeffs))]
             for k in range(depth + 1)]

    return FunctionSpec(
        label=f"poly{list(coeffs)}",
        domain=(float(domain[0]), float(domain[1])),
        descriptor={"family": "polynomial", "params": {"coeffs": list(coeffs)}},
        jet=Jet(lambda x, lo, hi: [_horner(x, table[k]) for k in range(lo, hi + 1)], depth),
    )


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def affine_precompose(inner: FunctionSpec, scale: float, offset: float,
                      domain: tuple[float, float] | None = None) -> FunctionSpec:
    """g(x) = inner(scale * x + offset); g^(k) is scale^k inner^(k).  With
    scale > 0 and g's domain starting where inner's does, inner's stated
    leading term (mu, c) carries through as (mu, c scale^mu)."""
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

    # scale^k as floats, an overflowing one inf (a float ** raises there),
    # whose product with a 0 row is NaN, a failing margin, with no warning
    with np.errstate(over="ignore"):
        powers = [float(np.float64(scale) ** k) for k in range(inner.analytic_depth + 1)]
    overflow = not all(map(math.isfinite, powers))

    def rows(x, lo, hi):
        inner_rows = inner.derivatives_on(scale * x + offset, lo, hi)
        with np.errstate(invalid="ignore") if overflow else contextlib.nullcontext():
            return [powers[k] * r for k, r in zip(range(lo, hi + 1), inner_rows)]

    desc = None
    if inner.descriptor is not None:
        desc = {"family": "affine-precompose",
                "params": {"scale": scale, "offset": offset,
                           "inner": dict(inner.descriptor)}}
    lead = None
    if scale > 0.0 and inner.leading is not None and dom[0] == (ilo - offset) / scale:
        mu, c = inner.leading
        with np.errstate(over="ignore", under="ignore"):
            lead = _term(mu, c * np.float64(scale) ** mu)
    return FunctionSpec(
        label=f"{inner.label}({scale:g}x+{offset:g})",
        domain=dom,
        descriptor=desc,
        leading=lead,
        jet=Jet(rows, inner.analytic_depth),
    )


def nonneg_weighted_sum(terms: Sequence[tuple[float, FunctionSpec]],
                        domain: tuple[float, float] | None = None) -> FunctionSpec:
    """sum_i w_i f_i with w_i >= 0; the jets add.  Where a term states its
    leading term, the sum states the least mu of its weighted terms' leading
    terms at its left end, with their weighted c at that mu added (each
    other term's read off its jet there); none when a term has none or the
    coefficients cancel."""
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

    def rows(x, lo, hi):
        jets = [f.derivatives_on(x, lo, hi) for f in fns]
        return [sum(w * jet[i] for w, jet in zip(weights, jets)) for i in range(hi - lo + 1)]

    lead = None
    if any(f.leading is not None for f in fns):
        leads = [(w, _leading_at(f, dom[0])) for w, f in zip(weights, fns) if w > 0.0]
        if leads and all(term is not None for _, term in leads):
            mu = min(term[0] for _, term in leads)
            lead = _term(mu, sum(w * term[1] for w, term in leads if term[0] == mu))

    desc = None
    if all(f.descriptor is not None for f in fns):
        desc = {"family": "nonneg-weighted-sum",
                "params": {"terms": [{"weight": w, "function": dict(f.descriptor)}
                                     for w, f in zip(weights, fns)]}}
    return FunctionSpec(
        label=" + ".join(f"{w:g}*{f.label}" for w, f in zip(weights, fns)),
        domain=dom,
        descriptor=desc,
        leading=lead,
        jet=Jet(rows, min(f.analytic_depth for f in fns)),
    )


def derivative_function(f: FunctionSpec, k: int = 1) -> FunctionSpec:
    """The k-th derivative of f as a first-class FunctionSpec (the jet shifts)."""
    k = _integer(k, 1, "derivative order")
    if k > f.analytic_depth:
        raise DerivativeOrderError(f"{f.label} lacks analytic order {k}")
    return FunctionSpec(
        label=f"D^{k}[{f.label}]" if k > 1 else f"D[{f.label}]",
        domain=f.domain,
        jet=Jet(lambda x, lo, hi: f.derivatives_on(x, lo + k, hi + k), f.analytic_depth - k),
    )


def antiderivative_from(g: FunctionSpec) -> FunctionSpec:
    """f(x) = integral from a to x of (g(z) - g(a)) dz, a the start of g's domain.

    Raises membership one level: the construction turns a certified member at
    order p-1 (with the g(a) offset removed) into a candidate at order p.
    Evaluation integrates numerically; every derivative is analytic, g's jet
    shifted up by one order.
    """
    a = g.domain[0]
    ga = float(g(a))

    def ev(x: float) -> float:
        if x <= a:
            return 0.0
        return integrate(lambda t: np.asarray(g(t), dtype=float) - ga, a, float(x)).value

    def rows(x, lo, hi):
        shifted = [d - ga if k == 1 else d for k, d in zip(
            range(max(lo, 1), hi + 1), g.derivatives_on(x, max(lo, 1) - 1, hi - 1))]
        return ([np.vectorize(ev, otypes=[float])(x)] if lo == 0 else []) + shifted

    return FunctionSpec(
        label=f"int[{g.label}]",
        domain=g.domain,
        jet=Jet(rows, g.analytic_depth + 1),
    )


# ---------------------------------------------------------------------------
# Taylor remainder and inverse composition
# ---------------------------------------------------------------------------


def taylor_remainder(f: FunctionSpec, p: int) -> FunctionSpec:
    """f minus its degree-p Taylor polynomial at 0.

    Requires analytic derivatives to order p and a domain starting at 0.
    The result has R^(k)(0) = 0 exactly for k = 0..p by construction, and
    inherits membership at order p whenever f^(p) is convex and increasing.
    Its jet is f's minus the polynomial's.
    """
    p = _integer(p, 1, "taylor_remainder order p")
    if f.analytic_depth < p:
        raise DerivativeOrderError(
            f"{f.label} has analytic depth {f.analytic_depth} < p = {p}")
    if abs(f.domain[0]) > 1e-12:
        raise DomainError("taylor_remainder is anchored at 0; domain must start there")

    coeffs = [float(d) for d in f.derivatives_on(0.0, 0, p)]
    # the polynomial's k-th derivative, lowest power first
    table = [[coeffs[j] / math.factorial(j - k) for j in range(k, p + 1)]
             for k in range(f.analytic_depth + 1)]

    def rows(x, lo, hi):
        return [d - _horner(x, table[k])
                for k, d in zip(range(lo, hi + 1), f.derivatives_on(x, lo, hi))]

    return FunctionSpec(
        label=f"taylor_tail_{p}[{f.label}]",
        domain=f.domain,
        jet=Jet(rows, f.analytic_depth),
    )


def _revert_compose(l_jet: np.ndarray, f_jet: np.ndarray) -> list:
    """Rows 0..K of the jet of l o f^(-1) at y = f(x), from the normalised
    jets of l (orders 0..K) and f (orders 1..K) at x.

    h(t) = f^(-1)(y + t) - x solves f(x + h) - f(x) = t.  P[j, n] = [t^n] h^j
    fills order by order: h^j needs only lower orders of h, and [t^n] of
    f(x + h) - f(x), sum_j f_j P[j, n], vanishes for n >= 2, which gives
    P[1, n].  Then (l o f^(-1))^(n)(y) / n! = sum_j l_j P[j, n].
    """
    out = [l_jet[0]]
    P = {}
    for n in range(1, len(l_jet)):
        for j in range(2, n + 1):
            acc = P[1, 1] * P[j - 1, n - 1]
            for i in range(2, n - j + 2):
                acc = acc + P[1, i] * P[j - 1, n - i]
            P[j, n] = acc
        if n == 1:
            P[1, 1] = 1.0 / f_jet[0]
        else:
            acc = f_jet[1] * P[2, n]
            for j in range(3, n + 1):
                acc = acc + f_jet[j - 1] * P[j, n]
            P[1, n] = -acc / f_jet[0]
        acc = l_jet[1] * P[1, n]
        for j in range(2, n + 1):
            acc = acc + l_jet[j] * P[j, n]
        out.append(acc * math.factorial(n))
    return out


def _anchor_rows(l_lead: tuple[float, float], f_lead: tuple[float, float],
                 depth: int) -> list[float]:
    """Rows 1..depth of l o f^(-1) at y_lo = f(lo) as one-sided limits from
    the leading terms (mu_l, c_l) of l and (mu_f, c_f) of f at lo.

    l(f^(-1)(y)) - l(lo) ~ c_l ((y - y_lo)/c_f)^r with r = mu_l/mu_f, so
    row k is 0 where r > k or where the coefficient r (r-1)...(r-k+1)
    vanishes, k! c_l/c_f^k where r = k, and otherwise infinite with the sign
    of c_l times that coefficient.
    """
    (mu_l, c_l), (mu_f, c_f) = l_lead, f_lead
    r = mu_l / mu_f
    out, coeff = [], 1.0
    for k in range(1, depth + 1):
        coeff *= r - k + 1
        if r > k or coeff == 0.0:
            out.append(0.0)
        elif r == k:
            with np.errstate(over="ignore", divide="ignore"):
                out.append(float(coeff * c_l / np.float64(c_f) ** k))
        else:
            out.append(math.copysign(math.inf, c_l * coeff))
    return out


def compose_inverse(l: FunctionSpec, f: FunctionSpec,
                    horizon: float = math.inf) -> FunctionSpec:
    """y -> l(f^(-1)(y)) on [f(lo), f(hi)] for strictly increasing f, where
    hi = min(f.upper_cap, horizon): a risk comparison passes its horizon,
    and by default the composition covers f's whole evaluation cap.

    f is tabulated once at 257 points of [lo, hi], the table on which f' > 0
    and increasing values are checked.  One invert_monotone run solves
    x = f^(-1)(y) for all points of a call, each in the one table cell
    whose values bracket its y (numerics._table_cell, whose end values the
    solver takes from the table), and in the first cell from the
    leading-term inverse lo + ((y - y_lo)/c_f)^(1/mu_f); the jet at y is the
    series reversion of f's jet at x composed with l's jet there
    (_revert_compose), to every order both stacks reach.

    At y_lo the rows the reversion leaves infinite or NaN (all of them past
    order 0 where f'(lo) = 0, which it divides by) are the one-sided limits
    of the leading terms of l and f at lo (_anchor_rows): for x^4 o
    (x^2)^(-1) on [0, 10], f^(1)(y_lo) is 0 and f^(2)(y_lo) is 2.  Where
    f'(lo) = 0 and l or f has no finite leading term (none, or one whose
    coefficient leaves double range), the anchor cannot be read and
    MonotonicityError names it.  The composition states its own leading
    term (r, c_l/c_f^r).
    """
    lo = f.domain[0]
    horizon = float(horizon)
    if not lo < horizon:
        raise DomainError(f"horizon {horizon} must exceed the domain start {lo} of {f.label}")
    hi = min(f.upper_cap, horizon)
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
    depth = min(l.analytic_depth, f.analytic_depth)
    l_lead, f_lead = _leading_at(l, lo), f.leading_term()
    if l_lead is None or f_lead is None:
        if d1[0] == 0.0:
            raise MonotonicityError(
                f"{l.label} o inv[{f.label}]: f'({lo!r}) = 0 and "
                f"{f.label if f_lead is None else l.label} has no finite leading term there, "
                f"so the anchor at y = {y_lo!r} has no one-sided limit")
        anchor, lead = None, None
    else:
        anchor = _anchor_rows(l_lead, f_lead, depth)
        r = l_lead[0] / f_lead[0]
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            lead = _term(r, l_lead[1] / np.float64(f_lead[1]) ** r)

    def rows(y, k_lo, k_hi):
        cell = _table_cell(xs, vals, y)
        if f_lead is not None:  # the first cell starts at the leading-term inverse
            with np.errstate(invalid="ignore"):
                start = lo + ((y - y_lo) / f_lead[1]) ** (1.0 / f_lead[0])
            cell = (*cell, np.where(cell[0] == lo, start, np.nan))
        x = invert_monotone(f, y, cell)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _revert_compose(l.taylor(x, 0, k_hi), f.taylor(x, 1, k_hi))
        if anchor is not None:
            at = x == lo
            out[1:] = [np.where(at & ~np.isfinite(row), a, row)
                       for row, a in zip(out[1:], anchor)]
        return out[k_lo:]

    return FunctionSpec(
        label=f"{l.label} o inv[{f.label}]",
        domain=(y_lo, y_hi),
        leading=lead,
        jet=Jet(rows, depth),
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def _domain_to_json(domain: tuple[float, float]) -> list:
    lo, hi = domain
    return [lo, "inf" if math.isinf(hi) else hi]


def _domain_from_json(raw: Any, where: str) -> tuple[float, float]:
    try:
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            return (float(raw[0]),
                    math.inf if raw[1] in ("inf", "+inf", "Infinity") else float(raw[1]))
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputFormatError(f"{where}: domain must be [lo, hi], got {raw!r}")


def _object(where: str, raw: Any, required: tuple[str, ...],
            optional: tuple[str, ...] = ()) -> Mapping:
    """raw, a descriptor object with every required key and no key outside
    required + optional: a key that nothing reads raises InputFormatError
    naming it instead of being ignored, a missing one ConstructionError; so
    does a boolean value or list entry (no field is one; float(True) is 1)."""
    if not isinstance(raw, Mapping):
        raise InputFormatError(f"{where} must be an object, got {type(raw).__name__}")
    keys = required + optional
    for key, value in raw.items():
        if key not in keys:
            raise InputFormatError(f"{where}: nothing reads {key!r} (it reads {', '.join(keys)})")
        if value is True or value is False or (
                isinstance(value, (list, tuple)) and bool in map(type, value)):
            raise InputFormatError(f"{where}: {key!r} holds a boolean, not a number")
    for key in required:
        if key not in raw:
            raise ConstructionError(f"{where}: missing parameter {key!r}")
    return raw


def _weighted_term(raw: Any) -> tuple[float, FunctionSpec]:
    term = _object("nonneg-weighted-sum term", raw, ("weight", "function"))
    return float(term["weight"]), function_from_descriptor(term["function"])


# family -> (its required params keys, its optional ones, its constructor
# from (params, domain or None)): the catalog a descriptor names
_FAMILIES: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable]] = {
    "shifted-power": (("q",), ("a",), lambda p, dom: shifted_power(
        float(p["q"]), float(p.get("a", 0.0)), dom)),
    "exponential": ((), ("s",), lambda p, dom: exponential(
        float(p.get("s", 1.0)), dom or (0.0, math.inf))),
    "exp-taylor-remainder": (("p",), (), lambda p, dom: exp_taylor_remainder(
        p["p"], dom or (0.0, math.inf))),
    "log-affine": (("b",), (), lambda p, dom: log_affine(float(p["b"]), dom)),
    "polynomial": (("coeffs",), (), lambda p, dom: polynomial(
        p["coeffs"], dom or (0.0, 1.0))),
    "affine-precompose": (("scale", "inner"), ("offset",), lambda p, dom: affine_precompose(
        function_from_descriptor(p["inner"]), float(p["scale"]),
        float(p.get("offset", 0.0)), dom)),
    "nonneg-weighted-sum": (("terms",), (), lambda p, dom: nonneg_weighted_sum(
        [_weighted_term(t) for t in p["terms"]], dom)),
}


def function_from_descriptor(raw: Mapping[str, Any]) -> FunctionSpec:
    """Parse {"family": ..., "params": {...}, "domain": [lo, hi|"inf"]}.

    The family's entry in _FAMILIES names the params keys it reads.  A key
    that nothing reads, or a value of the wrong type or form, raises
    InputFormatError; a missing parameter raises ConstructionError.
    """
    if not isinstance(raw, Mapping):
        raise InputFormatError(f"function descriptor must be an object, got {type(raw).__name__}")
    if "family" not in raw:
        raise InputFormatError("function descriptor: missing 'family'")
    fam = raw["family"]
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise InputFormatError(f"function descriptor: unknown family {fam!r}")
    _object(f"function descriptor ({fam})", raw, (), ("family", "params", "domain"))
    required, optional, build = _FAMILIES[fam]
    dom = _domain_from_json(raw["domain"], f"family {fam}") if "domain" in raw else None
    try:
        return build(_object(f"{fam} params", raw.get("params", {}), required, optional), dom)
    except PconvexError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"{fam}: parameter error: {exc}") from exc


def function_to_descriptor(f: FunctionSpec) -> dict:
    """Lossless JSON descriptor for catalog-built functions."""
    if f.descriptor is None:
        raise ConstructionError(f"{f.label} was not built from the catalog; no descriptor")
    out = dict(f.descriptor)
    out["domain"] = _domain_to_json(f.domain)
    return out
