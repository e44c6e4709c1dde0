"""Shared numerical kernels.

A correctly rounded sum of a float array (math.fsum's bits at array
speed), the gamma function (math.gamma / math.lgamma behind domain and
overflow checks), one endpoint-graded Gauss-Legendre quadrature for
integrands with algebraic end weights (t - a)^(left-1) (b - t)^(right-1),
stable shifted p-norm arithmetic, fail-closed monotone inversion of float
or array targets by bracketed Newton steps from a function's jet, and
Richardson-extrapolated finite differences.

The quadrature has one rule with fixed constants: QUADRATURE_NODES
Gauss-Legendre nodes per panel, doubled at most QUADRATURE_DOUBLINGS times
until one step changes its estimate by no more than a quarter of
QUADRATURE_TOLERANCE or the rounding of its sums; otherwise
ConvergenceError carries the best estimate and the last step.  Every
integral compares the first two levels (1 and 2 panels per base panel), so
they are one node set, built in one pass, and one call of the integrand,
whose terms are summed level by level; the magnitude of a level's terms is
summed only when its step exceeds the tolerance.  Node sets are a pure
function of (a, b, end exponents, panel counts), and the small ones (the
pair of 1 and 2 panels, then 4 and 8) are memoized as read-only arrays, so
the several expectations of one bound share them: one with both ends
weighted holds 2016 nodes for the pair (about 32 KB) and 161 KB for all
three.  Each is built from a read-only skeleton of its panel counts, the
arrays that depend on neither the interval nor the exponents, memoized for
the same three sets of counts.  Larger node sets and skeletons are built
per call, so a non-converging integral keeps no memory after it.

Equality-style comparisons (a root-finding target against the ends of its
bracket, a variable's support against a bound's) allow EQ_ABS absolute
and, where they scale, EQ_REL relative.

Everything here is a pure function of its inputs and the memo caches are
functools' thread-safe lru_cache, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    PconvexError,
    RangeOverflowError,
)

__all__ = [
    "EQ_ABS",
    "EQ_REL",
    "QUADRATURE_DOUBLINGS",
    "QUADRATURE_NODES",
    "QUADRATURE_TOLERANCE",
    "QuadratureResult",
    "fd_derivative",
    "fsum",
    "gamma",
    "log_gamma",
    "integrate",
    "integrate_jacobi",
    "invert_monotone",
    "pnorm_shifted",
]


EQ_ABS = 1e-10
EQ_REL = 1e-9


def _integer(value, least: float, name: str) -> int:
    """value as an int >= least; a non-finite, non-integral or non-numeric
    value raises DomainError (an integral float such as 2.0 is accepted)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    return n


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


def _order(p: int, least: int = 1) -> int:
    """An integer order p >= least (the order arguments of every bound)."""
    return _integer(p, least, "order p")


# ---------------------------------------------------------------------------
# Summation
# ---------------------------------------------------------------------------

# Arrays below this size go to math.fsum over a list, at about 0.033 us per
# value.  The array path costs about 8.5 us at 256 values and 17 us at 5000
# when its first pass is certified, as it is on sampled data; the two break
# even near 256 values (2-core Xeon, numpy 2.4, Python 3.11).  Lotteries of
# a few atoms and the 40 x 5 EM demo's sums stay below it.
FSUM_CROSSOVER = 256

# The passes stop at a residual below this: at or above it ulp(sigma)/2 is
# a normal float, which the error-free argument assumes.
_EXTRACT_FLOOR = 2.0 ** -969


def fsum(values) -> float:
    """math.fsum(values.tolist()) bit for bit, exceptions included, for a
    float array of any size.

    Arrays of FSUM_CROSSOVER values or more are summed by error-free vector
    extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1) and 31(2),
    2008): with max |v| < 2^e and 2^m >= n + 2, sigma = 2^(e+m) splits each
    v exactly into q = (sigma + v) - sigma, a multiple of u = ulp(sigma)/2
    of at most 2^e, and r = v - q with |r| <= u.  Every partial sum of the q
    is such a multiple below sigma, so tau = np.sum(q) is exact in any
    order.

    The first pass stops there when the rounding is certain.  t = np.sum(r)
    is within gamma_(n-1) * n * u <= 2 n^2 2^-53 u <= delta = 2^(e+3m-105)
    of sum(r) in any order; s = tau + t and its exact error err (Knuth's
    TwoSum) put the total within |err| + delta of s.  If that is less than
    half the gap from s to its neighbour toward zero (the smaller gap), the
    total rounds to s, which is math.fsum's answer.  Otherwise (a total that
    cancels to far below max |v|, or one on or near a midpoint between two
    floats) the passes repeat on r until it is zero, and fsum of the pass
    sums is the correctly rounded total.  An array whose largest magnitude
    is 0, NaN or infinite, or too large for a finite sigma, goes to
    math.fsum as it is; a residual near the subnormal range goes there after
    the pass sums, still in order.  The input is never written.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < FSUM_CROSSOVER:
        return math.fsum(values.tolist())
    m = (values.size + 1).bit_length()  # 2^m >= n + 2
    v, parts = values, []
    top = max(float(v.max()), -float(v.min()))
    while _EXTRACT_FLOOR <= top < math.inf:
        e = math.frexp(top)[1]  # top < 2^e
        if e + m > 1023:  # sigma would overflow
            break
        sigma = math.ldexp(1.0, e + m)
        q = v + sigma
        q -= sigma
        parts.append(float(q.sum()))
        v = v - q
        if len(parts) == 1:
            tau, t = parts[0], float(v.sum())
            s = tau + t
            z = s - tau
            err = (tau - (s - z)) + (t - z)
            # delta >= 2^-1046 is exact; a zero or subnormal s has a half
            # gap of 0, so it is never certified
            delta = math.ldexp(1.0, e + 3 * m - 105)
            if abs(err) + delta < (abs(s) - abs(math.nextafter(s, 0.0))) / 2:
                return s
        top = max(float(v.max()), -float(v.min()))
    if parts and not top:
        return math.fsum(parts)
    return math.fsum(parts + v.tolist())


# ---------------------------------------------------------------------------
# Gamma function
# ---------------------------------------------------------------------------

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
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, valid far beyond the overflow cap of gamma().

    Used for ratios of large gamma values, which stay small after the log
    differences cancel.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# The one quadrature rule: Gauss-Legendre nodes per panel, the absolute
# error asked of every integral, and the panel doublings before
# ConvergenceError.  integrate() reads the last two when it is called; the
# node table is built from the first on first use.
QUADRATURE_NODES = 16
QUADRATURE_TOLERANCE = 1e-10
QUADRATURE_DOUBLINGS = 12

# Levels of geometric panels at a weighted end: the end panel is 2^-20 of
# the end's span, so g varies by O(2^-20) across it.
GRADED_LEVELS = 20

# Rounding floor of the stopping rule: 64 ulps of the sum of |terms|.
_ROUNDING = 64.0 * float(np.finfo(float).eps)


@lru_cache(maxsize=1)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    """The QUADRATURE_NODES-point Gauss-Legendre table, built on first use."""
    return np.polynomial.legendre.leggauss(QUADRATURE_NODES)


def _points(xs: np.ndarray) -> str:
    """The points of xs, for an error message."""
    if xs.size == 1:
        return f"point x = {float(xs.flat[0])!r}"
    return f"points ({xs.size} in [{float(xs.min())!r}, {float(xs.max())!r}])"


def _eval_nodes(f: Callable, xs, where: str = "") -> np.ndarray:
    """f at every point of xs, as a float array of the same shape.

    f gets one call on the whole array when it accepts arrays.  A
    scalar-only f (it raises on an array or returns the wrong shape) is
    called once per point with a float, and so is any f at a single point,
    since scalar-only code can still accept a one-element array.  A complex
    value raises DomainError naming the points (at the caller's `where`).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size > 1:
        try:
            vals = np.asarray(f(xs))
        except (TypeError, ValueError):
            vals = None
        if vals is not None and vals.shape == xs.shape:
            return _real(vals, xs, where).astype(float, copy=False)
    return np.asarray([float(_real(f(float(x)), x, where)) for x in xs.ravel()]).reshape(xs.shape)


_FLOAT = np.dtype(float)


def _real(v, x, where: str = "", what: str = "f"):
    """v, the values of `what` at the points x, unless it is complex: a cast
    to float would keep its real part with only a ComplexWarning, so a
    complex array or scalar raises DomainError naming the points (at the
    caller's `where`).  The test is np.iscomplexobj's without its
    conversions, which cost more than a jet row takes on a few points."""
    if isinstance(v, complex) or getattr(v, "dtype", _FLOAT).kind == "c":
        raise DomainError(f"{what} has no real value at the {where}"
                          f"{_points(np.asarray(x, dtype=float))}")
    return v


# Rules of at most this many panels per base panel are shared: the mean,
# moment and oracle of one bound repeat the first doublings, mostly the
# first two.  A larger rule is rarely asked for twice and can be large (a
# graded rule at 4096 panels holds about 44 MB, its skeleton about 21 MB),
# so caching it would keep that memory after a non-converging integral.
_SHARED_PARTS = 8


# One skeleton for each shared rule: 1 and 2 panels together, 4 and 8.
@lru_cache(maxsize=3)
def _skeleton(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of _graded_rule that depend only on its panel counts,
    read-only: for each count in `levels` in turn, the nodes u and weights
    du of that many Gauss-Legendre panels on [0, 1], and the geometric
    ladder 2^-j (1 + u) and 2^-j du, j = GRADED_LEVELS..1; each array is
    concatenated over the counts.  _graded_rule takes it uncached above
    _SHARED_PARTS (__wrapped__)."""
    x, w = _leggauss()
    us = [((np.arange(parts)[:, None] + 0.5 * (x + 1.0)) / parts).ravel() for parts in levels]
    dus = [np.tile(w / (2.0 * parts), parts) for parts in levels]
    halves = 2.0 ** -np.arange(GRADED_LEVELS, 0.0, -1.0)[:, None]
    arrays = tuple(np.concatenate(rows) for rows in (
        us, dus, [(halves * (1.0 + u)).ravel() for u in us], [(halves * du).ravel() for du in dus]))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _graded_rule(a: float, b: float, left: float, right: float,
                 levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights of integrate()'s rule at each panel count in
    `levels`, one count after the other: at a count, each base panel is cut
    into that many Gauss-Legendre panels of QUADRATURE_NODES nodes.

    An end with exponent e != 1 gets panels [s 2^-j, s 2^(1-j)], j = 1..20,
    over its span s (half of b - a when both ends are weighted); its end
    panel [0, r0] is taken after r = r0 v^(1/e), which turns r^(e-1) dr into
    (r0^e / e) dv.  Panels are laid out by the distance r from their own
    end, and the far end's factor is taken at (b - a) - r (skipped where its
    exponent is 1), so no weight is computed from t.

    The exponent-free arrays of every count come from one skeleton,
    _skeleton(levels), memoized up to _SHARED_PARTS panels and built per
    call above, and are scaled by s here; each end's powers and far-end
    factor are then taken once over all the counts.  The operations are
    elementwise, so each count's slice, put in the order of a rule of that
    count alone, has that rule's bits.  Scaling by a power of two is exact,
    so s (2^-j (1 + u)) has the bits of (s 2^-j) (1 + u) while s 2^-20
    stays a normal float.
    """
    skeleton = _skeleton if max(levels) <= _SHARED_PARTS else _skeleton.__wrapped__
    u, du, ladder, ladder_du = skeleton(levels)
    length = b - a
    # (own exponent, far exponent, end point, direction into [a, b])
    graded = [g for g in ((left, right, a, 1.0), (right, left, b, -1.0)) if g[0] != 1.0]
    if not graded:
        return a + length * u, length * du
    span = length / len(graded)
    r0 = span * 2.0 ** -GRADED_LEVELS
    rungs, rung_w = span * ladder, span * ladder_du  # panels [lo, 2 lo]: lo (1 + u), lo du
    ts, ws = [], []
    for e, other, end, inward in graded:
        r = np.concatenate([r0 * u ** (1.0 / e), rungs])
        wt = np.concatenate([r0 ** e / e * du, rung_w * rungs ** (e - 1.0)])
        if other != 1.0:
            wt *= (length - r) ** (other - 1.0)
        ts.append(end + inward * r)
        ws.append(wt)
    if len(levels) > 1:
        order = _layout(levels, len(graded))
        return np.concatenate(ts)[order], np.concatenate(ws)[order]
    if len(ts) == 1:
        return ts[0], ws[0]
    return np.concatenate(ts), np.concatenate(ws)


# One layout for each number of graded ends of the 1- and 2-panel rule.
@lru_cache(maxsize=2)
def _layout(levels: tuple[int, ...], ends: int) -> np.ndarray:
    """The order, read-only, that takes _graded_rule's nodes as it computes
    them, end by end (each end's end panels at every count in `levels`,
    then its ladder at every count), to its layout: count by count, the end
    panels and then the ladder of each end in turn."""
    heads = QUADRATURE_NODES * sum(levels)
    index = np.arange(ends * (GRADED_LEVELS + 1) * heads).reshape(ends, -1)
    blocks, cut = [], 0
    for parts in levels:
        nxt = cut + QUADRATURE_NODES * parts
        for row in index:
            blocks += [row[cut:nxt], row[heads + GRADED_LEVELS * cut:heads + GRADED_LEVELS * nxt]]
        cut = nxt
    order = np.concatenate(blocks)
    order.flags.writeable = False
    return order


# 12 rules hold every shared rule of one bound: the 3 rules up to
# _SHARED_PARTS (1 and 2 panels, 4, 8) for each end-exponent pair, and a
# fractional-hh density integrates two such pairs per expectation.  A rule
# weighted at both ends holds 2016 nodes at 1 and 2 panels (about 32 KB),
# 2688 at 4 (43 KB) and 5376 at 8 (86 KB), so the cache holds at most about
# 650 KB.
@lru_cache(maxsize=12)
def _shared_rule(a: float, b: float, left: float, right: float,
                 levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """_graded_rule's pair, made read-only because every caller shares it."""
    t, w = _graded_rule(a, b, left, right, levels)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _level_terms(f: Callable, a: float, b: float, left: float,
                 right: float) -> Iterator[np.ndarray]:
    """The terms w f(t) of integrate()'s rule after 0, 1, 2, ... doublings.

    Every integral needs the first two, so they come from one shared rule
    of 1 and 2 panels (a third of its nodes, then the rest) and one call of
    f on all its nodes.  Each later level is a rule of its own, shared up
    to _SHARED_PARTS panels and built per call and dropped above.
    """
    t, w = _shared_rule(a, b, left, right, (1, 2))
    terms = w * _eval_nodes(f, t)
    yield terms[:terms.size // 3]
    yield terms[terms.size // 3:]
    parts = 4
    while True:
        rule = _shared_rule if parts <= _SHARED_PARTS else _graded_rule
        t, w = rule(a, b, left, right, (parts,))
        yield w * _eval_nodes(f, t)
        parts *= 2


def _doubled(levels: Iterator[np.ndarray]) -> QuadratureResult:
    """The stopping rule of the quadrature.

    levels yields the terms of the rule after 0, 1, 2, ... doublings; the
    first k <= QUADRATURE_DOUBLINGS whose sum steps from the sum after k-1
    by at most a quarter of QUADRATURE_TOLERANCE, or within the rounding of
    the sum of the magnitudes of its terms (which no doubling removes), is
    accepted.  That magnitude is summed only when the first test fails.  A
    NaN step is never accepted, so the check fails closed.
    """
    limit = 0.25 * QUADRATURE_TOLERANCE
    best = float(next(levels).sum())
    step = math.inf
    for k in range(1, QUADRATURE_DOUBLINGS + 1):
        terms = next(levels)
        nxt = float(terms.sum())
        step = abs(nxt - best)
        best = nxt
        if step <= limit or step <= _ROUNDING * float(np.abs(terms).sum()):
            return QuadratureResult(best, step, k)
    raise ConvergenceError(f"quadrature did not converge (last step {step:.3e})", best, step)


def integrate(f: Callable, a: float, b: float,
              left: float = 1.0, right: float = 1.0) -> QuadratureResult:
    """Integral over [a, b] of (t - a)^(left-1) (b - t)^(right-1) f(t) dt.

    The exponents, positive, go into the weights of Gauss-Legendre nodes
    inside (a, b); an end whose exponent is not 1 gets panels graded
    towards it, so (1, 1) is Gauss-Legendre on 2^k equal panels.  Each
    doubling halves every panel until one changes the estimate by at most a
    quarter of QUADRATURE_TOLERANCE or by the rounding of its sums
    (_doubled), at most QUADRATURE_DOUBLINGS times; error_estimate is that
    last step.  The first two levels (1 and 2 panels per base panel) are
    one rule and one call of f (_level_terms).  The rules up to 8 panels
    per base panel come from a small memo cache shared by every call and
    are read-only: an f that writes into its argument is called once per
    point instead.  Each rule scales the skeleton of its panel counts
    (_graded_rule) and has, count by count, the bits of a rule built whole.
    Larger rules and their skeletons are built per call and dropped, so
    their memory does not outlive it.
    """
    a, b, left, right = float(a), float(b), float(left), float(right)
    if not a < b:
        raise DomainError(f"integrate requires a < b, got [{a}, {b}]")
    if not (0.0 < left < math.inf and 0.0 < right < math.inf):
        raise DomainError(f"weight exponents must be positive, got {left}, {right}")
    return _doubled(_level_terms(f, a, b, left, right))


def integrate_jacobi(g: Callable, a: float, b: float, alpha: float,
                     side: str) -> QuadratureResult:
    """integrate() with the exponent alpha at one end: side="left" weights g
    by (t - a)^(alpha-1), side="right" by (b - t)^(alpha-1)."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    return integrate(g, a, b, **{side: alpha})


# ---------------------------------------------------------------------------
# Norm arithmetic
# ---------------------------------------------------------------------------


def pnorm_shifted(moment_p1: float, order: int, scale: float = 1.0) -> float:
    """Recover a shifted p-norm from a pre-scaled moment.

    The caller supplies moment_p1 = E ((X - a) / scale)^order, with scale
    chosen as (sup X - a) so the averaged quantity lives in [0, 1] and no
    intermediate power can overflow for order <= 64.  The norm is then
    scale * moment_p1^(1/order).  A non-integral order, or a moment or
    scale that is negative or not finite, raises DomainError.
    """
    order = _integer(order, 1, "order")
    moment_p1, scale = float(moment_p1), float(scale)
    if not (0.0 <= moment_p1 < math.inf and 0.0 <= scale < math.inf):
        raise DomainError(f"moment and scale must be finite and >= 0, got {moment_p1}, {scale}")
    if moment_p1 == 0.0:
        return 0.0
    return scale * moment_p1 ** (1.0 / order)


# ---------------------------------------------------------------------------
# Monotone inversion
# ---------------------------------------------------------------------------

# 2047 halvings take the widest finite bracket (2^1025) below the smallest
# normal float (2^-1022): the floor is reached even where the steps bisect.
_MAX_ITER = 2100
_TINY = np.finfo(float).tiny


def _table_cell(xs: np.ndarray, vals: np.ndarray, y) -> tuple:
    """The cell (xs[j-1], xs[j], vals[j-1], vals[j]) of an increasing table
    (xs, vals) whose values bracket each target y, vals[j-1] < y <= vals[j];
    a target at or below vals[0] gets the first cell and one above vals[-1]
    the last, so invert_monotone clamps it there as it would on the whole
    table.  vals may also hold one row per target (a stacked family
    tabulated at xs), each row searched as a table of its own."""
    if vals.ndim == 1:
        j, members = np.searchsorted(vals, y), ()
    else:
        j = np.array([row.searchsorted(t) for row, t in zip(vals, y)], dtype=np.intp)
        members = (np.arange(j.size),)
    j = np.minimum(np.maximum(j, 1), xs.size - 1)
    return xs[j - 1], xs[j], vals[(*members, j - 1)], vals[(*members, j)]


def _jet_rows(f, x: np.ndarray, k: int) -> list:
    """Rows 0..k of the jet of the FunctionSpec f at x, from one call, as
    float arrays (derivatives_on rejects a complex row)."""
    return [np.asarray(r, dtype=float) for r in f.derivatives_on(x, 0, k)]


def _split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bisection point of a bracket (a, b): 0 where it straddles 0, the
    geometric mean where its ends share a sign and span more than one
    binade (an end at 0 counting as the smallest normal float), else the
    midpoint; so a bracket of any width reaches a root near 0 in as many
    steps as it has binades."""
    ma, mb = np.maximum(abs(a), _TINY), np.maximum(abs(b), _TINY)
    geo = np.sqrt(ma) * np.sqrt(mb)
    mean = np.where(np.maximum(ma, mb) > 2.0 * np.minimum(ma, mb),
                    np.where(b > 0.0, geo, -geo), a + 0.5 * (b - a))
    return np.where((a < 0.0) & (b > 0.0), 0.0, mean)


# scipy.optimize is not used: importing it adds ~0.35 s and ~21 MB to
# `import pconvex`, and its elementwise.find_root costs ~4 ms per target.
def invert_monotone(f, y, bracket) -> float | np.ndarray:
    """Solve f(x) = y for a strictly increasing FunctionSpec f and a float or
    array y.

    bracket is (lo, hi), floats or arrays that broadcast to y, or a table
    cell (lo, hi, f(lo), f(hi)) from _table_cell, whose end values are used
    instead of two calls of f, optionally followed by start points (NaN
    where the cell's secant is to be the start).  Floats give a float;
    arrays give an array equal to the float runs bit for bit: each step is
    one call f.derivatives_on(x, 0, 1) on all points, in their order and
    shape (a solved point at its answer).  Callers rely on this: an f that
    takes point i through its own function solves one equation per point
    in one run.  Targets within EQ_ABS + EQ_REL |y| of [f(lo), f(hi)] are
    clamped into it; any other target, a non-finite target or bracket end,
    or lo > hi raises BracketError, f NaN where evaluated raises
    ConvergenceError, and f complex there raises DomainError naming the
    point, in the float run as in the array run.

    The steps are those of rtsafe (Press et al., Numerical Recipes, 3rd
    ed., 2007, section 9.4).  From the start, a given one in the cell or
    else the secant of the cell, each step is the Newton step x - r/f'(x)
    of the residual r = f(x) - y when it lands inside the bracket left by
    the points evaluated so far and is at most a quarter of the previous
    step; otherwise (f' zero, infinite or NaN, a step out of the bracket, or
    a slow one, as near a multiple root) it bisects the bracket (_split).
    A point stops when its residual is zero; when its Newton correction is
    at most 1e-14 |x|, with that correction applied, provided its residuals
    have changed sign and the correction is at most a quarter of the one
    before (so the steps converge quadratically), or the correction no
    longer moves x; or, after a bisection, when its bracket is below
    1e-14 |x| (at least the smallest normal float), at the end with the
    smaller residual.  A solve that has not stopped after 2100 steps raises
    ConvergenceError carrying those ends.
    """
    y, *ends = (np.asarray(v, dtype=float) for v in (y, *bracket))
    scalar = all(v.ndim == 0 for v in (y, *ends))
    if len({v.shape for v in (y, *ends)}) > 1:
        y, *ends = np.broadcast_arrays(y, *ends)
    lo, hi, *given = ends

    ok = np.isfinite(y) & np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)
    if not ok.all():
        raise BracketError(f"targets {np.extract(~ok, y)} or brackets {np.extract(~ok, lo)}"
                           f" to {np.extract(~ok, hi)} are not finite and ordered")
    flo, fhi = given[:2] if given else (_jet_rows(f, v, 0)[0] for v in (lo, hi))
    slack = EQ_ABS + EQ_REL * abs(y)
    ok = (flo - slack <= y) & (y <= fhi + slack)
    if not ok.all():
        raise BracketError(f"targets {np.extract(~ok, y)} outside [f(lo), f(hi)] = "
                           f"{np.extract(~ok, flo)} to {np.extract(~ok, fhi)}")
    y = np.minimum(np.maximum(y, flo), fhi)

    # (a, b) brackets the root with residuals ra <= 0 <= rb; out holds the
    # answer of each stopped point, where it is evaluated from then on.  A
    # nonzero target below the smallest normal float meets values of f that
    # carry no relative precision, so it takes no Newton step and a zero
    # residual counts as positive: it bisects to the least x with f(x) >= y.
    a, b, ra, rb = lo, hi, flo - y, fhi - y
    flat = abs(y) < _TINY
    flats = bool(flat.any())
    if flats:
        flat = flat & (y != 0.0)
    done = (ra == 0.0) | ((rb == 0.0) & ~flat if flats else rb == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = lo + (y - flo) / (fhi - flo) * (hi - lo)
        if len(given) > 2:
            x = np.where((lo <= given[2]) & (given[2] <= hi), given[2], x)
        inside = (lo <= x) & (x <= hi)
        if not inside.all():
            x = np.where(inside, x, _split(lo, hi))
        if done.any():
            x = np.where(ra == 0.0, lo, np.where(done, hi, x))
        out = x
        # the last step, the last correction, the residual signs seen, and
        # whether the last step bisected (only then can the bracket close)
        last, prev, below, above, split = hi - lo, math.inf, done & False, done & False, None
        for _ in range(_MAX_ITER if not done.all() else 0):
            v, d = _jet_rows(f, x, 1)
            r = v - y
            if np.isnan(r).any():
                bad = np.isnan(r) & ~done
                if bad.any():
                    raise ConvergenceError(f"f is NaN at x = {np.extract(bad, x)}",
                                           math.nan, math.inf)
            zero, neg, pos = r == 0.0, r < 0.0, r > 0.0
            if flats:
                zero, pos = zero & ~flat, pos | (zero & flat)
            a, ra = np.where(neg, x, a), np.where(neg, r, ra)
            b, rb = np.where(pos, x, b), np.where(pos, r, rb)
            below, above = below | neg, above | pos
            c = r / d
            ac, newton = abs(c), x - c
            valid = np.isfinite(c) & (c != 0.0)  # f' finite and nonzero
            if flats:
                valid = valid & ~flat
            small = valid & ((below & above & (ac <= np.minimum(1e-14 * abs(x), 0.25 * prev)))
                             | (newton == x))
            stop = zero | small
            if split is not None:
                stop = stop | (split & (b - a <= np.maximum(
                    1e-14 * np.maximum(abs(a), abs(b)), _TINY)))
            stop = stop & ~done
            if stop.any():
                out = np.where(stop, np.where(zero, x, np.where(
                    small, np.minimum(np.maximum(newton, a), b),
                    np.where(abs(rb) < abs(ra), b, a))), out)
                done = done | stop
                if done.all():
                    break
            step = valid & (a < newton) & (newton < b) & (ac <= 0.25 * abs(last))
            nxt, split = (newton, None) if step.all() else (
                np.where(step, newton, _split(a, b)), ~step)
            last, prev, x = nxt - x, ac, np.where(done, out, nxt)
    if not done.all():
        best = np.where(done, out, np.where(abs(rb) < abs(ra), b, a))
        raise ConvergenceError(f"no convergence in {_MAX_ITER} steps for targets "
                               f"{np.extract(~done, y)}", float(best) if scalar else best, b - a)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

_CENTRAL_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _stencil_values(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f at stencil points xs, which may lie outside f's domain.

    f raising there or giving a value that is not real (complex) raises
    DomainError naming the points; a PconvexError from f passes through.
    """
    where = "finite-difference stencil "
    try:
        return _eval_nodes(f, xs, where)
    except PconvexError:
        raise
    except Exception as exc:
        raise DomainError(f"f has no real value at the {where}{_points(xs)}: "
                          f"{type(exc).__name__}: {exc}") from exc


def fd_derivative(f: Callable, x, k: int):
    """k-th derivative (k in 1..4) by central differences plus one
    Richardson step, O(h^4) after it.

    The step h = 1e-5^(4/(k+4)) (1 + |x|) grows with k to balance
    truncation against rounding noise.  x may be a float or an array; f is
    called once per stencil offset and step on all points (a scalar-only f
    is looped over them).  f raising or turning complex at a stencil point
    raises DomainError; a NaN there is returned in the result.  A point that
    is not finite raises DomainError.  Nothing in pconvex calls it; it is
    kept as an independent finite-difference check of the jets.
    """
    if k not in _CENTRAL_STENCILS:
        raise DomainError(f"fd_derivative supports orders 1..4, got {k}")
    # a float runs as a one-point array, so scalar and array calls agree bit
    # for bit (numpy scalars would take another power routine)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise DomainError(f"fd_derivative needs finite points, got {_points(xs)}")
    h = 1e-5 ** (4.0 / (k + 4.0)) * (1.0 + np.abs(xs))
    d = []
    for step in (h, 0.5 * h):
        acc = 0.0
        for offset, coeff in _CENTRAL_STENCILS[k]:
            acc = acc + coeff * _stencil_values(f, xs + offset * step)
        d.append(acc / step ** k)
    out = (4.0 * d[1] - d[0]) / 3.0
    return out if np.ndim(x) else float(out[0])
