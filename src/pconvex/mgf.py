"""Moment-generating-function bounds, the generalized AM-GM lower bound,
and the tightened log-likelihood minorant for latent-variable models.

The MGF bounds trade the full exponential moment for the first p moments:
the lower bound anchors the exponential's Taylor tail at the p-norm, the
upper bound pins the tail's weight at the support ceiling.  The likelihood
application evaluates the same mechanics on the per-datum likelihood-ratio
variables X_i = p(x_i, z | theta) / q_i(z), giving a minorant that sits
between the classical Jensen ELBO and the exact log-likelihood.  Each of
those three sums over the data is correctly rounded by numerics.fsum,
which gives the same bits as math.fsum.

The EM demo runs a textbook two-component Bernoulli-mixture EM (exact
posterior E-step, closed-form M-step) and logs all three quantities per
iteration; the tight minorant is logged, never used to drive updates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    RandomVariable,
    discrete,
    expect,
    from_sample,
    shifted_moment,
)
from .errors import (
    ConstructionError,
    DomainError,
    SupportViolationError,
    UnboundedSupportError,
)
from .numerics import EQ_ABS, _integer, _order, fsum

__all__ = [
    "EMTrace",
    "LikelihoodInstance",
    "MgfBoundReport",
    "am_gm_lower",
    "elbo_classical",
    "elbo_tight",
    "em_demo",
    "generate_mixture_data",
    "likelihood_instance",
    "loglik_exact",
    "mgf_lower",
    "mgf_upper",
]

_CONDITIONING_RATIO = 1e6


@dataclass(frozen=True)
class MgfBoundReport:
    """One-sided MGF bound with the exact oracle attached."""

    s: float
    p: int
    lower: float | None
    upper: float | None
    exact: float
    exact_error: float
    moments_used: tuple[float, ...]  # E X^j for j = 1..p-1


def _moments(X: RandomVariable, p: int) -> list[float]:
    return [expect(X, lambda x, _j=j: np.asarray(x, dtype=float) ** _j)[0]
            for j in range(1, p)]


def _rate(s: float) -> float:
    """The MGF argument: a finite s >= 0."""
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise DomainError(f"s must be finite and >= 0, got {s}")
    return s


def mgf_lower(X: RandomVariable, s: float, p: int) -> MgfBoundReport:
    """Lower bound on E exp(sX) for X on [0, inf) from its first p moments:

        exp(s ||X||_p) - sum_{j<p} s^j ||X||_p^j / j! + E sum_{j<p} s^j X^j / j!
    """
    s = _rate(s)
    p = _order(p)
    if X.inf < -EQ_ABS:
        raise SupportViolationError("mgf_lower needs X on [0, inf)")
    norm = shifted_moment(X, 0.0, p).norm
    head_at_norm = float(_head_vec(s, norm, p))
    mean_head = expect(X, lambda x: _head_vec(s, x, p))[0]
    lower = math.exp(s * norm) - head_at_norm + mean_head
    exact, err = expect(X, lambda x: np.exp(s * np.asarray(x, dtype=float)))
    return MgfBoundReport(s=s, p=p, lower=lower, upper=None, exact=exact,
                          exact_error=err, moments_used=tuple(_moments(X, p)))


def _head_vec(s: float, x, p: int):
    """sum_{j=0}^{p-1} (s x)^j / j!, elementwise over an array x."""
    x = np.asarray(x, dtype=float)
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for j in range(1, p):
        term = term * (s * x) / j
        acc = acc + term
    return acc


def mgf_upper(X: RandomVariable, s: float, p: int) -> MgfBoundReport:
    """Upper bound on E exp(sX) for X on [0, b]:

        (E X^p / b^p) (exp(s b) - sum_{j<p} s^j b^j / j!) + E sum_{j<p} s^j X^j / j!
    """
    s = _rate(s)
    p = _order(p)
    if X.inf < -EQ_ABS:
        raise SupportViolationError("mgf_upper needs X on [0, b]")
    if not X.bounded:
        raise UnboundedSupportError("mgf_upper needs bounded support")
    b = X.sup
    if b <= 0.0:
        # point mass at 0: MGF is exactly 1
        return MgfBoundReport(s=s, p=p, lower=None, upper=1.0, exact=1.0,
                              exact_error=0.0, moments_used=tuple(_moments(X, p)))
    weight = (shifted_moment(X, 0.0, p).norm / b) ** p
    tail_at_b = math.exp(s * b) - float(_head_vec(s, b, p))
    mean_head = expect(X, lambda x: _head_vec(s, x, p))[0]
    upper = weight * tail_at_b + mean_head
    exact, err = expect(X, lambda x: np.exp(s * np.asarray(x, dtype=float)))
    return MgfBoundReport(s=s, p=p, lower=None, upper=upper, exact=exact,
                          exact_error=err, moments_used=tuple(_moments(X, p)))


def am_gm_lower(X: RandomVariable, p: int) -> float:
    """Lower bound on E X for X on [1, inf) through the log transform.

    At p = 1 this is exp(E ln X), the geometric mean, recovering classical
    AM-GM; higher p sharpens it using moments of ln X.
    """
    p = _order(p)
    if X.inf < 1.0 - EQ_ABS:
        raise SupportViolationError("am_gm_lower needs X on [1, inf)")
    if X.kind == "density":
        raise DomainError("am_gm_lower supports discrete and sample lotteries")
    logs = np.log(X._points)
    Y = discrete(logs, X.probs) if X.kind == "discrete" else from_sample(logs)
    norm = shifted_moment(Y, 0.0, p).norm
    mean_head = expect(Y, lambda y: _head_vec(1.0, y, p))[0]
    return math.exp(norm) - float(_head_vec(1.0, norm, p)) + mean_head


# ---------------------------------------------------------------------------
# Likelihood instances
# ---------------------------------------------------------------------------


def _by_row(ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
    """ufunc reduced over each row of an n x K table, as a length-n array.

    The reduction runs on a contiguous K x n copy along axis 0, combining
    whole component rows: numpy reduces a short trailing axis one datum at
    a time, which at n = 400, K = 2 costs 8x as much for a max and 3x for
    a sum, copy included.  Each row is reduced left to right, which for
    np.add is the order of numpy's own axis=1 sum when K <= 7.
    """
    return ufunc.reduce(np.ascontiguousarray(table.T), axis=0)


@dataclass(frozen=True, eq=False)
class LikelihoodInstance:
    """Per-datum latent likelihood tables with responsibilities.

    Both fields are read-only n x K float arrays:
    likelihoods[i, z] = p(x_i, z | theta) > 0,
    responsibilities[i, z] = q_i(z) > 0, each row summing to 1.
    Row i induces the ratio variable X_i, which takes
    p(x_i, z | theta) / q_i(z) with probability q_i(z); its ceiling b_i is
    the largest ratio.

    Every per-datum reduction (checks, row sums, ceilings) runs over a
    contiguous K x n copy of a table, one component row at a time.  A row
    sum adds its K terms left to right: for K <= 7 that is numpy's
    axis=1 sum bit for bit, for K >= 8 it replaces numpy's pairwise order
    and may differ from it in the last bits.
    """

    likelihoods: np.ndarray
    responsibilities: np.ndarray

    def __post_init__(self) -> None:
        try:
            like = np.array(self.likelihoods, dtype=float)
            resp = np.array(self.responsibilities, dtype=float)
        except ValueError as exc:
            raise ConstructionError(f"latent tables must be rectangular: {exc}") from exc
        if like.ndim != 2 or like.shape != resp.shape or like.size == 0:
            raise ConstructionError(
                f"instance needs matching nonempty n x K tables, got shapes "
                f"{like.shape} and {resp.shape}")
        for what, bad in (
                ("likelihood values must be finite and > 0",
                 ~_by_row(np.logical_and, np.isfinite(like) & (like > 0.0))),
                ("responsibilities must be > 0",
                 ~_by_row(np.logical_and, resp > 0.0)),
                ("responsibilities must sum to 1",
                 ~(np.abs(_by_row(np.add, resp) - 1.0) <= 1e-9))):
            if np.any(bad):
                raise ConstructionError(f"row {int(np.argmax(bad))}: {what}")
        for name, table in (("likelihoods", like), ("responsibilities", resp)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def __reduce__(self):
        # through the constructor, so copies keep their tables read-only
        return type(self), (self.likelihoods, self.responsibilities)

    @property
    def n(self) -> int:
        return self.likelihoods.shape[0]

    def _ratios(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratio atoms r[i, z], each row's ceiling b_i and mean E X_i."""
        r = self.likelihoods / self.responsibilities
        return (r, _by_row(np.maximum, r),
                _by_row(np.add, self.responsibilities * r))


def likelihood_instance(likelihoods: Sequence[Sequence[float]],
                        responsibilities: Sequence[Sequence[float]]) -> LikelihoodInstance:
    inst = LikelihoodInstance(likelihoods, responsibilities)
    _, b, mean = inst._ratios()
    for i in np.flatnonzero(b > _CONDITIONING_RATIO * mean):
        warnings.warn(
            f"row {i}: ceiling/mean ratio {b[i] / mean[i]:.2e} dominates the bound "
            f"numerically; the tight minorant will be loose here",
            RuntimeWarning, stacklevel=2)
    return inst


def loglik_exact(inst: LikelihoodInstance) -> float:
    """sum_i ln sum_z p(x_i, z | theta), i.e. sum_i ln E X_i."""
    return fsum(np.log(_by_row(np.add, inst.likelihoods)))


def elbo_classical(inst: LikelihoodInstance) -> float:
    """The Jensen minorant sum_i E ln X_i (the standard EM lower bound)."""
    q = inst.responsibilities
    return fsum(q * np.log(inst.likelihoods / q))


def elbo_tight(inst: LikelihoodInstance) -> float:
    """The tightened minorant

        sum_i [ ln(b_i - ||b_i - X_i||_2) - (b_i - ||b_i - X_i||_2 - E X_i)/b_i ],

    sitting between the classical ELBO and the exact log-likelihood.  The
    norm is the 2-norm, the (p+1)-norm of order p = 1: ln(x) - x/b is
    certified in the concave class at that order only.
    """
    r, b, mean = inst._ratios()
    # ||b_i - X_i|| in the scaled form of shifted_moment: the deviations are
    # divided by their largest value b_i - min r_i, and a zero scale is norm 0
    scale = b - _by_row(np.minimum, r)
    dev = np.divide(b[:, None] - r, scale[:, None], out=np.zeros_like(r),
                    where=scale[:, None] > 0.0)
    norm = scale * _by_row(np.add, inst.responsibilities * dev ** 2) ** 0.5
    m = b - norm
    return fsum(np.log(m) - (m - mean) / b)


# ---------------------------------------------------------------------------
# EM demo: two-component Bernoulli mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EMTrace:
    """Per-iteration log of (loglik, classical ELBO, tight ELBO).

    Row 0 evaluates the initial parameters with uniform responsibilities;
    row t >= 1 evaluates theta_t with the responsibilities that produced it
    (the posterior at theta_{t-1}), where the ratio variables are genuinely
    non-degenerate and the chain inequality is informative.
    """

    rows: tuple[tuple[int, float, float, float], ...]
    weights: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]

    def logliks(self) -> list[float]:
        return [r[1] for r in self.rows]


_PROB_FLOOR = 1e-9


def generate_mixture_data(n: int, dims: int, seed: int) -> np.ndarray:
    """Binary design matrix from a two-component Bernoulli mixture: a row
    comes from the first component with probability 0.6, and its entries
    are 1 with probability 0.8 there and 0.2 in the second component."""
    n, dims = _integer(n, 0, "n"), _integer(dims, 0, "dims")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    comp = rng.random(n) < 0.6
    base = np.where(comp[:, None], 0.8, 0.2)
    return (rng.random((n, dims)) < base).astype(float)


def _joint_likelihood(mask: np.ndarray, weights: np.ndarray,
                      means: np.ndarray) -> np.ndarray:
    """n x K table of p(x_i, z | theta) for the Bernoulli mixture, from the
    d x n mask of the data's ones and means already clipped to
    [_PROB_FLOOR, 1 - _PROB_FLOOR]; each product runs over d left to right."""
    like = np.empty((mask.shape[1], weights.shape[0]))
    for k in range(weights.shape[0]):
        mu = means[k][:, None]
        like[:, k] = weights[k] * np.multiply.reduce(
            np.where(mask, mu, 1.0 - mu), axis=0)
    return np.maximum(like, 1e-300)


def em_demo(data: np.ndarray, iters: int, seed: int) -> EMTrace:
    """Textbook EM on a two-component Bernoulli mixture, with the classical
    and tightened minorants logged each iteration.

    data is an n x d matrix of 0.0 and 1.0 entries; any other entry (NaN
    included) raises ConstructionError naming its (row, column).  The
    exact-posterior E-step and closed-form M-step guarantee the logged
    log-likelihood is nondecreasing; the chain
    classical <= tight <= loglik holds at every row because each row pairs
    the new parameters with the previous responsibilities.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise ConstructionError(
            f"em_demo needs a nonempty n x d binary matrix, got shape {data.shape}")
    binary = (data == 0.0) | (data == 1.0)
    if not binary.all():
        i, j = divmod(int(np.argmin(binary)), data.shape[1])
        raise ConstructionError(
            f"em_demo needs binary data: entry ({i}, {j}) is {float(data[i, j])!r}, "
            f"not 0.0 or 1.0")
    iters = _integer(iters, 1, "iters")
    n, _d = data.shape
    mask = np.ascontiguousarray(data.T) == 1.0
    rng = np.random.default_rng(_integer(seed, 0, "seed"))
    weights = np.asarray([0.5, 0.5])
    means = np.clip(rng.uniform(0.25, 0.75, size=(2, data.shape[1])),
                    _PROB_FLOOR, 1.0 - _PROB_FLOOR)

    rows = []
    joint = _joint_likelihood(mask, weights, means)
    uniform = np.full_like(joint, 1.0 / joint.shape[1])
    inst0 = LikelihoodInstance(joint, uniform)
    rows.append((0, loglik_exact(inst0), elbo_classical(inst0), elbo_tight(inst0)))

    for it in range(1, iters + 1):
        # E-step at the current parameters
        resp = joint / _by_row(np.add, joint)[:, None]
        resp = np.clip(resp, _PROB_FLOOR, None)
        resp /= _by_row(np.add, resp)[:, None]
        # closed-form M-step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = np.clip((resp.T @ data) / nk[:, None], _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        joint = _joint_likelihood(mask, weights, means)
        inst = LikelihoodInstance(joint, resp)
        rows.append((it, loglik_exact(inst), elbo_classical(inst), elbo_tight(inst)))

    return EMTrace(rows=tuple(rows), weights=tuple(weights),
                   means=tuple(tuple(m) for m in means))
