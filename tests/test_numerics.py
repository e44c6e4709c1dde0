"""Kernel-level tests: summation, gamma, quadrature, norms, inversion,
finite differences.

Golden values are frozen from independent oracles: exact rational sums for
summation, mpmath at 30 digits for the gamma function, closed-form
antiderivatives for quadrature, and algebraic identities for the rest.
"""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex import numerics

from pconvex.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    RangeOverflowError,
)
from pconvex.distributions import fractional_hh_density
from pconvex.functions import (
    FunctionSpec,
    Jet,
    exp_taylor_remainder,
    exponential,
    log_affine,
    polynomial,
    shifted_power,
)
from pconvex.numerics import (
    EQ_ABS,
    EQ_REL,
    QUADRATURE_DOUBLINGS,
    QUADRATURE_NODES,
    QUADRATURE_TOLERANCE,
    _eval_nodes,
    _order,
    _table_cell,
    fd_derivative,
    gamma,
    integrate,
    integrate_jacobi,
    invert_monotone,
    log_gamma,
    pnorm_shifted,
)


# Strictly increasing catalog members with a bracket inside their domains.
_MONOTONE_MEMBERS = [
    (shifted_power(2.0, domain=(0.0, 4.0)), 0.0, 4.0),
    (shifted_power(3.5, shift=1.0, domain=(1.0, 5.0)), 1.0, 5.0),
    (exponential(1.0, domain=(0.0, 3.0)), 0.0, 3.0),
    (exp_taylor_remainder(2, domain=(0.0, 3.0)), 0.2, 3.0),
    (log_affine(0.6), 0.01, 0.55),
    (polynomial([0.0, 1.0, 1.0, 1.0], domain=(0.0, 2.0)), 0.0, 2.0),
]

_GAMMA_GRID = np.concatenate([
    np.linspace(0.05, 1.0, 39),
    np.linspace(1.0, 20.0, 77),
    np.linspace(20.0, 170.0, 151),
])


class TestGamma:
    def test_integer_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        # Oracle: gamma(1/2) = sqrt(pi) exactly.
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert abs(gamma(0.5) - 1.7724538509055160) < 1e-12

    def test_relative_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in _GAMMA_GRID:
                expected = float(mpmath.gamma(float(x)))
                assert gamma(float(x)) == pytest.approx(expected, rel=1e-12), x

    def test_log_gamma_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for x in np.concatenate([_GAMMA_GRID, np.geomspace(170.0, 1e6, 60)]):
                expected = float(mpmath.loggamma(float(x)))
                assert log_gamma(float(x)) == pytest.approx(expected, rel=1e-12), x

    def test_recurrence(self):
        # Gamma(x+1) = x Gamma(x) on x = 0.1, 0.2, ..., 50.
        for i in range(1, 501):
            x = i / 10.0
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-3.2)
        with pytest.raises(RangeOverflowError):
            gamma(170.5)
        with pytest.raises(DomainError):
            log_gamma(0.0)


class TestIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 1.0).value == pytest.approx(0.5, abs=1e-12)

    def test_cubic(self):
        assert integrate(lambda x: x ** 3, 0.0, 1.0).value == pytest.approx(0.25, abs=1e-12)

    def test_exponential(self):
        # Oracle: closed form e - 1.
        res = integrate(np.exp, 0.0, 1.0)
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-10)
        assert res.error_estimate <= 1e-8

    def test_scalar_only_integrand(self):
        # math.* callables reject arrays; the kernel falls back to a loop
        res = integrate(lambda x: math.sin(x), 0.0, math.pi)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        # oracle: series for the weighted integral of cos with weight t^(-1/2),
        # 2 sum_k (-1)^k / ((2k)! (4k+1))
        want = 2.0 * sum((-1) ** k / (math.factorial(2 * k) * (4 * k + 1))
                         for k in range(12))
        jac = integrate_jacobi(lambda t: math.cos(t), 0.0, 1.0, 0.5, "left")
        assert jac.value == pytest.approx(want, abs=1e-10)

    def test_constant_returning_integrand(self):
        res = integrate(lambda x: 2.0, 0.0, 3.0)
        assert res.value == pytest.approx(6.0, abs=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_nonconvergence_carries_best_estimate(self):
        rough = lambda x: np.abs(np.sin(50.0 * x)) ** 0.3
        with _quadrature(tolerance=1e-13, doublings=0), \
                pytest.raises(ConvergenceError) as err:
            integrate(rough, 0.0, 3.0)
        assert math.isfinite(err.value.best_estimate)


def _quadrature(tolerance=QUADRATURE_TOLERANCE, doublings=QUADRATURE_DOUBLINGS):
    """A context in which integrate() runs with these constants."""
    return mock.patch.multiple(numerics, QUADRATURE_TOLERANCE=tolerance,
                               QUADRATURE_DOUBLINGS=doublings)


_RULES = {
    "gauss-legendre": lambda f: integrate(f, 0.0, 2.0),
    "gauss-jacobi": lambda f: integrate_jacobi(f, 0.0, 2.0, 0.5, "left"),
}


class TestStoppingRule:
    """Both rules stop on the first doubling step within their threshold."""

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_no_refinement_always_raises(self, rule):
        # a quadratic is exact on the first estimate, yet it is not accepted
        # until a doubling step has confirmed it
        with _quadrature(doublings=0), pytest.raises(ConvergenceError) as err:
            _RULES[rule](lambda x: x * x)
        assert math.isfinite(err.value.best_estimate)
        assert err.value.error_estimate == math.inf

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_error_estimate_is_last_step(self, rule):
        f = lambda x: np.cos(40.0 * x)
        res = _RULES[rule](f)
        assert res.refinements >= 2
        # one doubling fewer stops short and reports the previous estimate
        with _quadrature(doublings=res.refinements - 1), \
                pytest.raises(ConvergenceError) as err:
            _RULES[rule](f)
        assert res.error_estimate == abs(res.value - err.value.best_estimate)


# name -> mpmath module -> (numpy integrand, mpmath integrand)
_JACOBI_INTEGRANDS = {
    "cube": lambda mp: (lambda t: t ** 3, lambda t: t ** 3),
    "exp": lambda mp: (np.exp, mp.exp),
    "cos": lambda mp: (np.cos, mp.cos),
}


class TestIntegrateJacobi:
    def test_weight_one(self):
        res = integrate_jacobi(lambda t: np.ones_like(t), 0.0, 1.0, 1.0, "left")
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_singularity(self):
        # Oracle: closed form integral of t^(-1/2) over [0,1] = 2.
        res = integrate_jacobi(lambda t: np.ones_like(t), 0.0, 1.0, 0.5, "left")
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_identity_integrand(self):
        res = integrate_jacobi(lambda t: t, 0.0, 1.0, 1.0, "left")
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_right_weight(self):
        # integral of (1-t)^(-1/2) t dt over [0,1] = 4/3 (oracle: substitution u = 1-t).
        res = integrate_jacobi(lambda t: t, 0.0, 1.0, 0.5, "right")
        assert res.value == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_agrees_with_plain_quadrature_when_smooth(self):
        f = lambda t: np.cos(t)
        for alpha in (1.0, 2.0, 3.5):
            weighted = integrate_jacobi(f, 0.0, 2.0, alpha, "left").value
            plain = integrate(lambda t: (t - 0.0) ** (alpha - 1.0) * np.cos(t), 0.0, 2.0).value
            assert weighted == pytest.approx(plain, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(_JACOBI_INTEGRANDS))
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.5])
    def test_against_mpmath(self, alpha, side, name):
        """Each weighted integral on [0, 2] converges and lands within its
        own error estimate (plus 1e-12) of mpmath.quad at 30 digits.

        The oracle integrates after substituting u = t^alpha (left) or
        u = (2 - t)^alpha (right), which absorbs the weight into a smooth
        integrand; tanh-sinh on the singular form loses digits to the
        cancellation in 2 - t (1.7e-9 at alpha = 0.3).
        """
        mpmath = pytest.importorskip("mpmath")
        fn, mp_fn = _JACOBI_INTEGRANDS[name](mpmath)
        res = integrate_jacobi(fn, 0.0, 2.0, alpha, side)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            t_of = (lambda u: u ** (1 / a)) if side == "left" else (lambda u: 2 - u ** (1 / a))
            want = float(mpmath.quad(lambda u: mp_fn(t_of(u)), [0, 2 ** a]) / a)
        assert abs(res.value - want) <= res.error_estimate + 1e-12, (res, want)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            integrate_jacobi(lambda t: t, 0.0, 1.0, 0.0, "left")
        with pytest.raises(DomainError):
            integrate_jacobi(lambda t: t, 0.0, 1.0, 1.0, "middle")


class TestEndpointWeights:
    """integrate() with end exponents against closed forms at 30 digits:

        integral over [a, a+L] of (t-a)^(l-1) (a+L-t)^(r-1) exp(s (t-a)) dt
            = L^(l+r-1) B(l, r) 1F1(l; l+r; s L),

    for beta-like shapes (l, r) in [1, 3.5]^2 and one-sided fractional
    exponents in [0.05, 3]; the same with the power (t-a)^q in place of the
    exponential is L^(l+r+q-1) B(l+q, r).
    """

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(
               st.tuples(st.floats(1.0, 3.5), st.floats(1.0, 3.5)),
               st.floats(0.05, 3.0).map(lambda e: (e, 1.0)),
               st.floats(0.05, 3.0).map(lambda e: (1.0, e))),
           st.floats(-1.0, 1.0), st.floats(0.5, 3.0), st.floats(-2.0, 2.0),
           st.integers(0, 4))
    def test_against_closed_forms(self, ends, a, length, s, q):
        mpmath = pytest.importorskip("mpmath")
        left, right = ends
        b = a + length
        cases = [(lambda t: np.exp(s * (np.asarray(t) - a)),
                  lambda L, l, r: L ** (l + r - 1) * mpmath.beta(l, r)
                  * mpmath.hyp1f1(l, l + r, s * L)),
                 (lambda t: (np.asarray(t) - a) ** q,
                  lambda L, l, r: L ** (l + r + q - 1) * mpmath.beta(l + q, r))]
        for fn, closed in cases:
            res = integrate(fn, a, b, left=left, right=right)
            with mpmath.workdps(30):
                # the interval as the rule sees it: b - a rounded
                want = float(closed(mpmath.mpf(b) - mpmath.mpf(a), mpmath.mpf(left),
                                    mpmath.mpf(right)))
            assert abs(res.value - want) <= res.error_estimate + 1e-12 * abs(want), \
                (ends, a, length, s, q, res, want)

    def test_exponents_must_be_positive(self):
        for left, right in ((0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                integrate(np.exp, 0.0, 1.0, left=left, right=right)


# (name, integrand for a drawn constant c); "scalar" takes floats only, so
# it runs through _eval_nodes' per-point path
_INTEGRANDS = {
    "cubic": lambda c: (lambda x: x ** 3 - c * x),
    "exp": lambda c: (lambda x: np.exp(c * x)),
    "sin": lambda c: (lambda x: np.sin(3.0 * c * x)),
    "kink": lambda c: (lambda x: np.abs(x - c)),
    "scalar": lambda c: (lambda x: math.cos(c * x)),
}


def _outcome(f, a, b, left, right):
    """integrate()'s result, or the estimate a ConvergenceError carries, as hex."""
    try:
        res = integrate(f, a, b, left, right)
        return res.value.hex(), res.error_estimate.hex(), res.refinements
    except ConvergenceError as exc:
        return "diverged", float(exc.best_estimate).hex(), float(exc.error_estimate).hex()


def _reference_graded_rule(a, b, left, right, parts):
    """integrate()'s rule as it was built before its exponent-free arrays
    were cached: every array from (a, b, left, right, parts) in one pass."""
    x, w = numerics._leggauss()
    u = ((np.arange(parts)[:, None] + 0.5 * (x + 1.0)) / parts).ravel()
    du = np.tile(w / (2.0 * parts), parts)
    length = b - a
    graded = [g for g in ((left, right, a, 1.0), (right, left, b, -1.0)) if g[0] != 1.0]
    if not graded:
        return a + length * u, length * du
    span = length / len(graded)
    r0 = span * 2.0 ** -numerics.GRADED_LEVELS
    lo = span * 2.0 ** -np.arange(numerics.GRADED_LEVELS, 0.0, -1.0)[:, None]
    ts, ws = [], []
    for e, other, end, inward in graded:
        r = np.concatenate([r0 * u ** (1.0 / e), (lo * (1.0 + u)).ravel()])
        wt = np.concatenate([r0 ** e / e * du, (lo * du).ravel() * r[u.size:] ** (e - 1.0)])
        ts.append(end + inward * r)
        ws.append(wt * (length - r) ** (other - 1.0))
    return np.concatenate(ts), np.concatenate(ws)


# an end exponent: unweighted, or drawn from where the graded panels apply
_END = st.one_of(st.just(1.0), st.floats(0.3, 4.0))

# the panel counts of each shared rule
_SHARED_LEVELS = ((1, 2), (4,), (8,))


class TestSharedNodeSets:
    """The node sets of the first doublings are memoized, read-only and
    shared by every integral; each is the rule _graded_rule builds."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_INTEGRANDS)), st.floats(-2.0, 2.0),
           st.floats(-3.0, 3.0), st.floats(0.05, 4.0),
           st.sampled_from([1.0, 0.5, 0.3, 1.5, 2.75]), st.sampled_from([1.0, 0.7, 3.0]),
           st.integers(0, 5))
    def test_integrals_equal_fresh_builds_bit_for_bit(self, name, c, a, length, left,
                                                      right, refinements):
        f = _INTEGRANDS[name](c)
        args = (a, a + length, left, right)
        with _quadrature(doublings=refinements):
            warm = [_outcome(f, *args) for _ in range(2)][1]
            numerics._shared_rule.cache_clear()
            cold = _outcome(f, *args)
            with mock.patch.object(numerics, "_shared_rule", numerics._graded_rule):
                fresh = _outcome(f, *args)
        assert warm == cold == fresh

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 2.0), _END, _END, st.integers(1, 64),
           st.booleans())
    def test_rule_equals_the_reference_bit_for_bit(self, a, log_length, left, right, parts,
                                                   doubled):
        # a rule of `parts` and then 2 `parts` panels, built in one pass, is
        # the two rules built alone, one after the other
        b = a + 10.0 ** log_length
        counts = (parts, 2 * parts) if doubled else (parts,)
        got = numerics._graded_rule(a, b, left, right, counts)
        want = [np.concatenate(arrays) for arrays in zip(
            *(_reference_graded_rule(a, b, left, right, n) for n in counts))]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_shared_rules_are_read_only(self):
        for levels in _SHARED_LEVELS:
            t, w = numerics._shared_rule(0.0, 1.0, 0.5, 1.0, levels)
            assert numerics._shared_rule(0.0, 1.0, 0.5, 1.0, levels)[0] is t
            assert numerics._skeleton(levels)[0] is numerics._skeleton(levels)[0]
            for arr in (t, w, *numerics._skeleton(levels), numerics._layout((1, 2), 1),
                        numerics._layout((1, 2), 2)):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_integrand_writing_into_its_argument(self):
        kinds = []

        def doubling(x):
            kinds.append(type(x))
            x *= 2.0
            return x

        numerics._shared_rule.cache_clear()
        got = integrate(doubling, 0.0, 1.0, left=0.5)
        # the read-only nodes refuse the write, so each point is a float call
        assert np.ndarray in kinds and float in kinds
        assert got == integrate(lambda x: 2.0 * x, 0.0, 1.0, left=0.5)
        shared = numerics._shared_rule(0.0, 1.0, 0.5, 1.0, (1, 2))
        fresh = numerics._graded_rule(0.0, 1.0, 0.5, 1.0, (1, 2))
        assert all(np.array_equal(s, f) for s, f in zip(shared, fresh))

    def test_non_converging_integral_caches_no_rule_above_the_cap(self):
        numerics._shared_rule.cache_clear()
        numerics._skeleton.cache_clear()
        numerics._layout.cache_clear()
        with _quadrature(doublings=6), pytest.raises(ConvergenceError):
            integrate(lambda t: np.sign(t - 0.3337), 0.0, 1.0, left=0.5, right=0.5)
        # 1 and 2 panels (one rule), 4 and 8 are kept; 16 to 64 were built
        # and dropped
        info = numerics._shared_rule.cache_info()
        assert info.currsize == info.misses == 3 and info.hits == 0
        # and so are their skeletons: asking for those three again only hits
        info = numerics._skeleton.cache_info()
        assert info.currsize == info.misses == 3 and info.hits == 0
        for levels in _SHARED_LEVELS:
            numerics._skeleton(levels)
        assert numerics._skeleton.cache_info().misses == 3
        # the one layout is that of the 1- and 2-panel rule with two ends
        info = numerics._layout.cache_info()
        assert info.currsize == info.misses == 1 and info.hits == 0


def _reference_outcome(f, a, b, left, right):
    """integrate()'s stopping rule over _reference_graded_rule's rules, one
    rule and one integrand call per level, as _outcome reports it."""
    limit, best, step = 0.25 * numerics.QUADRATURE_TOLERANCE, None, math.inf
    for k in range(numerics.QUADRATURE_DOUBLINGS + 1):
        t, w = _reference_graded_rule(a, b, left, right, 2 ** k)
        terms = w * _eval_nodes(f, t)
        nxt = float(terms.sum())
        if k:
            step = abs(nxt - best)
            if step <= max(limit, numerics._ROUNDING * float(np.abs(terms).sum())):
                return nxt.hex(), step.hex(), k
        best = nxt
    return "diverged", best.hex(), float(step).hex()


class TestFirstTwoLevels:
    """Levels 0 and 1 (1 and 2 panels per base panel) are one rule and one
    integrand call; the outcome is that of a rule and a call per level."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_INTEGRANDS)), st.floats(-2.0, 2.0),
           st.floats(-3.0, 3.0), st.floats(0.05, 4.0), _END, _END, st.integers(0, 6))
    def test_equals_a_rule_and_a_call_per_level_bit_for_bit(self, name, c, a, length,
                                                            left, right, doublings):
        f = _INTEGRANDS[name](c)
        args = (a, a + length, left, right)
        with _quadrature(doublings=doublings):
            assert _outcome(f, *args) == _reference_outcome(f, *args)

    def _bad_node(self):
        """A node of the 2-panel level of integrate(f, 0, 1, left=0.5) that
        is not a node of the 1-panel level."""
        one = numerics._graded_rule(0.0, 1.0, 0.5, 1.0, (1,))[0]
        two = numerics._graded_rule(0.0, 1.0, 0.5, 1.0, (2,))[0]
        return float(np.setdiff1d(two, one)[7])

    @pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
    def test_raising_only_at_the_second_level(self, error):
        # ZeroDivisionError passes through the array call; ValueError sends
        # _eval_nodes to the per-point floats, where it is raised again
        bad = self._bad_node()

        def f(x):
            if np.any(np.asarray(x) == bad):
                raise error("bad node")
            return np.sin(x)

        with pytest.raises(error, match="bad node"):
            integrate(f, 0.0, 1.0, left=0.5)

    def test_complex_only_at_the_second_level(self):
        bad = self._bad_node()

        def f(x):
            v = np.sin(x)
            return v.astype(complex) if np.any(np.asarray(x) == bad) else v

        # the message names the nodes of both levels (336 and 672), called
        # together
        with pytest.raises(DomainError, match=r"no real value at the points \(1008 in "):
            integrate(f, 0.0, 1.0, left=0.5)


class TestPnormShifted:
    def test_sqrt_half(self):
        assert pnorm_shifted(0.5, 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 7, 64])
    def test_zero_and_one_fixed_points(self, order):
        assert pnorm_shifted(0.0, order) == 0.0
        assert pnorm_shifted(1.0, order) == pytest.approx(1.0)

    def test_scale_factorization(self):
        # norm of a scaled variable = scale * norm of the unit variable
        assert pnorm_shifted(0.25, 4, scale=3.0) == pytest.approx(3.0 * 0.25 ** 0.25)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            pnorm_shifted(-1e-3, 2)


# inputs of the table-cell properties: (x - shift)^q on [shift, shift + span]
# and the targets _cell_targets draws from them
_CELL_INPUTS = dict(
    q=st.floats(min_value=1.0, max_value=8.0),
    shift=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
    span=st.floats(min_value=1e-2, max_value=1e3),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    nodes=st.lists(st.integers(min_value=0, max_value=256), min_size=1, max_size=4),
    near=st.floats(min_value=-12.0, max_value=-6.0),
    outside=st.floats(min_value=0.0, max_value=0.9))


def _cell_targets(q, shift, span, fractions, nodes, near, outside):
    """f = (x - shift)^q, its 257-point table (xs, vals) and targets inside,
    on table nodes, at both ends, just above the lower end, and outside the
    ends by less than the clamp slack."""
    f = shifted_power(q, shift, (shift, shift + span))
    xs = np.linspace(shift, shift + span, 257)
    vals = f.eval_on(xs)
    y_lo, y_hi = vals[0], vals[-1]
    slack = lambda y: outside * (EQ_ABS + EQ_REL * y)
    ys = np.concatenate([y_lo + np.asarray(fractions) * (y_hi - y_lo), vals[nodes],
                         [y_lo, y_hi, y_lo + 10.0 ** near * (y_hi - y_lo),
                          y_lo - slack(y_lo), y_hi + slack(y_hi)]])
    return f, xs, vals, ys


def _jet_spec(f, df, label="f"):
    """f with its exact derivative df as a two-row jet, on a domain wide
    enough for every bracket below (the solver reads only the bracket)."""
    return FunctionSpec(label=label, domain=(-1e300, math.inf),
                        jet=Jet(lambda x, lo, hi: [f(x), df(x)][lo:hi + 1], 1))


def _ssqrt(x):
    return np.sign(x) * np.sqrt(np.abs(x))


# sign-sqrt, whose f' is infinite at its root 0
_SSQRT = _jet_spec(_ssqrt, lambda x: 0.5 / np.sqrt(np.abs(x)), "ssqrt")
_CUBE = _jet_spec(lambda x: x ** 3, lambda x: 3.0 * x * x, "x^3")
_TANH = _jet_spec(np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, "tanh")
_CBRT = _jet_spec(np.cbrt, lambda x: 1.0 / (3.0 * np.cbrt(x) ** 2), "cbrt")
_EXPM1 = _jet_spec(np.expm1, np.exp, "expm1")
_LOG = _jet_spec(np.log, lambda x: 1.0 / x, "log")


def _recorded(f, points):
    """f as a spec whose jet appends each point it is called at to points."""
    def rows(x, lo, hi):
        points.extend(np.ravel(x).tolist())
        return f.derivatives_on(x, lo, hi)
    return FunctionSpec(label=f.label, domain=f.domain, jet=Jet(rows, 1))


class TestInvertMonotone:
    def test_square(self):
        f = shifted_power(2.0, domain=(0.0, 10.0))
        assert invert_monotone(f, 4.0, (0.0, 10.0)) == pytest.approx(2.0, abs=1e-10)

    def test_cube(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        assert invert_monotone(f, 0.125, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_expm1(self):
        x = invert_monotone(_EXPM1, math.e - 1.0, (0.0, 2.0))
        assert x == pytest.approx(1.0, abs=1e-12)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            invert_monotone(shifted_power(1.0), 5.0, (0.0, 1.0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.01, max_value=50.0),
           st.integers(min_value=1, max_value=6))
    def test_roundtrip_powers(self, x, q):
        f = shifted_power(float(q))
        recovered = invert_monotone(f, float(f(x)), (0.0, 64.0))
        assert recovered == pytest.approx(x, rel=1e-10, abs=1e-10)

    def test_small_root_is_relatively_accurate(self):
        # the stopping floor is relative to |x|, not absolute below |x| = 1
        f = shifted_power(2.0)
        x = invert_monotone(f, 1e-20, (0.0, 10.0))
        assert abs(x - 1e-10) <= 1e-13 * 1e-10
        assert invert_monotone(f, np.array([1e-20]), (0.0, 10.0)).tolist() == [x]

    def test_small_root_of_rough_f_is_reached(self):
        # sign-sqrt's Newton steps leave the bracket far from its root
        # 1e-200, so the steps bisect, at 0 and then at geometric means,
        # before the relative floor is met
        x = invert_monotone(_SSQRT, 1e-100, (-1.0, 2.0))
        assert abs(x - 1e-200) <= 1e-13 * 1e-200
        assert invert_monotone(_SSQRT, np.array([1e-100, 0.5]), (-1.0, 2.0))[0] == x

    def test_root_at_zero_inside_the_bracket(self):
        # no relative floor can be met across 0: the bracket closes below
        # the smallest normal float, or f reaches the target exactly
        for f in (_CUBE, _SSQRT):
            x = invert_monotone(f, 0.0, (-1.0, 2.0))
            assert abs(x) <= 1e-100
            assert invert_monotone(f, np.array([0.0, 0.5]), (-1.0, 2.0))[0] == x

    def test_float_in_float_out(self):
        f = shifted_power(2.0)
        assert type(invert_monotone(f, 4.0, (0.0, 10.0))) is float
        out = invert_monotone(f, [4.0], (0.0, 10.0))
        assert isinstance(out, np.ndarray) and out.shape == (1,)

    @pytest.mark.parametrize("f,g,lo,hi", [
        (shifted_power(2.0), np.sqrt, 0.0, 10.0),
        (shifted_power(5.0), lambda y: y ** 0.2, 0.0, 10.0),
        (shifted_power(7.0), lambda y: y ** (1.0 / 7.0), 0.0, 3.0),
        (exponential(1.0, domain=(-5.0, 5.0)), np.log, -5.0, 5.0),
    ], ids=["sqrt", "fifth-root", "seventh-root", "log"])
    def test_closed_form_inverses(self, f, g, lo, hi):
        xs = np.linspace(lo + 0.1 * (hi - lo), hi, 33)
        ys = f.eval_on(xs)
        want = g(ys)
        for got in (invert_monotone(f, ys, (lo, hi)),
                    [invert_monotone(f, float(y), (lo, hi)) for y in ys]):
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_array_and_broadcast_brackets(self):
        square = shifted_power(2.0)
        ys = np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(invert_monotone(square, ys, (0.0, [2.0, 3.0, 4.0])),
                                   [1.0, 2.0, 3.0], rtol=1e-14)
        np.testing.assert_allclose(invert_monotone(square, 4.0, ([0.0, 1.0, 1.5], 5.0)),
                                   [2.0, 2.0, 2.0], rtol=1e-14)
        # (3, 1) targets against (4,) upper ends: a (3, 4) solve
        out = invert_monotone(square, ys[:, None], (0.0, np.array([3.0, 4.0, 5.0, 6.0])))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, np.broadcast_to([[1.0], [2.0], [3.0]], (3, 4)),
                                   rtol=1e-14)
        with pytest.raises(BracketError):
            invert_monotone(square, ys, (0.0, [2.0, 1.0, 4.0]))
        with pytest.raises(BracketError):
            invert_monotone(square, ys, ([0.0, 3.0, 0.0], [2.0, 2.5, 4.0]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=5),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40))
    def test_float_and_array_runs_agree_bit_for_bit(self, member, fractions):
        f, lo, hi = _MONOTONE_MEMBERS[member]
        ylo, yhi = float(f(lo)), float(f(hi))
        ys = ylo + np.asarray(fractions) * (yhi - ylo)
        batch = invert_monotone(f, ys, (lo, hi))
        assert batch.tolist() == [invert_monotone(f, float(y), (lo, hi)) for y in ys]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**_CELL_INPUTS)
    def test_one_table_cell_solves_as_the_whole_table(self, q, shift, span, fractions, nodes,
                                                       near, outside):
        # (x - shift)^q tabulated at 257 points, as compose_inverse tabulates
        # f: each target solved in the one cell whose values bracket it
        # equals the solve over the whole table to 1e-14 relative, for
        # targets inside, on table nodes, at both ends, just above the
        # lower end, and outside the ends by less than the clamp slack
        f, xs, vals, ys = _cell_targets(q, shift, span, fractions, nodes, near, outside)
        cell = invert_monotone(f, ys, _table_cell(xs, vals, ys))
        whole = invert_monotone(f, ys, (xs[0], xs[-1]))
        np.testing.assert_allclose(cell, whole, rtol=1e-14, atol=0.0)
        assert cell[len(fractions) + len(nodes) + 3] == xs[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**_CELL_INPUTS)
    def test_cell_end_values_save_two_calls(self, q, shift, span, fractions, nodes, near,
                                            outside):
        # a cell given with its table values, (lo, hi, f(lo), f(hi)), solves
        # to the bits of the same cell given as (lo, hi) with two calls of f
        # fewer: for each target as a float, for all targets as an array, and
        # in a stacked table with one row per target (member i is f + i)
        f, xs, vals, ys = _cell_targets(q, shift, span, fractions, nodes, near, outside)
        offsets = np.arange(float(ys.size))
        calls = []

        def counted(shift_by):
            def rows(x, lo, hi):
                calls.append(1)
                out = f.derivatives_on(x, lo, hi)
                return [r + shift_by if k == 0 else r for k, r in zip(range(lo, hi + 1), out)]
            return FunctionSpec(label="counted", domain=f.domain, jet=Jet(rows, 1))

        cases = [(counted(0.0), float(y), vals) for y in ys] + [
            (counted(0.0), ys, vals), (counted(offsets), ys + offsets, vals + offsets[:, None])]
        for fn, y, table in cases:
            cell = _table_cell(xs, table, y)
            calls.clear()
            given_ends = invert_monotone(fn, y, cell)
            given_calls = len(calls)
            evaluated = invert_monotone(fn, y, cell[:2])
            assert np.asarray(given_ends).tobytes() == np.asarray(evaluated).tobytes()
            assert type(given_ends) is type(evaluated)
            assert len(calls) - given_calls == given_calls + 2

    @pytest.mark.parametrize("f,y,bracket,root", [
        (_TANH, 0.3, (-1e300, 1e300), math.atanh(0.3)),
        (_CBRT, 1e-100, (-1e300, 1e300), 1e-300),
    ], ids=["tanh", "cbrt"])
    def test_bisection_at_zero_and_geometric_means(self, f, y, bracket, root):
        # a bracket straddling 0 is split there, and one whose ends share a
        # sign across binades at their geometric mean, so a root near 0 in
        # a bracket of 2000 binades takes tens of steps, not one per binade
        points = []
        x = invert_monotone(_recorded(f, points), y, bracket)
        assert len(points) < 100
        assert abs(x - root) <= 1e-15 * root
        assert 0.0 in points

    @pytest.mark.parametrize("q", [2.0, 3.5])
    def test_zero_derivative_at_the_shift_bisects_on(self, q):
        # x^q at its shift 0 has f' = 0 there, where the split of a bracket
        # across 0 lands: the solve bisects on and reaches the root
        points = []
        f = _recorded(shifted_power(q), points)
        x = invert_monotone(f, 0.3 ** q, (-1.0, 1.0))
        assert 0.0 in points and float(shifted_power(q).eval_on(0.0, 1)) == 0.0
        assert abs(x - 0.3) <= 1e-15 * 0.3

    def test_infinite_derivative_at_a_cdf_end_bisects_on(self):
        # the fractional-hh cdf with alpha < 1 has f' = pdf = inf at its
        # ends; a target whose secant start rounds to the left end starts
        # there, and the solve bisects on to the root, which rounds to it
        X = fractional_hh_density(1.0, 3.0, 0.5)
        cdf = _jet_spec(lambda x: ((x - 1.0) ** 0.5 + 2.0 ** 0.5 - (3.0 - x) ** 0.5)
                        / (2.0 * 2.0 ** 0.5), X.pdf, "cdf")
        assert float(X.pdf(1.0)) == math.inf
        points = []
        assert invert_monotone(_recorded(cdf, points), 1e-17, (1.0, 3.0)) == 1.0
        # the two end values, then the start at the end and steps past it
        assert points[:3] == [1.0, 3.0, 1.0] and max(points[3:]) > 1.0
        x = invert_monotone(cdf, 1e-6, (1.0, 3.0))
        assert x == pytest.approx(1.0 + (2.0 * 2.0 ** 0.5 * 1e-6) ** 2, rel=1e-9)

    @pytest.mark.parametrize("q", [1.7, 2.0, 3.2, 4.0, 6.0])
    def test_powers_invert_to_a_few_ulps(self, q):
        # against mpmath's root at 50 digits, over 200 targets of a
        # 257-point table as compose_inverse solves them
        mpmath = pytest.importorskip("mpmath")
        f = shifted_power(q, domain=(0.0, 12.0))
        xs = np.linspace(0.0, 12.0, 257)
        vals = f.eval_on(xs)
        ys = np.linspace(vals[1], vals[-1], 200)
        got = invert_monotone(f, ys, _table_cell(xs, vals, ys))
        with mpmath.workdps(50):
            worst = max(abs(mpmath.mpf(g) / mpmath.mpf(y) ** (1 / mpmath.mpf(q)) - 1)
                        for g, y in zip(got.tolist(), ys.tolist()))
        assert worst <= 3e-16


_NAN_ABOVE_HALF = _jet_spec(lambda x: np.where(x > 0.5, math.nan, x),
                            lambda x: np.where(x > 0.5, math.nan, 1.0))
_NAN_INSIDE = _jet_spec(lambda x: np.where((0.4 < x) & (x < 0.6), math.nan, x),
                        lambda x: np.where((0.4 < x) & (x < 0.6), math.nan, 1.0))
# the float run of the callable-taking solver cast a numpy complex value to
# its real part: the first returned 0.593774225170145
_COMPLEX_ROOT = _jet_spec(lambda x: np.emath.sqrt(x - 0.5) + x,
                          lambda x: 0.5 / np.emath.sqrt(x - 0.5) + 1.0)


def _complex_inside(x, lo, hi):
    """Rows of f = x, complex where any point lies in (0.4, 0.6)."""
    rows = [x, np.ones_like(x)][lo:hi + 1]
    return [r + 0j for r in rows] if np.any((0.4 < x) & (x < 0.6)) else rows


_COMPLEX_INSIDE = FunctionSpec(label="complex inside", domain=(-1e300, math.inf),
                               jet=Jet(_complex_inside, 1))


class TestInvertMonotoneFailsClosed:
    """Non-finite input, or f NaN where evaluated, raises instead of returning.

    f = x is NaN or complex on (0.4, 0.6) in the "inside" cases; their
    target 0.5 is where the solve starts, the secant of a linear f."""

    @pytest.mark.parametrize("f,y,bracket,error", [
        (shifted_power(2.0), math.nan, (0.0, 10.0), BracketError),
        (shifted_power(1.0), 0.7, (0.0, math.inf), BracketError),
        (_NAN_ABOVE_HALF, 0.7, (0.0, 1.0), BracketError),
        (_NAN_INSIDE, 0.5, (0.0, 1.0), ConvergenceError),
        (_COMPLEX_ROOT, 0.9, (0.0, 1.0), DomainError),
        (_COMPLEX_INSIDE, 0.5, (0.0, 1.0), DomainError),
    ], ids=["nan-target", "infinite-bracket", "nan-at-bracket-end", "nan-inside",
            "complex-at-bracket-end", "complex-inside"])
    def test_float(self, f, y, bracket, error):
        with pytest.raises(error):
            invert_monotone(f, y, bracket)

    @pytest.mark.parametrize("f,y,bracket,error", [
        (shifted_power(2.0), [1.0, math.nan], (0.0, 10.0), BracketError),
        (shifted_power(1.0), [0.2, 0.7], (0.0, [1.0, math.inf]), BracketError),
        (_NAN_ABOVE_HALF, [0.2, 0.7], (0.0, [0.4, 1.0]), BracketError),
        (_NAN_INSIDE, [0.2, 0.5], (0.0, [0.3, 1.0]), ConvergenceError),
        (_COMPLEX_ROOT, [0.9, 0.8], (0.0, 1.0), DomainError),
        (_COMPLEX_INSIDE, [0.2, 0.5], (0.0, 1.0), DomainError),
    ], ids=["nan-target", "infinite-bracket", "nan-at-bracket-end", "nan-inside",
            "complex-at-bracket-end", "complex-inside"])
    def test_array(self, f, y, bracket, error):
        with pytest.raises(error):
            invert_monotone(f, np.asarray(y), bracket)

    @pytest.mark.parametrize("y", [1e-100, np.array([1e-100, 0.5])], ids=["float", "array"])
    def test_step_limit(self, monkeypatch, y):
        # a solve still open at the step limit raises with its best end
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as exc:
            invert_monotone(_SSQRT, y, (-1.0, 2.0))
        assert -1.0 <= np.ravel(exc.value.best_estimate)[0] <= 2.0

    def test_complex_value_names_the_point(self):
        with pytest.raises(DomainError, match="no real value at the point x = 0.5"):
            invert_monotone(_COMPLEX_INSIDE, 0.5, (0.0, 1.0))


def test_import_leaves_scipy_optimize_out():
    # the solver and the quadrature are numpy only, so `import pconvex` stays
    # fast and small and scipy is no runtime dependency
    code = "import sys, pconvex; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


class TestFdDerivative:
    def test_first_order(self):
        assert fd_derivative(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-6)

    def test_second_order(self):
        assert fd_derivative(lambda x: x ** 3, 1.0, 2) == pytest.approx(6.0, abs=1e-4)

    def test_third_order(self):
        assert fd_derivative(math.exp, 0.0, 3) == pytest.approx(1.0, abs=1e-3)

    def test_fourth_order(self):
        assert fd_derivative(lambda x: x ** 4, 0.0, 4) == pytest.approx(24.0, abs=1e-2)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            fd_derivative(math.exp, 0.0, 5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_array_equals_per_point_calls(self, k):
        xs = np.random.default_rng(5).uniform(0.1, 3.0, size=(7, 3))
        for f in (lambda x: np.asarray(x) ** 3.4, math.exp):
            got = fd_derivative(f, xs, k)
            want = [fd_derivative(f, float(x), k) for x in xs.ravel()]
            assert got.shape == xs.shape
            assert got.ravel().tolist() == want

    @pytest.mark.parametrize("f, x", [
        (lambda x: x ** 2.5, 0.0),  # a Python float power of a negative base is complex
        (lambda x: np.emath.power(x, 2.5), np.array([0.0, 0.5])),  # a complex array
        (math.log, 0.0),  # math domain error (ValueError)
        (lambda x: 1.0 / x, 0.0),  # ZeroDivisionError at the centre of the stencil
    ], ids=["complex-float", "complex-array", "math-log", "zero-division"])
    def test_no_real_value_at_a_stencil_point_is_a_domain_error(self, f, x):
        with pytest.raises(DomainError, match="stencil point"):
            fd_derivative(f, x, 2)

    def test_library_errors_from_f_pass_through(self):
        def f(x):
            raise BracketError("from f")

        with pytest.raises(BracketError, match="from f"):
            fd_derivative(f, 1.0, 1)

    def test_nan_at_a_stencil_point_is_returned(self):
        with np.errstate(invalid="ignore"):
            got = fd_derivative(lambda x: np.sqrt(x), np.array([0.0, 1.0]), 1)
        assert math.isnan(got[0]) and got[1] == pytest.approx(0.5, abs=1e-8)


class TestIntegerArguments:
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 2.5, -0.5, "2", None])
    def test_order_must_be_an_integer(self, p):
        # int() truncated 2.5 to 2 and raised ValueError / OverflowError on nan / inf
        with pytest.raises(DomainError, match="order p must be an integer"):
            _order(p)

    @pytest.mark.parametrize("p", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_orders_accepted(self, p):
        assert type(_order(p)) is int and _order(p) == 2

    def test_least_order_kept(self):
        with pytest.raises(DomainError, match="order p must be >= 1, got 0"):
            _order(0.0)


class TestEvalNodesRejectsComplex:
    def test_complex_array(self):
        # it was cast to its real parts with a ComplexWarning
        f = lambda x: np.emath.sqrt(x - 0.5)
        with pytest.raises(DomainError, match=r"no real value at the points \(3 in"):
            _eval_nodes(f, np.array([0.0, 0.25, 1.0]))

    def test_numpy_complex_scalar_at_one_point(self):
        f = lambda x: np.emath.sqrt(x - 0.5)
        with pytest.raises(DomainError, match="no real value at the point x = 0.25"):
            _eval_nodes(f, 0.25)

    def test_real_values_become_floats(self):
        got = _eval_nodes(lambda x: np.asarray(x > 0.5), np.array([0.0, 1.0]))
        assert got.dtype == float and got.tolist() == [0.0, 1.0]


class TestProfiles:
    def test_equality_tolerances(self):
        # the clamp of invert_monotone and the support checks of the bounds
        assert (EQ_ABS, EQ_REL) == (1e-10, 1e-9)

    def test_quadrature_constants(self):
        # the one rule integrate() runs: 16 nodes per panel, 1e-10 absolute,
        # at most 12 doublings; the node table has 16 nodes
        assert (QUADRATURE_NODES, QUADRATURE_TOLERANCE, QUADRATURE_DOUBLINGS) == (16, 1e-10, 12)
        assert (type(QUADRATURE_NODES), type(QUADRATURE_DOUBLINGS)) == (int, int)
        assert [v.size for v in numerics._leggauss()] == [16, 16]


# ---------------------------------------------------------------------------
# Correctly rounded summation
# ---------------------------------------------------------------------------

_SUM_KINDS = ("spread", "narrow", "cancel", "zeros", "negative-zeros", "near-max", "special",
              "tie")


@st.composite
def _sum_arrays(draw, kinds=_SUM_KINDS) -> np.ndarray:
    """A float array of 0 to 3000 values, either side of FSUM_CROSSOVER:
    values from the subnormal range to 1e300 (spread, or all within two
    binades, which loads the pass sums most), exact cancellation in pairs
    v, -v, all 0.0 or all -0.0, values of 2^-16 to 1 times the float
    maximum, values with inf, -inf and NaN inserted, or values whose total
    lies on a midpoint between two floats or d 2^j off it (tie)."""
    n = draw(st.integers(0, 3000))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("zeros", "negative-zeros"):
        return np.full(n, 0.0 if kind == "zeros" else -0.0)
    if kind == "tie" and n:
        # k_i 2^(j + shift_i) with integers |k_i| < 2^52 and shift_0 = 0:
        # the exact total is K 2^j, and k_0 moves K onto the midpoint above
        # the float below it, plus d (up to 3 times 2^48 units of 2^j, so
        # the first pass's rounding bound is met on both sides)
        j = draw(st.integers(-1074, 880))
        shifts = np.r_[0, rng.integers(0, draw(st.integers(0, 40)) + 1, n - 1)]
        k = [int(x) for x in rng.integers(1 - 2 ** 52, 2 ** 52, n)]
        total = sum(ki << int(si) for ki, si in zip(k, shifts))
        unit = 1 << max(abs(total).bit_length() - 53, 0)
        d = draw(st.integers(-3, 3)) << draw(st.integers(0, 48))
        moved = k[0] + (total // unit) * unit + unit // 2 + d - total
        if abs(moved) < 2 ** 53:
            k[0] = moved
        return rng.permutation(np.ldexp(np.array(k, dtype=float), shifts + j))
    lo = draw(st.integers(-1080, 996))
    hi = lo + (draw(st.integers(0, 1)) if kind == "narrow" else draw(st.integers(0, 996 - lo)))
    signs = draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)]))
    v = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n)) * rng.choice(signs, n)
    if kind == "cancel":
        v = rng.permutation(np.concatenate([v[: n // 2], -v[: n // 2], v[: n % 2]]))
    elif kind == "near-max":
        # scaled by up to 2^-14, so sigma's overflow check is met on both sides
        scale = sys.float_info.max * 2.0 ** -draw(st.integers(0, 14))
        v = rng.choice(signs, n) * scale * rng.uniform(0.25, 1.0, n)
    elif kind == "special" and n:
        bad = draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                            min_size=1, max_size=3))
        v[rng.integers(0, n, len(bad))] = bad
    return v


def _bits_or_error(total) -> bytes | type:
    """The bytes of total() as a float, or the type of the error it raises."""
    try:
        return np.float64(total()).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestFsum:
    """numerics.fsum is math.fsum over the values as a list, bit for bit."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_sum_arrays())
    def test_same_bits_or_error_as_math_fsum(self, v):
        want = _bits_or_error(lambda: math.fsum(v.tolist()))
        assert _bits_or_error(lambda: numerics.fsum(v)) == want
        if isinstance(want, bytes) and np.isfinite(v).all():
            # an independent oracle: the exact rational sum, rounded once
            assert np.float64(float(sum(map(Fraction, v.tolist())))).tobytes() == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_sum_arrays(kinds=("tie",)))
    def test_totals_on_or_near_a_midpoint(self, v):
        assert _bits_or_error(lambda: numerics.fsum(v)) == \
            _bits_or_error(lambda: math.fsum(v.tolist()))

    def test_both_sides_of_the_crossover(self):
        rng = np.random.default_rng(3)
        for n in (numerics.FSUM_CROSSOVER - 1, numerics.FSUM_CROSSOVER, 5000):
            v = rng.lognormal(0.0, 3.0, n) ** 3
            assert numerics.fsum(v) == math.fsum(v.tolist()) == float(sum(map(Fraction, v)))

    def test_pass_sums_of_one_sign_and_binade(self):
        # the pass sums reach n / 2^m of sigma here; a sigma 4 times smaller
        # rounds them and misses math.fsum in about one array in four
        rng = np.random.default_rng(6)
        for _ in range(24):
            v = rng.uniform(1.0, 2.0, 3000) * rng.choice([1.0, -1.0])
            assert numerics.fsum(v) == math.fsum(v.tolist())

    @pytest.mark.parametrize("e", [1011, 1012, 1013])
    def test_largest_sigma(self, e):
        # 1500 values give 2^m = 2^11: sigma is 2^1023 for max |v| < 2^1012,
        # and above that it would overflow, so math.fsum takes the array
        v = np.ldexp(np.random.default_rng(e).uniform(-1.0, 1.0, 1500), e)
        assert numerics.fsum(v) == math.fsum(v.tolist())

    def test_certified_first_pass_needs_no_math_fsum(self, monkeypatch):
        # a sample's total is certain after the first pass, so the array
        # path returns before math.fsum; its speed rests on this exit
        v = np.random.default_rng(7).beta(2.0, 3.0, 5000)
        want = math.fsum(v.tolist())

        def refuse(values):
            raise AssertionError("math.fsum ran")

        monkeypatch.setattr(math, "fsum", refuse)
        assert numerics.fsum(v) == want

    def test_midpoint_falls_back_to_the_passes(self, monkeypatch):
        # 1 + 2^-53 is halfway between 1.0 and the float above, and rounds
        # to even: the first pass cannot certify it, the pass sums decide
        calls, real = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda parts: calls.append(parts) or real(parts))
        v = np.array([1.0, 2.0 ** -53] + [0.0] * 2000)
        assert numerics.fsum(v) == 1.0
        assert calls == [[1.0, 2.0 ** -53]]

    @pytest.mark.parametrize("big, c, a, want", [
        (1.0, -2.0 ** -54 + 2.0 ** -100, -2.0 ** -99, 1.0 - 2.0 ** -53),
        (1.5, 2.0 ** -53 - 2.0 ** -100, 2.0 ** -99, 1.5 + 2.0 ** -52),
    ], ids=["power-of-two", "within-binade"])
    def test_residual_sum_rounded_across_a_midpoint(self, big, c, a, want):
        # sigma = 2^10 extracts big whole and leaves the residual c, a, A
        # and -A; numpy's sum adds a into A, where it is lost to rounding
        # to even, so t = c misses 2^-99 of the residual's sum and big + t
        # lies just on the other side of a midpoint from the total.  Only
        # delta (and, for a power of two, the half gap toward zero) keeps
        # the first pass from certifying big.
        v = np.zeros(256)
        v[[0, 1, 2, 8, 16]] = 1.5 * 2.0 ** -46, big, c, a, -1.5 * 2.0 ** -46
        residual = np.where(v == big, 0.0, v)
        assert residual.sum() == c != c + a  # numpy's order drops a
        assert numerics.fsum(v) == math.fsum(v.tolist()) == want

    def test_input_is_left_unchanged(self):
        v = np.random.default_rng(4).uniform(-1.0, 1.0, 4000)
        kept = v.copy()
        numerics.fsum(v)
        np.testing.assert_array_equal(v, kept)

    @pytest.mark.parametrize("values, error", [
        ([sys.float_info.max] * 2048, OverflowError),
        ([math.inf] * 1500 + [-math.inf], ValueError),
    ])
    def test_errors_of_math_fsum(self, values, error):
        with pytest.raises(error):
            numerics.fsum(np.array(values))

    def test_nan_and_inf_totals(self):
        v = np.ones(2000)
        v[7] = math.inf
        assert numerics.fsum(v) == math.inf
        v[9] = math.nan
        assert math.isnan(numerics.fsum(v))

    def test_exact_cancellation_and_signed_zeros(self):
        v = np.random.default_rng(5).uniform(-1e3, 1e3, 1500)
        for values in (np.concatenate([v, -v[::-1]]), np.full(2000, -0.0)):
            assert _bits_or_error(lambda: numerics.fsum(values)) == \
                _bits_or_error(lambda: math.fsum(values.tolist()))


def _math_fsum_references(tree: ast.Module) -> list[ast.expr]:
    """Every math.fsum reference: an attribute of the math module under any
    name it is imported as, or a name imported from it."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.asname or alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "math"}
    names = {alias.asname or alias.name for node in imports
             if isinstance(node, ast.ImportFrom) and node.module == "math"
             for alias in node.names if alias.name == "fsum"}
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr == "fsum"
                and isinstance(node.value, ast.Name) and node.value.id in modules)]


def test_math_fsum_is_used_only_by_the_kernel():
    """Every correctly rounded sum in pconvex goes through numerics.fsum:
    math.fsum appears nowhere else, called or not."""
    users = set()
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in _math_fsum_references(tree):
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            users.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert users == {"numerics.fsum"}


def test_nothing_in_pconvex_takes_finite_differences():
    """fd_derivative has no caller in pconvex (every derivative comes from a
    jet), and no certificate condition says an order was differenced past a
    stack: that path is gone."""
    callers = set()
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "differenced" not in text, path.name
        tree = ast.parse(text, str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and "fd_derivative" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                continue
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            callers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert callers == set()
