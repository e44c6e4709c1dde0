"""Kernel-level tests: gamma, quadrature, norms, inversion, finite differences.

Golden values are frozen from independent oracles: mpmath at 30 digits for
the gamma function, closed-form antiderivatives for quadrature, and algebraic
identities for the rest.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    RangeOverflowError,
)
from pconvex.numerics import (
    QuadraturePlan,
    ToleranceProfile,
    fd_derivative,
    gamma,
    integrate,
    integrate_jacobi,
    invert_monotone,
    log_gamma,
    pnorm_shifted,
)


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
        plan = QuadraturePlan(abs_tolerance=1e-13, max_refinements=0)
        rough = lambda x: np.abs(np.sin(50.0 * x)) ** 0.3
        with pytest.raises(ConvergenceError) as err:
            integrate(rough, 0.0, 3.0, plan)
        assert math.isfinite(err.value.best_estimate)


_RULES = {
    "gauss-legendre": lambda f, plan: integrate(f, 0.0, 2.0, plan),
    "gauss-jacobi": lambda f, plan: integrate_jacobi(f, 0.0, 2.0, 0.5, "left", plan),
}


class TestStoppingRule:
    """Both rules stop on the first doubling step within their threshold."""

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_no_refinement_always_raises(self, rule):
        # a quadratic is exact on the first estimate, yet it is not accepted
        # until a doubling step has confirmed it
        with pytest.raises(ConvergenceError) as err:
            _RULES[rule](lambda x: x * x, QuadraturePlan(max_refinements=0))
        assert math.isfinite(err.value.best_estimate)
        assert err.value.error_estimate == math.inf

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_error_estimate_is_last_step(self, rule):
        f = lambda x: np.cos(7.0 * x)
        plan = QuadraturePlan(node_count=4)
        res = _RULES[rule](f, plan)
        assert res.refinements >= 1
        # one doubling fewer stops short and reports the previous estimate
        with pytest.raises(ConvergenceError) as err:
            _RULES[rule](f, QuadraturePlan(node_count=4, max_refinements=res.refinements - 1))
        assert res.error_estimate == abs(res.value - err.value.best_estimate)


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

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            integrate_jacobi(lambda t: t, 0.0, 1.0, 0.0, "left")
        with pytest.raises(DomainError):
            integrate_jacobi(lambda t: t, 0.0, 1.0, 1.0, "middle")


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


class TestInvertMonotone:
    def test_square(self):
        assert invert_monotone(lambda x: x * x, 4.0, (0.0, 10.0)) == pytest.approx(2.0, abs=1e-10)

    def test_cube(self):
        assert invert_monotone(lambda x: x ** 3, 0.125, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_expm1(self):
        x = invert_monotone(lambda x: math.exp(x) - 1.0, math.e - 1.0, (0.0, 2.0))
        assert x == pytest.approx(1.0, abs=1e-12)

    def test_bracket_expansion(self):
        x = invert_monotone(lambda x: x ** 3 + x, 10.0, None)
        assert x ** 3 + x == pytest.approx(10.0, abs=1e-9)

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            invert_monotone(lambda x: x, 5.0, (0.0, 1.0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.01, max_value=50.0),
           st.integers(min_value=1, max_value=6))
    def test_roundtrip_powers(self, x, q):
        f = lambda t: t ** q
        recovered = invert_monotone(f, f(x), (0.0, 64.0))
        assert recovered == pytest.approx(x, rel=1e-10, abs=1e-10)


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


class TestProfiles:
    def test_tolerance_positivity(self):
        with pytest.raises(DomainError):
            ToleranceProfile(eq_abs=0.0)

    def test_plan_validation(self):
        with pytest.raises(DomainError):
            QuadraturePlan(node_count=1)
