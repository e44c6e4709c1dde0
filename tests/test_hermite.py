"""Integral-average sandwiches, fractional integrals, and cross-checks.

The fractional power identity
    I_{a+}^alpha (t-a)^q (x) = Gamma(q+1) (x-a)^(q+alpha) / Gamma(q+alpha+1)
is the main quadrature oracle here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pconvex.convexity import certify_p_convex
from pconvex.errors import CertificateError, DomainError, MonotonicityError
from pconvex.functions import exponential, polynomial, shifted_power
from pconvex.hermite import (
    abs_derivative,
    derivative_hh_bound,
    fractional_hh_bounds,
    fractional_mid_via_density,
    gamma_coefficient,
    hh_bounds,
    rl_integral,
    taylor_hh,
)
from pconvex.numerics import gamma, integrate

from conftest import certified_members


def _cert(f, order, a, b):
    cert = certify_p_convex(f, order, a, b)
    assert cert.passed, (f.label, cert.witness)
    return cert


class TestHHBounds:
    def test_cube_golden(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        rep = hh_bounds(f, _cert(f, 1, 0.0, 1.0), 2)
        assert rep.lower == pytest.approx(3.0 ** -1.5, abs=1e-9)
        assert rep.lower == pytest.approx(0.19245008972987523, abs=1e-9)
        assert rep.mid == pytest.approx(0.25, abs=1e-9)
        assert rep.upper == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.classical_lower == pytest.approx(0.125, abs=1e-12)
        assert rep.classical_upper == pytest.approx(0.5, abs=1e-12)
        # strictly tighter than classical on both sides
        assert rep.lower > rep.classical_lower
        assert rep.upper < rep.classical_upper

    def test_p1_reduces_to_classical(self):
        f = shifted_power(2.0, domain=(0.0, 1.0))
        rep = hh_bounds(f, _cert(f, 0, 0.0, 1.0), 1)
        assert rep.lower == pytest.approx(rep.classical_lower, abs=1e-12)
        assert rep.upper == pytest.approx(rep.classical_upper, abs=1e-12)

    def test_constant_function(self):
        f = polynomial([2.0], domain=(0.0, 1.0))
        rep = hh_bounds(f, _cert(f, 0, 0.0, 1.0), 1)
        assert rep.lower == pytest.approx(2.0, abs=1e-10)
        assert rep.mid == pytest.approx(2.0, abs=1e-10)
        assert rep.upper == pytest.approx(2.0, abs=1e-10)

    def test_sandwich_and_tightness_across_catalog(self):
        for p in (1, 2, 3):
            members = certified_members(p - 1) if p - 1 >= 1 else [
                (shifted_power(2.0, domain=(0.0, 1.0)), 0.0, 1.0),
                (shifted_power(3.0, domain=(0.0, 2.0)), 0.0, 2.0),
            ]
            for f, a, b in members:
                cert = certify_p_convex(f, p - 1, a, b)
                if not cert.passed:
                    continue
                rep = hh_bounds(f, cert, p)
                budget = 1e-7 + rep.mid_error
                assert rep.lower <= rep.mid + budget, (f.label, p)
                assert rep.mid <= rep.upper + budget, (f.label, p)
                assert rep.lower >= rep.classical_lower - 1e-9
                assert rep.upper <= rep.classical_upper + 1e-9

    def test_cert_order_must_match(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        with pytest.raises(CertificateError):
            hh_bounds(f, _cert(f, 1, 0.0, 1.0), 3)


class TestTaylorHH:
    def test_golden_p1(self):
        lo, mid, hi = taylor_hh(1, 1.0)
        assert lo == pytest.approx(math.exp(0.5) - 1.0, abs=1e-12)
        assert mid == pytest.approx(math.e - 2.0, abs=1e-12)
        assert hi == pytest.approx((math.e - 1.0) / 2.0, abs=1e-12)
        assert (lo, mid, hi) == pytest.approx(
            (0.6487212707001282, 0.7182818284590451, 0.8591409142295225), abs=1e-9)

    def test_golden_p2(self):
        lo, mid, hi = taylor_hh(2, 1.0)
        s = 3.0 ** -0.5
        assert lo == pytest.approx(math.exp(s) - 1.0 - s, abs=1e-12)
        assert mid == pytest.approx(math.e - 2.5, abs=1e-12)
        assert hi == pytest.approx((math.e - 2.0) / 3.0, abs=1e-12)
        assert lo <= mid <= hi

    def test_vanishes_at_origin(self):
        # all three slots vanish with b; the leading tail term is b^p-scale,
        # so the order-p slots sit at ~b^p/p! near the origin
        lo, mid, hi = taylor_hh(1, 1e-6)
        assert abs(lo) <= 1e-6 and abs(mid) <= 1e-6 and abs(hi) <= 1e-6
        for p in (2, 3):
            lo, mid, hi = taylor_hh(p, 1e-6)
            assert abs(lo) <= 1e-11 and abs(mid) <= 1e-11 and abs(hi) <= 1e-11

    def test_ordering_across_orders(self):
        for p in (1, 2, 3, 4):
            for b in (0.5, 1.0, 2.0):
                lo, mid, hi = taylor_hh(p, b)
                assert lo <= mid + 1e-12 <= hi + 1e-12

    def test_mid_matches_quadrature_of_previous_tail(self):
        # oracle: integral of T_{p-1} over [0, b] equals T_p(b)
        from pconvex.functions import exp_taylor_remainder
        from pconvex.numerics import integrate
        for p, b in ((1, 1.0), (2, 1.0), (3, 2.0)):
            _lo, mid, _hi = taylor_hh(p, b)
            quad = integrate(exp_taylor_remainder(p - 1).eval_fn, 0.0, b).value / b
            assert mid == pytest.approx(quad, abs=1e-9)


class TestDerivativeBound:
    def test_quartic_golden(self):
        f = polynomial([0.0, 0.0, 0.0, 0.0, 0.25], domain=(0.0, 1.0))  # x^4/4
        af = abs_derivative(f)  # x^3
        cert = _cert(af, 2, 0.0, 1.0)
        lhs, rhs = derivative_hh_bound(f, cert, 3)
        assert lhs == pytest.approx(0.075, abs=1e-9)
        assert rhs == pytest.approx(0.171875, abs=1e-9)
        assert lhs <= rhs

    def test_constant(self):
        f = polynomial([1.0], domain=(0.0, 1.0))
        af = abs_derivative(f)
        cert = _cert(af, 0, 0.0, 1.0)
        lhs, rhs = derivative_hh_bound(f, cert, 1)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_p1_coefficient_is_half(self):
        # c_1 = 2 (1 + 0.5) / (2 * 3) = 0.5 recovers the symmetric split
        f = shifted_power(2.0, domain=(0.0, 1.0))
        af = abs_derivative(f)
        cert = _cert(af, 0, 0.0, 1.0)
        _lhs, rhs = derivative_hh_bound(f, cert, 1)
        assert rhs == pytest.approx(0.25 * (0.5 * 0.0 + 0.5 * 2.0), abs=1e-12)

    def test_sign_change_rejected(self):
        f = polynomial([0.0, -1.0, 1.0], domain=(0.0, 1.0))  # x^2 - x
        with pytest.raises(MonotonicityError):
            abs_derivative(f)


class TestRLIntegral:
    def test_plain_integral(self):
        f = polynomial([1.0], domain=(0.0, 1.0))
        assert rl_integral(f, 1.0, "left", 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_constant_closed_form(self):
        # oracle: x^alpha / Gamma(alpha+1); at alpha=1/2, x=1 this is
        # 1/Gamma(1.5) = 2/sqrt(pi) = 1.1283791670955126
        f = polynomial([1.0], domain=(0.0, 1.0))
        got = rl_integral(f, 0.5, "left", 1.0)
        assert got == pytest.approx(1.0 / gamma(1.5), abs=1e-9)
        assert got == pytest.approx(1.1283791670955126, abs=1e-9)

    def test_identity_integrand(self):
        f = polynomial([0.0, 1.0], domain=(0.0, 1.0))
        assert rl_integral(f, 1.0, "left", 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_alpha_zero_identity_operator(self):
        f = shifted_power(3.0, domain=(0.0, 2.0))
        assert rl_integral(f, 0.0, "left", 1.3) == pytest.approx(1.3 ** 3, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_power_identity(self, q, alpha):
        # I_{a+}^alpha (t-a)^q (x) = Gamma(q+1) (x-a)^(q+alpha) / Gamma(q+alpha+1)
        a, x = 0.5, 1.75
        f = (polynomial([1.0], domain=(a, 2.0)) if q == 0
             else shifted_power(float(q), shift=a, domain=(a, 2.0)))
        want = gamma(q + 1.0) * (x - a) ** (q + alpha) / gamma(q + alpha + 1.0)
        got = rl_integral(f, alpha, "left", x, (a, 2.0))
        assert got == pytest.approx(want, rel=1e-8)

    def test_right_integral_mirror(self):
        # oracle: substitution t -> a+b-t maps right onto left for symmetric f
        f = polynomial([1.0], domain=(0.0, 1.0))
        left = rl_integral(f, 0.7, "left", 1.0, (0.0, 1.0))
        right = rl_integral(f, 0.7, "right", 0.0, (0.0, 1.0))
        assert left == pytest.approx(right, rel=1e-10)

    def test_domain_checks(self):
        f = polynomial([1.0], domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            rl_integral(f, 1.0, "left", 0.0)
        with pytest.raises(DomainError):
            rl_integral(f, 1.0, "right", 1.0)
        with pytest.raises(DomainError):
            rl_integral(f, -0.5, "left", 1.0)

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0),
                                          (0.0, math.nan), (1.0, 0.5)])
    def test_interval_must_be_finite_and_ordered(self, interval):
        # b = inf used to pass: the left integral only compared x <= b
        f = shifted_power(3.0, domain=(0.0, math.inf))
        with pytest.raises(DomainError, match="finite a < b"):
            rl_integral(f, 0.5, "left", 0.5, interval)


class TestGammaCoefficient:
    def test_order_one_is_half(self):
        for alpha in np.logspace(-3, 3, 30):
            assert gamma_coefficient(1, float(alpha)) == pytest.approx(0.5, abs=1e-12)

    def test_golden_two_one(self):
        assert gamma_coefficient(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_continuity_near_one(self):
        for eps in (1e-9, -1e-9):
            assert gamma_coefficient(2, 1.0 + eps) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_in_unit_interval(self):
        for p in (1, 2, 3, 5):
            for alpha in (0.1, 0.5, 1.0, 2.5, 7.0):
                g = gamma_coefficient(p, alpha)
                assert 0.0 < g <= 1.0


class TestFractionalHH:
    def test_p1_alpha_any_is_classical_fractional(self):
        f = shifted_power(2.0, domain=(0.0, 1.0))
        cert = _cert(f, 0, 0.0, 1.0)
        for alpha in (0.5, 1.0, 2.5):
            rep = fractional_hh_bounds(f, cert, 1, alpha)
            assert rep.lower == pytest.approx(0.25, abs=1e-12)
            assert rep.upper == pytest.approx(0.5, abs=1e-12)
            assert rep.lower <= rep.mid + 1e-9 <= rep.upper + 2e-9

    def test_alpha_one_matches_plain(self):
        for p in (1, 2, 3):
            f = shifted_power(float(p + 1), domain=(0.0, 1.0))
            cert = _cert(f, p - 1, 0.0, 1.0)
            plain = hh_bounds(f, cert, p)
            frac = fractional_hh_bounds(f, cert, p, 1.0)
            assert frac.lower == pytest.approx(plain.lower, abs=1e-9)
            assert frac.mid == pytest.approx(plain.mid, abs=1e-9)
            assert frac.upper == pytest.approx(plain.upper, abs=1e-9)

    def test_cube_alpha_one_golden(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        rep = fractional_hh_bounds(f, _cert(f, 1, 0.0, 1.0), 2, 1.0)
        assert rep.mid == pytest.approx(0.25, abs=1e-9)
        assert rep.lower == pytest.approx(0.19245008972987523, abs=1e-9)
        assert rep.upper == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_constant_function(self):
        f = polynomial([3.0], domain=(0.0, 1.0))
        cert = _cert(f, 0, 0.0, 1.0)
        rep = fractional_hh_bounds(f, cert, 1, 0.5)
        assert rep.lower == pytest.approx(3.0, abs=1e-9)
        assert rep.mid == pytest.approx(3.0, abs=1e-9)
        assert rep.upper == pytest.approx(3.0, abs=1e-9)

    def test_sandwich_sweep(self):
        for p in (1, 2, 3):
            f = shifted_power(float(p + 2), domain=(0.0, 1.5))
            cert = _cert(f, p - 1, 0.0, 1.5)
            for alpha in (0.5, 1.0, 1.5, 2.5):
                rep = fractional_hh_bounds(f, cert, p, alpha)
                assert rep.lower <= rep.mid + 1e-7, (p, alpha)
                assert rep.mid <= rep.upper + 1e-7, (p, alpha)

    def test_sandwich_across_certified_catalog(self):
        # full catalog x order x fractional order; nonnegative anchors only
        # (the fractional setting requires 0 <= a)
        for p in (2, 3):
            for f, a, b in certified_members(p - 1):
                if a < 0.0:
                    continue
                cert = certify_p_convex(f, p - 1, a, b)
                if not cert.passed:
                    continue
                for alpha in (0.5, 1.0, 1.5, 2.5):
                    rep = fractional_hh_bounds(f, cert, p, alpha)
                    assert rep.lower <= rep.mid + 1e-7, (f.label, p, alpha)
                    assert rep.mid <= rep.upper + 1e-7, (f.label, p, alpha)

    def test_mid_routes_agree(self):
        # operator sum vs expectation under the endpoint-weighted density
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = _cert(f, 1, 0.0, 1.0)
        for alpha in (0.5, 1.0, 1.5, 2.5):
            rep = fractional_hh_bounds(f, cert, 2, alpha)
            via_density = fractional_mid_via_density(f, 0.0, 1.0, alpha)
            assert rep.mid == pytest.approx(via_density, abs=1e-7), alpha

    def test_negative_left_endpoint_rejected(self):
        f = shifted_power(2.0, shift=-1.0, domain=(-1.0, 1.0))
        cert = certify_p_convex(f, 0, -1.0, 1.0)
        assert cert.passed
        with pytest.raises(DomainError):
            fractional_hh_bounds(f, cert, 1, 0.5)


def test_rl_integral_converges_for_small_alpha_and_large_integrand():
    # |integral| up to ~700 against the 1e-10 absolute bar: the graded rule
    # is accepted within two doublings, even at alpha = 0.05
    b = 2.49
    f = shifted_power(4.0, domain=(0.0, b))
    for alpha in (0.2, 0.05):
        assert integrate(f.eval_fn, 0.0, b, right=alpha).refinements <= 2
        assert integrate(f.eval_fn, 0.0, b, left=alpha).refinements <= 2
        left = rl_integral(f, alpha, "left", b, (0.0, b))
        right = rl_integral(f, alpha, "right", 0.0, (0.0, b))
        assert left == pytest.approx(
            math.gamma(5) * b ** (4 + alpha) / math.gamma(5 + alpha), rel=1e-10)
        assert right == pytest.approx(
            b ** (4 + alpha) / ((4 + alpha) * math.gamma(alpha)), rel=1e-10)


@pytest.mark.parametrize("side", ["left", "right"])
def test_rl_integral_converges_for_integrals_far_above_one(side):
    # |integral| above 1e6: two sums of that size differ by their
    # rounding, above the 1e-10 absolute bar, so only the stopping rule's
    # rounding floor accepts them
    mpmath = pytest.importorskip("mpmath")
    for b, alpha in ((40.0, 0.5), (40.0, 0.05)):
        f = shifted_power(4.0, domain=(0.0, b))
        want = (math.gamma(5) * b ** (4 + alpha) / math.gamma(5 + alpha) if side == "left"
                else b ** (4 + alpha) / ((4 + alpha) * math.gamma(alpha)))
        got = (rl_integral(f, alpha, "left", b, (0.0, b)) if side == "left"
               else rl_integral(f, alpha, "right", 0.0, (0.0, b)))
        assert got == pytest.approx(want, rel=1e-13)
    b, alpha = 30.0, 2.5
    f = exponential(0.7, domain=(0.0, b))
    with mpmath.workdps(30):
        if side == "left":
            got = rl_integral(f, alpha, "left", b, (0.0, b))
            want = mpmath.quad(lambda t: (b - t) ** (alpha - 1) * mpmath.exp(0.7 * t), [0, b])
        else:
            got = rl_integral(f, alpha, "right", 0.0, (0.0, b))
            want = mpmath.quad(lambda t: t ** (alpha - 1) * mpmath.exp(0.7 * t), [0, b])
        want = float(want / mpmath.gamma(alpha))
    assert got == pytest.approx(want, rel=1e-13)
