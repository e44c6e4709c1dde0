"""Certification soundness, anti-soundness, and refinement stability."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from pconvex.convexity import (
    certify_loss_class,
    certify_p_concave,
    certify_p_convex,
    check_power_transform_convex,
    check_ratio_monotone,
)
from pconvex.errors import DomainError
from pconvex.functions import (
    exp_taylor_remainder,
    exponential,
    log_affine,
    numeric_function,
    polynomial,
    shifted_power,
    taylor_remainder,
)
from pconvex.numerics import ToleranceProfile

from conftest import certified_members


class TestLeftAnchoredClass:
    def test_square_passes_order_one(self):
        cert = certify_p_convex(shifted_power(2.0, domain=(0.0, 1.0)), 1, 0.0, 1.0)
        assert cert.passed
        assert cert.witness is None

    def test_identity_fails_with_boundary_witness(self):
        cert = certify_p_convex(shifted_power(1.0, domain=(0.0, 1.0)), 1, 0.0, 1.0)
        assert not cert.passed
        assert cert.witness is not None
        assert cert.witness.point == 0.0
        assert "boundary" in cert.witness.condition
        assert cert.witness.margin < -cert.slack_used

    def test_exp_tail_passes_its_own_order(self):
        f = taylor_remainder(exponential(1.0, domain=(0.0, 3.0)), 2)
        cert = certify_p_convex(f, 2, 0.0, 3.0)
        assert cert.passed

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_catalog_soundness(self, p):
        for f, a, b in certified_members(p):
            cert = certify_p_convex(f, p, a, b)
            assert cert.passed, (f.label, p, cert.witness)

    def test_plain_convexity_order_zero(self):
        assert certify_p_convex(shifted_power(2.0, domain=(0.0, 1.0)), 0, 0.0, 1.0).passed
        concave = polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))  # x - x^2
        cert = certify_p_convex(concave, 0, 0.0, 1.0)
        assert not cert.passed

    def test_membership_inherits_downward_for_powers(self):
        # (x-a)^q certifies at every order k <= p when q >= p + 1
        p = 3
        f = shifted_power(p + 1.0, domain=(0.0, 1.0))
        for k in range(1, p + 1):
            assert certify_p_convex(f, k, 0.0, 1.0).passed, k

    def test_verdict_stable_under_grid_refinement(self):
        for p in (1, 2):
            for f, a, b in certified_members(p):
                coarse = certify_p_convex(f, p, a, b, grid_size=256)
                fine = certify_p_convex(f, p, a, b, grid_size=4096)
                assert coarse.verdict == fine.verdict == "pass", f.label
        bad = shifted_power(1.0, domain=(0.0, 1.0))
        assert certify_p_convex(bad, 1, 0.0, 1.0, grid_size=256).verdict == \
            certify_p_convex(bad, 1, 0.0, 1.0, grid_size=4096).verdict == "fail"

    def test_numeric_provenance_widens_slack(self):
        f = numeric_function(lambda x: x * x, (0.0, 1.0), label="sq")
        cert = certify_p_convex(f, 1, 0.0, 1.0, grid_size=128)
        assert cert.derivative_provenance == "numeric"
        assert cert.slack_used == pytest.approx(1e-5)
        assert cert.passed

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            certify_p_convex(shifted_power(2.0), 1, 1.0, 0.0)


class TestRightAnchoredClass:
    def test_log_affine_passes(self):
        f = log_affine(0.6)
        cert = certify_p_concave(f, 1, f.domain[0], 0.6)
        assert cert.passed

    def test_square_fails_at_right_boundary(self):
        cert = certify_p_concave(shifted_power(2.0, domain=(0.0, 1.0)), 1, 0.0, 1.0)
        assert not cert.passed
        assert cert.witness.point == 1.0

    def test_negated_reflected_square_passes(self):
        b = 1.0
        f = polynomial([-b * b, 2.0 * b, -1.0], domain=(0.0, b))  # -(b - x)^2
        cert = certify_p_concave(f, 1, 0.0, b)
        assert cert.passed

    def test_alternating_signs_enforced(self):
        # x^3 is convex on [0,1]: f'' >= 0 breaks the concave pattern
        f = polynomial([0.0, 1.0, 0.0, 1.0], domain=(0.0, 1.0))
        cert = certify_p_concave(f, 1, 0.0, 1.0)
        assert not cert.passed

    def test_numeric_provenance_via_differences(self):
        import math
        b = 0.6
        f = numeric_function(lambda x: math.log(x) - x / b, (1e-3, b),
                             label="numeric-log-affine")
        cert = certify_p_concave(f, 1, 1e-3, b, grid_size=128)
        assert cert.derivative_provenance == "numeric"
        assert cert.passed, cert.witness
        g = numeric_function(lambda x: x * x, (0.0, 1.0), label="numeric-square")
        assert not certify_p_concave(g, 1, 0.0, 1.0, grid_size=128).passed


class TestLossClass:
    def test_power_achiever_is_tight(self):
        for p in (1, 2, 3):
            l = shifted_power(p + 1.0, domain=(0.0, 10.0))
            cert = certify_loss_class(l, p, 10.0)
            assert cert.passed
            assert cert.margins["curvature l''(x)x - p l'(x)>=0"] == pytest.approx(0.0, abs=1e-9)

    def test_square_fails_order_two(self):
        cert = certify_loss_class(shifted_power(2.0, domain=(0.0, 10.0)), 2, 10.0)
        assert not cert.passed
        assert "curvature" in cert.witness.condition

    def test_cube_passes_order_two_with_default_strictness(self):
        cert = certify_loss_class(shifted_power(3.0, domain=(0.0, 10.0)), 2, 10.0)
        assert cert.passed

    def test_cube_fails_under_strict_reading(self):
        cert = certify_loss_class(shifted_power(3.0, domain=(0.0, 10.0)), 2, 10.0,
                                  strictness=1e-6)
        assert not cert.passed


class TestPowerTransform:
    def test_affine_case(self):
        f = shifted_power(2.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        assert check_power_transform_convex(f, cert).passed

    def test_three_halves_case(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        assert check_power_transform_convex(f, cert).passed

    def test_quartic_at_order_three(self):
        f = shifted_power(4.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 3, 0.0, 1.0)
        assert check_power_transform_convex(f, cert).passed

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_catalog_wide(self, p):
        for f, a, b in certified_members(p):
            cert = certify_p_convex(f, p, a, b)
            assert check_power_transform_convex(f, cert).passed, f.label

    def test_requires_passing_certificate(self):
        f = shifted_power(1.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            check_power_transform_convex(f, cert)


class TestRatioMonotone:
    def test_cube_over_square(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        assert check_ratio_monotone(f, cert).passed

    def test_boundary_constant_ratio(self):
        f = shifted_power(2.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        assert check_ratio_monotone(f, cert).passed

    def test_exp_tail(self):
        f = exp_taylor_remainder(2, domain=(0.0, 3.0))
        cert = certify_p_convex(f, 2, 0.0, 3.0)
        assert check_ratio_monotone(f, cert).passed

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_catalog_wide(self, p):
        for f, a, b in certified_members(p):
            cert = certify_p_convex(f, p, a, b)
            assert check_ratio_monotone(f, cert).passed, f.label


def _half_nan(x):
    return x ** 3 if x < 0.5 else math.nan


def _nan_coefficient():
    """The stack polynomial([0, 0, nan]) had before constructors rejected
    non-finite parameters: NaN through f'', zero beyond."""
    base = polynomial([0.0, 0.0, 1.0], domain=(0.0, 1.0))
    nan = lambda g: (lambda x: np.asarray(g(x)) * math.nan)
    return dataclasses.replace(
        base, eval_fn=nan(base.eval_fn),
        derivatives=tuple(map(nan, base.derivatives[:2])) + base.derivatives[2:])


_SQUARE_CERT = certify_p_convex(shifted_power(2.0, domain=(0.0, 1.0)), 1, 0.0, 1.0)

# producer -> (call, failing input); every producer certifies on [0, 1]
_PRODUCERS = {
    "p_convex": (lambda f, **kw: certify_p_convex(f, 1, 0.0, 1.0, **kw),
                 polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
    "p_concave": (lambda f, **kw: certify_p_concave(f, 1, 0.0, 1.0, **kw),
                  shifted_power(2.0, domain=(0.0, 1.0))),
    "loss_class": (lambda f, **kw: certify_loss_class(f, 1, 1.0, **kw),
                   shifted_power(1.0, domain=(0.0, 1.0))),
    "power_transform": (lambda f, **kw: check_power_transform_convex(f, _SQUARE_CERT, **kw),
                        polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
    "ratio": (lambda f, **kw: check_ratio_monotone(f, _SQUARE_CERT, **kw),
              polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
}


class TestFailClosed:
    """Every producer shares one verdict rule: NaN or a non-finite margin
    fails, an infinite slack is rejected, and grids need two cells."""

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    @pytest.mark.parametrize("f", [
        _nan_coefficient(),
        numeric_function(_half_nan, (0.0, 1.0), label="half-nan"),
    ], ids=["nan-coefficient", "nan-on-half"])
    def test_nan_fails_with_witness(self, name, f):
        producer, _ = _PRODUCERS[name]
        try:
            cert = producer(f, grid_size=64)
        except DomainError:
            assert name == "ratio"  # f(a) = 0 is its precondition
            return
        assert not cert.passed
        assert not math.isfinite(cert.witness.margin)
        assert not math.isfinite(cert.margins[cert.witness.condition])

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    def test_infinite_slack_rejected(self, name):
        producer, failing = _PRODUCERS[name]
        assert not producer(failing, grid_size=64).passed
        with pytest.raises(DomainError):
            producer(failing, grid_size=64,
                     tolerances=ToleranceProfile(certify_slack=math.inf))

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_grid_needs_two_cells(self, name, grid_size):
        producer, failing = _PRODUCERS[name]
        with pytest.raises(DomainError):
            producer(failing, grid_size=grid_size)

    def test_inf_at_a_grid_point_stays_admissible(self):
        # f^(3) of x^2.5 is +inf at the anchor; the minimum margin is finite
        cert = certify_p_convex(shifted_power(2.5, domain=(0.0, 1.0)), 1, 0.0, 1.0)
        assert cert.passed
