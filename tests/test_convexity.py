"""Certification soundness, anti-soundness, and refinement stability."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex import functions
from pconvex.convexity import (
    ConvexityCertificate,
    certify_loss_class,
    certify_p_concave,
    certify_p_convex,
    check_power_transform_convex,
    check_ratio_monotone,
)
from pconvex.distributions import (
    discrete,
    expect,
    from_sample,
    sample_mc,
    shifted_moment,
)
from pconvex.errors import CertificateError, DerivativeOrderError, DomainError, PconvexError
from pconvex.functions import (
    derivative_function,
    exp_taylor_remainder,
    exponential,
    function_from_descriptor,
    log_affine,
    numeric_function,
    polynomial,
    shifted_power,
    taylor_remainder,
)
from pconvex.hermite import taylor_hh
from pconvex.mgf import em_demo, generate_mixture_data
from pconvex.numerics import fd_derivative, pnorm_shifted
from pconvex.risk import (
    RiskMeasureReport,
    certify_p_more_risk_averse,
    falsify_p_more_risk_averse,
    risk_measure,
)

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


class TestPastTheAnalyticStack:
    """No spec has an order past its jet: a certificate that needs one
    raises DerivativeOrderError.  A numeric function's jet is finite
    differences kept inside its domain, one fd_derivative call per order."""

    @staticmethod
    def _fd_calls(monkeypatch) -> list:
        calls = []
        real = functions.fd_derivative

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(functions, "fd_derivative", counting)
        return calls

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_risk_comparison_takes_no_finite_differences(self, monkeypatch, p):
        # each such call differenced a map whose every point is an inversion
        calls = self._fd_calls(monkeypatch)
        certify_p_more_risk_averse(shifted_power(4.0, domain=(0.0, 50.0)),
                                   shifted_power(2.0, domain=(0.0, 50.0)), p, 10.0, 256)
        assert len(calls) == 0

    def test_numeric_function_differences_inside_its_domain(self, monkeypatch):
        # one call for the anchor's order 1, one per grid order, each on [0, 1]
        calls = self._fd_calls(monkeypatch)
        f = numeric_function(lambda x: x * x, (0.0, 1.0), label="sq")
        cert = certify_p_convex(f, 1, 0.0, 1.0, 64)
        assert [(k, interval) for _, _, k, interval in calls] == [(1, (0.0, 1.0)),
                                                                  (2, (0.0, 1.0)),
                                                                  (3, (0.0, 1.0))]
        assert list(cert.margins) == ["boundary f^(1)(a)=0", "increasing f^(2)>=0",
                                      "convexity f^(3)>=0"]
        assert cert.passed
        assert cert.margins["increasing f^(2)>=0"] == pytest.approx(2.0, abs=1e-8)
        assert abs(cert.margins["convexity f^(3)>=0"]) <= 1e-6

    def test_risk_comparison_is_analytic_to_order_three(self):
        # the inverse composition's jet reaches every order of the p = 2
        # certificate; its f^(3) is 0 up to the rounding of its terms
        cert = certify_p_more_risk_averse(shifted_power(4.0, domain=(0.0, 50.0)),
                                          shifted_power(2.0, domain=(0.0, 50.0)), 2,
                                          10.0).certificate
        assert cert.passed and not any("differenced" in c for c in cert.margins)
        assert abs(cert.margins["convexity f^(3)>=0"]) <= 1e-9

    @staticmethod
    def _solves(monkeypatch) -> list:
        """(targets, evaluations of f) of each inverse-composition solve."""
        solves = []
        real = functions.invert_monotone

        def counting(f, y, *args, **kwargs):
            solves.append([np.size(y), 0])

            def rows(x, lo, hi):
                solves[-1][1] += 1
                return f.derivatives_on(x, lo, hi)

            counted = functions.FunctionSpec(label=f.label, domain=f.domain,
                                             jet=functions.Jet(rows, 1))
            return real(counted, y, *args, **kwargs)

        monkeypatch.setattr(functions, "invert_monotone", counting)
        return solves

    def test_risk_comparison_solves_its_grid_once(self, monkeypatch):
        # at p = 2 the anchor f^(1)(a) at one point, then f^(2) and f^(3)
        # from one jet on the 257-point grid; at p = 1 there is no anchor
        # condition, so no solve for it.  The anchor's target is the first
        # table value, so its solve evaluates nothing (it took 13 calls of f
        # from the 1e-9 clamp point before the anchors were leading terms)
        solves = self._solves(monkeypatch)
        quartic, square = (shifted_power(q, domain=(0.0, 50.0)) for q in (4.0, 2.0))
        comp = certify_p_more_risk_averse(quartic, square, 2, 10.0, 256)
        assert comp.holds
        assert solves == [[1, 0], [257, 3]]
        solves.clear()
        comp = certify_p_more_risk_averse(square, square, 1, 10.0, 256)
        assert comp.holds
        assert solves == [[257, 3]]

    @pytest.mark.parametrize("q_l, q_f, p, evaluations", [(4.0, 2.0, 2, [[1, 0], [257, 3]]),
                                                          (2.0, 4.0, 1, [[257, 3]])],
                             ids=["4.0-2.0-2-3", "2.0-4.0-1-3"])
    def test_criterion_six_solves_in_table_cells(self, q_l, q_f, p, evaluations, monkeypatch):
        # each target is solved in the cell of f's 257-point table that
        # brackets it, with the cell's end values from the table, by Newton
        # steps from the jet: (targets, jet calls) of each solve.  Over the
        # whole range [0, 10] the bracketing steps that came before took 23
        # (anchor and grid) and 18 evaluations of f, in cells whose ends
        # were evaluated 15 and 10, and in cells with their end values 13
        # and 8
        solves = self._solves(monkeypatch)
        comp = certify_p_more_risk_averse(shifted_power(q_l, domain=(0.0, 50.0)),
                                          shifted_power(q_f, domain=(0.0, 50.0)), p, 10.0, 256)
        assert comp.holds == (p == 2)
        assert solves == evaluations

    @pytest.mark.parametrize("certify, p, orders", [
        (certify_p_convex, 0, 1), (certify_p_convex, 1, 2), (certify_p_convex, 2, 2),
        (certify_p_concave, 1, 3), (certify_p_concave, 2, 4)])
    def test_differenced_orders_share_one_grid_evaluation(self, certify, p, orders,
                                                           monkeypatch):
        # every grid order of a numeric spec comes from one call of its jet
        sizes = []
        real = functions.FunctionSpec.derivatives_on

        def counting(f, xs, lo, hi):
            sizes.append((np.size(xs), hi - lo + 1))
            return real(f, xs, lo, hi)

        monkeypatch.setattr(functions.FunctionSpec, "derivatives_on", counting)
        cert = certify(numeric_function(lambda x: np.asarray(x) ** 2, (0.0, 1.0)),
                       p, 0.0, 1.0, 64)
        assert len(cert.margins) == p + orders
        assert [n for n, _ in sizes].count(65) == 1
        assert (65, orders) in sizes

    def test_differenced_orders_share_their_analytic_entry(self):
        # orders 2 and 3 of a spec with only f' on its stack were forward
        # differences of f' on the grid; past its stack a spec now raises
        def d1(x):
            return 3.0 * np.asarray(x, dtype=float) ** 2

        f = dataclasses.replace(shifted_power(3.0, domain=(0.0, 1.0)), derivatives=(d1,),
                                provenance="mixed")
        with pytest.raises(DerivativeOrderError, match="outside its stack 0..1"):
            certify_p_convex(f, 1, 0.0, 1.0, 64)

    def test_numeric_verdict_does_not_depend_on_the_grid(self):
        # forward differences of a numeric spec on the grid lost accuracy as
        # eps / h^k: this true member failed at n = 16384 with margin -224
        f = numeric_function(lambda x: math.exp(x) - 1 - x - x * x / 2, (0.0, 1.0))
        certs = [certify_p_convex(f, 2, 0.0, 1.0, n) for n in (1024, 4096, 16384)]
        assert all(c.passed and c.margins == certs[0].margins for c in certs)
        for name in ("increasing f^(3)>=0", "convexity f^(4)>=0"):  # true minimum 1, at 0
            assert abs(certs[0].margins[name] - 1.0) <= 1e-4

    def test_risk_comparison_past_the_composed_jet_raises(self):
        # the composition's jet has depth 8 and p = 8 reads order 9
        with pytest.raises(DerivativeOrderError):
            certify_p_more_risk_averse(shifted_power(18.0, domain=(0.0, 50.0)),
                                       shifted_power(2.0, domain=(0.0, 50.0)), 8, 10.0, 256)


class TestLossClass:
    def test_slack_is_relative_to_the_curvature_terms(self):
        # x^4 at p = 3 has curvature 12 x^3 - 3 (4 x^3) = 0; at horizon 1000/3
        # its rounding residue, -5.96e-8 against terms near 1e8, failed the
        # absolute slack.  x^3 at p = 3 is a true non-member
        assert certify_loss_class(shifted_power(4.0, domain=(0.0, math.inf)), 3,
                                  1000.0 / 3.0, 256).passed
        cert = certify_loss_class(shifted_power(3.0, domain=(0.0, math.inf)), 3,
                                  1000.0 / 3.0, 256)
        assert not cert.passed and cert.witness.condition.startswith("curvature")

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


def _stacked(*members):
    """One FunctionSpec evaluating every member at every point, one row each."""
    def at(k):
        return lambda x: np.stack([m.eval_on(x, k) for m in members])

    return dataclasses.replace(members[0], label="stacked", eval_fn=at(0),
                               derivatives=tuple(at(k) for k in range(1, 6)))


class TestStackedLossClass:
    """A stacked family passes when every member does, on the members' margins."""

    @pytest.mark.parametrize("qs, p", [((3.0, 4.0), 2), ((2.0, 3.0, 5.0), 2),
                                       ((4.0, 2.0), 2), ((3.0, 1.0), 1)])
    def test_margins_are_the_members_minima(self, qs, p):
        members = [shifted_power(q, domain=(0.0, 10.0)) for q in qs]
        certs = [certify_loss_class(m, p, 10.0, 64) for m in members]
        family = certify_loss_class(_stacked(*members), p, 10.0, 64)
        assert family.passed == all(c.passed for c in certs)
        for condition, margin in family.margins.items():
            assert margin == min(c.margins[condition] for c in certs)
        if not family.passed:
            worst = min((c for c in certs if not c.passed), key=lambda c: c.witness.margin)
            assert family.witness == worst.witness


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
        with pytest.raises(CertificateError):
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


def _corroborated(check):
    """A corroboration check of the square's certificate; it reads the grid
    from the certificate, so a grid_size given goes there."""
    return lambda f, **kw: check(f, dataclasses.replace(_SQUARE_CERT, **kw))


# producer -> (call, failing input); every producer certifies on [0, 1]
_PRODUCERS = {
    "p_convex": (lambda f, **kw: certify_p_convex(f, 1, 0.0, 1.0, **kw),
                 polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
    "p_concave": (lambda f, **kw: certify_p_concave(f, 1, 0.0, 1.0, **kw),
                  shifted_power(2.0, domain=(0.0, 1.0))),
    "loss_class": (lambda f, **kw: certify_loss_class(f, 1, 1.0, **kw),
                   shifted_power(1.0, domain=(0.0, 1.0))),
    "power_transform": (_corroborated(check_power_transform_convex),
                        polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
    "ratio": (_corroborated(check_ratio_monotone),
              polynomial([0.0, 1.0, -1.0], domain=(0.0, 1.0))),
}


# the producers a caller gives a slack, each with an input it fails; the
# corroboration checks take theirs from the certificate they check
_SLACK_TAKERS = {
    **{name: _PRODUCERS[name] for name in ("loss_class", "p_concave", "p_convex")},
    "more_risk_averse": (
        lambda l, **kw: certify_p_more_risk_averse(
            l, shifted_power(4.0, domain=(0.0, 50.0)), 1, 10.0, **kw).certificate,
        shifted_power(2.0, domain=(0.0, 50.0))),
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

    @pytest.mark.parametrize("name", sorted(_SLACK_TAKERS))
    def test_infinite_slack_rejected(self, name):
        producer, failing = _SLACK_TAKERS[name]
        assert not producer(failing, grid_size=64).passed
        with pytest.raises(DomainError, match="slack must be positive and finite"):
            producer(failing, grid_size=64, slack=math.inf)

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_grid_needs_two_cells(self, name, grid_size):
        producer, failing = _PRODUCERS[name]
        with pytest.raises(DomainError):
            producer(failing, grid_size=grid_size)

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    @pytest.mark.parametrize("grid_size", [math.nan, math.inf, 10.5, "64"])
    def test_grid_size_must_be_an_integer(self, name, grid_size):
        # nan, inf and 10.5 reached np.linspace and raised TypeError
        producer, failing = _PRODUCERS[name]
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            producer(failing, grid_size=grid_size)

    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    def test_integral_float_grid_size_is_the_integer(self, name):
        producer, failing = _PRODUCERS[name]
        cert = producer(failing, grid_size=64.0)
        assert type(cert.grid_size) is int and cert == producer(failing, grid_size=64)

    def test_complex_values_of_a_numeric_function_rejected(self):
        # the grid values were cast to their real parts, and the certificate passed
        f = numeric_function(lambda x: np.emath.sqrt(x - 0.5) ** 3, (0.0, 1.0))
        with pytest.raises(DomainError, match="no real value"):
            certify_p_convex(f, 0, 0.0, 1.0, 64)

    def test_stencil_outside_a_numeric_domain_rejected(self):
        # the anchor's central stencil reached -h, where x ** 2.5 is complex;
        # now no stencil leaves the domain and x ** 2.5 passes as x^2.5 does
        seen = []

        def f(x):
            seen.append(np.ravel(x))
            return x ** 2.5

        cert = certify_p_convex(numeric_function(f, (0.0, 1.0)), 1, 0.0, 1.0, 64)
        seen = np.concatenate(seen)
        assert 0.0 <= seen.min() and seen.max() <= 1.0
        assert cert.passed
        assert certify_p_convex(shifted_power(2.5, domain=(0.0, 1.0)), 1, 0.0, 1.0, 64).passed

    def test_inf_at_a_grid_point_stays_admissible(self):
        # f^(3) of x^2.5 is +inf at the anchor; the minimum margin is finite
        cert = certify_p_convex(shifted_power(2.5, domain=(0.0, 1.0)), 1, 0.0, 1.0)
        assert cert.passed

    @pytest.mark.parametrize("certify", [certify_p_convex, certify_p_concave],
                             ids=["I", "D"])
    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
                                      (-math.inf, 1.0)])
    def test_non_finite_interval_rejected(self, certify, a, b):
        # linspace over an infinite end is a NaN grid, which passed as a verdict
        f = shifted_power(3.0, domain=(0.0, math.inf))
        with pytest.raises(DomainError, match="finite"):
            certify(f, 1, a, b)

    @pytest.mark.parametrize("certify", [certify_p_convex, certify_p_concave],
                             ids=["I", "D"])
    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (-0.5, 1.0), (-1.0, -0.5)])
    def test_interval_outside_the_domain_rejected(self, certify, a, b):
        with pytest.raises(DomainError, match="leaves the domain"):
            certify(shifted_power(3.0, domain=(0.0, 1.0)), 1, a, b)

    def test_horizon_without_a_point_above_the_cutoff_rejected(self):
        # the positivity checks had no points, and argmin raised ValueError
        with pytest.raises(DomainError, match="no grid point above"):
            certify_loss_class(shifted_power(2.0, domain=(0.0, math.inf)), 1, 1e-300)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            certify_loss_class(shifted_power(2.0, domain=(0.0, math.inf)), 1, horizon)


@pytest.mark.parametrize("fn", [lambda x: math.log(x) - x, _half_nan],
                         ids=["math-log", "half-nan"])
def test_scalar_only_numeric_function_matches_per_point_calls(fn):
    """A callable that rejects arrays is looped by the adapter, so every
    array path gives what per-point calls give, bit for bit."""
    f = numeric_function(fn, (0.1, 1.0))
    xs = np.linspace(0.1, 1.0, 17)
    for k in range(3):
        want = [float(fn(x)) for x in xs] if k == 0 else \
            [f.eval_on(float(x), k) for x in xs]
        np.testing.assert_array_equal(f.eval_on(xs, k), want)
    probs = np.full(xs.size, 1.0 / xs.size)
    discrete_want = math.fsum(p * fn(x) for x, p in zip(xs, probs))
    sample_want = math.fsum(fn(x) for x in xs) / xs.size
    np.testing.assert_array_equal(
        [expect(discrete(xs, probs), f)[0], expect(from_sample(xs), f)[0]],
        [discrete_want, sample_want])
    looped = numeric_function(
        lambda x: np.asarray([fn(float(t)) for t in np.ravel(x)]).reshape(np.shape(x)),
        (0.1, 1.0))
    got, ref = (certify_p_convex(g, 1, 0.1, 1.0, 64) for g in (f, looped))
    assert got.passed == ref.passed
    np.testing.assert_array_equal(list(got.margins.values()), list(ref.margins.values()))


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NON_INTEGRAL = st.one_of(_NON_FINITE, st.floats(min_value=-1e6, max_value=1e6).filter(
    lambda v: not v.is_integer()))
_CUBE = shifted_power(3.0, domain=(0.0, 10.0))
_LOG = log_affine(0.6)
_LOTTERY = discrete([0.5, 2.0], [0.5, 0.5])
_SQUARE = shifted_power(2.0, domain=(0.0, 50.0))
_QUARTIC = shifted_power(4.0, domain=(0.0, 50.0))
_EM_DATA = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])


_MALFORMED = st.sampled_from([math.nan, "abc", None, [1.0], {"q": 1.0}, 10 ** 400])


def _falsified(trials, seed, **kwargs):
    hit = falsify_p_more_risk_averse(_SQUARE, _QUARTIC, 1, trials, seed, **kwargs)
    return hit.threshold, hit.margin


def _descriptor_cert(family: str, params: dict, domain, p: int = 1):
    return certify_p_convex(function_from_descriptor(
        {"family": family, "params": params, "domain": domain}), p, 0.0, 1.0, 64)


# input -> (call with that input replaced by v, strategy for v, a valid v)
_FAIL_CLOSED = {
    "I order": (lambda v: certify_p_convex(_CUBE, v, 0.0, 1.0, 64), _NON_INTEGRAL, 1),
    "I grid": (lambda v: certify_p_convex(_CUBE, 1, 0.0, 1.0, v), _NON_INTEGRAL, 64),
    "I a": (lambda v: certify_p_convex(_CUBE, 1, v, 1.0, 64), _NON_FINITE, 0.0),
    "I b": (lambda v: certify_p_convex(_CUBE, 1, 0.0, v, 64), _NON_FINITE, 1.0),
    "D order": (lambda v: certify_p_concave(_LOG, v, _LOG.domain[0], 0.6, 64),
                _NON_INTEGRAL, 1),
    "D grid": (lambda v: certify_p_concave(_LOG, 1, _LOG.domain[0], 0.6, v),
               _NON_INTEGRAL, 64),
    "D a": (lambda v: certify_p_concave(_LOG, 1, v, 0.6, 64), _NON_FINITE, _LOG.domain[0]),
    "D b": (lambda v: certify_p_concave(_LOG, 1, _LOG.domain[0], v, 64), _NON_FINITE, 0.6),
    "Lp order": (lambda v: certify_loss_class(_CUBE, v, 10.0, 64), _NON_INTEGRAL, 2),
    "Lp grid": (lambda v: certify_loss_class(_CUBE, 2, 10.0, v), _NON_INTEGRAL, 64),
    "Lp horizon": (lambda v: certify_loss_class(_CUBE, 2, v, 64), _NON_FINITE, 10.0),
    "risk order": (lambda v: risk_measure(_LOTTERY, v), _NON_INTEGRAL, 2),
    "exp-tail order": (lambda v: certify_p_convex(exp_taylor_remainder(v), 2, 0.0, 3.0, 64),
                       _NON_INTEGRAL, 2),
    "taylor-remainder order": (
        lambda v: certify_p_convex(taylor_remainder(exponential(1.0, (0.0, 3.0)), v),
                                   2, 0.0, 3.0, 64), _NON_INTEGRAL, 2),
    "derivative order": (
        lambda v: certify_p_convex(derivative_function(shifted_power(4.0), v), 1, 0.0, 1.0, 64),
        _NON_INTEGRAL, 1),
    "descriptor q": (lambda v: _descriptor_cert("shifted-power", {"q": v}, [0.0, 1.0]),
                     _MALFORMED, 3.0),
    "descriptor p": (lambda v: _descriptor_cert("exp-taylor-remainder", {"p": v}, [0.0, 1.0], 2),
                     st.one_of(_NON_INTEGRAL, st.sampled_from(["2", None, [2]])), 2),
    "descriptor domain": (lambda v: _descriptor_cert("shifted-power", {"q": 3.0}, [0.0, v]),
                          _MALFORMED, 1.0),
    "taylor-hh b": (lambda v: taylor_hh(2, v), _NON_FINITE, 1.5),
    "sample count": (lambda v: sample_mc(_LOTTERY, v, 1).values, _NON_INTEGRAL, 3),
    "em-demo iterations": (lambda v: em_demo(_EM_DATA, v, 1).logliks(), _NON_INTEGRAL, 2),
    "sample seed": (lambda v: sample_mc(_LOTTERY, 3, v).values, _NON_INTEGRAL, 1),
    "mixture size": (lambda v: generate_mixture_data(v, 2, 1), _NON_INTEGRAL, 4),
    "mixture dims": (lambda v: generate_mixture_data(4, v, 1), _NON_INTEGRAL, 2),
    "mixture seed": (lambda v: generate_mixture_data(4, 2, v), _NON_INTEGRAL, 1),
    "em-demo seed": (lambda v: em_demo(_EM_DATA, 2, v).logliks(), _NON_INTEGRAL, 1),
    "falsifier seed": (lambda v: _falsified(300, v), _NON_INTEGRAL, 1),
    "falsifier trials": (lambda v: _falsified(v, 1), _NON_INTEGRAL, 300),
    "falsifier horizon": (lambda v: _falsified(300, 1, horizon=v), _NON_FINITE, 10.0),
    "falsifier direction": (lambda v: _falsified(300, 1, directed_from=v), _NON_FINITE, 4.0),
    "moment order": (lambda v: shifted_moment(_LOTTERY, 0.0, v).norm,
                     st.one_of(_NON_INTEGRAL, st.just(2.5)), 2),
    "moment shift": (lambda v: shifted_moment(_LOTTERY, v, 2).norm, _NON_FINITE, 0.0),
    "p-norm order": (lambda v: pnorm_shifted(0.25, v, 3.0), _NON_INTEGRAL, 2),
    "p-norm moment": (lambda v: pnorm_shifted(v, 2, 3.0), _NON_FINITE, 0.25),
    "p-norm scale": (lambda v: pnorm_shifted(0.25, 2, v), _NON_FINITE, 3.0),
    "difference point": (lambda v: fd_derivative(np.exp, v, 2, (0.0, 1.0)), _NON_FINITE, 0.5),
    # an infinite end is a half-line, so only NaN is an invalid end
    "difference interval end": (lambda v: fd_derivative(np.exp, 0.5, 2, (0.0, v)),
                                st.just(math.nan), 1.0),
    "difference point outside": (
        lambda v: fd_derivative(np.exp, v, 2, (0.0, 1.0)),
        st.one_of(st.floats(min_value=-1e6, max_value=-1e-300),
                  st.floats(min_value=1.0, max_value=1e6, exclude_min=True)), 0.5),
    "difference interval order": (lambda v: fd_derivative(np.exp, 0.5, 2, (0.0, v)),
                                  st.floats(max_value=0.0, exclude_max=True), 1.0),
}


@pytest.mark.parametrize("name", sorted(_FAIL_CLOSED))
def test_fail_closed_calls_pass_with_a_valid_input(name):
    call, _, valid = _FAIL_CLOSED[name]
    out = call(valid)
    if isinstance(out, ConvexityCertificate):
        assert out.passed
    elif isinstance(out, RiskMeasureReport):
        assert out.achiever == "x^3"
    else:  # a bound, a sample or a likelihood trace: finite numbers
        assert np.all(np.isfinite(out))


@settings(max_examples=190, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_FAIL_CLOSED)), data=st.data())
def test_non_finite_or_non_integral_inputs_fail_closed(name, data):
    """A non-finite or non-integral order or grid size, or a non-finite
    horizon or interval end, raises a PconvexError or gives a
    failing certificate, in every certifier and in risk_measure; so does a
    non-integral order of a function constructor, a malformed parameter or
    domain end in a function descriptor, a non-finite end of taylor_hh, a
    non-integral count of sample_mc or em_demo, a non-integral seed, sample
    count or trial count of the seeded generators and the falsifier, a
    non-finite horizon or direction of the falsifier, a non-integral order
    or non-finite shift of shifted_moment, a non-integral order or
    non-finite moment or scale of pnorm_shifted, and a non-finite point, a
    point outside the interval, a NaN interval end or an interval with
    lo > hi of fd_derivative."""
    call, values, _ = _FAIL_CLOSED[name]
    value = data.draw(values)
    try:
        out = call(value)
    except PconvexError:
        return
    assert isinstance(out, ConvexityCertificate) and not out.passed
