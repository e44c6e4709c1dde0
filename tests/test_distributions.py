"""Moment engines, the expectation oracle, sampling determinism.

Norm monotonicity in the order is the workhorse property here; it is what
makes the tightened bounds tighter than classical Jensen downstream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex.errors import (
    ConstructionError,
    DomainError,
    DomainMismatchError,
    InputFormatError,
    MomentDivergenceError,
    SupportViolationError,
)
from pconvex.distributions import (
    beta_like,
    discrete,
    distribution_from_descriptor,
    distribution_to_descriptor,
    expect,
    fractional_hh_density,
    from_sample,
    point_mass,
    reflected,
    sample_mc,
    shifted_moment,
    two_point,
    uniform,
)
from pconvex.functions import (
    affine_precompose,
    exponential,
    log_affine,
    nonneg_weighted_sum,
    polynomial,
    shifted_power,
)


class TestShiftedMoment:
    def test_bernoulli_second_moment(self):
        X = discrete([0.0, 1.0], [0.5, 0.5])
        rep = shifted_moment(X, 0.0, 2)
        assert rep.raw == pytest.approx(0.5, abs=1e-15)
        assert rep.norm == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert rep.method == "exact-sum"

    @pytest.mark.parametrize("order", [1, 2, 5, 16])
    def test_point_mass(self, order):
        rep = shifted_moment(point_mass(3.0), 1.0, order)
        assert rep.norm == pytest.approx(2.0, rel=1e-14)

    def test_uniform_density(self):
        rep = shifted_moment(uniform(0.0, 1.0), 0.0, 2)
        assert rep.raw == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rep.norm == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)

    def test_high_order_no_overflow(self):
        X = discrete([0.0, 1e5], [0.5, 0.5])
        rep = shifted_moment(X, 0.0, 64)
        assert rep.norm == pytest.approx(1e5 * 0.5 ** (1.0 / 64.0), rel=1e-12)

    def test_mass_below_shift_rejected(self):
        with pytest.raises(SupportViolationError):
            shifted_moment(discrete([0.0, 1.0], [0.5, 0.5]), 0.5, 2)

    def test_order_caps(self):
        X = point_mass(1.0)
        with pytest.raises(DomainError):
            shifted_moment(X, 0.0, 0)
        with pytest.raises(DomainError):
            shifted_moment(X, 0.0, 65)

    def test_norm_monotonic_in_order(self):
        X = discrete([0.5, 1.0, 2.5, 4.0], [0.1, 0.4, 0.3, 0.2])
        norms = [shifted_moment(X, 0.0, k).norm for k in range(1, 17)]
        for lo, hi in zip(norms, norms[1:]):
            assert hi >= lo - 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=15))
    def test_norm_monotonic_property(self, atoms, order):
        if max(atoms) == min(atoms):
            atoms = atoms + [max(atoms) + 1.0]
        probs = [1.0 / len(atoms)] * len(atoms)
        X = discrete(atoms, probs)
        lo = shifted_moment(X, 0.0, order).norm
        hi = shifted_moment(X, 0.0, order + 1).norm
        assert hi >= lo - 1e-10

    def test_two_point_moment_closed_form(self):
        for p in (1, 2, 3):
            X = two_point(1.0, 3.0, 0.25)
            rep = shifted_moment(X, 1.0, p + 1)
            assert rep.raw == pytest.approx(0.75 * 2.0 ** (p + 1), rel=1e-14)


class TestExpect:
    def test_discrete_cube(self):
        X = discrete([0.0, 1.0], [0.5, 0.5])
        value, err = expect(X, lambda x: x ** 3)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert err == 0.0

    def test_point_mass_functional(self):
        f = shifted_power(3.0, domain=(0.0, 10.0))
        value, _ = expect(point_mass(2.0), f)
        assert value == pytest.approx(8.0, rel=1e-14)

    def test_uniform_cube(self):
        value, err = expect(uniform(0.0, 1.0), lambda x: x ** 3)
        assert value == pytest.approx(0.25, abs=1e-9)
        assert err < 1e-8

    def test_beta_like_mean(self):
        # symmetric beta-like on [0, 2] has mean 1 (oracle: symmetry)
        value, _ = expect(beta_like(0.0, 2.0, 2.0, 2.0), lambda x: x)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_fractional_density_normalizes(self):
        for alpha in (0.5, 1.0, 2.5):
            X = fractional_hh_density(0.0, 1.0, alpha)
            value, _ = expect(X, lambda x: np.ones_like(np.asarray(x, dtype=float)))
            assert value == pytest.approx(1.0, abs=1e-9), alpha

    def test_domain_mismatch(self):
        f = shifted_power(2.0, domain=(0.0, 0.5))
        with pytest.raises(DomainMismatchError):
            expect(discrete([0.0, 1.0], [0.5, 0.5]), f)

    def test_sample_average(self):
        X = from_sample([1.0, 2.0, 3.0, 6.0])
        value, _ = expect(X, lambda x: x)
        assert value == pytest.approx(3.0, abs=1e-15)


def _expect_or_diverge(X, pdf):
    """For x^3 and exp, expect either raises MomentDivergenceError or lands
    within its own error estimate (plus 1e-12) of mpmath.quad at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = X.declared_support
    for fn, mp_fn in ((lambda x: x ** 3, lambda x: x ** 3), (np.exp, mpmath.exp)):
        try:
            value, err = expect(X, fn)
        except MomentDivergenceError:
            continue
        with mpmath.workdps(30):
            want = float(mpmath.quad(lambda x: mp_fn(x) * pdf(x), [lo, hi]))
        assert abs(value - want) <= err + 1e-12, (X.density_params, value, want, err)


class TestExpectAgainstMpmath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=1.0, max_value=3.5), st.floats(min_value=1.0, max_value=3.5))
    def test_beta_like(self, c, d):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            norm = mpmath.beta(c, d)
        _expect_or_diverge(beta_like(0.0, 1.0, c, d),
                           lambda x: x ** (c - 1) * (1 - x) ** (d - 1) / norm)

    def test_uniform(self):
        _expect_or_diverge(uniform(0.0, 1.0), lambda x: 1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_fractional_hh(self, alpha):
        _expect_or_diverge(fractional_hh_density(0.0, 1.0, alpha),
                           lambda x: alpha / 2 * (x ** (alpha - 1) + (1 - x) ** (alpha - 1)))


class TestTwoPoint:
    def test_fair_coin(self):
        X = two_point(0.0, 1.0, 0.5)
        assert X.atoms == (0.0, 1.0)
        assert X.probs == (0.5, 0.5)

    def test_degenerate_prob_one(self):
        X = two_point(0.0, 1.0, 1.0)
        assert X.atoms == (0.0,)

    def test_mean(self):
        X = two_point(2.0, 5.0, 0.25)
        assert X.mean() == pytest.approx(4.25, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ConstructionError):
            two_point(1.0, 0.0, 0.5)
        with pytest.raises(ConstructionError):
            two_point(0.0, 1.0, 1.5)


class TestReflected:
    def test_discrete(self):
        X = discrete([0.4, 0.6], [0.5, 0.5])
        Y = reflected(X, 0.6)
        rep = shifted_moment(Y, 0.0, 2)
        assert rep.norm == pytest.approx(math.sqrt(0.02), rel=1e-12)

    def test_uniform(self):
        Y = reflected(uniform(0.0, 1.0), 1.0)
        assert expect(Y, lambda x: x)[0] == pytest.approx(0.5, abs=1e-9)


class TestSampleMc:
    def test_point_mass_single_draw(self):
        s = sample_mc(point_mass(2.5), 1, seed=11)
        assert s.values == (2.5,)

    def test_determinism(self):
        X = discrete([0.0, 1.0, 2.0], [0.3, 0.4, 0.3])
        a = sample_mc(X, 500, seed=42)
        b = sample_mc(X, 500, seed=42)
        assert a.values == b.values
        c = sample_mc(X, 500, seed=43)
        assert a.values != c.values

    def test_binomial_concentration(self):
        # 5 sigma band around the mean at n = 1e5
        X = discrete([0.0, 1.0], [0.5, 0.5])
        s = sample_mc(X, 100_000, seed=123)
        mean = expect(s, lambda x: x)[0]
        assert abs(mean - 0.5) < 5.0 * 0.5 / math.sqrt(100_000)

    def test_mc_expectation_matches_exact_at_mc_rate(self):
        X = discrete([0.0, 0.5, 2.0], [0.25, 0.5, 0.25])
        f = lambda x: x ** 2
        exact, _ = expect(X, f)
        s = sample_mc(X, 100_000, seed=7)
        approx, _ = expect(s, f)
        # conservative 5-standard-error band
        second = expect(X, lambda x: x ** 4)[0]
        sigma = math.sqrt(max(second - exact ** 2, 1e-12) / 100_000)
        assert abs(approx - exact) < 5.0 * sigma

    def test_density_inverse_cdf(self):
        X = uniform(2.0, 4.0)
        s = sample_mc(X, 20_000, seed=5)
        assert expect(s, lambda x: x)[0] == pytest.approx(3.0, abs=0.02)

    def test_fractional_density_sampling(self):
        X = fractional_hh_density(0.0, 1.0, 0.5)
        s = sample_mc(X, 20_000, seed=9)
        exact = expect(X, lambda x: x)[0]
        assert expect(s, lambda x: x)[0] == pytest.approx(exact, abs=0.02)


class TestDescriptors:
    @pytest.mark.parametrize("raw", [
        {"kind": "discrete", "atoms": [0.0, 1.0], "probs": [0.5, 0.5]},
        {"kind": "sample", "values": [1.0, 2.0, 2.5]},
        {"kind": "density", "family": "uniform", "params": {"a": 0.0, "b": 1.0},
         "support": [0.0, 1.0]},
        {"kind": "density", "family": "beta-like",
         "params": {"a": 0.0, "b": 1.0, "c": 2.0, "d": 3.0}, "support": [0.0, 1.0]},
        {"kind": "density", "family": "fractional-hh",
         "params": {"a": 0.0, "b": 1.0, "alpha": 0.5}, "support": [0.0, 1.0]},
    ], ids=lambda r: r.get("family", r["kind"]))
    def test_roundtrip(self, raw):
        X = distribution_from_descriptor(raw)
        back = distribution_to_descriptor(X)
        Y = distribution_from_descriptor(back)
        assert distribution_to_descriptor(Y) == back
        assert X.mean() == pytest.approx(Y.mean(), rel=1e-12, abs=1e-12)

    def test_malformed(self):
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "mystery"})
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "discrete", "atoms": [0.0]})
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "density", "family": "cauchy"})


class TestValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConstructionError):
            discrete([0.0, 1.0], [0.5, 0.6])

    def test_probs_nonnegative(self):
        with pytest.raises(ConstructionError):
            discrete([0.0, 1.0], [1.5, -0.5])

    def test_sample_nonempty(self):
        with pytest.raises(ConstructionError):
            from_sample([])

    def test_beta_like_shape_floor(self):
        with pytest.raises(ConstructionError):
            beta_like(0.0, 1.0, 0.5, 2.0)

    @pytest.mark.parametrize("build", [
        lambda: discrete([0.0, math.nan], [0.5, 0.5]),
        lambda: discrete([0.0, 1.0], [math.nan, 0.5]),
        lambda: from_sample([1.0, math.inf]),
        lambda: from_sample([1.0, math.nan]),
        lambda: shifted_power(math.nan),
        lambda: shifted_power(math.inf),
        lambda: exponential(math.nan),
        lambda: exponential(math.inf, domain=(0.0, 1.0)),
        lambda: log_affine(math.inf, domain=(1.0, 2.0)),
        lambda: polynomial([0.0, 0.0, math.nan]),
        lambda: polynomial([math.inf]),
        lambda: affine_precompose(shifted_power(2.0), math.nan, 0.0, domain=(0.0, 1.0)),
        lambda: affine_precompose(shifted_power(2.0), 1.0, math.inf, domain=(0.0, 1.0)),
        lambda: nonneg_weighted_sum([(math.nan, shifted_power(2.0))]),
        lambda: nonneg_weighted_sum([(math.inf, shifted_power(2.0))]),
    ], ids=["nan-atom", "nan-prob", "inf-sample", "nan-sample", "power-nan-q",
            "power-inf-q", "exp-nan-rate", "exp-inf-rate", "log-affine-inf-b",
            "poly-nan-coeff", "poly-inf-coeff", "affine-nan-scale", "affine-inf-offset",
            "sum-nan-weight", "sum-inf-weight"])
    def test_non_finite_inputs_rejected(self, build):
        # an unbounded domain or support stays legal; non-finite values do not
        with pytest.raises(ConstructionError):
            build()
