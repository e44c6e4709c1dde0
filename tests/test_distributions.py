"""Moment engines, the expectation oracle, sampling determinism.

Norm monotonicity in the order is the workhorse property here; it is what
makes the tightened bounds tighter than classical Jensen downstream.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import bad_points, numeric_fields
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pconvex.errors import (
    ConstructionError,
    DomainError,
    DomainMismatchError,
    InputFormatError,
    PconvexError,
    RangeOverflowError,
    SupportViolationError,
)
from pconvex.distributions import (
    _DIGEST_NODES,
    _TRUNCATION_MASS,
    RandomVariable,
    _digest_nodes,
    _truncation_horizon,
    beta_like,
    density,
    discrete,
    distribution_from_descriptor,
    distribution_to_descriptor,
    expect,
    expect_each,
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
from pconvex.numerics import FSUM_CROSSOVER, QUADRATURE_TOLERANCE, gamma, pnorm_shifted


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

    @pytest.mark.parametrize("X", [discrete([0.0, 0.7, 3.1], [0.2, 0.5, 0.3]),
                                   from_sample([0.4, 1.0, 2.5, 6.0]), uniform(0.0, 2.0)],
                             ids=["discrete", "sample", "density"])
    def test_each_equals_expect_member_by_member(self, X):
        qs = np.array([1.0, 2.0, 3.5])

        def stacked(x):
            return np.asarray(x) ** qs[:, None]

        members = [lambda x, q=q: np.asarray(x) ** q for q in qs]
        assert expect_each(X, stacked, members) == [expect(X, f)[0] for f in members]

    def test_each_reads_members_only_for_a_density(self):
        def stacked(x):
            return np.stack([np.asarray(x), np.asarray(x) ** 2])

        X = discrete([1.0, 3.0], [0.5, 0.5])
        assert expect_each(X, stacked, iter(())) == [2.0, 5.0]


class TestExpectTolerance:
    """The quadrature's absolute tolerance bounds the error of E f(X) itself,
    whatever the width of the support (the density's normalisation is part
    of the integrand)."""

    def test_wide_supports_converge(self):
        cases = [(uniform(0.0, 100.0), lambda x: x ** 2, 1e4 / 3),
                 (beta_like(0.0, 20.0, 3.0, 3.0), lambda x: x ** 2, 400.0 * (0.25 + 1.0 / 28)),
                 (uniform(0.0, 1000.0), np.cos, math.sin(1000.0) / 1000.0)]
        for X, fn, want in cases:
            value, err = expect(X, fn)
            assert abs(value - want) <= err + 1e-12 * abs(want), (X.density_params, value, want)

    @pytest.mark.parametrize("c,d", [(3.0, 3.0), (1.5, 2.5)])
    def test_wide_beta_like_oscillation(self, c, d):
        mpmath = pytest.importorskip("mpmath")
        # E cos X under beta(c, d) on [0, L] is Re 1F1(c; c+d; iL)
        value, err = expect(beta_like(0.0, 1000.0, c, d), np.cos)
        with mpmath.workdps(30):
            want = float(mpmath.re(mpmath.hyp1f1(c, c + d, 1000j)))
        assert abs(value - want) <= err + 1e-12

    @pytest.mark.parametrize("omega", [3e4, 1e5])
    def test_narrow_support_meets_the_tolerance(self, omega):
        mpmath = pytest.importorskip("mpmath")
        # the pdf of beta(3.5, 3.5) on [0, 0.01] peaks near 2e2, and the
        # integrand E cos(omega X) needs several doublings to resolve
        X = beta_like(0.0, 0.01, 3.5, 3.5)
        value, err = expect(X, lambda x: np.cos(omega * x))
        with mpmath.workdps(30):
            want = float(mpmath.re(mpmath.hyp1f1(3.5, 7.0, 0.01j * omega)))
        assert err <= QUADRATURE_TOLERANCE
        assert abs(value - want) <= QUADRATURE_TOLERANCE
        assert expect(X, lambda x: x ** 2)[0] == pytest.approx(0.28125e-4, rel=1e-13)


def _expect_matches_mpmath(X, pdf):
    """For x^3 and exp, expect converges and lands within its own error
    estimate (plus 1e-12) of mpmath.quad at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = X.declared_support
    for fn, mp_fn in ((lambda x: x ** 3, lambda x: x ** 3), (np.exp, mpmath.exp)):
        value, err = expect(X, fn)
        with mpmath.workdps(30):
            want = float(mpmath.quad(lambda x: mp_fn(x) * pdf(x), [lo, hi]))
        assert abs(value - want) <= err + 1e-12, (X.density_params, value, want, err)


class TestExpectAgainstMpmath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=1.0, max_value=3.5), st.floats(min_value=1.0, max_value=3.5))
    @example(1.2, 2.0)
    @example(1.5, 1.3)
    def test_beta_like(self, c, d):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            norm = mpmath.beta(c, d)
        _expect_matches_mpmath(beta_like(0.0, 1.0, c, d),
                           lambda x: x ** (c - 1) * (1 - x) ** (d - 1) / norm)

    def test_uniform(self):
        _expect_matches_mpmath(uniform(0.0, 1.0), lambda x: 1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_fractional_hh(self, alpha):
        _expect_matches_mpmath(fractional_hh_density(0.0, 1.0, alpha),
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

    def test_beta_like_keeps_family_with_shapes_swapped(self):
        # the kink (x-a)^0.2 moves to the right end; as a custom pdf it would
        # go through ungraded quadrature
        Y = reflected(beta_like(0.0, 1.0, 1.2, 2.0), 1.0)
        assert (Y.density_family, Y.density_params) == (
            "beta-like", {"a": 0.0, "b": 1.0, "c": 2.0, "d": 1.2})
        assert expect(Y, lambda x: x)[0] == pytest.approx(2.0 / 3.2, rel=1e-14)
        # E exp(1 - X) under beta(1.2, 2) is e 1F1(1.2; 3.2; -1) (mpmath)
        assert expect(Y, np.exp)[0] == pytest.approx(1.9192228922734009, rel=1e-13)


class TestSampleMc:
    def test_point_mass_single_draw(self):
        s = sample_mc(point_mass(2.5), 1, seed=11)
        assert s.values == (2.5,)

    def test_determinism(self):
        X = discrete([0.0, 1.0, 2.0], [0.3, 0.4, 0.3])
        a = sample_mc(X, 500, seed=42)
        b = sample_mc(X, 500, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_mc(X, 500, seed=43)
        assert not np.array_equal(a.values, c.values)

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

    @pytest.mark.parametrize("X,cdf", [
        (fractional_hh_density(0.0, 2.0, 0.5),
         lambda x: (x ** 0.5 + 2.0 ** 0.5 - (2.0 - x) ** 0.5) / (2.0 * 2.0 ** 0.5)),
        (fractional_hh_density(1.0, 3.0, 2.5),
         lambda x: ((x - 1.0) ** 2.5 + 2.0 ** 2.5 - (3.0 - x) ** 2.5) / (2.0 * 2.0 ** 2.5)),
        (beta_like(0.0, 2.0, 2.0, 3.0), None),
        (beta_like(-1.0, 1.0, 3.5, 2.5), None),
    ], ids=["frac-0.5", "frac-2.5", "beta-2-3", "beta-3.5-2.5"])
    def test_density_draws_invert_the_cdf(self, X, cdf):
        if cdf is None:  # the trapezoid-rule CDF sampled densities are drawn from
            grid = np.linspace(*X.declared_support, 4097)
            pdf = X.pdf(grid)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
            cdf = lambda x: np.interp(x, grid, cum / cum[-1])
        u = np.random.default_rng(3).random(500)
        draws = np.asarray(sample_mc(X, 500, seed=3).values)
        np.testing.assert_allclose(cdf(draws), u, rtol=0.0, atol=1e-12)


# the keys a distribution descriptor reads: at the top level of each kind,
# and in the params of each density family
_READS = {"discrete": ("kind", "atoms", "probs", "support"),
          "sample": ("kind", "values", "support"),
          "density": ("kind", "family", "params", "support"),
          "uniform": ("a", "b"), "beta-like": ("a", "b", "c", "d"),
          "fractional-hh": ("a", "b", "alpha")}

_END = st.floats(min_value=-5.0, max_value=5.0)
_WIDTH = st.floats(min_value=0.1, max_value=5.0)


def _named_density():
    """A density of every family that has a descriptor."""
    shape = st.floats(min_value=1.0, max_value=6.0)
    return st.one_of(
        st.builds(lambda a, w: uniform(a, a + w), _END, _WIDTH),
        st.builds(lambda a, w, c, d: beta_like(a, a + w, c, d), _END, _WIDTH, shape, shape),
        st.builds(lambda a, w, alpha: fractional_hh_density(a, a + w, alpha), _END, _WIDTH,
                  st.floats(min_value=0.1, max_value=4.0)))


def _described_variable():
    """A variable of every kind that has a descriptor."""
    values = st.lists(_END, min_size=1, max_size=6)
    return st.one_of(
        st.builds(lambda v: discrete(v, [1.0 / len(v)] * len(v)), values),
        st.builds(from_sample, values), _named_density())


class TestTruncationHorizonOnce:
    """An unbounded density's truncation horizon is searched once per
    variable, as its mean is computed once."""

    @staticmethod
    def _bound(monkeypatch, X):
        from pconvex import distributions
        from pconvex.convexity import certify_p_convex
        from pconvex.jensen import jensen_lower
        calls = []
        real = distributions.integrate
        monkeypatch.setattr(distributions, "integrate",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        f = shifted_power(3.0)
        rep = jensen_lower(f, certify_p_convex(f, 1, 0.0, 1.0), X)
        return rep, len(calls)

    def test_jensen_lower_on_the_unit_exponential(self, monkeypatch):
        # the search integrates the pdf over [0, 2^k] for k = 0..5; the
        # moment, the mean and the oracle each ran it (21 integrals in all)
        X = density(lambda x: np.exp(-np.asarray(x)), (0.0, math.inf))
        copy_ = replace(X, pdf=X.pdf)  # a fresh variable: no search yet
        rep, calls = self._bound(monkeypatch, copy_)
        assert calls == 9
        # the constructor's normalisation check found it on X already
        again, calls = self._bound(monkeypatch, X)
        assert calls == 3 and again == rep
        # the bits of the three-search bound
        assert (rep.value, rep.oracle, rep.oracle_error, rep.value_error) == (
            2.828427124716906, 5.999999999543611, 3.276900012434498e-06,
            1.9821796992459456e-08)


class TestMomentIsOneExpect:
    """shifted_moment is one expect of the scaled power (max(x - a, 0) /
    scale)^n, scale = sup X - a, for every kind of variable."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(X=_described_variable(), below=st.floats(min_value=0.0, max_value=2.0),
           order=st.integers(min_value=1, max_value=64))
    def test_raw_and_norm_have_the_bits_of_the_expect(self, X, below, order):
        a = X.inf - below
        scale = X.sup - a
        rep = shifted_moment(X, a, order)
        assert rep.method == ("quadrature" if X.kind == "density" else "exact-sum")
        if scale == 0.0:
            assert (rep.raw, rep.norm, rep.error_estimate) == (0.0, 0.0, 0.0)
            return
        scaled, err = expect(X, lambda x: (np.maximum(x - a, 0.0) / scale) ** order)
        try:
            raw = scaled * scale ** order
        except OverflowError:
            raw = math.inf
        assert _bits(rep.raw) == _bits(raw)
        assert _bits(rep.norm) == _bits(pnorm_shifted(scaled, order, scale))
        assert rep.error_estimate == err

    @pytest.mark.parametrize("shift, order, error", [
        (0.0, 2, 3.303632832099379e-09), (-0.5, 3, None)])
    def test_unbounded_density_keeps_its_truncation_term(self, shift, order, error):
        X = density(lambda x: np.exp(-np.asarray(x, dtype=float)), (0.0, math.inf))
        rep = shifted_moment(X, shift, order)
        top = _truncation_horizon(X)
        scaled, err = expect(replace(X, declared_support=(0.0, top)),
                             lambda x: (np.maximum(x - shift, 0.0) / (top - shift)) ** order)
        assert rep.error_estimate == err + _TRUNCATION_MASS * (1.0 + (top - shift))
        assert rep.raw == scaled * (top - shift) ** order
        # E X^2 of the unit exponential is 2, and the estimate is the one
        # computed before the moment went through expect
        if error is not None:
            assert rep.raw == pytest.approx(2.0, rel=1e-9)
            assert rep.error_estimate == pytest.approx(error, rel=1e-12)


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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(X=_described_variable(), data=st.data())
    def test_writer_round_trips_and_unread_keys_fail_closed(self, X, data):
        desc = distribution_to_descriptor(X)
        assert distribution_to_descriptor(distribution_from_descriptor(desc)) == desc
        name = desc.get("family", desc["kind"])
        where = data.draw(st.sampled_from(["top", "params"] if "params" in desc else ["top"]))
        reads = _READS[desc["kind"]] if where == "top" else _READS[name]
        key = data.draw(st.text(max_size=6).filter(lambda k: k not in reads))
        stray = {**desc, "params": dict(desc["params"])} if "params" in desc else dict(desc)
        (stray if where == "top" else stray["params"])[key] = 1.0
        with pytest.raises(InputFormatError, match=re.escape(f"nothing reads {key!r}")):
            distribution_from_descriptor(stray)
        # a JSON boolean in any numeric field (float(True) is 1.0)
        flipped = json.loads(json.dumps(desc))
        container, slot, name = data.draw(st.sampled_from(numeric_fields(flipped)))
        container[slot] = data.draw(st.booleans())
        with pytest.raises(InputFormatError, match=re.escape(f"{name!r} holds a boolean")):
            distribution_from_descriptor(flipped)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(X=_named_density(),
           end=st.sampled_from(["a", "b"]), shift=st.floats(min_value=1e-6, max_value=1.0),
           moved=st.sampled_from(["support", "params"]))
    def test_density_ends_that_disagree_fail_closed(self, X, end, shift, moved):
        # uniform took its ends from params and beta-like from the support
        desc = distribution_to_descriptor(X)
        params, support = dict(desc["params"]), list(desc["support"])
        i = "ab".index(end)
        if moved == "support":
            support[i] += shift
        else:
            params[end] += shift
        with pytest.raises(InputFormatError, match="disagree"):
            distribution_from_descriptor({**desc, "params": params, "support": support})

    def test_malformed(self):
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "mystery"})
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "discrete", "atoms": [0.0]})
        with pytest.raises(InputFormatError):
            distribution_from_descriptor({"kind": "density", "family": "cauchy"})
        # a params list raised a bare AttributeError
        with pytest.raises(InputFormatError, match="params must be an object"):
            distribution_from_descriptor({"kind": "density", "family": "uniform",
                                          "params": ["a"], "support": [0.0, 1.0]})


class TestCustomPdfDigest:
    """A custom pdf is digested by its values at fixed nodes of its support
    (a fixed stretch from its left end when the support is unbounded); every
    custom pdf on one support had one digest."""

    @settings(max_examples=80, deadline=None)
    @given(lo=st.floats(min_value=-1e3, max_value=1e3),
           width=st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.just(math.inf)),
           values=st.lists(st.floats(min_value=0.0, max_value=1e6),
                           min_size=_DIGEST_NODES, max_size=_DIGEST_NODES),
           changed=st.integers(min_value=0, max_value=_DIGEST_NODES - 1),
           value=st.floats(min_value=0.0, max_value=1e6))
    def test_values_at_the_nodes_decide_the_digest(self, lo, width, values, changed, value):
        support = (lo, lo + width)
        nodes = _digest_nodes(support)

        def custom(vals):
            # piecewise linear through (nodes, vals): exactly vals at the nodes
            return RandomVariable(kind="density", declared_support=support,
                                  pdf=lambda x: np.interp(x, nodes, vals))

        first = np.array(values)
        second = first.copy()
        second[changed] = value
        assert np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0.0)
        assert custom(first).digest() == custom(first.copy()).digest()
        assert (custom(first).digest() == custom(second).digest()) == \
            (first.tobytes() == second.tobytes())


class TestSampleDigest:
    """A sample's digest hashes its values: it named only their size and
    mean, so from_sample([0, 1]) and from_sample([0.5, 0.5]) shared one."""

    def test_same_size_and_mean(self):
        assert from_sample([0.0, 1.0]).digest() != from_sample([0.5, 0.5]).digest()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20),
           moved=st.floats(-10.0, 10.0))
    def test_different_cube_oracles_give_different_digests(self, values, moved):
        # moving mass between two values keeps the size and, mostly, the mean
        other = [values[0] + moved, values[1] - moved] + values[2:]
        X, Y = from_sample(values), from_sample(other)
        cube = [expect(V, lambda x: x ** 3)[0] for V in (X, Y)]
        if cube[0] != cube[1]:
            assert X.digest() != Y.digest()


class TestNamedDensityDigest:
    """A named density's digest names its shape parameters: beta_like(0, 1,
    2, 3) and beta_like(0, 1, 3, 2) both digested to
    density[beta-like,(0.0, 1.0)], and so did every fractional_hh_density
    alpha on one interval."""

    def test_uniform_keeps_its_string(self):
        assert uniform(0.0, 1.0).digest() == "density[uniform,(0.0, 1.0)]"
        assert beta_like(0.0, 1.0, 2.0, 3.0).digest() == \
            "density[beta-like,(0.0, 1.0),c=2.0,d=3.0]"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(family=st.sampled_from(["beta-like", "fractional-hh"]),
           first=st.tuples(*[st.floats(min_value=1.0, max_value=6.0)] * 2),
           second=st.tuples(*[st.floats(min_value=1.0, max_value=6.0)] * 2))
    def test_distinct_shapes_give_distinct_digests(self, family, first, second):
        def make(shape):
            return (beta_like(0.0, 1.0, *shape) if family == "beta-like"
                    else fractional_hh_density(0.0, 1.0, shape[0]))

        same = first == second if family == "beta-like" else first[0] == second[0]
        assert (make(first).digest() == make(second).digest()) == same


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


# Magnitudes over 1e-300...1e300, subnormals included, plus exact cancellation.
_MAGNITUDES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),
)


@st.composite
def _finite_points(draw):
    points = draw(st.lists(_MAGNITUDES, min_size=1, max_size=30))
    if draw(st.booleans()):  # heavy cancellation: every value with its negation
        points = points + [-x for x in points] + draw(st.lists(_MAGNITUDES, max_size=3))
    return points


def _bits(x: float) -> str:
    return float(x).hex()


class TestFiniteOracleBits:
    """expect and shifted_moment on finite variables against pure-Python
    math.fsum references over Python floats, bit for bit.  The powers inside
    a moment are numpy's elementwise ones, as in the program (numpy's power
    and Python's pow can differ in the last bit)."""

    @staticmethod
    def _variable(points, weights):
        support = (min(points), math.inf)
        if weights is None:
            return from_sample(points, support)
        probs = [w / math.fsum(weights) for w in weights]
        return discrete(points, probs, support)

    @staticmethod
    def _reference_mean(X, terms):
        if X.kind == "discrete":
            return math.fsum(p * t for p, t in zip(X.probs, terms))
        return math.fsum(terms) / len(terms)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_finite_points(), st.booleans(), st.integers(min_value=1, max_value=64),
           st.floats(min_value=0.0, max_value=1e300), st.data())
    def test_expect_and_moment(self, points, is_sample, k, below, data):
        weights = None if is_sample else data.draw(
            st.lists(st.integers(min_value=1, max_value=1000),
                     min_size=len(points), max_size=len(points)))
        X = self._variable(points, weights)
        assert X.inf == min(points) and X.sup == max(points)
        pts = list(X.atoms) if X.kind == "discrete" else points
        assert _bits(expect(X, lambda x: x)[0]) == _bits(self._reference_mean(X, pts))
        assert X.mean() == expect(X, lambda x: x)[0]

        a = min(points) - below
        scale = max(max(points) - a, 0.0)
        if scale == 0.0:
            want = 0.0
        else:
            terms = np.power([max(x - a, 0.0) / scale for x in pts], k).tolist()
            try:
                want = self._reference_mean(X, terms) * scale ** k
            except OverflowError:
                want = math.inf
        assert _bits(shifted_moment(X, a, k).raw) == _bits(want)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_finite_points())
    def test_sample_values_read_only_and_compared_by_value(self, points):
        X = from_sample(points)
        assert X.values.dtype == np.float64 and X.values.ndim == 1
        with pytest.raises(ValueError):
            X.values[0] = 1.0
        assert X.values.tolist() == points
        # variables compare by value, sample values elementwise
        assert X == from_sample(points) and X != from_sample(points + [0.0])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_finite_points(), st.booleans(),
           st.sampled_from([copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]))
    def test_copies_stay_read_only_and_equal(self, points, is_sample, copier):
        # numpy drops the read-only flag through pickle; the copy is rebuilt
        X = from_sample(points) if is_sample else \
            discrete(points, [1.0 / len(points)] * len(points))
        Y = copier(X)
        assert Y == X
        assert (Y.inf, Y.sup, Y.mean()) == (X.inf, X.sup, X.mean())
        for arr in (Y.values, Y._points) if is_sample else (Y._points, Y._weights):
            assert not arr.flags.writeable


class TestLargeFiniteVariables:
    """Finite variables of FSUM_CROSSOVER points or more take numerics.fsum's
    extraction path; their expectations and moments keep math.fsum's bits."""

    @pytest.mark.parametrize("n", [FSUM_CROSSOVER - 1, FSUM_CROSSOVER, 5000])
    def test_expect_and_mean_bits(self, n, rng):
        points = rng.lognormal(0.0, 2.0, n) * rng.choice([1.0, -1.0], n)
        probs = rng.uniform(0.0, 1.0, n)
        f = lambda x: x ** 3 - x
        for X in (from_sample(points), discrete(points, (probs / probs.sum()).tolist())):
            for g in (f, lambda x: x):
                terms = g(X._points)
                want = math.fsum(terms.tolist()) / n if X.kind == "sample" else \
                    math.fsum((X._weights * terms).tolist())
                assert _bits(expect(X, g)[0]) == _bits(want)
            assert X.mean() == expect(X, lambda x: x)[0]


class TestConstantVariables:
    """A constant's default support is [c, c + 1], or [c, the next float]
    where c + 1.0 rounds back to c: from |c| = 2^53 on, a constant sample
    or point mass raised "invalid declared support".  At the largest float
    the next float is inf, so the support is [the float below, c]."""

    @pytest.mark.parametrize("c", [2.0 ** 53, 1e17, -1e17, 1e300])
    def test_large_constants_build(self, c):
        raw = {"kind": "discrete", "atoms": [c], "probs": [1.0]}
        for X in (from_sample([c] * 10), point_mass(c), distribution_from_descriptor(raw)):
            assert X.declared_support == (c, math.nextafter(c, math.inf))
            assert X.inf == X.sup == c
        assert point_mass(c).mean() == c

    @pytest.mark.parametrize("c", [0.0, -3.5, 2.0 ** 52])
    def test_other_constants_keep_c_plus_one(self, c):
        assert from_sample([c] * 3).declared_support == point_mass(c).declared_support \
            == (c, c + 1.0)

    def test_largest_float_is_bounded_and_reflects(self):
        c = sys.float_info.max
        below = math.nextafter(c, -math.inf)
        raw = {"kind": "discrete", "atoms": [c], "probs": [1.0]}
        for X in (from_sample([c] * 3), point_mass(c), distribution_from_descriptor(raw)):
            assert X.declared_support == (below, c)
            assert X.bounded and X.inf == X.sup == c
            # it raised "cannot reflect an unbounded-above random variable"
            Y = reflected(X, 0.0)
            assert Y.declared_support == (-c, -below)
            assert Y.inf == Y.sup == -c
        assert point_mass(c).mean() == c

    @pytest.mark.parametrize("c", [0.0, -3.5, 2.0 ** 52, 2.0 ** 53, 1e300, -sys.float_info.max,
                                   math.nextafter(sys.float_info.max, 0.0)])
    def test_every_other_constant_keeps_its_support_and_digest(self, c):
        # the support of the rule before the largest float was special, and
        # the digest of that support given explicitly (a one-value sample,
        # since the mean in a sample's digest overflows for three values
        # near the largest float)
        support = (c, max(c + 1.0, math.nextafter(c, math.inf)))
        for X, given_support in ((point_mass(c), discrete([c], [1.0], support)),
                                 (from_sample([c]), from_sample([c], support))):
            assert X.declared_support == support
            assert X.digest() == given_support.digest()


@pytest.mark.parametrize("n", [20, FSUM_CROSSOVER + 20])
def test_mean_past_double_range_raises(n):
    # the sum of n - 1 values of 1e308 overflows; math.fsum raised a bare
    # OverflowError out of mean()
    X = from_sample(np.r_[np.full(n - 1, 1e308), 1.0])
    with pytest.raises(RangeOverflowError, match="double range"):
        X.mean()


class TestLargeBetaShapes:
    """Shapes with c + d > 170: B(c, d) comes from log-gamma differences,
    since gamma(c + d) leaves double range (beta_like(0, 1, 100, 100) raised
    RangeOverflowError)."""

    @pytest.mark.parametrize("a, b, c, d", [
        (0.0, 1.0, 100.0, 100.0), (0.0, 1.0, 150.0, 40.5), (-1.0, 3.0, 300.0, 500.0),
    ])
    def test_mass_and_mean(self, a, b, c, d):
        X = beta_like(a, b, c, d)
        mass, _ = expect(X, lambda x: np.ones_like(x))
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert (X.mean() - a) / (b - a) == pytest.approx(c / (c + d), abs=1e-10)

    def test_representable_shapes_keep_the_gamma_ratio(self):
        X = beta_like(-1.0, 2.0, 120.0, 50.0)
        want = 1.0 / (gamma(120.0) * gamma(50.0) / gamma(170.0) * 3.0 ** 169.0)
        assert X.pdf(0.5) == want * 1.5 ** 119.0 * 1.5 ** 49.0

    @pytest.mark.parametrize("a, b, c, d", [
        (0.0, 100.0, 80.0, 80.0), (0.0, 1e-3, 80.0, 70.0), (0.0, 100.0, 200.0, 200.0),
        (0.0, 1.0, 1e6, 1e6),
    ])
    def test_normalisation_out_of_range_raises(self, a, b, c, d):
        # the first two raised a bare OverflowError and ZeroDivisionError
        with pytest.raises(RangeOverflowError, match="normalisation"):
            beta_like(a, b, c, d)


class TestFailClosedConstruction:
    """An empty, 2-D, NaN, infinite or non-numeric input never constructs a
    finite variable; every refusal is a PconvexError."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(bad_points(), st.sampled_from(["sample", "atoms", "probs"]), st.booleans())
    def test_bad_points_raise(self, bad, where, as_descriptor):
        n = max(len(bad), 1)
        if where == "sample":
            raw = {"kind": "sample", "values": bad}
            build = lambda: from_sample(bad)
        else:
            atoms, probs = (bad, [1.0 / n] * n) if where == "atoms" else \
                (list(range(n)), bad)
            raw = {"kind": "discrete", "atoms": atoms, "probs": probs}
            build = lambda: discrete(atoms, probs)
        with pytest.raises(PconvexError):
            distribution_from_descriptor(raw) if as_descriptor else build()


# catalog density constructors with valid parameters, each also taken as a
# descriptor
_DENSITY_FAMILIES = {
    "uniform": (uniform, {"a": 0.0, "b": 1.0}),
    "beta-like": (beta_like, {"a": -1.0, "b": 2.0, "c": 2.0, "d": 3.5}),
    "fractional-hh": (fractional_hh_density, {"a": 0.0, "b": 1.5, "alpha": 0.5}),
}


class TestNonFiniteDensityParameters:
    """A NaN or infinite end, shape or alpha raises ConstructionError from a
    catalog constructor and InputFormatError from a descriptor, before any
    integral runs (uniform(0, inf).mean() ran 12 NaN doublings first)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_DENSITY_FAMILIES)), st.data(),
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.sampled_from(["constructor", "params", "support"]))
    def test_non_finite_parameter_raises(self, family, data, bad, route):
        make, valid = _DENSITY_FAMILIES[family]
        name = data.draw(st.sampled_from(sorted(valid)))

        def build(params):
            if route == "constructor":
                return make(**params)
            raw = {"kind": "density", "family": family, "params": dict(params)}
            if route == "support":
                raw["support"] = [raw["params"].pop("a"), raw["params"].pop("b")]
            return distribution_from_descriptor(raw)

        assert build(valid).density_params == valid
        error = ConstructionError if route == "constructor" else InputFormatError
        with pytest.raises(error):
            build({**valid, name: bad})

    def test_reflection_through_an_infinite_center(self):
        with pytest.raises(ConstructionError, match="finite parameters"):
            reflected(uniform(0.0, 1.0), math.inf)
