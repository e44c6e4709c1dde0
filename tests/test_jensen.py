"""Tightened Jensen bounds: golden cases, sandwich, tightness, equality.

Golden values are frozen from hand computations cross-checked against the
expect() oracle (see test bodies); the sandwich and tightness sweeps are
the property-level contract.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex import numerics
from pconvex.convexity import certify_p_concave, certify_p_convex
from pconvex.distributions import (
    RandomVariable,
    beta_like,
    density,
    discrete,
    from_sample,
    point_mass,
    two_point,
    uniform,
)
from pconvex.errors import CertificateError, UnboundedSupportError
from pconvex.functions import log_affine, polynomial, shifted_power
from pconvex.jensen import jensen_lower, jensen_lower_decreasing, jensen_upper

from conftest import certified_members, random_bounded_rv


def _cert(f, p, a, b):
    cert = certify_p_convex(f, p, a, b)
    assert cert.passed, (f.label, cert.witness)
    return cert


class TestJensenLowerGolden:
    def test_cube_fair_coin(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        rep = jensen_lower(f, _cert(f, 1, 0.0, 1.0), two_point(0.0, 1.0, 0.5))
        # oracle: E X^3 = 0.5 by exact sum; value = (E X^2)^(3/2) = 0.5^1.5
        assert rep.value == pytest.approx(0.5 ** 1.5, abs=1e-9)
        assert rep.oracle == pytest.approx(0.5, abs=1e-15)
        assert rep.classical == pytest.approx(0.125, abs=1e-15)
        assert rep.direction == "lower"
        assert rep.gap_to_oracle >= 0.0
        assert rep.gap_to_classical >= 0.0

    def test_power_equality_case(self):
        # f = (x-a)^(p+1) turns the bound into an identity
        for p in (1, 2, 3):
            f = shifted_power(p + 1.0, domain=(0.0, 1.0))
            X = discrete([0.1, 0.4, 0.9], [0.2, 0.5, 0.3])
            rep = jensen_lower(f, _cert(f, p, 0.0, 1.0), X)
            assert rep.value == pytest.approx(rep.oracle, rel=1e-13)

    def test_point_mass_equality(self):
        f = shifted_power(3.0, domain=(0.0, 2.0))
        rep = jensen_lower(f, _cert(f, 1, 0.0, 2.0), point_mass(1.3))
        assert rep.value == pytest.approx(rep.oracle, rel=1e-12)
        assert rep.oracle == pytest.approx(1.3 ** 3, rel=1e-14)

    def test_failing_certificate_rejected(self):
        f = shifted_power(1.0, domain=(0.0, 1.0))
        cert = certify_p_convex(f, 1, 0.0, 1.0)
        with pytest.raises(CertificateError):
            jensen_lower(f, cert, two_point(0.0, 1.0, 0.5))

    def test_wrong_class_rejected(self):
        f = log_affine(0.6)
        cert = certify_p_concave(f, 1, f.domain[0], 0.6)
        with pytest.raises(CertificateError):
            jensen_lower(f, cert, point_mass(0.5))


class TestJensenUpperGolden:
    def test_cube_uniform(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        rep = jensen_upper(f, _cert(f, 1, 0.0, 1.0), uniform(0.0, 1.0))
        # oracle by quadrature: E X^3 = 1/4; weight m = E X^2 = 1/3
        assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rep.oracle == pytest.approx(0.25, abs=1e-9)
        assert rep.classical == pytest.approx(0.5, abs=1e-12)
        assert rep.direction == "upper"

    def test_two_point_extremal_equality(self):
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = _cert(f, 1, 0.0, 1.0)
        for t in (0.25, 0.5, 0.9):
            rep = jensen_upper(f, cert, two_point(0.0, 1.0, t))
            assert rep.value == pytest.approx(rep.oracle, rel=1e-13)

    def test_point_mass_at_left_endpoint(self):
        f = shifted_power(4.0, domain=(0.0, 1.0))
        rep = jensen_upper(f, _cert(f, 1, 0.0, 1.0), point_mass(0.0))
        assert rep.value == pytest.approx(rep.oracle, abs=1e-13)
        assert rep.value == pytest.approx(float(f(0.0)), abs=1e-13)

    def test_unbounded_support_rejected(self):
        f = shifted_power(2.0, domain=(0.0, math.inf))
        cert = _cert(f, 1, 0.0, 1.0)
        X = discrete([0.0, 2.0], [0.5, 0.5])  # outside [0, 1]
        with pytest.raises(UnboundedSupportError):
            jensen_upper(f, cert, X)


class TestDecreasingClassGolden:
    def test_log_affine_two_point(self):
        b = 0.6
        f = log_affine(b)
        cert = certify_p_concave(f, 1, f.domain[0], b)
        assert cert.passed
        X = discrete([0.4, 0.6], [0.5, 0.5])
        rep = jensen_lower_decreasing(f, cert, X)
        m = b - math.sqrt(0.02)
        want = math.log(m) - m / b  # hand computation: -1.5439212175797101
        assert rep.value == pytest.approx(want, abs=1e-12)
        assert rep.value == pytest.approx(-1.5439212175797101, abs=1e-9)
        assert rep.oracle == pytest.approx(-1.5468915111534063, abs=1e-12)
        # concave direction: oracle <= value <= classical
        assert rep.direction == "upper"
        assert rep.value >= rep.oracle - 1e-12
        assert rep.value <= rep.classical + 1e-12

    def test_point_mass_equality(self):
        f = log_affine(0.6)
        cert = certify_p_concave(f, 1, f.domain[0], 0.6)
        rep = jensen_lower_decreasing(f, cert, point_mass(0.35))
        assert rep.value == pytest.approx(rep.oracle, rel=1e-10)

    def test_negated_square_equality(self):
        b = 1.0
        f = polynomial([-b * b, 2.0 * b, -1.0], domain=(0.0, b))  # -(b-x)^2
        cert = certify_p_concave(f, 1, 0.0, b)
        assert cert.passed
        for t in (0.2, 0.5, 0.8):
            rep = jensen_lower_decreasing(f, cert, two_point(0.0, b, t))
            # both sides equal -E(b-X)^2 = -t b^2
            assert rep.value == pytest.approx(-t * b * b, rel=1e-12)
            assert rep.value == pytest.approx(rep.oracle, rel=1e-12)


class TestUnboundedSupport:
    """The [a, inf) case: bounds from truncated moments, never from b."""

    def test_sample_beyond_certified_window(self):
        # membership of x^2 extends past the certified window; mass beyond
        # it is fine because only the moment enters the bound
        f = shifted_power(2.0, domain=(0.0, math.inf))
        cert = _cert(f, 1, 0.0, 2.0)
        X = from_sample([0.5, 1.5, 3.0, 8.0])
        rep = jensen_lower(f, cert, X)
        assert rep.value <= rep.oracle + 1e-10
        assert rep.value >= rep.classical - 1e-10

    def test_truncated_density_equality_case(self):
        # f = x^2 at order 1 makes the bound an identity: value = E X^2;
        # for a unit-rate exponential density that is 2, reached through the
        # quantile-truncated moment with the truncation in value_error
        f = shifted_power(2.0, domain=(0.0, math.inf))
        cert = _cert(f, 1, 0.0, 2.0)
        X = RandomVariable(kind="density", declared_support=(0.0, math.inf),
                           pdf=lambda x: np.exp(-np.asarray(x, dtype=float)))
        rep = jensen_lower(f, cert, X)
        assert rep.value == pytest.approx(2.0, abs=1e-6)
        assert rep.oracle == pytest.approx(2.0, abs=1e-6)
        assert rep.value <= rep.oracle + 1e-8 + rep.oracle_error + rep.value_error
        assert rep.value_error > 0.0


class TestInputsDigest:
    def test_custom_pdfs_on_one_support_differ(self):
        # both reports carried the digest 23021c4a1016325b
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = _cert(f, 1, 0.0, 1.0)
        reports = [jensen_lower(f, cert, density(pdf, (0.0, 1.0)))
                   for pdf in (lambda x: 2.0 * np.asarray(x),
                               lambda x: 2.0 - 2.0 * np.asarray(x))]
        assert [r.oracle for r in reports] == pytest.approx([0.4, 0.1], abs=1e-12)
        assert reports[0].inputs_digest != reports[1].inputs_digest

    def test_samples_with_one_size_and_mean_differ(self):
        # both reports carried the digest 5fd38446b0e1adc2
        f = shifted_power(3.0, domain=(0.0, 1.0))
        cert = _cert(f, 1, 0.0, 1.0)
        reports = [jensen_lower(f, cert, from_sample(values, (0.0, 1.0)))
                   for values in ([0.0, 1.0], [0.5, 0.5])]
        assert [r.oracle for r in reports] == [0.5, 0.125]
        assert reports[0].inputs_digest != reports[1].inputs_digest
        assert reports[0] != reports[1]

    def test_digest_is_taken_when_read(self, monkeypatch):
        calls = Counter()
        digest = RandomVariable.digest

        def counted(X):
            calls["digest"] += 1
            return digest(X)

        monkeypatch.setattr(RandomVariable, "digest", counted)
        f = shifted_power(3.0, domain=(0.0, 1.0))
        X = from_sample(np.linspace(0.0, 1.0, 10_000))
        rep = jensen_lower(f, _cert(f, 1, 0.0, 1.0), X)
        assert calls["digest"] == 0
        assert rep.inputs_digest is rep.inputs_digest
        assert calls["digest"] == 1
        # the report hashes by its numbers although its sample cannot hash
        assert hash(rep) == hash(jensen_lower(f, _cert(f, 1, 0.0, 1.0), X))


class TestSandwichProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=0.6),
           st.floats(min_value=0.65, max_value=1.0),
           st.floats(min_value=0.02, max_value=0.98),
           st.integers(min_value=1, max_value=3),
           st.floats(min_value=0.0, max_value=3.0))
    def test_two_point_power_sandwich(self, a1, a2, t, p, extra):
        q = p + 1.0 + extra
        f = shifted_power(q, domain=(0.0, 1.0))
        cert = certify_p_convex(f, p, 0.0, 1.0, grid_size=256)
        assert cert.passed
        X = two_point(a1, a2, t)
        lo = jensen_lower(f, cert, X)
        hi = jensen_upper(f, cert, X)
        assert lo.value <= lo.oracle + 1e-10
        assert hi.value >= hi.oracle - 1e-10
        assert lo.value >= lo.classical - 1e-10
        assert hi.value <= hi.classical + 1e-10


class TestSandwichSweep:
    def test_sandwich_and_tightness(self, rng):
        checked = 0
        for p in (1, 2, 3):
            for f, a, b in certified_members(p):
                cert = certify_p_convex(f, p, a, b)
                for _ in range(3):
                    X = random_bounded_rv(rng, a, b)
                    lo = jensen_lower(f, cert, X)
                    hi = jensen_upper(f, cert, X)
                    budget = 1e-8 + lo.oracle_error + hi.oracle_error
                    assert lo.value <= lo.oracle + budget, (f.label, p)
                    assert hi.value >= hi.oracle - budget, (f.label, p)
                    # tightness against the classical pair
                    assert lo.value >= lo.classical - 1e-10
                    assert hi.value <= hi.classical + 1e-10
                    checked += 1
        assert checked >= 60

    def test_monotone_in_p_for_powers(self, rng):
        # higher certification order pushes the lower bound up
        q = 5.0
        f = shifted_power(q, domain=(0.0, 1.0))
        for _ in range(5):
            X = random_bounded_rv(rng, 0.0, 1.0)
            values = []
            for p in (1, 2, 3, 4):
                cert = certify_p_convex(f, p, 0.0, 1.0)
                assert cert.passed
                values.append(jensen_lower(f, cert, X).value)
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-10


class TestSharedNodeSets:
    @pytest.mark.parametrize("p", [1, 2])
    def test_density_bound_builds_each_rule_once(self, monkeypatch, p):
        # the mean, the moment and the oracle each ask for the same rules
        asked, built = Counter(), Counter()
        shared, build = numerics._shared_rule, numerics._graded_rule
        monkeypatch.setattr(numerics, "_shared_rule", lambda *k: asked.update([k]) or shared(*k))
        monkeypatch.setattr(numerics, "_graded_rule", lambda *k: built.update([k]) or build(*k))
        f = shifted_power(3.5, domain=(0.0, 1.0))
        cert = _cert(f, p, 0.0, 1.0)
        shared.cache_clear()
        rep = jensen_lower(f, cert, beta_like(0.0, 1.0, 2.0, 3.0))
        assert rep.value <= rep.oracle
        assert built == Counter(set(asked)) and min(asked.values()) == 3
        info = shared.cache_info()
        assert (info.misses, info.hits) == (len(asked), sum(asked.values()) - len(asked))
