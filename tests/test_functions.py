"""Catalog, combinator, Taylor-remainder and inverse-composition tests.

The standing derivative oracle is the central finite difference: every
analytic entry must match the finite difference of its predecessor at
random interior points.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import numeric_fields
from hypothesis import given, settings
from hypothesis import strategies as st

import pconvex

from pconvex.errors import (
    ConstructionError,
    DerivativeOrderError,
    DomainError,
    InputFormatError,
    MonotonicityError,
)
from pconvex.convexity import certify_p_convex
from pconvex.functions import (
    _power_rows,
    affine_precompose,
    antiderivative_from,
    compose_inverse,
    derivative_function,
    exp_taylor_remainder,
    exponential,
    function_from_descriptor,
    function_to_descriptor,
    log_affine,
    nonneg_weighted_sum,
    numeric_function,
    polynomial,
    shifted_power,
    taylor_remainder,
)
from pconvex.hermite import abs_derivative

try:
    import mpmath
except ImportError:  # test-only dependency
    mpmath = None
from pconvex.numerics import fd_derivative, invert_monotone


def catalog_zoo():
    """Representative members with sensible check windows (lo, hi)."""
    return [
        (shifted_power(2.0), 0.1, 3.0),
        (shifted_power(5.0, shift=1.0), 1.1, 4.0),
        (shifted_power(3.5), 0.2, 2.0),
        (exponential(1.0), 0.0, 2.0),
        (exponential(0.7), 0.0, 3.0),
        (exp_taylor_remainder(2), 0.05, 3.0),
        (exp_taylor_remainder(4), 0.05, 2.0),
        (log_affine(0.6), 0.05, 0.59),
        (polynomial([0.0, 0.0, 1.0, 2.0]), 0.0, 1.0),
        (affine_precompose(shifted_power(3.0), 2.0, 0.0), 0.1, 1.5),
        (nonneg_weighted_sum([(0.5, shifted_power(2.0)), (2.0, shifted_power(4.0))]), 0.1, 2.0),
    ]


class TestDerivativeStacks:
    @pytest.mark.parametrize("f,lo,hi", catalog_zoo(),
                             ids=lambda v: getattr(v, "label", repr(v)))
    def test_each_entry_matches_fd_of_predecessor(self, f, lo, hi):
        rng = np.random.default_rng(7)
        xs = rng.uniform(lo, hi, size=25)
        depth = min(f.analytic_depth, 4)
        for k in range(1, depth + 1):
            for x in xs:
                want = fd_derivative(lambda t: f.eval_on(t, k - 1), float(x), 1)
                got = float(f.eval_on(float(x), k))
                assert got == pytest.approx(want, rel=1e-4, abs=1e-6), (f.label, k, x)

    def test_shifted_power_stack(self):
        f = shifted_power(2.0)
        assert float(f(3.0)) == pytest.approx(9.0)
        assert float(f.eval_on(3.0, 1)) == pytest.approx(6.0)
        assert float(f.eval_on(3.0, 2)) == pytest.approx(2.0)
        assert float(f.eval_on(3.0, 3)) == 0.0

    def test_exponential_stack(self):
        f = exponential(1.0)
        for k in range(5):
            assert float(f.eval_on(1.3, k)) == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_log_affine_critical_point(self):
        f = log_affine(0.6)
        assert float(f(0.6)) == pytest.approx(math.log(0.6) - 1.0, rel=1e-12)
        assert float(f.eval_on(0.6, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_vectorized_evaluation(self):
        f = exp_taylor_remainder(2)
        xs = np.linspace(0.0, 2.0, 11)
        vals = f.eval_on(xs)
        assert vals.shape == xs.shape
        assert vals[0] == pytest.approx(0.0, abs=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ConstructionError):
            shifted_power(0.5)
        with pytest.raises(ConstructionError):
            log_affine(-1.0)
        with pytest.raises(ConstructionError):
            nonneg_weighted_sum([(-1.0, shifted_power(2.0))])
        with pytest.raises(ConstructionError):
            polynomial([])

    @pytest.mark.parametrize("p", [170, 200, 10 ** 6])
    def test_exp_tail_order_past_float_factorials_rejected(self, p):
        # (p + 1)! overflowed a float: a bare OverflowError at the first evaluation
        with pytest.raises(DomainError, match="p must be < 170"):
            exp_taylor_remainder(p)

    def test_exp_tail_largest_order(self):
        # T_169(1) = sum_{j>=170} 1/j!, about 1/170!
        got = float(exp_taylor_remainder(169)(1.0))
        assert got == pytest.approx(1.0 / math.factorial(170), rel=1e-2)

    def test_order_cap(self):
        f = numeric_function(lambda x: x * x, (0.0, 1.0))
        with pytest.raises(DerivativeOrderError):
            f.eval_on(0.5, 5)


class TestNumericJet:
    """A numeric function's jet rows 1..4 are finite differences that stay
    inside its domain: central where the stencil fits, one-sided into the
    domain at and near its ends."""

    @settings(max_examples=60, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3),
           inner=st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_fn_is_never_called_outside_the_domain(self, lo, width, inner):
        hi = lo + width
        seen = []

        def fn(x):
            seen.append(np.ravel(x))
            return np.sin(x)

        f = numeric_function(fn, (lo, hi))
        xs = np.array([lo, hi] + [lo + u * (hi - lo) for u in inner]).clip(lo, hi)
        rows = f.derivatives_on(xs, 1, 4)
        for k in range(1, 5):
            for x in (lo, hi):
                rows.append(f.eval_on(x, k))
        seen = np.concatenate(seen)
        assert lo <= seen.min() and seen.max() <= hi
        assert all(np.all(np.isfinite(r)) for r in rows)

    @pytest.mark.parametrize("fn, domain, x, orders, rel", [
        # the steps of orders 2-4 (5e-4 to 3e-3) are not small against 1e-3,
        # so there only order 1 is accurate
        (math.log, (1e-3, 0.6), 1e-3, (1,), 2e-3),
        (math.log, (1e-3, 0.6), 0.6, (1, 2, 3, 4), 2e-3),
        (math.exp, (0.0, 1.0), 0.0, (1, 2, 3, 4), 1e-4),
    ], ids=["log-left", "log-right", "exp-left"])
    def test_one_sided_orders_at_the_ends(self, fn, domain, x, orders, rel):
        truth = {math.log: lambda k: (-1) ** (k - 1) * math.factorial(k - 1) * x ** -k,
                 math.exp: lambda k: math.exp(x)}[fn]
        f = numeric_function(fn, domain)
        for k in orders:
            assert float(f.eval_on(x, k)) == pytest.approx(truth(k), rel=rel), k

    def test_orders_near_a_singular_end_keep_their_signs(self):
        f = numeric_function(math.log, (1e-3, 0.6))
        got = f.derivatives_on(np.array([1e-3]), 1, 4)
        assert [float(np.sign(r[0])) for r in got] == [1.0, -1.0, 1.0, -1.0]

    def test_rows_past_the_jet_raise(self):
        f = numeric_function(lambda x: x * x, (0.0, 1.0))
        assert f.analytic_depth == 4
        with pytest.raises(DerivativeOrderError, match="outside its stack 0..4"):
            f.derivatives_on(np.linspace(0.0, 1.0, 5), 3, 5)


class TestTaylorRemainder:
    def test_exp_p2_value(self):
        # Oracle: e - (1 + 1 + 1/2) evaluated in closed form.
        r = taylor_remainder(exponential(1.0), 2)
        assert float(r(1.0)) == pytest.approx(math.e - 2.5, rel=1e-12)

    def test_vanishing_derivatives_at_zero(self):
        for p in (1, 2, 3):
            r = taylor_remainder(exponential(1.0), p)
            for k in range(p + 1):
                assert abs(float(r.eval_on(0.0, k))) <= 1e-12, (p, k)

    def test_matches_exp_tail_family(self):
        r = taylor_remainder(exponential(1.0), 2)
        t = exp_taylor_remainder(2)
        for x in (0.1, 0.5, 1.0, 2.5):
            assert float(r(x)) == pytest.approx(float(t(x)), rel=1e-10, abs=1e-13)

    def test_pure_power_passthrough(self):
        # x^5 has no Taylor terms below order 5 at 0.
        r = taylor_remainder(shifted_power(5.0), 2)
        for x in (0.2, 1.0, 1.7):
            assert float(r(x)) == pytest.approx(x ** 5, rel=1e-12)

    def test_needs_derivatives(self):
        # a numeric function's jet stops at order 4
        f = numeric_function(lambda x: x ** 3, (0.0, 1.0))
        with pytest.raises(DerivativeOrderError):
            taylor_remainder(f, 5)

    def test_needs_zero_anchor(self):
        with pytest.raises(DomainError):
            taylor_remainder(shifted_power(3.0, shift=1.0), 1)


class TestAntiderivative:
    def test_raises_power_by_one(self):
        g = shifted_power(2.0, domain=(0.0, 2.0))  # g(z) = z^2, g(0) = 0
        f = antiderivative_from(g)
        assert float(f(1.5)) == pytest.approx(1.5 ** 3 / 3.0, rel=1e-9)
        assert float(f.eval_on(1.2, 1)) == pytest.approx(1.44, rel=1e-12)

    def test_offset_removed(self):
        g = polynomial([1.0, 0.0, 1.0], domain=(0.0, 2.0))  # 1 + z^2
        f = antiderivative_from(g)
        assert float(f.eval_on(0.0, 1)) == pytest.approx(0.0, abs=1e-14)


class TestComposeInverse:
    def test_quartic_over_square_is_square(self):
        comp = compose_inverse(shifted_power(4.0, domain=(0.0, 4.0)),
                               shifted_power(2.0, domain=(0.0, 4.0)))
        for y in (0.25, 1.0, 4.0):
            assert float(comp(y)) == pytest.approx(y * y, rel=1e-9)
        assert float(comp.eval_on(1.0, 1)) == pytest.approx(2.0, rel=1e-8)
        assert float(comp.eval_on(1.0, 2)) == pytest.approx(2.0, rel=1e-8)

    def test_self_composition_is_identity(self):
        f = shifted_power(3.0, domain=(0.0, 2.0))
        comp = compose_inverse(f, f)
        for y in (0.1, 1.0, 7.9):
            assert float(comp(y)) == pytest.approx(y, rel=1e-9, abs=1e-12)

    def test_roundtrip_through_forward_map(self):
        l = polynomial([0.0, 0.0, 1.0, 1.0], domain=(0.0, 2.0))  # x^2 + x^3
        f = shifted_power(2.0, domain=(0.0, 2.0))
        comp = compose_inverse(l, f)
        for x in np.linspace(0.05, 2.0, 9):
            assert float(comp(float(f(x)))) == pytest.approx(float(l(x)), rel=1e-8, abs=1e-10)

    def test_provenance_mixed(self):
        # an analytic l over a numeric f (or the reverse) is "mixed"; two
        # numeric ones are "numeric"
        square = numeric_function(lambda x: x * x, (0.5, 2.0), label="numeric-square")
        quartic = shifted_power(4.0, domain=(0.5, 2.0))
        assert compose_inverse(quartic, square).provenance == "mixed"
        assert compose_inverse(square, quartic).provenance == "mixed"
        assert compose_inverse(square, square).provenance == "numeric"
        # the composed jet reaches every order both stacks reach
        assert abs(float(compose_inverse(quartic, square).eval_on(1.0, 3))) < 1e-4

    def test_provenance_analytic(self):
        # two analytic specs compose to an analytic one: the anchor at
        # y_lo is read from leading terms, not at a clamped point
        comp = compose_inverse(shifted_power(4.0, domain=(0.0, 2.0)),
                               shifted_power(2.0, domain=(0.0, 2.0)))
        assert comp.provenance == "analytic"
        assert comp.derivatives_on(0.0, 0, 4) == [0.0, 0.0, 2.0, 0.0, 0.0]
        assert abs(float(comp.eval_on(1.0, 3))) < 1e-12

    def test_array_evaluation_matches_scalar_calls(self):
        comp = compose_inverse(shifted_power(4.0, domain=(0.0, 4.0)),
                               shifted_power(2.0, domain=(0.0, 4.0)))
        ys = np.linspace(0.1, 16.0, 9)
        for k in range(4):
            want = [float(comp.eval_on(float(y), k)) for y in ys]
            assert comp.eval_on(ys, k).tolist() == want, k

    def test_decreasing_rejected(self):
        g = polynomial([1.0, -1.0], domain=(0.0, 1.0))  # 1 - x
        with pytest.raises(MonotonicityError):
            compose_inverse(shifted_power(2.0), g)


class TestLeadingTerms:
    """Each family's leading term (mu, c) of f(x) - f(lo) ~ c (x - lo)^mu at
    its left end, against its closed form; the composition reads its anchor
    rows from them."""

    @pytest.mark.parametrize("f, want", [
        (shifted_power(2.5), (2.5, 1.0)),
        (shifted_power(4.0, shift=1.0, domain=(1.0, 3.0)), (4.0, 1.0)),
        (shifted_power(3.0, shift=1.0, domain=(2.0, 3.0)), (1.0, 3.0)),  # 3 (2 - 1)^2
        (exponential(0.7), (1.0, 0.7)),
        (exp_taylor_remainder(3), (4.0, 1.0 / 24.0)),
        (log_affine(0.5, domain=(0.25, 0.5)), (1.0, 2.0)),  # 1/x - 1/b at 0.25
        (polynomial([1.0, 0.0, 3.0, 1.0]), (2.0, 3.0)),
        (affine_precompose(shifted_power(2.5), 2.0, 0.0), (2.5, 2.0 ** 2.5)),
        (affine_precompose(shifted_power(3.0, shift=1.0), 2.0, 1.0), (3.0, 8.0)),
        (nonneg_weighted_sum([(2.0, shifted_power(2.5)), (3.0, shifted_power(1.5))]),
         (1.5, 3.0)),
        (nonneg_weighted_sum([(1.0, shifted_power(2.5)), (2.0, shifted_power(2.5))]),
         (2.5, 3.0)),
        (nonneg_weighted_sum([(1.0, shifted_power(2.5, domain=(0.0, 1.0))),
                              (0.5, polynomial([0.0, 0.0, 1.0]))]), (2.0, 0.5)),
        (taylor_remainder(exponential(1.0), 2), (3.0, 1.0 / 6.0)),
        (compose_inverse(shifted_power(4.5, domain=(0.0, 2.0)),
                         shifted_power(1.5, domain=(0.0, 2.0))), (3.0, 1.0)),
        (compose_inverse(shifted_power(2.0, domain=(0.0, 2.0)),
                         affine_precompose(shifted_power(2.0), 3.0, 0.0, (0.0, 2.0))),
         (1.0, 1.0 / 9.0)),
    ], ids=lambda v: getattr(v, "label", None))
    def test_closed_form(self, f, want):
        mu, c = f.leading_term()
        assert mu == want[0] and c == pytest.approx(want[1], rel=1e-14)

    @pytest.mark.parametrize("f", [
        derivative_function(shifted_power(4.5)),  # 4.5 x^3.5: row 4 is infinite at 0
        taylor_remainder(shifted_power(2.5), 1),  # x^2.5: row 3 is infinite at 0
        exponential(0.0),  # constant: every row is 0
    ], ids=lambda f: f.label)
    def test_none_where_the_jet_cannot_show_it(self, f):
        assert f.leading is None and f.leading_term() is None

    @pytest.mark.parametrize("f", [f for f, _, _ in catalog_zoo()]
                             + [shifted_power(2.5, domain=(0.0, 4.0)),
                                affine_precompose(shifted_power(2.5), 2.0, 0.0)],
                             ids=lambda f: f.label)
    def test_a_rebuilt_spec_keeps_it(self, f):
        # dataclasses.replace, as a tracer rebuilds a spec from its views,
        # carries the stated term and reads the same one off the rebuilt jet
        copy = dataclasses.replace(f, eval_fn=f.eval_fn, derivatives=f.derivatives)
        assert copy.leading == f.leading
        assert copy.leading_term() == f.leading_term()

    @pytest.mark.parametrize("leading", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0),
                                         (2.0, 0.0), (2.0, math.nan)])
    def test_invalid_rejected(self, leading):
        with pytest.raises(ConstructionError, match="invalid leading term"):
            dataclasses.replace(shifted_power(2.0), leading=leading)

    def test_anchor_without_a_leading_term_fails_closed(self):
        # f'(0) = 0 and f's first nonzero row at 0 is infinite: the rows of
        # the composition at y_lo have no one-sided limit to read
        f = taylor_remainder(shifted_power(2.5, domain=(0.0, 4.0)), 1)
        with pytest.raises(MonotonicityError, match="no leading term.*anchor at y = 0.0"):
            compose_inverse(shifted_power(3.0), f, 2.0)

    def test_l_is_read_where_f_starts(self):
        # l = x^2 on [0, 10] against f = (x - 1)^2 on [1, 10]: at f's start
        # l has the term (1, 2), so l o f^(-1) = (1 + sqrt(y))^2 has an
        # infinite first derivative at 0, not l's own (2, 1) at 0 over f's
        comp = compose_inverse(shifted_power(2.0, domain=(0.0, 10.0)),
                               shifted_power(2.0, 1.0, (1.0, 10.0)))
        assert comp.leading == (0.5, 2.0)
        assert float(comp.eval_on(0.0, 1)) == math.inf

    @pytest.mark.parametrize("q_l, q_f, rows", [
        (4.0, 2.0, [0.0, 2.0, 0.0, 0.0]),  # y^2
        (3.0, 2.0, [0.0, math.inf, -math.inf, math.inf]),  # y^1.5
        (2.0, 2.0, [1.0, 0.0, 0.0, 0.0]),  # y
        (2.5, 1.0, [0.0, 0.0, math.inf, -math.inf]),  # y^2.5, f'(lo) = 1
        (7.0, 1.0, [0.0, 0.0, 0.0, 0.0]),  # y^7, the reversion at lo
    ])
    def test_anchor_rows_are_one_sided_limits(self, q_l, q_f, rows):
        comp = compose_inverse(shifted_power(q_l, domain=(0.0, 3.0)),
                               shifted_power(q_f, domain=(0.0, 3.0)))
        assert [float(r) for r in comp.derivatives_on(0.0, 1, 4)] == rows
        # the clamp that read them at 1e-9 of the range is gone: past y_lo
        # the rows are the reversion's, in one array call with y_lo
        ys = np.array([0.0, 1e-9, 0.5])
        got = comp.derivatives_on(ys, 1, 4)
        assert [float(r[0]) for r in got] == rows
        assert all(np.isfinite(r[1:]).all() for r in got)


# the keys a function descriptor reads: at the top level, and in the params
# of each family
_READS = {"top": ("family", "params", "domain"),
          "shifted-power": ("q", "a"), "exponential": ("s",), "exp-taylor-remainder": ("p",),
          "log-affine": ("b",), "polynomial": ("coeffs",),
          "affine-precompose": ("scale", "offset", "inner"), "nonneg-weighted-sum": ("terms",)}

_SMALL = st.floats(min_value=-3.0, max_value=3.0)


def _catalog_function():
    """A member of every catalog family, built by its constructor."""
    power = st.builds(lambda q, a: shifted_power(q, a, (a, a + 2.0)),
                      st.floats(min_value=1.0, max_value=6.0), _SMALL)
    unit_power = st.builds(lambda q: shifted_power(q, domain=(0.0, 2.0)),
                           st.floats(min_value=1.0, max_value=6.0))
    return st.one_of(
        power,
        st.builds(lambda s: exponential(s, (0.0, 2.0)), _SMALL),
        st.builds(lambda p: exp_taylor_remainder(p, (0.0, 1.0)), st.integers(0, 20)),
        st.builds(log_affine, st.floats(min_value=0.1, max_value=5.0)),
        st.builds(polynomial, st.lists(_SMALL, min_size=1, max_size=5)),
        st.builds(affine_precompose, power, st.floats(min_value=0.5, max_value=2.0), _SMALL),
        st.builds(nonneg_weighted_sum, st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=3.0), unit_power),
            min_size=1, max_size=3)))


class TestDescriptors:
    @pytest.mark.parametrize("descriptor", [
        {"family": "shifted-power", "params": {"q": 2.0, "a": 0.0}, "domain": [0.0, 1.0]},
        {"family": "exponential", "params": {"s": 1.0}, "domain": [0.0, "inf"]},
        {"family": "exp-taylor-remainder", "params": {"p": 2}, "domain": [0.0, 3.0]},
        {"family": "log-affine", "params": {"b": 0.6}, "domain": [1e-3, 0.6]},
        {"family": "polynomial", "params": {"coeffs": [0.0, 0.0, 1.0]}, "domain": [0.0, 2.0]},
        {"family": "affine-precompose",
         "params": {"scale": 2.0, "offset": 1.0,
                    "inner": {"family": "shifted-power", "params": {"q": 3.0, "a": 1.0}}},
         "domain": [0.0, 5.0]},
        {"family": "nonneg-weighted-sum",
         "params": {"terms": [
             {"weight": 1.0, "function": {"family": "shifted-power", "params": {"q": 2.0, "a": 0.0}}},
             {"weight": 0.5, "function": {"family": "shifted-power", "params": {"q": 4.0, "a": 0.0}}}]},
         "domain": [0.0, 2.0]},
    ], ids=lambda d: d["family"])
    def test_roundtrip_is_lossless(self, descriptor):
        f = function_from_descriptor(descriptor)
        back = function_to_descriptor(f)
        again = function_from_descriptor(back)
        assert function_to_descriptor(again) == back
        for x in np.linspace(f.domain[0], min(f.upper_cap, f.domain[0] + 2.0), 7):
            assert float(again(float(x))) == pytest.approx(float(f(float(x))), rel=1e-14, abs=1e-14)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputFormatError):
            function_from_descriptor({"family": "sine", "params": {}})
        with pytest.raises(InputFormatError):
            function_from_descriptor({"params": {}})

    def test_missing_param(self):
        with pytest.raises(ConstructionError, match="missing parameter 'b'"):
            function_from_descriptor({"family": "log-affine", "params": {}})

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(f=_catalog_function(), data=st.data())
    def test_writer_round_trips_and_unread_keys_fail_closed(self, f, data):
        desc = function_to_descriptor(f)
        assert function_to_descriptor(function_from_descriptor(desc)) == desc
        fam = desc["family"]
        where = data.draw(st.sampled_from(["top", "params"]))
        reads = _READS["top"] if where == "top" else _READS[fam]
        key = data.draw(st.text(max_size=6).filter(lambda k: k not in reads))
        stray = {**desc, "params": dict(desc["params"])}
        (stray if where == "top" else stray["params"])[key] = 1.0
        with pytest.raises(InputFormatError, match=re.escape(f"nothing reads {key!r}")):
            function_from_descriptor(stray)
        # a JSON boolean in any numeric field (float(True) is 1.0)
        flipped = json.loads(json.dumps(desc))
        container, slot, name = data.draw(st.sampled_from(numeric_fields(flipped)))
        container[slot] = data.draw(st.booleans())
        with pytest.raises(InputFormatError, match=re.escape(f"{name!r} holds a boolean")):
            function_from_descriptor(flipped)

    def test_derivative_function_view(self):
        f = shifted_power(4.0, domain=(0.0, 2.0))
        g = derivative_function(f)
        assert float(g(1.0)) == pytest.approx(4.0)
        assert float(g.eval_on(1.0, 1)) == pytest.approx(12.0)


class TestCombinatorEdges:
    def test_negative_scale_flips_domain(self):
        inner = shifted_power(2.0, domain=(0.0, 4.0))
        g = affine_precompose(inner, -1.0, 4.0)  # g(x) = (4 - x)^2
        assert g.domain == (0.0, 4.0)
        assert float(g(1.0)) == pytest.approx(9.0)
        assert float(g.eval_on(1.0, 1)) == pytest.approx(-6.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(ConstructionError):
            affine_precompose(shifted_power(2.0), 0.0, 1.0)

    def test_overflowing_scale_fails_closed(self):
        # scale^2 = 1e320 leaves double range: the row is inf where a float
        # ** raised a bare OverflowError, and certification returns a failing
        # certificate (no exception) whose margins are not all finite
        g = affine_precompose(shifted_power(2.0), 1e160, 0.0)
        with np.errstate(invalid="ignore"):
            assert float(g.eval_on(1e-170, 2)) == math.inf
            cert = certify_p_convex(g, 1, 0.0, 1e-170)
        assert cert.verdict == "fail"
        assert not all(map(math.isfinite, cert.margins.values()))
        # _power_rows takes its scale as an array (the sweep's b) or 1.0, so
        # its scale^k is numpy's power, which overflows to inf
        with np.errstate(over="ignore"):
            rows = _power_rows(np.array([1.0]), 2.0, 0, 2, np.array([1e160]))
        assert rows[2][0] == math.inf

    def test_weighted_sum_domain_intersection(self):
        a = shifted_power(2.0, domain=(0.0, 1.0))
        b = shifted_power(3.0, domain=(0.5, 2.0))
        s = nonneg_weighted_sum([(1.0, a), (1.0, b)])
        assert s.domain == (0.5, 1.0)

    def test_disjoint_domains_rejected(self):
        a = shifted_power(2.0, domain=(0.0, 1.0))
        b = shifted_power(3.0, shift=2.0, domain=(2.0, 3.0))
        with pytest.raises(ConstructionError):
            nonneg_weighted_sum([(1.0, a), (1.0, b)])

    def test_exp_tail_derivatives_past_its_order(self):
        t = exp_taylor_remainder(2)
        # third and higher derivatives of the order-2 tail are plain exp
        for k in (3, 4, 5):
            assert float(t.eval_on(0.7, k)) == pytest.approx(math.exp(0.7), rel=1e-12)


class TestInversionRoundtrip:
    """invert_monotone composed with f is the identity on monotone catalog
    members (the kernel-level contract the certainty equivalent relies on)."""

    @pytest.mark.parametrize("f,lo,hi", [
        (shifted_power(2.0, domain=(0.0, 4.0)), 0.05, 4.0),
        (shifted_power(3.5, shift=1.0, domain=(1.0, 5.0)), 1.1, 5.0),
        (exponential(1.0, domain=(0.0, 3.0)), 0.0, 3.0),
        (exp_taylor_remainder(2, domain=(0.0, 3.0)), 0.2, 3.0),
        (log_affine(0.6), 0.01, 0.55),
        (polynomial([0.0, 1.0, 1.0, 1.0], domain=(0.0, 2.0)), 0.0, 2.0),
    ], ids=lambda v: getattr(v, "label", repr(v)))
    def test_roundtrip(self, f, lo, hi):
        from pconvex.numerics import invert_monotone
        for x in np.linspace(lo, hi, 9):
            y = float(f(float(x)))
            back = invert_monotone(f, y, (f.domain[0], hi))
            assert back == pytest.approx(float(x), rel=1e-9, abs=1e-9)


def _jet_cases():
    """name -> (spec, its mpmath expression, window of interior points)."""
    cube_plus_exp = nonneg_weighted_sum([(1.0, exponential(1.0, domain=(0.0, 2.0))),
                                         (1.0, polynomial([0.0, 0.0, 0.0, 1.0], (0.0, 2.0)))])
    return {
        "shifted-power": (shifted_power(3.5, shift=0.5), lambda t: (t - 0.5) ** 3.5, (0.7, 3.0)),
        "exponential": (exponential(0.7), lambda t: mpmath.exp(0.7 * t), (0.0, 3.0)),
        "exp-taylor-remainder": (exp_taylor_remainder(2),
                                 lambda t: mpmath.exp(t) - 1 - t - t * t / 2, (0.05, 3.0)),
        "log-affine": (log_affine(0.6), lambda t: mpmath.log(t) - t / 0.6, (0.05, 0.5)),
        "polynomial": (polynomial([0.5, 1.0, 2.0, 3.0], (0.0, 2.0)),
                       lambda t: 0.5 + t + 2 * t ** 2 + 3 * t ** 3, (0.1, 2.0)),
        "affine-precompose": (affine_precompose(shifted_power(3.0), 2.0, 0.5),
                              lambda t: (2 * t + 0.5) ** 3, (0.1, 1.5)),
        "nonneg-weighted-sum": (cube_plus_exp, lambda t: mpmath.exp(t) + t ** 3, (0.1, 2.0)),
        "derivative-function": (derivative_function(shifted_power(4.5), 1),
                                lambda t: 4.5 * t ** 3.5, (0.1, 3.0)),
        "antiderivative": (antiderivative_from(shifted_power(2.0, domain=(0.0, 2.0))),
                           lambda t: t ** 3 / 3, (0.2, 2.0)),
        "taylor-remainder": (taylor_remainder(exponential(1.0, domain=(0.0, 3.0)), 2),
                             lambda t: mpmath.exp(t) - 1 - t - t * t / 2, (0.5, 3.0)),
        "abs-derivative": (abs_derivative(polynomial([1.0, -1.0, -1.0, -0.5], (0.0, 1.0))),
                           lambda t: 1 + 2 * t + 1.5 * t * t, (0.0, 1.0)),
    }


def _inverse_cases():
    """name -> (l, f, their mpmath expressions, window of y)."""
    return {
        "x^4 o inv[x^2]": (shifted_power(4.0, domain=(0.0, 4.0)),
                           shifted_power(2.0, domain=(0.0, 4.0)),
                           lambda t: t ** 4, lambda t: t ** 2, (0.5, 16.0)),
        "x^2 o inv[x^4]": (shifted_power(2.0, domain=(0.0, 2.0)),
                           shifted_power(4.0, domain=(0.0, 2.0)),
                           lambda t: t ** 2, lambda t: t ** 4, (0.5, 16.0)),
        "(e^x + x^3) o inv[x + x^3]": (
            _jet_cases()["nonneg-weighted-sum"][0], polynomial([0.0, 1.0, 0.0, 1.0], (0.0, 2.0)),
            lambda t: mpmath.exp(t) + t ** 3, lambda t: t + t ** 3, (0.2, 9.5)),
    }


_JETS = _jet_cases()
_INVERSES = _inverse_cases()
_ORDERS = 6


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
class TestJetsAgainstMpmath:
    """Every family and combinator, and the inverse composition, against
    mpmath's Taylor coefficients at 40 digits, orders 0-6."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_JETS)), u=st.floats(min_value=0.0, max_value=1.0))
    def test_relative_error(self, name, u):
        f, expr, (lo, hi) = _JETS[name]
        x = lo + u * (hi - lo)
        got = f.taylor(x, 0, _ORDERS)
        with mpmath.workdps(40):
            want = mpmath.taylor(expr, mpmath.mpf(x), _ORDERS)
            for k, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-12 * abs(w), (name, x, k, g, w)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_INVERSES)), u=st.floats(min_value=0.0, max_value=1.0))
    def test_inverse_composition(self, name, u):
        # the reference is taken at f(x) for the solved point x, so only the
        # jet arithmetic is measured; a coefficient that vanishes is held to
        # 1e-12 of the jet's size at the scale of the point
        l, f, l_expr, f_expr, (lo, hi) = _INVERSES[name]
        y = lo + u * (hi - lo)
        got = compose_inverse(l, f).taylor(y, 0, _ORDERS)
        x = invert_monotone(f, y, (f.domain[0], f.upper_cap))
        with mpmath.workdps(40):
            y_solved = f_expr(mpmath.mpf(x))
            want = mpmath.taylor(
                lambda t: l_expr(mpmath.findroot(lambda s: f_expr(s) - t, x)), y_solved, _ORDERS)
            size = [max(abs(w) * y ** (j - k) for j, w in enumerate(want))
                    for k in range(_ORDERS + 1)]
            for k, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-12 * max(abs(w), size[k]), (name, y, k, g, w)


def _rebuilt(f):
    """f rebuilt by dataclasses.replace from wrapped copies of its views (as a
    tracer rebuilds it), so that it evaluates through a jet of callables."""
    return dataclasses.replace(f, eval_fn=lambda x: f.eval_fn(x),
                               derivatives=tuple(lambda x, d=d: d(x) for d in f.derivatives))


class TestOneDerivativeMechanism:
    def test_spec_rebuilt_from_its_callables_has_the_same_jet(self):
        """dataclasses.replace with wrapped callables (as a tracer does)
        evaluates through them, with the jet's values bit for bit."""
        ys = np.linspace(0.5, 9.5, 33)
        l, f = _INVERSES["(e^x + x^3) o inv[x + x^3]"][:2]
        for a, b in [(l, _rebuilt(l)), (compose_inverse(l, f),
                                        compose_inverse(_rebuilt(l), _rebuilt(f)))]:
            np.testing.assert_array_equal(b.taylor(ys, 0, 6), a.taylor(ys, 0, 6))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_JETS)), u=st.floats(min_value=0.0, max_value=1.0))
    def test_every_view_of_a_rebuilt_spec_has_the_jets_bits(self, name, u):
        """A rebuilt spec gives eval_on, derivatives_on and taylor the bits of
        the jet it was rebuilt from at every order of the stack, and both
        raise one order past it."""
        f, _, (lo, hi) = _JETS[name]
        g = _rebuilt(f)
        xs = np.array([lo, lo + u * (hi - lo), hi])
        depth = f.analytic_depth
        assert g.analytic_depth == depth
        for k in range(depth + 1):
            np.testing.assert_array_equal(g.eval_on(xs, k), f.eval_on(xs, k))
            np.testing.assert_array_equal(g.eval_on(float(xs[1]), k),
                                          f.eval_on(float(xs[1]), k))
        for got, want in zip(g.derivatives_on(xs, 0, depth), f.derivatives_on(xs, 0, depth),
                             strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(g.taylor(xs, 0, depth), f.taylor(xs, 0, depth))
        for spec in (f, g):
            with pytest.raises(DerivativeOrderError, match="outside its stack"):
                spec.eval_on(xs, depth + 1)
            with pytest.raises(DerivativeOrderError, match="outside its stack"):
                spec.derivatives_on(xs, 0, depth + 1)

    def test_only_functions_builds_derivative_stacks(self):
        """No module but functions.py builds a spec from per-order callables
        or imports its derivative-coefficient helpers, and no module or test
        calls a method named derivative (a spec reads an order through
        eval_on)."""
        found = []
        modules = [path for path in sorted(Path(pconvex.__file__).parent.glob("*.py"))
                   if path.name != "functions.py"]
        for path in modules + sorted(Path(__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "derivative":
                    found.append(f"{path.name}:{node.lineno}")
                if path not in modules:
                    continue
                if isinstance(node, ast.Call) and any(kw.arg == "derivatives"
                                                      for kw in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and any(
                        alias.name == "_falling_factorial" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}")
        assert not found
