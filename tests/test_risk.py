"""Graded risk aversion (both directions) and the loss-class risk measure."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconvex import risk
from pconvex.convexity import certify_loss_class
from pconvex.distributions import (
    beta_like,
    density,
    discrete,
    from_sample,
    point_mass,
    shifted_moment,
    two_point,
    uniform,
)
from pconvex.errors import DomainError, DomainMismatchError
from pconvex.functions import shifted_power
from pconvex.numerics import QUADRATURE_TOLERANCE, invert_monotone
from pconvex.risk import (
    _certainty_equivalents,
    _Sweep,
    _sweep,
    _sweep_candidates,
    _unit_members,
    certainty_equivalent,
    certify_p_more_risk_averse,
    falsify_p_more_risk_averse,
    risk_measure,
)


class TestCertaintyEquivalent:
    def test_square_fair_coin(self):
        l = shifted_power(2.0, domain=(0.0, 10.0))
        ce = certainty_equivalent(l, two_point(0.0, 1.0, 0.5))
        assert ce == pytest.approx(math.sqrt(0.5), abs=1e-11)

    def test_point_mass_identity(self):
        l = shifted_power(3.0, domain=(0.0, 10.0))
        assert certainty_equivalent(l, point_mass(2.2)) == pytest.approx(2.2, rel=1e-12)

    def test_pure_power_gives_the_norm(self):
        # the closed-form achiever: CE under x^(p+1) is the (p+1)-norm
        X = discrete([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
        for p in (1, 2, 3):
            l = shifted_power(p + 1.0, domain=(0.0, 40.0))
            want = (sum(a ** (p + 1) for a in X.atoms) / 3.0) ** (1.0 / (p + 1))
            assert certainty_equivalent(l, X) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(atoms=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=5),
           weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6),
           with_zero=st.booleans(), q=st.floats(min_value=1.0, max_value=6.0))
    def test_pure_power_is_the_q_norm(self, atoms, weights, with_zero, q):
        # point masses (one atom, or zero alone) and lotteries with inf X = 0 included
        atoms = [0.0] * with_zero + atoms
        probs = np.array(weights[: len(atoms)]) / sum(weights[: len(atoms)])
        X = point_mass(atoms[0]) if len(atoms) == 1 else discrete(atoms, probs)
        want = math.fsum(w * a ** q for w, a in zip(X.probs, X.atoms)) ** (1.0 / q)
        got = certainty_equivalent(shifted_power(q), X)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(min_value=1, max_value=255), q=st.floats(min_value=1.0, max_value=6.0))
    def test_target_on_a_table_node(self, k, q):
        # E l(X) equals l at node k of the 257-point table on [0, 1]
        l = shifted_power(q)
        w = float(l.eval_on(np.linspace(0.0, 1.0, 257))[k])
        X = discrete([0.0, 1.0], [1.0 - w, w])
        assert certainty_equivalent(l, X) == k / 256
        assert certainty_equivalent(l, X) == pytest.approx(w ** (1.0 / q), rel=1e-14)

    def test_unbounded_lottery_fails_closed(self):
        X = density(lambda x: np.exp(-np.asarray(x)), (0.0, math.inf))
        with pytest.raises(DomainError, match="bounded lottery"):
            certainty_equivalent(shifted_power(2.0), X)


class TestGradedComparison:
    def test_quartic_vs_square_certifies_at_two(self):
        l = shifted_power(4.0, domain=(0.0, 12.0))
        f = shifted_power(2.0, domain=(0.0, 12.0))
        comp = certify_p_more_risk_averse(l, f, 2, horizon=10.0)
        assert comp.holds, comp.certificate.witness

    def test_self_comparison_classical_case(self):
        f = shifted_power(2.0, domain=(0.0, 12.0))
        comp = certify_p_more_risk_averse(f, f, 1, horizon=10.0)
        assert comp.holds

    def test_square_vs_quartic_fails(self):
        l = shifted_power(2.0, domain=(0.0, 12.0))
        f = shifted_power(4.0, domain=(0.0, 12.0))
        comp = certify_p_more_risk_averse(l, f, 1, horizon=10.0)
        assert not comp.holds
        assert comp.certificate.witness is not None

    def test_order_validation(self):
        f = shifted_power(2.0, domain=(0.0, 12.0))
        with pytest.raises(DomainError):
            certify_p_more_risk_averse(f, f, 0, horizon=10.0)

    @pytest.mark.parametrize("horizon", [math.nan, -math.inf, -1.0, 0.0])
    def test_horizon_must_exceed_the_domain_start(self, horizon):
        f = shifted_power(2.0, domain=(0.0, 12.0))
        with pytest.raises(DomainError, match="horizon"):
            certify_p_more_risk_averse(f, f, 1, horizon=horizon)

    def test_true_pair_holds_on_default_domains(self):
        # composed up to x = 1e6 (y = 1e12), the clamp sat at y = 1000, far
        # above the certified range [0, 2500]: boundary margin -2000
        comp = certify_p_more_risk_averse(shifted_power(4.0), shifted_power(2.0), 2, 50.0)
        assert comp.holds, comp.certificate.witness
        assert comp.certificate.interval == (0.0, 2500.0)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_power_pairs_at_their_order_hold(self, p):
        # x^(2(p+1)) o (x^2)^(-1) is y^(p+1), a member at order p - 1 of the
        # left-anchored class; every p failed at its anchor on default domains
        comp = certify_p_more_risk_averse(shifted_power(2.0 * (p + 1)), shifted_power(2.0), p,
                                          10.0)
        assert comp.holds, comp.certificate.witness


@st.composite
def _power_pairs(draw):
    """(a, b, p): x^a against x^b with r = a/b drawn around p, r = p and
    r = p +- 0.05 among the draws; b is a multiple of 1/8, so a = p b is exact."""
    p = draw(st.integers(min_value=1, max_value=7))
    b = draw(st.integers(min_value=9, max_value=24)) / 8.0
    r = draw(st.one_of(st.sampled_from([p - 0.05, float(p), p + 0.05]),
                       st.floats(min_value=max(p - 1.5, 1.0 / b), max_value=p + 2.0)))
    return max(r * b, 1.0), b, p


class TestAnchoredVerdicts:
    """The inverse composition's anchor is read from leading terms, so a
    pure-power pair is decided exactly at the class boundary."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pair=_power_pairs(), bounded=st.booleans())
    def test_power_pairs_hold_iff_r_at_least_p(self, pair, bounded):
        # l o f^(-1) = y^r is left-anchored convex of order p - 1 on
        # [0, f(horizon)] exactly when r >= p
        a, b, p = pair
        domain = (0.0, 12.0) if bounded else None
        l, f = shifted_power(a, domain=domain), shifted_power(b, domain=domain)
        comp = certify_p_more_risk_averse(l, f, p, horizon=10.0)
        assert comp.holds == (a / b >= p), (a, b, p, comp.certificate.witness)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_boundary_pairs(self, p):
        for b in (1.0, 1.5, 2.0, 3.0):
            for r, holds in ((p - 0.05, False), (p, True), (p + 0.05, True)):
                if r * b < 1.0:
                    continue
                comp = certify_p_more_risk_averse(shifted_power(r * b), shifted_power(b), p,
                                                  horizon=10.0)
                assert comp.holds == holds, (r, b, p, comp.certificate.witness)

    def test_seventh_power_against_identity(self):
        # l o f^(-1) is exactly y^7: its sixth derivative at 0 is 0, which
        # the 1e-9 clamp read as 7! 1e-8 and failed by -5.04e-5
        comp = certify_p_more_risk_averse(shifted_power(7.0), shifted_power(1.0), 7,
                                          horizon=10.0)
        cert = comp.certificate
        assert comp.holds
        assert cert.slack_used == 1e-8
        assert all(cert.margins[f"boundary f^({k})(a)=0"] == 0.0 for k in range(1, 7))
        assert cert.margins["increasing f^(7)>=0"] == 5040.0


class TestFalsifier:
    def test_certified_pair_survives(self):
        l = shifted_power(4.0, domain=(0.0, 50.0))
        f = shifted_power(2.0, domain=(0.0, 50.0))
        assert falsify_p_more_risk_averse(l, f, 2, trials=2000, seed=42) is None

    def test_uncertified_pair_is_falsified(self):
        l = shifted_power(2.0, domain=(0.0, 50.0))
        f = shifted_power(4.0, domain=(0.0, 50.0))
        hit = falsify_p_more_risk_averse(l, f, 1, trials=10_000, seed=42)
        assert hit is not None
        assert hit.margin > 0.0
        # independently re-verify the violation from the returned lottery
        X = hit.lottery
        lhs = sum(prob * float(f(a)) for a, prob in zip(X.atoms, X.probs))
        assert lhs > float(f(hit.threshold))

    def test_directed_search_from_witness(self):
        l = shifted_power(2.0, domain=(0.0, 50.0))
        f = shifted_power(4.0, domain=(0.0, 50.0))
        comp = certify_p_more_risk_averse(l, f, 1, horizon=10.0)
        assert not comp.holds
        hit = falsify_p_more_risk_averse(l, f, 1, trials=10_000, seed=42,
                                         directed_from=comp.certificate.witness.point)
        assert hit is not None

    @pytest.mark.parametrize("trials", [0, -3, -3.0])
    def test_no_trials_find_nothing(self, trials):
        # a count at or below zero is no search at all
        assert falsify_p_more_risk_averse(_SQUARE, _QUARTIC, 1, trials=trials, seed=1) is None

    def test_equality_pair_never_falsified(self):
        f = shifted_power(2.0, domain=(0.0, 50.0))
        assert falsify_p_more_risk_averse(f, f, 1, trials=1000, seed=7) is None

    @pytest.mark.parametrize("directed_from", [0.0, 1e-8])
    def test_directed_below_the_floor_solves_once(self, directed_from, monkeypatch):
        # f(1e-3 horizon) = 1e-8 >= y: the preimage would be raised to the
        # floor 1e-3 horizon, so only the certainty equivalents are solved
        runs = []
        real = risk.invert_monotone

        def counting(f, y, *args, **kwargs):
            runs.append(np.size(y))
            return real(f, y, *args, **kwargs)

        monkeypatch.setattr(risk, "invert_monotone", counting)
        hit = falsify_p_more_risk_averse(_SQUARE, _QUARTIC, 1, trials=300, seed=5,
                                         directed_from=directed_from)
        assert hit is not None and hit.margin > 0.0
        assert runs == [300]
        assert 0.25e-2 <= min(hit.lottery.atoms) < 1e-2 < max(hit.lottery.atoms) <= 4e-2

    def test_lottery_outside_the_loss_domain_rejected(self):
        l = shifted_power(2.0, domain=(0.0, 5.0))
        f = shifted_power(2.0, domain=(0.0, 50.0))
        with pytest.raises(DomainMismatchError):
            falsify_p_more_risk_averse(l, f, 1, trials=50, seed=7, horizon=10.0)


def _falsify_per_trial(l, f, p, trials, seed, horizon=10.0, directed_from=None):
    """Reference: one certainty equivalent per trial, in the seeded draw order
    (each trial draws its two atoms, then lambda, even when the atoms tie)."""
    rng = np.random.default_rng(seed)
    center = None
    if directed_from is not None:
        lo, hi = f.domain[0], min(f.upper_cap, horizon)
        y = min(max(directed_from, float(f(lo + 1e-9 * (hi - lo)))), float(f(hi)))
        center = max(invert_monotone(f, y, (lo, hi)), 1e-3 * horizon)
    for _ in range(trials):
        if center is None:
            x1, x2 = np.sort(rng.uniform(1e-6 * horizon, horizon, size=2))
        else:
            x1 = center * rng.uniform(0.25, 1.0)
            x2 = min(center * rng.uniform(1.0, 4.0), horizon)
        lam = float(rng.uniform(0.05, 0.95))
        if not x1 < x2:
            continue
        X = two_point(x1, x2, lam)
        c = certainty_equivalent(l, X)
        lhs = (lam * float(f(x1)) ** p + (1.0 - lam) * float(f(x2)) ** p) ** (1.0 / p)
        rhs = float(f(c))
        if lhs - rhs > 1e-6 * max(abs(lhs), abs(rhs), 1e-300):
            return X, c
    return None


_QUARTIC = shifted_power(4.0, domain=(0.0, 50.0))
_SQUARE = shifted_power(2.0, domain=(0.0, 50.0))
_PAIRS = {"member": (_QUARTIC, _SQUARE, 2), "non-member": (_SQUARE, _QUARTIC, 1)}


class TestBatchedFalsifier:
    """The one-solve falsifier finds what a per-trial loop finds."""

    @staticmethod
    def _check(pair, directed_from, seed, trials):
        l, f, p = _PAIRS[pair]
        want = _falsify_per_trial(l, f, p, trials, seed, directed_from=directed_from)
        hit = falsify_p_more_risk_averse(l, f, p, trials=trials, seed=seed,
                                         directed_from=directed_from)
        assert (hit is None) == (want is None)
        if hit is not None:
            X, c = want
            assert hit.lottery == X
            assert hit.threshold == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("pair", ["member", "non-member"])
    @pytest.mark.parametrize("directed_from", [None, 4.0, 30.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_trial_loop(self, pair, directed_from, seed):
        self._check(pair, directed_from, seed, 300)

    @pytest.mark.parametrize("pair", ["member", "non-member"])
    @pytest.mark.parametrize("directed_from", [None, 4.0, 30.0])
    @pytest.mark.parametrize("trials", [0, 1, 2])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_few_trials_match_per_trial_loop(self, pair, directed_from, trials, seed):
        self._check(pair, directed_from, seed, trials)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           trials=st.integers(min_value=0, max_value=20),
           horizon=st.floats(min_value=1e-3, max_value=1e3),
           center=st.floats(min_value=1e-3, max_value=1e3))
    def test_one_draw_call_reproduces_uniform(self, seed, trials, horizon, center):
        # lo + (hi - lo) * u on rng.random values is rng.uniform(lo, hi), bit for bit
        lo = 1e-6 * horizon
        spans = [(lo, horizon), (lo, horizon), (0.25, 1.0), (1.0, 4.0), (0.05, 0.95)]
        per_call = np.random.default_rng(seed)
        want = [[per_call.uniform(a, b) for a, b in spans] for _ in range(trials)]
        u = np.random.default_rng(seed).random((trials, len(spans)))
        got = [[a + (b - a) * ui for (a, b), ui in zip(spans, row)] for row in u]
        assert got == want
        scaled = center * (0.25 + (1.0 - 0.25) * u[:, 2])
        assert scaled.tolist() == [center * row[2] for row in want]


class TestRiskMeasureIsOneSolve:
    """The batched sweep equals a per-candidate certify-then-solve loop."""

    @staticmethod
    def _per_candidate(X, p, grid_size=256):
        horizon = max(10.0 * X.sup, 10.0)
        best, achiever, included = math.inf, "", []
        for label, candidate in _sweep_candidates(p, horizon):
            if not certify_loss_class(candidate, p, horizon, grid_size).passed:
                continue
            included.append(label)
            ce = certainty_equivalent(candidate, X)
            if ce < best:
                best, achiever = ce, label
        return shifted_moment(X, 0.0, p + 1).norm, best, achiever, tuple(included)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(atoms=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=5),
           weights=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=5, max_size=5),
           p=st.integers(min_value=1, max_value=3))
    def test_equals_per_candidate_loop(self, atoms, weights, p):
        probs = np.array(weights[: len(atoms)]) / sum(weights[: len(atoms)])
        X = point_mass(atoms[0]) if len(atoms) == 1 else discrete(atoms, probs)
        rep = risk_measure(X, p)
        assert (rep.closed_form, rep.sweep_infimum, rep.achiever,
                rep.candidates) == self._per_candidate(X, p)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12),
           p=st.integers(min_value=1, max_value=3))
    def test_sample_equals_per_candidate_loop(self, values, p):
        # the targets of a sample come from one stacked kernel call and one
        # mean per member, bit for bit expect's mean of each member
        X = from_sample(values)
        rep = risk_measure(X, p)
        assert (rep.closed_form, rep.sweep_infimum, rep.achiever,
                rep.candidates) == self._per_candidate(X, p)
        members = [l for _, l in _sweep_candidates(p, 10.0)[:7]]
        assert _certainty_equivalents(_sweep(p, 10.0)[1][:, :7], X).tolist() == [
            certainty_equivalent(l, X) for l in members]

    @pytest.mark.parametrize("X", [point_mass(0.0), point_mass(2.0),
                                   discrete([0.5, 1.5, 4.0], [0.25, 0.5, 0.25])],
                             ids=["zero", "point-mass", "three-atoms"])
    @pytest.mark.parametrize("count", [0, 1, 2, 10])
    def test_any_number_of_candidates(self, X, count):
        got = _certainty_equivalents(_sweep(2, 40.0)[1][:, :count], X)
        losses = [c for _, c in _sweep_candidates(2, 40.0)][:count]
        assert isinstance(got, np.ndarray) and got.shape == (count,)
        assert got.tolist() == [certainty_equivalent(l, X) for l in losses]

    @pytest.mark.parametrize("X", [uniform(0.0, 2.0), beta_like(0.5, 3.0, 1.5, 2.5)],
                             ids=["uniform", "beta-like"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_density_equals_per_candidate_loop(self, X, p):
        rep = risk_measure(X, p)
        assert (rep.closed_form, rep.sweep_infimum, rep.achiever,
                rep.candidates) == self._per_candidate(X, p)
        # the pure power's certainty equivalent and the norm come from two
        # quadratures of E X^(p+1), each within the quadrature's absolute tolerance
        cf = rep.closed_form
        assert rep.achiever == f"x^{p + 1}"
        assert abs(rep.sweep_infimum - cf) <= 2.0 * QUADRATURE_TOLERANCE / ((p + 1) * cf ** p)

    def test_uniform_closed_form(self):
        for p in (1, 2):
            want = 2.0 * (p + 2.0) ** (-1.0 / (p + 1))  # ||U(0, 2)||_(p+1)
            rep = risk_measure(uniform(0.0, 2.0), p)
            assert rep.closed_form == pytest.approx(want, rel=1e-13)
            assert rep.sweep_infimum == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_five_atom_lottery_makes_at_most_nine_kernel_calls(self, p, monkeypatch):
        # the targets, the table and the steps of one solve; membership is
        # certified on the first call and cached
        X = discrete([0.3, 1.1, 2.0, 3.7, 4.9], [0.1, 0.3, 0.2, 0.25, 0.15])
        want = risk_measure(X, p)
        calls = []
        real = _Sweep.rows

        def counting(self, x, lo, hi):
            calls.append(x.shape)
            return real(self, x, lo, hi)

        monkeypatch.setattr(_Sweep, "rows", counting)
        assert risk_measure(X, p) == want
        assert 3 <= len(calls) <= 9


class TestRiskMeasure:
    def test_fair_coin_order_one(self):
        rep = risk_measure(two_point(0.0, 1.0, 0.5), 1)
        assert rep.closed_form == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert rep.sweep_infimum >= rep.closed_form - 1e-10
        assert rep.sweep_infimum <= rep.closed_form + 1e-3

    def test_point_mass_all_orders(self):
        for p in (1, 2, 3):
            rep = risk_measure(point_mass(2.0), p)
            assert rep.closed_form == pytest.approx(2.0, rel=1e-12)
            assert rep.sweep_infimum == pytest.approx(2.0, rel=1e-9)

    def test_golden_three_atom_case(self):
        # oracle: E X^3 = (1 + 8 + 27)/3 = 12, cube root 12^(1/3)
        X = discrete([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
        rep = risk_measure(X, 2)
        assert rep.closed_form == pytest.approx(12.0 ** (1.0 / 3.0), abs=1e-9)
        assert rep.closed_form == pytest.approx(2.2894284851066637, abs=1e-6)

    def test_achiever_is_pure_power(self):
        X = discrete([0.5, 1.5, 4.0], [0.25, 0.5, 0.25])
        for p in (1, 2):
            rep = risk_measure(X, p)
            assert rep.achiever == f"x^{p + 1}"
            assert rep.sweep_infimum == pytest.approx(rep.closed_form, rel=1e-12)

    def test_positive_homogeneity(self):
        X = discrete([0.5, 1.0, 2.0], [0.25, 0.5, 0.25])
        lam = 3.5
        Xs = discrete([lam * a for a in X.atoms], X.probs)
        for p in (1, 2):
            assert risk_measure(Xs, p).closed_form == pytest.approx(
                lam * risk_measure(X, p).closed_form, rel=1e-12)

    def test_sweep_never_undercuts(self, rng):
        for _ in range(6):
            k = int(rng.integers(2, 5))
            atoms = np.sort(rng.uniform(0.1, 5.0, size=k))
            probs = rng.dirichlet(np.ones(k))
            X = discrete(atoms, probs)
            for p in (1, 2, 3):
                rep = risk_measure(X, p)
                assert rep.sweep_infimum >= rep.closed_form - 1e-10
                assert rep.sweep_infimum <= rep.closed_form + 1e-3


def _members_at(p, horizon, grid_size):
    """Positions of the sweep members whose own certificate passes at the horizon."""
    return tuple(i for i, (_, l) in enumerate(_sweep_candidates(p, horizon))
                 if certify_loss_class(l, p, horizon, grid_size).passed)


class TestUnitScaleMembership:
    """The sweep is certified once per order, at unit scale."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(horizon=st.floats(min_value=10.0, max_value=100.0),
           p=st.integers(min_value=1, max_value=3),
           grid_size=st.sampled_from([64, 256, 512]))
    def test_equals_per_candidate_certificates(self, horizon, p, grid_size):
        assert _unit_members(p, grid_size) == \
            _members_at(p, horizon, grid_size)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(horizon=st.floats(min_value=100.0, max_value=1e3),
           p=st.integers(min_value=1, max_value=3),
           grid_size=st.sampled_from([64, 256, 512]))
    def test_per_candidate_certificates_differ_only_by_rounding(self, horizon, p, grid_size):
        # x^4's curvature margin at p = 3, 12 x^2 x - 3 (4 x^3), is a
        # rounding residue of terms near 12 horizon^3; it is taken relative
        # to those terms, so a difference can only be such a residue
        unit = _unit_members(p, grid_size)
        at = _members_at(p, horizon, grid_size)
        assert set(at) <= set(unit)
        for i in set(unit) - set(at):
            label, l = _sweep_candidates(p, horizon)[i]
            w = certify_loss_class(l, p, horizon, grid_size).witness
            assert label == f"x^{p + 1}" and w.condition.startswith("curvature")
            assert -w.margin <= 8 * np.finfo(float).eps * p * (p + 1) * horizon ** p

    def test_large_support_keeps_the_pure_power(self):
        # at horizon 1e5 the per-candidate certificate rejected x^4 on a
        # curvature margin of -2.0 (rounding), and the sweep missed the norm
        X = discrete([1e3, 1e4], [0.5, 0.5])
        rep = risk_measure(X, 3)
        assert rep.achiever == "x^4" and len(rep.candidates) == 10
        assert abs(rep.sweep_infimum - rep.closed_form) <= 1e-12 * rep.closed_form

    def test_one_certificate_per_order_until_the_cache_is_cleared(self, monkeypatch):
        orders = []
        real = risk.certify_loss_class
        monkeypatch.setattr(risk, "certify_loss_class",
                            lambda l, p, *args: orders.append(p) or real(l, p, *args))
        _unit_members.cache_clear()
        lotteries = [discrete([0.5, 2.0], [0.5, 0.5]), discrete([3.0, 40.0], [0.9, 0.1])]
        for X in lotteries:
            for p in (1, 2, 3):
                risk_measure(X, p)
        assert orders == [1, 2, 3]
        assert _unit_members.cache_info().currsize == 3
        _unit_members.cache_clear()
        assert _unit_members.cache_info().currsize == 0
        risk_measure(lotteries[0], 2)
        assert orders == [1, 2, 3, 2]

    def test_a_non_member_is_skipped(self, monkeypatch):
        # x^p has curvature margin -p x^(p-1): the stacked certificate fails,
        # and the members certified one by one keep every other candidate
        def with_non_member(p, horizon, _real=risk._sweep):
            labels, params = _real(p, horizon)
            return labels + (f"x^{p}",), np.column_stack([params, [p, 0.0, 0.0, 0.0]])

        monkeypatch.setattr(risk, "_sweep", with_non_member)
        _unit_members.cache_clear()
        try:
            assert _unit_members(2, 64) == tuple(range(10))
            rep = risk_measure(discrete([0.5, 2.0], [0.5, 0.5]), 2)
            assert rep.candidates == _sweep(2, 20.0)[0] and rep.achiever == "x^3"
        finally:
            _unit_members.cache_clear()

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_order_and_grid_fail_closed_before_the_cache(self, value):
        X = discrete([0.5, 2.0], [0.5, 0.5])
        _unit_members.cache_clear()
        with pytest.raises(DomainError, match="must be an integer"):
            risk_measure(X, value)
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            _unit_members(2, value)
        assert _unit_members.cache_info().currsize == 0


# 0, the point where an exponent 2 once took another loop, moderate and large points
_POINTS = st.one_of(st.just(0.0), st.just(3.2717035105188623),
                    st.floats(min_value=0.0, max_value=10.0),
                    st.floats(min_value=1e3, max_value=1e5))


class TestSweepKernel:
    """One array kernel evaluates every sweep member and its derivatives."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(min_value=1, max_value=3),
           horizon=st.floats(min_value=10.0, max_value=1e3),
           u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=10))
    def test_stacked_member_equals_the_member_alone(self, p, horizon, u):
        sweep = _Sweep(_sweep(p, horizon)[1])
        x = horizon * np.array(u)
        stacked = sweep(x)
        assert stacked.tolist() == [float(sweep.member(i)(xi)) for i, xi in enumerate(x)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(min_value=1, max_value=3), i=st.integers(min_value=0, max_value=9),
           k=st.integers(min_value=0, max_value=6),
           x=st.floats(min_value=1e-3, max_value=2.0))
    def test_derivatives_match_mpmath(self, p, i, k, x):
        mpmath = pytest.importorskip("mpmath")
        a, b, g, e = _sweep(p, 1.0)[1][:, i]
        with mpmath.workdps(40):
            want = mpmath.diff(lambda t: t ** int(a) * (1 + b * t) ** int(g) * mpmath.exp(e * t),
                               x, k)
        got = float(_Sweep(_sweep(p, 1.0)[1]).member(i)(x, k))
        assert got == pytest.approx(float(want), rel=1e-13, abs=1e-300)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(p=st.integers(min_value=1, max_value=3), k=st.integers(min_value=0, max_value=5),
           x=st.lists(_POINTS, min_size=10, max_size=10))
    def test_one_layout_for_every_form(self, p, k, x):
        # member i alone at every point, alone at one point, at point i among
        # all members, and every member at every point: the same bits
        x = np.array(x)
        params = _sweep(p, max(10.0 * x.max(), 10.0))[1]
        every = np.array(_Sweep(params[:, :, None]).rows(x, 0, k))  # order, member, point
        alone = np.array([_Sweep(params[:, i:i + 1]).rows(x, 0, k) for i in range(10)])
        assert every.tobytes() == alone.transpose(1, 0, 2).tobytes()
        diagonal = every[:, range(10), range(10)]
        assert np.array(_Sweep(params).rows(x, 0, k)).tobytes() == diagonal.tobytes()
        single = [_Sweep(params[:, i:i + 1]).rows(np.asarray(xi), 0, k) for i, xi in enumerate(x)]
        assert np.array(single).T.tobytes() == diagonal.tobytes()

    def test_negative_points_count_as_zero(self):
        # a lottery may sit EQ_ABS below 0; the pure power stays flat there
        sweep = _Sweep(_sweep(2, 10.0)[1])
        assert sweep(np.full(10, -1e-12)).tolist() == [0.0] * 10
