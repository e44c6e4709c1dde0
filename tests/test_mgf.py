"""MGF bounds, generalized AM-GM, likelihood minorants, EM demo.

Golden values are frozen from exact-sum oracles evaluated in closed form,
e.g. for the fair coin at s=1, p=2 the lower bound is
exp(1/sqrt 2) - (1 + 1/sqrt 2) + 3/2 = 1.8210082004609252 and the exact
MGF is (1 + e)/2 = 1.8591409142295225.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from pconvex.distributions import (
    discrete,
    expect,
    from_sample,
    point_mass,
    reflected,
    shifted_moment,
    uniform,
)
from pconvex.errors import (
    ConstructionError,
    DomainError,
    RangeOverflowError,
    SupportViolationError,
    UnboundedSupportError,
)
from pconvex.mgf import (
    am_gm_lower,
    elbo_classical,
    elbo_tight,
    em_demo,
    generate_mixture_data,
    likelihood_instance,
    loglik_exact,
    mgf_lower,
    mgf_upper,
)
from pconvex.numerics import FSUM_CROSSOVER

FAIR_COIN = discrete([0.0, 1.0], [0.5, 0.5])
EM_BITS = Path(__file__).with_name("goldens") / "em_demo_bits.json"


class TestMgfLower:
    def test_fair_coin_golden(self):
        rep = mgf_lower(FAIR_COIN, 1.0, 2)
        want = math.exp(math.sqrt(0.5)) - (1.0 + math.sqrt(0.5)) + 1.5
        assert rep.lower == pytest.approx(want, abs=1e-13)
        assert rep.lower == pytest.approx(1.8210082004609252, abs=1e-9)
        assert rep.exact == pytest.approx((1.0 + math.e) / 2.0, abs=1e-14)
        assert rep.lower <= rep.exact

    def test_zero_s_collapses(self):
        rep = mgf_lower(FAIR_COIN, 0.0, 3)
        assert rep.lower == pytest.approx(1.0, abs=1e-14)
        assert rep.exact == pytest.approx(1.0, abs=1e-14)

    def test_point_mass_equality(self):
        rep = mgf_lower(point_mass(0.7), 1.3, 2)
        assert rep.lower == pytest.approx(math.exp(1.3 * 0.7), rel=1e-13)
        assert rep.lower == pytest.approx(rep.exact, rel=1e-13)

    def test_sweep_inequality(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 6))
            atoms = rng.uniform(0.0, 2.0, size=k)
            probs = rng.dirichlet(np.ones(k))
            X = discrete(atoms, probs)
            s = float(rng.uniform(0.0, 3.0))
            p = int(rng.integers(1, 5))
            rep = mgf_lower(X, s, p)
            assert rep.lower <= rep.exact + 1e-9 + rep.exact_error, (s, p)

    def test_uniform_density(self):
        # oracle: E e^X over uniform [0,1] = e - 1; quadrature-backed norms
        rep = mgf_lower(uniform(0.0, 1.0), 1.0, 2)
        assert rep.exact == pytest.approx(math.e - 1.0, abs=1e-8)
        assert rep.lower <= rep.exact + 1e-8

    def test_support_check(self):
        with pytest.raises(SupportViolationError):
            mgf_lower(discrete([-1.0, 1.0], [0.5, 0.5]), 1.0, 2)


class TestMgfUpper:
    def test_fair_coin_golden(self):
        rep = mgf_upper(FAIR_COIN, 1.0, 1)
        assert rep.upper == pytest.approx(0.5 * (math.e - 1.0) + 1.0, abs=1e-13)
        assert rep.upper == pytest.approx(1.8591409142295225, abs=1e-9)
        # endpoint-supported lotteries are the equality case
        assert rep.upper == pytest.approx(rep.exact, rel=1e-13)

    def test_uniform_density(self):
        rep = mgf_upper(uniform(0.0, 1.0), 1.0, 1)
        assert rep.upper == pytest.approx(0.5 * (math.e - 1.0) + 1.0, abs=1e-8)
        assert rep.exact == pytest.approx(math.e - 1.0, abs=1e-8)
        assert rep.upper >= rep.exact

    def test_zero_s(self):
        rep = mgf_upper(FAIR_COIN, 0.0, 2)
        assert rep.upper == pytest.approx(1.0, abs=1e-14)

    def test_sweep_inequality(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 6))
            atoms = rng.uniform(0.0, 2.0, size=k)
            probs = rng.dirichlet(np.ones(k))
            X = discrete(atoms, probs)
            s = float(rng.uniform(0.0, 3.0))
            p = int(rng.integers(1, 5))
            rep = mgf_upper(X, s, p)
            assert rep.upper >= rep.exact - 1e-9 - rep.exact_error, (s, p)

    def test_unbounded_rejected(self):
        X = uniform(0.0, 1.0)
        rep = mgf_upper(X, 1.0, 1)
        assert rep.upper is not None
        from pconvex.distributions import RandomVariable
        unbounded = RandomVariable(kind="density", declared_support=(0.0, math.inf),
                                   pdf=lambda x: np.exp(-np.asarray(x, dtype=float)))
        with pytest.raises(UnboundedSupportError):
            mgf_upper(unbounded, 1.0, 1)


@pytest.mark.parametrize("bound", [mgf_lower, mgf_upper])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -0.5])
def test_s_must_be_finite_and_nonnegative(bound, s):
    # NaN and inf passed the old s < 0 test and returned NaN bounds
    with pytest.raises(DomainError, match="s must be finite"):
        bound(FAIR_COIN, s, 2)


class TestMgfOverflow:
    """exp(s ||X||_p), exp(s b) or the oracle past double range raises
    RangeOverflowError: math.exp raised a bare OverflowError, and a
    sample's oracle came back inf with numpy's overflow warning (which the
    RuntimeWarning filter would turn into an error here)."""

    @pytest.mark.parametrize("bound, what", [(mgf_lower, r"exp\(s \|\|X\|\|_p\)"),
                                             (mgf_upper, r"exp\(s b\)")],
                             ids=["lower", "upper"])
    def test_exponential_of_the_norm_or_ceiling(self, bound, what):
        with pytest.raises(RangeOverflowError, match=what):
            bound(from_sample(np.linspace(0.1, 2.0, 2000)), 800.0, 2)

    def test_oracle(self):
        # exp(75 ||X||_2) is about e^15.6, but one value gives e^750
        X = from_sample(np.r_[np.full(3000, 0.1), 10.0])
        with pytest.raises(RangeOverflowError, match="E exp"):
            mgf_lower(X, 75.0, 2)
        assert math.isfinite(mgf_lower(X, 70.0, 2).exact)


class TestAmGm:
    def test_log_transform_matches_mgf_arithmetic(self):
        X = discrete([1.0, math.e], [0.5, 0.5])
        got = am_gm_lower(X, 2)
        assert got == pytest.approx(1.8210082004609252, abs=1e-9)
        assert got <= X.mean() + 1e-12

    def test_point_mass_equality(self):
        assert am_gm_lower(point_mass(3.0), 2) == pytest.approx(3.0, rel=1e-12)

    def test_classical_geometric_mean_at_p1(self):
        X = discrete([1.0, 4.0], [0.5, 0.5])
        assert am_gm_lower(X, 1) == pytest.approx(2.0, abs=1e-12)
        # general p=1 reduction: exp(E ln X) exactly
        Y = discrete([1.5, 2.0, 7.0], [0.25, 0.5, 0.25])
        want = math.exp(sum(p * math.log(a) for a, p in zip(Y.atoms, Y.probs)))
        assert am_gm_lower(Y, 1) == pytest.approx(want, abs=1e-12)

    def test_mass_below_one_rejected(self):
        with pytest.raises(SupportViolationError):
            am_gm_lower(discrete([0.5, 2.0], [0.5, 0.5]), 1)


class TestLikelihoodInstance:
    def golden(self):
        return likelihood_instance([[0.2, 0.3]], [[0.5, 0.5]])

    def test_loglik_golden(self):
        assert loglik_exact(self.golden()) == pytest.approx(math.log(0.5), abs=1e-14)

    def test_classical_golden(self):
        want = 0.5 * (math.log(0.4) + math.log(0.6))
        assert elbo_classical(self.golden()) == pytest.approx(want, abs=1e-14)
        assert elbo_classical(self.golden()) == pytest.approx(-0.7135581778200728, abs=1e-9)

    def test_tight_golden(self):
        # oracle: m = 0.6 - sqrt(0.02); ln m - (m - 0.5)/0.6
        m = 0.6 - math.sqrt(0.02)
        want = math.log(m) - (m - 0.5) / 0.6
        got = elbo_tight(self.golden())
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-0.7105878842463768, abs=1e-9)

    def test_chain_golden(self):
        inst = self.golden()
        assert elbo_classical(inst) <= elbo_tight(inst) <= loglik_exact(inst)

    def test_exact_posterior_degenerates(self):
        # q proportional to the likelihood row makes X_i a point mass
        ps = [0.2, 0.3]
        qs = [p / 0.5 for p in ps]
        inst = likelihood_instance([ps], [qs])
        assert elbo_classical(inst) == pytest.approx(loglik_exact(inst), abs=1e-12)
        assert elbo_tight(inst) == pytest.approx(loglik_exact(inst), abs=1e-12)

    def test_additivity_over_rows(self):
        one = self.golden()
        twice = likelihood_instance([[0.2, 0.3]] * 2, [[0.5, 0.5]] * 2)
        assert elbo_tight(twice) == pytest.approx(2.0 * elbo_tight(one), rel=1e-12)
        assert loglik_exact(twice) == pytest.approx(2.0 * loglik_exact(one), rel=1e-12)

    def test_single_latent_value(self):
        inst = likelihood_instance([[0.37]], [[1.0]])
        assert loglik_exact(inst) == pytest.approx(math.log(0.37), abs=1e-14)

    def test_chain_on_seeded_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            z = int(rng.integers(2, 5))
            ps = rng.uniform(0.05, 1.0, size=(n, z))
            qs = rng.dirichlet(np.ones(z), size=n)
            qs = np.clip(qs, 1e-3, None)
            qs /= qs.sum(axis=1, keepdims=True)
            inst = likelihood_instance(ps.tolist(), qs.tolist())
            lo = elbo_classical(inst)
            mid = elbo_tight(inst)
            hi = loglik_exact(inst)
            assert lo - 1e-10 <= mid <= hi + 1e-10

    @pytest.mark.parametrize("rows", [10, FSUM_CROSSOVER // 4 - 1, FSUM_CROSSOVER // 4,
                                      FSUM_CROSSOVER - 1, FSUM_CROSSOVER, 300])
    def test_sums_keep_math_fsum_bits(self, rows, rng):
        """The three sums over the data against math.fsum over Python
        floats, on both sides of FSUM_CROSSOVER: the classical ELBO sums
        rows x 4 terms, the log-likelihood one term per row."""
        ps = rng.uniform(0.05, 1.0, size=(rows, 4))
        qs = rng.dirichlet(np.ones(4), size=rows)
        inst = likelihood_instance(ps, qs)
        assert loglik_exact(inst) == math.fsum(np.log(ps.sum(axis=1)).tolist())
        assert elbo_classical(inst) == math.fsum((qs * np.log(ps / qs)).ravel().tolist())

    def test_row_reductions_keep_the_axis1_bits(self, rng):
        """The three quantities against an inline copy of their numpy
        axis=1 forms: the same bits while a row sum adds in numpy's order
        (K <= 7).  Past it (K = 8..12) each row's sums may differ in the
        last bit, so the bound is 1e-15 times each quantity's conditioning:
        1 per row for ln sum_z, b_i/m_i per row for the tight minorant,
        whose m_i = b_i - ||b_i - X_i|| can cancel.  The classical ELBO
        reduces no rows and keeps its bits at every K."""

        def forms(ps, qs):
            r = ps / qs
            b, mean = r.max(axis=1), np.sum(qs * r, axis=1)
            scale = b - r.min(axis=1)
            dev = np.divide(b[:, None] - r, scale[:, None], out=np.zeros_like(r),
                            where=scale[:, None] > 0.0)
            m = b - scale * np.sum(qs * dev ** 2, axis=1) ** 0.5
            return (math.fsum(np.log(ps.sum(axis=1)).tolist()),
                    math.fsum((qs * np.log(ps / qs)).ravel().tolist()),
                    math.fsum((np.log(m) - (m - mean) / b).tolist()),
                    math.fsum((b / m).tolist()))

        for k in range(1, 13):
            for _ in range(20):
                n = int(rng.integers(1, 51))
                ps = rng.uniform(0.05, 1.0, size=(n, k))
                qs = np.clip(rng.dirichlet(np.ones(k), size=n), 1e-3, None)
                qs /= qs.sum(axis=1, keepdims=True)
                inst = likelihood_instance(ps, qs)
                loglik, classical, tight, conditioning = forms(ps, qs)
                assert elbo_classical(inst) == classical
                if k <= 7:
                    assert (loglik_exact(inst), elbo_tight(inst)) == (loglik, tight)
                else:
                    assert loglik_exact(inst) == pytest.approx(loglik, rel=0.0, abs=1e-15 * n)
                    assert elbo_tight(inst) == pytest.approx(
                        tight, rel=0.0, abs=1e-15 * conditioning)

    def test_tight_matches_per_row_moments(self, rng):
        """The n x K array form against one ratio variable per row."""
        ps = rng.uniform(0.05, 1.0, size=(40, 4))
        qs = rng.dirichlet(np.ones(4), size=40)
        ps[0], qs[0] = [0.2, 0.3, 0.1, 0.4], [0.2, 0.3, 0.1, 0.4]  # point mass
        inst = likelihood_instance(ps, qs)
        want = 0.0
        for p_row, q_row in zip(ps, qs):
            X = discrete(p_row / q_row, q_row)
            b = X.sup
            m = b - shifted_moment(reflected(X, b), 0.0, 2).norm
            want += math.log(m) - (m - expect(X, lambda x: x)[0]) / b
        assert elbo_tight(inst) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_tables_are_read_only_arrays(self):
        inst = self.golden()
        assert inst.likelihoods.shape == inst.responsibilities.shape == (1, 2)
        with pytest.raises(ValueError):
            inst.likelihoods[0, 0] = 1.0

    @pytest.mark.parametrize("copier", [copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_tables_read_only(self, copier):
        inst = self.golden()
        twin = copier(inst)
        for name in ("likelihoods", "responsibilities"):
            assert not getattr(twin, name).flags.writeable
            np.testing.assert_array_equal(getattr(twin, name), getattr(inst, name))
        assert elbo_tight(twin) == elbo_tight(inst)

    def test_zero_likelihood_rejected(self):
        with pytest.raises(ConstructionError):
            likelihood_instance([[0.0, 0.3]], [[0.5, 0.5]])

    @pytest.mark.parametrize("ps,qs", [
        ([[math.nan, 0.3]], [[0.5, 0.5]]),
        ([[math.inf, 0.3]], [[0.5, 0.5]]),
        ([[0.2, 0.3]], [[0.5, math.nan]]),
        ([[0.2, 0.3], [0.2]], [[0.5, 0.5], [1.0]]),
    ], ids=["nan-likelihood", "inf-likelihood", "nan-responsibility", "ragged"])
    def test_non_finite_and_ragged_tables_rejected(self, ps, qs):
        with pytest.raises(ConstructionError):
            likelihood_instance(ps, qs)

    def test_conditioning_warning(self):
        with pytest.warns(RuntimeWarning):
            likelihood_instance([[1.0, 1e-9]], [[1e-7, 1.0 - 1e-7]])


class TestEmDemo:
    def test_monotone_loglik_and_chain(self):
        data = generate_mixture_data(60, 6, seed=11)
        trace = em_demo(data, iters=15, seed=3)
        logliks = trace.logliks()
        for prev, cur in zip(logliks, logliks[1:]):
            assert cur >= prev - 1e-9
        for _it, ll, lo, mid in trace.rows:
            assert lo - 1e-10 <= mid <= ll + 1e-10

    def test_identical_data_flat_trace(self):
        data = np.ones((20, 4))
        trace = em_demo(data, iters=6, seed=5)
        logliks = trace.logliks()
        assert logliks[-1] >= logliks[0] - 1e-9
        # converges fast: last steps flat
        assert abs(logliks[-1] - logliks[-2]) < 1e-9

    def test_final_loglik_improves_on_init(self):
        data = generate_mixture_data(60, 6, seed=21)
        trace = em_demo(data, iters=12, seed=2)
        assert trace.logliks()[-1] >= trace.logliks()[0]

    def test_empty_data_rejected(self):
        with pytest.raises(ConstructionError):
            em_demo(np.zeros((0, 3)), iters=3, seed=1)

    def test_data_without_columns_rejected(self):
        # an n x 0 matrix ran and logged rows of zeros
        with pytest.raises(ConstructionError):
            em_demo(np.zeros((5, 0)), iters=3, seed=1)

    @pytest.mark.parametrize("value", [0.7, 2.0, -1.0, math.nan])
    def test_non_binary_entry_rejected(self, value):
        # the E-step read such an entry as 0 or 1 and the M-step averaged it
        # as it is; a NaN failed as "row 0: likelihood values must be finite"
        data = generate_mixture_data(6, 4, seed=1)
        data[2, 3] = value
        with pytest.raises(ConstructionError, match=r"entry \(2, 3\) is"):
            em_demo(data, iters=2, seed=1)

    @pytest.mark.parametrize("shape", ["200x20", "400x20"])
    def test_benchmark_shapes_keep_their_bits(self, shape):
        """Rows, weights and means at the benchmark's two shapes, frozen
        from the axis=1 reductions this layout replaced."""
        want = json.loads(EM_BITS.read_text())[shape]
        rows = int(shape.split("x")[0])
        trace = em_demo(generate_mixture_data(rows, 20, seed=want["data_seed"]),
                        iters=want["iters"], seed=want["seed"])
        assert [list(r) for r in trace.rows] == want["rows"]
        assert list(trace.weights) == want["weights"]
        assert [list(m) for m in trace.means] == want["means"]

    def test_deterministic_given_seed(self):
        data = generate_mixture_data(30, 5, seed=9)
        a = em_demo(data, iters=5, seed=4)
        b = em_demo(data, iters=5, seed=4)
        assert a.rows == b.rows
