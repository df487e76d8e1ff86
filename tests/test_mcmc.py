"""Sampler configuration, Gibbs variance step, pCN kernel, and chain persistence."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from btrank import (
    ChainSamples,
    KernelSpec,
    SamplerConfig,
    WinMatrix,
    apply_missing_policy,
    build_prior,
    build_win_matrix,
    gibbs_variance,
    load_chain,
    log_likelihood,
    posterior_mean,
    run_chain,
    sample_constrained,
    save_chain,
)
from btrank import mcmc
from btrank.bt import _log_likelihood
from btrank.mcmc import BLOCK, _read_chain

from .conftest import (
    dense_log_likelihood, make_income, rewrite_dump, softplus_log_likelihood, toy_samples,
)


def flat_wins(m: int) -> WinMatrix:
    """A win matrix carrying no information, so the posterior is the prior."""
    return WinMatrix(
        entities=tuple(f"e{i}" for i in range(m)),
        wins=np.zeros((m, m)),
    )


def lopsided_wins() -> WinMatrix:
    wins = np.array([[0.0, 9.0, 9.0], [1.0, 0.0, 9.0], [1.0, 1.0, 0.0]])
    return WinMatrix(entities=("a", "b", "c"), wins=wins)


def one_at_a_time(w: WinMatrix, cov, config: SamplerConfig) -> dict[str, np.ndarray]:
    """``run_chain``'s chain scored one proposal per iteration: the oracle for its batching.

    It draws the same blocks, lifts each block's steps with the same
    product, and builds each proposal from the joint state ``(merits | u)``
    and scores it with the same helper.  Returns, for every iteration, the
    merits, variance and log-likelihood after it, its accept flag, and the
    merits it proposed.
    """
    rng = np.random.default_rng(config.seed)
    contraction = math.sqrt(1.0 - config.beta**2)
    fixed = config.fix_variance is not None
    shape = mcmc._gibbs_shape(config.prior_shape, w.m)
    lift = np.hstack([cov.factor.T, np.eye(cov.rank)])
    state = np.zeros(w.m + cov.rank)
    scale = config.fix_variance if fixed else config.prior_scale
    loglik = _log_likelihood(state[: w.m], w.pairs)
    trace = {"merit_draws": [], "variance_draws": [], "loglik_draws": [], "accept_flags": [],
             "proposals": []}
    for start in range(0, config.iterations, BLOCK):
        size = min(BLOCK, config.iterations - start)
        normals = rng.standard_normal((size, cov.rank))
        gammas = np.ones(size) if fixed else rng.standard_gamma(shape, size)
        log_uniforms = np.log(rng.random(size))
        steps = (config.beta * normals / np.sqrt(gammas)[:, None]) @ lift
        for k in range(size):
            variance = scale / gammas[k]
            proposal = steps[k] * math.sqrt(scale) + contraction * state
            loglik_new = _log_likelihood(proposal[: w.m], w.pairs)
            accept = log_uniforms[k] < loglik_new - loglik
            if accept:
                state, loglik = proposal, loglik_new
                if not fixed:
                    scale = config.prior_scale + float(state[w.m :] @ state[w.m :])
            values = (state[: w.m], variance, loglik, accept, proposal[: w.m])
            for name, value in zip(trace, values):
                trace[name].append(value)
    return {name: np.array(values) for name, values in trace.items()}


def u_space_chain(w: WinMatrix, cov, config: SamplerConfig) -> dict[str, np.ndarray]:
    """The paper's pCN recursion in whitened coordinates, one proposal per iteration.

    The state is ``u`` alone: each proposal is ``sqrt(1 - beta^2) u +
    sqrt(variance) beta z`` with ``variance = (prior_scale + u @ u) /
    gamma``, and its merits are rebuilt as ``factor @ u``.  ``run_chain``
    lifts the steps to merit space instead, which moves the draws by
    rounding only.  Returns the same arrays as ``one_at_a_time``.
    """
    rng = np.random.default_rng(config.seed)
    contraction = math.sqrt(1.0 - config.beta**2)
    fixed = config.fix_variance is not None
    shape = mcmc._gibbs_shape(config.prior_shape, w.m)
    u = np.zeros(cov.rank)
    merits = np.zeros(w.m)
    variance = config.fix_variance if fixed else 1.0
    loglik = _log_likelihood(merits, w.pairs)
    trace = {"merit_draws": [], "variance_draws": [], "loglik_draws": [], "accept_flags": [],
             "proposals": []}
    for start in range(0, config.iterations, BLOCK):
        size = min(BLOCK, config.iterations - start)
        noise = config.beta * rng.standard_normal((size, cov.rank))
        gammas = None if fixed else rng.standard_gamma(shape, size)
        log_uniforms = np.log(rng.random(size))
        for k in range(size):
            if not fixed:
                variance = (config.prior_scale + u @ u) / gammas[k]
            proposal = contraction * u + math.sqrt(variance) * noise[k]
            proposal_merits = np.vecdot(proposal, cov.factor)
            loglik_new = _log_likelihood(proposal_merits, w.pairs)
            accept = log_uniforms[k] < loglik_new - loglik
            if accept:
                u, merits, loglik = proposal, proposal_merits, loglik_new
            for name, value in zip(trace, (merits, variance, loglik, accept, proposal_merits)):
                trace[name].append(value)
    return {name: np.array(values) for name, values in trace.items()}


def assert_same_chain(samples: ChainSamples, oracle: dict[str, np.ndarray]) -> None:
    config = samples.config
    for name in ("merit_draws", "variance_draws", "loglik_draws"):
        expected = oracle[name][config.burn_in :: config.thin]
        assert getattr(samples, name).tobytes() == expected.tobytes(), name
    assert samples.accept_flags.tobytes() == oracle["accept_flags"][config.burn_in :].tobytes()


class TestSamplerConfig:
    def test_burn_in_defaults_to_a_third(self):
        assert SamplerConfig(beta=0.2, iterations=9000).burn_in == 3000

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="beta"):
            SamplerConfig(beta=1.0, iterations=100)
        with pytest.raises(ValueError, match="beta"):
            SamplerConfig(beta=0.0, iterations=100)
        with pytest.raises(ValueError, match="iterations"):
            SamplerConfig(beta=0.2, iterations=0)
        with pytest.raises(ValueError, match="burn_in"):
            SamplerConfig(beta=0.2, iterations=100, burn_in=100)
        with pytest.raises(ValueError, match="thin"):
            SamplerConfig(beta=0.2, iterations=100, thin=0)
        with pytest.raises(ValueError, match="prior_shape"):
            SamplerConfig(beta=0.2, iterations=100, prior_shape=0.0)
        with pytest.raises(ValueError, match="fix_variance"):
            SamplerConfig(beta=0.2, iterations=100, fix_variance=-1.0)

    @pytest.mark.parametrize("setting", ["prior_shape", "prior_scale", "fix_variance"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_settings(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting}.*finite"):
            SamplerConfig(beta=0.2, iterations=100, **{setting: value})

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SamplerConfig(beta=0.2, iterations=100, seed=-1)

    def test_zero_burn_in_is_allowed(self):
        assert SamplerConfig(beta=0.2, iterations=10, burn_in=0).burn_in == 0


class TestGibbsVariance:
    """The full conditional is inverse-gamma with shape chi + M/2 and
    scale omega + mu' pinv mu, so its first two moments are known exactly."""

    def setup_method(self):
        self.cov = build_prior(make_income(5), KernelSpec("squared_exponential", 0.5))
        self.merits = sample_constrained(self.cov, 1.0, np.random.default_rng(8))
        self.quad = float(self.merits @ self.cov.pinv @ self.merits)

    def test_moments_match_the_inverse_gamma(self):
        chi, omega, m = 3.0, 2.0, 5
        rng = np.random.default_rng(42)
        draws = np.array(
            [gibbs_variance(self.merits, self.cov, chi, omega, rng) for _ in range(100_000)]
        )
        shape, scale = chi + 0.5 * m, omega + self.quad
        exact_mean = scale / (shape - 1.0)
        exact_var = exact_mean**2 / (shape - 2.0)
        assert abs(draws.mean() / exact_mean - 1.0) < 0.02
        assert abs(draws.var(ddof=1) / exact_var - 1.0) < 0.05

    def test_draws_are_positive(self):
        rng = np.random.default_rng(0)
        draws = [gibbs_variance(self.merits, self.cov, 2.0, 1.0, rng) for _ in range(100)]
        assert min(draws) > 0


class TestRunChain:
    def test_dimension_mismatch_is_rejected(self, toy_prior):
        with pytest.raises(ValueError, match="3 entities"):
            run_chain(flat_wins(3), toy_prior, SamplerConfig(beta=0.2, iterations=10))

    def test_draws_respect_the_sum_to_zero_constraint(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=400, seed=1)
        samples = run_chain(toy_wins, toy_prior, config)
        assert np.abs(samples.merit_draws.sum(axis=1)).max() < 1e-8

    def test_thinning_bookkeeping(self, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=103, burn_in=50, thin=7, seed=2)
        samples = run_chain(flat_wins(toy_prior.m), toy_prior, config)
        assert samples.proposed == 53
        assert samples.n_kept == 8  # ceil(53 / 7)
        assert samples.accept_flags.shape == (53,)
        assert samples.accepted == int(samples.accept_flags.sum())

    def test_flat_likelihood_accepts_everything(self, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=200, seed=3)
        samples = run_chain(flat_wins(toy_prior.m), toy_prior, config)
        assert samples.accepted == samples.proposed

    def test_fix_variance_pins_the_variance_draws(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=300, seed=4, fix_variance=2.5)
        samples = run_chain(toy_wins, toy_prior, config)
        assert (samples.variance_draws == 2.5).all()

    def test_same_seed_gives_bit_identical_chains(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.25, iterations=500, seed=77)
        a = run_chain(toy_wins, toy_prior, config)
        b = run_chain(toy_wins, toy_prior, config)
        np.testing.assert_array_equal(a.merit_draws, b.merit_draws)
        np.testing.assert_array_equal(a.variance_draws, b.variance_draws)
        assert a.accepted == b.accepted

    def test_posterior_orders_a_lopsided_contest(self):
        income = make_income(3)
        cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
        config = SamplerConfig(beta=0.25, iterations=20_000, seed=5, fix_variance=1.0)
        samples = run_chain(lopsided_wins(), cov, config)
        mean = posterior_mean(samples)
        assert mean[0] > mean[1] > mean[2]

    def test_flat_chain_reaches_its_stationary_law(self, toy_prior):
        """With no data the chain must reproduce the hierarchical prior.

        Integrating the inverse-gamma variance out of its own full
        conditional fixes the stationary variance mean at
        prior_scale / (prior_shape - M/2) whenever prior_shape > M/2, and
        the merit covariance at that mean times the projected covariance.
        """
        m = 4
        cov = build_prior(make_income(m), KernelSpec("squared_exponential", 0.5))
        config = SamplerConfig(
            beta=0.3, iterations=200_000, burn_in=50_000, seed=11,
            prior_shape=4.0, prior_scale=1.0,
        )
        samples = run_chain(flat_wins(m), cov, config)
        target_var = 1.0 / (4.0 - m / 2)  # 0.5
        assert abs(samples.variance_draws.mean() / target_var - 1.0) < 0.08
        target_cov = target_var * cov.projected
        err = np.linalg.norm(np.cov(samples.merit_draws.T) - target_cov)
        assert err / np.linalg.norm(target_cov) < 0.12


class TestWhitenedKernel:
    """The chain keeps the state (merits | u), moves both halves by one lifted
    step, and draws its randomness BLOCK iterations at a time."""

    def test_gibbs_scale_is_the_merit_quadratic_form(self, toy_wins, toy_prior):
        # u @ u must equal merits' pinv merits: rebuild each Gibbs scale from the
        # chain's own gamma variates (the draws after the block's normals)
        # and the merits the variance was drawn at
        config = SamplerConfig(beta=0.3, iterations=600, burn_in=0, seed=21,
                               prior_shape=3.0, prior_scale=0.5)
        samples = run_chain(toy_wins, toy_prior, config)
        rng = np.random.default_rng(config.seed)
        rng.standard_normal((config.iterations, toy_prior.rank))
        gammas = rng.standard_gamma(3.0 + 0.5 * toy_wins.m, config.iterations)
        merits = np.vstack([np.zeros(toy_wins.m), samples.merit_draws[:-1]])
        quad = np.einsum("ni,ij,nj->n", merits, toy_prior.pinv, merits)
        assert quad.max() > 1.0  # the quadratic form is not swamped by prior_scale
        np.testing.assert_allclose(samples.variance_draws * gammas, 0.5 + quad, rtol=1e-10)

    @pytest.mark.parametrize("iterations", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_bookkeeping_across_a_block_edge(self, toy_wins, toy_prior, iterations):
        # with burn-in BLOCK - 6 and thin 3, iteration BLOCK + 1 (the first of
        # the second block) is a kept draw
        config = SamplerConfig(beta=0.2, iterations=iterations, burn_in=BLOCK - 6, thin=3, seed=5)
        a = run_chain(toy_wins, toy_prior, config)
        b = run_chain(toy_wins, toy_prior, config)
        n_post = iterations - (BLOCK - 6)
        assert a.proposed == n_post
        assert a.accept_flags.shape == (n_post,)
        assert a.n_kept == -(-n_post // 3)
        assert a.accepted == int(a.accept_flags.sum())
        for name in ("merit_draws", "variance_draws", "accept_flags"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        # burn-in and thinning only select from the stream, so they match an unthinned run
        every = run_chain(toy_wins, toy_prior, dataclasses.replace(config, burn_in=0, thin=1))
        np.testing.assert_array_equal(a.merit_draws, every.merit_draws[BLOCK - 6 :: 3])
        np.testing.assert_array_equal(a.variance_draws, every.variance_draws[BLOCK - 6 :: 3])
        np.testing.assert_array_equal(a.accept_flags, every.accept_flags[BLOCK - 6 :])

    @pytest.mark.parametrize("fix_variance", [None, 0.7])
    @pytest.mark.parametrize("iterations", [BLOCK - 1, BLOCK + 1])
    def test_recorded_loglik_is_the_likelihood_of_each_kept_draw(
        self, toy_wins, toy_prior, iterations, fix_variance
    ):
        config = SamplerConfig(beta=0.2, iterations=iterations, burn_in=BLOCK - 6, thin=3,
                               seed=5, fix_variance=fix_variance)
        samples = run_chain(toy_wins, toy_prior, config)
        assert samples.loglik_draws.shape == (samples.n_kept,)
        expected = [log_likelihood(row, toy_wins) for row in samples.merit_draws]
        assert samples.loglik_draws.tolist() == expected

    def test_a_new_block_leaves_the_earlier_draws_alone(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=BLOCK, burn_in=BLOCK - 6, thin=3, seed=5)
        one = run_chain(toy_wins, toy_prior, config)
        two = run_chain(toy_wins, toy_prior, dataclasses.replace(config, iterations=BLOCK + 1))
        np.testing.assert_array_equal(two.merit_draws[: one.n_kept], one.merit_draws)
        np.testing.assert_array_equal(two.accept_flags[: one.proposed], one.accept_flags)

    def test_non_finite_log_likelihood_names_its_iteration(self, toy_wins, toy_prior, monkeypatch):
        config = SamplerConfig(beta=0.2, iterations=2 * BLOCK, seed=3)
        # the merits that iteration BLOCK + 4 proposes score NaN, in whatever batch they sit
        target = one_at_a_time(toy_wins, toy_prior, config)["proposals"][BLOCK + 3]
        real = mcmc._log_likelihood

        def fails_late(merits, pairs):
            return np.where((merits == target).all(axis=-1), np.nan, real(merits, pairs))

        monkeypatch.setattr(mcmc, "_log_likelihood", fails_late)
        with pytest.raises(FloatingPointError, match=f"at iteration {BLOCK + 4}$"):
            run_chain(toy_wins, toy_prior, config)

    def test_a_pair_far_below_the_largest_merit_is_scored_in_the_pairwise_form(self):
        # only the pair (b, c) is compared; at a pinned variance of 10^6, a is
        # often more than 745 above both, where both their strengths underflow
        wins = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0], [0.0, 2.0, 0.0]])
        w = WinMatrix(entities=("a", "b", "c"), wins=wins)
        cov = build_prior(make_income(3), KernelSpec("squared_exponential", 0.1))
        config = SamplerConfig(beta=0.5, iterations=3000, burn_in=0, seed=5, fix_variance=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning either
            samples = run_chain(w, cov, config)
        with np.errstate(divide="ignore"):
            assert np.isposinf(_log_likelihood(samples.merit_draws, w.pairs)).any()
        oracle = dense_log_likelihood(samples.merit_draws, w)
        np.testing.assert_allclose(samples.loglik_draws, oracle, rtol=1e-12)

    def test_a_runaway_gibbs_variance_is_named_where_it_overflows(self, fixture_dataset, monkeypatch):
        # with no comparisons every proposal is accepted and the Gibbs scale
        # grows geometrically until u @ u overflows; the chain must stop there,
        # before merits scaled by an infinite root reach the likelihood
        _, income = fixture_dataset
        cov = build_prior(income, KernelSpec("squared_exponential", 0.09))
        config = SamplerConfig(beta=0.5, iterations=20_000, burn_in=0, seed=11)
        real, scored = mcmc._log_likelihood, []

        def checked(merits, pairs):
            scored.append(bool(np.isfinite(merits).all()))
            return real(merits, pairs)

        monkeypatch.setattr(mcmc, "_log_likelihood", checked)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError) as caught:
            run_chain(flat_wins(cov.m), cov, config)
        message = str(caught.value)
        assert message.startswith("non-finite Gibbs variance scale at iteration ")
        assert 0 < int(message.rsplit(" ", 1)[1]) <= 4214
        assert all(scored)

    def test_non_finite_proposals_past_an_acceptance_are_never_seen(
        self, toy_wins, toy_prior, monkeypatch
    ):
        # a batch may score proposals after the one it accepts, from a state the
        # chain has already left; the one-at-a-time chain never makes them, so
        # a non-finite value there must not stop the chain or change it
        config = SamplerConfig(beta=0.2, iterations=2 * BLOCK, seed=3)
        oracle = one_at_a_time(toy_wins, toy_prior, config)
        made = {row.tobytes() for row in oracle["proposals"]}
        real = mcmc._log_likelihood
        poisoned = []

        def fails_off_the_chain(merits, pairs):
            values = real(merits, pairs)
            if merits.ndim == 2:
                off = np.array([row.tobytes() not in made for row in merits])
                values[off] = np.nan
                poisoned.append(int(off.sum()))
            return values

        monkeypatch.setattr(mcmc, "_log_likelihood", fails_off_the_chain)
        samples = run_chain(toy_wins, toy_prior, config)
        assert sum(poisoned) > 0
        assert_same_chain(samples, oracle)


class TestBatchedProposals:
    """``run_chain`` scores the proposals up to the next acceptance in one call
    and must still be the one-at-a-time chain, bit for bit."""

    CONFIGURATIONS = pytest.mark.parametrize(
        "beta, iterations, burn_in, thin, fix_variance",
        [
            (0.2, BLOCK - 1, BLOCK - 6, 3, None),
            (0.2, BLOCK, BLOCK - 6, 3, None),
            (0.2, BLOCK + 1, BLOCK - 6, 3, 0.7),
            (0.6, 2 * BLOCK + 3, 37, 1, None),
            (0.6, 2 * BLOCK + 3, 500, 3, 0.7),
            (0.05, 1500, 0, 1, None),
            (0.99, 2 * BLOCK + 3, 100, 2, None),
            (0.2, 3 * BLOCK + 5, BLOCK + 17, BLOCK + 300, None),
            (0.2, 3 * BLOCK + 5, BLOCK + 17, BLOCK + 300, 0.7),
        ],
    )

    @pytest.mark.parametrize("cap", [1, 5, 64])
    @CONFIGURATIONS
    def test_matches_the_one_at_a_time_chain(
        self, toy_wins, toy_prior, monkeypatch, cap, beta, iterations, burn_in, thin, fix_variance
    ):
        monkeypatch.setattr(mcmc, "BATCH", cap)
        config = SamplerConfig(beta=beta, iterations=iterations, burn_in=burn_in, thin=thin,
                               seed=5, fix_variance=fix_variance)
        samples = run_chain(toy_wins, toy_prior, config)
        assert_same_chain(samples, one_at_a_time(toy_wins, toy_prior, config))

    @CONFIGURATIONS
    def test_lifted_steps_make_the_u_space_chain(
        self, toy_wins, toy_prior, beta, iterations, burn_in, thin, fix_variance
    ):
        # the lifted merit-space steps move the paper's recursion by rounding only
        config = SamplerConfig(beta=beta, iterations=iterations, burn_in=burn_in, thin=thin,
                               seed=5, fix_variance=fix_variance)
        samples = run_chain(toy_wins, toy_prior, config)
        reference = u_space_chain(toy_wins, toy_prior, config)
        assert samples.accept_flags.tobytes() == reference["accept_flags"][burn_in:].tobytes()
        np.testing.assert_allclose(samples.merit_draws, reference["merit_draws"][burn_in::thin],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(samples.variance_draws,
                                   reference["variance_draws"][burn_in::thin], rtol=1e-12)

    @pytest.mark.parametrize("fix_variance", [None, 0.7])
    def test_a_batch_that_straddles_the_burn_in(self, toy_wins, toy_prior, monkeypatch, fix_variance):
        config = SamplerConfig(beta=0.6, iterations=BLOCK + 300, burn_in=BLOCK + 41, thin=3,
                               seed=8, fix_variance=fix_variance)
        oracle = one_at_a_time(toy_wins, toy_prior, config)
        rows = []
        real = mcmc._log_likelihood

        def counts_rows(merits, pairs):
            if merits.ndim == 2:
                rows.append(len(merits))
            return real(merits, pairs)

        monkeypatch.setattr(mcmc, "_log_likelihood", counts_rows)
        samples = run_chain(toy_wins, toy_prior, config)
        assert_same_chain(samples, oracle)
        # rebuild each batch's span: it runs to its first acceptance, or to its end
        spans, first = [], 0
        for n in rows:
            assert first // BLOCK == (first + n - 1) // BLOCK  # never across a block edge
            hits = np.flatnonzero(oracle["accept_flags"][first : first + n])
            last = first + (hits[0] + 1 if len(hits) else n)
            spans.append((first, last))
            first = last
        assert first == config.iterations
        assert any(a < config.burn_in < b for a, b in spans)
        assert max(rows) > 2


def test_the_two_halves_of_the_state_stay_together(fixture_dataset):
    # the merits are never rebuilt from u: over a long chain they must stay in
    # the sum-to-zero subspace, and u @ u must stay their quadratic form
    table, income = fixture_dataset
    w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
    cov = build_prior(income, KernelSpec("squared_exponential", 0.09))
    config = SamplerConfig(beta=0.009, iterations=50_000, burn_in=0, seed=23)
    samples = run_chain(w, cov, config)
    assert np.abs(samples.merit_draws.sum(axis=1)).max() < 1e-12
    # rebuild each block's gamma variates: they follow the block's normals
    rng, gammas = np.random.default_rng(config.seed), []
    shape = config.prior_shape + 0.5 * w.m
    for start in range(0, config.iterations, BLOCK):
        size = min(BLOCK, config.iterations - start)
        rng.standard_normal((size, cov.rank))
        gammas.append(rng.standard_gamma(shape, size))
        rng.random(size)
    merits = np.vstack([np.zeros(w.m), samples.merit_draws[:-1]])
    quad = np.einsum("ni,ij,nj->n", merits, cov.pinv, merits)
    np.testing.assert_allclose(samples.variance_draws * np.concatenate(gammas),
                               config.prior_scale + quad, rtol=1e-10)


def test_the_softplus_likelihood_runs_the_same_chain(fixture_dataset, monkeypatch):
    # the strength form moves the log-likelihood by rounding only, so on the
    # bundled data no accept test changes its outcome
    table, income = fixture_dataset
    w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
    cov = build_prior(income, KernelSpec("squared_exponential", 0.09))
    config = SamplerConfig(beta=0.009, iterations=3000, seed=17)
    samples = run_chain(w, cov, config)
    monkeypatch.setattr(mcmc, "_log_likelihood",
                        lambda merits, pairs: softplus_log_likelihood(merits, w))
    oracle = run_chain(w, cov, config)
    for name in ("merit_draws", "variance_draws", "accept_flags"):
        assert getattr(samples, name).tobytes() == getattr(oracle, name).tobytes(), name
    np.testing.assert_allclose(samples.loglik_draws, oracle.loglik_draws, rtol=1e-12)
    assert not np.array_equal(samples.loglik_draws, oracle.loglik_draws)


class TestPosteriorMean:
    def test_mean_of_kept_draws(self, toy_wins, toy_prior):
        samples = run_chain(toy_wins, toy_prior, SamplerConfig(beta=0.2, iterations=200, seed=6))
        np.testing.assert_allclose(posterior_mean(samples), samples.merit_draws.mean(axis=0))


class TestChainSamplesValidation:
    # 5 post-burn-in iterations kept every third: 2 kept draws
    CONFIG = SamplerConfig(beta=0.2, iterations=8, burn_in=3, thin=3)

    def chain(self, n_flags=5, n_kept=2, accepted=0, **changes):
        fields = dict(
            merit_draws=np.zeros((n_kept, 3)),
            variance_draws=np.ones(n_kept),
            accepted=accepted,
            accept_flags=np.zeros(n_flags, dtype=bool),
            config=self.CONFIG,
        )
        return ChainSamples(**{**fields, **changes})

    def test_a_chain_that_matches_its_config(self):
        samples = self.chain()
        assert (samples.proposed, samples.n_kept, samples.m) == (5, 2, 3)
        # proposed is the flags' count, not a field of its own
        assert "proposed" not in {field.name for field in dataclasses.fields(ChainSamples)}

    @pytest.mark.parametrize("n_flags, n_kept", [(0, 0), (5, 0), (0, 2)])
    def test_an_empty_chain_cannot_be_constructed(self, n_flags, n_kept):
        # SamplerConfig forces burn_in < iterations: one proposal and one kept draw at least
        with pytest.raises(ValueError, match="must have one entry per"):
            self.chain(n_flags, n_kept)
        with pytest.raises(ValueError, match="burn_in"):
            SamplerConfig(beta=0.2, iterations=3, burn_in=3)

    def test_accept_flags_must_match_proposed(self):
        for n_flags in (4, 6):
            with pytest.raises(ValueError, match=r"accept_flags must have one entry per .* \(5\)"):
                self.chain(n_flags)

    @pytest.mark.parametrize("name, shape", [
        ("merit", (1, 3)), ("merit", (3, 3)), ("merit", (2,)),
        ("variance", (1,)), ("variance", (3,)), ("variance", (2, 1)),
    ])
    def test_draws_must_have_the_kept_length_of_the_config(self, name, shape):
        with pytest.raises(ValueError, match=rf"{name} draws must have one entry per kept draw \(2\)"):
            self.chain(**{f"{name}_draws": np.ones(shape)})

    @pytest.mark.parametrize("accepted", [1, 3])
    def test_accepted_must_count_the_accept_flags(self, accepted):
        with pytest.raises(ValueError, match="number of set accept_flags"):
            self.chain(accepted=accepted, accept_flags=np.array([True, False, True, False, False]))

    def test_accepted_bounded_by_proposed(self):
        with pytest.raises(ValueError, match="accepted"):
            self.chain(accepted=9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_variance_draws_are_an_error(self, bad):
        variance_draws = np.ones(2)
        variance_draws[1] = bad
        with pytest.raises(ValueError, match="non-finite variance draws"):
            self.chain(variance_draws=variance_draws)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loglik_draws_are_an_error(self, bad):
        loglik_draws = np.zeros(4)
        loglik_draws[1] = bad
        with pytest.raises(ValueError, match="non-finite loglik draws"):
            dataclasses.replace(toy_samples(np.zeros((4, 3))), loglik_draws=loglik_draws)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
    def test_loglik_draws_need_one_entry_per_kept_draw(self, shape):
        with pytest.raises(ValueError, match="loglik draws must have one entry per kept"):
            dataclasses.replace(toy_samples(np.zeros((4, 3))), loglik_draws=np.zeros(shape))


class TestPersistence:
    def make_samples(self, toy_wins, toy_prior, seed=13):
        config = SamplerConfig(beta=0.2, iterations=150, burn_in=30, thin=2, seed=seed)
        return run_chain(toy_wins, toy_prior, config)

    def test_round_trip_preserves_everything(self, tmp_path, toy_wins, toy_prior):
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path, metadata={"jitter_applied": False})
        loaded = load_chain(path)
        np.testing.assert_array_equal(loaded.merit_draws, samples.merit_draws)
        np.testing.assert_array_equal(loaded.variance_draws, samples.variance_draws)
        np.testing.assert_array_equal(loaded.accept_flags, samples.accept_flags)
        assert loaded.loglik_draws.tobytes() == samples.loglik_draws.tobytes()
        assert loaded.accepted == samples.accepted
        assert loaded.proposed == samples.proposed
        assert loaded.config == samples.config
        again, extra = _read_chain(path)
        assert extra == {"jitter_applied": False}
        assert again.merit_draws.tobytes() == loaded.merit_draws.tobytes()

    def test_acceptance_counts_are_stored_once(self, tmp_path, toy_wins, toy_prior):
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        with zipfile.ZipFile(path) as archive:
            assert not {"accepted", "proposed"} & json.loads(archive.read("meta.json")).keys()
        # a dump whose meta.json also holds the counts, as older dumps do, loads the same
        rewrite_dump(path, accepted=samples.accepted, proposed=samples.proposed)
        loaded = load_chain(path)
        assert (loaded.accepted, loaded.proposed) == (samples.accepted, samples.proposed)

    def test_a_dump_whose_settings_name_a_kernel_loads(self, tmp_path, toy_wins, toy_prior):
        # older dumps stored the prior kernel among the sampler settings
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        kernel = {"kind": "squared_exponential", "length_scale": 0.09, "mixture": None}
        rewrite_dump(path, config={**dataclasses.asdict(samples.config), "kernel": kernel})
        assert load_chain(path).config == samples.config

    @pytest.mark.parametrize("stored", [False, True])
    def test_a_dump_that_stores_the_retired_shape_setting_loads(
        self, tmp_path, toy_wins, toy_prior, stored
    ):
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        rewrite_dump(path, config={**dataclasses.asdict(samples.config), "rank_adjusted_shape": stored})
        assert load_chain(path).config == samples.config
        rewrite_dump(path, config={**dataclasses.asdict(samples.config), "shape": stored})
        with pytest.raises(ValueError, match="corrupt or unreadable.*shape"):
            load_chain(path)

    @pytest.mark.parametrize("meta", [[], "meta", {"config": "beta = 0.2"}, {"extra": []}])
    def test_meta_json_of_another_shape_is_corrupt(self, tmp_path, toy_wins, toy_prior, meta):
        path = tmp_path / "chain.npz"
        save_chain(self.make_samples(toy_wins, toy_prior), path)
        with zipfile.ZipFile(path) as archive:
            entries = {name: archive.read(name) for name in archive.namelist()}
        stored = json.loads(entries["meta.json"])
        entries["meta.json"] = json.dumps({**stored, **meta} if isinstance(meta, dict) else meta)
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in entries.items():
                archive.writestr(name, data)
        with pytest.raises(ValueError, match="corrupt or unreadable.*meta.json must be an object"):
            _read_chain(path)

    def test_identical_samples_dump_byte_identical_files(self, tmp_path, toy_wins, toy_prior):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_chain(self.make_samples(toy_wins, toy_prior), a)
        save_chain(self.make_samples(toy_wins, toy_prior), b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_dump_raises_a_clear_error(self, tmp_path):
        path = tmp_path / "chain.npz"
        for data in (b"this is not a zip archive", b""):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="corrupt or unreadable"):
                load_chain(path)
            with pytest.raises(ValueError, match="corrupt or unreadable"):
                _read_chain(path)

    def test_truncated_archive_raises_a_clear_error(self, tmp_path, toy_wins, toy_prior):
        path = tmp_path / "chain.npz"
        save_chain(self.make_samples(toy_wins, toy_prior), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_chain(path)

    def test_dump_without_loglik_loads_with_none(self, tmp_path, toy_wins, toy_prior):
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        rewrite_dump(path, drop=("loglik_draws.npy",))
        with zipfile.ZipFile(path) as archive:
            assert "loglik_draws.npy" not in archive.namelist()
        loaded = load_chain(path)
        assert loaded.loglik_draws is None
        np.testing.assert_array_equal(loaded.merit_draws, samples.merit_draws)

    def test_dump_without_a_required_entry_is_corrupt(self, tmp_path, toy_wins, toy_prior):
        path = tmp_path / "chain.npz"
        for entry in ("variance_draws.npy", "meta.json"):
            save_chain(self.make_samples(toy_wins, toy_prior), path)
            rewrite_dump(path, drop=(entry,))
            with pytest.raises(ValueError, match=f"corrupt or unreadable.*{entry.removesuffix('.npy')}"):
                load_chain(path)

    def test_loglik_entry_is_written_only_when_set(self, tmp_path, toy_wins, toy_prior):
        samples = self.make_samples(toy_wins, toy_prior)
        with_loglik, without = tmp_path / "with.npz", tmp_path / "without.npz"
        save_chain(samples, with_loglik)
        save_chain(dataclasses.replace(samples, loglik_draws=None), without)
        with zipfile.ZipFile(with_loglik) as a, zipfile.ZipFile(without) as b:
            assert b.namelist() == [
                "merit_draws.npy", "variance_draws.npy", "accept_flags.npy", "meta.json"
            ]
            assert a.namelist() == b.namelist()[:3] + ["loglik_draws.npy", "meta.json"]
            for name in b.namelist():
                assert a.read(name) == b.read(name), name

    @staticmethod
    def writestr_dump(samples, path, metadata=None) -> None:
        """A chain dump made in memory, each array formatted whole and written by writestr."""
        meta = {"config": dataclasses.asdict(samples.config), "extra": metadata or {}}
        names = ("merit_draws", "variance_draws", "accept_flags", "loglik_draws")
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name in names:
                array = getattr(samples, name)
                if array is not None:
                    buffer = io.BytesIO()
                    np.lib.format.write_array(buffer, np.ascontiguousarray(array), allow_pickle=False)
                    info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                    archive.writestr(info, buffer.getvalue())
            info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, json.dumps(meta, sort_keys=True).encode("utf-8"))

    @pytest.mark.parametrize("buffering", [7, 64, 1 << 20])
    @pytest.mark.parametrize("loglik", [True, False])
    def test_streamed_arrays_give_the_bytes_of_whole_ones(
        self, tmp_path, toy_wins, toy_prior, buffering, loglik
    ):
        # each array goes to its entry in one write; the destination's buffer,
        # smaller than a .npy header or larger than the whole dump, changes no byte
        samples = self.make_samples(toy_wins, toy_prior)
        # a column-major copy is written in row-major order, as write_array writes it
        samples = dataclasses.replace(
            samples,
            merit_draws=np.asfortranarray(samples.merit_draws),
            loglik_draws=samples.loglik_draws if loglik else None,
        )
        streamed, whole = tmp_path / "streamed.npz", tmp_path / "whole.npz"
        with open(streamed, "wb", buffering=buffering) as destination:
            save_chain(samples, destination, metadata={"jitter_applied": True})
        self.writestr_dump(samples, whole, metadata={"jitter_applied": True})
        assert streamed.read_bytes() == whole.read_bytes()

    def test_no_array_is_copied(self, tmp_path):
        # 8.7 MB of merit draws; one copy of them, as writestr makes, would show at once
        samples = toy_samples(np.random.default_rng(8).standard_normal((33_000, 33)))
        assert samples.merit_draws.nbytes >= 8 << 20
        tracemalloc.start()
        try:
            save_chain(samples, tmp_path / "chain.npz", metadata={"jitter_applied": False})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        whole = tmp_path / "whole.npz"
        self.writestr_dump(samples, whole, metadata={"jitter_applied": False})
        assert (tmp_path / "chain.npz").read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("count", ["accepted", "proposed"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_accepted_that_disagrees_with_the_flags_is_corrupt(
        self, tmp_path, toy_wins, toy_prior, delta, count
    ):
        # a legacy meta.json repeats both counts; either one off by one is refused
        samples = self.make_samples(toy_wins, toy_prior)
        assert 0 < samples.accepted < samples.proposed
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        rewrite_dump(path, accepted=samples.accepted, proposed=samples.proposed)
        load_chain(path)
        rewrite_dump(path, **{count: getattr(samples, count) + delta})
        with pytest.raises(ValueError, match=f"corrupt or unreadable.*{count} must equal.*accept_flags"):
            load_chain(path)

    @pytest.mark.parametrize("setting, value", [("iterations", 151), ("iterations", 149),
                                                ("burn_in", 29), ("thin", 3)])
    def test_settings_that_contradict_the_arrays_are_corrupt(
        self, tmp_path, toy_wins, toy_prior, setting, value
    ):
        samples = self.make_samples(toy_wins, toy_prior)
        path = tmp_path / "chain.npz"
        save_chain(samples, path)
        rewrite_dump(path, config={**dataclasses.asdict(samples.config), setting: value})
        with pytest.raises(ValueError, match="corrupt or unreadable.*must have one entry per"):
            load_chain(path)
