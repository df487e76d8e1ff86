"""Sampler configuration, Gibbs variance step, pCN kernel, and chain persistence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from btrank import (
    ChainSamples,
    KernelSpec,
    SamplerConfig,
    WinMatrix,
    build_prior,
    gibbs_variance,
    load_chain,
    posterior_mean,
    run_chain,
    sample_constrained,
    save_chain,
)
from btrank import mcmc
from btrank.mcmc import BLOCK, read_chain_metadata

from .conftest import make_income


def flat_wins(m: int) -> WinMatrix:
    """A win matrix carrying no information, so the posterior is the prior."""
    return WinMatrix(
        entities=tuple(f"e{i}" for i in range(m)),
        wins=np.zeros((m, m)),
        comparisons=np.zeros((m, m), dtype=int),
    )


def lopsided_wins() -> WinMatrix:
    wins = np.array([[0.0, 9.0, 9.0], [1.0, 0.0, 9.0], [1.0, 1.0, 0.0]])
    comparisons = (wins + wins.T).astype(int)
    return WinMatrix(entities=("a", "b", "c"), wins=wins, comparisons=comparisons)


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

    def test_rank_adjusted_shape_uses_rank_not_dimension(self):
        chi, omega = 3.0, 2.0
        rng = np.random.default_rng(7)
        draws = np.array(
            [
                gibbs_variance(self.merits, self.cov, chi, omega, rng, rank_adjusted=True)
                for _ in range(100_000)
            ]
        )
        shape = chi + 0.5 * self.cov.rank  # rank 4, not dimension 5
        exact_mean = (omega + self.quad) / (shape - 1.0)
        assert abs(draws.mean() / exact_mean - 1.0) < 0.02

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
    """The chain keeps u with merits = factor @ u and draws its randomness BLOCK iterations at a time."""

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

    def test_a_new_block_leaves_the_earlier_draws_alone(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=BLOCK, burn_in=BLOCK - 6, thin=3, seed=5)
        one = run_chain(toy_wins, toy_prior, config)
        two = run_chain(toy_wins, toy_prior, dataclasses.replace(config, iterations=BLOCK + 1))
        np.testing.assert_array_equal(two.merit_draws[: one.n_kept], one.merit_draws)
        np.testing.assert_array_equal(two.accept_flags[: one.proposed], one.accept_flags)

    def test_non_finite_log_likelihood_names_its_iteration(self, toy_wins, toy_prior, monkeypatch):
        calls = []
        real = mcmc.log_likelihood

        def fails_late(merits, w):
            calls.append(1)
            # the first call evaluates the starting point, call k + 1 iteration k
            return float("nan") if len(calls) == BLOCK + 5 else real(merits, w)

        monkeypatch.setattr(mcmc, "log_likelihood", fails_late)
        config = SamplerConfig(beta=0.2, iterations=2 * BLOCK, seed=3)
        with pytest.raises(FloatingPointError, match=f"at iteration {BLOCK + 4}$"):
            run_chain(toy_wins, toy_prior, config)


class TestPosteriorMean:
    def test_mean_of_kept_draws(self, toy_wins, toy_prior):
        samples = run_chain(toy_wins, toy_prior, SamplerConfig(beta=0.2, iterations=200, seed=6))
        np.testing.assert_allclose(posterior_mean(samples), samples.merit_draws.mean(axis=0))

    def test_empty_chain_is_an_error(self):
        empty = ChainSamples(
            merit_draws=np.empty((0, 3)),
            variance_draws=np.empty(0),
            accepted=0,
            proposed=0,
            accept_flags=np.zeros(0, dtype=bool),
            config=SamplerConfig(beta=0.2, iterations=10),
        )
        with pytest.raises(ValueError, match="no kept draws"):
            posterior_mean(empty)


class TestChainSamplesValidation:
    def test_accept_flags_must_match_proposed(self):
        with pytest.raises(ValueError, match="accept_flags"):
            ChainSamples(
                merit_draws=np.zeros((2, 3)),
                variance_draws=np.ones(2),
                accepted=1,
                proposed=5,
                accept_flags=np.zeros(3, dtype=bool),
                config=SamplerConfig(beta=0.2, iterations=10),
            )

    def test_accepted_bounded_by_proposed(self):
        with pytest.raises(ValueError, match="accepted"):
            ChainSamples(
                merit_draws=np.zeros((2, 3)),
                variance_draws=np.ones(2),
                accepted=9,
                proposed=5,
                accept_flags=np.zeros(5, dtype=bool),
                config=SamplerConfig(beta=0.2, iterations=10),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_variance_draws_are_an_error(self, bad):
        variance_draws = np.ones(4)
        variance_draws[2] = bad
        with pytest.raises(ValueError, match="non-finite variance draws"):
            ChainSamples(
                merit_draws=np.zeros((4, 3)),
                variance_draws=variance_draws,
                accepted=1,
                proposed=4,
                accept_flags=np.zeros(4, dtype=bool),
                config=SamplerConfig(beta=0.2, iterations=10),
            )


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
        assert loaded.accepted == samples.accepted
        assert loaded.proposed == samples.proposed
        assert loaded.config == samples.config
        assert read_chain_metadata(path) == {"jitter_applied": False}

    def test_identical_samples_dump_byte_identical_files(self, tmp_path, toy_wins, toy_prior):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_chain(self.make_samples(toy_wins, toy_prior), a)
        save_chain(self.make_samples(toy_wins, toy_prior), b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_dump_raises_a_clear_error(self, tmp_path):
        path = tmp_path / "chain.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_chain(path)
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            read_chain_metadata(path)

    def test_truncated_archive_raises_a_clear_error(self, tmp_path, toy_wins, toy_prior):
        path = tmp_path / "chain.npz"
        save_chain(self.make_samples(toy_wins, toy_prior), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or unreadable"):
            load_chain(path)
