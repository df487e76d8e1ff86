"""Effective sample size, long-run covariance, rank distances, and trace exports."""

from __future__ import annotations

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from btrank import (
    DiagnosticsReport,
    KernelSpec,
    SamplerConfig,
    acceptance_rate,
    apply_missing_policy,
    build_prior,
    build_win_matrix,
    diagnose,
    kendall_tau_distance,
    load_chain,
    multivariate_ess,
    rank_entities,
    rank_stability_series,
    run_chain,
    sample_covariance,
    save_chain,
    spectral_longrun,
    trace_export,
    univariate_ess,
)
from btrank import diagnostics
from btrank.data import write_json
from btrank.diagnostics import (
    ESS_CAP_FACTOR,
    ESS_FIRST_LAG,
    _ess_core,
    _fft_autocovariance,
    default_bandwidth,
    trace_stride,
)

from .conftest import make_income, rewrite_dump, toy_samples


def ar1(n: int, m: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros((n, m))
    innov = rng.standard_normal((n, m))
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    return x


def full_transform_ess(x: np.ndarray) -> float:
    """``univariate_ess`` from the autocovariances at every lag up to N - 1.

    The oracle for its shorter transforms: the same initial monotone
    sequence rule, on one transform of length at least 2N - 1.
    """
    n = len(x)
    acov = _fft_autocovariance(x, n - 1)
    pairs = acov[0 : 2 * (n // 2) : 2] + acov[1 : 2 * (n // 2) : 2]
    nonpositive = np.flatnonzero(pairs <= 0)
    cutoff = int(nonpositive[0]) if len(nonpositive) else n // 2
    asymptotic_var = -acov[0] + 2.0 * np.minimum.accumulate(pairs[:cutoff]).sum()
    if asymptotic_var <= 0:
        return ESS_CAP_FACTOR * n
    return float(min(n * acov[0] / asymptotic_var, ESS_CAP_FACTOR * n))


def lag_loop_longrun(draws: np.ndarray, bandwidth: int) -> np.ndarray:
    """The Bartlett long-run covariance as a direct sum over lags."""
    n = len(draws)
    centered = draws - draws.mean(axis=0)
    longrun = centered.T @ centered / (n - 1.0)
    for k in range(1, bandwidth):
        lag = centered[: n - k].T @ centered[k:] / n
        longrun = longrun + (1.0 - k / bandwidth) * (lag + lag.T)
    return 0.5 * (longrun + longrun.T)


def assert_matches_lag_loop(draws: np.ndarray, bandwidth: int) -> None:
    longrun, _ = spectral_longrun(draws, bandwidth)
    expected = lag_loop_longrun(draws, bandwidth)
    assert np.array_equal(longrun, longrun.T)
    assert np.abs(longrun - expected).max() <= 1e-12 * np.abs(expected).max()


class TestDefaultBandwidth:
    def test_exact_at_perfect_cubes(self):
        assert default_bandwidth(27) == 3
        assert default_bandwidth(26) == 2
        assert default_bandwidth(1000) == 10
        assert default_bandwidth(999) == 9
        assert default_bandwidth(27_000) == 30

    def test_exact_at_a_cube_beyond_float_precision(self):
        # both convert to the float 2**60, whose float cube root lies just below 2**20
        assert default_bandwidth(2**60 - 1) == 2**20 - 1
        assert default_bandwidth(2**60) == 2**20
        # the float cube root of 3**93 lies below 3**31 - 0.5
        assert default_bandwidth(3**93) == 3**31

    def test_never_below_one(self):
        assert default_bandwidth(1) == 1
        assert default_bandwidth(7) == 1


class TestAutocovariance:
    def test_sample_covariance_matches_numpy(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((80, 4))
        np.testing.assert_allclose(sample_covariance(draws), np.cov(draws.T), atol=1e-12)

    def test_sample_covariance_needs_two_draws(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_covariance(np.zeros((1, 3)))

    @pytest.mark.parametrize("n, max_lag", [(5, 4), (64, 1), (64, 63), (65, 3), (1000, 10), (1000, 999)])
    def test_fft_autocovariance_matches_the_lag_sums(self, n, max_lag):
        # the transform is only as long as n + max_lag needs, so no lag wraps around
        x = ar1(n, 1, 0.6, np.random.default_rng(n + max_lag))[:, 0]
        centered = x - x.mean()
        expected = [centered[: n - k] @ centered[k:] / n for k in range(max_lag + 1)]
        np.testing.assert_allclose(_fft_autocovariance(x, max_lag), expected,
                                   rtol=0, atol=1e-12 * expected[0])


class TestSpectralLongrun:
    def test_white_noise_longrun_is_the_marginal_covariance(self):
        rng = np.random.default_rng(21)
        draws = rng.standard_normal((20_000, 3))
        longrun = spectral_longrun(draws, default_bandwidth(20_000))[0]
        assert np.linalg.norm(longrun - np.eye(3)) / np.sqrt(3) < 0.15

    def test_no_bandwidth_means_the_default(self):
        draws = ar1(1000, 3, 0.5, np.random.default_rng(29))
        expected = spectral_longrun(draws, default_bandwidth(1000))
        got = spectral_longrun(draws, None)
        assert [value.tobytes() for value in got] == [value.tobytes() for value in expected]

    def test_autoregressive_longrun_matches_theory(self):
        # for x_t = rho x_{t-1} + eps with unit innovations the long-run
        # variance is 1 / (1 - rho)^2, i.e. 4.0 at rho = 0.5
        x = ar1(100_000, 1, 0.5, np.random.default_rng(17))
        longrun = spectral_longrun(x, default_bandwidth(100_000))[0]
        assert abs(longrun[0, 0] / 4.0 - 1.0) < 0.10

    def test_result_is_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        draws = ar1(500, 3, -0.7, rng)
        longrun = spectral_longrun(draws, 12)[0]
        assert np.linalg.eigvalsh(longrun).min() > -1e-10

    def test_the_sample_covariance_is_returned_bit_for_bit(self):
        # the ESS takes its sample covariance from here; an offset makes the
        # centring matter
        draws = ar1(3000, 5, 0.8, np.random.default_rng(6)) + 5.0
        sigma = spectral_longrun(draws, 14)[1]
        assert np.array_equal(sigma, sample_covariance(draws))

    def test_bandwidth_bounds(self):
        draws = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="bandwidth"):
            spectral_longrun(draws, 0)
        with pytest.raises(ValueError, match="bandwidth"):
            spectral_longrun(draws, 21)

    def test_matches_the_lag_loop(self):
        rng = np.random.default_rng(22)
        cases = [(rng.standard_normal((n, 3)), b) for n, b in ((2, 2), (20, 1), (20, 20), (500, 7))]
        # a persistent chain far from zero: the draws are centred before the
        # running sums, so the mean costs no precision
        cases.append((ar1(200_000, 4, 0.999, rng) + 1e3, default_bandwidth(200_000)))
        for draws, bandwidth in cases:
            assert_matches_lag_loop(draws, bandwidth)

    @pytest.mark.skipif(
        os.environ.get("BTRANK_FULL_RUN") != "1",
        reason="default-fit size (2e6 x 33); set BTRANK_FULL_RUN=1 to run",
    )
    def test_matches_the_lag_loop_at_the_default_fit_size(self):
        draws = ar1(2_000_000, 33, 0.999, np.random.default_rng(24)) + 3.0
        assert_matches_lag_loop(draws, default_bandwidth(2_000_000))

    def test_peak_memory_is_one_padded_copy_of_the_draws(self):
        # the zero-padded running-sum buffer plus two 1 MB blocks of window
        # sums measure 1.08x the input; the lag loop's centred copy measured
        # 1.00x, and a full-size array of window sums would add another 1.0x
        draws = np.random.default_rng(25).standard_normal((100_000, 33))
        tracemalloc.start()
        try:
            spectral_longrun(draws, default_bandwidth(100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * draws.nbytes


class TestMultivariateEss:
    def test_independent_draws_count_fully(self):
        draws = np.random.default_rng(10).standard_normal((10_000, 5))
        ess, rank_est = multivariate_ess(draws)
        assert rank_est == 5
        assert 0.9 * 10_000 < ess < 1.1 * 10_000

    def test_sum_to_zero_chains_drop_one_rank(self):
        draws = np.random.default_rng(10).standard_normal((10_000, 5))
        draws = draws - draws.mean(axis=1, keepdims=True)
        ess, rank_est = multivariate_ess(draws)
        assert rank_est == 4
        assert 0.9 * 10_000 < ess < 1.1 * 10_000

    def test_correlated_chain_discounts_draws(self):
        # independent AR(1) components at rho = 0.8 have ESS near N / 9
        draws = ar1(50_000, 4, 0.8, np.random.default_rng(3))
        ess, rank_est = multivariate_ess(draws)
        assert rank_est == 4
        assert 4000 < ess < 10_000

    def test_invariant_under_invertible_linear_maps(self):
        draws = ar1(5_000, 3, 0.4, np.random.default_rng(30))
        transform = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, -0.2], [0.0, 0.4, 1.0]])
        ess_a, rank_a = multivariate_ess(draws)
        ess_b, rank_b = multivariate_ess(draws @ transform.T)
        assert rank_a == rank_b == 3
        np.testing.assert_allclose(ess_a, ess_b, rtol=1e-9)

    def test_antithetic_chain_is_capped_with_a_warning(self):
        draws = ar1(5_000, 2, -0.9, np.random.default_rng(6))
        with pytest.warns(RuntimeWarning, match="capping"):
            ess, _ = multivariate_ess(draws)
        assert ess == 1.5 * 5_000

    def test_constant_draws_are_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            multivariate_ess(np.ones((100, 3)))

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="2-D"):
            multivariate_ess(np.zeros(50))

    def test_the_subspace_is_the_numerical_rank(self):
        # at M = 3 the tolerance is 3 eps = 6.7e-16 of the largest eigenvalue:
        # a direction with 1e-14 of it is sampled, one with 1e-32 is not
        rng = np.random.default_rng(12)
        draws = rng.standard_normal((10_000, 3))
        draws[:, 2] *= 1e-7
        assert multivariate_ess(draws)[1] == 3
        draws[:, 2] *= 1e-9
        assert multivariate_ess(draws)[1] == 2

    @pytest.mark.parametrize("iterations", [600, 3_000])
    @pytest.mark.parametrize("length_scale", [0.2, 0.6, 1.0])
    def test_a_fit_keeps_every_direction_of_its_prior(self, fixture_dataset, length_scale, iterations):
        # the prior has rank 32, 15 and 11 here; its smallest sampled
        # direction keeps at least 2.7e-14 of the largest eigenvalue, about
        # 4 times the tolerance at M = 33, and the sum-to-zero direction
        # at most 2.1e-16
        table, income = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        cov = build_prior(income, KernelSpec("squared_exponential", length_scale))
        for seed in (0, 1):
            samples = run_chain(w, cov, SamplerConfig(beta=0.009, iterations=iterations, seed=seed))
            assert multivariate_ess(samples.merit_draws)[1] == cov.rank

    def test_singular_longrun_on_retained_subspace_is_an_error(self):
        # a long-run covariance with a zero eigenvalue inside the retained
        # subspace cannot support the determinant ratio
        with pytest.raises(RuntimeError, match="singular on the retained subspace"):
            _ess_core(np.eye(2), np.diag([1.0, 0.0]), 100)


class TestUnivariateEss:
    def test_independent_draws_count_fully(self):
        x = np.random.default_rng(14).standard_normal(40_000)
        assert abs(univariate_ess(x) / 40_000 - 1.0) < 0.1

    def test_autoregressive_discount_matches_theory(self):
        # ESS for AR(1) is N (1 - rho) / (1 + rho) = N / 3 at rho = 0.5
        x = ar1(40_000, 1, 0.5, np.random.default_rng(15))[:, 0]
        assert abs(univariate_ess(x) / (40_000 / 3) - 1.0) < 0.15

    def test_constant_series_counts_as_independent(self):
        assert univariate_ess(np.full(500, 3.25)) == 500.0

    def test_constant_that_centering_does_not_cancel_counts_as_independent(self):
        # x - x.mean() leaves a tiny residue for 0.3, which once read as perfect correlation
        assert univariate_ess(np.full(1000, 0.3)) == 1000.0

    def test_alternating_series_hits_the_cap(self):
        assert univariate_ess(np.tile([1.0, -1.0], 500)) == 1.5 * 1000

    def test_needs_at_least_four_draws(self):
        with pytest.raises(ValueError, match="at least 4"):
            univariate_ess(np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("rho, transforms", [(0.0, 1), (0.9, 1), (0.99, 2)])
    def test_shorter_transforms_give_the_full_transform_ess(self, monkeypatch, rho, transforms):
        # at 2^16 - ESS_FIRST_LAG draws the first transform holds lags up to
        # ESS_FIRST_LAG only, and the next one every lag
        x = ar1(2**16 - ESS_FIRST_LAG, 1, rho, np.random.default_rng(31))[:, 0]
        lags, real = [], diagnostics._fft_autocovariance
        monkeypatch.setattr(diagnostics, "_fft_autocovariance",
                            lambda x, max_lag: lags.append(max_lag) or real(x, max_lag))
        ess = univariate_ess(x)
        assert lags == [ESS_FIRST_LAG, len(x) - 1][:transforms]
        assert abs(ess / full_transform_ess(x) - 1.0) < 1e-12

    def test_a_chains_merit_columns_give_the_full_transform_ess(self, fixture_dataset):
        table, income = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        cov = build_prior(income, KernelSpec("squared_exponential", 0.09))
        samples = run_chain(w, cov, SamplerConfig(beta=0.009, iterations=30_000, seed=29))
        for column in samples.merit_draws.T:
            assert abs(univariate_ess(column) / full_transform_ess(column) - 1.0) < 1e-12

    @pytest.mark.parametrize("value", [3.25, 0.3])
    def test_a_constant_series_gives_the_full_transform_ess(self, value):
        x = np.full(5000, value)
        assert univariate_ess(x) == full_transform_ess(x) == 5000.0


class TestAcceptanceRate:
    def test_recomputes_the_ratio(self):
        samples = toy_samples(np.random.default_rng(0).standard_normal((10, 3)), accepted=4)
        assert acceptance_rate(samples) == 0.4


def brute_force_tau(a, b) -> int:
    a, b = np.asarray(a), np.asarray(b)
    count = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if (a[i] - a[j]) * (b[i] - b[j]) < 0:
                count += 1
    return count


class TestKendallTauDistance:
    def test_hand_examples(self):
        assert kendall_tau_distance([1, 2, 3, 4], [1, 2, 3, 4]) == 0
        assert kendall_tau_distance([1, 2, 3, 4], [4, 3, 2, 1]) == 6
        assert kendall_tau_distance([1, 2, 3, 4], [2, 1, 3, 4]) == 1

    def test_matches_brute_force_on_random_permutations(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.permutation(8) + 1
            b = rng.permutation(8) + 1
            assert kendall_tau_distance(a, b) == brute_force_tau(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a, b = rng.permutation(10), rng.permutation(10)
        assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="equal length"):
            kendall_tau_distance([1, 2, 3], [1, 2])
        with pytest.raises(ValueError, match="permutations"):
            kendall_tau_distance([1, 2, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="permutations"):
            kendall_tau_distance([1, 2, 3], [1, 2, 4])


class TestRankDescending:
    def test_largest_value_gets_rank_one(self):
        np.testing.assert_array_equal(rank_entities([3.0, 1.0, 2.0]), [1, 3, 2])

    def test_ties_break_by_position(self):
        np.testing.assert_array_equal(rank_entities([2.0, 2.0, 5.0]), [2, 3, 1])


class TestRankStabilitySeries:
    def test_final_point_has_zero_distance(self):
        draws = np.random.default_rng(11).standard_normal((97, 4))
        series = rank_stability_series(toy_samples(draws), window=10)
        counts = [t for t, _ in series]
        assert counts == [10, 20, 30, 40, 50, 60, 70, 80, 90, 97]
        assert series[-1] == (97, 0)

    def test_running_means_drive_the_distances(self):
        # two draws that flip the leader: the first window ranking disagrees
        # with the final running-mean ranking in exactly one pair
        draws = np.array([[1.0, 0.0, -1.0], [-5.0, 4.0, 1.0]])
        series = rank_stability_series(toy_samples(draws), window=1)
        final = rank_entities(draws.mean(axis=0))
        first = rank_entities(draws[0])
        assert series[0] == (1, kendall_tau_distance(first, final))
        assert series[-1] == (2, 0)

    def test_window_must_be_positive(self):
        draws = np.random.default_rng(12).standard_normal((10, 3))
        with pytest.raises(ValueError, match="window"):
            rank_stability_series(toy_samples(draws), window=0)

    @staticmethod
    def per_window(draws: np.ndarray, window: int) -> list[tuple[int, int]]:
        """Each window's running-mean ranking against the final one, one window at a time."""
        n = len(draws)
        sums = np.cumsum(np.add.reduceat(draws, np.arange(0, n, window), axis=0), axis=0)
        final = rank_entities(sums[-1] / n)
        points = list(range(window, n, window)) + [n]
        return [(t, kendall_tau_distance(rank_entities(s / t), final)) for t, s in zip(points, sums)]

    @pytest.mark.parametrize("window", [1, 3, 10, 37, 40, 41])
    @pytest.mark.parametrize("block", [1, 4, 1024])
    def test_matches_a_ranking_per_window(self, monkeypatch, window, block):
        # a budget of block * M^2 comparisons compares block windows at a time
        monkeypatch.setattr(diagnostics, "COMPARISON_BUDGET", block * 6**2)
        rng = np.random.default_rng(window)
        # small integers tie often; column 3 repeats column 1 and column 4 is constant
        draws = rng.integers(-2, 3, size=(40, 6)).astype(float)
        draws[:, 3] = draws[:, 1]
        draws[:, 4] = 0.5
        series = rank_stability_series(toy_samples(draws), window)
        assert series == self.per_window(draws, window)
        assert any(d > 0 for _, d in series) or window >= 40
        assert all(type(t) is int and type(d) is int for t, d in series)

    def test_peak_memory_stays_near_the_draws_at_many_entities(self):
        # at M=300 a comparison block holds 11 windows: about 1 MB per temporary
        draws = np.random.default_rng(31).standard_normal((2000, 300))
        samples = toy_samples(draws)
        tracemalloc.start()
        try:
            rank_stability_series(samples, window=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * draws.nbytes


class TestTraceExport:
    def setup_method(self):
        self.draws = np.random.default_rng(13).standard_normal((60, 3))
        self.draws -= self.draws.mean(axis=1, keepdims=True)
        self.samples = toy_samples(self.draws)

    def test_default_exports_merits_and_variance(self):
        trace, acf, names = trace_export(self.samples)
        assert names == ["merit0", "merit1", "merit2", "variance"]
        assert trace.shape == (60 * 4,)
        np.testing.assert_array_equal(trace[:180], self.draws.T.ravel())
        np.testing.assert_array_equal(trace[180:], self.samples.variance_draws)
        assert len(acf) == 4 * (default_bandwidth(60) + 1)

    def test_acf_starts_at_one_and_respects_the_bandwidth(self):
        _, acf, names = trace_export(self.samples, params="merit0", bandwidth=5)
        assert names == ["merit0"]
        assert acf.shape == (6,)
        assert acf[0] == 1.0

    def test_the_stride_keeps_at_most_the_cap_draws(self):
        cap = diagnostics.TRACE_EXPORT_CAP
        for n, stride in [(1, 1), (cap - 1, 1), (cap, 1), (cap + 1, 2), (2 * cap, 2),
                          (2 * cap + 1, 3), (2_000_000, 20)]:
            assert trace_stride(n) == stride
            assert len(range(0, n, stride)) <= cap

    @pytest.mark.parametrize("n", [59, 60])
    def test_a_capped_trace_is_strided_and_its_acf_is_not(self, monkeypatch, n):
        samples = toy_samples(self.draws[:n])
        trace, acf, names = trace_export(samples)
        monkeypatch.setattr(diagnostics, "TRACE_EXPORT_CAP", 20)
        capped, capped_acf, capped_names = trace_export(samples)
        assert capped_names == names
        np.testing.assert_array_equal(capped, trace.reshape(len(names), n)[:, ::3].ravel())
        np.testing.assert_array_equal(capped_acf, acf)

    def test_no_parameters_give_empty_columns(self):
        trace, acf, names = trace_export(self.samples, params=[])
        assert (trace.shape, acf.shape, names) == ((0,), (0,), [])

    def test_bandwidth_outside_one_to_n_is_rejected(self):
        for bandwidth in (0, -3):
            with pytest.raises(ValueError, match=r"bandwidth must lie in \[1, 60\]"):
                trace_export(self.samples, bandwidth=bandwidth)
        short = toy_samples(self.draws[:20])
        with pytest.raises(ValueError, match=r"bandwidth must lie in \[1, 20\]"):
            trace_export(short, bandwidth=50)
        with pytest.raises(ValueError, match=r"bandwidth must lie in \[1, 20\]"):
            diagnose(short, bandwidth=50)
        # bandwidth n is accepted, and the ACF still stops at lag n - 1
        _, acf, _ = trace_export(short, params="merit0", bandwidth=20)
        assert acf.shape == (20,)

    def test_pinned_variance_acf_is_an_impulse(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=1500, burn_in=500, seed=8, fix_variance=0.3)
        samples = run_chain(toy_wins, toy_prior, config)
        _, acf, _ = trace_export(samples, params="variance")
        assert acf.tolist() == [1.0] + [0.0] * (len(acf) - 1)
        assert len(acf) == default_bandwidth(1000) + 1

    @pytest.mark.parametrize("block", [7, 1024])
    def test_quad_form_is_the_prior_quadratic_form_of_each_draw(
        self, toy_wins, toy_prior, monkeypatch, block
    ):
        monkeypatch.setattr(diagnostics, "QUAD_FORM_BLOCK", block)
        samples = run_chain(toy_wins, toy_prior, SamplerConfig(beta=0.2, iterations=300, seed=9))
        trace, _, names = trace_export(samples, params="quad_form", cov=toy_prior)
        expected = [row @ toy_prior.pinv @ row for row in samples.merit_draws]
        np.testing.assert_allclose(trace, expected, rtol=1e-13)

    def test_quad_form_and_loglik_need_their_inputs(self):
        with pytest.raises(ValueError, match="quad_form"):
            trace_export(self.samples, params="quad_form")
        with pytest.raises(ValueError, match="loglik"):
            trace_export(self.samples, params="loglik")
        with pytest.raises(ValueError, match="unknown trace parameter"):
            trace_export(self.samples, params="merit9")

    def test_loglik_is_the_recorded_column(self):
        loglik_draws = np.random.default_rng(14).standard_normal(60)
        samples = dataclasses.replace(self.samples, loglik_draws=loglik_draws)
        trace, _, names = trace_export(samples)
        assert names == ["merit0", "merit1", "merit2", "variance", "loglik"]
        np.testing.assert_array_equal(trace[240:], loglik_draws)

    def test_dump_without_loglik_exports_no_loglik(self, tmp_path, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=300, seed=9)
        path = tmp_path / "chain.npz"
        save_chain(run_chain(toy_wins, toy_prior, config), path)
        rewrite_dump(path, drop=("loglik_draws.npy",))
        samples = load_chain(path)
        _, _, names = trace_export(samples)
        assert names == [f"merit{i}" for i in range(toy_wins.m)] + ["variance"]
        with pytest.raises(ValueError, match="loglik requires a chain that recorded"):
            trace_export(samples, "loglik")

    def test_quad_form_matches_the_direct_quadratic(self):
        cov = build_prior(make_income(3), KernelSpec("squared_exponential", 0.5))
        trace, _, _ = trace_export(self.samples, params="quad_form", cov=cov)
        direct = [float(d @ cov.pinv @ d) for d in self.draws]
        np.testing.assert_allclose(trace, direct, rtol=1e-10)


class TestDiagnose:
    def setup_method(self, method=None):
        cov = build_prior(make_income(4), KernelSpec("squared_exponential", 0.5))
        wins = np.zeros((4, 4))
        from btrank import WinMatrix

        w = WinMatrix(entities=tuple("abcd"), wins=wins)
        self.samples = run_chain(w, cov, SamplerConfig(beta=0.3, iterations=3000, seed=19))

    def test_report_contents(self):
        report = diagnose(self.samples)
        assert report.rank_est == 3
        assert report.acceptance_rate == 1.0  # flat likelihood accepts all moves
        assert report.bandwidth == default_bandwidth(self.samples.n_kept)
        assert report.per_param_ess.shape == (4,)
        assert report.kendall_series[-1][1] == 0
        assert set(report.flags) == {"ess_capped"}

    def test_extra_flags_are_merged(self):
        report = diagnose(self.samples, extra_flags={"jitter_applied": True})
        assert report.flags["jitter_applied"] is True

    def test_the_json_file_loads_back_to_the_report(self, tmp_path):
        report = diagnose(self.samples, extra_flags={"jitter_applied": True})
        write_json(dataclasses.asdict(report), tmp_path / "diagnostics.json")
        parsed = json.loads((tmp_path / "diagnostics.json").read_text(encoding="utf-8"))
        assert parsed == {
            **dataclasses.asdict(report),
            "per_param_ess": report.per_param_ess.tolist(),
            "kendall_series": [list(point) for point in report.kendall_series],
        }

    def test_zero_window_is_rejected_not_defaulted(self):
        with pytest.raises(ValueError, match="window"):
            diagnose(self.samples, window=0)


class TestDiagnosticsReportValidation:
    def base_kwargs(self):
        return dict(
            ess=100.0,
            rank_est=3,
            acceptance_rate=0.3,
            bandwidth=5,
            per_param_ess=np.ones(4),
            kendall_series=[(10, 2), (20, 0)],
            flags={},
        )

    def test_rejects_bad_fields(self):
        for key, value, message in [
            ("acceptance_rate", 1.5, "acceptance_rate"),
            ("ess", 0.0, "ess"),
            ("rank_est", 0, "rank_est"),
            ("bandwidth", 0, "bandwidth"),
        ]:
            kwargs = self.base_kwargs() | {key: value}
            with pytest.raises(ValueError, match=message):
                DiagnosticsReport(**kwargs)
