"""Effective sample size, long-run covariance, rank distances, and trace exports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from btrank import (
    ChainSamples,
    DiagnosticsReport,
    KernelSpec,
    SamplerConfig,
    acceptance_rate,
    autocovariance,
    build_prior,
    diagnose,
    kendall_tau_distance,
    multivariate_ess,
    rank_entities,
    rank_stability_series,
    run_chain,
    sample_covariance,
    spectral_longrun,
    trace_export,
    univariate_ess,
)
from btrank.diagnostics import _ess_core, default_bandwidth, long_rows

from .conftest import make_income, toy_samples


def ar1(n: int, m: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros((n, m))
    innov = rng.standard_normal((n, m))
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    return x


class TestDefaultBandwidth:
    def test_exact_at_perfect_cubes(self):
        assert default_bandwidth(27) == 3
        assert default_bandwidth(26) == 2
        assert default_bandwidth(1000) == 10
        assert default_bandwidth(999) == 9
        assert default_bandwidth(27_000) == 30

    def test_never_below_one(self):
        assert default_bandwidth(1) == 1
        assert default_bandwidth(7) == 1


class TestAutocovariance:
    def test_matches_a_direct_loop(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((50, 3))
        centered = draws - draws.mean(axis=0)
        for lag in (0, 1, 5):
            direct = sum(
                np.outer(centered[t], centered[t + lag]) for t in range(50 - lag)
            ) / 50
            np.testing.assert_allclose(autocovariance(draws, lag), direct, atol=1e-12)

    def test_validates_shape_and_lag(self):
        with pytest.raises(ValueError, match="2-D"):
            autocovariance(np.zeros(10), 0)
        with pytest.raises(ValueError, match="lag"):
            autocovariance(np.zeros((10, 2)), 10)
        with pytest.raises(ValueError, match="lag"):
            autocovariance(np.zeros((10, 2)), -1)

    def test_sample_covariance_matches_numpy(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((80, 4))
        np.testing.assert_allclose(sample_covariance(draws), np.cov(draws.T), atol=1e-12)

    def test_sample_covariance_needs_two_draws(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_covariance(np.zeros((1, 3)))


class TestSpectralLongrun:
    def test_white_noise_longrun_is_the_marginal_covariance(self):
        rng = np.random.default_rng(21)
        draws = rng.standard_normal((20_000, 3))
        longrun = spectral_longrun(draws, default_bandwidth(20_000))
        assert np.linalg.norm(longrun - np.eye(3)) / np.sqrt(3) < 0.15

    def test_autoregressive_longrun_matches_theory(self):
        # for x_t = rho x_{t-1} + eps with unit innovations the long-run
        # variance is 1 / (1 - rho)^2, i.e. 4.0 at rho = 0.5
        x = ar1(100_000, 1, 0.5, np.random.default_rng(17))
        longrun = spectral_longrun(x, default_bandwidth(100_000))
        assert abs(longrun[0, 0] / 4.0 - 1.0) < 0.10

    def test_result_is_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        draws = ar1(500, 3, -0.7, rng)
        longrun = spectral_longrun(draws, 12)
        assert np.linalg.eigvalsh(longrun).min() > -1e-10

    def test_flag_reports_flooring(self):
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((400, 2))
        _, floored = spectral_longrun(draws, 7, return_flag=True)
        assert floored is False

    def test_bandwidth_bounds(self):
        draws = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="bandwidth"):
            spectral_longrun(draws, 0)
        with pytest.raises(ValueError, match="bandwidth"):
            spectral_longrun(draws, 21)


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
        with pytest.raises(ValueError, match="threshold"):
            multivariate_ess(np.zeros((50, 2)), threshold=1.0)

    def test_singular_longrun_on_retained_subspace_is_an_error(self):
        # a long-run covariance with a zero eigenvalue inside the retained
        # subspace cannot support the determinant ratio
        with pytest.raises(RuntimeError, match="singular on the retained subspace"):
            _ess_core(np.eye(2), np.diag([1.0, 0.0]), 100, 1e-8)


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


class TestAcceptanceRate:
    def test_recomputes_the_ratio(self):
        samples = toy_samples(np.random.default_rng(0).standard_normal((10, 3)), accepted=4)
        assert acceptance_rate(samples) == 0.4

    def test_zero_proposals_is_an_error(self):
        samples = ChainSamples(
            merit_draws=np.zeros((0, 3)),
            variance_draws=np.zeros(0),
            accepted=0,
            proposed=0,
            accept_flags=np.zeros(0, dtype=bool),
            config=SamplerConfig(beta=0.2, iterations=10),
        )
        with pytest.raises(ValueError, match="no proposals"):
            acceptance_rate(samples)


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

    def test_long_rows_number_draws_from_one_and_lags_from_zero(self):
        trace, acf, names = trace_export(self.samples, params=["merit2", "variance"], bandwidth=5)
        trace_rows = list(long_rows(trace, names, 1))
        assert trace_rows[0] == (1, "merit2", float(self.draws[0, 2]))
        assert trace_rows[59] == (60, "merit2", float(self.draws[59, 2]))
        assert trace_rows[60] == (1, "variance", 1.0)
        acf_rows = list(long_rows(acf, names, 0))
        assert [row[:2] for row in acf_rows] == [(k, p) for p in names for k in range(6)]
        assert [row[2] for row in acf_rows[::6]] == [1.0, 1.0]

    def test_long_rows_reject_a_column_of_the_wrong_length(self):
        trace, _, names = trace_export(self.samples, params=["merit0", "merit1"])
        with pytest.raises(ValueError):
            list(long_rows(trace[:-1], names, 1))

    def test_no_parameters_give_empty_columns(self):
        trace, acf, names = trace_export(self.samples, params=[])
        assert (trace.shape, acf.shape, names) == ((0,), (0,), [])

    def test_bandwidth_below_one_is_rejected(self):
        for bandwidth in (0, -3):
            with pytest.raises(ValueError, match="bandwidth must be at least 1"):
                trace_export(self.samples, bandwidth=bandwidth)

    def test_pinned_variance_acf_is_an_impulse(self, toy_wins, toy_prior):
        config = SamplerConfig(beta=0.2, iterations=1500, burn_in=500, seed=8, fix_variance=0.3)
        samples = run_chain(toy_wins, toy_prior, config)
        _, acf, _ = trace_export(samples, params="variance")
        assert acf.tolist() == [1.0] + [0.0] * (len(acf) - 1)
        assert len(acf) == default_bandwidth(1000) + 1

    def test_quad_form_and_loglik_need_their_inputs(self):
        with pytest.raises(ValueError, match="quad_form"):
            trace_export(self.samples, params="quad_form")
        with pytest.raises(ValueError, match="loglik"):
            trace_export(self.samples, params="loglik")
        with pytest.raises(ValueError, match="unknown trace parameter"):
            trace_export(self.samples, params="merit9")

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

        w = WinMatrix(
            entities=tuple("abcd"), wins=wins, comparisons=np.zeros((4, 4), dtype=int)
        )
        self.samples = run_chain(w, cov, SamplerConfig(beta=0.3, iterations=3000, seed=19))

    def test_report_contents(self):
        report = diagnose(self.samples)
        assert report.rank_est == 3
        assert report.acceptance_rate == 1.0  # flat likelihood accepts all moves
        assert report.bandwidth == default_bandwidth(self.samples.n_kept)
        assert report.per_param_ess.shape == (4,)
        assert report.kendall_series[-1][1] == 0
        assert set(report.flags) == {"eigenvalue_floor_hit", "ess_capped"}

    def test_extra_flags_are_merged(self):
        report = diagnose(self.samples, extra_flags={"jitter_applied": True})
        assert report.flags["jitter_applied"] is True

    def test_to_dict_is_json_serializable(self):
        payload = diagnose(self.samples).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["rank_est"] == 3

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            diagnose(self.samples, threshold=2.0)

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
