"""Kernel construction and the sum-to-zero constrained covariance."""

from __future__ import annotations

import math

import numpy as np
import pytest

from btrank import (
    IncomeTable,
    KernelSpec,
    build_prior,
    constrain,
    kernel_matrix,
    log_income_distance,
    sample_constrained,
)

from .conftest import make_income


class TestKernelSpec:
    def test_rational_quadratic_needs_mixture(self):
        with pytest.raises(ValueError, match="mixture"):
            KernelSpec("rational_quadratic", 0.5)
        KernelSpec("rational_quadratic", 0.5, 2.0)

    def test_rejects_unknown_kind_and_bad_scale(self):
        with pytest.raises(ValueError, match="kernel kind"):
            KernelSpec("matern", 0.5)
        with pytest.raises(ValueError, match="length_scale"):
            KernelSpec("squared_exponential", 0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_scale_and_mixture(self, value):
        with pytest.raises(ValueError, match="length_scale.*finite"):
            KernelSpec("squared_exponential", value)
        with pytest.raises(ValueError, match="finite mixture"):
            KernelSpec("rational_quadratic", 0.5, value)


class TestLogIncomeDistance:
    def test_hand_computed_pair(self):
        income = IncomeTable(
            entities=("a", "b"),
            income=np.array([127_550.0, 116_229.0]),
            zone=("middle", "middle"),
        )
        d = log_income_distance(income)
        np.testing.assert_allclose(d[0, 1], np.log(127_550 / 116_229))
        np.testing.assert_allclose(d[0, 1], 0.092946, atol=5e-6)
        assert d[0, 0] == 0.0 and d[1, 0] == d[0, 1]

    def test_bundled_anchor_pair_sits_near_the_default_scale(self, fixture_dataset):
        _, income = fixture_dataset
        d = log_income_distance(income)
        i = income.entities.index("Maharashtra")
        j = income.entities.index("Mizoram")
        np.testing.assert_allclose(d[i, j], 0.092946, atol=5e-6)


class TestKernelMatrix:
    def test_squared_exponential_hand_value(self):
        d = np.array([[0.0, 0.3], [0.3, 0.0]])
        k = kernel_matrix(d, KernelSpec("squared_exponential", 0.5))
        np.testing.assert_allclose(k[0, 1], np.exp(-(0.3**2) / 0.25))
        np.testing.assert_allclose(np.diagonal(k), 1.0)

    def test_rational_quadratic_hand_value(self):
        d = np.array([[0.0, 0.3], [0.3, 0.0]])
        k = kernel_matrix(d, KernelSpec("rational_quadratic", 0.5, 2.0))
        np.testing.assert_allclose(k[0, 1], (1 + 0.09 / (2 * 2.0 * 0.25)) ** -2.0)

    def test_rational_quadratic_approaches_squared_exponential(self):
        # the large-mixture limit is exp(-d^2 / (2 l^2)), i.e. the squared
        # exponential evaluated at length scale l * sqrt(2)
        d = log_income_distance(make_income())
        se = kernel_matrix(d, KernelSpec("squared_exponential", 0.4 * np.sqrt(2)))
        rq = kernel_matrix(d, KernelSpec("rational_quadratic", 0.4, 1e6))
        np.testing.assert_allclose(rq, se, atol=1e-4)

    def test_rejects_malformed_distances(self):
        spec = KernelSpec("squared_exponential", 0.5)
        with pytest.raises(ValueError, match="square"):
            kernel_matrix(np.zeros((2, 3)), spec)
        with pytest.raises(ValueError, match="symmetric"):
            kernel_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]), spec)
        with pytest.raises(ValueError, match="diagonal"):
            kernel_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]), spec)


class TestConstrain:
    def test_projection_annihilates_the_ones_vector(self, toy_prior):
        np.testing.assert_allclose(toy_prior.projected @ np.ones(toy_prior.m), 0.0, atol=1e-12)
        np.testing.assert_allclose(toy_prior.projected, toy_prior.projected.T)

    def test_rank_drops_by_exactly_one_for_distinct_incomes(self, toy_prior):
        assert toy_prior.rank == toy_prior.m - 1

    def test_factor_reconstructs_the_projection(self, toy_prior):
        np.testing.assert_allclose(
            toy_prior.factor @ toy_prior.factor.T, toy_prior.projected, atol=1e-12
        )
        assert toy_prior.factor.shape == (toy_prior.m, toy_prior.rank)

    def test_pseudo_inverse_identities(self, toy_prior):
        c, p = toy_prior.projected, toy_prior.pinv
        np.testing.assert_allclose(c @ p @ c, c, atol=1e-10)
        np.testing.assert_allclose(p @ c @ p, p, atol=1e-10)

    def test_two_entity_closed_form(self):
        income = IncomeTable(
            entities=("a", "b"), income=np.array([5e4, 2e5]), zone=("low", "middle")
        )
        cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
        rho = cov.full[0, 1]
        # the projection of a 2x2 unit-diagonal kernel is (1-rho)/2 * [[1,-1],[-1,1]]
        expected = 0.5 * (1 - rho) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(cov.projected, expected, atol=1e-9)
        assert cov.rank == 1

    def test_duplicate_incomes_trigger_jitter_and_lose_rank(self):
        income = IncomeTable(
            entities=("a", "b", "c"),
            income=np.array([5e4, 5e4, 2e5]),
            zone=("low", "low", "middle"),
        )
        cov = build_prior(income, KernelSpec("squared_exponential", 0.5))
        assert cov.jitter_applied
        # the duplicated pair pins their merit difference, costing a dimension
        assert cov.rank == 1

    def test_zero_jitter_disables_stabilization(self):
        income = make_income()
        cov = build_prior(income, KernelSpec("squared_exponential", 0.5), jitter=0.0)
        assert not cov.jitter_applied

    @pytest.mark.parametrize("jitter", [-1e-10, math.inf, math.nan])
    def test_rejects_negative_or_non_finite_jitter(self, jitter):
        with pytest.raises(ValueError, match="jitter must be nonnegative and finite"):
            constrain(np.eye(3), jitter=jitter)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            constrain(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestSampleConstrained:
    def test_draws_live_on_the_constraint(self, toy_prior):
        rng = np.random.default_rng(4)
        draws = np.array([sample_constrained(toy_prior, 2.0, rng) for _ in range(200)])
        np.testing.assert_allclose(draws.sum(axis=1), 0.0, atol=1e-10)

    def test_covariance_matches_the_projection(self, toy_prior):
        rng = np.random.default_rng(12)
        draws = np.array([sample_constrained(toy_prior, 1.5, rng) for _ in range(40_000)])
        target = 1.5 * toy_prior.projected
        err = np.linalg.norm(np.cov(draws.T) - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_seeded_draws_are_reproducible(self, toy_prior):
        a = sample_constrained(toy_prior, 1.0, np.random.default_rng(7))
        b = sample_constrained(toy_prior, 1.0, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_scale_must_be_positive(self, toy_prior):
        with pytest.raises(ValueError, match="scale"):
            sample_constrained(toy_prior, 0.0, np.random.default_rng(0))


class TestBuildPrior:
    def test_composes_distance_kernel_and_constraint(self, toy_income):
        spec = KernelSpec("squared_exponential", 0.5)
        direct = build_prior(toy_income, spec)
        manual = constrain(kernel_matrix(log_income_distance(toy_income), spec))
        np.testing.assert_allclose(direct.projected, manual.projected)
        assert direct.rank == manual.rank
