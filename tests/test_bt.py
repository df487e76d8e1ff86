"""Likelihood and maximum likelihood merit estimation."""

from __future__ import annotations

import numpy as np
import pytest

from btrank import (
    WinMatrix,
    apply_missing_policy,
    build_win_matrix,
    log_likelihood,
    mle_newman,
    win_probability,
)

from .conftest import make_table


def wins_matrix(wins, entities=None):
    wins = np.asarray(wins, dtype=float)
    comparisons = (wins + wins.T).astype(np.int64)
    entities = entities or tuple(f"e{i}" for i in range(len(wins)))
    return WinMatrix(entities=entities, wins=wins, comparisons=comparisons)


class TestWinProbability:
    def test_equal_merits_are_even_odds(self):
        assert win_probability(0.3, 0.3) == 0.5

    def test_matches_logistic_form(self):
        # exp(1) / (exp(1) + exp(0))
        np.testing.assert_allclose(win_probability(1.0, 0.0), 1 / (1 + np.exp(-1)))

    def test_only_differences_matter(self):
        np.testing.assert_allclose(win_probability(5.2, 4.0), win_probability(1.2, 0.0))


class TestLogLikelihood:
    def test_two_entity_hand_value(self):
        w = wins_matrix([[0.0, 3.0], [1.0, 0.0]])
        mu = np.array([0.5, -0.5])
        expected = 3 * np.log(win_probability(0.5, -0.5)) + 1 * np.log(win_probability(-0.5, 0.5))
        np.testing.assert_allclose(log_likelihood(mu, w), expected)

    def test_translation_invariance(self, toy_wins):
        mu = np.linspace(-1, 1, toy_wins.m)
        np.testing.assert_allclose(
            log_likelihood(mu, toy_wins), log_likelihood(mu + 7.3, toy_wins)
        )

    def test_permutation_invariance(self, toy_wins):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=toy_wins.m)
        perm = rng.permutation(toy_wins.m)
        permuted = WinMatrix(
            entities=tuple(toy_wins.entities[i] for i in perm),
            wins=toy_wins.wins[np.ix_(perm, perm)],
            comparisons=toy_wins.comparisons[np.ix_(perm, perm)],
        )
        np.testing.assert_allclose(log_likelihood(mu[perm], permuted), log_likelihood(mu, toy_wins))

    def test_large_gaps_stay_finite(self):
        w = wins_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.isfinite(log_likelihood(np.array([500.0, -500.0]), w))

    def test_shape_mismatch(self, toy_wins):
        m = toy_wins.m
        for shape in [(m + 1,), (1300, m + 1), (2, 1300, m)]:
            with pytest.raises(ValueError, match="shape"):
                log_likelihood(np.zeros(shape), toy_wins)

    def test_draw_array_matches_row_by_row(self, toy_wins):
        # 1300 draws span three chunks, the last one partial
        draws = np.random.default_rng(3).normal(size=(1300, toy_wins.m))
        batched = log_likelihood(draws, toy_wins)
        assert batched.shape == (1300,)
        assert np.array_equal(batched, [log_likelihood(row, toy_wins) for row in draws])


def dense_log_likelihood(merits, w):
    """The likelihood summed over every ordered cell, the form the pair list replaces."""
    diff = merits[..., None, :] - merits[..., :, None]
    return -np.sum(w.wins * np.logaddexp(0.0, diff), axis=(-2, -1))


class TestPairListOracle:
    """The pair-list likelihood against the dense ordered-cell sum."""

    def check(self, w, seed):
        draws = np.random.default_rng(seed).normal(scale=1.5, size=(700, w.m))
        for merits in draws[:5]:
            np.testing.assert_allclose(
                log_likelihood(merits, w), dense_log_likelihood(merits, w), rtol=1e-9
            )
        np.testing.assert_allclose(
            log_likelihood(draws, w), dense_log_likelihood(draws, w), rtol=1e-9
        )

    def test_bundled_win_matrix(self, fixture_dataset):
        table, _ = fixture_dataset
        self.check(build_win_matrix(apply_missing_policy(table, "drop_indicators")), seed=1)

    def test_half_wins_and_an_uncompared_pair(self):
        wins = np.array(
            [
                [0.0, 2.5, 0.0, 1.0],
                [1.5, 0.0, 3.0, 0.5],
                [0.0, 1.0, 0.0, 2.0],
                [3.0, 0.5, 2.0, 0.0],
            ]
        )
        w = wins_matrix(wins)
        assert w.comparisons[0, 2] == 0
        assert len(w.pairs.i) == 5  # the uncompared pair (0, 2) is left out
        self.check(w, seed=2)


class TestMleNewman:
    def test_two_entity_closed_form(self):
        # 3:1 wins puts the strength ratio at 3, so the merit gap is ln 3
        w = wins_matrix([[0.0, 3.0], [1.0, 0.0]])
        merits = mle_newman(w)
        np.testing.assert_allclose(merits[0] - merits[1], np.log(3.0), atol=1e-10)
        np.testing.assert_allclose(merits.sum(), 0.0, atol=1e-12)

    def test_balanced_two_entity_data_converges(self):
        # a simultaneous strength update oscillates forever on this input;
        # the in-place sweep settles immediately
        w = wins_matrix([[0.0, 1.0], [1.0, 0.0]])
        merits = mle_newman(w, max_iter=50)
        np.testing.assert_allclose(merits, [0.0, 0.0], atol=1e-12)

    def test_gradient_vanishes_at_the_estimate(self, toy_wins):
        merits = mle_newman(toy_wins)
        eps = 1e-6
        for i in range(toy_wins.m):
            bumped = merits.copy()
            bumped[i] += eps
            dropped = merits.copy()
            dropped[i] -= eps
            grad = (log_likelihood(bumped, toy_wins) - log_likelihood(dropped, toy_wins)) / (2 * eps)
            assert abs(grad) < 1e-4

    def test_permutation_equivariance(self, toy_wins):
        merits = mle_newman(toy_wins)
        perm = np.random.default_rng(1).permutation(toy_wins.m)
        permuted = WinMatrix(
            entities=tuple(toy_wins.entities[i] for i in perm),
            wins=toy_wins.wins[np.ix_(perm, perm)],
            comparisons=toy_wins.comparisons[np.ix_(perm, perm)],
        )
        np.testing.assert_allclose(mle_newman(permuted), merits[perm], atol=1e-8)

    def test_no_wins_is_reported_with_the_entity_name(self):
        w = wins_matrix([[0.0, 0.0], [4.0, 0.0]], entities=("weak", "strong"))
        with pytest.raises(RuntimeError, match="'weak' has no wins"):
            mle_newman(w)
        with pytest.raises(RuntimeError, match="'strong' has no losses"):
            mle_newman(wins_matrix([[0.0, 4.0], [0.0, 0.0]], entities=("strong", "weak")))

    def test_disconnected_graph_is_rejected(self):
        wins = np.zeros((4, 4))
        wins[0, 1] = wins[1, 0] = 2.0
        wins[2, 3] = wins[3, 2] = 2.0
        with pytest.raises(RuntimeError, match="disconnected"):
            mle_newman(wins_matrix(wins))

    def test_exhausted_iterations_raise(self, toy_wins):
        with pytest.raises(RuntimeError, match="did not converge"):
            mle_newman(toy_wins, max_iter=1)

    def test_tol_must_be_positive(self, toy_wins):
        with pytest.raises(ValueError, match="tol"):
            mle_newman(toy_wins, tol=0.0)

    def test_half_integer_wins_from_split_ties(self):
        table = make_table(m=5, k=40, seed=9)
        # force exact ties on a few indicators
        values = table.values.copy()
        values[:, :3] = 1.0
        table = type(table)(
            entities=table.entities,
            indicators=table.indicators,
            values=values,
            polarity=table.polarity,
            missing=table.missing,
        )
        w = build_win_matrix(table, "split")
        merits = mle_newman(w)
        assert np.isfinite(merits).all()
        np.testing.assert_allclose(merits.sum(), 0.0, atol=1e-10)
