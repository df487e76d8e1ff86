"""Likelihood and maximum likelihood merit estimation."""

from __future__ import annotations

import warnings

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
from btrank.bt import NoMleError, _log_likelihood, _pairwise_log_likelihood
from btrank.sim import simulate_win_matrix
from btrank.wins import INCIDENCE_MAX_ENTITIES

from .conftest import dense_log_likelihood, make_table, random_wins


def wins_matrix(wins, entities=None):
    wins = np.asarray(wins, dtype=float)
    entities = entities or tuple(f"e{i}" for i in range(len(wins)))
    return WinMatrix(entities=entities, wins=wins)


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
        )
        np.testing.assert_allclose(log_likelihood(mu[perm], permuted), log_likelihood(mu, toy_wins))

    def test_no_comparisons_give_exactly_zero(self):
        w = wins_matrix(np.zeros((3, 3)))
        draws = np.random.default_rng(4).normal(size=(5, 3))
        assert [log_likelihood(row, w) for row in draws] == [0.0] * 5

    def test_large_gaps_stay_finite(self):
        w = wins_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert np.isfinite(log_likelihood(np.array([500.0, -500.0]), w))

    @pytest.mark.parametrize(
        "merits",
        [
            [np.nan, 0.0, 0.0],
            [np.inf, 0.0, 0.0],
            [1e308, -1e308, 0.0],
            [-np.inf, 0.0, 0.0],
        ],
    )
    def test_a_value_that_is_not_finite_is_an_error(self, merits):
        w = wins_matrix(np.ones((3, 3)) - np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning beside it
            with pytest.raises(ValueError, match="not finite"):
                log_likelihood(np.array(merits), w)

    def test_a_pair_far_below_the_largest_merit_takes_the_pairwise_form(self):
        # both strengths of the pair (1, 2) underflow to zero, so the strength form gives +inf
        w = wins_matrix(np.ones((3, 3)) - np.eye(3))
        merits = np.array([800.0, -400.0, -400.0])
        with np.errstate(divide="ignore"):
            assert _log_likelihood(merits, w.pairs) == np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_likelihood(merits, w)
        assert value == _pairwise_log_likelihood(merits, w.pairs)
        np.testing.assert_allclose(value, -2400.0 - 2.0 * np.log(2.0), rtol=1e-15)

    def test_shape_mismatch(self, toy_wins):
        m = toy_wins.m
        # (2, m) is a draw array, a form the likelihood no longer takes
        for shape in [(m + 1,), (1300, m + 1), (2, 1300, m), (2, m)]:
            with pytest.raises(ValueError, match="shape"):
                log_likelihood(np.zeros(shape), toy_wins)


class TestPairListOracle:
    """The pair-list likelihood against the dense ordered-cell sum."""

    def check(self, w, seed, offset=0.0):
        draws = np.random.default_rng(seed).normal(scale=1.5, size=(700, w.m)) + offset
        np.testing.assert_allclose(
            [log_likelihood(merits, w) for merits in draws], dense_log_likelihood(draws, w),
            rtol=1e-9,
        )

    def test_bundled_win_matrix(self, fixture_dataset):
        table, _ = fixture_dataset
        self.check(build_win_matrix(apply_missing_policy(table, "drop_indicators")), seed=1)

    @pytest.mark.parametrize("offset", [-1000.0, 1000.0])
    def test_a_large_common_offset(self, fixture_dataset, offset):
        table, _ = fixture_dataset
        self.check(build_win_matrix(apply_missing_policy(table, "drop_indicators")), 3, offset)

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

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_each_row_of_a_draw_array_is_the_vector_likelihood(self, fixture_dataset, n):
        # the sampler scores a batch of proposals at once; each row must be
        # bit for bit the value of that row alone, whatever the batch size
        table, _ = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        draws = np.random.default_rng(n).normal(scale=1.5, size=(n, w.m))
        assert _log_likelihood(draws, w.pairs).tolist() == [log_likelihood(row, w) for row in draws]


def loop_incidence(pairs, m):
    """The ``(M, P)`` incidence matrix of a pair list, built one pair at a time."""
    incidence = np.zeros((m, len(pairs.i)))
    for k, (a, b) in enumerate(zip(pairs.i.tolist(), pairs.j.tolist())):
        incidence[a, k] = incidence[b, k] = 1.0
    return incidence


class TestIncidenceProduct:
    """Pair strengths by the incidence product give the gathered likelihood bit for bit."""

    @staticmethod
    def check(pairs, draws):
        np.testing.assert_array_equal(pairs.incidence, loop_incidence(pairs, draws.shape[-1]))
        with np.errstate(divide="ignore"):  # the log of a pair strength that underflowed
            product = _log_likelihood(draws, pairs)
            gathered = _log_likelihood(draws, pairs._replace(incidence=None))
        assert product.shape == gathered.shape and product.tobytes() == gathered.tobytes()
        return product

    @pytest.mark.parametrize("tie_policy", ["split", "drop"])
    def test_bundled_win_matrix(self, fixture_dataset, tie_policy):
        table, _ = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"), tie_policy)
        self.check(w.pairs, np.random.default_rng(5).normal(scale=1.5, size=(700, w.m)))

    def test_half_wins_and_an_uncompared_pair(self):
        w = wins_matrix(
            [
                [0.0, 2.5, 0.0, 1.0],
                [1.5, 0.0, 3.0, 0.5],
                [0.0, 1.0, 0.0, 2.0],
                [3.0, 0.5, 2.0, 0.0],
            ]
        )
        assert len(w.pairs.i) == 5
        self.check(w.pairs, np.random.default_rng(6).normal(scale=1.5, size=(700, w.m)))

    def test_random_sparse_designs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = wins_matrix(random_wins(rng))
            self.check(w.pairs, rng.normal(scale=2.0, size=(5, w.m)))

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_batches_and_single_vectors(self, fixture_dataset, n):
        table, _ = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        draws = np.random.default_rng(n).normal(scale=1.5, size=(n, w.m))
        assert self.check(w.pairs, draws).tolist() == [float(self.check(w.pairs, row)) for row in draws]

    def test_subnormal_and_vanishing_strengths(self, fixture_dataset):
        # about half the entities of each row sit 700 to 760 below the rest: their
        # strengths are normal, subnormal or zero, and a pair of zeros gives +inf
        table, _ = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        rng = np.random.default_rng(8)
        gaps = np.linspace(700.0, 760.0, 63)
        draws = rng.normal(size=(len(gaps), w.m)) - (rng.random((len(gaps), w.m)) < 0.5) * gaps[:, None]
        values = self.check(w.pairs, draws)
        strengths = np.exp(draws - draws.max(axis=1, keepdims=True))
        assert ((strengths > 0) & (strengths < np.finfo(float).tiny)).any()
        assert np.isposinf(values).any() and np.isfinite(values).any()

    def test_the_incidence_stops_above_the_constant(self):
        rng = np.random.default_rng(9)
        at, above = (
            simulate_win_matrix(rng.normal(size=m), 2, rng)
            for m in (INCIDENCE_MAX_ENTITIES, INCIDENCE_MAX_ENTITIES + 1)
        )
        assert at.pairs.incidence is not None and above.pairs.incidence is None
        assert at.pairs.incidence.flags.c_contiguous  # column-major, the product is slower
        self.check(at.pairs, rng.normal(scale=1.5, size=(6, at.m)))
        product = above.pairs._replace(incidence=loop_incidence(above.pairs, above.m))
        self.check(product, rng.normal(scale=1.5, size=(6, above.m)))


def fords_condition_holds(wins) -> bool:
    """Whether every entity beats every other one along some chain of wins, by transitive closure."""
    reach = (wins > 0) | np.eye(len(wins), dtype=bool)
    for k in range(len(wins)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return bool(reach.all())


def fixed_point_mle(w, tol=1e-14, max_sweeps=100_000):
    """The maximum likelihood merits by the fixed-point strength iteration the Newton solver replaced.

    Iterates, for each entity in turn, ``pi_i <- sum_j wins[i,j] pi_j / (pi_i
    + pi_j) / sum_j wins[j,i] / (pi_i + pi_j)``, updating in place within a
    sweep (a simultaneous update cycles on two-entity data) and renormalizing
    the geometric mean to one after each sweep, until the largest relative
    change falls below ``tol``.  Returns log-strengths centred to sum to zero.
    """
    assert fords_condition_holds(w.wins)
    wins, pi = w.wins, np.ones(w.m)
    for _ in range(max_sweeps):
        previous = pi.copy()
        for i in range(w.m):
            denom = pi[i] + pi
            pi[i] = np.sum(wins[i] * pi / denom) / np.sum(wins[:, i] / denom)
        pi /= np.exp(np.mean(np.log(pi)))
        if np.max(np.abs(pi - previous) / previous) < tol:
            merits = np.log(pi)
            return merits - merits.mean()
    raise AssertionError(f"the oracle did not converge within {max_sweeps} sweeps")


class TestNewtonAgainstTheFixedPoint:
    """Newton agrees with the fixed-point oracle and needs few steps.

    Every estimate is asked for with ``max_iter=25``, so a call that needs
    more Newton steps fails with "did not converge".
    """

    @staticmethod
    def check(w):
        np.testing.assert_allclose(mle_newman(w, max_iter=25), fixed_point_mle(w), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("tie_policy", ["split", "drop"])
    def test_bundled_win_matrix(self, fixture_dataset, tie_policy):
        table, _ = fixture_dataset
        self.check(build_win_matrix(apply_missing_policy(table, "drop_indicators"), tie_policy))

    def test_random_win_matrices_that_meet_fords_condition(self):
        rng = np.random.default_rng(1)  # the draws of the scipy cross-check of Ford's condition
        fitted = 0
        for _ in range(400):
            wins = random_wins(rng)
            w = WinMatrix(entities=tuple(f"e{i}" for i in range(len(wins))), wins=wins)
            if fords_condition_holds(wins):
                fitted += 1
                self.check(w)
        assert fitted > 100

    def test_contests_in_the_millions(self):
        # near the maximum the rise of a step is below the log-likelihood's rounding
        # (about 1e-8 here), which must not stall the line search
        wins = [[0.0, 0.0, 0.0, 15.0], [5358.0, 0.0, 0.0, 0.0],
                [4788347.0, 784654.0, 0.0, 0.0], [4.0, 0.0, 1245.0, 0.0]]
        self.check(wins_matrix(wins))

    def test_simulated_designs(self):
        # 200 designs on 10 entities with 1 to 200 contests per pair, log-uniform
        # so that some single-contest designs fail Ford's condition
        rng = np.random.default_rng(2)
        refused = 0
        for _ in range(200):
            truth = rng.normal(size=10)
            k = int(np.exp(rng.uniform(0.0, np.log(200.5))))
            w = simulate_win_matrix(truth - truth.mean(), k, rng)
            if fords_condition_holds(w.wins):
                self.check(w)
            else:
                refused += 1
                with pytest.raises(NoMleError, match="Ford's condition"):
                    mle_newman(w, max_iter=25)
        assert 0 < refused < 100


class TestMleNewman:
    def test_two_entity_closed_form(self):
        # 3:1 wins puts the strength ratio at 3, so the merit gap is ln 3
        w = wins_matrix([[0.0, 3.0], [1.0, 0.0]])
        merits = mle_newman(w)
        np.testing.assert_allclose(merits[0] - merits[1], np.log(3.0), atol=1e-10)
        np.testing.assert_allclose(merits.sum(), 0.0, atol=1e-12)

    def test_balanced_two_entity_data_converges(self):
        # a simultaneous strength update oscillates forever on this input;
        # zero merits are the estimate, where the gradient is already zero
        w = wins_matrix([[0.0, 1.0], [1.0, 0.0]])
        merits = mle_newman(w, max_iter=1)
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
        )
        np.testing.assert_allclose(mle_newman(permuted), merits[perm], rtol=0, atol=1e-13)

    def test_no_wins_is_reported_with_the_entity_name(self):
        w = wins_matrix([[0.0, 0.0], [4.0, 0.0]], entities=("weak", "strong"))
        with pytest.raises(RuntimeError, match="'weak' beats 'strong' along no chain of wins"):
            mle_newman(w)
        with pytest.raises(RuntimeError, match="'weak' beats 'strong' along no chain of wins"):
            mle_newman(wins_matrix([[0.0, 4.0], [0.0, 0.0]], entities=("strong", "weak")))

    def test_disconnected_graph_is_rejected(self):
        wins = np.zeros((4, 4))
        wins[0, 1] = wins[1, 0] = 2.0
        wins[2, 3] = wins[3, 2] = 2.0
        with pytest.raises(RuntimeError, match="'e0' beats 'e2' along no chain"):
            mle_newman(wins_matrix(wins))

    def test_a_group_that_never_loses_is_rejected(self):
        # {e0, e1} beat {e2, e3} every time and split within each pair, so every
        # entity wins and loses and the comparison graph is connected
        wins = np.zeros((4, 4))
        wins[0, 1] = wins[1, 0] = wins[2, 3] = wins[3, 2] = 1.0
        wins[:2, 2:] = 2.0
        with pytest.raises(RuntimeError, match="'e2' beats 'e0' along no chain"):
            mle_newman(wins_matrix(wins), max_iter=1)

    def test_exhausted_iterations_raise(self, toy_wins):
        with pytest.raises(RuntimeError, match="did not converge"):
            mle_newman(toy_wins, max_iter=1)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_must_be_positive(self, toy_wins, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            mle_newman(toy_wins, max_iter=max_iter)

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
