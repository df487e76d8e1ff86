"""Synthetic contest generation and the merit recovery study."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from btrank import (
    KernelSpec,
    SamplerConfig,
    SimStudySpec,
    run_recovery_study,
    simulate_win_matrix,
)
from btrank.sim import STUDY_COLUMNS, _metric_row, write_study_csv

from .conftest import csv_floats


class TestSimulateWinMatrix:
    def test_contest_counts_are_exact(self):
        rng = np.random.default_rng(1)
        w = simulate_win_matrix(np.array([0.5, 0.0, -0.5]), 25, rng)
        assert w.entities == ("item00", "item01", "item02")
        off_diagonal = ~np.eye(3, dtype=bool)
        np.testing.assert_array_equal((w.wins + w.wins.T)[off_diagonal], 25)
        np.testing.assert_array_equal(w.comparisons[off_diagonal], 25)

    def test_same_generator_state_reproduces_the_draw(self):
        merits = np.array([1.0, 0.0, -1.0, 0.3])
        a = simulate_win_matrix(merits, 40, np.random.default_rng(7))
        b = simulate_win_matrix(merits, 40, np.random.default_rng(7))
        np.testing.assert_array_equal(a.wins, b.wins)

    def test_dominant_merit_wins_almost_everything(self):
        rng = np.random.default_rng(2)
        w = simulate_win_matrix(np.array([10.0, -10.0]), 1000, rng)
        assert w.wins[0, 1] == 1000

    def test_win_frequency_tracks_the_merit_gap(self):
        rng = np.random.default_rng(3)
        w = simulate_win_matrix(np.array([1.0, 0.0]), 100_000, rng)
        assert abs(w.wins[0, 1] / 100_000 - expit(1.0)) < 0.01

    def test_validates_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="1-D"):
            simulate_win_matrix(np.zeros((2, 2)), 5, rng)
        with pytest.raises(ValueError, match="length at least 2"):
            simulate_win_matrix(np.zeros(1), 5, rng)
        with pytest.raises(ValueError, match="k must be positive"):
            simulate_win_matrix(np.zeros(3), 0, rng)


def looped_win_matrix(true_merits, k, rng):
    """One binomial draw per pair in a double loop, the form the vector draw replaces."""
    m = len(true_merits)
    wins = np.zeros((m, m))
    comparisons = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            won = int(rng.binomial(k, expit(true_merits[i] - true_merits[j])))
            wins[i, j] = won
            wins[j, i] = k - won
            comparisons[i, j] = comparisons[j, i] = k
    return wins, comparisons


class TestVectorDrawOracle:
    def test_matches_the_double_loop_and_leaves_the_same_stream(self):
        for m in (2, 3, 10):
            for seed in range(5):
                merits = np.random.default_rng(100 + seed).normal(scale=1.5, size=m)
                vector_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                w = simulate_win_matrix(merits, 37, vector_rng)
                wins, comparisons = looped_win_matrix(merits, 37, loop_rng)
                assert np.array_equal(w.wins, wins)
                assert np.array_equal(w.comparisons, comparisons)
                assert w.comparisons.dtype == comparisons.dtype
                assert vector_rng.random() == loop_rng.random()


class TestSimStudySpec:
    def test_defaults(self):
        spec = SimStudySpec()
        assert spec.m == 10
        assert spec.k_comparisons == 100
        assert spec.replications == 20
        assert spec.kernel == KernelSpec("squared_exponential", 0.5)
        # with no explicit grid the study runs at the kernel's own scale
        assert spec.length_scales == (0.5,)

    def test_explicit_length_scales_are_kept(self):
        spec = SimStudySpec(length_scales=(0.2, 0.8))
        assert spec.length_scales == (0.2, 0.8)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            SimStudySpec(m=1)
        with pytest.raises(ValueError, match="k_comparisons"):
            SimStudySpec(k_comparisons=0)
        with pytest.raises(ValueError, match="prior_variance"):
            SimStudySpec(prior_variance=0.0)
        with pytest.raises(ValueError, match="replications"):
            SimStudySpec(replications=0)
        with pytest.raises(ValueError, match="length scales"):
            SimStudySpec(length_scales=(0.5, -0.1))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_settings(self, value):
        with pytest.raises(ValueError, match="prior_variance.*finite"):
            SimStudySpec(prior_variance=value)
        with pytest.raises(ValueError, match="length scales.*finite"):
            SimStudySpec(length_scales=(0.5, value))


class TestRunRecoveryStudy:
    def tiny_spec(self, **overrides):
        kwargs = dict(m=4, k_comparisons=30, replications=2, seed=99)
        kwargs.update(overrides)
        return SimStudySpec(**kwargs)

    def tiny_sampler(self):
        return SamplerConfig(beta=0.3, iterations=2000, fix_variance=1.0)

    def test_row_grid_and_interleaving(self):
        rows = run_recovery_study(self.tiny_spec(), self.tiny_sampler())
        assert len(rows) == 2 * 2  # replications x methods at one scale
        assert [row["method"] for row in rows] == ["bayes", "mle", "bayes", "mle"]
        assert all(set(row) == set(STUDY_COLUMNS) for row in rows)

    def test_metrics_are_finite_and_sensible(self):
        rows = run_recovery_study(self.tiny_spec(), self.tiny_sampler())
        for row in rows:
            assert -1.0 <= row["spearman"] <= 1.0
            assert row["rmse"] >= 0.0
            assert 0 <= row["kendall"] <= 6  # 4 entities -> at most 6 pair swaps

    def test_study_is_deterministic(self):
        a = run_recovery_study(self.tiny_spec(), self.tiny_sampler())
        b = run_recovery_study(self.tiny_spec(), self.tiny_sampler())
        assert a == b

    def test_scale_grid_multiplies_the_rows(self):
        spec = self.tiny_spec(replications=1, length_scales=(0.3, 0.7))
        rows = run_recovery_study(spec, self.tiny_sampler())
        assert len(rows) == 2 * 2
        assert [row["length_scale"] for row in rows] == [0.3, 0.3, 0.7, 0.7]

    def test_unfittable_contest_yields_nan_baseline_rows(self):
        # a single contest between two entities always leaves the loser
        # winless, so the likelihood baseline cannot exist
        spec = self.tiny_spec(m=2, k_comparisons=1, replications=1)
        rows = run_recovery_study(spec, self.tiny_sampler())
        bayes, mle = rows
        assert math.isfinite(bayes["rmse"])
        assert list(mle) == list(STUDY_COLUMNS)
        assert all(math.isnan(mle[key]) for key in ("spearman", "pearson", "rmse", "kendall"))

    def test_a_solver_that_does_not_converge_stops_the_study(self, monkeypatch):
        # only a nonexistent estimate is a NaN row; a solver failure must not pass as one
        def no_convergence(w):
            raise RuntimeError("Newton's method did not converge within 100 steps")

        monkeypatch.setattr("btrank.sim.mle_newman", no_convergence)
        with pytest.raises(RuntimeError, match="did not converge"):
            run_recovery_study(self.tiny_spec(replications=1), self.tiny_sampler())

    def test_a_constant_estimate_scores_nan_correlations_without_warning(self):
        truth = np.array([0.6, -0.1, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = _metric_row(0, 0.5, "bayes", truth, np.zeros(3))
        assert math.isnan(row["spearman"]) and math.isnan(row["pearson"])
        assert row["rmse"] == math.sqrt(np.mean(truth**2))


class TestWriteStudyCsv:
    def test_round_trip(self, tmp_path):
        rows = run_recovery_study(
            SimStudySpec(m=3, k_comparisons=20, replications=1, seed=5),
            SamplerConfig(beta=0.3, iterations=1000, fix_variance=1.0),
        )
        path = tmp_path / "study.csv"
        write_study_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == list(STUDY_COLUMNS)
        assert len(parsed) == 1 + len(rows)
        assert float(parsed[1][3]) == rows[0]["spearman"]

    def test_nan_cells_survive_the_round_trip(self, tmp_path):
        rows = run_recovery_study(
            SimStudySpec(m=2, k_comparisons=1, replications=1, seed=5),
            SamplerConfig(beta=0.3, iterations=500, fix_variance=1.0),
        )
        path = tmp_path / "study.csv"
        write_study_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            parsed = list(csv.reader(handle))
        assert math.isnan(float(parsed[2][3]))

    def test_every_cell_parses_back_to_the_row_value(self, tmp_path):
        # three entities and two contests a pair: some cells are NaN, most are not
        rows = run_recovery_study(
            SimStudySpec(m=3, k_comparisons=2, replications=3, length_scales=(0.3, 0.7), seed=5),
            SamplerConfig(beta=0.3, iterations=500, fix_variance=1.0),
        )
        path = tmp_path / "study.csv"
        write_study_csv(rows, path)
        values = {key: [row[key] for row in rows] for key in STUDY_COLUMNS}
        assert np.isnan(values["rmse"]).any() and np.isfinite(values["rmse"]).any()
        for key in ("replication", "length_scale", "spearman", "pearson", "rmse", "kendall"):
            # == on every cell, NaN matching NaN
            assert np.array_equal(csv_floats(path, key), values[key], equal_nan=True), key
        with open(path, newline="", encoding="utf-8") as handle:
            assert [row["method"] for row in csv.DictReader(handle)] == values["method"]
