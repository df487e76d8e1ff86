"""Win matrix construction, tie policies, and export."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from btrank import IndicatorTable, WinMatrix, build_win_matrix, export_win_matrix, total_comparisons

from .conftest import make_table


def table_from_values(values, polarity=None):
    values = np.asarray(values, dtype=float)
    m, k = values.shape
    if polarity is None:
        polarity = np.ones(k, dtype=int)
    return IndicatorTable(
        entities=tuple(f"e{i}" for i in range(m)),
        indicators=tuple(f"i{j}" for j in range(k)),
        values=values,
        polarity=np.asarray(polarity),
        missing=np.zeros((m, k), dtype=bool),
    )


class TestBuildWinMatrix:
    def test_hand_counted_example(self):
        # e0 beats e1 on i0 and i1, loses on i2; e2 sweeps e0 and e1
        table = table_from_values(
            [
                [3.0, 5.0, 1.0],
                [2.0, 4.0, 6.0],
                [9.0, 9.0, 9.0],
            ]
        )
        w = build_win_matrix(table)
        assert w.wins[0, 1] == 2.0 and w.wins[1, 0] == 1.0
        assert w.wins[2, 0] == 3.0 and w.wins[0, 2] == 0.0
        assert (w.comparisons[np.triu_indices(3, 1)] == 3).all()

    def test_polarity_flips_direction(self):
        # lower is better on the single indicator
        table = table_from_values([[1.0], [2.0]], polarity=[-1])
        w = build_win_matrix(table)
        assert w.wins[0, 1] == 1.0 and w.wins[1, 0] == 0.0

    def test_split_ties_award_half_wins(self):
        table = table_from_values([[1.0, 7.0], [1.0, 5.0]])
        w = build_win_matrix(table, "split")
        assert w.wins[0, 1] == 1.5 and w.wins[1, 0] == 0.5
        assert w.comparisons[0, 1] == 2

    def test_drop_ties_shrink_comparisons(self):
        table = table_from_values([[1.0, 7.0], [1.0, 5.0]])
        w = build_win_matrix(table, "drop")
        assert w.wins[0, 1] == 1.0 and w.wins[1, 0] == 0.0
        assert w.comparisons[0, 1] == 1

    def test_rejects_missing_cells_and_bad_policy(self):
        with_holes = make_table(missing_cells=[(0, 0)])
        with pytest.raises(ValueError, match="missing"):
            build_win_matrix(with_holes)
        with pytest.raises(ValueError, match="tie policy"):
            build_win_matrix(make_table(), "ignore")

    def test_invariants_on_random_table(self):
        w = build_win_matrix(make_table(m=7, k=11, seed=3))
        assert np.diagonal(w.wins).sum() == 0
        assert w.comparisons.dtype == np.int64
        np.testing.assert_array_equal(w.comparisons, w.wins + w.wins.T)
        assert (w.wins >= 0).all()


def two_pass_win_matrix(table, tie_policy):
    """Wins and comparisons from a second pass that counts exact ties.

    This is the form the tie identity ``ties = k - greater - greater'`` replaces.
    """
    adjusted = table.values * table.polarity
    greater = (adjusted[:, None, :] > adjusted[None, :, :]).sum(axis=2).astype(float)
    ties = (adjusted[:, None, :] == adjusted[None, :, :]).sum(axis=2).astype(float)
    np.fill_diagonal(ties, 0.0)
    if tie_policy == "split":
        comparisons = np.full((table.m, table.m), table.k, dtype=np.int64)
        np.fill_diagonal(comparisons, 0)
        return greater + 0.5 * ties, comparisons
    return greater, (greater + greater.T).astype(np.int64)


class TestTieIdentityOracle:
    """Ties counted as the indicators neither side wins, against an explicit tie pass."""

    def check(self, table):
        for policy in ("split", "drop"):
            w = build_win_matrix(table, policy)
            wins, comparisons = two_pass_win_matrix(table, policy)
            assert w.wins.dtype == wins.dtype and w.comparisons.dtype == comparisons.dtype
            assert np.array_equal(w.wins, wins)
            assert np.array_equal(w.comparisons, comparisons)

    def test_table_with_forced_ties(self):
        # three levels per cell, so most pairs tie on several indicators; the
        # -1 polarities turn the zeros into -0.0, which ties with 0.0
        values = np.random.default_rng(11).integers(0, 3, (9, 12)).astype(float)
        table = table_from_values(values, polarity=np.where(np.arange(12) % 2, -1, 1))
        wins = two_pass_win_matrix(table, "split")[0]
        assert (wins % 1 == 0.5).any()  # some pair has an odd number of ties
        self.check(table)

    def test_bundled_dataset(self, fixture_dataset):
        from btrank import apply_missing_policy

        table, _ = fixture_dataset
        self.check(apply_missing_policy(table, "drop_indicators"))


class TestTotalComparisons:
    def test_complete_table_counts_all_pairs(self):
        # K contests for each of the M(M-1)/2 unordered pairs
        w = build_win_matrix(make_table(m=3, k=4))
        assert total_comparisons(w) == 12

    def test_scales_to_the_bundled_shape(self):
        w = build_win_matrix(make_table(m=33, k=116, seed=1))
        assert total_comparisons(w) == 61_248

    def test_bundled_dataset_total(self, fixture_dataset):
        from btrank import apply_missing_policy

        table, _ = fixture_dataset
        w = build_win_matrix(apply_missing_policy(table, "drop_indicators"))
        assert total_comparisons(w) == 61_248


class TestWinMatrixValidation:
    @pytest.mark.parametrize("won", [(0.3, 0.4), (np.nan, 1.0), (np.inf, 1.0)])
    def test_rejects_a_pair_total_that_is_not_a_finite_whole_number(self, won):
        wins = np.array([[0.0, won[0]], [won[1], 0.0]])
        with pytest.raises(ValueError, match="must be a finite whole number"):
            WinMatrix(entities=("a", "b"), wins=wins)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            WinMatrix(entities=("a", "b"), wins=np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestExport:
    def test_ordered_pair_rows(self, tmp_path):
        table = table_from_values([[1.0, 7.0], [1.0, 5.0]])
        w = build_win_matrix(table)
        path = tmp_path / "wins.csv"
        export_win_matrix(w, path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["entity_i", "entity_j", "wins", "comparisons"]
        assert rows[1] == ["e0", "e1", "1.5", "2"]
        assert rows[2] == ["e1", "e0", "0.5", "2"]
