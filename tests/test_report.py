"""Ranking summaries, outranking shares, ranking comparisons, and exports."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from btrank import (
    ChainSamples,
    RankingReport,
    SamplerConfig,
    compare_rankings,
    export_report,
    rank_entities,
    summarize,
)


def samples_from(draws: np.ndarray) -> ChainSamples:
    n = len(draws)
    return ChainSamples(
        merit_draws=np.asarray(draws, dtype=float),
        variance_draws=np.ones(n),
        accepted=n,
        proposed=n,
        accept_flags=np.ones(n, dtype=bool),
        config=SamplerConfig(beta=0.2, iterations=2 * n, burn_in=n),
    )


class TestRankEntities:
    def test_descending_order(self):
        ranks = rank_entities(np.array([0.1, 2.0, -1.0]), ("a", "b", "c"))
        np.testing.assert_array_equal(ranks, [2, 1, 3])

    def test_exact_ties_break_alphabetically(self):
        ranks = rank_entities(np.array([1.0, 1.0, 2.0]), ("zeta", "alpha", "mid"))
        # "alpha" outranks "zeta" at the shared value
        np.testing.assert_array_equal(ranks, [3, 2, 1])


class TestSummarize:
    def setup_method(self):
        rng = np.random.default_rng(44)
        self.offsets = np.array([1.0, -0.5, -0.5])
        draws = self.offsets + 0.3 * rng.standard_normal((4000, 3))
        draws -= draws.mean(axis=1, keepdims=True)
        self.draws = draws
        self.samples = samples_from(draws)
        self.entities = ("up", "down_a", "down_b")

    def test_moments_and_intervals(self):
        report = summarize(self.samples, self.entities, level=0.9)
        np.testing.assert_allclose(report.mean, self.draws.mean(axis=0))
        np.testing.assert_allclose(report.sd, self.draws.std(axis=0, ddof=1))
        np.testing.assert_allclose(report.ci_low, np.quantile(self.draws, 0.05, axis=0))
        np.testing.assert_allclose(report.ci_high, np.quantile(self.draws, 0.95, axis=0))
        assert report.level == 0.9
        assert report.rank[0] == 1

    def test_outranking_matches_a_direct_count(self):
        report = summarize(self.samples, self.entities)
        direct = np.mean(self.draws[:, 0] > self.draws[:, 1]) + 0.5 * np.mean(
            self.draws[:, 0] == self.draws[:, 1]
        )
        np.testing.assert_allclose(report.outrank[0, 1], direct)
        np.testing.assert_allclose(report.outrank + report.outrank.T, 1.0)
        np.testing.assert_allclose(np.diagonal(report.outrank), 0.5)

    def test_tied_draws_split_the_outranking(self):
        draws = np.zeros((200, 2))
        draws[:100, 0] = 1.0
        draws[:100, 1] = -1.0
        report = summarize(samples_from(draws), ("x", "y"))
        # 100 wins for x plus 100 exact ties split in half
        np.testing.assert_allclose(report.outrank[0, 1], (100 + 50) / 200)

    def test_baseline_merits_add_a_second_ranking(self):
        report = summarize(self.samples, self.entities, mle_merits=np.array([0.0, 2.0, 1.0]))
        np.testing.assert_array_equal(report.mle_rank, [3, 1, 2])
        assert report.mle_ranks_by_entity() == {"up": 3, "down_a": 1, "down_b": 2}

    def test_no_baseline_means_none(self):
        report = summarize(self.samples, self.entities)
        assert report.mle_rank is None
        assert report.mle_ranks_by_entity() is None

    def test_too_few_draws_is_an_error(self):
        short = samples_from(np.random.default_rng(1).standard_normal((99, 3)))
        with pytest.raises(ValueError, match="at least 100"):
            summarize(short, self.entities)

    def test_validates_names_level_and_baseline_shape(self):
        with pytest.raises(ValueError, match="entity names"):
            summarize(self.samples, ("a", "b"))
        with pytest.raises(ValueError, match="level"):
            summarize(self.samples, self.entities, level=1.0)
        with pytest.raises(ValueError, match="baseline"):
            summarize(self.samples, self.entities, mle_merits=np.zeros(5))


class TestRankingReportValidation:
    def base_kwargs(self):
        return dict(
            entities=("a", "b"),
            mean=np.array([1.0, -1.0]),
            sd=np.ones(2),
            ci_low=np.array([0.5, -1.5]),
            ci_high=np.array([1.5, -0.5]),
            rank=np.array([1, 2]),
            outrank=np.array([[0.5, 0.9], [0.1, 0.5]]),
            mle_rank=None,
            level=0.95,
        )

    def test_accepts_consistent_fields(self):
        report = RankingReport(**self.base_kwargs())
        assert report.m == 2
        assert report.ranks_by_entity() == {"a": 1, "b": 2}

    def test_rejects_crossed_intervals(self):
        kwargs = self.base_kwargs() | {"ci_low": np.array([2.0, -1.5])}
        with pytest.raises(ValueError, match="crossed"):
            RankingReport(**kwargs)

    def test_rejects_non_permutation_ranks(self):
        kwargs = self.base_kwargs() | {"rank": np.array([1, 3])}
        with pytest.raises(ValueError, match="permutation"):
            RankingReport(**kwargs)

    def test_rejects_inconsistent_outranking(self):
        kwargs = self.base_kwargs() | {"outrank": np.array([[0.5, 0.8], [0.1, 0.5]])}
        with pytest.raises(ValueError, match="outrank"):
            RankingReport(**kwargs)


class TestCompareRankings:
    def test_distance_and_swapped_pairs(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"x": 2, "y": 1, "z": 3}
        distance, swaps = compare_rankings(a, b)
        assert distance == 1
        assert swaps == [("x", "y")]

    def test_identical_rankings(self):
        a = {"x": 1, "y": 2}
        assert compare_rankings(a, dict(a)) == (0, [])

    def test_swaps_are_alphabetical(self):
        a = {"m": 1, "b": 2, "t": 3}
        b = {"m": 3, "b": 2, "t": 1}
        distance, swaps = compare_rankings(a, b)
        assert distance == 3
        assert swaps == [("b", "m"), ("b", "t"), ("m", "t")]

    def test_swaps_match_a_brute_force_pair_list(self):
        rng = np.random.default_rng(21)
        names = [f"n{i:02d}" for i in rng.permutation(12)]
        for _ in range(20):
            a = dict(zip(names, rng.permutation(12) + 1))
            b = dict(zip(names, rng.permutation(12) + 1))
            ordered = sorted(names)
            expected = [
                (x, y)
                for i, x in enumerate(ordered)
                for y in ordered[i + 1 :]
                if (a[x] - a[y]) * (b[x] - b[y]) < 0
            ]
            distance, swaps = compare_rankings(a, b)
            assert swaps == expected
            assert distance == len(swaps)

    def test_mismatched_entity_sets(self):
        with pytest.raises(ValueError, match="different entity sets"):
            compare_rankings({"a": 1}, {"b": 1})


class TestExportReport:
    def make_report(self):
        rng = np.random.default_rng(50)
        draws = np.array([0.8, 0.0, -0.8]) + 0.2 * rng.standard_normal((500, 3))
        draws -= draws.mean(axis=1, keepdims=True)
        return summarize(
            samples_from(draws), ("first", "second", "third"),
            mle_merits=np.array([0.7, 0.1, -0.8]),
        )

    def test_csv_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "ranking.csv"
        export_report(report, "csv", path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["entity", "mean", "sd", "ci_low", "ci_high", "rank", "mle_rank"]
        assert len(rows) == 4
        assert rows[1][0] == "first"
        assert float(rows[1][1]) == report.mean[0]  # 17 digits reparse exactly
        assert int(rows[1][5]) == report.rank[0]

    def test_csv_blank_mle_column_without_baseline(self, tmp_path):
        rng = np.random.default_rng(51)
        draws = rng.standard_normal((200, 2))
        report = summarize(samples_from(draws), ("a", "b"))
        path = tmp_path / "ranking.csv"
        export_report(report, "csv", path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][6] == ""

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "ranking.json"
        export_report(report, "json", path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["entities"] == ["first", "second", "third"]
        np.testing.assert_allclose(payload["mean"], report.mean)
        np.testing.assert_allclose(payload["outrank"], report.outrank)
        assert payload["rank"] == report.rank.tolist()
        assert payload["mle_rank"] == report.mle_rank.tolist()

    def test_unknown_format_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_report(self.make_report(), "parquet", tmp_path / "x")
