"""Ranking summaries, outranking shares, and exports."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from btrank import RankingReport, export_report, rank_entities, summarize
from btrank.report import _outranking

from .conftest import toy_samples


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
        self.samples = toy_samples(draws)
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
        report = summarize(toy_samples(draws), ("x", "y"))
        # 100 wins for x plus 100 exact ties split in half
        np.testing.assert_allclose(report.outrank[0, 1], (100 + 50) / 200)

    def test_non_finite_draws_are_an_error(self):
        for bad in (np.nan, np.inf):
            draws = self.draws.copy()
            draws[17, 1] = bad
            with pytest.raises(ValueError, match="non-finite merit draws"):
                summarize(toy_samples(draws), self.entities)

    def test_baseline_merits_add_a_second_ranking(self):
        report = summarize(self.samples, self.entities, mle_merits=np.array([0.0, 2.0, 1.0]))
        np.testing.assert_array_equal(report.mle_rank, [3, 1, 2])
        by_entity = dict(zip(report.entities, report.mle_rank.tolist()))
        assert by_entity == {"up": 3, "down_a": 1, "down_b": 2}

    def test_no_baseline_means_none(self):
        report = summarize(self.samples, self.entities)
        assert report.mle_rank is None

    def test_too_few_draws_is_an_error(self):
        short = toy_samples(np.random.default_rng(1).standard_normal((99, 3)))
        with pytest.raises(ValueError, match="at least 100"):
            summarize(short, self.entities)

    def test_validates_names_level_and_baseline_shape(self):
        with pytest.raises(ValueError, match="entity names"):
            summarize(self.samples, ("a", "b"))
        with pytest.raises(ValueError, match="level"):
            summarize(self.samples, self.entities, level=1.0)
        with pytest.raises(ValueError, match="baseline"):
            summarize(self.samples, self.entities, mle_merits=np.zeros(5))


def two_pass_outranking(draws):
    """Strict wins plus half the exact ties counted in a second pass.

    This is the form the tie identity ``(n + wins - wins') / 2n`` replaces.
    """
    n, m = draws.shape
    counts = np.zeros((m, m))
    step = max(1, 2_000_000 // (m * m))
    for start in range(0, n, step):
        chunk = draws[start : start + step]
        counts += (chunk[:, :, None] > chunk[:, None, :]).sum(axis=0)
        counts += 0.5 * (chunk[:, :, None] == chunk[:, None, :]).sum(axis=0)
    out = counts / n
    np.fill_diagonal(out, 0.5)
    return out


class TestOutrankingOracle:
    """Ties counted as the draws neither entity wins, against an explicit tie pass, bit for bit."""

    def check(self, draws):
        names = tuple(f"e{i:02d}" for i in range(draws.shape[1]))
        outrank = summarize(toy_samples(draws), names).outrank
        assert outrank.tobytes() == two_pass_outranking(draws).tobytes()

    def test_quantised_draws(self):
        rng = np.random.default_rng(45)
        # at M=33 the 5000 draws span six chunks, and rounding to 0.1 makes many ties
        for m, n, scale in ((3, 4000, 0.3), (33, 5000, 0.2), (7, 333, 1.0)):
            draws = np.round(np.linspace(-1.0, 1.0, m) + scale * rng.standard_normal((n, m)), 1)
            self.check(draws)

    def test_all_equal_draws(self):
        self.check(np.zeros((150, 4)))
        self.check(np.full((101, 2), 0.3))
        # equal rows that differ only in the sign of a zero start separate runs
        signed = np.zeros((150, 4))
        signed[1::2, :2] = -0.0
        self.check(signed)


def rejecting_chain(rng, n, m, accept):
    """Draws that repeat the row before them unless a proposal is accepted."""
    fresh = np.round(rng.standard_normal((n, m)), 1)
    moved = rng.random(n) < accept
    moved[0] = True
    return fresh[np.maximum.accumulate(np.where(moved, np.arange(n), 0))]


class TestOutrankingOverRuns:
    """Each run of equal rows compared once and weighted, against one count per draw."""

    def check(self, draws):
        n = len(draws)
        wins = (draws[:, :, None] > draws[:, None, :]).sum(axis=0)
        assert _outranking(draws).tobytes() == ((n + wins - wins.T) / (2.0 * n)).tobytes()

    def test_repeated_rows(self):
        rng = np.random.default_rng(46)
        # at M=33 a chunk holds 918 draws, so some runs cross a chunk edge
        for m, n, accept in ((33, 4000, 0.05), (33, 3000, 0.3), (4, 500, 0.014), (5, 300, 1.0)):
            self.check(rejecting_chain(rng, n, m, accept))
        # a chain dump may hold float32 draws, whose rows of 5 are no whole number of int64s
        self.check(rejecting_chain(rng, 300, 5, 0.3).astype(np.float32))

    def test_exact_ties(self):
        draws = rejecting_chain(np.random.default_rng(47), 400, 6, 0.3)
        draws[:, 1] = draws[:, 0]
        draws[::3, 2] = draws[::3, 4]
        self.check(draws)
        self.check(np.zeros((150, 3)))

    def test_rows_that_differ_in_the_sign_of_zero(self):
        draws = np.tile([0.0, 0.0, 0.5, -0.25], (120, 1))
        draws[1::2, :2] = -0.0
        draws[::7, 1] = -0.0
        self.check(draws)


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
        assert dict(zip(report.entities, report.rank.tolist())) == {"a": 1, "b": 2}

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


class TestExportReport:
    def make_report(self):
        rng = np.random.default_rng(50)
        draws = np.array([0.8, 0.0, -0.8]) + 0.2 * rng.standard_normal((500, 3))
        draws -= draws.mean(axis=1, keepdims=True)
        return summarize(
            toy_samples(draws), ("first", "second", "third"),
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
        report = summarize(toy_samples(draws), ("a", "b"))
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
