"""Posterior ranking summaries and exports."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import _run_starts, write_csv, write_json
from .diagnostics import rank_entities
from .mcmc import ChainSamples

MIN_DRAWS = 100


@dataclass(frozen=True)
class RankingReport:
    """Per-entity posterior summaries, ranks, and pairwise outranking shares.

    Rank 1 is the best entity.  ``outrank[i, j]`` is the share of draws in
    which entity ``i``'s merit exceeds entity ``j``'s, with exact ties split.
    ``mle_rank`` is None when no baseline merits were supplied.
    """

    entities: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    rank: np.ndarray
    outrank: np.ndarray
    mle_rank: np.ndarray | None
    level: float

    def __post_init__(self) -> None:
        m = len(self.entities)
        if (self.ci_low > self.ci_high).any():
            raise ValueError("interval bounds are crossed")
        if sorted(self.rank.tolist()) != list(range(1, m + 1)):
            raise ValueError("rank must be a permutation of 1..M")
        if self.outrank.shape != (m, m):
            raise ValueError("outrank must be square")
        if not np.allclose(self.outrank + self.outrank.T, 1.0):
            raise ValueError("outrank[i,j] + outrank[j,i] must equal 1")

    @property
    def m(self) -> int:
        return len(self.entities)


def _check_summary(n_kept: int, level: float) -> None:
    if n_kept < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} kept draws, got {n_kept}")
    if not 0 < level < 1:
        raise ValueError("level must lie strictly between 0 and 1")


def _outranking(draws: np.ndarray) -> np.ndarray:
    # ChainSamples holds only finite draws, so a draw neither entity wins is a
    # tie: (wins + ties / 2) / n = (n + wins - wins') / 2n
    n, m = draws.shape
    wins = np.zeros((m, m), dtype=np.int64)
    # at most 10^6 pairwise comparisons per chunk: 1 MB, plus the chunk's
    # copy of its distinct rows (0.24 MB at M=33)
    step = max(1, 1_000_000 // (m * m))
    for start in range(0, n, step):
        chunk = draws[start : start + step]
        # a rejected proposal repeats the row before it: compare each run of
        # identical rows once and weight its counts
        starts = _run_starts(chunk)
        rows = chunk[starts]
        lengths = np.diff(np.append(np.flatnonzero(starts), len(chunk)))
        wins += np.einsum("k,kij->ij", lengths, rows[:, :, None] > rows[:, None, :])
    return (n + wins - wins.T) / (2.0 * n)


def summarize(samples: ChainSamples, entities, level: float = 0.95,
              mle_merits: np.ndarray | None = None) -> RankingReport:
    """Posterior means, spreads, equal-tailed intervals, and ranks.

    Ranks order entities by descending posterior mean, breaking exact ties
    lexicographically by entity name.  ``mle_merits``, when given, adds a
    baseline ranking computed the same way.

    Parameters
    ----------
    samples : ChainSamples
        At least 100 kept draws.
    entities : sequence of str
        Names matching the merit dimension.
    level : float
        Credible interval mass, strictly between 0 and 1.
    mle_merits : ndarray, optional
        Baseline merit vector, for example from the maximum likelihood fit.
    """
    entities = tuple(entities)
    if len(entities) != samples.m:
        raise ValueError(f"got {len(entities)} entity names for {samples.m} merit components")
    _check_summary(samples.n_kept, level)

    draws = samples.merit_draws
    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    tail = (1.0 - level) / 2.0
    ci_low, ci_high = np.quantile(draws, [tail, 1.0 - tail], axis=0)

    mle_rank = None
    if mle_merits is not None:
        mle_merits = np.asarray(mle_merits, dtype=float)
        if mle_merits.shape != (samples.m,):
            raise ValueError("baseline merits have the wrong shape")
        mle_rank = rank_entities(mle_merits, entities)

    return RankingReport(
        entities=entities,
        mean=mean,
        sd=sd,
        ci_low=ci_low,
        ci_high=ci_high,
        rank=rank_entities(mean, entities),
        outrank=_outranking(draws),
        mle_rank=mle_rank,
        level=level,
    )


def export_report(report: RankingReport, format: str, path) -> None:
    """Write the ranking table as ``csv`` or the full report as ``json``."""
    if format == "csv":
        names = ("mean", "sd", "ci_low", "ci_high", "rank")
        mle_rank = report.mle_rank.tolist() if report.mle_rank is not None else [""] * report.m
        rows = zip(report.entities, *(getattr(report, name).tolist() for name in names), mle_rank)
        write_csv(path, ["entity", *names, "mle_rank"], rows)
    elif format == "json":
        write_json(asdict(report), path)
    else:
        raise ValueError(f"unknown export format {format!r}; expected 'csv' or 'json'")
