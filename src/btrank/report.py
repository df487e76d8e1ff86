"""Posterior ranking summaries and exports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_csv, write_json
from .diagnostics import discordant_pairs, rank_entities
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

    def ranks_by_entity(self) -> dict[str, int]:
        return {name: int(r) for name, r in zip(self.entities, self.rank)}

    def mle_ranks_by_entity(self) -> dict[str, int] | None:
        if self.mle_rank is None:
            return None
        return {name: int(r) for name, r in zip(self.entities, self.mle_rank)}


def _outranking(draws: np.ndarray) -> np.ndarray:
    # ChainSamples holds only finite draws, so a draw neither entity wins is a
    # tie: (wins + ties / 2) / n = (n + wins - wins') / 2n
    n, m = draws.shape
    wins = np.zeros((m, m), dtype=np.int64)
    step = max(1, 2_000_000 // (m * m))
    for start in range(0, n, step):
        chunk = draws[start : start + step]
        wins += (chunk[:, :, None] > chunk[:, None, :]).sum(axis=0)
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
    if samples.n_kept < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} kept draws, got {samples.n_kept}")
    if not 0 < level < 1:
        raise ValueError("level must lie strictly between 0 and 1")

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


def compare_rankings(ranks_a: dict, ranks_b: dict):
    """Kendall tau distance between two rankings plus the swapped pairs.

    Both mappings must rank exactly the same entities.  Returns
    ``(distance, swaps)`` where swaps lists the entity pairs the two rankings
    order differently, alphabetically.
    """
    if set(ranks_a) != set(ranks_b):
        raise ValueError("rankings cover different entity sets")
    names = sorted(ranks_a)
    a = np.array([ranks_a[name] for name in names])
    b = np.array([ranks_b[name] for name in names])
    swaps = [(names[i], names[j]) for i, j in zip(*np.nonzero(discordant_pairs(a, b)))]
    return len(swaps), swaps


def export_report(report: RankingReport, format: str, path) -> None:
    """Write the ranking table as ``csv`` or the full report as ``json``."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown export format {format!r}; expected 'csv' or 'json'")
    names = ("mean", "sd", "ci_low", "ci_high", "rank")
    columns = {name: getattr(report, name).tolist() for name in names}
    mle_rank = report.mle_rank.tolist() if report.mle_rank is not None else None
    if format == "csv":
        rows = zip(report.entities, *columns.values(), mle_rank or [""] * report.m)
        write_csv(path, ["entity", *columns, "mle_rank"], rows)
    else:
        write_json({
            **columns,
            "level": report.level,
            "entities": list(report.entities),
            "mle_rank": mle_rank,
            "outrank": report.outrank.tolist(),
        }, path)
