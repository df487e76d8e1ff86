"""Pairwise win counting over indicator tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import IndicatorTable, write_csv

TIE_POLICIES = ("split", "drop")


class PairList(NamedTuple):
    """The compared pairs ``i[k] < j[k]`` of a win matrix.

    ``counts[k]`` is the number of contests between the pair.  ``score[e]``
    adds ``wins[j, i]`` over the pairs where ``e`` is ``j`` and subtracts it
    over the pairs where ``e`` is ``i``, so that ``score @ merits`` equals
    ``sum_k wins[j, i] * (merits[j] - merits[i])``.
    """

    i: np.ndarray
    j: np.ndarray
    counts: np.ndarray
    score: np.ndarray


@dataclass(frozen=True)
class WinMatrix:
    """Directed win counts between entities.

    ``wins[i, j]`` is the number of pairwise contests entity ``i`` won against
    entity ``j`` (half-integers appear when ties are split), and
    ``comparisons[i, j]`` is the number of contests counted for the pair.
    """

    entities: tuple[str, ...]
    wins: np.ndarray
    comparisons: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.entities)
        if m < 2:
            raise ValueError(f"need at least 2 entities, got {m}")
        if len(set(self.entities)) != m:
            raise ValueError("duplicate entity names")
        if self.wins.shape != (m, m) or self.comparisons.shape != (m, m):
            raise ValueError(f"wins and comparisons must both have shape {(m, m)}")
        if np.diagonal(self.wins).any() or np.diagonal(self.comparisons).any():
            raise ValueError("diagonal entries must be zero")
        if (self.comparisons < 0).any() or (self.wins < 0).any():
            raise ValueError("counts must be nonnegative")
        # wins split a tie into exact halves, so this sum is exact in floats
        if not np.array_equal(self.wins + self.wins.T, self.comparisons.astype(float)):
            raise ValueError("wins[i,j] + wins[j,i] must equal comparisons[i,j]")

    @property
    def m(self) -> int:
        return len(self.entities)

    @cached_property
    def pairs(self) -> PairList:
        """Pairs with at least one contest, built on first use and kept."""
        i, j = np.nonzero(np.triu(self.comparisons > 0, 1))
        later_wins = self.wins[j, i]
        score = np.bincount(j, later_wins, self.m) - np.bincount(i, later_wins, self.m)
        return PairList(i, j, self.comparisons[i, j].astype(float), score)


def build_win_matrix(table: IndicatorTable, tie_policy: str = "split") -> WinMatrix:
    """Count indicator-by-indicator wins between every pair of entities.

    For each indicator, entity ``i`` beats entity ``j`` when its
    polarity-adjusted value is strictly larger.  Exact ties either add half a
    win to each side (``split``, the pair's comparison count still increments)
    or are discarded for that pair (``drop``).

    Parameters
    ----------
    table : IndicatorTable
        Complete table; apply a missing policy first if any cells are missing.
    tie_policy : str
        Either ``"split"`` or ``"drop"``.

    Returns
    -------
    WinMatrix
    """
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}; expected one of {TIE_POLICIES}")
    if table.missing.any():
        raise ValueError("indicator table has missing cells; apply a missing policy first")

    adjusted = table.values * table.polarity
    greater = (adjusted[:, None, :] > adjusted[None, :, :]).sum(axis=2).astype(float)

    if tie_policy == "split":
        comparisons = np.full((table.m, table.m), table.k, dtype=np.int64)
        np.fill_diagonal(comparisons, 0)
        # values are finite, so ties = k - greater - greater'; wins = greater + ties / 2
        wins = 0.5 * (comparisons + greater - greater.T)
    else:
        wins = greater
        comparisons = (greater + greater.T).astype(np.int64)
    return WinMatrix(entities=table.entities, wins=wins, comparisons=comparisons)


def total_comparisons(w: WinMatrix) -> int:
    """Total number of counted contests across all unordered pairs."""
    iu = np.triu_indices(w.m, k=1)
    return int(w.comparisons[iu].sum())


def export_win_matrix(w: WinMatrix, path) -> None:
    """Write one ``entity_i,entity_j,wins,comparisons`` row per ordered pair."""
    write_csv(
        path,
        ["entity_i", "entity_j", "wins", "comparisons"],
        (
            (name_i, name_j, float(w.wins[i, j]), int(w.comparisons[i, j]))
            for i, name_i in enumerate(w.entities)
            for j, name_j in enumerate(w.entities)
            if i != j
        ),
    )
