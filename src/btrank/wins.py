"""Pairwise win counting over indicator tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import IndicatorTable, _check_unique, write_csv

TIE_POLICIES = ("split", "drop")

# most entities with an incidence matrix: in run_chain its product took 0.92-0.96 of the gathers'
# time at M = 44 and 0.98-1.16 at M = 48 (acceptance 0.06-0.3; README, "Benchmark")
INCIDENCE_MAX_ENTITIES = 44


class PairList(NamedTuple):
    """The compared pairs ``i[k] < j[k]`` of a win matrix.

    ``counts[k]`` is the number of contests between the pair, and
    ``total_wins[e]`` is the number of contests entity ``e`` won against
    anyone, ``wins[e].sum()``.  ``incidence``, ``None`` above ``INCIDENCE_MAX_ENTITIES``
    entities, is the ``(M, P)`` matrix with ones at ``(i[k], k)`` and ``(j[k], k)`` only.
    """

    i: np.ndarray
    j: np.ndarray
    counts: np.ndarray
    total_wins: np.ndarray
    incidence: np.ndarray | None


@dataclass(frozen=True)
class WinMatrix:
    """Directed win counts between entities.

    ``wins[i, j]`` is the number of pairwise contests entity ``i`` won against
    entity ``j`` (half-integers appear when ties are split), and the pair's
    contest count ``comparisons[i, j]`` is ``wins[i, j] + wins[j, i]``.
    """

    entities: tuple[str, ...]
    wins: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.entities)
        if m < 2:
            raise ValueError(f"need at least 2 entities, got {m}")
        _check_unique("entity", self.entities)
        if self.wins.shape != (m, m):
            raise ValueError(f"wins must have shape {(m, m)}")
        if np.diagonal(self.wins).any():
            raise ValueError("diagonal entries must be zero")
        if (self.wins < 0).any():
            raise ValueError("counts must be nonnegative")
        totals = self.wins + self.wins.T
        if not np.isfinite(totals).all() or (totals % 1).any():
            raise ValueError("wins[i,j] + wins[j,i] must be a finite whole number")

    @property
    def m(self) -> int:
        return len(self.entities)

    @cached_property
    def comparisons(self) -> np.ndarray:
        """Contests counted for each pair, built on first use and kept."""
        return (self.wins + self.wins.T).astype(np.int64)

    @cached_property
    def pairs(self) -> PairList:
        """Pairs with at least one contest, built on first use and kept."""
        i, j = np.nonzero(np.triu(self.comparisons > 0, 1))
        e = np.arange(self.m)[:, None]  # row-major: the product took 1.5 times as long column-major
        incidence = ((e == i) | (e == j)).astype(float) if self.m <= INCIDENCE_MAX_ENTITIES else None
        return PairList(i, j, self.comparisons[i, j].astype(float), self.wins.sum(axis=1), incidence)


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

    # values are finite, so ties = k - greater - greater' and split wins are greater + ties / 2
    wins = greater if tie_policy == "drop" else 0.5 * (table.k + greater - greater.T)
    np.fill_diagonal(wins, 0.0)  # splitting counts k / 2 wins of each entity over itself
    return WinMatrix(entities=table.entities, wins=wins)


def total_comparisons(w: WinMatrix) -> int:
    """Total number of counted contests across all unordered pairs."""
    return int(w.wins.sum())


def export_win_matrix(w: WinMatrix, path) -> None:
    """Write one ``entity_i,entity_j,wins,comparisons`` row per ordered pair."""
    write_csv(
        path,
        ["entity_i", "entity_j", "wins", "comparisons"],
        (
            (name_i, name_j, wins, comparisons)
            for name_i, row_w, row_c in zip(w.entities, w.wins.tolist(), w.comparisons.tolist())
            for name_j, wins, comparisons in zip(w.entities, row_w, row_c)
            if name_j != name_i
        ),
    )
