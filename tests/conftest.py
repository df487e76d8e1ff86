"""Shared fixtures: paths to the bundled dataset and small synthetic tables."""

from __future__ import annotations

import csv
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from btrank import (
    ChainSamples,
    IncomeTable,
    IndicatorTable,
    KernelSpec,
    SamplerConfig,
    build_prior,
    build_win_matrix,
    load_dataset,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture_dataset(data_dir):
    """The bundled indicator and income tables, aligned."""
    return load_dataset(
        data_dir / "indicators.csv",
        data_dir / "polarity.csv",
        data_dir / "income.csv",
    )


def make_table(m: int = 6, k: int = 8, seed: int = 5, missing_cells=()) -> IndicatorTable:
    """Small deterministic indicator table for unit tests."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(50.0, 10.0, (m, k)), 1)
    for i, j in missing_cells:
        values[i, j] = np.nan
    polarity = np.where(np.arange(k) % 3 == 0, -1, 1)
    return IndicatorTable(
        entities=tuple(f"ent{i:02d}" for i in range(m)),
        indicators=tuple(f"ind{j:02d}" for j in range(k)),
        values=values,
        polarity=polarity,
    )


def make_income(m: int = 6, base: float = 50_000.0) -> IncomeTable:
    """Income ladder with comfortably separated log incomes."""
    incomes = base * np.exp(0.35 * np.arange(m))
    zones = tuple(
        "low" if v <= 100_000 else "middle" if v <= 200_000 else "high" for v in incomes
    )
    return IncomeTable(
        entities=tuple(f"ent{i:02d}" for i in range(m)),
        income=incomes,
        zone=zones,
    )


def toy_samples(merit_draws: np.ndarray, accepted: int | None = None) -> ChainSamples:
    """A chain of the given merit draws with unit variance draws."""
    n = len(merit_draws)
    if accepted is None:
        accepted = n // 2
    return ChainSamples(
        merit_draws=merit_draws,
        variance_draws=np.ones(n),
        accepted=accepted,
        accept_flags=np.arange(n) < accepted,
        config=SamplerConfig(beta=0.2, iterations=2 * n, burn_in=n),
    )


def rewrite_dump(path, drop=(), **meta_changes) -> None:
    """Rewrite a chain dump in place without the entries in ``drop``, with ``meta.json``, if kept, edited.

    Dropping ``loglik_draws.npy`` leaves the three arrays and ``meta.json``
    that a dump held before the chain recorded its log-likelihood.
    """
    with zipfile.ZipFile(path) as archive:
        entries = {name: archive.read(name) for name in archive.namelist() if name not in drop}
    if "meta.json" in entries:
        meta = json.loads(entries["meta.json"])
        meta.update(meta_changes)
        entries["meta.json"] = json.dumps(meta).encode("utf-8")
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in entries.items():
            archive.writestr(name, data)


def csv_floats(path, column: str) -> np.ndarray:
    """One column of a CSV output, every cell parsed with ``float``."""
    with open(path, newline="", encoding="utf-8") as handle:
        return np.array([float(row[column]) for row in csv.DictReader(handle)])


def dense_log_likelihood(merits, w):
    """The likelihood summed over every ordered cell, the form the pair list replaces."""
    diff = merits[..., None, :] - merits[..., :, None]
    return -np.sum(w.wins * np.logaddexp(0.0, diff), axis=(-2, -1))


def softplus_log_likelihood(merits, w):
    """The pair-list likelihood in softplus form, the form the strength form replaces.

    Each compared pair ``i < j`` adds ``wins[j,i] (m_j - m_i) - comparisons[i,j]
    softplus(m_j - m_i)``, with the softplus written as ``log1p(exp(-|d|)) +
    max(d, 0)``; every reduction runs along the last axis.
    """
    i, j, counts = w.pairs.i, w.pairs.j, w.pairs.counts
    later_wins = w.wins[j, i]
    score = np.bincount(j, later_wins, w.m) - np.bincount(i, later_wins, w.m)
    d = merits.take(j, axis=-1) - merits.take(i, axis=-1)
    softplus = np.log1p(np.exp(-np.abs(d))) + np.maximum(d, 0.0)
    return np.vecdot(merits, score) - np.vecdot(softplus, counts)


def random_wins(rng) -> np.ndarray:
    """A random directed win matrix on 2 to 11 entities.

    About half the draws are sparse integer counts at a random density, a
    third of them with some ties split into half-wins.  The others, on 4 or
    more entities, split the entities at random into two groups of at least
    two, each a directed cycle in which every entity wins and loses, joined
    by wins of the first group over the second; about half of those also
    get one win back, which makes the graph strongly connected.
    """
    m = int(rng.integers(2, 12))
    if m < 4 or rng.random() < 0.5:
        wins = (rng.integers(1, 4, size=(m, m)) * (rng.random((m, m)) < rng.random())).astype(float)
        if rng.random() < 0.3:
            tied = np.triu(rng.random((m, m)) < 0.2, 1)
            wins += 0.5 * (tied | tied.T)
    else:
        order = rng.permutation(m)
        cut = int(rng.integers(2, m - 1))
        wins = np.zeros((m, m))
        for group in (order[:cut], order[cut:]):
            wins[group, np.roll(group, -1)] += 1.0
        wins[order[0], order[cut]] += 2.0
        if rng.random() < 0.5:
            wins[order[-1], order[0]] += 1.0
    np.fill_diagonal(wins, 0.0)
    return wins


@pytest.fixture
def toy_table() -> IndicatorTable:
    return make_table()


@pytest.fixture
def toy_income() -> IncomeTable:
    return make_income()


@pytest.fixture
def toy_wins(toy_table):
    return build_win_matrix(toy_table)


@pytest.fixture
def toy_prior(toy_income):
    return build_prior(toy_income, KernelSpec("squared_exponential", 0.5))
