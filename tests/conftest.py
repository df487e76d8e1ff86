"""Shared fixtures: paths to the bundled dataset and small synthetic tables."""

from __future__ import annotations

import csv
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
    missing = np.zeros((m, k), dtype=bool)
    for i, j in missing_cells:
        missing[i, j] = True
    polarity = np.where(np.arange(k) % 3 == 0, -1, 1)
    return IndicatorTable(
        entities=tuple(f"ent{i:02d}" for i in range(m)),
        indicators=tuple(f"ind{j:02d}" for j in range(k)),
        values=values,
        polarity=polarity,
        missing=missing,
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
        proposed=n,
        accept_flags=np.arange(n) < accepted,
        config=SamplerConfig(beta=0.2, iterations=2 * n, burn_in=n),
    )


def csv_floats(path, column: str) -> np.ndarray:
    """One column of a CSV output, every cell parsed with ``float``."""
    with open(path, newline="", encoding="utf-8") as handle:
        return np.array([float(row[column]) for row in csv.DictReader(handle)])


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
