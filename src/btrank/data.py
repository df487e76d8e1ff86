"""CSV ingestion and alignment of the input tables, and the format of the CSV and JSON outputs."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZONES = ("low", "middle", "high")

MISSING_POLICIES = ("drop_indicators", "drop_entities")

# default income cut points between the low, middle and high zones
LOW_INCOME_MAX = 100_000.0
MIDDLE_INCOME_MAX = 200_000.0

# a number whose integer digits commas group in threes, or in twos before a last three
_GROUPED_DIGITS = re.compile(r"[+-]?[1-9](\d{0,2}(,\d{3})+|\d?(,\d\d)+,\d{3})(\.\d*)?")

# rows per write in write_long_csv: about 40 kB of text, so memory stays
# flat however long the column
LONG_CSV_CHUNK = 1024


def _check_unique(kind: str, names) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {kind} name: {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class IndicatorTable:
    """Entities-by-indicators values with per-indicator polarity.

    ``polarity[k]`` is +1 when larger values of indicator ``k`` are better and
    -1 when smaller values are better.  A missing cell is NaN in ``values``,
    in a hand-built table as in a loaded one; ``missing`` is the mask of them.
    """

    entities: tuple[str, ...]
    indicators: tuple[str, ...]
    values: np.ndarray
    polarity: np.ndarray

    def __post_init__(self) -> None:
        m, k = len(self.entities), len(self.indicators)
        if m < 2:
            raise ValueError(f"need at least 2 entities, got {m}")
        if k < 1:
            raise ValueError("need at least 1 indicator")
        _check_unique("entity", self.entities)
        _check_unique("indicator", self.indicators)
        if self.values.shape != (m, k):
            raise ValueError(f"values must have shape {(m, k)}, got {self.values.shape}")
        if self.polarity.shape != (k,):
            raise ValueError(f"polarity must have shape {(k,)}, got {self.polarity.shape}")
        if not np.isin(self.polarity, (-1, 1)).all():
            raise ValueError("every polarity entry must be +1 or -1")
        if np.isinf(self.values).any():
            i, j = np.argwhere(np.isinf(self.values))[0]
            raise ValueError(f"indicator {self.indicators[j]!r} for {self.entities[i]!r} is infinite, not NaN")

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)

    @property
    def m(self) -> int:
        return len(self.entities)

    @property
    def k(self) -> int:
        return len(self.indicators)

    def take(self, rows, cols=None) -> IndicatorTable:
        """The table of the given entity rows and indicator columns, in the order given.

        ``rows`` and ``cols`` are integer positions; ``cols=None`` keeps every
        indicator.  The result is validated like any other table.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.arange(self.k) if cols is None else np.asarray(cols, dtype=int)
        return IndicatorTable(
            entities=tuple(self.entities[i] for i in rows),
            indicators=tuple(self.indicators[k] for k in cols),
            values=self.values[np.ix_(rows, cols)],
            polarity=self.polarity[cols],
        )


@dataclass(frozen=True)
class IncomeTable:
    """Per-entity income levels with a coarse zone label for each entity."""

    entities: tuple[str, ...]
    income: np.ndarray
    zone: tuple[str, ...]

    def __post_init__(self) -> None:
        m = len(self.entities)
        if m < 1:
            raise ValueError("income table is empty")
        _check_unique("entity", self.entities)
        if self.income.shape != (m,):
            raise ValueError(f"income must have shape {(m,)}, got {self.income.shape}")
        if not np.isfinite(self.income).all() or (self.income <= 0).any():
            raise ValueError("incomes must be finite and positive")
        if len(self.zone) != m:
            raise ValueError("zone labels must match the entity count")
        for label in self.zone:
            if label not in ZONES:
                raise ValueError(f"unknown zone label {label!r}; expected one of {ZONES}")

    @property
    def m(self) -> int:
        return len(self.entities)

    def take(self, rows) -> IncomeTable:
        """The table of the given entity rows (integer positions), in the order given."""
        rows = np.asarray(rows, dtype=int)
        return IncomeTable(
            entities=tuple(self.entities[i] for i in rows),
            income=self.income[rows],
            zone=tuple(self.zone[i] for i in rows),
        )


def _parse_number(text: str) -> float | None:
    """Parse a plain decimal; None if not numeric.

    Commas may group the integer digits in threes (``1,234,567``) or, as in
    Indian figures, a last three and then twos (``12,34,567``).  A cell with
    commas placed any other way, such as ``0,5`` or ``1,2345``, parses as NaN,
    never as the digits left when its commas are dropped.
    """
    cleaned = text.strip()
    if "," in cleaned:
        if not _GROUPED_DIGITS.fullmatch(cleaned):
            return np.nan
        cleaned = cleaned.replace(",", "")
    if not cleaned:
        return None
    try:
        return float(cleaned)
    except ValueError:
        return None


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    # utf-8-sig drops the byte order mark that spreadsheet programs write
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    return rows


def load_polarity(path) -> dict[str, int]:
    """Read an ``indicator,polarity`` file into a name -> +1/-1 mapping."""
    rows = _read_rows(path)
    if [cell.strip().lower() for cell in rows[0][:2]] != ["indicator", "polarity"]:
        raise ValueError(f"{path}: expected header 'indicator,polarity'")
    mapping: dict[str, int] = {}
    for row in rows[1:]:
        if len(row) < 2:
            raise ValueError(f"{path}: malformed row {row!r}")
        name = row[0].strip()
        if name in mapping:
            raise ValueError(f"{path}: duplicate indicator name: {name!r}")
        value = _parse_number(row[1])
        if value not in (1.0, -1.0):
            raise ValueError(f"{path}: polarity for {name!r} must be +1 or -1, got {row[1]!r}")
        mapping[name] = int(value)
    return mapping


def load_indicators(path, polarity_path) -> IndicatorTable:
    """Load an entity-by-indicator CSV plus its polarity file.

    The first column holds entity names and the header row names the
    indicators.  Empty or non-numeric cells are missing, left NaN in ``values``.
    Every indicator must appear in the polarity file.
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need an entity column plus at least one indicator")
    indicators = tuple(cell.strip() for cell in header[1:])

    entities: list[str] = []
    values = np.full((len(rows) - 1, len(indicators)), np.nan)
    for i, row in enumerate(rows[1:]):
        entities.append(row[0].strip())
        cells = row[1:]
        if len(cells) != len(indicators):
            raise ValueError(
                f"{path}: row for {row[0]!r} has {len(cells)} cells, expected {len(indicators)}"
            )
        for j, cell in enumerate(cells):
            parsed = _parse_number(cell)
            if parsed is None:
                continue  # a missing cell stays NaN
            if not -np.inf < parsed < np.inf:
                problem = "has misplaced digit-group commas" if "," in cell else "must be finite"
                raise ValueError(f"{path}: indicator {indicators[j]!r} for {entities[i]!r} "
                                 f"{problem}, got {cell!r}")
            values[i, j] = parsed

    polarity_map = load_polarity(polarity_path)
    absent = [name for name in indicators if name not in polarity_map]
    if absent:
        raise ValueError(f"no polarity given for indicator(s): {', '.join(absent)}")
    polarity = np.array([polarity_map[name] for name in indicators], dtype=int)

    return IndicatorTable(
        entities=tuple(entities),
        indicators=indicators,
        values=values,
        polarity=polarity,
    )


def zone_for_income(income: float, low_max: float, middle_max: float) -> str:
    if income <= low_max:
        return "low"
    if income <= middle_max:
        return "middle"
    return "high"


def load_income(path, *, low_max: float = LOW_INCOME_MAX, middle_max: float = MIDDLE_INCOME_MAX) -> IncomeTable:
    """Load an ``entity,income[,zone]`` CSV.

    When the zone column is absent or blank the label is derived from the
    income thresholds: ``income <= low_max`` is low, ``income <= middle_max``
    is middle, anything above is high.  The default cut points are arbitrary
    round numbers on the fixture's income scale; pass explicit thresholds for
    real data.
    """
    if not 0 < low_max < middle_max:
        raise ValueError("thresholds must satisfy 0 < low_max < middle_max")
    rows = _read_rows(path)
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:2] != ["entity", "income"]:
        raise ValueError(f"{path}: expected header 'entity,income[,zone]'")
    has_zone = len(header) > 2 and header[2] == "zone"

    entities: list[str] = []
    incomes: list[float] = []
    zones: list[str] = []
    for row in rows[1:]:
        if len(row) < 2:
            raise ValueError(f"{path}: malformed row {row!r}")
        name = row[0].strip()
        value = _parse_number(row[1])
        if value is None or not 0 < value < np.inf:
            raise ValueError(f"{path}: income for {name!r} must be a finite positive number, got {row[1]!r}")
        label = row[2].strip().lower() if has_zone and len(row) > 2 else ""
        if not label:
            label = zone_for_income(value, low_max, middle_max)
        if label not in ZONES:
            raise ValueError(f"{path}: unknown zone {label!r} for {name!r}; expected one of {ZONES}")
        entities.append(name)
        incomes.append(value)
        zones.append(label)

    return IncomeTable(entities=tuple(entities), income=np.array(incomes), zone=tuple(zones))


def align_entities(table: IndicatorTable, income: IncomeTable) -> tuple[IndicatorTable, IncomeTable]:
    """Restrict both tables to the income table's entities, in indicator-table order.

    Indicator rows without an income entry are dropped; an income entry with
    no indicator row is an error.
    """
    known = set(table.entities)
    unknown = [name for name in income.entities if name not in known]
    if unknown:
        raise ValueError(f"income entities missing from the indicator table: {', '.join(unknown)}")

    wanted = set(income.entities)
    table = table.take([i for i, name in enumerate(table.entities) if name in wanted])
    return table, income_for_entities(income, table.entities)


def apply_missing_policy(table: IndicatorTable, policy: str, drop=()) -> IndicatorTable:
    """Produce a complete table by dropping incomplete indicators or named entities.

    ``drop_indicators`` removes every indicator column with any missing cell.
    ``drop_entities`` removes the named entities first, then any column still
    incomplete.  The result always has an all-False missing mask.
    """
    if policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing policy {policy!r}; expected one of {MISSING_POLICIES}")

    keep_rows = np.arange(table.m)
    if policy == "drop_entities":
        unknown = [name for name in drop if name not in table.entities]
        if unknown:
            raise ValueError(f"cannot drop unknown entities: {', '.join(unknown)}")
        keep_rows = [i for i, name in enumerate(table.entities) if name not in set(drop)]
        if len(keep_rows) < 2:
            raise ValueError("dropping those entities leaves fewer than 2")
    elif drop:
        raise ValueError("entity drop list is only valid with the drop_entities policy")

    keep_cols = ~table.missing[keep_rows].any(axis=0)
    if not keep_cols.any():
        raise ValueError("missing policy leaves no complete indicators")
    return table.take(keep_rows, np.flatnonzero(keep_cols))


def income_for_entities(income: IncomeTable, entities) -> IncomeTable:
    """Income rows for exactly the named entities, in the order given."""
    positions = {name: i for i, name in enumerate(income.entities)}
    absent = [name for name in entities if name not in positions]
    if absent:
        raise ValueError(f"no income recorded for: {', '.join(absent)}")
    return income.take([positions[name] for name in entities])


def subset_by_zone(table: IndicatorTable, income: IncomeTable, zones) -> tuple[IndicatorTable, IncomeTable]:
    """Keep only entities whose income zone is in ``zones`` (both tables aligned)."""
    if table.entities != income.entities:
        raise ValueError("tables must be aligned before zone subsetting")
    zones = tuple(zones)
    if not zones:
        raise ValueError("no zones requested")
    for label in zones:
        if label not in ZONES:
            raise ValueError(f"unknown zone label {label!r}; expected one of {ZONES}")
    keep = [i for i, label in enumerate(income.zone) if label in set(zones)]
    if len(keep) < 2:
        raise ValueError(f"zone subset {zones} leaves fewer than 2 entities")
    return table.take(keep), income.take(keep)


def load_dataset(indicators_path, polarity_path, income_path, *,
                 low_max: float = LOW_INCOME_MAX, middle_max: float = MIDDLE_INCOME_MAX):
    """Load and align the indicator and income tables in one call."""
    table = load_indicators(indicators_path, polarity_path)
    income = load_income(income_path, low_max=low_max, middle_max=middle_max)
    return align_entities(table, income)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` (any iterable) in the csv module's default dialect.

    Every cell is written with ``str``, which for a Python float is ``repr``:
    the shortest string that parses back to the same double, as in the JSON
    outputs.  Pass Python numbers (from ``tolist()``, say), not numpy scalars.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mark each value, or each row of a 2-D array, that differs in some bit from the one before.

    The first always starts a run.  Bits, not values, are compared: 0.0 ==
    -0.0 prints differently, and nan != nan.
    """
    bits = values.view(f"i{values.itemsize}")
    starts = np.ones(len(bits), dtype=bool)
    # reduced over each row of a 2-D array, over no axis for 1-D values
    np.logical_or.reduce(bits[1:] != bits[:-1], axis=tuple(range(1, bits.ndim)), out=starts[1:])
    return starts


def write_long_csv(path, header, column, names, index) -> None:
    """Write a column of equal runs, one per name, as ``index,name,value`` rows.

    ``column`` holds ``len(names)`` runs of ``len(index)`` values one after
    the other, as :func:`btrank.diagnostics.trace_export` returns them, and
    ``index`` (a ``range``, say) labels the rows of every run.  The file is
    byte for byte what :func:`write_csv` writes for the same rows, formatted
    ``LONG_CSV_CHUNK`` rows per write: the header cells and names must be
    identifiers, which the csv module never quotes.  Each index text is
    formatted once and shared by every name.  Within a chunk, each run of
    bit-identical consecutive values is formatted once and its text reused,
    since a Metropolis-Hastings chain repeats its state on every rejection.
    The column must hold float64 values.  A column whose length is not
    ``len(names) * len(index)`` raises instead of being mis-sliced.
    """
    for cell in (*header, *names):
        if not cell.isidentifier():
            raise ValueError(f"long-table header cells and names must be identifiers, got {cell!r}")
    n = len(index)
    if len(column) != n * len(names):
        raise ValueError(f"{len(column)} values do not split into {len(names)} equal runs of {n}")
    index_texts = [f"{i}," for i in index]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for name, values in zip(names, np.reshape(column, (len(names), n))):
            # rows laid out as [index text, "name,", value text, "\r\n"]
            parts = ["", f"{name},", "", "\r\n"] * min(n, LONG_CSV_CHUNK)
            for lo in range(0, n, LONG_CSV_CHUNK):
                chunk = values[lo : lo + LONG_CSV_CHUNK]
                starts = _run_starts(chunk)
                texts = np.array(list(map(repr, chunk[starts].tolist())), dtype=object)
                size = 4 * len(chunk)
                del parts[size:]
                parts[0::4] = index_texts[lo : lo + LONG_CSV_CHUNK]
                parts[2::4] = texts[np.cumsum(starts) - 1].tolist()
                handle.write("".join(parts))


def _numpy_to_json(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(payload, path) -> None:
    """Write ``payload`` as JSON indented by 2 with sorted keys and a final newline.

    Numpy arrays and scalars are written as their ``tolist()`` values; any
    other object that JSON cannot hold raises ``TypeError``.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_numpy_to_json)
        handle.write("\n")
