"""Ingestion, alignment, missing policies, and zone handling."""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from btrank import (
    IncomeTable,
    IndicatorTable,
    align_entities,
    apply_missing_policy,
    income_for_entities,
    load_dataset,
    load_income,
    load_indicators,
    subset_by_zone,
)
from btrank import data
from btrank.data import load_polarity, write_csv, write_json, write_long_csv, zone_for_income

from .conftest import make_table


def write(path, text: str):
    path.write_text(text, encoding="utf-8")
    return path


# values whose shortest round-trip form is not plain: signed zero, the least
# subnormal, an exponent form, and the three non-finite values
AWKWARD = [0.1, 12.0, -0.0, 5e-324, 1e16, -1.5e-300, float("nan"), float("inf"), float("-inf")]
LONG_HEADER = ["draw", "parameter", "value"]


def long_csv_pair(tmp_path, column, names, first, step=1) -> tuple[bytes, bytes]:
    """The files that write_long_csv and write_csv make of the same long table.

    Each run's rows are labelled ``first``, ``first + step``, ...
    """
    n = len(column) // len(names) if names else 0
    index = range(first, first + n * step, step)
    runs = np.reshape(column, (len(names), n)).tolist()
    rows = [(i, name, value) for name, run in zip(names, runs) for i, value in zip(index, run)]
    write_long_csv(tmp_path / "long.csv", LONG_HEADER, column, names, index)
    write_csv(tmp_path / "rows.csv", LONG_HEADER, rows)
    return (tmp_path / "long.csv").read_bytes(), (tmp_path / "rows.csv").read_bytes()


class TestLoadPolarity:
    def test_reads_signed_values(self, tmp_path):
        path = write(tmp_path / "p.csv", "indicator,polarity\na,+1\nb,-1\nc,1\n")
        assert load_polarity(path) == {"a": 1, "b": -1, "c": 1}

    def test_rejects_wrong_header(self, tmp_path):
        path = write(tmp_path / "p.csv", "name,sign\na,1\n")
        with pytest.raises(ValueError, match="expected header"):
            load_polarity(path)

    def test_rejects_other_values(self, tmp_path):
        path = write(tmp_path / "p.csv", "indicator,polarity\na,2\n")
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            load_polarity(path)

    def test_rejects_duplicate_indicator(self, tmp_path):
        path = write(tmp_path / "p.csv", "indicator,polarity\na,1\na,-1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_polarity(path)

    def test_rejects_a_row_of_one_cell(self, tmp_path):
        path = write(tmp_path / "p.csv", "indicator,polarity\na,1\nb\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed row ['b']")):
            load_polarity(path)


class TestLoadIndicators:
    def test_round_trip_with_missing_cells(self, tmp_path):
        ind = write(tmp_path / "i.csv", "entity,a,b\nx,1.5,\ny,2.0,3.25\nz,n/a,4.0\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\nb,-1\n")
        table = load_indicators(ind, pol)
        assert table.entities == ("x", "y", "z")
        assert table.indicators == ("a", "b")
        assert table.values[1, 1] == 3.25
        # empty and non-numeric cells are missing, never values
        assert table.missing.tolist() == [[False, True], [False, False], [True, False]]
        assert table.polarity.tolist() == [1, -1]

    def test_thousands_separators_are_stripped(self, tmp_path):
        ind = write(tmp_path / "i.csv", 'entity,a\nx,"1,234.5"\ny,2\n')
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        assert load_indicators(ind, pol).values[0, 0] == 1234.5

    def test_requires_polarity_for_every_indicator(self, tmp_path):
        ind = write(tmp_path / "i.csv", "entity,a,b\nx,1,2\ny,3,4\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        with pytest.raises(ValueError, match="no polarity given .*b"):
            load_indicators(ind, pol)

    def test_rejects_ragged_rows(self, tmp_path):
        ind = write(tmp_path / "i.csv", "entity,a,b\nx,1\ny,3,4\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\nb,1\n")
        with pytest.raises(ValueError, match="expected 2"):
            load_indicators(ind, pol)

    def test_rejects_duplicate_entities(self, tmp_path):
        ind = write(tmp_path / "i.csv", "entity,a\nx,1\nx,2\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        with pytest.raises(ValueError, match="duplicate entity"):
            load_indicators(ind, pol)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_a_non_finite_value_is_refused_where_it_is(self, tmp_path, cell):
        # a value that parses as non-finite is an error, not a missing cell
        ind = write(tmp_path / "i.csv", f"entity,a,b\nx,1,2\ny,3,{cell}\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\nb,1\n")
        message = f"{ind}: indicator 'b' for 'y' must be finite, got '{cell}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_indicators(ind, pol)

    def test_a_header_without_an_indicator_is_refused(self, tmp_path):
        ind = write(tmp_path / "i.csv", "entity\nx\ny\n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{ind}: need an entity column plus at least one")):
            load_indicators(ind, pol)

    def test_an_empty_file_is_refused(self, tmp_path):
        ind = write(tmp_path / "i.csv", "\n , \n")
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{ind}: file is empty")):
            load_indicators(ind, pol)


class TestDigitGroups:
    """Commas group digits in threes or, in Indian figures, in twos before a last three."""

    GROUPED = [("1,234,567", 1234567.0), ("12,34,567", 1234567.0), ("2,49,211", 249211.0),
               ("-1,00,000", -100000.0)]
    MISPLACED = ["0,5", "1,5", "1,,2", "1,2345"]

    @pytest.mark.parametrize("cell, value", GROUPED)
    def test_a_grouped_indicator_cell_reads_as_its_number(self, tmp_path, cell, value):
        ind = write(tmp_path / "i.csv", f'entity,a\nx,"{cell}"\ny,2\n')
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\n")
        assert load_indicators(ind, pol).values[0, 0] == value

    @pytest.mark.parametrize("cell, value", [(c, v) for c, v in GROUPED if v > 0])
    def test_a_grouped_income_cell_reads_as_its_number(self, tmp_path, cell, value):
        path = write(tmp_path / "inc.csv", f'entity,income\nx,"{cell}"\ny,90000\n')
        assert load_income(path).income[0] == value

    @pytest.mark.parametrize("cell", MISPLACED)
    def test_a_misplaced_comma_in_an_indicator_cell_is_refused_where_it_is(self, tmp_path, cell):
        ind = write(tmp_path / "i.csv", f'entity,a,b\nx,1,2\ny,3,"{cell}"\n')
        pol = write(tmp_path / "p.csv", "indicator,polarity\na,1\nb,1\n")
        message = f"{ind}: indicator 'b' for 'y' has misplaced digit-group commas, got '{cell}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_indicators(ind, pol)

    @pytest.mark.parametrize("cell", MISPLACED)
    def test_a_misplaced_comma_in_an_income_cell_is_refused_by_entity(self, tmp_path, cell):
        path = write(tmp_path / "inc.csv", f'entity,income\nx,90000\ny,"{cell}"\n')
        message = f"{path}: income for 'y' must be a finite positive number, got '{cell}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_income(path)


class TestZones:
    def test_boundaries_are_inclusive_on_the_low_side(self):
        assert zone_for_income(100_000.0, 100_000.0, 200_000.0) == "low"
        assert zone_for_income(100_000.01, 100_000.0, 200_000.0) == "middle"
        assert zone_for_income(200_000.0, 100_000.0, 200_000.0) == "middle"
        assert zone_for_income(200_000.01, 100_000.0, 200_000.0) == "high"

    def test_load_income_derives_zones(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income\nx,90000\ny,150000\nz,350000\n")
        income = load_income(path)
        assert income.zone == ("low", "middle", "high")

    def test_load_income_respects_explicit_zone_column(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income,zone\nx,90000,high\ny,150000,\n")
        income = load_income(path)
        # explicit label wins; a blank one falls back to the thresholds
        assert income.zone == ("high", "middle")

    def test_load_income_custom_thresholds(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income\nx,90000\ny,150000\n")
        income = load_income(path, low_max=200_000.0, middle_max=300_000.0)
        assert income.zone == ("low", "low")

    def test_load_income_rejects_nonpositive(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income\nx,-5\n")
        with pytest.raises(ValueError, match="positive"):
            load_income(path)

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_load_income_rejects_non_finite_by_entity(self, tmp_path, cell):
        path = write(tmp_path / "inc.csv", f"entity,income\nx,90000\ny,{cell}\n")
        message = f"{path}: income for 'y' must be a finite positive number, got '{cell}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_income(path)

    def test_load_income_rejects_a_wrong_header(self, tmp_path):
        path = write(tmp_path / "inc.csv", "name,income\nx,90000\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected header 'entity,income[,zone]'")):
            load_income(path)

    def test_load_income_rejects_a_row_of_one_cell(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income\nx,90000\ny\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed row ['y']")):
            load_income(path)

    def test_load_income_rejects_an_unknown_zone_label(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income,zone\nx,90000,low\ny,150000,mid\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown zone 'mid' for 'y'")):
            load_income(path)

    def test_load_income_rejects_bad_thresholds(self, tmp_path):
        path = write(tmp_path / "inc.csv", "entity,income\nx,5\n")
        with pytest.raises(ValueError, match="thresholds"):
            load_income(path, low_max=300_000.0, middle_max=200_000.0)


class TestAlignment:
    def test_align_restricts_and_orders(self):
        table = make_table(m=4)
        income = IncomeTable(
            entities=("ent02", "ent00"),
            income=np.array([60_000.0, 80_000.0]),
            zone=("low", "low"),
        )
        aligned_table, aligned_income = align_entities(table, income)
        # indicator-table order is kept; income rows are reordered to match
        assert aligned_table.entities == ("ent00", "ent02")
        assert aligned_income.entities == ("ent00", "ent02")
        assert aligned_income.income.tolist() == [80_000.0, 60_000.0]
        np.testing.assert_array_equal(aligned_table.values[1], table.values[2])

    def test_align_rejects_unknown_income_entity(self):
        table = make_table(m=3)
        income = IncomeTable(
            entities=("ent00", "ghost"),
            income=np.array([60_000.0, 80_000.0]),
            zone=("low", "low"),
        )
        with pytest.raises(ValueError, match="ghost"):
            align_entities(table, income)

    def test_income_for_entities_subsets_in_order(self):
        income = IncomeTable(
            entities=("a", "b", "c"),
            income=np.array([1e5, 2e5, 3e5]),
            zone=("low", "middle", "high"),
        )
        sub = income_for_entities(income, ("c", "a"))
        assert sub.entities == ("c", "a")
        assert sub.income.tolist() == [3e5, 1e5]
        with pytest.raises(ValueError, match="no income recorded"):
            income_for_entities(income, ("a", "zz"))


class TestMissingPolicy:
    def test_drop_indicators_removes_incomplete_columns(self):
        table = make_table(m=4, k=5, missing_cells=[(0, 1), (2, 3)])
        complete = apply_missing_policy(table, "drop_indicators")
        assert complete.indicators == ("ind00", "ind02", "ind04")
        assert complete.entities == table.entities
        assert not complete.missing.any()

    def test_drop_entities_removes_rows_then_columns(self):
        table = make_table(m=4, k=5, missing_cells=[(0, 1), (2, 3)])
        complete = apply_missing_policy(table, "drop_entities", drop=("ent00",))
        assert complete.entities == ("ent01", "ent02", "ent03")
        # ent02 still has a hole in ind03, so that column goes too
        assert complete.indicators == ("ind00", "ind01", "ind02", "ind04")
        assert not complete.missing.any()

    def test_drop_list_requires_matching_policy(self):
        table = make_table()
        with pytest.raises(ValueError, match="only valid with"):
            apply_missing_policy(table, "drop_indicators", drop=("ent00",))

    def test_unknown_policy_and_unknown_entity(self):
        table = make_table()
        with pytest.raises(ValueError, match="unknown missing policy"):
            apply_missing_policy(table, "interpolate")
        with pytest.raises(ValueError, match="unknown entities"):
            apply_missing_policy(table, "drop_entities", drop=("ghost",))

    def test_a_drop_list_that_leaves_one_entity_is_an_error(self):
        table = make_table(m=3)
        with pytest.raises(ValueError, match="leaves fewer than 2"):
            apply_missing_policy(table, "drop_entities", drop=("ent00", "ent02"))

    def test_all_columns_incomplete_is_an_error(self):
        table = make_table(m=2, k=2, missing_cells=[(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="no complete indicators"):
            apply_missing_policy(table, "drop_indicators")


class TestSubsetByZone:
    def test_keeps_requested_zones(self):
        table = make_table(m=6)
        income = IncomeTable(
            entities=table.entities,
            income=np.array([5e4, 9e4, 1.5e5, 1.8e5, 3e5, 4e5]),
            zone=("low", "low", "middle", "middle", "high", "high"),
        )
        sub_table, sub_income = subset_by_zone(table, income, ("low", "high"))
        assert sub_table.entities == ("ent00", "ent01", "ent04", "ent05")
        assert sub_income.zone == ("low", "low", "high", "high")

    def test_requires_alignment_and_enough_entities(self):
        table = make_table(m=4)
        income = IncomeTable(
            entities=("ent03", "ent02", "ent01", "ent00"),
            income=np.array([5e4, 9e4, 1.5e5, 3e5]),
            zone=("low", "low", "middle", "high"),
        )
        with pytest.raises(ValueError, match="aligned"):
            subset_by_zone(table, income, ("low",))
        aligned = income_for_entities(income, table.entities)
        with pytest.raises(ValueError, match="fewer than 2"):
            subset_by_zone(table, aligned, ("high",))
        with pytest.raises(ValueError, match="unknown zone"):
            subset_by_zone(table, aligned, ("coastal",))


class TestTake:
    def test_rows_and_columns_come_back_in_the_order_given(self):
        table = make_table(m=5, k=6, missing_cells=[(3, 4)])
        sub = table.take([3, 0, 4], [5, 4, 0])
        assert sub.entities == ("ent03", "ent00", "ent04")
        assert sub.indicators == ("ind05", "ind04", "ind00")
        np.testing.assert_array_equal(sub.values, table.values[[3, 0, 4]][:, [5, 4, 0]])
        np.testing.assert_array_equal(sub.missing[0], [False, True, False])

    def test_polarity_follows_the_columns(self):
        table = make_table(m=3, k=6)
        assert table.polarity.tolist() == [-1, 1, 1, -1, 1, 1]
        assert table.take([0, 1], [3, 1, 2]).polarity.tolist() == [-1, 1, 1]
        whole = table.take([2, 1])
        assert whole.indicators == table.indicators
        np.testing.assert_array_equal(whole.polarity, table.polarity)

    def test_leaving_one_entity_is_rejected(self):
        table = make_table(m=4)
        with pytest.raises(ValueError, match="need at least 2 entities, got 1"):
            table.take([2])

    def test_income_rows_come_back_in_the_order_given(self):
        income = IncomeTable(
            entities=("a", "b", "c"),
            income=np.array([1e5, 2e5, 3e5]),
            zone=("low", "middle", "high"),
        )
        sub = income.take([2, 0])
        assert sub.entities == ("c", "a")
        assert sub.income.tolist() == [3e5, 1e5]
        assert sub.zone == ("high", "low")
        with pytest.raises(ValueError, match="income table is empty"):
            income.take([])


class TestTableValidation:
    def test_indicator_table_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            IndicatorTable(
                entities=("a", "b"),
                indicators=("i",),
                values=np.ones((2, 1)),
                polarity=np.array([2]),
            )

    def test_indicator_table_reads_nan_as_missing_and_refuses_inf(self):
        def table(cell):
            return IndicatorTable(
                entities=("a", "b"),
                indicators=("i", "j"),
                values=np.array([[1.0, 2.0], [cell, 3.0]]),
                polarity=np.array([1, -1]),
            )

        assert table(np.nan).missing.tolist() == [[False, False], [True, False]]
        assert not table(4.0).missing.any()
        for cell in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="indicator 'i' for 'b' is infinite"):
                table(cell)

    def test_income_table_rejects_bad_zone(self):
        with pytest.raises(ValueError, match="unknown zone"):
            IncomeTable(entities=("a",), income=np.array([1e5]), zone=("urban",))


class TestBundledDataset:
    def test_shape_and_missing_pattern(self, fixture_dataset):
        table, income = fixture_dataset
        assert table.m == 33 and income.m == 33
        assert table.k == 131
        complete = apply_missing_policy(table, "drop_indicators")
        assert complete.k == 116
        without = apply_missing_policy(table, "drop_entities", drop=("Chandigarh",))
        assert without.k == 125 and without.m == 32

    def test_income_spacing_and_zones(self, fixture_dataset):
        _, income = fixture_dataset
        logs = np.sort(np.log(income.income))
        assert np.diff(logs).min() >= 0.05
        counts = {z: income.zone.count(z) for z in ("low", "middle", "high")}
        assert counts == {"low": 11, "middle": 12, "high": 10}
        assert all(c >= 2 for c in counts.values())

    def test_a_byte_order_mark_is_ignored(self, data_dir, fixture_dataset, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a leading byte order mark
        names = ("indicators.csv", "polarity.csv", "income.csv")
        for name in names:
            (tmp_path / name).write_bytes(codecs.BOM_UTF8 + (data_dir / name).read_bytes())
        loaded = load_dataset(*(tmp_path / name for name in names))
        for got, want in zip(loaded, fixture_dataset):
            for field in fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert np.array_equal(a, b, equal_nan=True) if isinstance(b, np.ndarray) else a == b


class TestWriteLongCsv:
    @pytest.mark.parametrize("first", [0, 1])
    def test_matches_the_csv_module_byte_for_byte(self, tmp_path, first):
        column = np.array(AWKWARD + [-x for x in AWKWARD])
        long, rows = long_csv_pair(tmp_path, column, ["merit0", "variance"], first)
        assert long == rows
        lines = long.split(b"\r\n")
        assert lines[1] == f"{first},merit0,0.1".encode()
        assert lines[len(AWKWARD) + 3] == f"{first + 2},variance,0.0".encode()

    @pytest.mark.parametrize("chunk", [1, 3, len(AWKWARD) - 1, len(AWKWARD), len(AWKWARD) + 1])
    @pytest.mark.parametrize("first", [0, 1])
    def test_chunk_edges_leave_the_bytes_alone(self, tmp_path, monkeypatch, chunk, first):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        noise = np.random.default_rng(3).standard_normal(len(AWKWARD)).tolist()
        column = np.array(AWKWARD + noise + AWKWARD[::-1])
        long, rows = long_csv_pair(tmp_path, column, ["merit0", "quad_form", "loglik"], first)
        assert long == rows
        assert long.count(b"\r\n") == 1 + len(column)

    # repeated values are formatted once per run; these neighbours must not
    # share a run, or must share one exactly
    NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000,
                             0x7FF0000000000001], dtype=np.int64).view(np.float64)
    ULP = [1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(0.0, 1.0), 0.0]

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, -0.0, 0.0, 0.0, -0.0],
        NAN_PAYLOADS.tolist() + NAN_PAYLOADS[::-1].tolist(),
        ULP + ULP[::-1],
        [0.3] * 12,
    ], ids=["signed_zeros", "nan_payloads", "one_ulp_apart", "constant"])
    @pytest.mark.parametrize("chunk", [1, 2, 5, 1024])
    def test_neighbours_keep_their_own_text(self, tmp_path, monkeypatch, values, chunk):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        column = np.array(values + values[::-1])
        long, rows = long_csv_pair(tmp_path, column, ["merit0", "loglik"], 1)
        assert long == rows

    RUN = 4

    @pytest.mark.parametrize("chunk", [1, 2, RUN - 1, RUN, RUN + 1])
    @pytest.mark.parametrize("first", [0, 1])
    def test_runs_crossing_a_chunk_edge_leave_the_bytes_alone(self, tmp_path, monkeypatch, chunk, first):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        # runs of RUN equal values, as a rejecting chain writes them, at
        # every offset from the chunk edges
        heads = [0.25, -0.0, 0.0, 1e16, float("nan"), 0.25, -1.5e-300]
        values = [v for v in heads for _ in range(self.RUN)]
        column = np.array(values + values[1:] + values[:1] + values[2:] + values[:2])
        long, rows = long_csv_pair(tmp_path, column, ["merit0", "quad_form", "loglik"], first)
        assert long == rows
        assert long.count(b"\r\n") == 1 + len(column)

    def test_no_names_give_the_header_alone(self, tmp_path):
        long, rows = long_csv_pair(tmp_path, np.empty(0), [], 1)
        assert long == rows == b"draw,parameter,value\r\n"

    def test_a_column_of_the_wrong_length_is_rejected(self, tmp_path):
        path = tmp_path / "long.csv"
        with pytest.raises(ValueError, match="do not split into 2 equal runs"):
            write_long_csv(path, LONG_HEADER, np.zeros(7), ["merit0", "merit1"], range(1, 4))
        with pytest.raises(ValueError, match="do not split into 0 equal runs"):
            write_long_csv(path, LONG_HEADER, np.zeros(3), [], range(1, 4))
        # the column splits by names but not into runs as long as the index
        with pytest.raises(ValueError, match="do not split into 2 equal runs of 4"):
            write_long_csv(path, LONG_HEADER, np.zeros(6), ["merit0", "merit1"], range(1, 5))
        assert not path.exists()

    @pytest.mark.parametrize("header, names", [
        (LONG_HEADER, ["merit0", "a,b"]),
        (LONG_HEADER, ['say "hi"']),
        (LONG_HEADER, [""]),
        (["draw", "parameter value", "value"], ["merit0"]),
    ])
    def test_a_cell_the_csv_module_might_quote_is_rejected(self, tmp_path, header, names):
        path = tmp_path / "long.csv"
        with pytest.raises(ValueError, match="must be identifiers"):
            write_long_csv(path, header, np.zeros(len(names)), names, range(1, 2))
        assert not path.exists()

    # 999,990 + 10 reaches seven digits inside the chunk
    @pytest.mark.parametrize("chunk", [1, 3, 7, 1024])
    @pytest.mark.parametrize("step", [1, 2, 9])
    def test_index_ranges_and_strides_leave_the_bytes_alone(self, tmp_path, monkeypatch, chunk, step):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        noise = np.random.default_rng(4).standard_normal(17).round(1).tolist()
        column = np.array(noise + AWKWARD[:8] + noise[::-1])
        for first in (1, 999_990 - 3 * step):
            long, rows = long_csv_pair(tmp_path, column, ["merit0", "variance", "loglik"], first, step)
            assert long == rows
            assert long.count(b"\r\n") == 1 + len(column)

    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    def test_one_row_and_no_rows(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        long, rows = long_csv_pair(tmp_path, np.array([-0.0, 5e-324]), ["merit0", "loglik"], 7)
        assert long == rows == b"draw,parameter,value\r\n7,merit0,-0.0\r\n7,loglik,5e-324\r\n"
        long, rows = long_csv_pair(tmp_path, np.empty(0), ["merit0", "loglik"], 1)
        assert long == rows == b"draw,parameter,value\r\n"

    @pytest.mark.parametrize("chunk", [2, 3, 1024])
    def test_a_run_of_equal_values_stops_at_the_name(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data, "LONG_CSV_CHUNK", chunk)
        # each name ends and the next begins with the same value, and a
        # partial last chunk is followed by the next name's first chunk
        column = np.array([0.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, -0.0, -0.0, 0.125])
        long, rows = long_csv_pair(tmp_path, column, ["merit0", "merit1"], 1, 3)
        assert long == rows
        assert long.split(b"\r\n")[5:8] == [b"13,merit0,0.25", b"1,merit1,0.25", b"4,merit1,0.25"]


class TestWriteJson:
    def test_numpy_values_are_written_as_their_python_values(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"floats": np.array([0.1, 2.5]), "ints": np.arange(3), "count": np.int64(7),
                   "flag": np.bool_(True), "grid": np.eye(2), "plain": (1, "a", None)}
        write_json(payload, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "floats": [0.1, 2.5], "ints": [0, 1, 2], "count": 7, "flag": True,
            "grid": [[1.0, 0.0], [0.0, 1.0]], "plain": [1, "a", None],
        }
        assert path.read_text(encoding="utf-8").endswith("}\n")

    def test_an_object_json_cannot_hold_is_refused(self, tmp_path):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            write_json({"entities": {"a", "b"}}, tmp_path / "out.json")
