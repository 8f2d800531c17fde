import csv
import logging
import random
import warnings
from collections import Counter

import pytest

from modechoice.dataset import (
    ColumnMap,
    EmptyFile,
    InsufficientClassMembers,
    MissingColumn,
    ModeLabel,
    NoValidRows,
    SituationTable,
    UnparseableValue,
    balanced_split,
    load_raw,
    to_choice_situations,
)

from conftest import (
    RAW_COLUMNS, Situation, random_situation, records, synthetic_raw_rows, table_of,
    write_survey_file,
)

CMAP = ColumnMap()


def test_load_raw_reads_all_rows(tmp_path):
    rows = synthetic_raw_rows(3, seed=1)
    path = write_survey_file(tmp_path / "three.dat", rows)
    columns = load_raw(path, CMAP)
    assert list(columns) == CMAP.mapped_columns()
    assert all(len(values) == 3 for values in columns.values())
    assert all(isinstance(v, float) for v in columns["TRAIN_TT"])
    assert columns["TRAIN_TT"].tolist() == [float(row["TRAIN_TT"]) for row in rows]


def test_load_raw_missing_choice_column(tmp_path):
    columns = [c for c in RAW_COLUMNS if c != "CHOICE"]
    rows = synthetic_raw_rows(3, seed=1)
    path = write_survey_file(tmp_path / "nochoice.dat", rows, columns=columns)
    with pytest.raises(MissingColumn) as err:
        load_raw(path, CMAP)
    assert err.value.name == "CHOICE"


def test_load_raw_empty_file(tmp_path):
    empty = tmp_path / "empty.dat"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        load_raw(empty, CMAP)
    header_only = tmp_path / "header.dat"
    header_only.write_text("\t".join(RAW_COLUMNS) + "\n")
    with pytest.raises(EmptyFile):
        load_raw(header_only, CMAP)
    blank_lines = tmp_path / "blank-lines.dat"
    blank_lines.write_text("\t".join(RAW_COLUMNS) + "\r\n\n\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns when it reads no data
        with pytest.raises(EmptyFile, match="header but no data rows"):
            load_raw(blank_lines, CMAP)


def test_load_raw_unparseable_value(tmp_path):
    rows = synthetic_raw_rows(2, seed=1)
    rows[1]["SM_CO"] = "n/a"
    path = write_survey_file(tmp_path / "bad.dat", rows)
    with pytest.raises(UnparseableValue) as err:
        load_raw(path, CMAP)
    assert err.value.row_index == 1
    assert err.value.column == "SM_CO"


def ingest_with(tmp_path, row_index, column, text):
    rows = synthetic_raw_rows(4, seed=1)
    rows[row_index][column] = text
    path = write_survey_file(tmp_path / "nonfinite.dat", rows)
    with pytest.raises(UnparseableValue) as err:
        to_choice_situations(load_raw(path, CMAP), CMAP)
    assert err.value.row_index == row_index
    assert err.value.column == column
    assert repr(text) in str(err.value)


def test_nan_choice_is_unparseable(tmp_path):
    ingest_with(tmp_path, 2, "CHOICE", "nan")


def test_infinite_time_or_cost_is_unparseable(tmp_path):
    ingest_with(tmp_path, 1, "CAR_TT", "inf")
    ingest_with(tmp_path, 3, "SM_CO", "-Infinity")


def test_nan_availability_is_unparseable(tmp_path):
    ingest_with(tmp_path, 0, "TRAIN_AV", "NaN")


def test_first_bad_value_is_reported_by_row_then_column(tmp_path):
    rows = synthetic_raw_rows(4, seed=1)
    rows[2]["TRAIN_TT"] = "inf"  # an earlier column, in a later row
    rows[1]["SM_CO"] = "n/a"
    rows[1]["CAR_TT"] = " "
    path = write_survey_file(tmp_path / "bad.dat", rows)
    with pytest.raises(UnparseableValue) as err:
        load_raw(path, CMAP)
    assert (err.value.row_index, err.value.column) == (1, "CAR_TT")
    assert "value ''" in str(err.value)


def test_load_raw_custom_delimiter(tmp_path):
    path = write_survey_file(tmp_path / "comma.csv", synthetic_raw_rows(4, seed=2), delimiter=",")
    columns = load_raw(path, CMAP, delimiter=",")
    assert all(len(values) == 4 for values in columns.values())


def test_load_raw_short_row_is_unparseable(tmp_path):
    path = write_survey_file(tmp_path / "short.dat", synthetic_raw_rows(3, seed=1))
    lines = path.read_text().splitlines()
    lines[2] = "\t".join(lines[2].split("\t")[:-2])  # row 1 loses SM_AV and CHOICE
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnparseableValue) as err:
        load_raw(path, CMAP)
    assert err.value.row_index == 1
    assert err.value.column == "SM_AV"


def test_a_quoted_field_holding_the_delimiter_is_one_field(tmp_path):
    """A comma inside a quoted field does not split it, so the columns after
    it keep their places, as csv.reader reads them."""
    columns = ["ID", "STATION", *RAW_COLUMNS[1:]]
    path = tmp_path / "stations.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in synthetic_raw_rows(4, seed=5):
            writer.writerow({**row, "STATION": "Zurich, HB"}[name] for name in columns)
    assert '"Zurich, HB"' in path.read_text()
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    expected = {
        name: [float(row[header.index(name)]) for row in rows] for name in CMAP.mapped_columns()
    }
    columns = load_raw(path, CMAP, delimiter=",")
    assert {name: values.tolist() for name, values in columns.items()} == expected


def test_blank_line_does_not_shift_situation_ids(tmp_path):
    path = write_survey_file(tmp_path / "plain.dat", synthetic_raw_rows(4, seed=2))
    expected = records(to_choice_situations(load_raw(path, CMAP), CMAP))
    lines = path.read_text().splitlines()
    gapped = tmp_path / "gapped.dat"
    gapped.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
    assert records(to_choice_situations(load_raw(gapped, CMAP), CMAP)) == expected
    assert [s.situation_id for s in expected] == ["row00000", "row00001", "row00002", "row00003"]


def test_unparseable_unmapped_column_loads_cleanly(tmp_path):
    rows = synthetic_raw_rows(3, seed=1)
    rows[1]["PURPOSE"] = "n/a"
    path = write_survey_file(tmp_path / "purpose.dat", rows)
    columns = load_raw(path, CMAP)
    assert "PURPOSE" not in columns
    assert len(to_choice_situations(columns, CMAP)) == 3


def test_choice_code_mapping(tmp_path):
    rows = synthetic_raw_rows(1, seed=3)
    rows[0]["CHOICE"] = 2
    path = write_survey_file(tmp_path / "code2.dat", rows)
    situations = records(to_choice_situations(load_raw(path, CMAP), CMAP))
    assert situations[0].chosen is ModeLabel.SWISSMETRO


def test_annual_pass_flag(tmp_path):
    rows = synthetic_raw_rows(1, seed=3)
    rows[0]["GA"] = 1
    path = write_survey_file(tmp_path / "ga.dat", rows)
    situations = records(to_choice_situations(load_raw(path, CMAP), CMAP))
    assert situations[0].owns_annual_pass is True


def test_exclusion_rules(tmp_path, caplog):
    rows = synthetic_raw_rows(7, seed=4)
    rows[0]["CAR_AV"] = 0  # unavailable alternative
    rows[1]["CHOICE"] = 0  # unknown choice
    rows[2]["CHOICE"] = 9  # unmapped code
    rows[3]["TRAIN_TT"] = 0  # invalid time
    rows[6]["CHOICE"] = 0  # unknown choice and an unavailable alternative:
    rows[6]["SM_AV"] = 0  # counted under the first rule only
    path = write_survey_file(tmp_path / "excl.dat", rows)
    with caplog.at_level(logging.INFO, logger="modechoice.dataset"):
        situations = to_choice_situations(load_raw(path, CMAP), CMAP)
    assert len(situations) == 2
    assert {s.situation_id for s in records(situations)} == {"row00004", "row00005"}
    (record,) = [r for r in caplog.records if r.getMessage().startswith("ingest:")]
    assert record.args == (
        2,
        7,
        {"unmapped_choice_code": 3, "unavailable_alternative": 1, "invalid_values": 1},
    )


def test_no_valid_rows(tmp_path):
    rows = synthetic_raw_rows(2, seed=5)
    for row in rows:
        row["CHOICE"] = 0
    path = write_survey_file(tmp_path / "none.dat", rows)
    with pytest.raises(NoValidRows):
        to_choice_situations(load_raw(path, CMAP), CMAP)


def test_fractional_values_round_half_up(tmp_path):
    rows = synthetic_raw_rows(1, seed=6)
    rows[0]["TRAIN_TT"] = "10.5"
    rows[0]["TRAIN_CO"] = "9.4"
    path = write_survey_file(tmp_path / "frac.dat", rows)
    situation = records(to_choice_situations(load_raw(path, CMAP), CMAP))[0]
    assert situation.travel_time_min[ModeLabel.TRAIN] == 11
    assert situation.travel_cost[ModeLabel.TRAIN] == 9


def test_rounding_boundaries(tmp_path):
    rows = synthetic_raw_rows(4, seed=6)
    rows[0]["TRAIN_TT"] = "0.4"  # rounds to 0: excluded
    rows[1]["TRAIN_TT"] = "0.5"  # rounds to 1: kept
    rows[2]["CAR_CO"] = "-0.4"  # rounds to 0: kept
    rows[3]["CAR_CO"] = "-0.6"  # rounds to -1: excluded
    path = write_survey_file(tmp_path / "bounds.dat", rows)
    table = to_choice_situations(load_raw(path, CMAP), CMAP)
    situations = {s.situation_id: s for s in records(table)}
    assert sorted(situations) == ["row00001", "row00002"]
    assert situations["row00001"].travel_time_min[ModeLabel.TRAIN] == 1
    assert situations["row00002"].travel_cost[ModeLabel.CAR] == 0


def test_huge_value_is_kept_as_an_exact_int(tmp_path):
    rows = synthetic_raw_rows(1, seed=6)
    rows[0]["SM_TT"] = "1e19"  # past the int64 range
    path = write_survey_file(tmp_path / "huge.dat", rows)
    (situation,) = records(to_choice_situations(load_raw(path, CMAP), CMAP))
    assert situation.travel_time_min[ModeLabel.SWISSMETRO] == 10**19
    assert type(situation.travel_time_min[ModeLabel.SWISSMETRO]) is int


def test_all_eight_features_populated(survey_file):
    situations = to_choice_situations(load_raw(survey_file, CMAP), CMAP)
    for situation in records(situations):
        assert len(situation.travel_time_min) == len(situation.travel_cost) == len(ModeLabel)
        assert all(type(v) is int for v in situation.travel_time_min + situation.travel_cost)
        assert isinstance(situation.is_regular_train_user, bool)
        assert isinstance(situation.owns_annual_pass, bool)
        assert isinstance(situation.chosen, ModeLabel)


def test_reingest_is_deterministic(survey_file):
    first = records(to_choice_situations(load_raw(survey_file, CMAP), CMAP))
    second = records(to_choice_situations(load_raw(survey_file, CMAP), CMAP))
    assert first == second


def test_situation_validation_rejects_bad_values(tmp_path):
    # a table holds no zero time: ingest drops the row
    rows = synthetic_raw_rows(1, seed=5)
    rows[0]["TRAIN_TT"] = 0
    path = write_survey_file(tmp_path / "zero.dat", rows)
    with pytest.raises(NoValidRows):
        to_choice_situations(load_raw(path, CMAP), CMAP)
    with pytest.raises(ValueError):
        ColumnMap(time_columns=("TRAIN_TT", "CAR_TT"))  # one value short


def test_column_map_rejects_duplicates():
    with pytest.raises(ValueError):
        ColumnMap(regular_user_column="CHOICE")


def test_column_map_config_form():
    default = ColumnMap()
    assert default.to_json_dict()["time_columns"] == {
        "Train": "TRAIN_TT",
        "Car": "CAR_TT",
        "Swissmetro": "SM_TT",
    }
    custom = ColumnMap.from_json_dict(
        {
            "cost_columns": {"swissmetro": "S", "train": "T", "car": "C"},
            "regular_user_column": "REGULAR",
            "choice_code_map": {"7": "car", "8": "train", "9": "swissmetro"},
        }
    )
    assert custom.cost_columns == ("T", "C", "S")
    assert custom.time_columns == default.time_columns
    for cmap in (default, custom):
        assert ColumnMap.from_json_dict(cmap.to_json_dict()) == cmap
    with pytest.raises(ValueError, match="three modes"):
        ColumnMap.from_json_dict({"time_columns": {"train": "T", "car": "C"}})
    with pytest.raises(ValueError, match="three modes"):
        ColumnMap.from_json_dict({"time_columns": {"train": "T", "Train": "U", "car": "C"}})


def test_column_map_checks_types_instead_of_coercing():
    modes = {"train": "T", "car": "C", "swissmetro": "S"}
    codes = ["train", "car", "swissmetro"]
    for bad in (1.5, True, "1.5"):
        with pytest.raises(TypeError, match="choice_code_map keys must be integers"):
            ColumnMap.from_json_dict({"choice_code_map": dict(zip([bad, 2, 3], codes))})
    for doc in (
        {"time_columns": dict(modes, car=7)},
        {"choice_column": 5},
        {"annual_pass_column": None},
    ):
        with pytest.raises(TypeError, match="column names must be strings"):
            ColumnMap.from_json_dict(doc)
    # the JSON form writes codes as their decimal text
    cmap = ColumnMap.from_json_dict({"choice_code_map": dict(zip(["7", 8, "9"], codes))})
    assert cmap.choice_code_map == {7: ModeLabel.TRAIN, 8: ModeLabel.CAR, 9: ModeLabel.SWISSMETRO}
    assert ColumnMap.from_json_dict({"cost_columns": modes}).cost_columns == ("T", "C", "S")


def _pool(per_class: int, seed: int = 0) -> SituationTable:
    rng = random.Random(seed)
    pool = []
    i = 0
    for mode in ModeLabel:
        for _ in range(per_class):
            pool.append(random_situation(rng, f"s{i:05d}")._replace(chosen=mode))
            i += 1
    rng.shuffle(pool)
    return table_of(pool)


def test_balanced_split_quota_1000():
    train, test = balanced_split(_pool(450), n_train=1000, n_test=200, seed=42)
    counts = Counter(s.chosen for s in records(train))
    assert sorted(counts.values()) == [333, 333, 334]
    assert len(train) == 1000 and len(test) == 200
    assert sorted(Counter(s.chosen for s in records(test)).values()) == [66, 67, 67]


def test_balanced_split_disjoint_and_deterministic():
    pool = _pool(100)
    train_a, test_a = balanced_split(pool, 120, 60, seed=42)
    train_b, test_b = balanced_split(pool, 120, 60, seed=42)
    assert records(train_a) == records(train_b) and records(test_a) == records(test_b)
    assert {s.situation_id for s in records(train_a)}.isdisjoint(
        {s.situation_id for s in records(test_a)}
    )
    train_c, _ = balanced_split(pool, 120, 60, seed=43)
    assert records(train_c) != records(train_a)  # different seed reshuffles


def test_balanced_split_insufficient_members():
    pool = _pool(10)
    with pytest.raises(InsufficientClassMembers) as err:
        balanced_split(pool, 25, 10, seed=1)
    assert err.value.available == 10


def test_balanced_split_class_count_property():
    rng = random.Random(99)
    for trial in range(25):
        per_class = rng.randint(5, 60)
        pool = _pool(per_class, seed=trial)
        max_total = 3 * per_class
        n_train = rng.randint(1, max(1, max_total - 4))
        n_test = rng.randint(1, max_total - n_train)
        need = -(-(n_train + n_test) // 3)  # ceil
        if per_class < need:
            continue
        train, test = balanced_split(pool, n_train, n_test, seed=trial)
        assert len(train) == n_train and len(test) == n_test
        for split in (train, test):
            counts = Counter(s.chosen for s in records(split))
            values = [counts.get(m, 0) for m in ModeLabel]
            assert max(values) - min(values) <= 1
        assert {s.situation_id for s in records(train)}.isdisjoint(
            {s.situation_id for s in records(test)}
        )


def _edge_row(i, **changes):
    row = {
        "ID": i, "PURPOSE": 1, "TRAIN_TT": 60, "TRAIN_CO": 20, "CAR_TT": 50, "CAR_CO": 30,
        "SM_TT": 40, "SM_CO": 25, "SURVEY": 0, "GA": 0, "TRAIN_AV": 1, "CAR_AV": 1, "SM_AV": 1,
        "CHOICE": 1,
    }
    return row | changes


def test_edge_rows_keep_the_values_of_row_by_row_ingest(tmp_path, caplog):
    rows = [
        # ties at x.5 round up, and so do negative ones: -0.5 -> 0
        _edge_row(0, TRAIN_TT="10.5", CAR_TT="2.5", SM_CO="-0.5", SURVEY="-0.0", GA="0.5"),
        _edge_row(1, CAR_CO="-0.4", SM_TT="1e300"),  # rounds to 0: kept; finite: kept
        _edge_row(2, CHOICE="2.0"),  # Swissmetro
        _edge_row(3, CHOICE="2.5"),  # not an integer code: unmapped
        _edge_row(4, CHOICE="0", CAR_AV="0"),  # unmapped and unavailable: unmapped
        _edge_row(5, TRAIN_AV="0", TRAIN_TT="0"),  # unavailable and invalid: unavailable
        _edge_row(6, SM_TT="0.49"),  # rounds to 0: invalid
        _edge_row(7, CHOICE="3", SURVEY="2"),
    ]
    path = write_survey_file(tmp_path / "edges.dat", rows)
    with caplog.at_level(logging.INFO, logger="modechoice.dataset"):
        situations = records(to_choice_situations(load_raw(path, CMAP), CMAP))
    assert situations == [
        Situation("row00000", (11, 3, 40), (20, 30, 0), False, True, ModeLabel.TRAIN),
        Situation(
            "row00001", (60, 50, int(1e300)), (20, 0, 25), False, False, ModeLabel.TRAIN
        ),
        Situation("row00002", (60, 50, 40), (20, 30, 25), False, False, ModeLabel.SWISSMETRO),
        Situation("row00007", (60, 50, 40), (20, 30, 25), True, False, ModeLabel.CAR),
    ]
    for situation in situations:
        for value in situation.travel_time_min + situation.travel_cost:
            assert type(value) is int
        assert type(situation.is_regular_train_user) is type(situation.owns_annual_pass) is bool
    (record,) = [r for r in caplog.records if r.getMessage().startswith("ingest:")]
    assert record.args == (
        4,
        8,
        {"unmapped_choice_code": 2, "unavailable_alternative": 1, "invalid_values": 1},
    )


PINNED_TRAIN = ["row100001", "row00005", "row00007", "row123456", "row20000", "row00009"]
PINNED_TEST = ["row10001", "row100002", "row99998"]  # numeric order would draw others


def test_balanced_split_orders_members_by_id_text():
    # past row99999 the ids sort as text, not as numbers: row100000 < row10001
    indices = [9, 10001, 99999, 100000, 100001, 123456, 5, 20000, 100002, 99998, 1000000, 7]
    situations = [
        Situation(f"row{i:05d}", (10, 20, 30), (1, 2, 3), False, False, ModeLabel(k % 3))
        for k, i in enumerate(indices)
    ]
    pool = table_of(situations, rows=indices)
    train, test = balanced_split(pool, 6, 3, seed=3)
    assert [s.situation_id for s in records(train)] == PINNED_TRAIN
    assert [s.situation_id for s in records(test)] == PINNED_TEST
    # the same draw from members listed in another order
    shuffled = table_of(situations[::-1], rows=indices[::-1])
    again = balanced_split(shuffled, 6, 3, seed=3)
    assert [[s.situation_id for s in records(part)] for part in again] == [
        PINNED_TRAIN, PINNED_TEST
    ]
