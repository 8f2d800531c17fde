import random
from collections import Counter

import pytest

from modechoice.dataset import (
    ChoiceSituation,
    ColumnMap,
    EmptyFile,
    InsufficientClassMembers,
    MissingColumn,
    ModeLabel,
    NoValidRows,
    UnparseableValue,
    balanced_split,
    load_raw,
    to_choice_situations,
)

from conftest import RAW_COLUMNS, random_situation, synthetic_raw_rows, write_survey_file

CMAP = ColumnMap()


def test_load_raw_reads_all_rows(tmp_path):
    rows = synthetic_raw_rows(3, seed=1)
    path = write_survey_file(tmp_path / "three.dat", rows)
    columns = load_raw(path, CMAP)
    assert list(columns) == CMAP.mapped_columns()
    assert all(len(values) == 3 for values in columns.values())
    assert all(isinstance(v, float) for v in columns["TRAIN_TT"])
    assert columns["TRAIN_TT"] == [float(row["TRAIN_TT"]) for row in rows]


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


def test_load_raw_unparseable_value(tmp_path):
    rows = synthetic_raw_rows(2, seed=1)
    rows[1]["SM_CO"] = "n/a"
    path = write_survey_file(tmp_path / "bad.dat", rows)
    with pytest.raises(UnparseableValue) as err:
        load_raw(path, CMAP)
    assert err.value.row_index == 1
    assert err.value.column == "SM_CO"


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


def test_blank_line_does_not_shift_situation_ids(tmp_path):
    path = write_survey_file(tmp_path / "plain.dat", synthetic_raw_rows(4, seed=2))
    expected = to_choice_situations(load_raw(path, CMAP), CMAP)
    lines = path.read_text().splitlines()
    gapped = tmp_path / "gapped.dat"
    gapped.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
    assert to_choice_situations(load_raw(gapped, CMAP), CMAP) == expected
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
    situations = to_choice_situations(load_raw(path, CMAP), CMAP)
    assert situations[0].chosen is ModeLabel.SWISSMETRO


def test_annual_pass_flag(tmp_path):
    rows = synthetic_raw_rows(1, seed=3)
    rows[0]["GA"] = 1
    path = write_survey_file(tmp_path / "ga.dat", rows)
    situations = to_choice_situations(load_raw(path, CMAP), CMAP)
    assert situations[0].owns_annual_pass is True


def test_exclusion_rules(tmp_path):
    rows = synthetic_raw_rows(6, seed=4)
    rows[0]["CAR_AV"] = 0  # unavailable alternative
    rows[1]["CHOICE"] = 0  # unknown choice
    rows[2]["CHOICE"] = 9  # unmapped code
    rows[3]["TRAIN_TT"] = 0  # invalid time
    path = write_survey_file(tmp_path / "excl.dat", rows)
    situations = to_choice_situations(load_raw(path, CMAP), CMAP)
    assert len(situations) == 2
    assert {s.situation_id for s in situations} == {"row00004", "row00005"}


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
    situation = to_choice_situations(load_raw(path, CMAP), CMAP)[0]
    assert situation.travel_time_min[ModeLabel.TRAIN] == 11
    assert situation.travel_cost[ModeLabel.TRAIN] == 9


def test_all_eight_features_populated(survey_file):
    situations = to_choice_situations(load_raw(survey_file, CMAP), CMAP)
    for situation in situations:
        assert set(situation.travel_time_min) == set(ModeLabel)
        assert set(situation.travel_cost) == set(ModeLabel)
        assert all(isinstance(v, int) for v in situation.travel_time_min.values())
        assert all(isinstance(v, int) for v in situation.travel_cost.values())
        assert isinstance(situation.is_regular_train_user, bool)
        assert isinstance(situation.owns_annual_pass, bool)
        assert isinstance(situation.chosen, ModeLabel)


def test_reingest_is_deterministic(survey_file):
    first = to_choice_situations(load_raw(survey_file, CMAP), CMAP)
    second = to_choice_situations(load_raw(survey_file, CMAP), CMAP)
    assert first == second


def test_situation_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        ChoiceSituation(
            situation_id="x",
            travel_time_min={ModeLabel.TRAIN: 0, ModeLabel.CAR: 5, ModeLabel.SWISSMETRO: 5},
            travel_cost={ModeLabel.TRAIN: 1, ModeLabel.CAR: 1, ModeLabel.SWISSMETRO: 1},
            is_regular_train_user=False,
            owns_annual_pass=False,
            chosen=ModeLabel.CAR,
        )
    with pytest.raises(ValueError):
        ChoiceSituation(
            situation_id="x",
            travel_time_min={ModeLabel.TRAIN: 5, ModeLabel.CAR: 5},
            travel_cost={ModeLabel.TRAIN: 1, ModeLabel.CAR: 1, ModeLabel.SWISSMETRO: 1},
            is_regular_train_user=False,
            owns_annual_pass=False,
            chosen=ModeLabel.CAR,
        )


def test_column_map_rejects_duplicates():
    with pytest.raises(ValueError):
        ColumnMap(regular_user_column="CHOICE")


def _pool(per_class: int, seed: int = 0) -> list[ChoiceSituation]:
    rng = random.Random(seed)
    pool = []
    i = 0
    for mode in ModeLabel:
        for _ in range(per_class):
            situation = random_situation(rng, f"s{i:05d}")
            pool.append(
                ChoiceSituation(
                    situation_id=situation.situation_id,
                    travel_time_min=situation.travel_time_min,
                    travel_cost=situation.travel_cost,
                    is_regular_train_user=situation.is_regular_train_user,
                    owns_annual_pass=situation.owns_annual_pass,
                    chosen=mode,
                )
            )
            i += 1
    rng.shuffle(pool)
    return pool


def test_balanced_split_quota_1000():
    train, test = balanced_split(_pool(450), n_train=1000, n_test=200, seed=42)
    counts = Counter(s.chosen for s in train)
    assert sorted(counts.values()) == [333, 333, 334]
    assert len(train) == 1000 and len(test) == 200
    assert sorted(Counter(s.chosen for s in test).values()) == [66, 67, 67]


def test_balanced_split_disjoint_and_deterministic():
    pool = _pool(100)
    train_a, test_a = balanced_split(pool, 120, 60, seed=42)
    train_b, test_b = balanced_split(pool, 120, 60, seed=42)
    assert train_a == train_b and test_a == test_b
    assert {s.situation_id for s in train_a}.isdisjoint({s.situation_id for s in test_a})
    train_c, _ = balanced_split(pool, 120, 60, seed=43)
    assert train_c != train_a  # different seed reshuffles


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
            counts = Counter(s.chosen for s in split)
            values = [counts.get(m, 0) for m in ModeLabel]
            assert max(values) - min(values) <= 1
        assert {s.situation_id for s in train}.isdisjoint({s.situation_id for s in test})
