"""Survey ingestion: raw Swissmetro-format files to validated choice situations.

The raw file is delimiter-separated text with a header row. A ColumnMap binds
the feature columns we use (per-mode travel time/cost, two traveler flags,
choice code, availability flags) to their raw names; only those columns are
read.
"""

from __future__ import annotations

import csv
import gzip
import logging
import math
import random
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Base class for ingestion errors."""


class MissingColumn(DatasetError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} not found in header")


class UnparseableValue(DatasetError):
    def __init__(self, row_index: int, column: str, value: str):
        self.row_index = row_index
        self.column = column
        super().__init__(
            f"row {row_index}: cannot parse column {column!r} value {value!r} as a number"
        )


class EmptyFile(DatasetError):
    pass


class NoValidRows(DatasetError):
    pass


class InsufficientClassMembers(DatasetError):
    def __init__(self, mode: "ModeLabel", needed: int, available: int):
        self.mode = mode
        self.needed = needed
        self.available = available
        super().__init__(
            f"class {mode.display}: need {needed} situations, only {available} available"
        )


class ModeLabel(IntEnum):
    """The three travel modes, with a fixed total order used for tie-breaking."""

    TRAIN = 0
    CAR = 1
    SWISSMETRO = 2

    @property
    def display(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_name(cls, text: str) -> "ModeLabel":
        key = text.strip().upper()
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown mode name {text!r}") from None


MODE_ORDER: tuple[ModeLabel, ...] = tuple(ModeLabel)


def _default_time_columns() -> dict[ModeLabel, str]:
    return {
        ModeLabel.TRAIN: "TRAIN_TT",
        ModeLabel.CAR: "CAR_TT",
        ModeLabel.SWISSMETRO: "SM_TT",
    }


def _default_cost_columns() -> dict[ModeLabel, str]:
    return {
        ModeLabel.TRAIN: "TRAIN_CO",
        ModeLabel.CAR: "CAR_CO",
        ModeLabel.SWISSMETRO: "SM_CO",
    }


def _default_availability_columns() -> dict[ModeLabel, str]:
    return {
        ModeLabel.TRAIN: "TRAIN_AV",
        ModeLabel.CAR: "CAR_AV",
        ModeLabel.SWISSMETRO: "SM_AV",
    }


def _default_choice_code_map() -> dict[int, ModeLabel]:
    # Public Swissmetro codebook: 1 = train, 2 = Swissmetro, 3 = car, 0 = unknown.
    return {1: ModeLabel.TRAIN, 2: ModeLabel.SWISSMETRO, 3: ModeLabel.CAR}


@dataclass(frozen=True)
class ColumnMap:
    """Binding of the eight features plus bookkeeping columns to raw column names.

    The regular-user and annual-pass defaults (SURVEY, GA) follow the public
    Swissmetro codebook but are a documented guess; override them if your file
    encodes those attributes differently.
    """

    time_columns: dict[ModeLabel, str] = field(default_factory=_default_time_columns)
    cost_columns: dict[ModeLabel, str] = field(default_factory=_default_cost_columns)
    availability_columns: dict[ModeLabel, str] = field(
        default_factory=_default_availability_columns
    )
    regular_user_column: str = "SURVEY"
    annual_pass_column: str = "GA"
    choice_column: str = "CHOICE"
    choice_code_map: dict[int, ModeLabel] = field(default_factory=_default_choice_code_map)

    def __post_init__(self):
        names = self.mapped_columns()
        if len(names) != len(set(names)):
            raise ValueError("mapped column names must be distinct")
        if set(self.choice_code_map.values()) != set(MODE_ORDER):
            raise ValueError("choice_code_map must cover exactly the three modes")
        for columns in (self.time_columns, self.cost_columns, self.availability_columns):
            if set(columns) != set(MODE_ORDER):
                raise ValueError("per-mode column maps must cover exactly the three modes")

    def mapped_columns(self) -> list[str]:
        names = []
        for mode in MODE_ORDER:
            names.append(self.time_columns[mode])
            names.append(self.cost_columns[mode])
        for mode in MODE_ORDER:
            names.append(self.availability_columns[mode])
        names.extend([self.regular_user_column, self.annual_pass_column, self.choice_column])
        return names

    def to_json_dict(self) -> dict:
        return {
            "time_columns": {m.display: self.time_columns[m] for m in MODE_ORDER},
            "cost_columns": {m.display: self.cost_columns[m] for m in MODE_ORDER},
            "availability_columns": {
                m.display: self.availability_columns[m] for m in MODE_ORDER
            },
            "regular_user_column": self.regular_user_column,
            "annual_pass_column": self.annual_pass_column,
            "choice_column": self.choice_column,
            "choice_code_map": {
                str(code): mode.display for code, mode in sorted(self.choice_code_map.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ColumnMap":
        def mode_map(entry: dict) -> dict[ModeLabel, str]:
            return {ModeLabel.from_name(k): str(v) for k, v in entry.items()}

        defaults = cls()
        return cls(
            time_columns=(
                mode_map(doc["time_columns"]) if "time_columns" in doc else defaults.time_columns
            ),
            cost_columns=(
                mode_map(doc["cost_columns"]) if "cost_columns" in doc else defaults.cost_columns
            ),
            availability_columns=(
                mode_map(doc["availability_columns"])
                if "availability_columns" in doc
                else defaults.availability_columns
            ),
            regular_user_column=doc.get("regular_user_column", defaults.regular_user_column),
            annual_pass_column=doc.get("annual_pass_column", defaults.annual_pass_column),
            choice_column=doc.get("choice_column", defaults.choice_column),
            choice_code_map=(
                {int(c): ModeLabel.from_name(n) for c, n in doc["choice_code_map"].items()}
                if "choice_code_map" in doc
                else defaults.choice_code_map
            ),
        )


@dataclass(frozen=True)
class ChoiceSituation:
    """One survey response: per-mode times/costs, two traveler flags, observed choice."""

    situation_id: str
    travel_time_min: dict[ModeLabel, int]
    travel_cost: dict[ModeLabel, int]
    is_regular_train_user: bool
    owns_annual_pass: bool
    chosen: ModeLabel

    def __post_init__(self):
        for label, values in (("time", self.travel_time_min), ("cost", self.travel_cost)):
            if set(values) != set(MODE_ORDER):
                raise ValueError(f"travel {label} map must cover exactly the three modes")
        if any(t <= 0 for t in self.travel_time_min.values()):
            raise ValueError("travel times must be positive")
        if any(c < 0 for c in self.travel_cost.values()):
            raise ValueError("travel costs must be non-negative")


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def load_raw(
    path: str | Path, cmap: ColumnMap, delimiter: str = "\t"
) -> dict[str, list[float]]:
    """Read the mapped columns of a delimiter-separated survey file as numbers.

    Returns one list of floats per mapped column, in file row order; other
    columns are never parsed. Blank lines are skipped and take no row index,
    and a short row reads its missing fields as "". Raises MissingColumn,
    UnparseableValue, or EmptyFile.
    """
    path = Path(path)
    columns: dict[str, list[float]] = {name: [] for name in cmap.mapped_columns()}
    with _open_text(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if not header:
            raise EmptyFile(f"{path}: no header row")
        position = {name: i for i, name in enumerate(header)}  # last duplicate wins
        for name in columns:
            if name not in position:
                raise MissingColumn(name)
        # header order, so a row with several bad values reports its first one
        plan = sorted((position[name], name, columns[name].append) for name in columns)
        for index, row in enumerate(row for row in reader if row):
            for i, name, append in plan:
                text = row[i] if i < len(row) else ""
                try:
                    append(float(text))
                except ValueError:
                    raise UnparseableValue(index, name, text.strip()) from None
    if not columns[cmap.choice_column]:
        raise EmptyFile(f"{path}: header but no data rows")
    return columns


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def to_choice_situations(
    columns: dict[str, list[float]], cmap: ColumnMap
) -> list[ChoiceSituation]:
    """Convert load_raw's columns to validated ChoiceSituations, dropping unusable rows.

    A row is dropped when its choice code is not in the code map (including
    the 0 = unknown code), when any alternative is flagged unavailable, or
    when its times/costs violate the value constraints. Exclusion counts are
    emitted as a structured log record.
    """
    times = [columns[cmap.time_columns[m]] for m in MODE_ORDER]
    costs = [columns[cmap.cost_columns[m]] for m in MODE_ORDER]
    availability = [columns[cmap.availability_columns[m]] for m in MODE_ORDER]
    regular = columns[cmap.regular_user_column]
    annual = columns[cmap.annual_pass_column]
    codes = columns[cmap.choice_column]
    situations: list[ChoiceSituation] = []
    excluded = {"unmapped_choice_code": 0, "unavailable_alternative": 0, "invalid_values": 0}
    for index, code in enumerate(codes):
        if code != int(code) or int(code) not in cmap.choice_code_map:
            excluded["unmapped_choice_code"] += 1
            continue
        if any(flags[index] == 0 for flags in availability):
            excluded["unavailable_alternative"] += 1
            continue
        try:  # ChoiceSituation enforces the value constraints
            situation = ChoiceSituation(
                situation_id=f"row{index:05d}",
                travel_time_min={m: _round_half_up(v[index]) for m, v in zip(MODE_ORDER, times)},
                travel_cost={m: _round_half_up(v[index]) for m, v in zip(MODE_ORDER, costs)},
                is_regular_train_user=regular[index] != 0,
                owns_annual_pass=annual[index] != 0,
                chosen=cmap.choice_code_map[int(code)],
            )
        except ValueError:
            excluded["invalid_values"] += 1
            continue
        situations.append(situation)
    logger.info("ingest: kept %d of %d rows, excluded %s", len(situations), len(codes), excluded)
    if not situations:
        raise NoValidRows(f"no rows survived filtering: {len(codes)} read, excluded {excluded}")
    return situations


def _per_class_quotas(
    n_train: int, n_test: int, rng: random.Random
) -> tuple[dict[ModeLabel, int], dict[ModeLabel, int]]:
    """Class quotas whose per-split counts differ by at most one, arranged so
    no class needs more than ceil((n_train + n_test) / 3) members in total."""
    classes = list(MODE_ORDER)
    rng.shuffle(classes)
    base_train, extra_train = divmod(n_train, len(classes))
    base_test, extra_test = divmod(n_test, len(classes))
    train_quota = {mode: base_train for mode in classes}
    test_quota = {mode: base_test for mode in classes}
    # train extras go to the front of the shuffled order, test extras to the
    # back; they overlap only when they must (extra_train + extra_test > 3)
    for mode in classes[:extra_train]:
        train_quota[mode] += 1
    for mode in classes[len(classes) - extra_test :]:
        test_quota[mode] += 1
    return train_quota, test_quota


def balanced_split(
    situations: list[ChoiceSituation],
    n_train: int,
    n_test: int,
    seed: int,
) -> tuple[list[ChoiceSituation], list[ChoiceSituation]]:
    """Draw disjoint, class-balanced train/test samples without replacement.

    Per-class counts within each split differ by at most one. Members are
    sorted by situation_id before the seeded shuffle, so the result depends
    only on the situation set and the seed. Test is drawn after train from
    the remainder of each class.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValueError("n_train and n_test must be positive")
    ids = [s.situation_id for s in situations]
    if len(ids) != len(set(ids)):
        raise ValueError("situation_ids must be unique")

    rng = random.Random(seed)
    train_quota, test_quota = _per_class_quotas(n_train, n_test, rng)

    by_class: dict[ModeLabel, list[ChoiceSituation]] = {m: [] for m in MODE_ORDER}
    for situation in situations:
        by_class[situation.chosen].append(situation)

    train: list[ChoiceSituation] = []
    test: list[ChoiceSituation] = []
    for mode in MODE_ORDER:
        members = sorted(by_class[mode], key=lambda s: s.situation_id)
        needed = train_quota[mode] + test_quota[mode]
        if len(members) < needed:
            raise InsufficientClassMembers(mode, needed, len(members))
        rng.shuffle(members)
        train.extend(members[: train_quota[mode]])
        test.extend(members[train_quota[mode] : needed])
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test
