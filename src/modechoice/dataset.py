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


_DISPLAY_NAMES = ("Train", "Car", "Swissmetro")  # by value; cheaper than the enum's name


class ModeLabel(IntEnum):
    """The three travel modes, with a fixed total order used for tie-breaking."""

    TRAIN = 0
    CAR = 1
    SWISSMETRO = 2

    @property
    def display(self) -> str:
        return _DISPLAY_NAMES[self]

    @classmethod
    def from_name(cls, text: str) -> "ModeLabel":
        key = text.strip().upper()
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown mode name {text!r}") from None


MODE_ORDER: tuple[ModeLabel, ...] = tuple(ModeLabel)


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

    # per-mode values are tuples in MODE_ORDER: (Train, Car, Swissmetro)
    time_columns: tuple[str, str, str] = ("TRAIN_TT", "CAR_TT", "SM_TT")
    cost_columns: tuple[str, str, str] = ("TRAIN_CO", "CAR_CO", "SM_CO")
    availability_columns: tuple[str, str, str] = ("TRAIN_AV", "CAR_AV", "SM_AV")
    regular_user_column: str = "SURVEY"
    annual_pass_column: str = "GA"
    choice_column: str = "CHOICE"
    choice_code_map: dict[int, ModeLabel] = field(default_factory=_default_choice_code_map)

    def __post_init__(self):
        for columns in (self.time_columns, self.cost_columns, self.availability_columns):
            if len(columns) != len(MODE_ORDER):
                raise ValueError("per-mode columns need one name per mode")
        names = self.mapped_columns()
        if len(names) != len(set(names)):
            raise ValueError("mapped column names must be distinct")
        if set(self.choice_code_map.values()) != set(MODE_ORDER):
            raise ValueError("choice_code_map must cover exactly the three modes")

    def mapped_columns(self) -> list[str]:
        pairs = zip(self.time_columns, self.cost_columns)
        return [name for pair in pairs for name in pair] + [
            *self.availability_columns,
            self.regular_user_column,
            self.annual_pass_column,
            self.choice_column,
        ]

    def to_json_dict(self) -> dict:
        """The config form: per-mode columns keyed by mode name."""
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
        """Read the config form; a key it omits keeps its default."""
        kwargs = dict(doc)
        for key in ("time_columns", "cost_columns", "availability_columns"):
            if key in kwargs:
                by_mode = {ModeLabel.from_name(k): str(v) for k, v in kwargs[key].items()}
                if len(by_mode) != len(MODE_ORDER):
                    raise ValueError(f"{key} must cover exactly the three modes")
                kwargs[key] = tuple(by_mode[m] for m in MODE_ORDER)
        if "choice_code_map" in kwargs:
            kwargs["choice_code_map"] = {
                int(c): ModeLabel.from_name(n) for c, n in kwargs["choice_code_map"].items()
            }
        return cls(**kwargs)


@dataclass(frozen=True)
class ChoiceSituation:
    """One survey response: per-mode times/costs, two traveler flags, observed choice."""

    situation_id: str
    travel_time_min: tuple[int, int, int]  # in MODE_ORDER
    travel_cost: tuple[int, int, int]  # in MODE_ORDER
    is_regular_train_user: bool
    owns_annual_pass: bool
    chosen: ModeLabel

    def __post_init__(self):
        if not len(self.travel_time_min) == len(self.travel_cost) == len(MODE_ORDER):
            raise ValueError("travel times and costs need one value per mode")
        if min(self.travel_time_min) <= 0:
            raise ValueError("travel times must be positive")
        if min(self.travel_cost) < 0:
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
        isfinite = math.isfinite
        for index, row in enumerate(row for row in reader if row):
            for i, name, append in plan:
                text = row[i] if i < len(row) else ""
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not isfinite(value):  # float() also reads "nan" and "inf"
                    raise UnparseableValue(index, name, text.strip())
                append(value)
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

    def per_mode(names):  # one tuple of the three values per row
        return zip(*(columns[name] for name in names))

    codes = columns[cmap.choice_column]
    rows = zip(
        codes,
        per_mode(cmap.availability_columns),
        per_mode(cmap.time_columns),
        per_mode(cmap.cost_columns),
        columns[cmap.regular_user_column],
        columns[cmap.annual_pass_column],
    )
    situations: list[ChoiceSituation] = []
    excluded = {"unmapped_choice_code": 0, "unavailable_alternative": 0, "invalid_values": 0}
    for index, (code, available, times, costs, regular, annual) in enumerate(rows):
        if code != int(code) or int(code) not in cmap.choice_code_map:
            excluded["unmapped_choice_code"] += 1
            continue
        if 0 in available:
            excluded["unavailable_alternative"] += 1
            continue
        try:  # ChoiceSituation enforces the value constraints
            situation = ChoiceSituation(
                situation_id=f"row{index:05d}",
                travel_time_min=tuple(map(_round_half_up, times)),
                travel_cost=tuple(map(_round_half_up, costs)),
                is_regular_train_user=regular != 0,
                owns_annual_pass=annual != 0,
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
) -> tuple[list[int], list[int]]:
    """Class quotas, in MODE_ORDER, whose per-split counts differ by at most
    one, arranged so no class needs more than ceil((n_train + n_test) / 3)
    members in total."""
    classes = list(MODE_ORDER)
    rng.shuffle(classes)
    base_train, extra_train = divmod(n_train, len(classes))
    base_test, extra_test = divmod(n_test, len(classes))
    train_quota = [base_train] * len(classes)
    test_quota = [base_test] * len(classes)
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

    by_class: list[list[ChoiceSituation]] = [[] for _ in MODE_ORDER]
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
