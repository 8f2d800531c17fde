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
from operator import itemgetter
from pathlib import Path

import numpy as np

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
        if not all(isinstance(name, str) for name in names):
            raise TypeError(f"column names must be strings, got {names}")
        if len(names) != len(set(names)):
            raise ValueError("mapped column names must be distinct")
        if not all(type(code) is int for code in self.choice_code_map):
            raise TypeError(f"choice_code_map keys must be integers, got {[*self.choice_code_map]}")
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
        """Read the config form; an omitted key keeps its default, and a code may be text."""
        kwargs = dict(doc)
        for key in ("time_columns", "cost_columns", "availability_columns"):
            if key in kwargs:
                by_mode = {ModeLabel.from_name(k): v for k, v in kwargs[key].items()}
                if len(by_mode) != len(MODE_ORDER):
                    raise ValueError(f"{key} must cover exactly the three modes")
                kwargs[key] = tuple(by_mode[m] for m in MODE_ORDER)
        if "choice_code_map" in kwargs:
            kwargs["choice_code_map"] = {
                int(c) if isinstance(c, str) and c.isdecimal() else c: ModeLabel.from_name(n)
                for c, n in kwargs["choice_code_map"].items()
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


@dataclass(frozen=True)
class SituationTable:
    """Validated survey rows as columns. Times and costs are rounded but kept
    as float64, since a finite value may lie past the int64 range. A slice or
    a list of positions indexes rows; iterating builds one ChoiceSituation
    per row, with exact ints."""

    row_index: np.ndarray  # (n,) the row's index among the file's data rows
    times: np.ndarray  # (n, 3) in MODE_ORDER
    costs: np.ndarray  # (n, 3) in MODE_ORDER
    regular: np.ndarray  # (n,) bool
    annual_pass: np.ndarray  # (n,) bool
    chosen: np.ndarray  # (n,) class index in MODE_ORDER

    def __len__(self) -> int:
        return len(self.row_index)

    def __getitem__(self, rows) -> "SituationTable":
        return SituationTable(*(column[rows] for column in vars(self).values()))

    @property
    def ids(self) -> list[str]:
        return [f"row{i:05d}" for i in self.row_index.tolist()]

    def __iter__(self):
        for i, times, costs, *flags, chosen in zip(*(c.tolist() for c in vars(self).values())):
            times, costs = tuple(map(int, times)), tuple(map(int, costs))
            yield ChoiceSituation(f"row{i:05d}", times, costs, *flags, MODE_ORDER[chosen])


def load_raw(
    path: str | Path, cmap: ColumnMap, delimiter: str = "\t"
) -> dict[str, np.ndarray]:
    """Read the mapped columns of a delimiter-separated survey file as numbers.

    Returns one float64 array per mapped column, in file row order; other
    columns are never parsed. Blank lines are skipped and take no row index,
    and a short row reads its missing fields as "". Raises MissingColumn,
    UnparseableValue (the first bad value by row, then column), or EmptyFile.
    """
    path = Path(path)
    names = cmap.mapped_columns()
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if not header:
            raise EmptyFile(f"{path}: no header row")
        position = {name: i for i, name in enumerate(header)}  # last duplicate wins
        for name in names:
            if name not in position:
                raise MissingColumn(name)
        in_file_order = sorted(names, key=position.__getitem__)
        pick = itemgetter(*map(position.__getitem__, in_file_order))
        width = position[in_file_order[-1]] + 1
        rows = [  # the mapped fields of each row, in file order
            pick(row) if len(row) >= width else pick(row + [""] * width) for row in reader if row
        ]
    if not rows:
        raise EmptyFile(f"{path}: header but no data rows")
    try:  # column by column; a bad value falls through to the scan
        texts = zip(in_file_order, zip(*rows))
        parsed = {name: np.fromiter(map(float, column), float) for name, column in texts}
        # float() also reads "nan" and "inf"
        if all(np.isfinite(values).all() for values in parsed.values()):
            return {name: parsed[name] for name in names}
    except ValueError:
        pass
    for index, row in enumerate(rows):
        for name, text in zip(in_file_order, row):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnparseableValue(index, name, text.strip())
    raise AssertionError("the column pass failed, but no value is bad")


def to_choice_situations(columns: dict[str, np.ndarray], cmap: ColumnMap) -> SituationTable:
    """Validate load_raw's columns into a SituationTable, dropping unusable rows.

    A row is dropped when its choice code is not in the code map (including
    the 0 = unknown code), when any alternative is flagged unavailable, or
    when its rounded times/costs violate ChoiceSituation's value constraints;
    each dropped row counts under the first rule it breaks. Exclusion counts
    are emitted as a structured log record.
    """

    def per_mode(names):  # (n, 3)
        return np.column_stack([columns[name] for name in names])

    codes = columns[cmap.choice_column]
    distinct, inverse = np.unique(codes, return_inverse=True)
    # each distinct code's class, or -1 when it is not an integer in the map
    lookup = [cmap.choice_code_map.get(int(c), -1) if c == int(c) else -1 for c in distinct]
    classes = np.array(lookup, dtype=int)[inverse]
    times = np.floor(per_mode(cmap.time_columns) + 0.5)
    costs = np.floor(per_mode(cmap.cost_columns) + 0.5)
    unmapped = classes < 0
    unavailable = ~unmapped & (per_mode(cmap.availability_columns) == 0).any(axis=1)
    invalid = ~unmapped & ~unavailable & ((times <= 0) | (costs < 0)).any(axis=1)
    keep = ~(unmapped | unavailable | invalid)
    rules = dict(
        unmapped_choice_code=unmapped, unavailable_alternative=unavailable, invalid_values=invalid
    )
    excluded = {rule: int(dropped.sum()) for rule, dropped in rules.items()}
    table = SituationTable(
        np.flatnonzero(keep), times[keep], costs[keep],
        columns[cmap.regular_user_column][keep] != 0, columns[cmap.annual_pass_column][keep] != 0,
        classes[keep],
    )
    logger.info("ingest: kept %d of %d rows, excluded %s", len(table), len(codes), excluded)
    if not table:
        raise NoValidRows(f"no rows survived filtering: {len(codes)} read, excluded {excluded}")
    return table


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
    situations: SituationTable,
    n_train: int,
    n_test: int,
    seed: int,
) -> tuple[SituationTable, SituationTable]:
    """Draw disjoint, class-balanced train/test samples without replacement.

    Per-class counts within each split differ by at most one. Members are
    sorted by situation id, as text, before the seeded shuffle, so the result
    depends only on the situation set and the seed. Test is drawn after train
    from the remainder of each class.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValueError("n_train and n_test must be positive")
    ids = situations.ids
    rng = random.Random(seed)
    train_quota, test_quota = _per_class_quotas(n_train, n_test, rng)

    train, test = [], []  # positions
    for mode in MODE_ORDER:
        members = sorted(np.flatnonzero(situations.chosen == mode).tolist(), key=ids.__getitem__)
        needed = train_quota[mode] + test_quota[mode]
        if len(members) < needed:
            raise InsufficientClassMembers(mode, needed, len(members))
        rng.shuffle(members)
        train.extend(members[: train_quota[mode]])
        test.extend(members[train_quota[mode] : needed])
    rng.shuffle(train)
    rng.shuffle(test)
    return situations[train], situations[test]
