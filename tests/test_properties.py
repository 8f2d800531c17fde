"""Properties of the stored-file line reader, the reply parser, the balanced
split and the forest's stored form, each checked on generated inputs against
a plain statement of what it must do."""

import gzip
import json
import math

import numpy as np
import pytest

from modechoice.artifacts import load_json_lines
from modechoice.benchmarks.forest import Tree, trees_from_json, trees_to_json
from modechoice.config import N_FEATURES
from modechoice.dataset import InsufficientClassMembers, ModeLabel, SituationTable, balanced_split
from modechoice.parsing import ParseFailure, parse_response

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# ---------------------------------------------------------------------------
# load_json_lines

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# one line or several: a value dumped on one line or spread over lines, two values on
# one line, whitespace around one, or a fragment of JSON-like text
CHUNKS = st.one_of(
    JSON_VALUES.map(json.dumps),
    JSON_VALUES.map(lambda value: json.dumps(value, indent=1)),
    st.tuples(JSON_VALUES, st.sampled_from([",", "", " "]), JSON_VALUES).map(
        lambda t: json.dumps(t[0]) + t[1] + json.dumps(t[2])
    ),
    st.tuples(st.sampled_from(" \t\r"), JSON_VALUES, st.sampled_from(["", " ", "\r"])).map(
        lambda t: t[0] + json.dumps(t[1]) + t[2]
    ),
    st.text(alphabet='[]{}",:0123 \t\r\\enrtu', max_size=10),
)


def lines_alone(text: str) -> list | None:
    """The values of the text's lines, each read alone by json.loads, if every
    line is exactly one JSON array or object; else None."""
    lines = text.split("\n")
    if lines[-1] == "":  # the newline that ends the last line, or an empty file
        lines.pop()
    values = []
    for line in lines:
        try:
            value = json.loads(line)
        except ValueError:
            return None
        if not isinstance(value, (list, dict)) or line != line.strip(" \t\r"):
            return None
        values.append(value)
    return values


@hypothesis.example(chunks=["[1],[2]", '["]', '["]'], newline=True)
@hypothesis.example(chunks=["[[1]", "[2]]", "[3],[4]"], newline=True)
@hypothesis.given(chunks=st.lists(CHUNKS, max_size=6), newline=st.booleans())
def test_load_json_lines_accepts_exactly_the_files_of_one_value_a_line(chunks, newline):
    text = "\n".join(chunks) + ("\n" if newline and chunks else "")
    expected = lines_alone(text)
    try:
        values = load_json_lines(gzip.compress(text.encode("utf-8")))
    except ValueError:
        values = None
    assert repr(values) == repr(expected)


# ---------------------------------------------------------------------------
# parse_response

ALIASES = {"train": ModeLabel.TRAIN, "car": ModeLabel.CAR, "swissmetro": ModeLabel.SWISSMETRO}
ALIASES["sm"] = ModeLabel.SWISSMETRO
REPLY_PIECES = st.sampled_from(
    [
        "Prediction", "prediction:", "**Prediction**:", " Prediction : ", "Reason:", "reason :",
        "Train", "car", "SM", "Swissmetro", "sm.", "trains", ":", "*", "'", '"', ".", " ",
        "\n", "\r\n", "\u2028", "\x0b",
    ]
)
REPLIES = st.one_of(st.text(), st.lists(REPLY_PIECES | st.text(max_size=3)).map("".join))


@hypothesis.given(REPLIES)
def test_parse_response_raises_nothing_but_parse_failure(text):
    try:
        parsed = parse_response(text)
    except ParseFailure:
        return
    assert parsed.mode in ModeLabel and parsed.parse_path in ("strict", "fallback")
    assert isinstance(parsed.reason, str)


@st.composite
def cased_aliases(draw):
    alias = draw(st.sampled_from(sorted(ALIASES)))
    upper = draw(st.lists(st.booleans(), min_size=len(alias), max_size=len(alias)))
    return alias, "".join(c.upper() if u else c for c, u in zip(alias, upper))


@hypothesis.given(cased_aliases(), st.text())
def test_a_strict_reply_parses_back_to_its_alias_and_reason(alias, reason):
    alias, written = alias
    parsed = parse_response(f"Prediction: {written}\nReason: {reason}")
    assert (parsed.mode, parsed.reason, parsed.parse_path) == (
        ALIASES[alias], reason.strip(), "strict"
    )


# ---------------------------------------------------------------------------
# balanced_split


@st.composite
def split_cases(draw):
    """Split sizes, and a table whose classes have about as many members as
    the split may need of each, some fewer, at distinct row indices."""
    n_train, n_test = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    most = math.ceil(n_train / 3) + math.ceil(n_test / 3)
    counts = [max(0, most + draw(st.integers(-2, 6))) for _ in range(3)]
    chosen = draw(st.permutations([k for k, count in enumerate(counts) for _ in range(count)]))
    n = len(chosen)
    rows = draw(st.lists(st.integers(0, 99_999), min_size=n, max_size=n, unique=True))
    table = SituationTable(
        row_index=np.array(rows, dtype=int),
        times=np.zeros((n, 3)),
        costs=np.zeros((n, 3)),
        regular=np.zeros(n, dtype=bool),
        annual_pass=np.zeros(n, dtype=bool),
        chosen=np.array(chosen, dtype=int),
    )
    return table, n_train, n_test, most


def class_counts(table: SituationTable) -> list[int]:
    return np.bincount(table.chosen, minlength=3).tolist()


@hypothesis.given(split_cases(), st.integers(0, 2**32), st.randoms())
def test_balanced_split_draws_disjoint_balanced_sets_fixed_by_the_seed(case, seed, rng):
    table, n_train, n_test, most = case
    try:
        train, test = balanced_split(table, n_train, n_test, seed)
    except InsufficientClassMembers as exc:  # a class needs at most `most` members
        assert class_counts(table)[exc.mode] < exc.needed <= most
        return
    assert (len(train), len(test)) == (n_train, n_test)
    assert len({*train.ids, *test.ids}) == n_train + n_test
    assert {*train.ids, *test.ids} <= set(table.ids)
    for split, size in ((train, n_train), (test, n_test)):  # per class, size / 3 rounded up or down
        assert sorted(class_counts(split)) == sorted(size // 3 + (k < size % 3) for k in range(3))
    # the same ids for the same seed, whatever order the rows come in
    order = list(range(len(table)))
    rng.shuffle(order)
    again = balanced_split(table[order], n_train, n_test, seed)
    assert (again[0].ids, again[1].ids) == (train.ids, test.ids)


# ---------------------------------------------------------------------------
# trees_to_json and trees_from_json

# finite thresholds, some shared between nodes; -0.0 + 0.0 is 0.0, since the
# threshold table holds -0.0 and 0.0 as one value
THRESHOLDS = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.5, 1.5])).map(
    lambda x: x + 0.0
)


@st.composite
def level_order_trees(draw):
    """A full binary tree as _assemble writes it: node arrays in level order,
    the k-th split node's children at 2k + 1 and 2k + 2, threshold 0 on every
    leaf and vote 0 on every split node."""
    flags = iter(draw(st.lists(st.booleans(), max_size=15)))
    split, open_nodes = [], 1
    while open_nodes:  # each split node opens two more; nodes past the flags are leaves
        split.append(next(flags, False))
        open_nodes += 1 if split[-1] else -1
    n = len(split)
    features = draw(st.lists(st.integers(0, N_FEATURES - 1), min_size=n, max_size=n))
    thresholds = draw(st.lists(THRESHOLDS, min_size=n, max_size=n))
    votes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Tree(
        np.where(split, features, -1).astype(np.intp),
        np.where(split, thresholds, 0.0),
        np.where(split, 0, votes).astype(np.intp),
    )


@hypothesis.given(st.lists(level_order_trees(), min_size=1, max_size=4))
def test_a_forest_reads_back_from_its_stored_form_bit_for_bit(trees):
    stored = json.dumps(trees_to_json(trees))
    again = trees_from_json(json.loads(stored))
    assert len(again) == len(trees)
    for tree, back in zip(trees, again):
        for array, array_back in zip(tree, back):
            assert (array_back.dtype, array_back.tobytes()) == (array.dtype, array.tobytes())
    assert json.dumps(trees_to_json(again)) == stored
