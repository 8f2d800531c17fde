"""Independent checks of a pipeline run's outputs.

They read the raw survey file with `csv` and the run's output files, and
import nothing from `modechoice`, so a fault in the program cannot hide
itself by also being in the checker. Each check returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

MODES = ("Train", "Car", "Swissmetro")  # also the tie-break order
CHOICE_CODES = {1: "Train", 2: "Swissmetro", 3: "Car"}
REPORT_FILES = ("report.json", "report.txt", "cases.jsonl")
# A balanced three-class test set scores 1/3 by chance; a working baseline on
# the synthetic survey scores about 0.75-0.85.
MIN_BASELINE_ACCURACY = 1 / 3 + 0.2

_INPUT = re.compile(
    r"^\{Travel time: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}, "
    r"Travel cost: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}\}\. "
    r"The person (is|is not) a regular Train user\. "
    r"He/She (owns|does not own) the Train annual pass\.$"
)
_SITUATION_ID = re.compile(r"^row(\d+)$")


def load_survey(path: Path) -> list[dict[str, int]]:
    """Rows of a tab-separated survey file, every column parsed as an int."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            {k: int(v) for k, v in row.items()}
            for row in csv.DictReader(handle, delimiter="\t")
        ]


def _raw_row(survey: list[dict[str, int]], situation_id: str) -> dict[str, int] | None:
    match = _SITUATION_ID.match(situation_id)
    if match is None or int(match.group(1)) >= len(survey):
        return None
    return survey[int(match.group(1))]


def _times_costs(row: dict[str, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (
        (row["TRAIN_TT"], row["CAR_TT"], row["SM_TT"]),
        (row["TRAIN_CO"], row["CAR_CO"], row["SM_CO"]),
    )


def generalized_cost_choice(row: dict[str, int]) -> str:
    times, costs = _times_costs(row)
    totals = [t + c for t, c in zip(times, costs)]
    return MODES[totals.index(min(totals))]


def report_dir(out_dir: Path) -> Path:
    found = sorted(out_dir.glob("report-*"))
    if len(found) != 1:
        raise FileNotFoundError(f"{out_dir}: expected one report directory, found {len(found)}")
    return found[0]


def report_bytes(out_dir: Path) -> dict[str, bytes]:
    directory = report_dir(out_dir)
    return {name: (directory / name).read_bytes() for name in REPORT_FILES}


def read_cases(out_dir: Path) -> list[dict]:
    text = (report_dir(out_dir) / "cases.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


def _split_ids(out_dir: Path) -> tuple[list[str], list[str]] | None:
    """The stored train/test id lists: the stage file holding both keys."""
    for path in sorted((out_dir / "stages").glob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if isinstance(doc, dict) and set(doc) >= {"train", "test"}:
            return list(doc["train"]), list(doc["test"])
    return None


def check_cases(cases: list[dict], survey: list[dict[str, int]], n_expected: int) -> list[str]:
    """Every case matches its raw row, and every LLM answer is the
    generalized-cost choice (parse failures are counted, not checked)."""
    problems = []
    if len(cases) != n_expected:
        problems.append(f"expected {n_expected} cases, found {len(cases)}")
    for case in cases:
        sid = case["situation_id"]
        row = _raw_row(survey, sid)
        if row is None:
            problems.append(f"{sid}: no raw row for this situation id")
            continue
        match = _INPUT.match(case["input"])
        if match is None:
            problems.append(f"{sid}: input summary does not parse: {case['input']!r}")
            continue
        times, costs = _times_costs(row)
        numbers = tuple(int(g) for g in match.groups()[:6])
        if numbers != times + costs:
            problems.append(f"{sid}: times/costs {numbers} differ from raw row {times + costs}")
        regular = match.group(7) == "is"
        annual = match.group(8) == "owns"
        if (regular, annual) != (row["SURVEY"] != 0, row["GA"] != 0):
            problems.append(f"{sid}: traveller flags differ from raw row")
        if case["actual"] != CHOICE_CODES.get(row["CHOICE"]):
            problems.append(f"{sid}: actual {case['actual']} differs from raw choice {row['CHOICE']}")
        if case["llm_prediction"] != "PARSE_FAILURE":
            expected = generalized_cost_choice(row)
            if case["llm_prediction"] != expected:
                problems.append(f"{sid}: LLM predicted {case['llm_prediction']}, rule gives {expected}")
    return problems


def check_split(
    out_dir: Path, cases: list[dict], survey: list[dict[str, int]], n_train: int, n_test: int
) -> list[str]:
    """Balanced, disjoint splits of the requested sizes, and the cases are
    drawn from the test split."""
    ids = _split_ids(out_dir)
    if ids is None:
        return [f"{out_dir}: no stored train/test split found"]
    train, test = ids
    problems = []
    for name, members, size in (("train", train, n_train), ("test", test, n_test)):
        if len(members) != size or len(set(members)) != size:
            problems.append(f"{name} split has {len(members)} ids ({len(set(members))} distinct), expected {size}")
        counts = {mode: 0 for mode in MODES}
        for sid in members:
            row = _raw_row(survey, sid)
            if row is None:
                problems.append(f"{name} split: unknown situation id {sid}")
                continue
            counts[CHOICE_CODES[row["CHOICE"]]] += 1
        if max(counts.values()) - min(counts.values()) > 1:
            problems.append(f"{name} split is unbalanced: {counts}")
    if set(train) & set(test):
        problems.append(f"train and test share {len(set(train) & set(test))} situations")
    case_ids = [c["situation_id"] for c in cases]
    if case_ids != test[: len(case_ids)]:
        problems.append("cases are not the leading test-split situations in order")
    return problems


def _metrics(pred: list[str], actual: list[str]) -> tuple[float, float, list[list[int]]]:
    matrix = [[0] * len(MODES) for _ in MODES]
    for p, a in zip(pred, actual):
        matrix[MODES.index(a)][MODES.index(p)] += 1
    accuracy = sum(p == a for p, a in zip(pred, actual)) / len(actual)
    f1_total = 0.0
    for c in range(len(MODES)):
        support = sum(matrix[c])
        predicted = sum(row[c] for row in matrix)
        if support == 0:
            continue
        tp = matrix[c][c]
        precision = tp / predicted if predicted else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1_total += f1 * support
    return accuracy, f1_total / len(actual), matrix


def check_report(out_dir: Path, cases: list[dict], baselines: tuple[str, ...]) -> list[str]:
    """report.json agrees with metrics recomputed from cases.jsonl, and every
    baseline clearly beats chance."""
    report = json.loads((report_dir(out_dir) / "report.json").read_text(encoding="utf-8"))
    problems = []
    parsed = [c for c in cases if c["llm_prediction"] != "PARSE_FAILURE"]
    predictors = {"llm": ([c["llm_prediction"] for c in parsed], [c["actual"] for c in parsed])}
    for kind in baselines:
        predictors[kind] = (
            [c["benchmark_predictions"][kind] for c in cases],
            [c["actual"] for c in cases],
        )
    if sorted(report["metrics"]) != sorted(predictors):
        problems.append(f"report predictors {sorted(report['metrics'])} != {sorted(predictors)}")
    if report["sample_size"] != len(cases):
        problems.append(f"report sample_size {report['sample_size']} != {len(cases)} cases")
    for name, (pred, actual) in predictors.items():
        if name not in report["metrics"] or not actual:
            continue
        accuracy, f1, matrix = _metrics(pred, actual)
        stored = report["metrics"][name]
        if not math.isclose(stored["accuracy"], accuracy, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name}: report accuracy {stored['accuracy']} != recomputed {accuracy}")
        if not math.isclose(stored["weighted_f1"], f1, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name}: report weighted F1 {stored['weighted_f1']} != recomputed {f1}")
        if report["confusion_matrices"].get(name) != matrix:
            problems.append(f"{name}: report confusion matrix differs from recomputed {matrix}")
        if name in baselines and accuracy < MIN_BASELINE_ACCURACY:
            problems.append(f"{name}: accuracy {accuracy:.3f} is not clearly above chance")
    return problems
