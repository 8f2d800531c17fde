import dataclasses
import json
import random

import numpy as np
import pytest

from modechoice.dataset import ModeLabel
from modechoice.evaluation import (
    CaseRecord,
    EmptyInput,
    IoFailure,
    LlmAnswer,
    PredictorMetrics,
    _counts,
    build_report,
    write_report,
)

TRAIN, CAR, SM = ModeLabel.TRAIN, ModeLabel.CAR, ModeLabel.SWISSMETRO


# independent reference implementations, written by per-class scanning rather
# than via a confusion matrix


def ref_accuracy(pred, actual):
    return sum(1 for p, a in zip(pred, actual) if p == a) / len(actual)


def ref_confusion(pred, actual):
    matrix = [[0] * 3 for _ in range(3)]
    for p, a in zip(pred, actual):
        matrix[int(a)][int(p)] += 1
    return matrix


def ref_weighted_f1(pred, actual):
    total = 0.0
    for c in ModeLabel:
        support = sum(1 for a in actual if a == c)
        if support == 0:
            continue
        tp = sum(1 for p, a in zip(pred, actual) if p == c and a == c)
        fp = sum(1 for p, a in zip(pred, actual) if p == c and a != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1 * support
    return total / len(actual)


def random_labels(rng, n):
    return [rng.choice(list(ModeLabel)) for _ in range(n)]


def scored(pred, actual):
    """Accuracy, weighted F1 and the 3x3 counts, as the report scores a baseline."""
    matrix = _counts(pred, actual)
    metrics = PredictorMetrics.of(matrix)
    return metrics.accuracy, metrics.weighted_f1, matrix


def test_accuracy_basic():
    assert scored([TRAIN, CAR, SM], [TRAIN, CAR, SM])[0] == 1.0
    assert scored([TRAIN, TRAIN, CAR], [TRAIN, CAR, CAR])[0] == pytest.approx(2 / 3)
    assert scored([TRAIN, TRAIN], [CAR, SM])[0] == 0.0


def test_metric_input_guards():
    # only the LLM's counts have a column for a failed answer
    with pytest.raises(ValueError, match="fourth column"):
        _counts([TRAIN, None], [TRAIN, CAR])
    assert _counts([TRAIN, None], [TRAIN, CAR], n_columns=4).tolist() == [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]
    with pytest.raises(EmptyInput):
        build_report([])


def test_weighted_f1_hand_example():
    pred = [TRAIN, TRAIN, CAR]
    actual = [TRAIN, CAR, CAR]
    # F1(Train)=2/3 with support 1, F1(Car)=2/3 with support 2, SM unsupported
    assert scored(pred, actual)[1] == pytest.approx(2 / 3)
    assert scored([TRAIN, CAR, SM], [TRAIN, CAR, SM])[1] == 1.0


def test_confusion_matrix_hand_example():
    _, _, matrix = scored([TRAIN, TRAIN, CAR], [TRAIN, CAR, CAR])
    assert matrix.tolist() == [[1, 0, 0], [1, 1, 0], [0, 0, 0]]
    _, _, diagonal = scored([SM, CAR], [SM, CAR])
    assert diagonal.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_metrics_match_brute_force_references():
    rng = random.Random(1234)
    for _ in range(400):
        n = rng.randint(1, 60)
        pred = random_labels(rng, n)
        actual = random_labels(rng, n)
        accuracy, f1, matrix = scored(pred, actual)
        assert abs(accuracy - ref_accuracy(pred, actual)) < 1e-12
        assert abs(f1 - ref_weighted_f1(pred, actual)) < 1e-12
        assert matrix.tolist() == ref_confusion(pred, actual)
        # the report scores the LLM and each baseline the same way
        records = [
            CaseRecord(LlmAnswer(f"row{i:05d}", p), "", {"mnl": p}, a)
            for i, (p, a) in enumerate(zip(pred, actual))
        ]
        report = build_report(records)
        for name in ("llm", "mnl"):
            assert report.metrics[name].accuracy == accuracy
            assert report.metrics[name].weighted_f1 == f1
            assert report.confusions[name] == ref_confusion(pred, actual)


def test_metrics_match_sklearn():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(2, 80)
        pred = random_labels(rng, n)
        actual = random_labels(rng, n)
        accuracy, ours, _ = scored(pred, actual)
        theirs = sklearn_metrics.f1_score(
            [int(a) for a in actual],
            [int(p) for p in pred],
            labels=[0, 1, 2],
            average="weighted",
            zero_division=0,
        )
        assert ours == pytest.approx(theirs, abs=1e-12)
        assert accuracy == pytest.approx(
            sklearn_metrics.accuracy_score([int(a) for a in actual], [int(p) for p in pred])
        )


def test_accuracy_equals_confusion_trace():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 40)
        pred = random_labels(rng, n)
        actual = random_labels(rng, n)
        accuracy, _, matrix = scored(pred, actual)
        assert accuracy == pytest.approx(ref_accuracy(pred, actual))
        assert accuracy == pytest.approx(np.trace(matrix) / n)
        assert matrix.sum() == n
        for c in ModeLabel:
            assert matrix[int(c)].sum() == sum(1 for a in actual if a == c)


def test_metrics_invariant_under_relabeling():
    rng = random.Random(10)
    permutations = [(CAR, SM, TRAIN), (SM, TRAIN, CAR), (TRAIN, SM, CAR)]
    for _ in range(50):
        n = rng.randint(2, 50)
        pred = random_labels(rng, n)
        actual = random_labels(rng, n)
        relabel = dict(zip(ModeLabel, rng.choice(permutations)))
        pred_r = [relabel[p] for p in pred]
        actual_r = [relabel[a] for a in actual]
        assert scored(pred, actual)[:2] == pytest.approx(scored(pred_r, actual_r)[:2])


def _records(n=40, failure_every=None, seed=0):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        actual = rng.choice(list(ModeLabel))
        failed = failure_every is not None and i % failure_every == 0
        records.append(
            CaseRecord(
                llm=LlmAnswer(
                    situation_id=f"row{i:05d}",
                    prediction=None if failed else rng.choice(list(ModeLabel)),
                    reason="" if failed else "a plausible reason",
                    raw_text="unparseable text" if failed else "",
                ),
                input_summary=f"{{Travel time: ...}} case {i}",
                benchmark_predictions={
                    "mnl": rng.choice(list(ModeLabel)),
                    "rf": rng.choice(list(ModeLabel)),
                    "nn": rng.choice(list(ModeLabel)),
                },
                actual=actual,
            )
        )
    return records


def _backend_failure(record, error=""):
    """The record with its LLM answer turned into a request that got no reply."""
    llm = dataclasses.replace(record.llm, raw_text="", error=error, backend_failure=True)
    return dataclasses.replace(record, llm=llm)


def test_build_report_counts_and_both_accountings():
    records = _records(40, failure_every=10)  # indices 0,10,20,30 fail
    report = build_report(records, parse_failure_mode="exclude")
    assert report.sample_size == 40
    assert report.parse_failure_count == 4
    assert report.metrics["llm"].n_scored == 36
    assert report.metrics["mnl"].n_scored == 40
    assert set(report.llm_metrics_by_mode) == {"exclude", "count_as_incorrect"}
    strict = build_report(records, parse_failure_mode="count_as_incorrect")
    assert strict.metrics["llm"].n_scored == 40
    # a reply that never came is counted apart but scored like one that did not parse
    records[10] = _backend_failure(records[10])
    for mode, parsed_only in (("exclude", report), ("count_as_incorrect", strict)):
        split = build_report(records, parse_failure_mode=mode)
        assert (split.parse_failure_count, split.backend_failure_count) == (3, 1)
        assert split.metrics == parsed_only.metrics
        assert split.llm_metrics_by_mode == parsed_only.llm_metrics_by_mode
    assert (report.parse_failure_count, report.backend_failure_count) == (4, 0)
    # counting failures as incorrect can only lower accuracy
    assert strict.metrics["llm"].accuracy <= report.metrics["llm"].accuracy
    for metrics in report.metrics.values():
        assert 0.0 <= metrics.accuracy <= 1.0
        assert 0.0 <= metrics.weighted_f1 <= 1.0


def test_failures_as_incorrect_matches_manual_computation():
    records = _records(30, failure_every=6, seed=3)
    report = build_report(records, parse_failure_mode="count_as_incorrect")
    manual = sum(
        1 for r in records if r.llm.prediction is not None and r.llm.prediction == r.actual
    ) / len(records)
    assert report.metrics["llm"].accuracy == pytest.approx(manual)


def test_build_report_requires_records():
    with pytest.raises(EmptyInput):
        build_report([])


def test_write_report_artifacts_and_self_consistency(tmp_path):
    records = _records(50, failure_every=9, seed=4)
    records[9] = _backend_failure(records[9], error="HTTPError")
    out = tmp_path / "report"
    write_report(records, out, config_digest="abc123")
    summary = json.loads((out / "report.json").read_text())
    assert summary["config_digest"] == "abc123"
    assert summary["sample_size"] == 50

    lines = (out / "cases.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [r.to_json_dict() for r in records]
    assert json.loads(lines[9])["backend_failure"] is True
    assert "backend_failure" not in json.loads(lines[0])  # parse failure: no new key
    failed_lines = [json.loads(line) for line in lines if "PARSE_FAILURE" in line]
    assert failed_lines and all(doc["llm_raw_text"] for doc in failed_lines)

    text = (out / "report.txt").read_text()
    assert "Models" in text and "Accuracy" in text and "F1-score" in text


def test_write_report_byte_identical_regeneration(tmp_path):
    records = _records(25, failure_every=8, seed=5)
    out = tmp_path / "report"
    write_report(records, out, config_digest="d1")
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    write_report(records, out, config_digest="d1")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def test_write_report_io_failure(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoFailure):
        write_report(_records(5), blocker / "sub")


STORED_ROWS = {  # rows of the LLM stage file, byte for byte as earlier versions wrote them
    "parsed": '{"error": "", "parse_path": "strict", "prediction": "Train", "raw_text": "", '
    '"reason": "Train has the lowest combined travel time and cost.", "situation_id": "row00426"}',
    "parse_failure": '{"error": "ParseFailure: no Prediction line or token present", '
    '"prediction": "PARSE_FAILURE", "raw_text": "I cannot determine the best travel mode from '
    'the given information.", "reason": "", "situation_id": "row00426"}',
    "backend_failure": '{"backend_failure": true, "error": "BackendExhausted: gave up after 2 '
    'attempts: transient backend failure: 503", "prediction": "PARSE_FAILURE", "raw_text": "", '
    '"reason": "", "situation_id": "row00007"}',
}
STORED_ANSWERS = {
    "parsed": LlmAnswer(
        situation_id="row00426",
        prediction=ModeLabel.TRAIN,
        reason="Train has the lowest combined travel time and cost.",
        parse_path="strict",
    ),
    "parse_failure": LlmAnswer(
        situation_id="row00426",
        prediction=None,
        raw_text="I cannot determine the best travel mode from the given information.",
        error="ParseFailure: no Prediction line or token present",
    ),
    "backend_failure": LlmAnswer(
        situation_id="row00007",
        prediction=None,
        error="BackendExhausted: gave up after 2 attempts: transient backend failure: 503",
        backend_failure=True,
    ),
}


@pytest.mark.parametrize("kind", sorted(STORED_ROWS))
def test_stored_answer_round_trips(kind):
    answer = STORED_ANSWERS[kind]
    assert LlmAnswer.from_json_dict(answer.to_json_dict()) == answer
    # a stored row reads back to the answer and is written back with its bytes
    row = STORED_ROWS[kind]
    assert LlmAnswer.from_json_dict(json.loads(row)) == answer
    assert json.dumps(answer.to_json_dict(), sort_keys=True) == row
