"""Metrics (accuracy, weighted F1, confusion matrix) and report writing.

The report has three artifacts: a machine-readable JSON summary, a
human-readable text table, and a JSON-lines case log holding one record per
test situation (inputs, the model's prediction and reason, every benchmark
prediction, and the observed choice). All three are pure functions of the
records, so regenerating them is byte-identical.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_atomic
from .dataset import MODE_ORDER, ModeLabel

logger = logging.getLogger(__name__)

PARSE_FAILURE_MARKER = "PARSE_FAILURE"
REPORT_FILES = ("report.json", "report.txt", "cases.jsonl")
FAILURE_MODES = ("exclude", "count_as_incorrect")


class EvaluationError(Exception):
    pass


class EmptyInput(EvaluationError):
    pass


class IoFailure(EvaluationError):
    pass


def _counts(pred, actual, n_columns: int = len(MODE_ORDER)) -> np.ndarray:
    """Counts with rows = actual, columns = predicted; a None prediction goes
    to a fourth column, which only a 3x4 matrix has."""
    n_modes = len(MODE_ORDER)
    columns = np.array([n_modes if p is None else p for p in pred], dtype=int)
    if (columns >= n_columns).any():
        raise ValueError("a None prediction needs the fourth column")
    cells = np.array(actual, dtype=int) * n_columns + columns
    return np.bincount(cells, minlength=n_modes * n_columns).reshape(n_modes, n_columns)


def _weighted_f1_of(matrix: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 over a counts matrix whose first
    three columns are the modes; zero-support classes carry no weight."""
    supports = matrix.sum(axis=1)
    predicted = matrix.sum(axis=0)
    total = 0.0
    for c in range(len(MODE_ORDER)):
        if supports[c] == 0:
            continue
        tp = matrix[c, c]
        precision = tp / predicted[c] if predicted[c] else 0.0
        recall = tp / supports[c]
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += f1 * supports[c]
    return total / supports.sum()


@dataclass(frozen=True)
class LlmAnswer:
    """The model's answer for one situation, from the LLM stage to the case log.

    A None prediction marks a failure: a reply that did not parse, kept in
    `raw_text`, or a request that got no reply (`backend_failure`). The JSON
    form is the LLM stage's stored row."""

    situation_id: str
    prediction: ModeLabel | None
    reason: str = ""
    raw_text: str = ""  # the reply, kept only when it did not parse
    error: str = ""
    parse_path: str = ""  # "strict" | "fallback" when the reply parsed
    backend_failure: bool = False

    @property
    def prediction_name(self) -> str:
        return PARSE_FAILURE_MARKER if self.prediction is None else self.prediction.display

    def to_json_dict(self) -> dict:
        doc = dict(vars(self), prediction=self.prediction_name)
        # the stored row's keys: a parse path only when parsed, the flag only when unanswered
        if not self.parse_path:
            del doc["parse_path"]
        if not self.backend_failure:
            del doc["backend_failure"]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LlmAnswer":
        name = doc["prediction"]
        if not isinstance(name, str):
            raise ValueError(f"prediction {name!r} is not a string")
        prediction = None if name == PARSE_FAILURE_MARKER else ModeLabel.from_name(name)
        return cls(**dict(doc, prediction=prediction))


@dataclass(frozen=True)
class CaseRecord:
    """One test situation's inputs and every predictor's answer for it."""

    llm: LlmAnswer
    input_summary: str
    benchmark_predictions: dict[str, ModeLabel]
    actual: ModeLabel

    def to_json_dict(self) -> dict:
        doc = {
            "situation_id": self.llm.situation_id,
            "input": self.input_summary,
            "llm_prediction": self.llm.prediction_name,
            "llm_reason": self.llm.reason,
            "benchmark_predictions": {
                kind: mode.display for kind, mode in sorted(self.benchmark_predictions.items())
            },
            "actual": self.actual.display,
            "llm_raw_text": self.llm.raw_text or self.llm.error,
        }
        if self.llm.backend_failure:  # only on failed rows, so other case logs keep their bytes
            doc["backend_failure"] = True
        return doc


@dataclass
class PredictorMetrics:
    accuracy: float
    weighted_f1: float
    n_scored: int

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def of(cls, matrix: np.ndarray) -> "PredictorMetrics":
        """Scores from counts by mode, plus a column of failed answers if any."""
        total = matrix.sum()
        return cls(np.trace(matrix) / total, _weighted_f1_of(matrix), int(total))


@dataclass
class EvaluationReport:
    metrics: dict[str, PredictorMetrics]
    llm_metrics_by_mode: dict[str, PredictorMetrics]  # keyed by failure-accounting mode
    confusions: dict[str, list[list[int]]]
    parse_failure_count: int  # replies that arrived but did not parse
    backend_failure_count: int  # completions that never returned
    sample_size: int
    parse_failure_mode: str
    config_digest: str = ""

    def to_json_dict(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "parse_failure_count": self.parse_failure_count,
            "backend_failure_count": self.backend_failure_count,
            "parse_failure_mode": self.parse_failure_mode,
            "config_digest": self.config_digest,
            "metrics": {k: m.to_json_dict() for k, m in sorted(self.metrics.items())},
            "llm_metrics_by_mode": {
                k: m.to_json_dict() for k, m in sorted(self.llm_metrics_by_mode.items())
            },
            "confusion_matrices": dict(sorted(self.confusions.items())),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvaluationReport":
        fields = dict(doc)
        fields["confusions"] = fields.pop("confusion_matrices")
        for key in ("metrics", "llm_metrics_by_mode"):
            fields[key] = {name: PredictorMetrics(**m) for name, m in fields[key].items()}
        return cls(**fields)


def _predictor_order(names) -> list[str]:
    preferred = ["llm", "mnl", "rf", "nn"]
    ordered = [n for n in preferred if n in names]
    return ordered + sorted(n for n in names if n not in preferred)


def build_report(
    records: list[CaseRecord],
    parse_failure_mode: str = "exclude",
    config_digest: str = "",
) -> EvaluationReport:
    if not records:
        raise EmptyInput("no case records to evaluate")
    if parse_failure_mode not in FAILURE_MODES:
        raise ValueError(f"parse_failure_mode must be one of {FAILURE_MODES}")

    actual = [r.actual for r in records]
    metrics: dict[str, PredictorMetrics] = {}
    confusions: dict[str, list[list[int]]] = {}

    # the LLM's counts, with a fourth column for answers that are None
    llm = _counts([r.llm.prediction for r in records], actual, n_columns=len(MODE_ORDER) + 1)
    backend_failures = sum(r.llm.backend_failure for r in records)
    parse_failures = int(llm[:, -1].sum()) - backend_failures
    scored = {"exclude": llm[:, :-1], "count_as_incorrect": llm} if llm[:, :-1].any() else {}
    llm_by_mode = {mode: PredictorMetrics.of(matrix) for mode, matrix in scored.items()}
    if scored:
        metrics["llm"] = llm_by_mode[parse_failure_mode]
        confusions["llm"] = llm[:, :-1].tolist()

    for kind in sorted({k for r in records for k in r.benchmark_predictions}):
        matrix = _counts([r.benchmark_predictions[kind] for r in records], actual)
        metrics[kind] = PredictorMetrics.of(matrix)
        confusions[kind] = matrix.tolist()

    return EvaluationReport(
        metrics=metrics,
        llm_metrics_by_mode=llm_by_mode,
        confusions=confusions,
        parse_failure_count=parse_failures,
        backend_failure_count=backend_failures,
        sample_size=len(records),
        parse_failure_mode=parse_failure_mode,
        config_digest=config_digest,
    )


def render_summary_text(report: EvaluationReport) -> str:
    lines = []
    lines.append(f"{'Models':<12}{'Accuracy':>10}{'F1-score':>10}{'N':>8}")
    for name in _predictor_order(report.metrics):
        m = report.metrics[name]
        label = name.upper() if name in ("llm", "mnl", "rf", "nn") else name
        lines.append(f"{label:<12}{m.accuracy:>10.3f}{m.weighted_f1:>10.3f}{m.n_scored:>8d}")
    lines.append("")
    lines.append(
        f"Test situations: {report.sample_size}; "
        f"parse failures: {report.parse_failure_count} "
        f"(accounting: {report.parse_failure_mode})"
    )
    lines.append(
        f"Backend failures: {report.backend_failure_count} "
        "(requests that got no reply; accounted as parse failures)"
    )
    if report.llm_metrics_by_mode:
        lines.append("LLM metrics under both failure accountings:")
        for mode in FAILURE_MODES:
            if mode in report.llm_metrics_by_mode:
                m = report.llm_metrics_by_mode[mode]
                lines.append(
                    f"  {mode:<20} accuracy={m.accuracy:.3f} "
                    f"weighted_f1={m.weighted_f1:.3f} n={m.n_scored}"
                )
    lines.append("")
    header = "".join(f"{m.display:>12}" for m in MODE_ORDER)
    for name in _predictor_order(report.confusions):
        lines.append(f"Confusion matrix ({name}, rows=actual, cols=predicted):")
        lines.append(f"{'':<12}{header}")
        for mode, row in zip(MODE_ORDER, report.confusions[name]):
            lines.append(f"{mode.display:<12}" + "".join(f"{v:>12d}" for v in row))
        lines.append("")
    return "\n".join(lines)


def write_report(
    records: list[CaseRecord],
    out_dir: str | Path,
    parse_failure_mode: str = "exclude",
    config_digest: str = "",
) -> EvaluationReport:
    """Write report.json, report.txt, and cases.jsonl under out_dir.

    The artifacts depend only on the records and arguments, so a repeat call
    with the same inputs leaves identical bytes in place.
    """
    report = build_report(records, parse_failure_mode, config_digest)
    out = Path(out_dir)
    try:
        summary_json = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        encode = json.JSONEncoder(sort_keys=True).encode  # one encoder for every case
        cases = "".join(encode(r.to_json_dict()) + "\n" for r in records)
        texts = (summary_json, render_summary_text(report) + "\n", cases)
        for name, text in zip(REPORT_FILES, texts):
            write_atomic(out / name, text.encode("utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot write report under {out}: {exc}") from exc
    logger.info("report written to %s", out)
    return report
