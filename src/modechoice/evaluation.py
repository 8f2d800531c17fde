"""Metrics (accuracy, weighted F1, confusion matrix) and report writing.

The report has three artifacts: a machine-readable JSON summary, a
human-readable text table, and a JSON-lines case log holding one record per
test situation (inputs, the model's prediction and reason, every benchmark
prediction, and the observed choice). All three are pure functions of the
records, so regenerating them is byte-identical. The report's types, its
read-back and its text rendering live in `report`, which needs no numpy.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from .artifacts import write_atomic
from .config import MODE_ORDER
from .report import (
    FAILURE_MODES,
    REPORT_FILES,
    CaseRecord,
    EvaluationReport,
    LlmAnswer,
    PredictorMetrics,
    render_summary_text,
)

logger = logging.getLogger(__name__)


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
