"""Stage keys, and the stored report that a run with unchanged inputs serves.

Every stage after ingest is stored under a digest of its inputs, at the
paths named here. The report's manifest records the sha256 of the report
files and of the split and answer files they were built from, and
`run_pipeline` returns the stored report while every digest matches, with no
numpy and no stage module loaded; otherwise it runs the stages. How the
report files are written and read back is `report`'s alone: the manifest
lists them by `REPORT_FILES`, and `read_report` reads the stored one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from contextlib import contextmanager
from pathlib import Path

from .artifacts import digest_of, stage_path, write_atomic
from .config import PipelineConfig, config_digest, request_digest
from .report import REPORT_FILES, EvaluationReport, read_report

# stage lines keep the logger name that log settings and filters select them by
logger = logging.getLogger(f"{__package__}.pipeline")

# Part of the stored report's key: bump it with any change to a report byte, so
# that an upgraded checkout rebuilds the reports it finds instead of serving them.
REPORT_FORMAT_VERSION = 1
# The stored model format, part of each model's key.
# 2: flat trees; 3: level-wise forest; 4: NN batch losses; 5: no children;
# 6: one node string per tree, with cuts into a shared threshold table
MODEL_FORMAT_VERSION = 6


class PipelineError(Exception):
    """A stage failure, naming the stage and chaining the underlying error."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextmanager
def stage(name: str):
    """Run a block, or decorate a function, as the named stage: a failure in it
    becomes a PipelineError. The done line gives the stage's wall time."""
    logger.info("stage %s: start", name)
    started = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    logger.info("stage %s: done in %.1f ms", name, (time.perf_counter() - started) * 1000)


def ingest_key(cfg: PipelineConfig) -> str:
    return digest_of(
        cfg.dataset_path.read_bytes(),
        cfg.delimiter,
        json.dumps(cfg.column_map.to_json_dict(), sort_keys=True),
    )


def sample_key(cfg: PipelineConfig) -> str:
    """Key of the split, and the prefix of every later stage's key. It hashes
    the survey file, so a run computes it once and hands it to each stage;
    a stage called without it computes it again. An unreadable survey file
    fails the ingest stage."""
    try:
        survey = ingest_key(cfg)
    except OSError as exc:
        raise PipelineError("ingest", exc) from exc
    return digest_of(survey, str(cfg.n_train), str(cfg.n_test), str(cfg.seed))


def split_path(cfg: PipelineConfig, split_key: str) -> Path:
    return stage_path(cfg.output_dir, "split", split_key, suffix=".json")


def llm_key(cfg: PipelineConfig, split_key: str) -> str:
    return digest_of(
        split_key,
        json.dumps(dataclasses.asdict(cfg.prompt), sort_keys=True),
        request_digest(cfg.backend),
        str(cfg.effective_max_samples()),
    )


def llm_path(cfg: PipelineConfig, split_key: str) -> Path:
    return stage_path(cfg.output_dir, "llm", llm_key(cfg, split_key), ".jsonl.gz")


def _model_key(cfg: PipelineConfig, kind: str, split_key: str) -> str:
    return digest_of(
        split_key,
        str(MODEL_FORMAT_VERSION),
        json.dumps(vars(cfg.train_configs[kind]), sort_keys=True),
    )


def model_path(cfg: PipelineConfig, kind: str, split_key: str) -> Path:
    return stage_path(cfg.output_dir, f"model-{kind}", _model_key(cfg, kind, split_key), ".json")


def report_dir(cfg: PipelineConfig, digest: str | None = None) -> Path:
    return cfg.output_dir / f"report-{(digest or config_digest(cfg))[:12]}"


def _digests(files: dict[str, Path]) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}


def _unchanged(manifest: Path, files: dict[str, Path]) -> bool:
    """Whether the manifest holds the sha256 of every file's current bytes."""
    try:
        return json.loads(manifest.read_bytes()) == _digests(files)
    except (OSError, ValueError):  # a file missing or unreadable, or a damaged manifest
        return False


def report_manifest(
    cfg: PipelineConfig, split_key: str, digest: str
) -> tuple[Path, dict[str, Path]]:
    """The report's manifest and the files it lists, by their path under the
    output directory: the split and LLM files and the three report files. It
    is keyed by REPORT_FORMAT_VERSION, the config digest, the LLM key, each
    configured kind's model key and those files' names, so a new
    MODEL_FORMAT_VERSION rebuilds the report over refitted models."""
    directory = report_dir(cfg, digest)
    paths = [
        split_path(cfg, split_key),
        llm_path(cfg, split_key),
        *(directory / name for name in REPORT_FILES),
    ]
    files = {path.relative_to(cfg.output_dir).as_posix(): path for path in paths}
    model_keys = [_model_key(cfg, kind, split_key) for kind in cfg.benchmark_kinds]
    key = digest_of(
        str(REPORT_FORMAT_VERSION), digest, llm_key(cfg, split_key), *model_keys, *files
    )
    return stage_path(cfg.output_dir, "report", key, suffix=".json"), files


def stored_report(cfg: PipelineConfig, split_key: str) -> EvaluationReport | None:
    """The stored report, read back from report.json, while its manifest holds
    the digest of every file it lists; else None, and the report is rebuilt."""
    digest = config_digest(cfg)
    manifest, files = report_manifest(cfg, split_key, digest)
    if not _unchanged(manifest, files):
        return None
    with stage("report"):
        directory = report_dir(cfg, digest)
        logger.info("reusing report %s", directory)
        return read_report(directory)


def run_pipeline(cfg: PipelineConfig, split_key: str | None = None) -> EvaluationReport:
    """Return the evaluation report: the stored one while its manifest still
    holds, else the one `pipeline.run_stages` builds, which loads the stage
    modules only then. A caller that has already computed sample_key(cfg)
    passes it as split_key.

    Fully deterministic with the mock backend and a fixed seed: stage
    artifacts, the completion cache, and the report are byte-stable across
    reruns.
    """
    split_key = split_key or sample_key(cfg)
    report = stored_report(cfg, split_key)
    if report is None:
        from .pipeline import run_stages

        report = run_stages(cfg, split_key)
    return report


def store_manifest(manifest: Path, files: dict[str, Path]) -> None:
    """Record the digest of every listed file, unless one is missing: the
    answers of a run with backend failures are not stored, so its rerun
    finds no manifest and retries them."""
    try:
        text = json.dumps(_digests(files), indent=0, sort_keys=True) + "\n"
    except FileNotFoundError:
        return
    write_atomic(manifest, text.encode("utf-8"))
