"""End-to-end orchestration: ingest, balanced sampling, prompt rendering,
completion, parsing, benchmark training, and report writing, driven by one
declarative config file. Stage outputs after ingest are content-addressed
under the output directory, so reruns with unchanged inputs reuse stored
results; a report-only rerun needs no backend credential.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import benchmarks
from .artifacts import digest_of, load_or_create, stage_path
from .dataset import (
    ChoiceSituation,
    ColumnMap,
    ModeLabel,
    balanced_split,
    load_raw,
    to_choice_situations,
)
from .evaluation import (
    FAILURE_MODES,
    PARSE_FAILURE_MARKER,
    CaseRecord,
    EvaluationReport,
    write_report,
)
from .gateway import (
    BackendConfig,
    CompletionCache,
    CompletionFailure,
    batch_complete,
    make_backend,  # noqa: F401 -- unused here, but perfbench's tracer wraps it by name
)
from .parsing import ParseFailure, parse_response
from .prompting import (
    Prompt,
    PromptTemplateConfig,
    build_prompt,
    render_individual_attributes,
    render_travel_characteristics,
)

logger = logging.getLogger(__name__)

LIVE_MAX_SAMPLES_DEFAULT = 20


class PipelineError(Exception):
    """A stage failure, naming the stage and chaining the underlying error."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class PipelineConfig:
    dataset_path: Path
    output_dir: Path = Path("out")
    delimiter: str = "\t"
    column_map: ColumnMap = field(default_factory=ColumnMap)
    n_train: int = 1000
    n_test: int = 200
    seed: int = 42
    prompt: PromptTemplateConfig = field(default_factory=PromptTemplateConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    benchmark_kinds: tuple[str, ...] = benchmarks.BENCHMARK_KINDS
    train_configs: dict[str, benchmarks.TrainConfig] = field(default_factory=dict)
    cache_dir: Path | None = None  # defaults to output_dir / "cache"
    parse_failure_mode: str = "exclude"
    max_samples: int | None = None  # None: cap live runs at LIVE_MAX_SAMPLES_DEFAULT

    def __post_init__(self):
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.parse_failure_mode not in FAILURE_MODES:
            raise ValueError(f"parse_failure_mode must be one of {FAILURE_MODES}")
        unknown = set(self.benchmark_kinds) - set(benchmarks.BENCHMARK_KINDS)
        if unknown:
            raise ValueError(f"unknown benchmark kinds: {sorted(unknown)}")
        for kind in self.benchmark_kinds:
            if kind not in self.train_configs:
                self.train_configs[kind] = benchmarks.default_train_config(kind, seed=self.seed)

    def effective_max_samples(self) -> int | None:
        """Cap on evaluated test situations; live runs default to a small cap
        and an explicit non-positive value lifts it."""
        if self.max_samples is None:
            return LIVE_MAX_SAMPLES_DEFAULT if self.backend.backend_kind == "http_chat" else None
        return self.max_samples if self.max_samples > 0 else None

    @property
    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.output_dir / "cache"


def _filtered_kwargs(cls, doc: dict, context: str) -> dict:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")
    return doc


def load_pipeline_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a YAML document plus CLI overrides."""
    path = Path(path)
    doc = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    overrides = overrides or {}

    dataset_doc = doc.get("dataset", {})
    if "path" not in dataset_doc:
        raise ValueError("config must set dataset.path")
    base_dir = path.parent
    dataset_path = Path(dataset_doc["path"])
    if not dataset_path.is_absolute():
        dataset_path = base_dir / dataset_path

    sampling = doc.get("sampling", {})
    prompt_doc = dict(doc.get("prompt", {}))
    if "domain_knowledge_texts" in prompt_doc:
        prompt_doc["domain_knowledge_texts"] = tuple(prompt_doc["domain_knowledge_texts"])
    if "component_order" in prompt_doc:
        prompt_doc["component_order"] = tuple(prompt_doc["component_order"])
    backend_doc = dict(doc.get("backend", {}))
    if "backend" in overrides and overrides["backend"] is not None:
        backend_doc["backend_kind"] = overrides["backend"]

    bench_doc = dict(doc.get("benchmarks", {}))
    kinds = tuple(bench_doc.pop("kinds", benchmarks.BENCHMARK_KINDS))
    seed = overrides.get("seed")
    if seed is None:
        seed = sampling.get("seed", 42)
    seed = int(seed)
    train_configs = {}
    for kind in kinds:
        kind_doc = dict(bench_doc.pop(kind, {}))
        defaults = benchmarks.default_train_config(kind, seed=seed)
        kind_doc.setdefault("kind", kind)
        merged = {**dataclasses.asdict(defaults), **kind_doc}
        train_configs[kind] = benchmarks.TrainConfig(
            **_filtered_kwargs(benchmarks.TrainConfig, merged, f"benchmarks.{kind}")
        )
    if bench_doc:
        raise ValueError(f"unknown benchmarks keys: {sorted(bench_doc)}")

    out_override = overrides.get("out")
    output_dir = Path(out_override if out_override is not None else doc.get("output_dir", "out"))
    if not output_dir.is_absolute():
        output_dir = base_dir / output_dir
    cache_dir = doc.get("cache_dir")
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        if not cache_dir.is_absolute():
            cache_dir = base_dir / cache_dir

    max_samples = overrides.get("max_samples")
    if max_samples is None:
        max_samples = doc.get("max_samples")

    return PipelineConfig(
        dataset_path=dataset_path,
        output_dir=output_dir,
        delimiter=dataset_doc.get("delimiter", "\t"),
        column_map=ColumnMap.from_json_dict(dataset_doc.get("column_map", {})),
        n_train=int(sampling.get("n_train", 1000)),
        n_test=int(sampling.get("n_test", 200)),
        seed=seed,
        prompt=PromptTemplateConfig(
            **_filtered_kwargs(PromptTemplateConfig, prompt_doc, "prompt")
        ),
        backend=BackendConfig(**_filtered_kwargs(BackendConfig, backend_doc, "backend")),
        benchmark_kinds=kinds,
        train_configs=train_configs,
        cache_dir=cache_dir,
        parse_failure_mode=doc.get("parse_failure_mode", "exclude"),
        max_samples=int(max_samples) if max_samples is not None else None,
    )


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "dataset_path": str(cfg.dataset_path),
        "delimiter": cfg.delimiter,
        "column_map": cfg.column_map.to_json_dict(),
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "seed": cfg.seed,
        "prompt": dataclasses.asdict(cfg.prompt),
        "backend": dataclasses.asdict(cfg.backend),
        "benchmark_kinds": list(cfg.benchmark_kinds),
        "train_configs": {k: dataclasses.asdict(v) for k, v in sorted(cfg.train_configs.items())},
        "parse_failure_mode": cfg.parse_failure_mode,
        "max_samples": cfg.effective_max_samples(),
    }


def config_digest(cfg: PipelineConfig) -> str:
    return digest_of(json.dumps(config_to_dict(cfg), sort_keys=True))


# ---------------------------------------------------------------------------
# stages


@contextmanager
def _stage(name: str):
    logger.info("stage %s: start", name)
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    logger.info("stage %s: done", name)


def ingest_key(cfg: PipelineConfig) -> str:
    return digest_of(
        cfg.dataset_path.read_bytes(),
        cfg.delimiter,
        json.dumps(cfg.column_map.to_json_dict(), sort_keys=True),
    )


def stage_ingest(cfg: PipelineConfig) -> list[ChoiceSituation]:
    """Read and validate the survey file; rerun every time, since reparsing
    it costs less than storing and reloading its situations."""
    columns = load_raw(cfg.dataset_path, cfg.column_map, delimiter=cfg.delimiter)
    return to_choice_situations(columns, cfg.column_map)


def sample_key(cfg: PipelineConfig) -> str:
    return digest_of(ingest_key(cfg), str(cfg.n_train), str(cfg.n_test), str(cfg.seed))


def stage_sample(
    cfg: PipelineConfig, situations: list[ChoiceSituation]
) -> tuple[list[ChoiceSituation], list[ChoiceSituation]]:
    path = stage_path(cfg.output_dir, "split", sample_key(cfg), suffix=".json")
    by_id = {s.situation_id: s for s in situations}

    def compute():
        train, test = balanced_split(situations, cfg.n_train, cfg.n_test, cfg.seed)
        return [s.situation_id for s in train], [s.situation_id for s in test]

    train_ids, test_ids = load_or_create(
        path,
        compute,
        serialize=lambda ids: json.dumps({"train": ids[0], "test": ids[1]}, indent=0) + "\n",
        deserialize=lambda text: (
            json.loads(text)["train"],
            json.loads(text)["test"],
        ),
    )
    return [by_id[i] for i in train_ids], [by_id[i] for i in test_ids]


def build_prompts(test: list[ChoiceSituation], cfg: PipelineConfig) -> list[Prompt]:
    return [build_prompt(s, cfg.prompt) for s in test]


def llm_key(cfg: PipelineConfig) -> str:
    b = cfg.backend
    return digest_of(
        sample_key(cfg),
        json.dumps(dataclasses.asdict(cfg.prompt), sort_keys=True),
        b.backend_kind,
        b.model_name,
        repr(float(b.temperature)),
        b.mock_rule if b.backend_kind == "mock" else "",
        str(cfg.effective_max_samples()),
    )


def stage_llm(cfg: PipelineConfig, test: list[ChoiceSituation]) -> list[dict]:
    """Predict the capped test set with the configured backend; returns one row
    per situation: {situation_id, prediction, reason, raw_text, error}."""
    path = stage_path(cfg.output_dir, "llm", llm_key(cfg))

    def compute():
        prompts = build_prompts(test, cfg)
        cache = CompletionCache(cfg.resolved_cache_dir)
        # builds the backend, and so checks its credential, before any request
        results = batch_complete(prompts, cfg.backend, cache)
        rows = []
        for result in results:
            if isinstance(result, CompletionFailure):
                rows.append(
                    {
                        "situation_id": result.situation_id,
                        "prediction": PARSE_FAILURE_MARKER,
                        "reason": "",
                        "raw_text": "",
                        "error": f"{result.error_type}: {result.message}",
                    }
                )
                continue
            try:
                parsed = parse_response(result.text, situation_id=result.situation_id)
                rows.append(
                    {
                        "situation_id": result.situation_id,
                        "prediction": parsed.mode.display,
                        "reason": parsed.reason,
                        "raw_text": "",
                        "error": "",
                        "parse_path": parsed.parse_path,
                    }
                )
            except ParseFailure as exc:
                rows.append(
                    {
                        "situation_id": result.situation_id,
                        "prediction": PARSE_FAILURE_MARKER,
                        "reason": "",
                        "raw_text": result.text,
                        "error": f"ParseFailure: {exc.detail}",
                    }
                )
        return rows

    return load_or_create(
        path,
        compute,
        serialize=lambda rows: "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
        deserialize=lambda text: [json.loads(line) for line in text.splitlines() if line],
    )


def stage_benchmarks(cfg: PipelineConfig, train: list[ChoiceSituation]) -> dict[str, tuple]:
    """Fit (or reload) each configured benchmark; returns kind -> (model, scaler)."""
    fitted = {}
    for kind in cfg.benchmark_kinds:
        train_cfg = cfg.train_configs[kind]
        key = digest_of(
            sample_key(cfg), json.dumps(dataclasses.asdict(train_cfg), sort_keys=True)
        )
        path = stage_path(cfg.output_dir, f"model-{kind}", key, suffix=".json")

        def compute(kind=kind, train_cfg=train_cfg):
            scaler = (
                benchmarks.fit_scaler(train)
                if train_cfg.standardize
                else benchmarks.FeatureScaler.identity()
            )
            model = benchmarks.fit_classifier(kind, train, train_cfg, scaler)
            return model, scaler

        fitted[kind] = load_or_create(
            path,
            compute,
            serialize=lambda pair: json.dumps(
                benchmarks.model_to_dict(pair[0], pair[1]), sort_keys=True
            )
            + "\n",
            deserialize=lambda text: benchmarks.model_from_dict(json.loads(text)),
        )
    return fitted


def _case_records(
    test: list[ChoiceSituation],
    llm_rows: list[dict],
    bench_predictions: dict[str, list],
) -> list[CaseRecord]:
    rows_by_id = {row["situation_id"]: row for row in llm_rows}
    records = []
    for i, situation in enumerate(test):
        row = rows_by_id[situation.situation_id]
        prediction = row["prediction"]
        summary = (
            f"{render_travel_characteristics(situation)}. "
            f"{render_individual_attributes(situation)}"
        )
        records.append(
            CaseRecord(
                situation_id=situation.situation_id,
                input_summary=summary,
                llm_prediction=(
                    None if prediction == PARSE_FAILURE_MARKER else ModeLabel.from_name(prediction)
                ),
                llm_reason=row["reason"],
                benchmark_predictions={k: preds[i] for k, preds in bench_predictions.items()},
                actual=situation.chosen,
                llm_raw_text=row["raw_text"] or row["error"],
            )
        )
    return records


def run_pipeline(cfg: PipelineConfig) -> EvaluationReport:
    """Execute every stage and return the evaluation report.

    Fully deterministic with the mock backend and a fixed seed: stage
    artifacts, the completion cache, and the report are byte-stable across
    reruns.
    """
    with _stage("ingest"):
        situations = stage_ingest(cfg)
    with _stage("sample"):
        train, test = stage_sample(cfg, situations)
        overlap = {s.situation_id for s in train} & {s.situation_id for s in test}
        if overlap:
            raise ValueError(f"train/test overlap: {sorted(overlap)[:5]}")
    cap = cfg.effective_max_samples()
    if cap is not None:
        test = test[:cap]
    with _stage("llm"):
        llm_rows = stage_llm(cfg, test)
    with _stage("benchmarks"):
        fitted = stage_benchmarks(cfg, train)
        bench_predictions = {}
        for kind, (model, scaler) in fitted.items():
            X = benchmarks.encode_matrix(test, scaler)
            bench_predictions[kind] = benchmarks.predict_labels(model, X)
    with _stage("report"):
        records = _case_records(test, llm_rows, bench_predictions)
        report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
        report = write_report(
            records,
            report_dir,
            parse_failure_mode=cfg.parse_failure_mode,
            config_digest=config_digest(cfg),
        )
    logger.info("pipeline complete; report in %s", report_dir)
    return report
