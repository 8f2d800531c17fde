"""End-to-end orchestration: ingest, balanced sampling, prompt rendering,
completion, parsing, benchmark training, and report writing, driven by one
declarative config file. Stage outputs after ingest are content-addressed
under the output directory, so reruns with unchanged inputs reuse stored
results; a report-only rerun needs no backend credential. Each baseline's
test-set predictions are stored apart from its model, so a warm run reads
them and loads, encodes and predicts nothing.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import yaml

from . import benchmarks
from .artifacts import digest_of, load_or_create, stage_path
from .benchmarks.model_io import FORMAT_VERSION as MODEL_FORMAT_VERSION
from .dataset import (
    MODE_ORDER,
    ChoiceSituation,
    ColumnMap,
    balanced_split,
    load_raw,
    to_choice_situations,
)
from .evaluation import FAILURE_MODES, CaseRecord, EvaluationReport, LlmAnswer, write_report
from .gateway import (
    BackendConfig,
    CompletionCache,
    CompletionFailure,
    batch_complete,
    make_backend,  # noqa: F401 -- unused here, but perfbench's tracer wraps it by name
    request_digest,
)
from .parsing import ParseFailure, parse_response
from .prompting import (
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
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
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


_TOP_LEVEL_KEYS = (
    "dataset sampling prompt backend benchmarks output_dir cache_dir parse_failure_mode max_samples"
).split()
_TRAIN_KEYS = [f.name for f in dataclasses.fields(benchmarks.TrainConfig) if f.name != "kind"]


def _section(value, context: str, keys) -> dict:
    """One mapping of the config file: absent or null reads as empty; a value
    that is not a mapping, or a key outside `keys` (names or a dataclass), is an error."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{context} must be a mapping, got {type(value).__name__}")
    if isinstance(keys, type):
        keys = [f.name for f in dataclasses.fields(keys)]
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown, key=str)}")
    return value


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{context} must be an integer, got {type(value).__name__}")
    return value


def _strings(value, context: str) -> tuple[str, ...]:
    """A list of strings; a bare string is an error, not a list of its characters."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{context} must be a list of strings, got {type(value).__name__}")
    return tuple(value)


def load_pipeline_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a YAML document plus CLI overrides.

    Paths in the document are read against its directory, the `out` override
    against the working directory. A value of the wrong type is one
    ValueError naming the file."""
    path = Path(path)
    base_dir = path.parent
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    text = path.read_text(encoding="utf-8")
    try:
        doc = _section(yaml.safe_load(text), "top-level", _TOP_LEVEL_KEYS)
        dataset = _section(doc.get("dataset"), "dataset", ("path", "delimiter", "column_map"))
        if "path" not in dataset:
            raise ValueError("config must set dataset.path")
        sampling = _section(doc.get("sampling"), "sampling", ("n_train", "n_test", "seed"))
        prompt = dict(_section(doc.get("prompt"), "prompt", PromptTemplateConfig))
        for key in ("domain_knowledge_texts", "component_order"):
            if key in prompt:
                prompt[key] = _strings(prompt[key], f"prompt.{key}")
        backend = dict(_section(doc.get("backend"), "backend", BackendConfig))
        if "backend" in overrides:
            backend["backend_kind"] = overrides["backend"]
        seed = _integer(overrides.get("seed", sampling.get("seed", 42)), "sampling.seed")

        all_kinds = benchmarks.BENCHMARK_KINDS
        bench = _section(doc.get("benchmarks"), "benchmarks", ("kinds", *all_kinds))
        kinds = _strings(bench.get("kinds", all_kinds), "benchmarks.kinds")
        _section(bench, "benchmarks", ("kinds", *kinds))  # no section for a kind not run
        train_configs = {
            kind: dataclasses.replace(
                benchmarks.default_train_config(kind, seed=seed),
                **_section(bench[kind], f"benchmarks.{kind}", _TRAIN_KEYS),
            )
            for kind in kinds
            if kind in bench
        }

        out = overrides.get("out")
        max_samples = overrides.get("max_samples", doc.get("max_samples"))
        return PipelineConfig(
            dataset_path=base_dir / dataset["path"],
            output_dir=Path(out) if out is not None else base_dir / doc.get("output_dir", "out"),
            delimiter=dataset.get("delimiter", "\t"),
            column_map=ColumnMap.from_json_dict(
                _section(dataset.get("column_map"), "column_map", ColumnMap)
            ),
            n_train=_integer(sampling.get("n_train", 1000), "sampling.n_train"),
            n_test=_integer(sampling.get("n_test", 200), "sampling.n_test"),
            seed=seed,
            prompt=PromptTemplateConfig(**prompt),
            backend=BackendConfig(**backend),
            benchmark_kinds=kinds,
            train_configs=train_configs,
            cache_dir=base_dir / doc["cache_dir"] if doc.get("cache_dir") is not None else None,
            parse_failure_mode=doc.get("parse_failure_mode", "exclude"),
            max_samples=None if max_samples is None else _integer(max_samples, "max_samples"),
        )
    except (TypeError, AttributeError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc


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
def stage(name: str):
    """Run a block as the named stage: a failure in it becomes a PipelineError."""
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
    """Key of the split, and the prefix of every later stage's key. It hashes
    the survey file, so a run computes it once and hands it to each stage;
    a stage called without it computes it again."""
    return digest_of(ingest_key(cfg), str(cfg.n_train), str(cfg.n_test), str(cfg.seed))


def stage_sample(
    cfg: PipelineConfig, situations: list[ChoiceSituation], split_key: str | None = None
) -> tuple[list[ChoiceSituation], list[ChoiceSituation]]:
    split_key = split_key or sample_key(cfg)
    path = stage_path(cfg.output_dir, "split", split_key, suffix=".json")
    by_id = {s.situation_id: s for s in situations}

    def compute():
        train, test = balanced_split(situations, cfg.n_train, cfg.n_test, cfg.seed)
        return [s.situation_id for s in train], [s.situation_id for s in test]

    train_ids, test_ids = load_or_create(
        path,
        compute,
        serialize=lambda ids: json.dumps({"train": ids[0], "test": ids[1]}, indent=0) + "\n",
        deserialize=lambda text: itemgetter("train", "test")(json.loads(text)),
    )
    return [by_id[i] for i in train_ids], [by_id[i] for i in test_ids]


def llm_key(cfg: PipelineConfig, split_key: str | None = None) -> str:
    return digest_of(
        split_key or sample_key(cfg),
        json.dumps(dataclasses.asdict(cfg.prompt), sort_keys=True),
        request_digest(cfg.backend),
        str(cfg.effective_max_samples()),
    )


def _answer(result) -> LlmAnswer:
    """One completion outcome as an answer: no reply, a parsed reply, or one
    that did not parse."""
    if isinstance(result, CompletionFailure):
        error = f"{result.error_type}: {result.message}"
        return LlmAnswer(result.situation_id, None, error=error, backend_failure=True)
    try:
        parsed = parse_response(result.text)
    except ParseFailure as exc:
        return LlmAnswer(
            result.situation_id, None, raw_text=result.text, error=f"ParseFailure: {exc.detail}"
        )
    return LlmAnswer(
        result.situation_id, parsed.mode, reason=parsed.reason, parse_path=parsed.parse_path
    )


def stage_llm(
    cfg: PipelineConfig, test: list[ChoiceSituation], split_key: str | None = None
) -> list[LlmAnswer]:
    """Predict the capped test set with the configured backend; returns one
    answer per situation, in test-set order.

    The answers are stored only when every request got a reply, so a transient
    backend failure is retried on the next run instead of being replayed."""
    path = stage_path(cfg.output_dir, "llm", llm_key(cfg, split_key))

    def compute():
        prompts = [build_prompt(s, cfg.prompt) for s in test]
        cache = CompletionCache(cfg.resolved_cache_dir)
        # builds the backend, and so checks its credential, before any request
        return [_answer(result) for result in batch_complete(prompts, cfg.backend, cache)]

    def store(answers):
        failures = sum(a.backend_failure for a in answers)
        if failures:
            logger.warning(
                "%d backend failures; not storing %s, so a rerun retries them",
                failures,
                path.name,
            )
        return not failures

    return load_or_create(
        path,
        compute,
        serialize=lambda answers: "".join(
            json.dumps(a.to_json_dict(), sort_keys=True) + "\n" for a in answers
        ),
        deserialize=lambda text: [
            LlmAnswer.from_json_dict(json.loads(line)) for line in text.splitlines() if line
        ],
        store=store,
    )


def _model_key(cfg: PipelineConfig, kind: str, split_key: str) -> str:
    return digest_of(
        split_key,
        str(MODEL_FORMAT_VERSION),
        json.dumps(dataclasses.asdict(cfg.train_configs[kind]), sort_keys=True),
    )


def _fit_or_load(cfg: PipelineConfig, kind: str, train: list[ChoiceSituation], split_key: str):
    """One benchmark kind as (model, scaler), fitted or reloaded."""

    def compute():
        scaler = benchmarks.fit_scaler(train)
        return benchmarks.fit_classifier(kind, train, cfg.train_configs[kind], scaler), scaler

    return load_or_create(
        stage_path(cfg.output_dir, f"model-{kind}", _model_key(cfg, kind, split_key), ".json"),
        compute,
        serialize=lambda pair: json.dumps(benchmarks.model_to_dict(*pair), sort_keys=True) + "\n",
        deserialize=lambda text: benchmarks.model_from_dict(json.loads(text)),
    )


def stage_benchmarks(
    cfg: PipelineConfig, train: list[ChoiceSituation], split_key: str | None = None
) -> dict[str, tuple]:
    """Fit (or reload) each configured benchmark; returns kind -> (model, scaler)."""
    split_key = split_key or sample_key(cfg)
    return {kind: _fit_or_load(cfg, kind, train, split_key) for kind in cfg.benchmark_kinds}


def stage_labels(
    cfg: PipelineConfig, train: list[ChoiceSituation], test: list[ChoiceSituation], split_key: str
) -> dict[str, list]:
    """Each configured benchmark's predicted mode per capped test situation.
    They are stored per kind, as class indices under the model key and the
    cap, so a model is read, or fitted, only when its labels are missing."""

    def labels(kind):
        key = digest_of(_model_key(cfg, kind, split_key), str(cfg.effective_max_samples()))
        path = stage_path(cfg.output_dir, f"labels-{kind}", key, suffix=".json")

        def compute():
            model, scaler = _fit_or_load(cfg, kind, train, split_key)
            return benchmarks.predict_labels(model, benchmarks.encode_matrix(test, scaler))

        def deserialize(text):
            values = json.loads(text)
            if not isinstance(values, list) or len(values) != len(test) or set(values) - {0, 1, 2}:
                raise ValueError(f"not a list of {len(test)} class indices in 0..2")
            return [MODE_ORDER[v] for v in values]

        return load_or_create(
            path,
            compute,
            lambda preds: json.dumps(list(map(int, preds)), separators=(",", ":")) + "\n",
            deserialize,
        )

    return {kind: labels(kind) for kind in cfg.benchmark_kinds}


def _case_records(
    test: list[ChoiceSituation],
    answers: list[LlmAnswer],
    bench_predictions: dict[str, list],
) -> list[CaseRecord]:
    by_id = {answer.situation_id: answer for answer in answers}
    return [
        CaseRecord(
            llm=by_id[s.situation_id],
            input_summary=f"{render_travel_characteristics(s)}. {render_individual_attributes(s)}",
            benchmark_predictions={k: preds[i] for k, preds in bench_predictions.items()},
            actual=s.chosen,
        )
        for i, s in enumerate(test)
    ]


def prepare_split(
    cfg: PipelineConfig, split_key: str | None = None
) -> tuple[str, list[ChoiceSituation], list[ChoiceSituation]]:
    """Ingest, split and cap: the prefix every run shares. Returns the split
    key (the dataset is hashed here unless the caller passes it), the
    training set, and the test set cut to the configured cap."""
    with stage("ingest"):
        situations = stage_ingest(cfg)
    with stage("sample"):
        split_key = split_key or sample_key(cfg)
        train, test = stage_sample(cfg, situations, split_key)
        overlap = {s.situation_id for s in train} & {s.situation_id for s in test}
        if overlap:
            raise ValueError(f"train/test overlap: {sorted(overlap)[:5]}")
    cap = cfg.effective_max_samples()
    if cap is not None:
        test = test[:cap]
    return split_key, train, test


def run_pipeline(cfg: PipelineConfig, split_key: str | None = None) -> EvaluationReport:
    """Execute every stage and return the evaluation report. A caller that
    has already computed sample_key(cfg) passes it as split_key.

    Fully deterministic with the mock backend and a fixed seed: stage
    artifacts, the completion cache, and the report are byte-stable across
    reruns.
    """
    split_key, train, test = prepare_split(cfg, split_key)
    with stage("llm"):
        answers = stage_llm(cfg, test, split_key)
    with stage("benchmarks"):
        bench_predictions = stage_labels(cfg, train, test, split_key)
    with stage("report"):
        records = _case_records(test, answers, bench_predictions)
        digest = config_digest(cfg)
        report_dir = cfg.output_dir / f"report-{digest[:12]}"
        report = write_report(
            records,
            report_dir,
            parse_failure_mode=cfg.parse_failure_mode,
            config_digest=digest,
        )
    logger.info("pipeline complete; report in %s", report_dir)
    return report
