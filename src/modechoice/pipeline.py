"""End-to-end orchestration: ingest, balanced sampling, prompt rendering,
completion, parsing, benchmark training, and report writing, driven by one
declarative config file. Stage outputs after ingest are content-addressed
under the output directory, so reruns with unchanged inputs reuse stored
results; a report-only rerun needs no backend credential. The report is
stored too: a manifest records the sha256 of the report files and of the
split and answer files they were built from, and a run that finds them all
unchanged returns the stored report without ingesting, splitting, reading a
single answer or loading a model. A rebuild over stored stages reloads the
models that `fit-bench` or an earlier run stored, and predicts again. A cold
run forks its baseline workers before the LLM stage, answers the prompts in
this process while they fit, and takes each model's test labels from the
process that fitted it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import multiprocessing
import os
import threading
import time
import types
import typing
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import yaml

from . import benchmarks
from .artifacts import (
    digest_of, dump_json_lines, load_json_lines, load_or_create, stage_path, write_atomic
)
from .benchmarks.config import FIELDS_READ
from .benchmarks.model_io import FORMAT_VERSION as MODEL_FORMAT_VERSION
from .dataset import (
    MODE_ORDER, ColumnMap, SituationTable, balanced_split, load_raw, to_choice_situations
)
from .evaluation import (
    FAILURE_MODES,
    REPORT_FILES,
    CaseRecord,
    EvaluationReport,
    LlmAnswer,
    write_report,
)
from .gateway import (
    BackendConfig,
    CompletionCache,
    CompletionFailure,
    batch_complete,
    make_backend,
    request_digest,
)
from .parsing import ParseFailure, parse_response
from .prompting import (
    PromptTemplateConfig,
    # not called here: build_prompt, like SituationTable.__iter__, stays only for perfbench,
    # whose tracer wraps pipeline.build_prompt by name and whose probe renders row by row
    build_prompt,
    build_prompts,
    render_rows,
)

logger = logging.getLogger(__name__)

LIVE_MAX_SAMPLES_DEFAULT = 20
# Part of the stored report's key: bump it with any change to a report byte, so
# that an upgraded checkout rebuilds the reports it finds instead of serving them.
REPORT_FORMAT_VERSION = 1


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


_NAMES = {int: "an integer", str: "a string", Path: "a path", tuple[str, ...]: "a list of strings"}
_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types, resolved once


def _fits(value, hint) -> bool:
    """Whether a value has the type `hint`: an int is a float, a bool only a bool."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, member) for member in hint.__args__)
    if hint == tuple[str, ...]:
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, {float: (int, float), Path: (str, Path)}.get(hint, hint))


def _checked(value, hint, label: str):
    """The value, a list as a tuple, if it fits `hint` (None: as is); else a TypeError."""
    if hint is None:
        return value
    if not _fits(value, hint):
        members = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
        expected = [_NAMES.get(m, f"a {m.__name__}") for m in members if m is not type(None)]
        raise TypeError(f"{label} must be {' or '.join(expected)}, got {type(value).__name__}")
    return tuple(value) if isinstance(value, list) else value


def _section(value, context: str, hints) -> dict:
    """One mapping of the config file: absent or null reads as empty. A value
    that is not a mapping, a key outside `hints`, or a value that does not fit
    its key's hint is an error; a key without one (None, or `hints` is a list
    of keys) holds a section or a value read elsewhere."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{context} must be a mapping, got {type(value).__name__}")
    hints = hints if isinstance(hints, dict) else dict.fromkeys(hints)
    unknown = set(value) - set(hints)
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown, key=str)}")
    prefix = "" if context == "top-level" else f"{context}."
    return {key: _checked(v, hints[key], prefix + key) for key, v in value.items()}


def load_pipeline_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a YAML document plus CLI overrides.

    Paths in the document are read against its directory, the `out` override
    against the working directory. Each value must have the type its
    dataclass field declares, and is kept as written. A bad value, or a
    wrongly typed one, is one ValueError naming the file."""
    path = Path(path)
    base_dir = path.parent
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    text = path.read_text(encoding="utf-8")
    hint = _hints(PipelineConfig)
    try:
        doc = _section(
            yaml.safe_load(text),
            "top-level",
            {k: hint[k] for k in ("output_dir", "cache_dir", "parse_failure_mode", "max_samples")}
            | dict.fromkeys(("dataset", "sampling", "prompt", "backend", "benchmarks")),
        )
        fields = {"path": hint["dataset_path"], "delimiter": None, "column_map": None}
        dataset = _section(doc.get("dataset"), "dataset", fields)
        if "path" not in dataset:
            raise ValueError("config must set dataset.path")
        sampling = _section(
            doc.get("sampling"), "sampling", {k: hint[k] for k in ("n_train", "n_test", "seed")}
        )
        prompt = _section(doc.get("prompt"), "prompt", _hints(PromptTemplateConfig))
        backend = _section(doc.get("backend"), "backend", _hints(BackendConfig))
        if "backend" in overrides:
            backend["backend_kind"] = overrides["backend"]
        seed = overrides.get("seed", sampling.get("seed", 42))
        seed = _checked(seed, hint["seed"], "sampling.seed")  # an override is checked too

        all_kinds = benchmarks.BENCHMARK_KINDS
        bench = _section(doc.get("benchmarks"), "benchmarks", ("kinds", *all_kinds))
        kinds = _checked(bench.get("kinds", all_kinds), hint["benchmark_kinds"], "benchmarks.kinds")
        _section(bench, "benchmarks", ("kinds", *kinds))  # no section for a kind not run
        train_hint = _hints(benchmarks.TrainConfig)
        train = {kind: {k: train_hint[k] for k in read} for kind, read in FIELDS_READ.items()}
        train_configs = {
            kind: dataclasses.replace(
                benchmarks.default_train_config(kind, seed=seed),
                **_section(bench[kind], f"benchmarks.{kind}", train[kind]),
            )
            for kind in kinds
            if kind in bench
        }

        out = overrides.get("out")
        max_samples = overrides.get("max_samples", doc.get("max_samples"))
        max_samples = _checked(max_samples, hint["max_samples"], "max_samples")
        return PipelineConfig(
            dataset_path=base_dir / dataset["path"],
            output_dir=Path(out) if out is not None else base_dir / doc.get("output_dir", "out"),
            delimiter=dataset.get("delimiter", "\t"),
            column_map=ColumnMap.from_json_dict(
                _section(dataset.get("column_map"), "column_map", _hints(ColumnMap).keys())
            ),
            n_train=sampling.get("n_train", 1000),
            n_test=sampling.get("n_test", 200),
            seed=seed,
            prompt=PromptTemplateConfig(**prompt),
            backend=BackendConfig(**backend),
            benchmark_kinds=kinds,
            train_configs=train_configs,
            cache_dir=base_dir / doc["cache_dir"] if doc.get("cache_dir") is not None else None,
            parse_failure_mode=doc.get("parse_failure_mode", "exclude"),
            max_samples=max_samples,
        )
    except (ValueError, TypeError, AttributeError, yaml.YAMLError) as exc:
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


@stage("ingest")
def stage_ingest(cfg: PipelineConfig) -> SituationTable:
    """Read and validate the survey file into columns. It is not stored, since
    that takes about 10 ms for the paper's 10,728 rows, most of it numpy's C
    reader; a run whose stored report is reusable does not call it."""
    columns = load_raw(cfg.dataset_path, cfg.column_map, delimiter=cfg.delimiter)
    return to_choice_situations(columns, cfg.column_map)


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


@stage("sample")
def stage_sample(
    cfg: PipelineConfig, situations: SituationTable, split_key: str | None = None
) -> tuple[SituationTable, SituationTable]:
    position = {sid: i for i, sid in enumerate(situations.ids)}

    def deserialize(data):
        train, test = itemgetter("train", "test")(json.loads(data))
        unknown = {*train, *test} - position.keys()
        if unknown:
            raise ValueError(f"ids not in the survey: {sorted(unknown)[:5]}")
        if (len(train), len(test)) != (cfg.n_train, cfg.n_test):
            raise ValueError(f"not {cfg.n_train} train and {cfg.n_test} test ids")
        repeated = sorted(sid for sid, count in Counter([*train, *test]).items() if count > 1)
        if repeated:
            where = "train/test overlap" if set(train) & set(test) else "ids repeated"
            raise ValueError(f"{where}: {repeated[:5]}")
        return train, test

    train_ids, test_ids = load_or_create(
        split_path(cfg, split_key or sample_key(cfg)),
        lambda: [t.ids for t in balanced_split(situations, cfg.n_train, cfg.n_test, cfg.seed)],
        serialize=lambda ids: json.dumps({"train": ids[0], "test": ids[1]}, indent=0) + "\n",
        deserialize=deserialize,
    )
    return situations[[position[i] for i in train_ids]], situations[[position[i] for i in test_ids]]


def llm_key(cfg: PipelineConfig, split_key: str) -> str:
    return digest_of(
        split_key,
        json.dumps(dataclasses.asdict(cfg.prompt), sort_keys=True),
        request_digest(cfg.backend),
        str(cfg.effective_max_samples()),
    )


def llm_path(cfg: PipelineConfig, split_key: str) -> Path:
    return stage_path(cfg.output_dir, "llm", llm_key(cfg, split_key), ".jsonl.gz")


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


@stage("llm")
def stage_llm(
    cfg: PipelineConfig, test: SituationTable, split_key: str, rendered=None
) -> list[LlmAnswer]:
    """Predict the capped test set with the configured backend; returns one
    answer per situation, in test-set order. `rendered` is render_rows(test),
    where the caller has it already.

    The answers are stored as gzip'd JSON lines, one row each, and only when
    every request got a reply, so a transient backend failure is retried on the
    next run instead of being replayed. Stored answers must be the test set's,
    in its order."""
    path = llm_path(cfg, split_key)

    def compute():
        backend = make_backend(cfg.backend)  # checks the credential before any request
        prompts = build_prompts(test, cfg.prompt, rendered)
        cache = CompletionCache(cfg.resolved_cache_dir)
        results = batch_complete(prompts, cfg.backend, cache, backend=backend)
        return [_answer(result) for result in results]

    def store(answers):
        failures = sum(a.backend_failure for a in answers)
        if failures:
            logger.warning(
                "%d backend failures; not storing %s, so a rerun retries them",
                failures,
                path.name,
            )
        return not failures

    def deserialize(data):
        answers = [LlmAnswer.from_json_dict(row) for row in load_json_lines(data)]
        if [a.situation_id for a in answers] != test.ids:
            raise ValueError(f"not the answers of the {len(test)} test situations, in order")
        return answers

    return load_or_create(
        path,
        compute,
        serialize=lambda answers: dump_json_lines(
            (a.to_json_dict() for a in answers), sort_keys=True
        ),
        deserialize=deserialize,
        store=store,
    )


def _model_key(cfg: PipelineConfig, kind: str, split_key: str) -> str:
    return digest_of(
        split_key,
        str(MODEL_FORMAT_VERSION),
        json.dumps(vars(cfg.train_configs[kind]), sort_keys=True),
    )


def model_path(cfg: PipelineConfig, kind: str, split_key: str) -> Path:
    return stage_path(cfg.output_dir, f"model-{kind}", _model_key(cfg, kind, split_key), ".json")


def model_text(model, scaler) -> str:
    """A fitted model and its scaler as stored: versioned JSON, one line."""
    return json.dumps(benchmarks.model_to_dict(model, scaler), sort_keys=True) + "\n"


def _fit_in_order(fit, kinds) -> dict:
    """kind -> fit(kind) for each kind in order, up to the first whose fit
    raises; that kind maps to its exception."""
    outcomes = {}
    for kind in kinds:
        try:
            outcomes[kind] = fit(kind)
        except Exception as exc:
            outcomes[kind] = exc
            break
    return outcomes


def _send_fits(fit, kinds, writer) -> None:
    """A worker's target: it sends its outcomes, a failed fit's error among
    them, and never raises one."""
    writer.send(_fit_in_order(fit, kinds))


def _fit_side_by_side(fit, kinds: list[str], meanwhile=lambda: None) -> dict:
    """The outcomes of _fit_in_order for the kinds dealt round-robin into one
    share per usable CPU, with `meanwhile()` run in this process once the
    workers have started. Each share after the first is fitted in a worker
    process of multiprocessing's fork context, which sends its outcomes back
    through a one-way pipe; this process runs `meanwhile`, then fits the
    first share. Everything is fitted here, after `meanwhile`, when there is
    one CPU or kind, when os.sched_getaffinity is missing, or when another
    thread is alive, since forking beside live threads can deadlock. If this
    process fails, `meanwhile` included, every worker is killed and reaped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_shares = min(cpus, len(kinds))
    if n_shares < 2 or threading.active_count() > 1:
        n_shares = 1
    shares = [kinds[i::n_shares] for i in range(n_shares)]
    workers = []  # (process, read end of its pipe, its kinds), in share order
    outcomes = {}
    try:
        for share in shares[1:]:
            context = multiprocessing.get_context("fork")  # only with sched_getaffinity, so fork
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=_send_fits, args=(fit, share, writer))
            with writer:  # closed here once the worker has its own copy
                try:
                    process.start()
                except BaseException:
                    reader.close()
                    raise
            workers.append((process, reader, share))
        meanwhile()
        outcomes.update(_fit_in_order(fit, shares[0]))
        for process, reader, share in workers:
            try:
                received = reader.recv()  # before join, so a full pipe cannot block it
            except (EOFError, OSError):  # it ended before sending them whole
                received = None
            process.join()
            if process.exitcode != 0 or received is None:
                raise benchmarks.BenchmarkError(
                    f"the worker fitting {share} exited with status {process.exitcode}"
                    " without a result"
                )
            outcomes.update(received)
    finally:
        for process, reader, _ in workers:  # kill and join: no-ops once joined
            reader.close()
            process.kill()
            process.join()
            process.close()  # its descriptors, else kept while a traceback holds it
    return outcomes


@stage("benchmarks")
def stage_benchmarks(
    cfg: PipelineConfig,
    train: SituationTable,
    split_key: str | None = None,
    test: SituationTable | None = None,
    meanwhile=lambda: None,
) -> dict:
    """Fit (or reload) each configured benchmark; returns kind -> (model,
    scaler), or, given `test` rows, kind -> the labels predicted for them.
    The kinds with no stored model are fitted side by side by
    _fit_side_by_side, one share of them per usable CPU, each share after the
    first in a forked worker, with `meanwhile()` run here while the workers
    fit. A newly fitted model predicts the test rows in the process that
    fitted it; a stored one, in this process once it is loaded. This process
    stores the fitted models in order, as fitting them one by one would: up
    to the first whose fit failed, whichever process fitted it, and raises
    that fit's error. An error of `meanwhile` is raised as it is, and no
    model is stored."""
    split_key = split_key or sample_key(cfg)
    paths = {kind: model_path(cfg, kind, split_key) for kind in cfg.benchmark_kinds}

    def predict(model, scaler):
        return benchmarks.predict_labels(model, benchmarks.encode_matrix(test, scaler))

    def fit(kind):
        scaler = benchmarks.fit_scaler(train)
        model = benchmarks.fit_classifier(kind, train, cfg.train_configs[kind], scaler)
        return model, scaler, None if test is None else predict(model, scaler)

    to_fit = [kind for kind, path in paths.items() if not path.exists()]
    outcomes = _fit_side_by_side(fit, to_fit, meanwhile)

    def fitted(kind):
        if kind not in outcomes:  # its file was there when the kinds to fit were chosen
            return fit(kind)
        if isinstance(outcomes[kind], Exception):
            raise outcomes.pop(kind)
        return outcomes.pop(kind)

    done = {
        kind: load_or_create(
            path,
            functools.partial(fitted, kind),
            serialize=lambda triple: model_text(*triple[:2]),
            deserialize=lambda data: (*benchmarks.model_from_dict(json.loads(data)), None),
        )
        for kind, path in paths.items()
    }
    if test is None:
        return {kind: (model, scaler) for kind, (model, scaler, _) in done.items()}
    return {
        kind: predict(model, scaler) if labels is None else labels
        for kind, (model, scaler, labels) in done.items()
    }


def _case_records(
    test: SituationTable,
    answers: list[LlmAnswer],
    bench_predictions: dict[str, list],
    rendered=None,
) -> list[CaseRecord]:
    characteristics, attributes = rendered or render_rows(test)
    return [
        CaseRecord(
            llm=answer,
            input_summary=f"{characteristics[i]}. {attributes[i]}",
            benchmark_predictions={k: preds[i] for k, preds in bench_predictions.items()},
            actual=MODE_ORDER[chosen],
        )
        for i, (answer, chosen) in enumerate(zip(answers, test.chosen.tolist(), strict=True))
    ]


def prepare_split(
    cfg: PipelineConfig, split_key: str | None = None
) -> tuple[str, SituationTable, SituationTable]:
    """Ingest, split and cap: the prefix every run shares. Returns the split
    key (the dataset is hashed here unless the caller passes it), the
    training set, and the test set cut to the configured cap."""
    situations = stage_ingest(cfg)
    split_key = split_key or sample_key(cfg)
    train, test = stage_sample(cfg, situations, split_key)
    cap = cfg.effective_max_samples()
    if cap is not None:
        test = test[:cap]
    return split_key, train, test


def _digests(files: dict[str, Path]) -> dict[str, str]:
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}


def _unchanged(manifest: Path, files: dict[str, Path]) -> bool:
    """Whether the manifest holds the sha256 of every file's current bytes."""
    try:
        return json.loads(manifest.read_bytes()) == _digests(files)
    except (OSError, ValueError):  # a file missing or unreadable, or a damaged manifest
        return False


def report_dir(cfg: PipelineConfig, digest: str | None = None) -> Path:
    return cfg.output_dir / f"report-{(digest or config_digest(cfg))[:12]}"


def run_pipeline(cfg: PipelineConfig, split_key: str | None = None) -> EvaluationReport:
    """Execute every stage and return the evaluation report. A caller that
    has already computed sample_key(cfg) passes it as split_key. The models
    come from stage_benchmarks, as in `fit-bench`, which runs stage_llm in
    this process while its workers fit, and returns each kind's labels for
    the capped test rows.

    The report is stored as a stage. Its manifest maps the split and LLM
    files and the three report files to their sha256, and is keyed by
    REPORT_FORMAT_VERSION, the config digest, the LLM key, each configured
    kind's model key and those files' names, so a new MODEL_FORMAT_VERSION
    rebuilds the report over refitted models. While every digest matches, a
    run reads report.json back and runs no stage; any mismatch or missing
    file rebuilds the report as before, which rewrites the manifest. A
    manifest is written only when every input file is stored, so a run with
    backend failures leaves none and its rerun retries them.

    Fully deterministic with the mock backend and a fixed seed: stage
    artifacts, the completion cache, and the report are byte-stable across
    reruns.
    """
    split_key = split_key or sample_key(cfg)
    digest = config_digest(cfg)
    directory = report_dir(cfg, digest)
    answers_key = llm_key(cfg, split_key)
    paths = [
        split_path(cfg, split_key),
        llm_path(cfg, split_key),
        *(directory / name for name in REPORT_FILES),
    ]
    files = {path.relative_to(cfg.output_dir).as_posix(): path for path in paths}
    model_keys = [_model_key(cfg, kind, split_key) for kind in cfg.benchmark_kinds]
    key = digest_of(str(REPORT_FORMAT_VERSION), digest, answers_key, *model_keys, *files)
    manifest = stage_path(cfg.output_dir, "report", key, suffix=".json")
    if _unchanged(manifest, files):
        with stage("report"):
            logger.info("reusing report %s", directory)
            stored = json.loads((directory / "report.json").read_bytes())
            return EvaluationReport.from_json_dict(stored)

    _, train, test = prepare_split(cfg, split_key)
    rendered, answers = [], []

    def llm():  # runs here while the workers fit; renders the rows the report shows too
        rendered.extend(render_rows(test))
        answers.extend(stage_llm(cfg, test, split_key, rendered))

    bench_predictions = stage_benchmarks(cfg, train, split_key, test, llm)
    with stage("report"):
        records = _case_records(test, answers, bench_predictions, rendered)
        report = write_report(
            records,
            directory,
            parse_failure_mode=cfg.parse_failure_mode,
            config_digest=digest,
        )
        try:
            text = json.dumps(_digests(files), indent=0, sort_keys=True) + "\n"
        except FileNotFoundError:  # the answers had backend failures and were not stored
            pass
        else:
            write_atomic(manifest, text.encode("utf-8"))
    logger.info("pipeline complete; report in %s", directory)
    return report
