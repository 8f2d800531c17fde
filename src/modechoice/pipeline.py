"""End-to-end orchestration: ingest, balanced sampling, prompt rendering,
completion, parsing, benchmark training, and report writing, driven by one
declarative config file. Stage outputs after ingest are content-addressed
under the output directory, so reruns with unchanged inputs reuse stored
results; a report-only rerun needs no backend credential. The report is
stored too, with a manifest (`keys`), and a run that finds its files
unchanged returns the stored report without ingesting, splitting, reading a
single answer or loading a model. A rebuild over stored stages reloads the
models that `fit-bench` or an earlier run stored, and predicts again. A cold
run forks its baseline workers before the LLM stage, answers the prompts in
this process while they fit, and takes each model's test labels from the
process that fitted it.

Importing it loads every stage module, numpy with them. The config, the
stage keys and the report live in `config`, `keys` and `report`, which need
none; the names taken from there stay importable from here: `run_pipeline`
among them, and `ingest_key` and `write_report` for perfbench's tracer,
which wraps each by its name in this module.
"""

from __future__ import annotations

import functools
import json
import logging
import multiprocessing
import os
import threading
from collections import Counter
from operator import itemgetter

from . import benchmarks
from .artifacts import dump_json_lines, load_json_lines, load_or_create
from .config import MODE_ORDER, PipelineConfig, config_digest, load_pipeline_config
from .dataset import SituationTable, balanced_split, load_raw, to_choice_situations
from .gateway import CompletionCache, CompletionFailure, batch_complete, make_backend
from .keys import (
    PipelineError,
    ingest_key,
    llm_path,
    model_path,
    report_dir,
    report_manifest,
    run_pipeline,
    sample_key,
    split_path,
    stage,
    store_manifest,
)
from .parsing import ParseFailure, parse_response
from .prompting import (
    # not called here: build_prompt, like SituationTable.__iter__, stays only for perfbench,
    # whose tracer wraps pipeline.build_prompt by name and whose probe renders row by row
    build_prompt,
    build_prompts,
    render_rows,
)
from .report import CaseRecord, EvaluationReport, LlmAnswer, write_report

logger = logging.getLogger(__name__)


@stage("ingest")
def stage_ingest(cfg: PipelineConfig) -> SituationTable:
    """Read and validate the survey file into columns. It is not stored, since
    that takes about 10 ms for the paper's 10,728 rows, most of it numpy's C
    reader; a run whose stored report is reusable does not call it."""
    columns = load_raw(cfg.dataset_path, cfg.column_map, delimiter=cfg.delimiter)
    return to_choice_situations(columns, cfg.column_map)


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


def run_stages(cfg: PipelineConfig, split_key: str) -> EvaluationReport:
    """Execute every stage, write the report and its manifest, and return the
    report. The models come from stage_benchmarks, as in `fit-bench`, which
    runs stage_llm in this process while its workers fit, and returns each
    kind's labels for the capped test rows. The manifest is written only when
    every input file is stored, so a run with backend failures leaves none
    and its rerun retries them."""
    _, train, test = prepare_split(cfg, split_key)
    rendered, answers = [], []

    def llm():  # runs here while the workers fit; renders the rows the report shows too
        rendered.extend(render_rows(test))
        answers.extend(stage_llm(cfg, test, split_key, rendered))

    bench_predictions = stage_benchmarks(cfg, train, split_key, test, llm)
    digest = config_digest(cfg)
    directory = report_dir(cfg, digest)
    with stage("report"):
        records = _case_records(test, answers, bench_predictions, rendered)
        report = write_report(
            records,
            directory,
            parse_failure_mode=cfg.parse_failure_mode,
            config_digest=digest,
        )
        store_manifest(*report_manifest(cfg, split_key, digest))
    logger.info("pipeline complete; report in %s", directory)
    return report
