import dataclasses
import errno
import gzip
import hashlib
import json
import logging
import multiprocessing.popen_fork
import os
import re
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from modechoice import pipeline
from modechoice.artifacts import digest_of, load_or_create, stage_path
from modechoice.benchmarks import BenchmarkError, ClassMissing, EmptyTrainingSet, NonFiniteLoss
from modechoice.cli import main
from modechoice.dataset import (
    ColumnMap,
    ModeLabel,
    SituationTable,
    balanced_split,
    load_raw,
    to_choice_situations,
)
from modechoice.evaluation import LlmAnswer, write_report
from modechoice.gateway import MissingCredential
from modechoice.pipeline import (
    PipelineError,
    config_digest,
    load_pipeline_config,
    run_pipeline,
    sample_key,
)
from modechoice.prompting import build_prompts

from conftest import make_situation, synthetic_raw_rows, table_of, write_survey_file

CONFIG_TEMPLATE = """\
dataset:
  path: survey.dat
sampling:
  n_train: 120
  n_test: 45
  seed: 11
backend:
  backend_kind: mock
  mock_rule: {mock_rule}
benchmarks:
  kinds: [mnl, rf, nn]
  mnl: {{max_epochs: 300}}
  rf: {{n_trees: 5}}
  nn: {{hidden_units: 8, max_epochs: 15}}
output_dir: out
parse_failure_mode: exclude
"""


@pytest.fixture
def workspace(tmp_path):
    write_survey_file(tmp_path / "survey.dat", synthetic_raw_rows(600, seed=7))
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CONFIG_TEMPLATE.format(mock_rule="generalized_cost"))
    return tmp_path


def oracle_accuracy(dataset_path, n_train, n_test, seed):
    """Brute-force reference: re-derive the test split and apply the
    time-plus-cost rule directly to each situation."""
    cmap = ColumnMap()
    situations = to_choice_situations(load_raw(dataset_path, cmap), cmap)
    _, test = balanced_split(situations, n_train, n_test, seed)
    hits = 0
    for situation in test:
        best, best_total = None, None
        for mode in ModeLabel:
            total = situation.travel_time_min[mode] + situation.travel_cost[mode]
            if best_total is None or total < best_total:
                best, best_total = mode, total
        hits += best == situation.chosen
    return hits / len(test)


def test_load_pipeline_config_defaults_and_overrides(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml")
    assert cfg.dataset_path == workspace / "survey.dat"
    assert cfg.n_train == 120 and cfg.n_test == 45 and cfg.seed == 11
    assert cfg.backend.backend_kind == "mock"
    assert cfg.train_configs["rf"].n_trees == 5
    assert cfg.train_configs["nn"].hidden_units == 8
    assert cfg.train_configs["mnl"].l2_strength == 1.0
    assert cfg.effective_max_samples() is None

    overridden = load_pipeline_config(
        workspace / "config.yaml",
        {"seed": 99, "backend": "http_chat", "max_samples": 10, "out": str(workspace / "o2")},
    )
    assert overridden.seed == 99
    assert overridden.backend.backend_kind == "http_chat"
    assert overridden.effective_max_samples() == 10
    assert overridden.output_dir == workspace / "o2"


def test_live_backend_defaults_to_small_cap(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml", {"backend": "http_chat"})
    assert cfg.effective_max_samples() == 20
    lifted = load_pipeline_config(
        workspace / "config.yaml", {"backend": "http_chat", "max_samples": 0}
    )
    assert lifted.effective_max_samples() is None


def test_config_rejects_unknown_keys(workspace):
    config = CONFIG_TEMPLATE.format(mock_rule="min_time")
    path = "  path: survey.dat\n"
    seed = "  seed: 11\n"
    for section, text in [
        ("prompt", config + "prompt:\n  not_a_key: 1\n"),
        ("dataset", config.replace(path, path + "  not_a_key: 1\n")),
        ("column_map", config.replace(path, path + "  column_map: {not_a_key: NOPE}\n")),
        ("sampling", config.replace(seed, seed + "  not_a_key: 1\n")),
        ("top-level", config + "not_a_key: 1\n"),
    ]:
        (workspace / "bad.yaml").write_text(text)
        with pytest.raises(ValueError, match=rf"unknown {section} keys: \['not_a_key'\]"):
            load_pipeline_config(workspace / "bad.yaml")


BASE = CONFIG_TEMPLATE.format(mock_rule="min_time")
PATH_LINE = "  path: survey.dat\n"
SAMPLING = "sampling:\n  n_train: 120\n  n_test: 45\n  seed: 11\n"
BACKEND = "backend:\n  backend_kind: mock\n  mock_rule: min_time\n"
RF_LINE = "  rf: {n_trees: 5}\n"
NN_LINE = "  nn: {hidden_units: 8, max_epochs: 15}\n"
MAX_FEATURES = "max_features must be 'sqrt' or an int in [1, 8]"


@pytest.mark.parametrize(
    "old, absent, null",
    [
        (PATH_LINE, PATH_LINE, PATH_LINE + "  column_map: null\n"),
        ("output_dir: out\n", "output_dir: out\n", "output_dir: out\nprompt: null\n"),
        (BACKEND, "", "backend: null\n"),
        (RF_LINE, "", "  rf: null\n"),
        (SAMPLING, "", "sampling:\n"),
    ],
    ids=["column_map", "prompt", "backend", "rf", "sampling"],
)
def test_config_null_section_reads_as_defaults(workspace, old, absent, null):
    (workspace / "absent.yaml").write_text(BASE.replace(old, absent))
    (workspace / "null.yaml").write_text(BASE.replace(old, null))
    assert load_pipeline_config(workspace / "null.yaml") == load_pipeline_config(
        workspace / "absent.yaml"
    )


def test_config_digest_is_pinned(tmp_path):
    # the dataset path is part of the digest, so pin it to one that does not
    # depend on where the repository is checked out
    sample = Path(__file__).resolve().parents[1] / "config.sample.yaml"
    text = sample.read_text(encoding="utf-8")
    text = text.replace("path: data/sample.dat", "path: /srv/survey.dat")
    assert "/srv/survey.dat" in text
    (tmp_path / "config.yaml").write_text(text)
    cfg = load_pipeline_config(tmp_path / "config.yaml")
    assert config_digest(cfg) == "d185e94d2381e51c6f80183f549b2b168ff55fceb16e13793f7103c538e6d153"
    overrides = {"seed": 7, "backend": "http_chat", "max_samples": 0}
    cfg = load_pipeline_config(tmp_path / "config.yaml", overrides)
    assert config_digest(cfg) == "88d0e028134157545df1e25b3688b0d9e4fec0771fcc49b4a4f426b7a1742be9"


@pytest.mark.parametrize("delimiter", ['"ab"', '""', "1"])
def test_config_rejects_a_delimiter_that_is_not_one_character(workspace, delimiter):
    path = "  path: survey.dat\n"
    config = CONFIG_TEMPLATE.format(mock_rule="min_time")
    (workspace / "bad.yaml").write_text(config.replace(path, f"{path}  delimiter: {delimiter}\n"))
    with pytest.raises(ValueError, match="delimiter must be one character"):
        load_pipeline_config(workspace / "bad.yaml")


def test_config_digest_tracks_content(workspace):
    cfg_a = load_pipeline_config(workspace / "config.yaml")
    cfg_b = load_pipeline_config(workspace / "config.yaml")
    assert config_digest(cfg_a) == config_digest(cfg_b)
    cfg_c = load_pipeline_config(workspace / "config.yaml", {"seed": 12})
    assert config_digest(cfg_c) != config_digest(cfg_a)


def test_run_pipeline_matches_oracle_exactly(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml")
    report = run_pipeline(cfg)
    expected = oracle_accuracy(workspace / "survey.dat", 120, 45, 11)
    assert report.parse_failure_count == 0
    assert report.metrics["llm"].accuracy == expected
    assert report.sample_size == 45
    assert set(report.metrics) == {"llm", "mnl", "rf", "nn"}


def test_run_pipeline_is_byte_deterministic(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    snapshot = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    mtimes = {p: p.stat().st_mtime_ns for p in (cfg.output_dir / "stages").iterdir()}
    run_pipeline(load_pipeline_config(workspace / "config.yaml"))
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == snapshot
    # unchanged inputs: stage artifacts are reused, not rewritten
    assert {p: p.stat().st_mtime_ns for p in (cfg.output_dir / "stages").iterdir()} == mtimes


def test_run_pipeline_hashes_the_dataset_once(workspace, monkeypatch):
    calls = []
    hash_dataset = pipeline.ingest_key
    monkeypatch.setattr(pipeline, "ingest_key", lambda cfg: calls.append(cfg) or hash_dataset(cfg))
    cfg = load_pipeline_config(workspace / "config.yaml")
    for runs in (1, 2):  # computing every stage, then loading every stage
        run_pipeline(cfg)
        assert len(calls) == runs  # the split, LLM and three model keys share one hash


def test_run_pipeline_honors_max_samples(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml", {"max_samples": 15})
    report = run_pipeline(cfg)
    assert report.sample_size == 15


def test_missing_credential_is_stage_attributed(workspace, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    cfg = load_pipeline_config(workspace / "config.yaml", {"backend": "http_chat"})
    with pytest.raises(PipelineError, match="LLM_API_KEY") as err:
        run_pipeline(cfg)
    assert err.value.stage == "llm"
    assert isinstance(err.value.cause, MissingCredential)


def test_parse_failures_reported_not_fatal(workspace):
    (workspace / "malformed.yaml").write_text(CONFIG_TEMPLATE.format(mock_rule="malformed"))
    cfg = load_pipeline_config(workspace / "malformed.yaml")
    report = run_pipeline(cfg)
    assert report.parse_failure_count == 45
    assert "llm" not in report.metrics  # nothing parseable to score
    assert report.metrics["mnl"].n_scored == 45

    # a rerun reads the stored answers back and writes the same case log
    (stored,) = (cfg.output_dir / "stages").glob("llm-*.jsonl")
    mtime = stored.stat().st_mtime_ns
    cases = cfg.output_dir / f"report-{config_digest(cfg)[:12]}" / "cases.jsonl"
    first = cases.read_bytes()
    cases.unlink()
    assert run_pipeline(cfg).parse_failure_count == 45
    assert stored.stat().st_mtime_ns == mtime
    assert cases.read_bytes() == first
    docs = [json.loads(line) for line in first.decode().splitlines()]
    assert len(docs) == 45 and all(doc["llm_raw_text"] for doc in docs)


def test_format_1_model_artifact_is_refit(workspace):
    cfg = load_pipeline_config(workspace / "config.yaml")
    train_cfg = cfg.train_configs["rf"]
    # the model key before the format version joined it
    old_key = digest_of(sample_key(cfg), json.dumps(dataclasses.asdict(train_cfg), sort_keys=True))
    stale = stage_path(cfg.output_dir, "model-rf", old_key, suffix=".json")
    stale_text = json.dumps(
        {
            "format_version": 1,
            "kind": "rf",
            "seed": train_cfg.seed,
            "loss_curve": [],
            "scaler": {"means": [0.0] * 6, "stds": [1.0] * 6},
            "parameters": {"trees": [{"counts": [1, 0, 0]}]},
        }
    )
    stale.parent.mkdir(parents=True)
    stale.write_text(stale_text)
    report = run_pipeline(cfg)
    assert report.metrics["rf"].n_scored == 45
    assert stale.read_text() == stale_text
    refit = [p for p in (cfg.output_dir / "stages").glob("model-rf-*.json") if p != stale]
    assert len(refit) == 1
    assert json.loads(refit[0].read_text())["format_version"] == 5


def test_load_or_create_reads_in_one_step(tmp_path, monkeypatch):
    path = tmp_path / "stage-0.json"
    # an artifact that is removed after an existence check and before its read
    monkeypatch.setattr(Path, "exists", lambda self: True)
    assert load_or_create(path, lambda: 7, str, int) == 7
    assert path.read_text() == "7"
    path.write_text("seven")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid literal"):
        load_or_create(path, lambda: 7, str, int)


REPORT_FILES = ("report.json", "report.txt", "cases.jsonl")


def report_files(cfg) -> dict[str, bytes]:
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    return {name: (report_dir / name).read_bytes() for name in REPORT_FILES}


def test_rebuild_reuses_every_stored_model(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    first = report_files(cfg)
    models = sorted((cfg.output_dir / "stages").glob("model-*.json"))
    assert [path.name.split("-")[1] for path in models] == ["mnl", "nn", "rf"]
    mtimes = {path: path.stat().st_mtime_ns for path in models}

    for path in (cfg.output_dir / f"report-{config_digest(cfg)[:12]}").iterdir():
        path.unlink()

    def fail(*args, **kwargs):
        raise AssertionError("a rebuild over stored models fitted one")

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", fail)
    run_pipeline(cfg)
    assert report_files(cfg) == first
    assert {path: path.stat().st_mtime_ns for path in models} == mtimes


def test_a_run_builds_no_situation_object(workspace, monkeypatch):
    def fail(self):
        raise AssertionError("a run iterated a situation table")

    monkeypatch.setattr(SituationTable, "__iter__", fail)
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    first = report_files(cfg)
    # a rebuild over the stored stages takes the full path again
    for manifest in (cfg.output_dir / "stages").glob("report-*.json"):
        manifest.unlink()
    run_pipeline(cfg)
    assert report_files(cfg) == first


# in the order a rebuild enters them: the LLM stage runs inside stage_benchmarks,
# while its workers fit
REPORT_BUILDERS = ("stage_ingest", "stage_benchmarks", "stage_llm", "_case_records", "write_report")


def stage_calls(monkeypatch) -> list[str]:
    """Record each call into a step that builds the report."""
    calls = []
    for name in REPORT_BUILDERS:
        original = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    return calls


def test_warm_run_returns_the_stored_report(workspace, capsys, monkeypatch):
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config) == 0
    cold_out = capsys.readouterr().out
    cfg = load_pipeline_config(config)
    first = report_files(cfg)
    cold = run_pipeline(cfg).to_json_dict()

    def fail(*args, **kwargs):
        raise AssertionError("a warm run with its report stored ran a stage")

    for name in REPORT_BUILDERS:
        monkeypatch.setattr(pipeline, name, fail)
    assert run_pipeline(cfg).to_json_dict() == cold
    assert run_cli("run", "--config", config) == 0
    assert capsys.readouterr().out == cold_out
    assert report_files(cfg) == first
    assert len(list((cfg.output_dir / "stages").glob("report-*.json"))) == 1


@pytest.mark.parametrize(
    "pattern",
    [
        "stages/split-*.json",
        "stages/llm-*.jsonl",
        "report-*/report.json",
        "report-*/report.txt",
        "report-*/cases.jsonl",
    ],
)
@pytest.mark.parametrize("change", ["edit", "remove"])
def test_a_changed_input_or_report_file_rebuilds_the_report(
    workspace, monkeypatch, pattern, change
):
    cfg = load_pipeline_config(workspace / "config.yaml")
    cold = run_pipeline(cfg).to_json_dict()
    first = report_files(cfg)
    (path,) = cfg.output_dir.glob(pattern)
    if change == "edit":  # one more byte, which every reader of the file skips
        path.write_bytes(path.read_bytes() + b"\n")
    else:
        path.unlink()
    calls = stage_calls(monkeypatch)
    assert run_pipeline(cfg).to_json_dict() == cold
    assert calls == list(REPORT_BUILDERS)
    assert report_files(cfg) == first
    # the rebuild stored a manifest of the files as they are now
    calls.clear()
    run_pipeline(cfg)
    assert calls == []


def test_a_new_report_format_version_rebuilds_the_report(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    first = report_files(cfg)
    calls = stage_calls(monkeypatch)
    monkeypatch.setattr(pipeline, "REPORT_FORMAT_VERSION", pipeline.REPORT_FORMAT_VERSION + 1)
    run_pipeline(cfg)
    assert "write_report" in calls
    assert report_files(cfg) == first
    assert len(list((cfg.output_dir / "stages").glob("report-*.json"))) == 2


def test_a_new_model_format_version_refits_and_rebuilds_the_report(
    workspace, caplog, monkeypatch
):
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    stages = cfg.output_dir / "stages"
    before = {path.name for path in stages.glob("model-*.json")}
    monkeypatch.setattr(pipeline, "MODEL_FORMAT_VERSION", pipeline.MODEL_FORMAT_VERSION + 1)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="modechoice.pipeline"):
        run_pipeline(cfg)
    assert not [r for r in caplog.records if r.getMessage().startswith("reusing report")]
    after = {path.name for path in stages.glob("model-*.json")}
    assert len(before) == 3 and len(after - before) == 3


def test_report_bytes_are_pinned_to_the_format_version(tmp_path):
    """Any change to a report byte must bump REPORT_FORMAT_VERSION, or stored
    reports from before it would still be served; edit both together."""
    test = table_of(
        [
            make_situation(),
            make_situation("", (60, 120, 50), (20, 40, 90), True, False, ModeLabel.TRAIN),
            make_situation("", (200, 45, 70), (80, 30, 95), False, True, ModeLabel.CAR),
            make_situation("", (90, 95, 40), (0, 55, 60), True, True, ModeLabel.TRAIN),
        ]
    )
    answers = [
        LlmAnswer("row00000", ModeLabel.SWISSMETRO, reason="Fastest.", parse_path="strict"),
        LlmAnswer("row00001", ModeLabel.CAR, reason="Cheap \u00e9.", parse_path="fallback"),
        LlmAnswer("row00002", None, raw_text="Car, probably", error="ParseFailure: no line"),
        LlmAnswer("row00003", None, error="HTTPError: 503", backend_failure=True),
    ]
    labels = {
        "mnl": [ModeLabel.SWISSMETRO, ModeLabel.TRAIN, ModeLabel.CAR, ModeLabel.CAR],
        "rf": [ModeLabel.TRAIN, ModeLabel.TRAIN, ModeLabel.CAR, ModeLabel.TRAIN],
    }
    write_report(pipeline._case_records(test, answers, labels), tmp_path, config_digest="d")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in REPORT_FILES
    }
    assert pipeline.REPORT_FORMAT_VERSION == 1
    assert digests == {
        "report.json": "1fdabbb6af0b46dca24d86225aa79b28943c6f8c115a05a6da5b26e0722a69ec",
        "report.txt": "cb583d34fb7c305c4651a83eaddbe6b3996532cbcb49f7b76e5533c73f9635f1",
        "cases.jsonl": "4edf03e44c3f94d30c316d13a89f377003eab8300f87e20e7578702400d93233",
    }


@pytest.mark.parametrize(
    "old, new, n_cases",
    [
        (RF_LINE, "  rf: {n_trees: 2}\n", 45),
        ("output_dir: out\n", "output_dir: out\nmax_samples: 20\n", 20),
    ],
    ids=["n_trees", "max_samples"],
)
def test_changed_train_setting_or_cap_recomputes_labels(workspace, old, new, n_cases):
    run_pipeline(load_pipeline_config(workspace / "config.yaml"))
    (workspace / "changed.yaml").write_text(
        CONFIG_TEMPLATE.format(mock_rule="generalized_cost").replace(old, new)
    )
    cfg = load_pipeline_config(workspace / "changed.yaml")
    run_pipeline(cfg)
    cases = [json.loads(line) for line in report_files(cfg)["cases.jsonl"].splitlines()]
    assert len(cases) == n_cases

    # the same config into an empty directory writes the same report; with two
    # trees instead of five, a report from the stale forest would not match it
    fresh = load_pipeline_config(workspace / "changed.yaml", {"out": str(workspace / "fresh")})
    run_pipeline(fresh)
    assert report_files(fresh) == report_files(cfg)


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda text: text[: len(text) // 2], "Expecting"),
        (
            lambda text: json.dumps(dict(json.loads(text), format_version=1)),
            "unsupported model format_version 1",
        ),
        (
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "parameters"}),
            "no field 'parameters'",
        ),
    ],
    ids=["bytes", "format-version-1", "no-parameters"],
)
def test_cli_rebuild_rejects_a_damaged_model_file(workspace, capsys, cut, message):
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config) == 0
    cfg = load_pipeline_config(workspace / "config.yaml")
    first = report_files(cfg)
    stages = workspace / "out" / "stages"
    (manifest,) = stages.glob("report-*.json")
    manifest.unlink()  # the next run rebuilds the report over the stored stages
    (model,) = stages.glob("model-rf-*.json")
    model.write_text(cut(model.read_text()))
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"error in stage 'benchmarks': {model}: {message}")
    assert "Traceback" not in err
    assert report_files(cfg) == first  # no report is written from a damaged model


@pytest.mark.parametrize(
    "cut, given",
    [
        (lambda tree: tree["feature"].pop(), lambda n: (2 * n, n, n + 1)),  # the last node, a leaf
        (lambda tree: tree["threshold"].pop(), lambda n: (2 * n + 1, n - 1, n + 1)),
        (lambda tree: tree["vote"].pop(0), lambda n: (2 * n + 1, n, n)),
    ],
    ids=["nodes", "thresholds", "votes"],
)
def test_a_stored_tree_that_is_not_full_is_rejected(workspace, cut, given):
    """A tree's children are implicit, so a stored tree must hold 2n + 1 nodes
    for its n split nodes, n thresholds and n + 1 votes; any other is an
    error naming the file, not a wrong or failing prediction later."""
    cfg = load_pipeline_config(workspace / "config.yaml")
    cfg = dataclasses.replace(cfg, benchmark_kinds=("rf",))
    _, train, _ = pipeline.prepare_split(cfg)
    pipeline.stage_benchmarks(cfg, train)
    (model,) = (cfg.output_dir / "stages").glob("model-rf-*.json")
    doc = json.loads(model.read_text())
    tree = doc["parameters"]["trees"][-1]
    n = sum(feature >= 0 for feature in tree["feature"])
    assert n > 0
    assert [len(tree[k]) for k in ("feature", "threshold", "vote")] == [2 * n + 1, n, n + 1]
    cut(tree)
    damaged = json.dumps(doc)
    model.write_text(damaged)
    with pytest.raises(PipelineError) as error:
        pipeline.stage_benchmarks(cfg, train)
    assert error.value.stage == "benchmarks" and isinstance(error.value.cause, ValueError)
    nodes, thresholds, votes = given(n)
    assert str(error.value.cause) == (
        f"{model}: {nodes} nodes, {thresholds} thresholds and {votes} votes"
        f" are not a full level-order tree of {n} split nodes"
    )
    assert model.read_text() == damaged  # reported, not refitted over


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("feature", 9, "feature 9 is not an integer in [-1, 8)"),
        ("vote", -1, "vote -1 is not an integer in [0, 3)"),
        ("vote", 1.7, "vote 1.7 is not an integer in [0, 3)"),
        ("threshold", float("nan"), "threshold nan is not finite"),
    ],
    ids=["feature-out-of-range", "negative-vote", "fractional-vote", "nan-threshold"],
)
def test_a_stored_tree_with_a_value_out_of_range_is_rejected(workspace, name, value, message):
    """A stored tree must hold features in [-1, 8), finite thresholds and
    integral votes in [0, 3); any other is an error naming the file, not a
    failing prediction, a wrong vote or every row sent right later."""
    cfg = load_pipeline_config(workspace / "config.yaml")
    cfg = dataclasses.replace(cfg, benchmark_kinds=("rf",))
    _, train, _ = pipeline.prepare_split(cfg)
    pipeline.stage_benchmarks(cfg, train)
    (model,) = (cfg.output_dir / "stages").glob("model-rf-*.json")
    doc = json.loads(model.read_text())
    doc["parameters"]["trees"][-1][name][0] = value  # the root's, or the first leaf's vote
    damaged = json.dumps(doc)
    model.write_text(damaged)
    with pytest.raises(PipelineError) as error:
        pipeline.stage_benchmarks(cfg, train)
    assert error.value.stage == "benchmarks" and isinstance(error.value.cause, ValueError)
    assert str(error.value.cause) == f"{model}: {message}"
    assert model.read_text() == damaged  # reported, not refitted over


@pytest.mark.parametrize(
    "pattern, stage_name, cut, message",
    [
        (
            "split-*.json",
            "sample",
            lambda text: json.dumps(dict(json.loads(text), test=["row99999"])),
            "ids not in the survey: ['row99999']",
        ),
        (
            "split-*.json",
            "sample",
            lambda text: json.dumps({"train": json.loads(text)["train"]}),
            "no field 'test'",
        ),
        (
            "split-*.json",
            "sample",
            lambda text: json.dumps(dict(json.loads(text), test=json.loads(text)["test"][:-1])),
            "not 120 train and 45 test ids",
        ),
        (
            "split-*.json",
            "sample",
            lambda text: json.dumps(
                dict(split := json.loads(text), test=split["train"][:1] + split["test"][1:])
            ),
            "train/test overlap: [",
        ),
        (
            "split-*.json",
            "sample",
            lambda text: json.dumps(
                dict(split := json.loads(text), train=split["train"][:1] * 2 + split["train"][2:])
            ),
            "ids repeated: [",
        ),
        (
            "llm-*.jsonl",
            "llm",
            lambda text: text.split("\n", 1)[1],
            "not the answers of the 45 test situations, in order",
        ),
        (
            "llm-*.jsonl",
            "llm",
            lambda text: text.replace('"reason"', '"reasons"', 1),
            "unexpected keyword argument 'reasons'",
        ),
    ],
    ids=[
        "split-unknown-id",
        "split-no-test",
        "split-short-test",
        "split-overlap",
        "split-repeated-id",
        "llm-row-missing",
        "llm-key-renamed",
    ],
)
def test_cli_run_rejects_a_damaged_split_or_llm_file(
    workspace, capsys, pattern, stage_name, cut, message
):
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config) == 0
    cfg = load_pipeline_config(workspace / "config.yaml")
    first = report_files(cfg)
    (stored,) = (workspace / "out" / "stages").glob(pattern)
    stored.write_text(cut(stored.read_text()))
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"error in stage {stage_name!r}: {stored}: ")
    assert message in errors[0]
    assert "Traceback" not in err
    assert report_files(cfg) == first
    stored.unlink()  # deleting the damaged file rebuilds it
    assert run_cli("run", "--config", config) == 0
    assert report_files(cfg) == first


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[: len(data) // 2],
        lambda data: b"not gzip\n",
        lambda data: data[:10] + b"\xff" * (len(data) - 10),
        lambda data: gzip.compress(b"not json\n"),
        lambda data: gzip.compress(b'["k", 5]\n'),
    ],
    ids=["truncated", "not-gzip", "corrupt-deflate", "not-json", "not-a-string-pair"],
)
def test_cli_run_names_a_damaged_cache_segment(workspace, capsys, damage):
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config) == 0
    stages = workspace / "out" / "stages"
    for path in [*stages.glob("llm-*.jsonl"), *stages.glob("report-*.json")]:
        path.unlink()
    (segment,) = (workspace / "out" / "cache").glob("*.jsonl.gz")
    segment.write_bytes(damage(segment.read_bytes()))
    capsys.readouterr()
    assert run_cli("run", "--config", config) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"error in stage 'llm': {segment}: ")
    assert "Traceback" not in err
    segment.unlink()  # deleting the damaged segment asks the backend again
    assert run_cli("run", "--config", config) == 0


def test_run_reloads_the_models_fit_bench_stored(workspace, monkeypatch):
    config = str(workspace / "config.yaml")
    fresh, shared = workspace / "fresh", workspace / "shared"
    assert run_cli("run", "--config", config, "--out", str(fresh)) == 0
    assert run_cli("fit-bench", "--config", config, "--out", str(shared)) == 0

    def fail(*args, **kwargs):
        raise AssertionError("run fitted a model that fit-bench had stored")

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", fail)
    assert run_cli("run", "--config", config, "--out", str(shared)) == 0
    assert report_files(load_pipeline_config(config, {"out": shared})) == report_files(
        load_pipeline_config(config, {"out": fresh})
    )


@contextmanager
def on_cpus(monkeypatch, cpus: int):
    """Run the block as if on `cpus` CPUs; yields the list that each fork adds
    one item to, and checks on leaving that no worker is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    try:
        yield forks
    finally:
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(ChildProcessError):  # no worker is left, reaped or not
            os.waitpid(-1, os.WNOHANG)


def fit_on(cfg, monkeypatch, cpus: int, out: Path) -> tuple[dict, int]:
    """Run stage_benchmarks into `out` as if on `cpus` CPUs; returns the stored
    model bytes by file name, and how many workers were forked."""
    cfg = dataclasses.replace(cfg, output_dir=out)
    _, train, _ = pipeline.prepare_split(cfg)
    with on_cpus(monkeypatch, cpus) as forks:
        fitted = pipeline.stage_benchmarks(cfg, train)
    assert list(fitted) == list(cfg.benchmark_kinds)
    models = {p.name: p.read_bytes() for p in sorted((out / "stages").glob("model-*.json"))}
    return models, len(forks)


def run_on(cfg, monkeypatch, cpus: int, out: Path) -> tuple[dict, int]:
    """Run the pipeline into `out` as if on `cpus` CPUs; returns the bytes of
    its model and report files by path, and how many workers were forked."""
    with on_cpus(monkeypatch, cpus) as forks:
        run_pipeline(dataclasses.replace(cfg, output_dir=out))
    files = sorted([*out.glob("stages/model-*.json"), *out.glob("report-*/*")])
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in files}, len(forks)


def test_model_files_do_not_depend_on_the_cpu_count(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    alone, forks = fit_on(cfg, monkeypatch, 1, workspace / "one")
    assert forks == 0 and len(alone) == 3
    shared, forks = fit_on(cfg, monkeypatch, 2, workspace / "two")
    assert forks == 1  # [mnl, nn] fit here, [rf] in the worker
    assert shared == alone
    _, forks = fit_on(cfg, monkeypatch, 8, workspace / "eight")
    assert forks == 2  # one kind per process, no share left empty
    _, forks = fit_on(cfg, monkeypatch, 2, workspace / "two")
    assert forks == 0  # every model is stored: none is fitted


def test_report_files_do_not_depend_on_the_cpu_count(workspace, monkeypatch):
    """Each worker predicts the test rows with the models it fitted, so the
    labels in the report come from other processes on other CPU counts."""
    cfg = load_pipeline_config(workspace / "config.yaml")
    alone, forks = run_on(cfg, monkeypatch, 1, workspace / "one")
    assert forks == 0 and len(alone) == 6  # three models, three report files
    for cpus, workers in ((2, 1), (8, 2)):
        shared, forks = run_on(cfg, monkeypatch, cpus, workspace / f"cpus-{cpus}")
        assert forks == workers
        assert shared == alone


@pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 1)])
def test_the_llm_stage_runs_while_the_workers_fit(workspace, monkeypatch, cpus, workers):
    """The workers are forked before the LLM stage, and no fit, in a worker or
    here, starts before the LLM stage has begun."""
    cfg = load_pipeline_config(workspace / "config.yaml")
    begun = multiprocessing.get_context("fork").Event()
    live = []
    llm, fit = pipeline.stage_llm, pipeline.benchmarks.fit_classifier

    def counting(*args):
        live.append(len(multiprocessing.active_children()))
        begun.set()
        return llm(*args)

    def waiting(*args):
        assert begun.wait(timeout=30), "a fit started before the LLM stage"
        return fit(*args)

    monkeypatch.setattr(pipeline, "stage_llm", counting)
    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", waiting)
    with on_cpus(monkeypatch, cpus) as forks:
        run_pipeline(cfg)
    assert len(forks) == workers
    assert live == [workers]


def test_each_new_model_predicts_where_it_was_fitted(workspace, monkeypatch):
    """On 2 CPUs the rf worker predicts the test rows itself, so this process
    predicts with mnl and nn only; a rebuild predicts with every stored model
    here."""
    cfg = load_pipeline_config(workspace / "config.yaml")
    here = []
    predict = pipeline.benchmarks.predict_labels

    def recording(model, X):
        here.append(model.kind)
        return predict(model, X)

    monkeypatch.setattr(pipeline.benchmarks, "predict_labels", recording)
    with on_cpus(monkeypatch, 2):
        run_pipeline(cfg)
        assert here == ["mnl", "nn"]
        here.clear()
        for manifest in (cfg.output_dir / "stages").glob("report-*.json"):
            manifest.unlink()
        run_pipeline(cfg)
        assert here == ["mnl", "rf", "nn"]


def test_an_llm_stage_failing_beside_a_worker_kills_it_and_stores_no_model(
    workspace, monkeypatch
):
    cfg = load_pipeline_config(workspace / "config.yaml")
    run_pipeline(cfg)
    stages = cfg.output_dir / "stages"
    for pattern in ("model-*.json", "llm-*.jsonl", "report-*.json"):
        for path in stages.glob(pattern):
            path.unlink()
    (segment,) = (cfg.output_dir / "cache").glob("*.jsonl.gz")
    segment.write_bytes(b"not gzip\n")
    fit = pipeline.benchmarks.fit_classifier
    here = os.getpid()

    def stuck(*args):
        if os.getpid() != here:
            time.sleep(60)  # still fitting when the LLM stage fails
        return fit(*args)

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", stuck)
    started = time.monotonic()
    with pytest.raises(PipelineError) as failed, on_cpus(monkeypatch, 2) as forks:
        run_pipeline(cfg)
    assert time.monotonic() - started < 30  # the worker was killed, not waited for
    assert len(forks) == 1
    assert failed.value.stage == "llm"
    assert str(failed.value.cause).startswith(f"{segment}: ")
    assert list(stages.glob("model-*.json")) == []


def test_a_fit_failing_in_a_worker_after_the_llm_stage_keeps_the_answers(
    workspace, monkeypatch
):
    cfg = load_pipeline_config(workspace / "config.yaml")
    failing_fits(monkeypatch, {"rf": NonFiniteLoss("rf failed")})
    for cpus in (1, 2):
        out = workspace / f"cpus-{cpus}"
        with pytest.raises(PipelineError) as failed, on_cpus(monkeypatch, cpus):
            run_pipeline(dataclasses.replace(cfg, output_dir=out))
        assert str(failed.value) == "stage 'benchmarks' failed: rf failed"
        assert len(list(out.glob("stages/llm-*.jsonl"))) == 1
        stored = [path.name.split("-")[1] for path in out.glob("stages/model-*.json")]
        assert stored == ["mnl"]  # in configured order, up to the failed kind


def failing_fits(monkeypatch, errors: dict):
    """fit_classifier raises errors[kind] for the kinds it names."""
    fit = pipeline.benchmarks.fit_classifier

    def failing(kind, *args):
        if kind in errors:
            raise errors[kind]
        return fit(kind, *args)

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", failing)


@pytest.mark.parametrize(
    "errors",
    [
        {"rf": ClassMissing({ModeLabel.TRAIN})},
        {"rf": NonFiniteLoss("loss became nan during training")},
        # the first kind in order fails, whichever process fits it
        {"rf": NonFiniteLoss("rf failed"), "nn": NonFiniteLoss("nn failed")},
        {"mnl": EmptyTrainingSet("mnl failed"), "rf": NonFiniteLoss("rf failed")},
    ],
)
def test_a_fit_failing_in_a_worker_fails_as_it_would_here(workspace, monkeypatch, errors):
    cfg = load_pipeline_config(workspace / "config.yaml")
    failing_fits(monkeypatch, errors)
    first = next(iter(errors.values()))
    for cpus in (1, 2):
        out = workspace / f"cpus-{cpus}"
        with pytest.raises(PipelineError) as failed:
            fit_on(cfg, monkeypatch, cpus, out)
        assert failed.value.stage == "benchmarks"
        assert type(failed.value.cause) is type(first)
        assert str(failed.value) == f"stage 'benchmarks' failed: {first}"
        # the kinds before the failed one are stored, as fitting one by one stores them
        stored = [path.name.split("-")[1] for path in out.glob("stages/model-*.json")]
        assert stored == ["mnl"][: list(cfg.benchmark_kinds).index(next(iter(errors)))]


def test_a_worker_ending_without_a_result_names_its_kinds(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    fit = pipeline.benchmarks.fit_classifier
    here = os.getpid()

    def dying(*args):
        if os.getpid() != here:
            os._exit(3)
        return fit(*args)

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", dying)
    with pytest.raises(PipelineError) as failed:
        fit_on(cfg, monkeypatch, 2, workspace / "out")
    assert isinstance(failed.value.cause, BenchmarkError)
    assert str(failed.value) == (
        "stage 'benchmarks' failed: the worker fitting ['rf'] exited with status 3 without a result"
    )


def test_a_worker_killed_by_a_signal_names_its_kinds_and_the_signal(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    fit = pipeline.benchmarks.fit_classifier
    here = os.getpid()

    def killed(*args):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(*args)

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", killed)
    with pytest.raises(PipelineError) as failed:
        fit_on(cfg, monkeypatch, 2, workspace / "out")
    assert isinstance(failed.value.cause, BenchmarkError)
    assert str(failed.value) == (
        "stage 'benchmarks' failed: "
        "the worker fitting ['rf'] exited with status -9 without a result"
    )


class PopenOs:
    """os as multiprocessing's fork Popen sees it, recording the descriptors
    of the pipes it opens."""

    def __init__(self):
        self.opened = []

    def __getattr__(self, name):
        return getattr(os, name)

    def pipe(self):
        fds = os.pipe()
        self.opened.extend(fds)
        return fds


def test_a_failed_fork_leaves_no_worker_and_no_descriptor(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    fork = os.fork
    forks = []

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    popen_os = PopenOs()
    monkeypatch.setattr(multiprocessing.popen_fork, "os", popen_os)
    descriptors = set(os.listdir("/proc/self/fd"))
    with pytest.raises(PipelineError) as failed:
        fit_on(cfg, monkeypatch, 3, workspace / "out")  # checks that no child is left
    assert failed.value.stage == "benchmarks"
    assert isinstance(failed.value.cause, OSError)
    assert len(forks) == 2  # [rf] was forked, [nn] was not
    # multiprocessing's fork Popen (Python 3.11) opens two pipes before it
    # forks and closes neither when the fork fails; every other one is closed
    left = {int(fd) for fd in set(os.listdir("/proc/self/fd")) - descriptors}
    for fd in left:
        os.close(fd)
    assert left <= set(popen_os.opened[-4:])


class Interrupted(BaseException):
    pass


def test_workers_are_killed_when_this_process_fails(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    here = os.getpid()

    def stuck(*args):
        if os.getpid() != here:
            time.sleep(60)
        raise Interrupted

    monkeypatch.setattr(pipeline.benchmarks, "fit_classifier", stuck)
    started = time.monotonic()
    with pytest.raises(Interrupted):
        fit_on(cfg, monkeypatch, 3, workspace / "out")
    assert time.monotonic() - started < 30  # the workers were killed, not waited for


def test_the_fits_run_here_beside_a_live_thread(workspace, monkeypatch):
    cfg = load_pipeline_config(workspace / "config.yaml")
    alone, _ = fit_on(cfg, monkeypatch, 1, workspace / "one")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        shared, forks = fit_on(cfg, monkeypatch, 2, workspace / "two")
    finally:
        release.set()
        thread.join(timeout=10)
    assert forks == 0
    assert shared == alone


def http_config(workspace, chat_endpoint):
    """The workspace config sent to the local endpoint, capped at six prompts."""
    config = CONFIG_TEMPLATE.format(mock_rule="generalized_cost").replace(
        "  backend_kind: mock\n",
        "  backend_kind: http_chat\n"
        f"  endpoint_url: {chat_endpoint.url}\n"
        "  max_retries: 1\n"
        "  retry_backoff_base_seconds: 0.0\n",
    )
    (workspace / "http.yaml").write_text(config + "max_samples: 6\n")
    return load_pipeline_config(workspace / "http.yaml")


def test_backend_failures_are_retried_on_rerun(workspace, chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    cfg = http_config(workspace, chat_endpoint)
    stages = cfg.output_dir / "stages"

    chat_endpoint.status = 503
    report = run_pipeline(cfg)
    assert len(chat_endpoint.requests) == 12  # six prompts, two attempts each
    assert report.backend_failure_count == 6
    assert report.parse_failure_count == 0
    summary = json.loads(next(cfg.output_dir.glob("report-*/report.json")).read_text())
    assert (summary["backend_failure_count"], summary["parse_failure_count"]) == (6, 0)
    assert "Backend failures: 6" in next(cfg.output_dir.glob("report-*/report.txt")).read_text()
    assert "llm" not in report.metrics
    assert not list(stages.glob("llm-*.jsonl"))
    assert not list(stages.glob("report-*.json"))  # nor a report to serve instead of retrying

    chat_endpoint.status = 200
    chat_endpoint.requests.clear()
    report = run_pipeline(cfg)
    assert len(chat_endpoint.requests) == 6
    assert (report.backend_failure_count, report.parse_failure_count) == (0, 0)
    assert report.metrics["llm"].n_scored == 6
    assert len(list(stages.glob("llm-*.jsonl"))) == 1

    chat_endpoint.requests.clear()
    run_pipeline(cfg)
    assert chat_endpoint.requests == []


def test_mock_rule_switch_is_not_served_from_cache(workspace):
    first = run_pipeline(load_pipeline_config(workspace / "config.yaml"))
    (workspace / "min_time.yaml").write_text(CONFIG_TEMPLATE.format(mock_rule="min_time"))
    shared = run_pipeline(load_pipeline_config(workspace / "min_time.yaml"))
    fresh = run_pipeline(
        load_pipeline_config(workspace / "min_time.yaml", {"out": str(workspace / "fresh")})
    )
    assert fresh.metrics["llm"] != first.metrics["llm"]  # the two rules answer differently
    assert shared.metrics["llm"] == fresh.metrics["llm"]


def test_live_backend_is_not_served_mock_replies(workspace, chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    run_pipeline(load_pipeline_config(workspace / "config.yaml", {"max_samples": 6}))
    cfg = http_config(workspace, chat_endpoint)  # same output directory, so the same cache
    report = run_pipeline(cfg)
    assert len(chat_endpoint.requests) == 6
    cases = cfg.output_dir / f"report-{config_digest(cfg)[:12]}" / "cases.jsonl"
    predictions = [json.loads(line)["llm_prediction"] for line in cases.read_text().splitlines()]
    assert predictions == ["Train"] * 6  # the endpoint's answer, not the mock's
    assert report.metrics["llm"].n_scored == 6


def test_stage_attribution_on_bad_dataset(workspace):
    (workspace / "survey.dat").write_text("")
    cfg = load_pipeline_config(workspace / "config.yaml")
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"
    assert not cfg.output_dir.exists()  # a run that stores nothing makes no directory
    (workspace / "survey.dat").unlink()  # hashed for the stored report's key, then read
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest" and isinstance(err.value.cause, FileNotFoundError)


# --- CLI ----------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_ingest_and_sample(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("ingest", "--config", config) == 0
    out = capsys.readouterr().out
    assert "ingested 600 situations" in out
    assert run_cli("sample", "--config", config) == 0
    out = capsys.readouterr().out
    assert "train: 120" in out and "test:  45" in out


def test_cli_dump_prompt(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("dump-prompt", "--config", config, "--index", "3") == 0
    out = capsys.readouterr().out
    assert "Travel time" in out and "Prediction: <Train, Car, or Swissmetro>" in out
    assert run_cli("dump-prompt", "--config", config, "--index", "999") == 2


def test_cli_dump_prompt_by_situation_id(workspace, capsys):
    config = str(workspace / "config.yaml")
    cfg = load_pipeline_config(config)
    _, test = pipeline.stage_sample(cfg, pipeline.stage_ingest(cfg))
    assert run_cli("dump-prompt", "--config", config, "--index", "3") == 0
    by_index = capsys.readouterr().out
    assert run_cli("dump-prompt", "--config", config, "--situation-id", test.ids[3]) == 0
    assert capsys.readouterr().out == by_index
    assert run_cli("dump-prompt", "--config", config, "--situation-id", "row99999") == 2
    assert "no situation with id 'row99999'" in capsys.readouterr().err


def test_cli_dump_prompt_prints_the_prompt_the_llm_stage_sends(workspace, capsys):
    config = str(workspace / "config.yaml")
    cfg = load_pipeline_config(config)
    _, test = pipeline.stage_sample(cfg, pipeline.stage_ingest(cfg))
    prompts = build_prompts(test, cfg.prompt)
    for position in (0, 3, len(test) - 1):
        for flags in (["--index", str(position)], ["--situation-id", test.ids[position]]):
            assert run_cli("dump-prompt", "--config", config, *flags) == 0
            assert capsys.readouterr().out == prompts[position].full_text + "\n"


def test_cli_full_flow(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("predict-llm", "--config", config) == 0
    assert "completed 45 prompts" in capsys.readouterr().out
    assert run_cli("fit-bench", "--config", config) == 0
    out = capsys.readouterr().out
    assert "mnl: train accuracy" in out
    for kind in ("mnl", "rf", "nn"):
        assert (workspace / "out" / "models" / f"{kind}.json").exists()
    assert run_cli("evaluate", "--config", config) == 0
    out = capsys.readouterr().out
    assert "Models" in out and "LLM" in out


def test_cli_predict_llm_counts_each_failure_kind(workspace, chat_endpoint, capsys, monkeypatch):
    (workspace / "malformed.yaml").write_text(CONFIG_TEMPLATE.format(mock_rule="malformed"))
    assert run_cli("predict-llm", "--config", str(workspace / "malformed.yaml")) == 0
    assert "completed 45 prompts; 45 parse failures, 0 backend failures" in capsys.readouterr().out

    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    http_config(workspace, chat_endpoint)
    chat_endpoint.status = 503
    assert run_cli("predict-llm", "--config", str(workspace / "http.yaml")) == 0
    assert "completed 6 prompts; 0 parse failures, 6 backend failures" in capsys.readouterr().out


def test_cli_evaluate_hashes_the_dataset_once(workspace, capsys, monkeypatch):
    config = str(workspace / "config.yaml")
    assert run_cli("predict-llm", "--config", config) == 0
    assert run_cli("fit-bench", "--config", config) == 0
    calls = []
    hash_dataset = pipeline.ingest_key
    monkeypatch.setattr(pipeline, "ingest_key", lambda cfg: calls.append(cfg) or hash_dataset(cfg))
    assert run_cli("evaluate", "--config", config) == 0
    assert len(calls) == 1  # the stored-predictions check and the report share one hash


def test_cli_evaluate_requires_predictions(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("evaluate", "--config", config) == 2
    assert "predict-llm" in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_cli_evaluate_requires_models(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("predict-llm", "--config", config) == 0
    before = sorted(path.name for path in (workspace / "out").rglob("*"))
    capsys.readouterr()
    assert run_cli("evaluate", "--config", config) == 2
    err = capsys.readouterr().err
    cfg = load_pipeline_config(config)
    split_key = sample_key(cfg)
    missing = [str(pipeline.model_path(cfg, kind, split_key)) for kind in ("mnl", "rf", "nn")]
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: no stored models for this config; run `fit-bench` first "
        f"(expected {', '.join(missing)})"
    ]
    assert not list((workspace / "out").rglob("model-*.json"))
    assert sorted(path.name for path in (workspace / "out").rglob("*")) == before


def test_cli_run_end_to_end(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config) == 0
    out = capsys.readouterr().out
    assert "report artifacts:" in out
    assert run_cli("run", "--config", config) == 0  # warm rerun also succeeds


def test_cli_missing_credential_exit_code(workspace, capsys, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config, "--backend", "http_chat") == 1
    err = capsys.readouterr().err
    assert "llm" in err and "LLM_API_KEY" in err


def test_cli_evaluate_needs_no_credential(workspace, chat_endpoint, capsys, monkeypatch):
    (workspace / "config.yaml").write_text(
        CONFIG_TEMPLATE.format(mock_rule="generalized_cost").replace(
            "  backend_kind: mock\n",
            f"  backend_kind: mock\n  endpoint_url: {chat_endpoint.url}\n",
        )
    )
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config, "--backend", "http_chat") == 0
    assert len(chat_endpoint.requests) == 20  # the live-backend default cap
    cfg = load_pipeline_config(workspace / "config.yaml", {"backend": "http_chat"})
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    snapshot = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    capsys.readouterr()

    monkeypatch.delenv("LLM_API_KEY")
    assert run_cli("evaluate", "--config", config, "--backend", "http_chat") == 0
    assert "LLM_API_KEY" not in capsys.readouterr().err
    assert len(chat_endpoint.requests) == 20
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == snapshot


@pytest.mark.parametrize(
    "command, missing",
    [
        *(pytest.param(c, False, id=c) for c in ("ingest", "sample", "dump-prompt")),
        *(
            pytest.param(c, True, id=f"{c}-missing")
            for c in ("evaluate", "predict-llm", "fit-bench", "run")
        ),
    ],
)
def test_cli_reports_a_bad_survey_file(workspace, capsys, command, missing):
    survey = workspace / "survey.dat"
    if missing:
        survey.unlink()
        cause = f"[Errno 2] No such file or directory: '{survey}'"
    else:
        survey.write_text("")
        cause = f"{survey}: no header row"
    assert run_cli(command, "--config", str(workspace / "config.yaml")) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        f"error in stage 'ingest': {cause}"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, old, new, line",
    [
        pytest.param(
            "fit-bench", "  n_train: 120\n", "  n_train: 2\n",
            r"error in stage 'benchmarks': training set lacks classes: \[.+\]",
            id="fit-bench-class-missing",
        ),
        pytest.param(
            "predict-llm", "  backend_kind: mock\n", "  backend_kind: http_chat\n",
            "error in stage 'llm': environment variable LLM_API_KEY is not set",
            id="predict-llm-no-credential",
        ),
    ],
)
def test_cli_subcommand_names_its_failing_stage(
    workspace, capsys, monkeypatch, command, old, new, line
):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    config = workspace / "config.yaml"
    config.write_text(config.read_text().replace(old, new))
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err
    errors = [text for text in err.splitlines() if "error" in text]
    assert len(errors) == 1 and re.fullmatch(line, errors[0])
    assert "Traceback" not in err


FILE_ERROR = "bad.yaml: "  # a wrongly typed value or bad YAML: one error naming the file


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param(
            PATH_LINE, PATH_LINE + "  column_map: {time_columns: [A, B, C]}\n", FILE_ERROR,
            id="time_columns-list",
        ),
        pytest.param(
            PATH_LINE, PATH_LINE + "  column_map: {choice_code_map: [1, 2, 3]}\n", FILE_ERROR,
            id="choice_code_map-list",
        ),
        pytest.param(
            "dataset:\n" + PATH_LINE, "dataset: null\n", "config must set dataset.path",
            id="dataset-null",
        ),
        pytest.param(
            BACKEND, "backend: [1]\n", "backend must be a mapping, got list", id="backend-list"
        ),
        pytest.param(
            RF_LINE, "  rf: [1]\n", "benchmarks.rf must be a mapping, got list", id="rf-list"
        ),
        pytest.param("  kinds: [mnl, rf, nn]\n", "  kinds: null\n", FILE_ERROR, id="kinds-null"),
        pytest.param(RF_LINE, "  rf: {n_trees: many}\n", FILE_ERROR, id="n_trees-text"),
        pytest.param("  seed: 11\n", "  seed: null\n", FILE_ERROR, id="seed-null"),
        pytest.param("  n_train: 120\n", "  n_train: null\n", FILE_ERROR, id="n_train-null"),
        pytest.param(
            SAMPLING, "sampling: {1: 2, x: 3}\n", "unknown sampling keys: [1, 'x']",
            id="sampling-mixed-keys",
        ),
        pytest.param(
            "output_dir: out\n", "output_dir: out\nprompt: {domain_knowledge_texts: null}\n",
            FILE_ERROR, id="domain_knowledge_texts-null",
        ),
        pytest.param(BACKEND, BACKEND + "  temperature: hot\n", FILE_ERROR, id="temperature-text"),
        pytest.param(
            "output_dir: out\n", "output_dir: out\nmax_samples: [1]\n", FILE_ERROR, id="max_samples"
        ),
        pytest.param("output_dir: out\n", "output_dir: null\n", FILE_ERROR, id="output_dir-null"),
        pytest.param(
            SAMPLING, "sampling: [1, 2]\n", "sampling must be a mapping, got list", id="sampling"
        ),
        pytest.param(
            RF_LINE, "  rf: {kind: nn}\n", "unknown benchmarks.rf keys: ['kind']", id="rf-kind"
        ),
        pytest.param(BASE, "[1, 2]\n", "top-level must be a mapping, got list", id="top-level"),
        pytest.param("output_dir: out\n", "output_dir: [out\n", FILE_ERROR, id="yaml-syntax"),
        pytest.param(
            "output_dir: out\n",
            "output_dir: out\nprompt: {domain_knowledge_texts: Think about cost.}\n",
            FILE_ERROR + "prompt.domain_knowledge_texts must be a list of strings, got str",
            id="domain_knowledge_texts-text",
        ),
        pytest.param(
            "output_dir: out\n",
            "output_dir: out\nprompt: {component_order: task}\n",
            FILE_ERROR + "prompt.component_order must be a list of strings, got str",
            id="component_order-text",
        ),
        pytest.param(
            "  kinds: [mnl, rf, nn]\n", "  kinds: mnl\n",
            FILE_ERROR + "benchmarks.kinds must be a list of strings, got str", id="kinds-text",
        ),
        pytest.param(
            "  n_train: 120\n", "  n_train: 300.9\n",
            FILE_ERROR + "sampling.n_train must be an integer, got float", id="n_train-float",
        ),
        pytest.param(
            "  n_train: 120\n", "  n_train: true\n",
            FILE_ERROR + "sampling.n_train must be an integer, got bool", id="n_train-bool",
        ),
        pytest.param(
            "  n_test: 45\n", "  n_test: 45.0\n",
            FILE_ERROR + "sampling.n_test must be an integer, got float", id="n_test-float",
        ),
        pytest.param(
            "  seed: 11\n", "  seed: false\n",
            FILE_ERROR + "sampling.seed must be an integer, got bool", id="seed-bool",
        ),
        pytest.param(
            "output_dir: out\n", "output_dir: out\nmax_samples: 2.7\n",
            FILE_ERROR + "max_samples must be an integer, got float", id="max_samples-float",
        ),
        pytest.param(
            RF_LINE, "  rf: {n_trees: 2.5}\n",
            FILE_ERROR + "benchmarks.rf.n_trees must be an integer, got float", id="n_trees-float",
        ),
        pytest.param(
            NN_LINE, "  nn: {batch_size: 10.5}\n",
            FILE_ERROR + "benchmarks.nn.batch_size must be an integer, got float",
            id="batch_size-float",
        ),
        pytest.param(
            RF_LINE, "  rf: {max_features: log2}\n", FILE_ERROR + MAX_FEATURES,
            id="max_features-log2",
        ),
        pytest.param(
            RF_LINE, "  rf: {max_features: 0}\n", FILE_ERROR + MAX_FEATURES, id="max_features-0"
        ),
        pytest.param(
            RF_LINE, "  rf: {max_features: 9}\n", FILE_ERROR + MAX_FEATURES, id="max_features-9"
        ),
        pytest.param(
            "output_dir: out\n", "output_dir: out\nprompt: {task_description_text: 5}\n",
            FILE_ERROR + "prompt.task_description_text must be a string, got int",
            id="task_description_text-int",
        ),
        pytest.param(
            RF_LINE, "  rf: {bootstrap: 'no'}\n",
            FILE_ERROR + "benchmarks.rf.bootstrap must be a bool, got str", id="bootstrap-text",
        ),
        pytest.param(
            RF_LINE, "  rf: {max_depth: 2.5}\n",
            FILE_ERROR + "benchmarks.rf.max_depth must be an integer, got float",
            id="max_depth-float",
        ),
        pytest.param(
            BACKEND, BACKEND + "  max_parallel_requests: 2.5\n",
            FILE_ERROR + "backend.max_parallel_requests must be an integer, got float",
            id="max_parallel_requests-float",
        ),
        pytest.param(
            BACKEND, BACKEND + "  max_retries: 1.5\n",
            FILE_ERROR + "backend.max_retries must be an integer, got float",
            id="max_retries-float",
        ),
        pytest.param(
            BACKEND, BACKEND + "  timeout_seconds: true\n",
            FILE_ERROR + "backend.timeout_seconds must be a float, got bool",
            id="timeout_seconds-bool",
        ),
        pytest.param(
            PATH_LINE,
            PATH_LINE + "  column_map: {choice_code_map: {1.5: train, 2: swissmetro, 3: car}}\n",
            FILE_ERROR + "choice_code_map keys must be integers, got [1.5, 2, 3]",
            id="choice_code-float",
        ),
        pytest.param(
            PATH_LINE, "  path: 5\n", FILE_ERROR + "dataset.path must be a path, got int",
            id="path-int",
        ),
        pytest.param(
            "  kinds: [mnl, rf, nn]\n  mnl: {max_epochs: 300}\n" + RF_LINE + NN_LINE,
            "  kinds: [mnl, xgb]\n",
            FILE_ERROR + "unknown benchmark kinds: ['xgb']", id="kinds-unknown",
        ),
        pytest.param(
            RF_LINE, "  rf: {hidden_units: 5, learning_rate: 0.5}\n",
            FILE_ERROR + "unknown benchmarks.rf keys: ['hidden_units', 'learning_rate']",
            id="rf-nn-settings",
        ),
        pytest.param(
            "  mnl: {max_epochs: 300}\n", "  mnl: {n_trees: 5}\n",
            FILE_ERROR + "unknown benchmarks.mnl keys: ['n_trees']", id="mnl-rf-setting",
        ),
        pytest.param(
            NN_LINE, "  nn: {bootstrap: false}\n",
            FILE_ERROR + "unknown benchmarks.nn keys: ['bootstrap']", id="nn-rf-setting",
        ),
        pytest.param(
            "  mnl: {max_epochs: 300}\n", "  mnl: {hidden_units: 8, batch_size: 10}\n",
            FILE_ERROR + "unknown benchmarks.mnl keys: ['batch_size', 'hidden_units']",
            id="mnl-nn-settings",
        ),
        pytest.param(
            "  backend_kind: mock\n", "  backend_kind: openai\n",
            FILE_ERROR + "unknown backend_kind 'openai'", id="backend_kind-openai",
        ),
        pytest.param(
            "  mock_rule: min_time\n", "  mock_rule: cheapest\n",
            FILE_ERROR + "unknown mock rule 'cheapest'", id="mock_rule-cheapest",
        ),
        pytest.param(
            "  mock_rule: min_time\n", "  mock_rule: fixed\n",
            FILE_ERROR + "unknown mode name ''", id="mock_rule-fixed",
        ),
        pytest.param(
            "  mock_rule: min_time\n", "  mock_rule: fixed:Bus\n",
            FILE_ERROR + "unknown mode name 'Bus'", id="mock_rule-fixed-bus",
        ),
        pytest.param(
            "  seed: 11\n", "  seed: -1\n",
            FILE_ERROR + "seed must be non-negative, got -1", id="seed-negative",
        ),
        pytest.param(
            RF_LINE, "  rf: {seed: -1}\n",
            FILE_ERROR + "seed must be non-negative, got -1", id="rf-seed-negative",
        ),
    ],
)
def test_cli_rejects_malformed_config(workspace, capsys, old, new, message):
    assert old in BASE
    (workspace / "bad.yaml").write_text(BASE.replace(old, new))
    for command in ("ingest", "run"):
        assert run_cli(command, "--config", str(workspace / "bad.yaml")) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert message in errors[0]
        assert "Traceback" not in err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_cli_rejects_a_negative_seed_override(workspace, capsys, command):
    config = str(workspace / "config.yaml")
    assert run_cli(command, "--config", config, "--seed", "-1") == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"error: {config}: seed must be non-negative, got -1"]
    assert not (workspace / "out").exists()


def test_config_keeps_each_value_as_written(workspace):
    text = (
        BASE.replace(RF_LINE, "  rf: {max_features: 3, max_depth: null}\n")
        .replace(NN_LINE, "  nn: {learning_rate: 1}\n")
        .replace(BACKEND, BACKEND + "  timeout_seconds: 10\n")  # as perfbench writes it
    )
    (workspace / "good.yaml").write_text(text)
    cfg = load_pipeline_config(workspace / "good.yaml")
    rf, nn = cfg.train_configs["rf"], cfg.train_configs["nn"]
    assert (rf.max_features, rf.max_depth) == (3, None)
    # an int where a float is declared is kept, not converted, so the digest sees 1, not 1.0
    assert type(nn.learning_rate) is int and nn.learning_rate == 1
    assert type(cfg.backend.timeout_seconds) is int and cfg.backend.timeout_seconds == 10
    assert '"learning_rate": 1,' in json.dumps(pipeline.config_to_dict(cfg), sort_keys=True)


def test_example_config_loads_with_its_commented_overrides(tmp_path):
    """config.example.yaml documents column_map and per-kind train overrides
    in comments; uncommented, they must load and spell out the defaults."""
    example = Path(__file__).resolve().parents[1] / "config.example.yaml"
    shipped = example.read_text(encoding="utf-8")
    spelled, n_keys = re.subn(r"^  # (column_map:|mnl:|rf: |nn: )", r"  \1", shipped, flags=re.M)
    spelled, n_columns = re.subn(r"^  #   (\w+:)", r"    \1", spelled, flags=re.M)
    assert (n_keys, n_columns) == (4, 7)
    (tmp_path / "shipped.yaml").write_text(shipped)
    (tmp_path / "spelled.yaml").write_text(spelled)
    cfg = load_pipeline_config(tmp_path / "shipped.yaml")
    spelled_cfg = load_pipeline_config(tmp_path / "spelled.yaml")
    assert spelled_cfg.column_map == cfg.column_map
    assert spelled_cfg.train_configs == cfg.train_configs
    assert config_digest(spelled_cfg) == config_digest(cfg)


def test_cli_fit_bench_copies_each_stored_model(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("fit-bench", "--config", config) == 0
    models = workspace / "out" / "models"
    stamps = {}
    for kind in ("mnl", "rf", "nn"):
        (stored,) = (workspace / "out" / "stages").glob(f"model-{kind}-*.json")
        assert (models / f"{kind}.json").read_bytes() == stored.read_bytes()
        stamps[kind] = (models / f"{kind}.json").stat().st_mtime_ns
    assert sorted(p.name for p in models.iterdir()) == ["mnl.json", "nn.json", "rf.json"]
    # written through write_atomic, which leaves identical bytes in place
    assert run_cli("fit-bench", "--config", config) == 0
    assert {kind: (models / f"{kind}.json").stat().st_mtime_ns for kind in stamps} == stamps


def test_cli_reads_out_against_the_working_directory(workspace, tmp_path_factory, monkeypatch):
    elsewhere = tmp_path_factory.mktemp("elsewhere")
    monkeypatch.chdir(elsewhere)
    config = str(workspace / "config.yaml")
    assert run_cli("sample", "--config", config, "--out", "myout") == 0
    assert list((elsewhere / "myout" / "stages").glob("split-*"))
    assert not (workspace / "myout").exists()
    # paths inside the file stay relative to the file
    cfg = load_pipeline_config(config, {"out": "myout"})
    assert cfg.dataset_path == workspace / "survey.dat"
    assert load_pipeline_config(config).output_dir == workspace / "out"


def test_cli_reports_missing_config(tmp_path, capsys):
    assert run_cli("ingest", "--config", str(tmp_path / "nope.yaml")) == 1
    assert "error" in capsys.readouterr().err


def test_sample_config_split_file_is_pinned(tmp_path):
    """The split of the shipped sample data, byte for byte."""
    sample = Path(__file__).resolve().parents[1] / "config.sample.yaml"
    cfg = load_pipeline_config(sample, {"out": str(tmp_path / "out")})
    pipeline.stage_sample(cfg, pipeline.stage_ingest(cfg))
    (split,) = (tmp_path / "out" / "stages").glob("split-*.json")
    digest = hashlib.sha256(split.read_bytes()).hexdigest()
    assert digest == "829ccb96dcd1eefdf09703412ba69f23a605fe136f380b86ed8b177df794b958"


def test_each_stage_logs_its_wall_time(workspace, caplog):
    cfg = load_pipeline_config(workspace / "config.yaml")
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    cold = ["ingest", "sample", "llm", "benchmarks", "report"]
    # the rerun finds its report stored, and runs only the report stage
    for logged, reused in [(cold, []), (["report"], [f"reusing report {report_dir}"])]:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="modechoice.pipeline"):
            run_pipeline(cfg)
        messages = [r.getMessage() for r in caplog.records]
        done = [message for message in messages if ": done in " in message]
        stages = [re.fullmatch(r"stage (\w+): done in \d+\.\d ms", line) for line in done]
        assert [m.group(1) for m in stages if m] == logged
        assert len(stages) == len(done)
        assert [m for m in messages if m.startswith("reusing report ")] == reused


def test_each_subcommand_logs_its_stages(workspace, caplog):
    config = str(workspace / "config.yaml")
    for command, logged in [
        ("predict-llm", ["ingest", "sample", "llm"]),
        ("fit-bench", ["ingest", "sample", "benchmarks"]),
    ]:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="modechoice.pipeline"):
            assert run_cli(command, "--config", config) == 0
        done = [r.getMessage() for r in caplog.records if ": done in " in r.getMessage()]
        stages = [re.fullmatch(r"stage (\w+): done in \d+\.\d ms", line) for line in done]
        assert all(stages) and [m.group(1) for m in stages] == logged


def test_each_kind_keeps_the_settings_it_reads(workspace, monkeypatch):
    """Every setting a kind reads still loads, and keeps the model key it had."""
    every = {
        "mnl": "{seed: 3, learning_rate: 0.5, max_epochs: 300, tolerance: 1.0e-6,"
        " l2_strength: 2.0}",
        "rf": "{seed: 3, n_trees: 5, max_features: 2, bootstrap: false, max_depth: 4}",
        "nn": "{seed: 3, learning_rate: 0.01, max_epochs: 15, tolerance: 1.0e-3,"
        " l2_strength: 0.1, hidden_units: 8, batch_size: 50}",
    }
    text = BASE
    for old, kind in (("  mnl: {max_epochs: 300}\n", "mnl"), (RF_LINE, "rf"), (NN_LINE, "nn")):
        text = text.replace(old, f"  {kind}: {every[kind]}\n")
    (workspace / "every.yaml").write_text(text)
    cfg = load_pipeline_config(workspace / "every.yaml")
    assert cfg.train_configs["rf"].max_depth == 4 and cfg.train_configs["nn"].batch_size == 50
    assert cfg.train_configs["mnl"].tolerance == 1.0e-6
    # pinned before unread settings were rejected, at model format version 2
    monkeypatch.setattr(pipeline, "MODEL_FORMAT_VERSION", 2)
    pinned = {
        "config.yaml": ("3963e246077158df", "e05cc093ddbc1f29", "6f1e22cd39e7ecae"),
        "every.yaml": ("0a090e67ff735e2f", "2d6c6e1d20aace03", "26f2372a790abc6f"),
    }
    for name, keys in pinned.items():
        cfg = load_pipeline_config(workspace / name)
        kinds = ("mnl", "rf", "nn")
        assert tuple(pipeline._model_key(cfg, kind, "split")[:16] for kind in kinds) == keys
