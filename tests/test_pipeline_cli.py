import pytest

from modechoice import gateway
from modechoice.cli import main
from modechoice.dataset import ColumnMap, ModeLabel, balanced_split, load_raw, to_choice_situations
from modechoice.gateway import MissingCredential
from modechoice.pipeline import (
    PipelineError,
    config_digest,
    load_pipeline_config,
    run_pipeline,
)

from conftest import synthetic_raw_rows, write_survey_file

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
    (workspace / "bad.yaml").write_text(
        CONFIG_TEMPLATE.format(mock_rule="min_time") + "\nprompt:\n  not_a_key: 1\n"
    )
    with pytest.raises(ValueError, match="not_a_key"):
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


def test_stage_attribution_on_bad_dataset(workspace):
    (workspace / "survey.dat").write_text("")
    cfg = load_pipeline_config(workspace / "config.yaml")
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"


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


def test_cli_evaluate_requires_predictions(workspace, capsys):
    config = str(workspace / "config.yaml")
    assert run_cli("evaluate", "--config", config) == 2
    assert "predict-llm" in capsys.readouterr().err


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


class CannedReply:
    status_code = 200
    text = ""

    def json(self):
        content = "Prediction: Train\nReason: canned reply."
        return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def test_cli_evaluate_needs_no_credential(workspace, capsys, monkeypatch):
    calls = []

    def fake_post(url, **kwargs):
        calls.append(url)
        return CannedReply()

    monkeypatch.setattr(gateway.requests, "post", fake_post)
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    config = str(workspace / "config.yaml")
    assert run_cli("run", "--config", config, "--backend", "http_chat") == 0
    assert len(calls) == 20  # the live-backend default cap
    cfg = load_pipeline_config(workspace / "config.yaml", {"backend": "http_chat"})
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    snapshot = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    capsys.readouterr()

    monkeypatch.delenv("LLM_API_KEY")
    assert run_cli("evaluate", "--config", config, "--backend", "http_chat") == 0
    assert "LLM_API_KEY" not in capsys.readouterr().err
    assert len(calls) == 20
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()} == snapshot


def test_cli_reports_missing_config(tmp_path, capsys):
    assert run_cli("ingest", "--config", str(tmp_path / "nope.yaml")) == 1
    assert "error" in capsys.readouterr().err
