"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import math
import os
import random
import time

import numpy as np
import pytest

from modechoice.benchmarks import (
    default_train_config,
    encode_matrix,
    fit_classifier,
    fit_scaler,
    mnl,
    predict_labels,
)
from modechoice.dataset import ColumnMap, ModeLabel, balanced_split, load_raw, to_choice_situations
from modechoice.gateway import BackendConfig, CompletionCache, batch_complete
from modechoice.parsing import parse_response
from modechoice.pipeline import config_digest, load_pipeline_config, run_pipeline
from modechoice.prompting import PromptTemplateConfig, build_prompt, build_prompts, percent_saving

from conftest import (
    random_situation, real_data_path, synthetic_raw_rows, table_of, write_survey_file
)
from test_evaluation import ref_accuracy, ref_confusion, ref_weighted_f1, scored
from test_benchmarks import numeric_grad, relative_error
from test_pipeline_cli import CONFIG_TEMPLATE, oracle_accuracy


def _verdict(number, name, ok, detail=""):
    print(f"\n[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}): {detail}"


def _skip(number, name, reason):
    print(f"\n[acceptance {number}] {name}: SKIP ({reason})")
    pytest.skip(reason)


def test_criterion_1_arithmetic_hint_percentages():
    started = time.perf_counter()
    expected = {(90, 34): 62, (106, 34): 68, (130, 92): 29, (95, 92): 3}
    results = {pair: percent_saving(*pair) for pair in expected}
    elapsed = time.perf_counter() - started
    ok = results == expected and elapsed < 1.0
    _verdict(1, "arithmetic hint percentages", ok, f"{results}, {elapsed * 1000:.1f}ms")


def test_criterion_2_prompt_parse_round_trip():
    started = time.perf_counter()
    rng = random.Random(2024)
    cfg = PromptTemplateConfig()
    words = ["lowest", "time", "cost", "train", "car", "swissmetro", "pass", "43%", "user"]
    failures = 0
    for i in range(1000):
        row = table_of([random_situation(rng, f"s{i:04d}")])
        prompt_a = build_prompt(row, cfg)
        prompt_b = build_prompt(row, cfg)
        if prompt_a.full_text != prompt_b.full_text:
            failures += 1
            continue
        mode = rng.choice(list(ModeLabel))
        reason = " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
        parsed = parse_response(f"Prediction: {mode.display}\nReason: {reason}")
        if (parsed.mode, parsed.reason, parsed.parse_path) != (mode, reason, "strict"):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _verdict(2, "prompt/parse round trip", ok, f"{failures} failures, {elapsed:.2f}s")


def test_criterion_3_metric_oracle_equivalence():
    rng = random.Random(31)
    worst = 0.0
    matrices_equal = True
    for _ in range(1000):
        n = rng.randint(1, 40)
        pred = [rng.choice(list(ModeLabel)) for _ in range(n)]
        actual = [rng.choice(list(ModeLabel)) for _ in range(n)]
        accuracy, f1, matrix = scored(pred, actual)
        worst = max(worst, abs(accuracy - ref_accuracy(pred, actual)))
        worst = max(worst, abs(f1 - ref_weighted_f1(pred, actual)))
        if matrix.tolist() != ref_confusion(pred, actual):
            matrices_equal = False
    _, hand, _ = scored(
        [ModeLabel.TRAIN, ModeLabel.TRAIN, ModeLabel.CAR],
        [ModeLabel.TRAIN, ModeLabel.CAR, ModeLabel.CAR],
    )
    ok = worst < 1e-12 and matrices_equal and hand == 2 / 3
    _verdict(
        3,
        "metric oracle equivalence",
        ok,
        f"max metric deviation {worst:.2e}, hand example {hand:.6f}",
    )


def test_criterion_4_mnl_numerics(tmp_path):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 40))
        f = int(rng.integers(2, 9))
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 3, size=n)
        weights = rng.normal(size=(3, f))
        intercepts = rng.normal(size=3)
        l2 = float(rng.choice([0.0, 1.0]))
        _, dw, db = mnl.loss_and_grad(weights, intercepts, X, y, l2)
        num_dw, num_db = numeric_grad(
            lambda: mnl.loss_and_grad(weights, intercepts, X, y, l2)[0],
            [weights, intercepts],
        )
        worst = max(worst, relative_error(dw, num_dw), relative_error(db, num_db))

    X0 = rng.normal(size=(64, 8))
    y0 = rng.integers(0, 3, size=64)
    initial, _, _ = mnl.loss_and_grad(np.zeros((3, 8)), np.zeros(3), X0, y0, 1.0)
    initial_ok = abs(initial - math.log(3)) < 1e-9

    path = write_survey_file(tmp_path / "curve.dat", synthetic_raw_rows(300, seed=5))
    cmap = ColumnMap()
    rows = to_choice_situations(load_raw(path, cmap), cmap)
    scaler = fit_scaler(rows)
    model = fit_classifier("mnl", rows, default_train_config("mnl"), scaler)
    monotone = all(a >= b for a, b in zip(model.loss_curve, model.loss_curve[1:]))

    ok = worst < 1e-4 and initial_ok and monotone
    _verdict(
        4,
        "multinomial logit numerics",
        ok,
        f"max gradient error {worst:.2e}, initial loss {initial:.12f}, "
        f"curve monotone: {monotone}",
    )


BANDS = {"mnl": (0.645, 0.06), "rf": (0.650, 0.07), "nn": (0.685, 0.07)}


def test_criterion_5_benchmark_bands_on_survey_data():
    data = real_data_path()
    if data is None:
        _skip(
            5,
            "benchmark accuracy bands on survey data",
            "survey file not available (set SWISSMETRO_DAT or see scripts/fetch_swissmetro.py)",
        )
    started = time.perf_counter()
    cmap = ColumnMap()
    situations = to_choice_situations(load_raw(data, cmap), cmap)
    train, test = balanced_split(situations, 1000, 200, seed=42)
    scaler = fit_scaler(train)
    X_test = encode_matrix(test, scaler)
    observed = {}
    for kind in ("mnl", "rf", "nn"):
        model = fit_classifier(kind, train, default_train_config(kind, seed=42), scaler)
        labels = predict_labels(model, X_test)
        observed[kind] = sum(p == s.chosen for p, s in zip(labels, test)) / len(test)
    elapsed = time.perf_counter() - started
    in_band = {
        kind: abs(observed[kind] - center) <= width
        for kind, (center, width) in BANDS.items()
    }
    ok = all(in_band.values()) and elapsed < 120.0
    detail = ", ".join(
        f"{kind}={observed[kind]:.3f} (target {c}±{w})" for kind, (c, w) in BANDS.items()
    )
    _verdict(5, "benchmark accuracy bands on survey data", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_6_offline_pipeline_determinism(tmp_path):
    write_survey_file(tmp_path / "survey.dat", synthetic_raw_rows(600, seed=7))
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CONFIG_TEMPLATE.format(mock_rule="generalized_cost"))
    cfg = load_pipeline_config(config_path)
    report = run_pipeline(cfg)
    expected = oracle_accuracy(tmp_path / "survey.dat", 120, 45, 11)
    report_dir = cfg.output_dir / f"report-{config_digest(cfg)[:12]}"
    snapshot = {p.name: p.read_bytes() for p in report_dir.iterdir()}
    run_pipeline(load_pipeline_config(config_path))
    identical = {p.name: p.read_bytes() for p in report_dir.iterdir()} == snapshot
    ok = report.metrics["llm"].accuracy == expected and identical
    _verdict(
        6,
        "offline pipeline determinism",
        ok,
        f"pipeline accuracy {report.metrics['llm'].accuracy:.6f} vs oracle {expected:.6f}, "
        f"reports byte-identical: {identical}",
    )


def test_criterion_7_live_backend_smoke(tmp_path):
    if not os.environ.get("LLM_API_KEY"):
        _skip(7, "live backend smoke test", "LLM_API_KEY not set; live check is opt-in")
    rng = random.Random(99)
    situations = table_of(random_situation(rng, f"live{i:02d}") for i in range(20))
    prompts = build_prompts(situations, PromptTemplateConfig())
    cfg = BackendConfig(backend_kind="http_chat", max_parallel_requests=2)
    cache = CompletionCache(tmp_path / "live_cache")
    first = batch_complete(prompts, cfg, cache)
    completions = [r for r in first if hasattr(r, "text")]
    parsed_count = 0
    valid = 0
    strict = 0
    for completion in completions:
        try:
            parsed = parse_response(completion.text)
        except Exception:
            continue
        parsed_count += 1
        valid += parsed.mode in set(ModeLabel)
        strict += parsed.parse_path == "strict"
    second = batch_complete(prompts, cfg, cache)
    all_cached = all(getattr(r, "cache_hit", False) for r in second)
    ok = (
        len(completions) == 20
        and valid == parsed_count  # every parsed label is a real mode
        and strict >= 0.95 * len(prompts)
        and all_cached
    )
    _verdict(
        7,
        "live backend smoke test",
        ok,
        f"{strict}/20 strict parses, repeat run fully cached: {all_cached}",
    )
