"""Command-line entry point with one subcommand per pipeline stage.

Partial runs matter because live completions cost money: `ingest`, `sample`,
`dump-prompt`, `predict-llm`, and `fit-bench` each run a prefix of the
pipeline against content-addressed stage artifacts, `evaluate` builds the
report from stored predictions, and `run` drives everything end to end.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter

from . import benchmarks, pipeline
from .dataset import MODE_ORDER
from .evaluation import render_summary_text
from .gateway import GatewayError
from .prompting import build_prompt


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    parser.add_argument(
        "--backend",
        choices=["http_chat", "mock"],
        default=None,
        help="override the completion backend",
    )
    parser.add_argument(
        "--max-samples",
        type=int,
        default=None,
        help="cap on evaluated test situations (0 lifts the live-backend default cap)",
    )
    parser.add_argument("--out", default=None, help="override the output directory")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modechoice",
        description="Zero-shot travel mode choice prediction with local baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("ingest", "load the survey file and report retained situations"),
        ("sample", "draw the balanced train/test split"),
        ("dump-prompt", "print one rendered prompt"),
        ("predict-llm", "complete and parse the test-set prompts"),
        ("fit-bench", "train the benchmark models"),
        ("evaluate", "build the report from stored predictions"),
        ("run", "execute the full pipeline"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        _add_common_flags(cmd)
        if name == "dump-prompt":
            cmd.add_argument(
                "--index", type=int, default=0, help="test-set position to render (default 0)"
            )
            cmd.add_argument(
                "--situation-id", default=None, help="render this situation instead"
            )
    return parser


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    overrides = {
        "seed": args.seed,
        "backend": args.backend,
        "max_samples": args.max_samples,
        "out": args.out,
    }
    return pipeline.load_pipeline_config(args.config, overrides)


def _class_counts(situations) -> str:
    counts = Counter(s.chosen for s in situations)
    return ", ".join(f"{m.display}={counts.get(m, 0)}" for m in MODE_ORDER)


def _cmd_ingest(cfg) -> int:
    situations = pipeline.stage_ingest(cfg)
    print(f"ingested {len(situations)} situations from {cfg.dataset_path}")
    print(f"class counts: {_class_counts(situations)}")
    return 0


def _cmd_sample(cfg) -> int:
    situations = pipeline.stage_ingest(cfg)
    train, test = pipeline.stage_sample(cfg, situations)
    print(f"train: {len(train)} ({_class_counts(train)})")
    print(f"test:  {len(test)} ({_class_counts(test)})")
    return 0


def _cmd_dump_prompt(cfg, args) -> int:
    situations = pipeline.stage_ingest(cfg)
    if args.situation_id is not None:
        matches = [s for s in situations if s.situation_id == args.situation_id]
        if not matches:
            print(f"error: no situation with id {args.situation_id!r}", file=sys.stderr)
            return 2
        situation = matches[0]
    else:
        _, test = pipeline.stage_sample(cfg, situations)
        if not 0 <= args.index < len(test):
            print(f"error: --index must be in [0, {len(test)})", file=sys.stderr)
            return 2
        situation = test[args.index]
    print(build_prompt(situation, cfg.prompt).full_text)
    return 0


def _cmd_predict_llm(cfg) -> int:
    situations = pipeline.stage_ingest(cfg)
    _, test = pipeline.stage_sample(cfg, situations)
    cap = cfg.effective_max_samples()
    if cap is not None:
        test = test[:cap]
    rows = pipeline.stage_llm(cfg, test)
    failures = sum(1 for r in rows if r["error"])
    print(f"completed {len(rows)} prompts; {failures} parse/backend failures")
    return 0


def _cmd_fit_bench(cfg) -> int:
    situations = pipeline.stage_ingest(cfg)
    train, _ = pipeline.stage_sample(cfg, situations)
    fitted = pipeline.stage_benchmarks(cfg, train)
    models_dir = cfg.output_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for kind, (model, scaler) in fitted.items():
        destination = models_dir / f"{kind}.json"
        benchmarks.save_model(destination, model, scaler)
        X = benchmarks.encode_matrix(train, scaler)
        labels = benchmarks.predict_labels(model, X)
        hits = sum(p == s.chosen for p, s in zip(labels, train))
        print(f"{kind}: train accuracy {hits / len(train):.3f}, saved to {destination}")
    return 0


def _cmd_evaluate(cfg) -> int:
    llm_artifact = pipeline.stage_path(cfg.output_dir, "llm", pipeline.llm_key(cfg))
    if not llm_artifact.exists():
        print(
            "error: no stored predictions for this config; run `predict-llm` first "
            f"(expected {llm_artifact})",
            file=sys.stderr,
        )
        return 2
    report = pipeline.run_pipeline(cfg)
    print(render_summary_text(report))
    return 0


def _cmd_run(cfg) -> int:
    report = pipeline.run_pipeline(cfg)
    print(render_summary_text(report))
    report_dir = cfg.output_dir / f"report-{pipeline.config_digest(cfg)[:12]}"
    print(f"report artifacts: {report_dir}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "ingest":
            return _cmd_ingest(cfg)
        if args.command == "sample":
            return _cmd_sample(cfg)
        if args.command == "dump-prompt":
            return _cmd_dump_prompt(cfg, args)
        if args.command == "predict-llm":
            return _cmd_predict_llm(cfg)
        if args.command == "fit-bench":
            return _cmd_fit_bench(cfg)
        if args.command == "evaluate":
            return _cmd_evaluate(cfg)
        if args.command == "run":
            return _cmd_run(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except pipeline.PipelineError as exc:
        print(f"error in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return 1
    except (OSError, ValueError, GatewayError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
