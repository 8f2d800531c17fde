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
from .artifacts import write_atomic
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
    parser.add_argument(
        "--out", help="override the output directory, relative to the working directory"
    )


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
    counts = Counter(situations.chosen.tolist())
    return ", ".join(f"{m.display}={counts.get(m, 0)}" for m in MODE_ORDER)


def _cmd_ingest(cfg) -> int:
    with pipeline.stage("ingest"):
        situations = pipeline.stage_ingest(cfg)
    print(f"ingested {len(situations)} situations from {cfg.dataset_path}")
    print(f"class counts: {_class_counts(situations)}")
    return 0


def _cmd_sample(cfg) -> int:
    with pipeline.stage("ingest"):
        situations = pipeline.stage_ingest(cfg)
    with pipeline.stage("sample"):
        train, test = pipeline.stage_sample(cfg, situations)
    print(f"train: {len(train)} ({_class_counts(train)})")
    print(f"test:  {len(test)} ({_class_counts(test)})")
    return 0


def _cmd_dump_prompt(cfg, args) -> int:
    with pipeline.stage("ingest"):
        situations = pipeline.stage_ingest(cfg)
    if args.situation_id is not None:
        try:
            position = situations.ids.index(args.situation_id)
        except ValueError:
            print(f"error: no situation with id {args.situation_id!r}", file=sys.stderr)
            return 2
    else:
        with pipeline.stage("sample"):
            _, situations = pipeline.stage_sample(cfg, situations)
        position = args.index
        if not 0 <= position < len(situations):
            print(f"error: --index must be in [0, {len(situations)})", file=sys.stderr)
            return 2
    [situation] = situations[position : position + 1]  # builds this row's situation alone
    print(build_prompt(situation, cfg.prompt).full_text)
    return 0


def _cmd_predict_llm(cfg) -> int:
    split_key, _, test = pipeline.prepare_split(cfg)
    answers = pipeline.stage_llm(cfg, test, split_key)
    backend = sum(a.backend_failure for a in answers)
    unparsed = sum(a.prediction is None for a in answers) - backend
    print(
        f"completed {len(answers)} prompts; {unparsed} parse failures, {backend} backend failures"
    )
    return 0


def _cmd_fit_bench(cfg) -> int:
    split_key, train, _ = pipeline.prepare_split(cfg)
    fitted = pipeline.stage_benchmarks(cfg, train, split_key)
    for kind, (model, scaler) in fitted.items():
        destination = cfg.output_dir / "models" / f"{kind}.json"
        write_atomic(destination, pipeline.model_text(model, scaler).encode("utf-8"))
        labels = benchmarks.predict_labels(model, benchmarks.encode_matrix(train, scaler))
        hits = sum(p == chosen for p, chosen in zip(labels, train.chosen))
        print(f"{kind}: train accuracy {hits / len(train):.3f}, saved to {destination}")
    return 0


def _cmd_evaluate(cfg) -> int:
    split_key = pipeline.sample_key(cfg)
    llm_artifact = pipeline.llm_path(cfg, split_key)
    if not llm_artifact.exists():
        print(
            "error: no stored predictions for this config; run `predict-llm` first "
            f"(expected {llm_artifact})",
            file=sys.stderr,
        )
        return 2
    report = pipeline.run_pipeline(cfg, split_key)
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
