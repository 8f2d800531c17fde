"""Command-line entry point with one subcommand per pipeline stage.

Partial runs matter because live completions cost money: `ingest`, `sample`,
`dump-prompt`, `predict-llm`, and `fit-bench` each run a prefix of the
pipeline against content-addressed stage artifacts, `evaluate` builds the
report from the stored predictions and models alone, and `run` drives
everything end to end.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter

from . import benchmarks, pipeline
from .artifacts import write_atomic
from .dataset import MODE_ORDER
from .evaluation import render_summary_text
from .gateway import BACKEND_KINDS
from .prompting import build_prompts


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    parser.add_argument(
        "--backend",
        choices=BACKEND_KINDS,
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
    for name, (_, help_text) in COMMANDS.items():
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


def _cmd_ingest(cfg, args) -> int:
    situations = pipeline.stage_ingest(cfg)
    print(f"ingested {len(situations)} situations from {cfg.dataset_path}")
    print(f"class counts: {_class_counts(situations)}")
    return 0


def _cmd_sample(cfg, args) -> int:
    train, test = pipeline.stage_sample(cfg, pipeline.stage_ingest(cfg))
    print(f"train: {len(train)} ({_class_counts(train)})")
    print(f"test:  {len(test)} ({_class_counts(test)})")
    return 0


def _cmd_dump_prompt(cfg, args) -> int:
    situations = pipeline.stage_ingest(cfg)
    if args.situation_id is not None:
        try:
            position = situations.ids.index(args.situation_id)
        except ValueError:
            print(f"error: no situation with id {args.situation_id!r}", file=sys.stderr)
            return 2
    else:
        _, situations = pipeline.stage_sample(cfg, situations)
        position = args.index
        if not 0 <= position < len(situations):
            print(f"error: --index must be in [0, {len(situations)})", file=sys.stderr)
            return 2
    [prompt] = build_prompts(situations[position : position + 1], cfg.prompt)
    print(prompt.full_text)
    return 0


def _cmd_predict_llm(cfg, args) -> int:
    split_key, _, test = pipeline.prepare_split(cfg)
    answers = pipeline.stage_llm(cfg, test, split_key)
    backend = sum(a.backend_failure for a in answers)
    unparsed = sum(a.prediction is None for a in answers) - backend
    print(
        f"completed {len(answers)} prompts; {unparsed} parse failures, {backend} backend failures"
    )
    return 0


def _cmd_fit_bench(cfg, args) -> int:
    split_key, train, _ = pipeline.prepare_split(cfg)
    fitted = pipeline.stage_benchmarks(cfg, train, split_key)
    for kind, (model, scaler) in fitted.items():
        destination = cfg.output_dir / "models" / f"{kind}.json"
        write_atomic(destination, pipeline.model_text(model, scaler).encode("utf-8"))
        labels = benchmarks.predict_labels(model, benchmarks.encode_matrix(train, scaler))
        hits = sum(p == chosen for p, chosen in zip(labels, train.chosen))
        print(f"{kind}: train accuracy {hits / len(train):.3f}, saved to {destination}")
    return 0


def _cmd_evaluate(cfg, args) -> int:
    split_key = pipeline.sample_key(cfg)
    stored = {
        ("predictions", "predict-llm"): [pipeline.llm_path(cfg, split_key)],
        ("models", "fit-bench"): [
            pipeline.model_path(cfg, kind, split_key) for kind in cfg.benchmark_kinds
        ],
    }
    missing = False
    for (what, command), paths in stored.items():
        absent = [str(path) for path in paths if not path.exists()]
        if absent:
            missing = True
            print(
                f"error: no stored {what} for this config; run `{command}` first "
                f"(expected {', '.join(absent)})",
                file=sys.stderr,
            )
    if missing:
        return 2
    report = pipeline.run_pipeline(cfg, split_key)
    print(render_summary_text(report))
    return 0


def _cmd_run(cfg, args) -> int:
    print(render_summary_text(pipeline.run_pipeline(cfg)))
    print(f"report artifacts: {pipeline.report_dir(cfg)}")
    return 0


COMMANDS = {
    "ingest": (_cmd_ingest, "load the survey file and report retained situations"),
    "sample": (_cmd_sample, "draw the balanced train/test split"),
    "dump-prompt": (_cmd_dump_prompt, "print one rendered prompt"),
    "predict-llm": (_cmd_predict_llm, "complete and parse the test-set prompts"),
    "fit-bench": (_cmd_fit_bench, "train the benchmark models"),
    "evaluate": (_cmd_evaluate, "build the report from stored predictions and models"),
    "run": (_cmd_run, "execute the full pipeline"),
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        command, _ = COMMANDS[args.command]
        return command(_load_config(args), args)
    except pipeline.PipelineError as exc:
        print(f"error in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
