#!/usr/bin/env python3
"""Benchmark of the modechoice pipeline, end to end and per layer.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run drives one workload from this process through `run_pipeline`, in
whole rounds until `--seconds` is spent. A round is a cold run into empty
output and cache directories, a cache-warm run into a fresh output directory
that shares the cold run's cache, a warm rerun over the cold run's artifacts
and, on `http`, a report-only rerun without the API key. Every round's
outputs go through the independent checks in `checks.py`. With `--trace 1`
each round is an untraced round followed by a traced one, and the run reports
per-layer figures instead of end-to-end ones. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path

import checks
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SURVEY_ROWS = 10728  # the paper's file size
SPLIT_SEED = 42
SETUP_REPEATS = 5
PARALLEL = min(2, os.cpu_count() or 1)
ENDPOINT_DELAY_MS = 20
CREDENTIAL_ENV = "LLM_API_KEY"
ALL_KINDS = ("mnl", "rf", "nn")


@dataclasses.dataclass(frozen=True)
class Workload:
    n_train: int
    n_test: int
    kinds: tuple[str, ...]
    # Runs of under a second vary by a fifth from one to the next on a shared
    # two-core machine, so a round repeats them to give the median more samples.
    cache_warm_runs: int
    warm_runs: int
    http: bool = False


WORKLOADS = {
    "paper": Workload(1000, 200, ALL_KINDS, cache_warm_runs=1, warm_runs=5),
    "full-pass": Workload(1000, 7000, ALL_KINDS, cache_warm_runs=1, warm_runs=1),
    "http": Workload(1000, 400, ("mnl",), cache_warm_runs=6, warm_runs=10, http=True),
}


# ---------------------------------------------------------------------------
# inputs

SURVEY_COLUMNS = [
    "ID", "TRAIN_TT", "TRAIN_CO", "CAR_TT", "CAR_CO", "SM_TT", "SM_CO",
    "SURVEY", "GA", "TRAIN_AV", "CAR_AV", "SM_AV", "CHOICE",
]
SURVEY_CHOICE_CODES = {"train": 1, "swissmetro": 2, "car": 3}


def write_survey(path: Path, seed: int) -> None:
    """The scripts/make_sample_data.py rule, kept here so that the
    benchmark's inputs stay fixed when the script changes."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=SURVEY_COLUMNS, delimiter="\t")
        writer.writeheader()
        for i in range(SURVEY_ROWS):
            times = {m: rng.randint(20, 200) for m in SURVEY_CHOICE_CODES}
            costs = {m: rng.randint(10, 150) for m in SURVEY_CHOICE_CODES}
            regular = rng.random() < 0.4
            annual = rng.random() < 0.15
            utility = {}
            for mode in SURVEY_CHOICE_CODES:
                utility[mode] = -(times[mode] + costs[mode]) + rng.gauss(0, 25)
                if mode == "train":
                    utility[mode] += 60 * regular + 60 * annual
            chosen = max(SURVEY_CHOICE_CODES, key=lambda m: utility[m])
            writer.writerow(
                {
                    "ID": i,
                    "TRAIN_TT": times["train"],
                    "TRAIN_CO": costs["train"],
                    "CAR_TT": times["car"],
                    "CAR_CO": costs["car"],
                    "SM_TT": times["swissmetro"],
                    "SM_CO": costs["swissmetro"],
                    "SURVEY": int(regular),
                    "GA": int(annual),
                    "TRAIN_AV": 1,
                    "CAR_AV": 1,
                    "SM_AV": 1,
                    "CHOICE": SURVEY_CHOICE_CODES[chosen],
                }
            )


def write_config(path: Path, workload: Workload, endpoint_url: str | None) -> None:
    """Pipeline config as JSON, which is also YAML."""
    if workload.http:
        backend = {
            "backend_kind": "http_chat",
            "endpoint_url": endpoint_url,
            "max_parallel_requests": PARALLEL,
            "max_retries": 3,
            "retry_backoff_base_seconds": 0.01,
            "timeout_seconds": 10,
        }
    else:
        backend = {
            "backend_kind": "mock",
            "mock_rule": "generalized_cost",
            "max_parallel_requests": PARALLEL,
        }
    doc = {
        "dataset": {"path": "survey.dat"},
        "sampling": {"n_train": workload.n_train, "n_test": workload.n_test, "seed": SPLIT_SEED},
        "backend": backend,
        "benchmarks": {"kinds": list(workload.kinds)},
        "output_dir": "out",
        "parse_failure_mode": "exclude",
    }
    if workload.http:
        doc["max_samples"] = 0  # lift the live-backend cap of 20
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class Endpoint:
    """The fake chat-completions endpoint, in its own process."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"), "--seed", str(seed),
             "--delay-ms", str(ENDPOINT_DELAY_MS)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"fake endpoint did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1/chat/completions"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.base + path, data=data, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", data=b"")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import modechoice; print(time.perf_counter() - t)"
)


def set_up(work: Path, seed: int, workload: Workload) -> tuple[float, Endpoint | None]:
    """One set-up: import the package (in a fresh interpreter, timed inside
    it), write the survey file and, on `http`, start the endpoint."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s = float(probe.stdout.split()[-1])
    started = time.perf_counter()
    write_survey(work / "survey.dat", seed)
    endpoint = Endpoint(seed) if workload.http else None
    return import_s + time.perf_counter() - started, endpoint


# ---------------------------------------------------------------------------
# rounds


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    def __init__(self, name: str, work: Path, endpoint: Endpoint | None):
        from modechoice import pipeline

        self.pipeline = pipeline
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.endpoint = endpoint
        config = work / "config.yaml"
        write_config(config, self.workload, endpoint.url if endpoint else None)
        self.cfg = pipeline.load_pipeline_config(config)
        self.survey = checks.load_survey(work / "survey.dat")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _invoke(self, label, cfg, completions, tracer=None, expected_error=None):
        """Run the pipeline once; returns its wall time, or None if it raised.

        The invocation is one operation and each completion it makes is one
        more; an exception fails all of them."""
        self.attempted += 1 + completions
        gc.collect()
        started = time.perf_counter()
        try:
            if tracer is None:
                self.pipeline.run_pipeline(cfg)
            else:
                tracer.phase = label
                with tracer.span("run_pipeline", "pipeline"):
                    self.pipeline.run_pipeline(cfg)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1 + completions
            if expected_error is None or expected_error not in str(exc):
                print(f"[{self.name}] {label} run failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        return time.perf_counter() - started

    def _check(self, label: str, problems: list[str]) -> None:
        for problem in problems[:10]:
            self.problems.append(f"{label}: {problem}")
            print(f"[{self.name}] check failed: {label}: {problem}", file=sys.stderr)

    def _requests(self) -> int:
        return self.endpoint.stats()["requests"] if self.endpoint else 0

    def round(self, index: int, tracer: Tracer | None = None) -> dict:
        """One round; returns the wall times of each kind of run, and on a
        traced round the per-layer facts."""
        w = self.workload
        rdir = self.work / f"round{index}"
        cache = rdir / "cache"
        cold_cfg = dataclasses.replace(self.cfg, output_dir=rdir / "out_a", cache_dir=cache)
        if self.endpoint:
            self.endpoint.reset()
        result: dict = {"cold": [], "cache_warm": [], "warm": []}

        seconds = self._invoke("cold", cold_cfg, w.n_test, tracer)
        result["cold"].append(seconds)
        cold_reports = None
        if seconds is not None:
            result["out_bytes"] = dir_bytes(cold_cfg.output_dir) + dir_bytes(cache)
            cold_reports = checks.report_bytes(cold_cfg.output_dir)
            cases = checks.read_cases(cold_cfg.output_dir)
            self.failed += sum(c["llm_prediction"] == "PARSE_FAILURE" for c in cases)
            self._check("cold", checks.check_cases(cases, self.survey, w.n_test))
            self._check("cold", checks.check_split(cold_cfg.output_dir, cases, self.survey, w.n_train, w.n_test))
            self._check("cold", checks.check_report(cold_cfg.output_dir, cases, w.kinds))
        if self.endpoint:
            result["endpoint"] = self.endpoint.stats()
        sent = self._requests()

        reruns = [
            ("cache_warm", dataclasses.replace(cold_cfg, output_dir=rdir / f"out_b{k}"), w.n_test)
            for k in range(w.cache_warm_runs)
        ]
        reruns += [("warm", cold_cfg, 0)] * w.warm_runs
        if w.http:
            reruns.append(("evaluate", cold_cfg, 0))
        for label, cfg, completions in reruns:
            done = result.setdefault(label, [])
            phase = label if not done else f"{label}.{len(done) + 1}"  # traced: first of each kind
            expected_error = None
            if label == "evaluate":
                # what `modechoice evaluate` does: report from stored predictions, no key
                key = os.environ.pop(CREDENTIAL_ENV)
                expected_error = f"environment variable {CREDENTIAL_ENV} is not set"
            try:
                seconds = self._invoke(phase, cfg, completions, tracer, expected_error)
            finally:
                if label == "evaluate":
                    os.environ[CREDENTIAL_ENV] = key
            done.append(seconds)
            if seconds is None:
                continue
            if completions:
                cases = checks.read_cases(cfg.output_dir)
                self.failed += sum(c["llm_prediction"] == "PARSE_FAILURE" for c in cases)
                self._check(phase, checks.check_split(cfg.output_dir, cases, self.survey, w.n_train, w.n_test))
            if cold_reports is not None and checks.report_bytes(cfg.output_dir) != cold_reports:
                self._check(phase, ["report.json, report.txt or cases.jsonl differ from the cold run's"])
            now = self._requests()
            if now != sent:
                self._check(phase, [f"sent {now - sent} requests to the endpoint; a rerun should send none"])
                sent = now

        timings = "; ".join(
            f"{label} " + " ".join("failed" if t is None else f"{t:.3f}" for t in result[label])
            for label in ("cold", "cache_warm", "warm")
        )
        print(f"[{self.name}] round {index}{' (traced)' if tracer else ''}: {timings} s", file=sys.stderr)
        if tracer is not None and result["cold"][0] is not None:
            result["facts"] = self._facts(rdir, cold_cfg, result.get("endpoint"))
            result["facts"].update(self._probe(rdir, cold_cfg, tracer))
        shutil.rmtree(rdir, ignore_errors=True)
        return result

    def _facts(self, rdir: Path, cold_cfg, endpoint_stats: dict | None) -> dict:
        cache = cold_cfg.resolved_cache_dir
        entries = [p for p in cache.rglob("*") if p.is_file()]
        report = checks.report_dir(cold_cfg.output_dir)
        return {
            "artifacts.stage_bytes": dir_bytes(cold_cfg.output_dir / "stages"),
            "gateway.cache_entries": len(entries),
            "gateway.cache_bytes": sum(p.stat().st_size for p in entries),
            "evaluation.cases_bytes": (report / "cases.jsonl").stat().st_size,
            "endpoint.requests": endpoint_stats["requests"] if endpoint_stats else 0,
            "endpoint.connections": endpoint_stats["connections"] if endpoint_stats else 0,
        }

    def _probe(self, rdir: Path, cold_cfg, tracer: Tracer) -> dict:
        """Layer calls outside the pipeline: the completion path without a
        cache, the mock called inline (the floor), and the baselines this
        workload does not configure, fitted and reloaded as the pipeline would."""
        from modechoice import benchmarks, gateway, prompting

        tracer.phase = "probe"
        situations = self.pipeline.stage_ingest(cold_cfg)
        train, test = self.pipeline.stage_sample(cold_cfg, situations)
        cap = cold_cfg.effective_max_samples()
        test = test[:cap] if cap is not None else test
        prompts = [prompting.build_prompt(s, cold_cfg.prompt) for s in test]
        mock = gateway.MockBackend("generalized_cost")
        started = time.perf_counter()
        for prompt in prompts:
            mock.generate(prompt.full_text)
        inline_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        gateway.batch_complete(prompts, cold_cfg.backend, None)
        nocache_ms = (time.perf_counter() - started) * 1000

        missing = tuple(k for k in ALL_KINDS if k not in cold_cfg.benchmark_kinds)
        model_dir = cold_cfg.output_dir
        if missing:
            model_dir = rdir / "probe"
            probe_cfg = dataclasses.replace(
                cold_cfg, output_dir=model_dir, benchmark_kinds=missing, train_configs={}
            )
            tracer.phase = "probe_fit"
            for model, scaler in self.pipeline.stage_benchmarks(probe_cfg, train).values():
                benchmarks.predict_labels(model, benchmarks.encode_matrix(test, scaler))
            tracer.phase = "probe_load"
            self.pipeline.stage_benchmarks(probe_cfg, train)
        rf_model = next((model_dir / "stages").glob("model-rf-*.json"))
        return {
            "gateway.mock_inline_ms": inline_ms,
            "gateway.complete_nocache_ms": nocache_ms,
            "benchmarks.rf.model_bytes": rf_model.stat().st_size,
        }


def measure(bench: Bench, seconds: float, trace: bool, run_id: str):
    """Whole rounds until the next one would end past `seconds`."""
    rounds, traced, tracers = [], [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        rounds.append(bench.round(len(rounds)))
        if trace:
            tracer = Tracer(run_id)
            with tracer.installed():
                traced.append(bench.round(len(rounds) + len(traced), tracer))
            tracers.append(tracer)
        took = time.perf_counter() - round_started
        if time.perf_counter() - started + took > seconds:
            return rounds, traced, tracers


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def end_to_end(setup_s: list[float], rounds: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median(setup_s),
        "cold_run_s": _median(t for r in rounds for t in r["cold"]),
        "cache_warm_run_s": _median(t for r in rounds for t in r["cache_warm"]),
        "warm_run_s": _median(t for r in rounds for t in r["warm"]),
        "out_dir_mb": _median(r.get("out_bytes") for r in rounds) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(rounds: list[dict], traced: list[dict], tracers: list[Tracer]) -> dict[str, float]:
    samples = []
    for plain, done, tracer in zip(rounds, traced, tracers):
        if done["cold"][0] is None or plain["cold"][0] is None:
            continue
        figures = layer_metrics(tracer.spans, ALL_KINDS)
        figures.update(done["facts"])
        figures["trace.overhead_ms"] = (done["cold"][0] - plain["cold"][0]) * 1000
        samples.append(figures)
    if not samples:
        return {}
    return {name: _median(s[name] for s in samples) for name in samples[0]}


# ---------------------------------------------------------------------------
# entry points


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            tracer.write(handle)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(args) -> int:
    if not (SRC / "modechoice" / "__init__.py").is_file():
        print(f"error: no modechoice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    os.environ.setdefault(CREDENTIAL_ENV, "perfbench-local-key")
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    endpoint = None
    try:
        import modechoice  # noqa: F401  - the first import compiles the sources

        setup_s = []
        for _ in range(SETUP_REPEATS):
            if endpoint is not None:
                endpoint.stop()
                endpoint = None
            seconds, endpoint = set_up(work, args.seed, WORKLOADS[args.workload])
            setup_s.append(seconds)
        bench = Bench(args.workload, work, endpoint)
        rounds, traced, tracers = measure(bench, args.seconds, bool(args.trace), run_id)
        if args.trace:
            metrics = per_layer(rounds, traced, tracers)
            write_spans(OUT / "traces" / f"{run_id}.jsonl", tracers)
        else:
            metrics = end_to_end(setup_s, rounds)
    finally:
        if endpoint is not None:
            endpoint.stop()
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(n for n in units if not math.isfinite(metrics.get(n, math.nan)))
    if missing:
        print(f"error: no figure for {missing}", file=sys.stderr)
        return 1
    n_rounds = len(rounds) + len(traced)
    print(f"{args.workload}: {n_rounds} rounds, seed {args.seed}, "
          f"{bench.attempted} operations, {bench.failed} failed")
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.4f} {units[name]}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
