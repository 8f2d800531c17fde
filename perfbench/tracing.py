"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: `Tracer.installed()` replaces,
for its duration, the public functions each layer exposes to the pipeline
with wrappers that open a span around the call, and puts the originals back
afterwards. The program itself is not edited. Spans stay in memory and are
written out by `Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    run_id: str
    phase: str
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    tag: str = ""  # baseline kind or artifact stage, where the call has one
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _tag_of(name: str, args: tuple) -> str:
    if name == "fit_classifier":
        return args[0]
    if name == "predict_labels":
        return args[0].kind
    if name == "load_or_create":
        return Path(args[0]).name.rsplit("-", 1)[0]  # "model-rf-<key>.json" -> "model-rf"
    return ""


def _info_of(name: str, result) -> dict:
    if name == "batch_complete":
        done = [r for r in result if hasattr(r, "cache_hit")]
        return {
            "completions": len(done),
            "failures": len(result) - len(done),
            "cache_hits": sum(r.cache_hit for r in done),
            "attempts": sum(r.attempt_count for r in done),
            "latency_ms": [r.latency_ms for r in done if not r.cache_hit],
        }
    if name == "parse_response":
        return {"path": result.parse_path}
    if name == "fit_classifier":
        return {"epochs": len(result.loss_curve)}
    return {}


class Tracer:
    """Records nested spans per thread; every span carries the run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.phase = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, tag: str = ""):
        stack = self._stack()
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                parent_id=stack[-1].span_id if stack else None,
                run_id=self.run_id,
                phase=self.phase,
                name=name,
                layer=layer,
                start_ns=0,
                tag=tag,
            )
            self.spans.append(span)
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, func, name: str, layer: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, layer, _tag_of(name, args)) as span:
                result = func(*args, **kwargs)
            span.info = _info_of(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap each layer's public entry points for the duration of the block."""
        from modechoice import benchmarks, pipeline

        targets = [
            (pipeline, "ingest_key", "pipeline"),
            (pipeline, "stage_ingest", "pipeline"),
            (pipeline, "stage_sample", "pipeline"),
            (pipeline, "stage_llm", "pipeline"),
            (pipeline, "stage_benchmarks", "pipeline"),
            (pipeline, "load_or_create", "artifacts"),
            (pipeline, "load_raw", "dataset"),
            (pipeline, "to_choice_situations", "dataset"),
            (pipeline, "balanced_split", "dataset"),
            (pipeline, "build_prompt", "prompting"),
            (pipeline, "make_backend", "gateway"),
            (pipeline, "batch_complete", "gateway"),
            (pipeline, "parse_response", "parsing"),
            (pipeline, "write_report", "evaluation"),
            (benchmarks, "fit_scaler", "benchmarks"),
            (benchmarks, "fit_classifier", "benchmarks"),
            (benchmarks, "encode_matrix", "benchmarks"),
            (benchmarks, "predict_labels", "benchmarks"),
            (benchmarks, "model_to_dict", "benchmarks"),
            (benchmarks, "model_from_dict", "benchmarks"),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, layer in targets:
                setattr(module, attr, self._wrap(getattr(module, attr), attr, layer))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def write(self, handle) -> None:
        """Write every span as one JSON line."""
        for span in self.spans:
            handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures from one traced round


LAYERS = (
    "pipeline",
    "artifacts",
    "dataset",
    "prompting",
    "gateway",
    "parsing",
    "benchmarks",
    "evaluation",
)
# With every stage stored, a warm run reaches only these layers.
WARM_LAYERS = ("pipeline", "artifacts", "benchmarks", "evaluation")


def self_times_ms(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Only the pipeline's own thread opens spans, so children never overlap."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            child_ns[span.parent_id] = child_ns.get(span.parent_id, 0) + span.end_ns - span.start_ns
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own = span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)
        totals[span.layer] += own / 1e6
    return totals


def _select(spans, phases, name, tag=None) -> list[Span]:
    """Spans of `name` from the first listed phase that has any."""
    for phase in phases:
        found = [s for s in spans if s.phase == phase and s.name == name and (tag is None or s.tag == tag)]
        if found:
            return found
    return []


def _total_ms(spans, phases, name, tag=None) -> float:
    return sum(s.ms for s in _select(spans, phases, name, tag))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def layer_metrics(spans: list[Span], kinds: tuple[str, ...]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced round.

    Phases: `cold`, `cache_warm`, `warm` and `evaluate` are pipeline runs;
    `probe_fit` and `probe_load` fit and reload the baselines a workload does
    not configure, so every workload reports every baseline figure.
    """
    cold = ("cold",)
    fit_phases = ("cold", "probe_fit")
    load_phases = ("warm", "probe_load")
    key_calls = _select(spans, cold, "ingest_key")
    cold_batch = _select(spans, cold, "batch_complete")
    warm_batch = _select(spans, ("cache_warm",), "batch_complete")
    parses = _select(spans, cold, "parse_response")
    latencies = [v for s in cold_batch for v in s.info["latency_ms"]]
    m = {
        "dataset.load_raw_ms": _total_ms(spans, cold, "load_raw"),
        "dataset.to_situations_ms": _total_ms(spans, cold, "to_choice_situations"),
        "dataset.split_ms": _total_ms(spans, cold, "balanced_split"),
        "pipeline.ingest_key_ms": sum(s.ms for s in key_calls) / max(1, len(key_calls)),
        "pipeline.ingest_key_calls": len(key_calls),
        "pipeline.ingest_cold_ms": _total_ms(spans, cold, "stage_ingest"),
        "pipeline.ingest_warm_ms": _total_ms(spans, ("warm",), "stage_ingest"),
        "pipeline.sample_warm_ms": _total_ms(spans, ("warm",), "stage_sample"),
        "pipeline.benchmarks_warm_ms": _total_ms(spans, ("warm",), "stage_benchmarks"),
        "prompting.render_ms": _total_ms(spans, cold, "build_prompt"),
        "gateway.complete_cold_ms": sum(s.ms for s in cold_batch),
        "gateway.complete_hit_ms": sum(s.ms for s in warm_batch),
        "gateway.attempts": sum(s.info["attempts"] for s in cold_batch),
        "gateway.retries": sum(s.info["attempts"] - s.info["completions"] for s in cold_batch),
        "gateway.cache_hits": sum(s.info["cache_hits"] for s in warm_batch),
        "gateway.latency_p50_ms": _percentile(latencies, 50),
        "gateway.latency_p90_ms": _percentile(latencies, 90),
        "parsing.parse_ms": sum(s.ms for s in parses),
        "parsing.strict": sum(s.info["path"] == "strict" for s in parses),
        "parsing.fallback": sum(s.info["path"] == "fallback" for s in parses),
        "benchmarks.encode_ms": _total_ms(spans, cold, "encode_matrix"),
        "benchmarks.rf.load_ms": _total_ms(spans, load_phases, "load_or_create", "model-rf"),
        "evaluation.write_report_ms": _total_ms(spans, cold, "write_report"),
    }
    for kind in kinds:
        m[f"benchmarks.{kind}.fit_ms"] = _total_ms(spans, fit_phases, "fit_classifier", kind)
        m[f"benchmarks.{kind}.predict_ms"] = _total_ms(spans, fit_phases, "predict_labels", kind)
    for kind in ("mnl", "nn"):
        fits = _select(spans, fit_phases, "fit_classifier", kind)
        m[f"benchmarks.{kind}.epochs"] = sum(s.info["epochs"] for s in fits)
    for phase, layers in (("cold", LAYERS), ("cache_warm", LAYERS), ("warm", WARM_LAYERS)):
        own = self_times_ms([s for s in spans if s.phase == phase])
        for layer in layers:
            m[f"self.{phase}.{layer}_ms"] = own[layer]
    return m
