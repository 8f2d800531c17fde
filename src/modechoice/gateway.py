"""Backend-agnostic completion gateway with disk caching and retries.

Two backends are shipped: an HTTP chat-completion client (the prompt as the
user message, after an optional system message; temperature-controlled),
which `http_backend` holds, and a deterministic mock that applies a simple choice rule to the travel
characteristics embedded in the prompt text. Completions are cached on disk
keyed by the whole request (see request_digest), which makes repeat runs free
and, at temperature 0, lossless.
"""

from __future__ import annotations

import logging
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .artifacts import digest_of, dump_json_lines, load_json_lines, write_atomic
from .config import MODE_ORDER, BackendConfig, parse_mock_rule, request_digest
from .prompting import Prompt

logger = logging.getLogger(__name__)

_CHARACTERISTICS = re.compile(
    r"\{Travel time: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}, "
    r"Travel cost: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}\}"
)


class GatewayError(Exception):
    pass


class MissingCredential(GatewayError):
    def __init__(self, env_var: str):
        self.env_var = env_var
        super().__init__(f"environment variable {env_var} is not set")


class BackendExhausted(GatewayError):
    def __init__(self, last_status, message: str = ""):
        self.last_status = last_status
        super().__init__(message or f"backend gave up with status {last_status}")


class RequestTimedOut(GatewayError):
    pass


class TransientBackendError(GatewayError):
    """Retryable failure (rate limit, server error, timeout, dropped connection)."""

    def __init__(self, status, message: str = ""):
        self.status = status
        super().__init__(message or f"transient backend failure: {status}")


@dataclass(frozen=True)
class ModelCompletion:
    text: str
    situation_id: str
    cache_hit: bool
    latency_ms: float
    attempt_count: int


@dataclass(frozen=True)
class CompletionFailure:
    """Per-item error record used by batch_complete; never aborts the batch."""

    situation_id: str
    error_type: str
    message: str


class CompletionCache:
    """Digest-keyed completion store, kept on disk as segment files.

    Opening the cache reads every `*.jsonl.gz` segment in its directory, in sorted
    name order; the first entry for a key wins, and a damaged segment is a
    ValueError naming its file. `put` records an entry in memory, and `flush`
    writes the entries put since the last flush as one new segment: gzip'd JSON
    lines of [key, text], sorted by key and named by the digest of their bytes, so
    the same entries always make the same file whatever order they arrived in.
    Until `flush`, new entries live only in this object: `batch_complete` flushes
    when it ends, and a caller of `complete` alone flushes itself.
    """

    SUFFIX = ".jsonl.gz"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, str] = {}
        self._pending: dict[str, str] = {}
        self._lock = threading.Lock()  # pool threads put concurrently
        for path in sorted(self.directory.glob(f"*{self.SUFFIX}")):
            try:
                for entry in load_json_lines(path.read_bytes()):
                    match entry:
                        case [str() as key, str() as text]:
                            self._entries.setdefault(key, text)
                        case _:
                            raise ValueError(f"not a [key, text] pair of strings: {entry!r:.80}")
            except (OSError, ValueError) as exc:
                raise ValueError(f"{path}: {exc}") from exc

    def get(self, key: str) -> str | None:
        return self._entries.get(key)

    def put(self, key: str, text: str) -> None:
        with self._lock:
            self._entries[key] = text
            self._pending[key] = text

    def flush(self) -> Path | None:
        """Write the pending entries as one segment and return its path;
        with nothing pending, write nothing and return None."""
        with self._lock:
            pending, self._pending = self._pending, {}
        if not pending:
            return None
        data = dump_json_lines([key, pending[key]] for key in sorted(pending))
        path = self.directory / f"{digest_of(data)}{self.SUFFIX}"
        write_atomic(path, data)
        return path


def parse_prompt_characteristics(prompt_text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover the per-mode times and costs, each in MODE_ORDER, from a rendered prompt."""
    match = _CHARACTERISTICS.search(prompt_text)
    if not match:
        raise GatewayError("prompt contains no travel characteristics block")
    numbers = tuple(map(int, match.groups()))
    return numbers[:3], numbers[3:]


class MockBackend:
    """Deterministic stand-in for a hosted model; a pure function of the prompt.

    Rules: min_time, min_cost, generalized_cost (time + cost, equal weights),
    fixed:<Mode> (constant answer), malformed (output the parser rejects).
    """

    def __init__(self, rule: str = "generalized_cost"):
        self.rule, self._fixed = parse_mock_rule(rule)

    def generate(self, prompt_text: str) -> str:
        if self.rule == "malformed":
            return "I cannot determine the best travel mode from the given information."
        if self.rule == "fixed":
            return f"Prediction: {self._fixed.display}\nReason: fixed-answer mock rule."
        times, costs = parse_prompt_characteristics(prompt_text)
        if self.rule == "min_time":
            score, why = times, "lowest travel time"
        elif self.rule == "min_cost":
            score, why = costs, "lowest travel cost"
        else:
            score = [t + c for t, c in zip(times, costs)]
            why = "lowest combined travel time and cost"
        best = min(MODE_ORDER, key=lambda m: (score[m], m))
        return f"Prediction: {best.display}\nReason: {best.display} has the {why}."


def make_backend(cfg: BackendConfig):
    if cfg.backend_kind == "mock":
        return MockBackend(cfg.mock_rule)
    from .http_backend import HttpChatBackend  # urllib.request, only for this backend

    return HttpChatBackend(cfg)


def _generate_with_retries(backend, prompt_text: str, cfg: BackendConfig) -> tuple[str, int]:
    attempts = 0
    while True:
        attempts += 1
        try:
            return backend.generate(prompt_text), attempts
        except TransientBackendError as exc:
            if attempts > cfg.max_retries:
                if exc.status == "timeout":
                    raise RequestTimedOut(
                        f"timed out after {attempts} attempts"
                    ) from exc
                raise BackendExhausted(
                    exc.status, f"gave up after {attempts} attempts: {exc}"
                ) from exc
            delay = cfg.retry_backoff_base_seconds * (2 ** (attempts - 1))
            delay *= 1 + 0.25 * random.random()  # jitter to avoid retry bursts
            logger.warning(
                "transient backend failure (%s), retry %d/%d in %.2fs",
                exc.status,
                attempts,
                cfg.max_retries,
                delay,
            )
            if delay > 0:
                time.sleep(delay)


def complete(
    prompt: Prompt,
    cfg: BackendConfig,
    cache: CompletionCache | None,
    backend=None,
) -> ModelCompletion:
    """Complete one prompt, consulting the cache first and storing on success.

    A new completion is kept in the cache's memory until `cache.flush()`."""
    key = digest_of(request_digest(cfg), prompt.full_text)
    hit = _cached(prompt, key, cache)
    if hit is not None:
        return hit
    return _generate(prompt, key, cfg, cache, make_backend(cfg) if backend is None else backend)


def _cached(prompt: Prompt, key: str, cache: CompletionCache | None) -> ModelCompletion | None:
    """The prompt's completion stored under key, or None when there is none."""
    text = None if cache is None else cache.get(key)
    if text is None:
        return None
    return ModelCompletion(
        text=text,
        situation_id=prompt.situation_id,
        cache_hit=True,
        latency_ms=0.0,
        attempt_count=0,
    )


def _generate(
    prompt: Prompt, key: str, cfg: BackendConfig, cache: CompletionCache | None, backend
) -> ModelCompletion:
    """Ask the backend for the prompt's completion and put it in the cache under key."""
    started = time.perf_counter()
    text, attempts = _generate_with_retries(backend, prompt.full_text, cfg)
    latency_ms = (time.perf_counter() - started) * 1000.0
    if not isinstance(text, str) or not text:
        raise GatewayError(f"backend returned no completion text: {text!r:.80}")
    if cache is not None:
        cache.put(key, text)
    return ModelCompletion(
        text=text,
        situation_id=prompt.situation_id,
        cache_hit=False,
        latency_ms=latency_ms,
        attempt_count=attempts,
    )


def batch_complete(
    prompts: list[Prompt],
    cfg: BackendConfig,
    cache: CompletionCache | None,
    backend=None,
) -> list[ModelCompletion | CompletionFailure]:
    """Complete prompts in input order. Cached prompts are answered on the
    calling thread; the rest go to the backend in input order, at most
    cfg.max_parallel_requests at a time for a backend that waits on the
    network, while the in-process mock runs on the calling thread. With no
    prompt left to send, no pool is started.

    One item's failure never aborts the batch; failed positions hold a
    CompletionFailure record instead of a completion. The batch's new
    completions are written to the cache as one segment when it ends.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    if backend is None:
        backend = make_backend(cfg)  # credential problems surface before any work
    request = request_digest(cfg)
    results = []  # a hit's completion; for a miss, until it is sent, its key
    for prompt in prompts:
        key = digest_of(request, prompt.full_text)
        hit = _cached(prompt, key, cache)
        results.append(key if hit is None else hit)
    misses = [i for i, result in enumerate(results) if isinstance(result, str)]

    def one(i: int) -> ModelCompletion | CompletionFailure:
        prompt = prompts[i]
        try:
            return _generate(prompt, results[i], cfg, cache, backend)
        except GatewayError as exc:
            logger.warning("completion failed for %s: %s", prompt.situation_id, exc)
            return CompletionFailure(
                situation_id=prompt.situation_id,
                error_type=type(exc).__name__,
                message=str(exc),
            )

    try:
        if misses and not isinstance(backend, MockBackend):
            with ThreadPoolExecutor(max_workers=cfg.max_parallel_requests) as pool:
                for i, result in zip(misses, pool.map(one, misses)):
                    results[i] = result
        else:
            # the mock is pure Python with no waits: pool threads would only
            # contend for the interpreter lock
            for i in misses:
                results[i] = one(i)
        return results
    finally:
        # also on an exception or Ctrl-C, so the completions made are kept
        if cache is not None:
            cache.flush()
