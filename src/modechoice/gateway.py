"""Backend-agnostic completion gateway with disk caching and retries.

Two backends are shipped: an HTTP chat-completion client (the prompt as the
user message, after an optional system message; temperature-controlled),
which `http_backend` holds, and a deterministic mock that applies a simple
choice rule to the travel characteristics embedded in the prompt text.
`batch_complete` is the one path to a backend. Completions are cached on disk
keyed by the whole request (see request_digest), which makes repeat runs free
and, at temperature 0, lossless; each batch writes its new completions to the
cache once, as one segment, when it ends.
"""

from __future__ import annotations

import logging
import random
import re
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
    pass


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
    ValueError naming its file. `store` writes new entries as one new segment:
    gzip'd JSON lines of [key, text], sorted by key and named by the digest of
    their bytes, so the same entries always make the same file whatever order
    they arrived in. `batch_complete` stores once per batch, from the calling
    thread, when the batch ends.
    """

    SUFFIX = ".jsonl.gz"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: dict[str, str] = {}
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

    def store(self, entries: dict[str, str]) -> Path | None:
        """Write entries as one segment and return its path; with no
        entries, write nothing and return None."""
        if not entries:
            return None
        self._entries.update(entries)
        data = dump_json_lines([key, entries[key]] for key in sorted(entries))
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
    """The backend's completion text for prompt_text and the attempts it took.
    Transient failures are retried; a reply without text is a GatewayError, sent once."""
    attempts = 0
    while True:
        attempts += 1
        try:
            text = backend.generate(prompt_text)
        except TransientBackendError as exc:
            if attempts > cfg.max_retries:
                if exc.status == "timeout":
                    raise RequestTimedOut(f"timed out after {attempts} attempts") from exc
                raise BackendExhausted(f"gave up after {attempts} attempts: {exc}") from exc
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
            continue
        if not isinstance(text, str) or not text:
            raise GatewayError(f"backend returned no completion text: {text!r:.80}")
        return text, attempts


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
    completions are stored in the cache as one segment when it ends, from
    the calling thread.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    if backend is None:
        backend = make_backend(cfg)  # credential problems surface before any work
    request = request_digest(cfg)
    keys = [digest_of(request, prompt.full_text) for prompt in prompts]
    results: list[ModelCompletion | CompletionFailure | None] = [None] * len(prompts)
    misses = []
    for i, (prompt, key) in enumerate(zip(prompts, keys)):
        text = None if cache is None else cache.get(key)
        if text is None:
            misses.append(i)
        else:
            results[i] = ModelCompletion(
                text, prompt.situation_id, cache_hit=True, latency_ms=0.0, attempt_count=0
            )

    def one(i: int) -> None:
        # writes results[i] alone, so pool threads share no other state
        prompt = prompts[i]
        started = time.perf_counter()
        try:
            text, attempts = _generate_with_retries(backend, prompt.full_text, cfg)
            ms = (time.perf_counter() - started) * 1000.0
            results[i] = ModelCompletion(
                text, prompt.situation_id, cache_hit=False, latency_ms=ms, attempt_count=attempts
            )
        except GatewayError as exc:
            logger.warning("completion failed for %s: %s", prompt.situation_id, exc)
            results[i] = CompletionFailure(prompt.situation_id, type(exc).__name__, str(exc))

    try:
        if misses and not isinstance(backend, MockBackend):
            with ThreadPoolExecutor(max_workers=cfg.max_parallel_requests) as pool:
                list(pool.map(one, misses))  # re-raises an error that is not a GatewayError
        else:
            # the mock is pure Python with no waits: pool threads would only
            # contend for the interpreter lock
            for i in misses:
                one(i)
        return results
    finally:
        # also on an exception or Ctrl-C, so the completions made are kept
        if cache is not None:
            made = [i for i in misses if isinstance(results[i], ModelCompletion)]
            cache.store({keys[i]: results[i].text for i in made})
