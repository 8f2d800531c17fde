"""Backend-agnostic completion gateway with disk caching and retries.

Two backends are shipped: an HTTP chat-completion client (the prompt as the
user message, after an optional system message; temperature-controlled) and a
deterministic mock that applies a simple choice rule to the travel
characteristics embedded in the prompt text. Completions are cached on disk
keyed by the whole request (see request_digest), which makes repeat runs free
and, at temperature 0, lossless.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import HTTPException
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from .artifacts import digest_of, dump_json_lines, load_json_lines, write_atomic
from .dataset import MODE_ORDER, ModeLabel
from .prompting import Prompt

logger = logging.getLogger(__name__)

BACKEND_KINDS = ("http_chat", "mock")
MOCK_RULES = ("min_time", "min_cost", "generalized_cost", "fixed", "malformed")

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


@dataclass
class BackendConfig:
    backend_kind: str = "mock"  # "http_chat" | "mock"
    model_name: str = "gpt-3.5-turbo-1106"
    temperature: float = 0.0
    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    timeout_seconds: float = 60.0
    max_retries: int = 3
    retry_backoff_base_seconds: float = 1.0
    max_parallel_requests: int = 4
    mock_rule: str = "generalized_cost"
    system_message_text: str = ""  # sent as the system message when non-empty
    credential_env_var: str = "LLM_API_KEY"

    def __post_init__(self):
        if self.backend_kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend_kind {self.backend_kind!r}; expected one of {BACKEND_KINDS}"
            )
        parse_mock_rule(self.mock_rule)
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_seconds <= 0 or self.retry_backoff_base_seconds < 0:
            raise ValueError("timeout_seconds must be > 0 and retry_backoff_base_seconds >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")


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


def chat_messages(cfg: BackendConfig, prompt_text: str) -> list[dict]:
    """The chat message list for one prompt: the system message, when its
    text is set, then the prompt as the user message."""
    system = cfg.system_message_text
    messages = [{"role": "system", "content": system}] if system else []
    return messages + [{"role": "user", "content": prompt_text}]


def request_digest(cfg: BackendConfig) -> str:
    """Digest of every setting that shapes a reply, short of the prompt text:
    the rule for the mock; endpoint, model, temperature and the message list
    around the prompt for the chat backend. Transport settings (timeouts,
    retries, parallelism, credential) do not shape a reply and stay out."""
    if cfg.backend_kind == "mock":
        return digest_of(cfg.backend_kind, cfg.mock_rule)
    return digest_of(
        cfg.backend_kind,
        cfg.endpoint_url,
        cfg.model_name,
        repr(float(cfg.temperature)),
        json.dumps(chat_messages(cfg, ""), sort_keys=True),
    )


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


def parse_mock_rule(rule: str) -> tuple[str, ModeLabel | None]:
    """A mock rule as its name and, for `fixed:<Mode>`, the mode it answers;
    an unknown rule or mode is a ValueError."""
    base, _, label = rule.partition(":")
    if base not in MOCK_RULES:
        raise ValueError(f"unknown mock rule {rule!r}; expected one of {MOCK_RULES}")
    return base, ModeLabel.from_name(label) if base == "fixed" else None


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


class HttpChatBackend:
    """Chat-completion JSON client: sends chat_messages, extracts the first choice."""

    def __init__(self, cfg: BackendConfig):
        credential = os.environ.get(cfg.credential_env_var)
        if not credential:
            raise MissingCredential(cfg.credential_env_var)
        self._cfg = cfg
        auth = f"Bearer {credential}"
        self._headers = {"Authorization": auth, "Content-Type": "application/json"}

    def generate(self, prompt_text: str) -> str:
        cfg = self._cfg
        body = {
            "model": cfg.model_name,
            "messages": chat_messages(cfg, prompt_text),
            "temperature": cfg.temperature,
        }
        request = Request(cfg.endpoint_url, json.dumps(body).encode("utf-8"), self._headers)
        try:
            try:
                response = urlopen(request, timeout=cfg.timeout_seconds)
            except HTTPError as exc:
                response = exc  # an error status still carries a body to read
            with response:
                status, raw = response.status, response.read()
        except (OSError, HTTPException) as exc:  # URLError and socket timeouts are OSErrors
            if isinstance(getattr(exc, "reason", exc), TimeoutError):  # URLError wraps its cause
                raise TransientBackendError("timeout", "request timed out") from None
            raise TransientBackendError("connection", f"connection failed: {exc}") from None
        if status == 429 or status >= 500:
            raise TransientBackendError(status)
        if status != 200:
            # Authentication and other client errors are not retryable.
            text = raw.decode("utf-8", "replace")[:200]
            raise BackendExhausted(status, f"non-retryable status {status}: {text}")
        try:
            return json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response body: {exc}") from exc


def make_backend(cfg: BackendConfig):
    if cfg.backend_kind == "mock":
        return MockBackend(cfg.mock_rule)
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
