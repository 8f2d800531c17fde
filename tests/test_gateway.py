import dataclasses
import gzip
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import modechoice.gateway as gateway
from modechoice.artifacts import digest_of
from modechoice.gateway import (
    BackendConfig,
    CompletionCache,
    CompletionFailure,
    MissingCredential,
    MockBackend,
    TransientBackendError,
    batch_complete,
    make_backend,
    parse_prompt_characteristics,
    request_digest,
)
from modechoice.prompting import PromptTemplateConfig, build_prompt, build_prompts

from conftest import chat_reply, make_situation, random_situation, serving, table_of

PROMPT_CFG = PromptTemplateConfig()
FAST_SM = build_prompt(table_of([make_situation(sid="fast-sm")]), PROMPT_CFG)


def random_prompts(rng, n):
    """The prompts of n random situations, one per row of a table."""
    return build_prompts(table_of(random_situation(rng, f"s{i:03d}") for i in range(n)), PROMPT_CFG)


def complete(prompt, cfg, cache, backend=None):
    """The one result of a batch of one prompt."""
    (result,) = batch_complete([prompt], cfg, cache, backend)
    return result


def mock_cfg(**kwargs):
    kwargs.setdefault("backend_kind", "mock")
    kwargs.setdefault("retry_backoff_base_seconds", 0.0)
    return BackendConfig(**kwargs)


class CountingMock(MockBackend):
    """The mock, counting its generate calls."""

    def __init__(self, rule):
        super().__init__(rule)
        self.calls = 0

    def generate(self, prompt_text):
        self.calls += 1
        return super().generate(prompt_text)


class FlakyBackend:
    def __init__(self, failures, status=429):
        self.failures = failures
        self.status = status
        self.calls = 0

    def generate(self, prompt_text):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError(self.status)
        return "Prediction: Car\nReason: recovered."


def test_parse_prompt_characteristics_round_trip():
    times, costs = parse_prompt_characteristics(FAST_SM.full_text)
    assert times == (106, 90, 34)  # Train, Car, Swissmetro
    assert costs == (72, 70, 78)


@pytest.mark.parametrize(
    "rule,expected",
    [
        ("min_time", "Prediction: Swissmetro"),
        ("min_cost", "Prediction: Car"),
        ("generalized_cost", "Prediction: Swissmetro"),  # 178 / 160 / 112
        ("fixed:Train", "Prediction: Train"),
    ],
)
def test_mock_rules(rule, expected):
    assert MockBackend(rule).generate(FAST_SM.full_text).startswith(expected)


def test_mock_malformed_rule_defeats_parser():
    from modechoice.parsing import ParseFailure, parse_response

    text = MockBackend("malformed").generate(FAST_SM.full_text)
    with pytest.raises(ParseFailure):
        parse_response(text)


def test_mock_rejects_unknown_rule():
    with pytest.raises(ValueError):
        MockBackend("coin_flip")


def test_mock_is_pure_function_of_prompt():
    backend = MockBackend("generalized_cost")
    outputs = {backend.generate(FAST_SM.full_text) for _ in range(100)}
    assert len(outputs) == 1


def test_complete_uses_cache(tmp_path):
    cfg = mock_cfg()
    cache = CompletionCache(tmp_path / "cache")
    backend = CountingMock("min_time")
    first = complete(FAST_SM, cfg, cache, backend=backend)
    second = complete(FAST_SM, cfg, cache, backend=backend)
    assert first.cache_hit is False and first.attempt_count == 1
    assert second.cache_hit is True and second.attempt_count == 0
    assert second.text == first.text
    assert backend.calls == 1


def test_complete_retries_transient_failures(tmp_path):
    backend = FlakyBackend(failures=1)
    result = complete(FAST_SM, mock_cfg(max_retries=3), None, backend=backend)
    assert result.attempt_count == 2
    assert "Prediction: Car" in result.text


def test_complete_exhausts_retries(tmp_path):
    backend = FlakyBackend(failures=10, status=503)
    result = complete(FAST_SM, mock_cfg(max_retries=2), None, backend=backend)
    assert result.error_type == "BackendExhausted"
    assert result.message == "gave up after 3 attempts: transient backend failure: 503"
    assert backend.calls == 3  # initial + 2 retries


def test_complete_timeout_surfaces_as_timeout():
    backend = FlakyBackend(failures=10, status="timeout")
    result = complete(FAST_SM, mock_cfg(max_retries=1), None, backend=backend)
    assert result.error_type == "RequestTimedOut"
    assert result.message == "timed out after 2 attempts"
    assert backend.calls == 2


HTTP = dict(backend_kind="http_chat", endpoint_url="http://127.0.0.1:9/v1/chat/completions")


def test_cache_key_sensitivity(tmp_path):
    base = request_digest(BackendConfig(**HTTP))
    assert request_digest(BackendConfig(**HTTP)) == base
    for change in [
        {"backend_kind": "mock"},
        {"endpoint_url": "http://127.0.0.1:9/other"},
        {"model_name": "model-b"},
        {"temperature": 0.5},
        {"system_message_text": "You are a travel analyst."},
    ]:
        assert request_digest(BackendConfig(**{**HTTP, **change})) != base, change
    mock = request_digest(mock_cfg())
    assert request_digest(mock_cfg(mock_rule="min_time")) != mock
    # the mock ignores the model and the temperature, so they do not split its entries
    assert request_digest(mock_cfg(model_name="model-b", temperature=0.5)) == mock

    # each distinct prompt text gets its own entry
    rng = random.Random(23)
    prompts = [FAST_SM] + random_prompts(rng, 50)
    batch_complete(prompts, mock_cfg(), CompletionCache(tmp_path))
    assert len(list(tmp_path.iterdir())) == 1
    assert len(list(tmp_path.glob("*.jsonl.gz"))) == 1
    reopened = CompletionCache(tmp_path)
    texts = {p.full_text for p in prompts}
    assert len(texts) == 51
    for text in texts:
        assert reopened.get(digest_of(request_digest(mock_cfg()), text)) is not None


@pytest.mark.parametrize("backend_kind", ["mock", "http_chat"])
def test_cache_key_ignores_transport_settings(backend_kind):
    base = BackendConfig(**{**HTTP, "backend_kind": backend_kind})
    for change in [
        {"timeout_seconds": 5.0},
        {"max_retries": 0},
        {"retry_backoff_base_seconds": 0.25},
        {"max_parallel_requests": 1},
        {"credential_env_var": "OTHER_KEY"},
    ]:
        changed = dataclasses.replace(base, **change)
        assert request_digest(changed) == request_digest(base), change


def test_cache_round_trip(tmp_path):
    cache = CompletionCache(tmp_path)
    assert cache.store({}) is None  # no entries, no file
    assert list(tmp_path.iterdir()) == []
    segment = cache.store({"k" * 64: "some completion"})
    assert cache.get("k" * 64) == "some completion"
    assert cache.get("absent" + "0" * 58) is None
    assert segment.name.endswith(".jsonl.gz")
    assert cache.store({}) is None
    assert list(tmp_path.iterdir()) == [segment]
    assert CompletionCache(tmp_path).get("k" * 64) == "some completion"


def test_cache_first_segment_in_name_order_wins(tmp_path):
    for text in ("one", "two"):
        CompletionCache(tmp_path).store({"k" * 64: text})
    segments = sorted(tmp_path.glob("*.jsonl.gz"))
    assert len(segments) == 2
    (line,) = gzip.decompress(segments[0].read_bytes()).splitlines()
    assert CompletionCache(tmp_path).get("k" * 64) == json.loads(line)[1]


def _check_leftover_is_not_served(directory, name, data):
    cfg = mock_cfg(mock_rule="min_time")
    key = digest_of(request_digest(cfg), FAST_SM.full_text)
    (directory / name.format(key=key)).write_bytes(data(key))
    cache = CompletionCache(directory)
    assert cache.get(key) is None
    backend = CountingMock("min_time")
    result = complete(FAST_SM, cfg, cache, backend=backend)
    assert result.cache_hit is False and backend.calls == 1
    assert result.text.startswith("Prediction: Swissmetro")
    assert CompletionCache(directory).get(key) == result.text


def test_cache_never_serves_a_half_written_entry(tmp_path):
    # what a writer killed between its write and its rename leaves behind
    def truncated_segment(key):
        data = gzip.compress((json.dumps([key, "Prediction: Train"]) + "\n").encode(), mtime=0)
        return data[: len(data) // 2]

    _check_leftover_is_not_served(tmp_path, "{key}.jsonl.gz.tmp.4242", truncated_segment)


def test_cache_ignores_per_key_files(tmp_path):
    # an entry in the one-file-per-key layout that segments replaced
    _check_leftover_is_not_served(
        tmp_path, "{key}.txt", lambda key: b"Prediction: Train\nReason: old layout."
    )


def test_batch_preserves_order(tmp_path):
    rng = random.Random(5)
    prompts = random_prompts(rng, 10)
    results = batch_complete(prompts, mock_cfg(), CompletionCache(tmp_path), MockBackend("min_cost"))
    assert [r.situation_id for r in results] == [p.situation_id for p in prompts]


def test_batch_isolates_failures(tmp_path):
    rng = random.Random(6)
    prompts = random_prompts(rng, 10)

    class FailsOne:
        def generate(self, prompt_text):
            if prompts[4].full_text == prompt_text:
                raise TransientBackendError(500)
            return "Prediction: Train\nReason: ok."

    results = batch_complete(prompts, mock_cfg(max_retries=0), None, FailsOne())
    failures = [r for r in results if isinstance(r, CompletionFailure)]
    assert len(failures) == 1
    assert isinstance(results[4], CompletionFailure)
    assert results[4].situation_id == prompts[4].situation_id
    assert results[4].error_type == "BackendExhausted"
    assert all(not isinstance(r, CompletionFailure) for i, r in enumerate(results) if i != 4)


def test_batch_bounded_parallelism():
    rng = random.Random(8)
    prompts = random_prompts(rng, 16)

    class CountingBackend:
        def __init__(self):
            self.lock = threading.Lock()
            self.active = 0
            self.peak = 0

        def generate(self, prompt_text):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.01)
            with self.lock:
                self.active -= 1
            return "Prediction: Car\nReason: ok."

    backend = CountingBackend()
    batch_complete(prompts, mock_cfg(max_parallel_requests=4), None, backend)
    assert 2 <= backend.peak <= 4  # a backend that waits runs on the pool, within its bound


def test_batch_runs_mock_on_calling_thread():
    rng = random.Random(8)
    prompts = random_prompts(rng, 16)

    class ThreadRecordingMock(CountingMock):
        def __init__(self, rule):
            super().__init__(rule)
            self.threads = set()

        def generate(self, prompt_text):
            self.threads.add(threading.get_ident())
            return super().generate(prompt_text)

    backend = ThreadRecordingMock("min_cost")
    batch_complete(prompts, mock_cfg(max_parallel_requests=4), None, backend)
    assert backend.threads == {threading.get_ident()}
    assert backend.calls == len(prompts)


def test_batch_matches_sequential_complete(tmp_path):
    # a batch answers each prompt as a batch of that prompt alone does
    rng = random.Random(9)
    prompts = random_prompts(rng, 12)
    cfg = mock_cfg(mock_rule="generalized_cost")
    batch = batch_complete(prompts, cfg, None, MockBackend("generalized_cost"))
    for prompt, result in zip(prompts, batch):
        single = complete(prompt, cfg, None, backend=MockBackend("generalized_cost"))
        assert result.text == single.text
        assert result.situation_id == single.situation_id


def test_batch_rerun_fully_cached(tmp_path):
    rng = random.Random(10)
    prompts = random_prompts(rng, 6)
    backend = CountingMock("min_time")
    first = batch_complete(prompts, mock_cfg(), CompletionCache(tmp_path), backend)
    calls_after_first = backend.calls
    segments = list(tmp_path.iterdir())
    assert len(segments) == 1 and segments[0].name.endswith(".jsonl.gz")
    stamp = segments[0].stat().st_mtime_ns
    second = batch_complete(prompts, mock_cfg(), CompletionCache(tmp_path), backend)
    assert backend.calls == calls_after_first
    assert all(r.cache_hit for r in second)
    assert [r.text for r in first] == [r.text for r in second]
    assert list(tmp_path.iterdir()) == segments  # a fully cached rerun writes no file
    assert segments[0].stat().st_mtime_ns == stamp


def test_batch_computes_the_request_digest_once(tmp_path, monkeypatch):
    rng = random.Random(11)
    prompts = random_prompts(rng, 6)
    calls = []
    monkeypatch.setattr(
        gateway, "request_digest", lambda cfg: calls.append(cfg) or request_digest(cfg)
    )
    batch_complete(prompts, mock_cfg(), CompletionCache(tmp_path), MockBackend("min_time"))
    assert len(calls) == 1
    reopened = CompletionCache(tmp_path)  # under each prompt's own key
    assert all(reopened.get(digest_of(request_digest(mock_cfg()), p.full_text)) for p in prompts)


def test_batch_segment_does_not_depend_on_completion_order(tmp_path):
    rng = random.Random(12)
    prompts = random_prompts(rng, 8)

    class DelayedBackend:
        """Waits per prompt, so the pool finishes prompts in delay order."""

        def __init__(self, delays):
            self.delays = {p.full_text: d for p, d in zip(prompts, delays)}
            self.lock = threading.Lock()
            self.finished = []

        def generate(self, prompt_text):
            time.sleep(self.delays[prompt_text])
            with self.lock:
                self.finished.append(prompt_text)
            return f"Prediction: Car\nReason: prompt of {len(prompt_text)} characters."

    delays = [0.005 * i for i in range(len(prompts))]
    segments, orders = [], []
    for run, run_delays in (("up", delays), ("down", delays[::-1])):
        backend = DelayedBackend(run_delays)
        cfg = mock_cfg(max_parallel_requests=len(prompts))
        batch_complete(prompts, cfg, CompletionCache(tmp_path / run), backend)
        orders.append(backend.finished)
        (segment,) = (tmp_path / run).iterdir()
        segments.append((segment.name, segment.read_bytes()))
    assert orders[0] != orders[1]
    assert segments[0] == segments[1]


def test_batch_keeps_completions_made_before_an_unexpected_error(tmp_path):
    rng = random.Random(13)
    prompts = random_prompts(rng, 8)

    class BreaksOnFifth(CountingMock):
        def generate(self, prompt_text):
            if self.calls == 4:
                raise RuntimeError("backend bug")
            return super().generate(prompt_text)

    cfg = mock_cfg(mock_rule="min_cost")
    with pytest.raises(RuntimeError):
        batch_complete(prompts, cfg, CompletionCache(tmp_path), BreaksOnFifth("min_cost"))
    reopened = CompletionCache(tmp_path)
    for i, prompt in enumerate(prompts):
        stored = reopened.get(digest_of(request_digest(cfg), prompt.full_text))
        assert stored == (MockBackend("min_cost").generate(prompt.full_text) if i < 4 else None)


def test_batch_on_the_pool_keeps_completions_made_before_an_unexpected_error(tmp_path):
    rng = random.Random(15)
    prompts = random_prompts(rng, 8)
    others_started = threading.Semaphore(0)

    class BreaksOnThird:
        """Prompt 2 raises once every other prompt has started; each of those
        waits 10 ms, so the last one finishes while the pool shuts down."""

        def generate(self, prompt_text):
            if prompt_text == prompts[2].full_text:
                for _ in range(len(prompts) - 1):
                    assert others_started.acquire(timeout=10)
                raise RuntimeError("backend bug")
            others_started.release()
            time.sleep(0.01)
            return f"Prediction: Car\nReason: prompt of {len(prompt_text)} characters."

    cfg = mock_cfg(max_parallel_requests=4)
    with pytest.raises(RuntimeError):
        batch_complete(prompts, cfg, CompletionCache(tmp_path), BreaksOnThird())
    assert len(list(tmp_path.iterdir())) == 1  # one segment
    reopened = CompletionCache(tmp_path)
    for i, prompt in enumerate(prompts):
        stored = reopened.get(digest_of(request_digest(cfg), prompt.full_text))
        reply = f"Prediction: Car\nReason: prompt of {len(prompt.full_text)} characters."
        assert stored == (None if i == 2 else reply)


def test_batch_requires_prompts():
    with pytest.raises(ValueError):
        batch_complete([], mock_cfg(), None, MockBackend("min_time"))


def test_missing_credential(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    with pytest.raises(MissingCredential) as err:
        make_backend(BackendConfig(backend_kind="http_chat"))
    assert "LLM_API_KEY" in str(err.value)


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_backend_config_rejects_a_timeout_that_is_not_positive(timeout):
    # 0 would make every request fail as a connection error, -1 would abort the batch
    with pytest.raises(ValueError, match="timeout_seconds must be > 0 and"):
        BackendConfig(timeout_seconds=timeout)


def test_backend_config_rejects_a_negative_backoff():
    with pytest.raises(ValueError, match="retry_backoff_base_seconds >= 0"):
        BackendConfig(retry_backoff_base_seconds=-0.5)
    assert BackendConfig(retry_backoff_base_seconds=0.0).retry_backoff_base_seconds == 0.0


def http_cfg(url, **kwargs):
    """A chat backend config aimed at `url`, retrying at once."""
    kwargs.setdefault("retry_backoff_base_seconds", 0.0)
    return BackendConfig(backend_kind="http_chat", endpoint_url=url, **kwargs)


def test_http_backend_wire_format(chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    chat_endpoint.body = chat_reply("Prediction: Train\nReason: ok.")
    system = {"role": "system", "content": "You are a travel analyst."}
    for system_text, leading in [("", []), (system["content"], [system])]:
        chat_endpoint.requests.clear()
        cfg = http_cfg(
            chat_endpoint.url,
            temperature=0.0,
            timeout_seconds=30,
            system_message_text=system_text,
        )
        result = complete(FAST_SM, cfg, None)
        assert result.text == "Prediction: Train\nReason: ok."
        [sent] = chat_endpoint.requests
        assert sent["path"] == "/v1/chat/completions"
        assert sent["headers"]["Authorization"] == "Bearer sk-test"
        assert sent["headers"]["Content-Type"] == "application/json"
        assert sent["body"]["model"] == "gpt-3.5-turbo-1106"
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["messages"] == leading + [
            {"role": "user", "content": FAST_SM.full_text}
        ]


def test_http_backend_retries_rate_limit(chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    chat_endpoint.statuses = [429]
    chat_endpoint.body = chat_reply("Prediction: Car\nReason: y")
    result = complete(FAST_SM, http_cfg(chat_endpoint.url, max_retries=2), None)
    assert result.attempt_count == 2
    assert result.text == "Prediction: Car\nReason: y"
    assert len(chat_endpoint.requests) == 2


def test_http_backend_does_not_retry_auth_errors(chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-bad")
    chat_endpoint.status = 401
    result = complete(FAST_SM, http_cfg(chat_endpoint.url, max_retries=5), None)
    assert result.error_type == "BackendExhausted"
    # the status, then the start of the reply body
    assert result.message.startswith('non-retryable status 401: {"error": {"message": "scripted')
    assert len(chat_endpoint.requests) == 1


def test_http_backend_malformed_body(chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    for body in [b'{"unexpected": true}', b'{"choices": []}', b"not json"]:
        chat_endpoint.body = body
        chat_endpoint.requests.clear()
        result = complete(FAST_SM, http_cfg(chat_endpoint.url, max_retries=3), None)
        # neither retried nor counted as a status
        assert result.error_type == "GatewayError"
        assert result.message.startswith("malformed completion response body: ")
        assert len(chat_endpoint.requests) == 1


def test_http_batch_sends_only_the_uncached_prompts_in_input_order(
    chat_endpoint, monkeypatch, tmp_path
):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    prompts = random_prompts(random.Random(14), 8)
    cfg = http_cfg(chat_endpoint.url, max_parallel_requests=1)
    batch_complete(prompts[::2], cfg, CompletionCache(tmp_path))
    chat_endpoint.requests.clear()
    results = batch_complete(prompts, cfg, CompletionCache(tmp_path))
    sent = [r["body"]["messages"][-1]["content"] for r in chat_endpoint.requests]
    assert sent == [p.full_text for p in prompts[1::2]]
    assert [r.situation_id for r in results] == [p.situation_id for p in prompts]
    assert [r.cache_hit for r in results] == [True, False] * 4
    hits = results[::2]
    assert all(r.attempt_count == 0 and r.latency_ms == 0.0 for r in hits)
    assert all(r.attempt_count == 1 and r.latency_ms > 0.0 for r in results[1::2])

    # a batch that is all hits starts no pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for cached prompts")

    monkeypatch.setattr(gateway, "ThreadPoolExecutor", no_pool)
    chat_endpoint.requests.clear()
    again = batch_complete(prompts, cfg, CompletionCache(tmp_path))
    assert chat_endpoint.requests == []
    assert all(r.cache_hit for r in again)
    assert [r.text for r in again] == [r.text for r in results]


@pytest.mark.parametrize("content", ["", None, 123, ["Prediction: Train"]])
def test_http_backend_content_without_text_is_not_cached(
    chat_endpoint, monkeypatch, tmp_path, content
):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    chat_endpoint.body = chat_reply(content)
    cfg = http_cfg(chat_endpoint.url)
    cache = CompletionCache(tmp_path / "cache")
    result = complete(FAST_SM, cfg, cache)
    assert result.error_type == "GatewayError"
    assert result.message.startswith("backend returned no completion text: ")
    assert len(chat_endpoint.requests) == 1  # not retried
    assert cache.get(digest_of(request_digest(cfg), FAST_SM.full_text)) is None
    assert list((tmp_path / "cache").iterdir()) == []  # nor written


def test_http_backend_timeout_reaches_the_socket(chat_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    chat_endpoint.delay = 5.0
    cfg = http_cfg(chat_endpoint.url, timeout_seconds=0.2, max_retries=1)
    started = time.perf_counter()
    result = complete(FAST_SM, cfg, None)
    assert (result.error_type, result.message) == ("RequestTimedOut", "timed out after 2 attempts")
    assert len(chat_endpoint.requests) == 2
    assert time.perf_counter() - started < 2.5  # two 0.2 s waits, not a 5 s reply


def test_http_backend_refused_connection(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    with socket.socket() as probe:  # a port that nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    cfg = http_cfg(f"http://127.0.0.1:{port}/v1/chat/completions", max_retries=2)
    result = complete(FAST_SM, cfg, None)
    assert result.error_type == "BackendExhausted"
    assert result.message.startswith("gave up after 3 attempts: connection failed: ")


class _TruncatedReply(BaseHTTPRequestHandler):
    """Declares a 100-byte reply body, sends one byte and hangs up."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.served += 1
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b"{")

    def log_message(self, format, *args):
        pass


def test_http_backend_truncated_reply_is_a_dropped_connection(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")
    with serving(HTTPServer(("127.0.0.1", 0), _TruncatedReply)) as server:
        server.served = 0
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        result = complete(FAST_SM, http_cfg(url, max_retries=1), None)
    assert result.error_type == "BackendExhausted"
    assert result.message.startswith("gave up after 2 attempts: connection failed: ")
    assert server.served == 2


def test_import_does_not_load_requests():
    src = Path(gateway.__file__).resolve().parents[1]
    probe = (
        "import sys, modechoice.pipeline, modechoice.http_backend;"
        " print('requests' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
