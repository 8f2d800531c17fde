"""The chat-completion client over HTTP. urllib.request loads http.client,
ssl and email, so `gateway.make_backend` imports this module only when it
builds this backend.
"""

from __future__ import annotations

import json
import os
from http.client import HTTPException
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from .config import BackendConfig, chat_messages
from .gateway import BackendExhausted, GatewayError, MissingCredential, TransientBackendError


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
            raise BackendExhausted(f"non-retryable status {status}: {text}")
        try:
            return json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed completion response body: {exc}") from exc
