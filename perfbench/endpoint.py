#!/usr/bin/env python3
"""Fake chat-completions endpoint for the `http` workload.

Runs in its own process, bound to 127.0.0.1 on a free port, and prints
`READY <port>` on stdout once it accepts connections. Every chat request
waits a fixed delay, then either answers by the generalized-cost rule (the
mode minimising travel time + cost, ties broken Train < Car < Swissmetro) or,
for the first attempt of a seeded tenth of the prompts, answers 503. The rule
is computed here from the prompt text, independently of the `modechoice`
package.

Control paths, not counted as served requests:
  GET  /stats  -> {"requests", "connections", "rejected"} since the last reset
  POST /reset  -> zero the counters and forget which prompts were seen

    python3 perfbench/endpoint.py --seed 1 --delay-ms 20
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MODES = ("Train", "Car", "Swissmetro")  # tie-break order
CHARACTERISTICS = re.compile(
    r"\{Travel time: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}, "
    r"Travel cost: \{Train: (\d+), Car: (\d+), Swissmetro: (\d+)\}\}"
)
FAIL_ONE_IN = 10


def generalized_cost_answer(prompt: str) -> str | None:
    match = CHARACTERISTICS.search(prompt)
    if match is None:
        return None
    numbers = [int(g) for g in match.groups()]
    totals = [numbers[i] + numbers[i + 3] for i in range(3)]
    best = MODES[totals.index(min(totals))]  # index() returns the first minimum
    return f"Prediction: {best}\nReason: {best} has the lowest combined travel time and cost."


def fails_first_attempt(seed: int, prompt: str) -> bool:
    digest = hashlib.sha256(f"{seed}\x1f{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % FAIL_ONE_IN == 0


class EndpointState:
    def __init__(self, seed: int, delay_s: float):
        self.seed = seed
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.epoch = 0
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.rejected = 0
        self.seen: set[str] = set()
        # bumped on reset, so a connection kept open across a reset counts again
        self.epoch += 1

    def stats(self) -> dict:
        return {"requests": self.requests, "connections": self.connections, "rejected": self.rejected}


def make_handler(state: EndpointState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse is visible

        def setup(self):
            super().setup()
            self.counted_epoch = 0

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send_json(self, status: int, doc: dict) -> None:
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> bytes:
            return self.rfile.read(int(self.headers.get("Content-Length") or 0))

        def do_GET(self):
            if self.path != "/stats":
                self._send_json(404, {"error": "not found"})
                return
            with state.lock:
                doc = state.stats()
            self._send_json(200, doc)

        def do_POST(self):
            body = self._read_body()
            if self.path == "/reset":
                with state.lock:
                    state.reset()
                self._send_json(200, {"ok": True})
                return
            if self.path != "/v1/chat/completions":
                self._send_json(404, {"error": "not found"})
                return
            try:
                prompt = json.loads(body)["messages"][-1]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                self._send_json(400, {"error": "malformed request body"})
                return
            with state.lock:
                state.requests += 1
                if self.counted_epoch != state.epoch:
                    self.counted_epoch = state.epoch
                    state.connections += 1
                first_attempt = prompt not in state.seen
                state.seen.add(prompt)
                reject = first_attempt and fails_first_attempt(state.seed, prompt)
                state.rejected += reject
            time.sleep(state.delay_s)
            if not self.headers.get("Authorization", "").startswith("Bearer "):
                self._send_json(401, {"error": "missing bearer token"})
                return
            if reject:
                self._send_json(503, {"error": "overloaded, retry"})
                return
            answer = generalized_cost_answer(prompt)
            if answer is None:
                self._send_json(400, {"error": "prompt has no travel characteristics"})
                return
            self._send_json(
                200,
                {
                    "object": "chat.completion",
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": answer},
                            "finish_reason": "stop",
                        }
                    ],
                },
            )

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    state = EndpointState(args.seed, args.delay_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
