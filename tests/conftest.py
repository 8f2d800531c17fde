import csv
import json
import os
import random
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from modechoice.dataset import ChoiceSituation, ModeLabel, SituationTable

RAW_COLUMNS = [
    "ID",
    "PURPOSE",
    "TRAIN_TT",
    "TRAIN_CO",
    "CAR_TT",
    "CAR_CO",
    "SM_TT",
    "SM_CO",
    "SURVEY",
    "GA",
    "TRAIN_AV",
    "CAR_AV",
    "SM_AV",
    "CHOICE",
]

# ingestion-order choice codes in the default map: 1=Train, 2=Swissmetro, 3=Car
CODE_OF_MODE = {ModeLabel.TRAIN: 1, ModeLabel.SWISSMETRO: 2, ModeLabel.CAR: 3}


def make_situation(
    sid="s0",
    times=(106, 90, 34),
    costs=(72, 70, 78),
    regular=False,
    annual=False,
    chosen=ModeLabel.SWISSMETRO,
):
    return ChoiceSituation(
        situation_id=sid,
        travel_time_min=tuple(times),
        travel_cost=tuple(costs),
        is_regular_train_user=regular,
        owns_annual_pass=annual,
        chosen=chosen,
    )


def random_situation(rng: random.Random, sid: str) -> ChoiceSituation:
    order = (ModeLabel.TRAIN, ModeLabel.CAR, ModeLabel.SWISSMETRO)
    return ChoiceSituation(
        situation_id=sid,
        travel_time_min=tuple(rng.randint(5, 400) for _ in order),
        travel_cost=tuple(rng.randint(0, 300) for _ in order),
        is_regular_train_user=rng.random() < 0.4,
        owns_annual_pass=rng.random() < 0.15,
        chosen=rng.choice(order),
    )


def table_of(situations, rows=None) -> SituationTable:
    """Hand-built situations as a table, at these row indices (default: their
    positions); ids follow the row index, as ingest writes them."""
    situations = list(situations)
    return SituationTable(
        row_index=np.arange(len(situations)) if rows is None else np.array(rows),
        times=np.array([s.travel_time_min for s in situations], dtype=float).reshape(-1, 3),
        costs=np.array([s.travel_cost for s in situations], dtype=float).reshape(-1, 3),
        regular=np.array([s.is_regular_train_user for s in situations], dtype=bool),
        annual_pass=np.array([s.owns_annual_pass for s in situations], dtype=bool),
        chosen=np.array([int(s.chosen) for s in situations], dtype=int),
    )


def synthetic_raw_rows(n: int, seed: int) -> list[dict]:
    """Survey-file rows whose choices follow a noisy generalized-cost rule with
    a pull toward Train for regular users and pass holders, so supervised
    models have signal to learn."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        times = {m: rng.randint(20, 200) for m in ModeLabel}
        costs = {m: rng.randint(10, 150) for m in ModeLabel}
        regular = rng.random() < 0.4
        annual = rng.random() < 0.15
        utilities = {}
        for m in ModeLabel:
            u = -(times[m] + costs[m]) + rng.gauss(0, 25)
            if m is ModeLabel.TRAIN:
                u += 60 * regular + 60 * annual
            utilities[m] = u
        chosen = max(ModeLabel, key=lambda m: utilities[m])
        rows.append(
            {
                "ID": i,
                "PURPOSE": rng.randint(1, 9),
                "TRAIN_TT": times[ModeLabel.TRAIN],
                "TRAIN_CO": costs[ModeLabel.TRAIN],
                "CAR_TT": times[ModeLabel.CAR],
                "CAR_CO": costs[ModeLabel.CAR],
                "SM_TT": times[ModeLabel.SWISSMETRO],
                "SM_CO": costs[ModeLabel.SWISSMETRO],
                "SURVEY": int(regular),
                "GA": int(annual),
                "TRAIN_AV": 1,
                "CAR_AV": 1,
                "SM_AV": 1,
                "CHOICE": CODE_OF_MODE[chosen],
            }
        )
    return rows


def write_survey_file(path: Path, rows: list[dict], delimiter="\t", columns=None) -> Path:
    columns = columns or RAW_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, delimiter=delimiter)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})
    return path


@pytest.fixture
def survey_file(tmp_path):
    return write_survey_file(tmp_path / "survey.dat", synthetic_raw_rows(600, seed=7))


def real_data_path() -> Path | None:
    candidate = os.environ.get("SWISSMETRO_DAT")
    if candidate and Path(candidate).exists():
        return Path(candidate)
    for name in ("swissmetro.dat", "swissmetro.dat.gz"):
        bundled = Path(__file__).resolve().parents[1] / "data" / name
        if bundled.exists():
            return bundled
    return None


requires_real_data = pytest.mark.skipif(
    real_data_path() is None,
    reason="public Swissmetro survey file not available "
    "(set SWISSMETRO_DAT or place it under data/; see scripts/fetch_swissmetro.py)",
)


def chat_reply(content) -> bytes:
    """A chat-completions response body whose first choice says `content`."""
    reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    return json.dumps(reply).encode("utf-8")


class _ChatEndpoint(BaseHTTPRequestHandler):
    """Chat-completions endpoint scripted through its server's attributes:

    - `statuses`: one reply status per request, consumed in order; once it is
      empty every request gets `status` (200 unless a test sets it);
    - `delay`: seconds to hold each reply back;
    - `body`: raw bytes that replace the 200 reply (a malformed body, empty
      content), or None for a parseable prediction;
    - `requests`: what each request sent, as {"path", "headers", "body"},
      with the body parsed as JSON.
    """

    def do_POST(self):
        server = self.server
        sent = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests.append({"path": self.path, "headers": self.headers, "body": sent})
            status = server.statuses.pop(0) if server.statuses else server.status
        if server.delay:
            server.closing.wait(server.delay)
        if status != 200:
            data = json.dumps({"error": {"message": f"scripted status {status}"}}).encode("utf-8")
        elif server.body is not None:
            data = server.body
        else:
            data = chat_reply("Prediction: Train\nReason: Train is the local endpoint's answer.")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            pass  # the client stopped waiting (a timeout test)

    def log_message(self, format, *args):
        pass


@contextmanager
def serving(server):
    """Run an `http.server` server on a thread for the duration of the block."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def chat_endpoint():
    """A `_ChatEndpoint` on 127.0.0.1; its chat URL is `chat_endpoint.url`."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatEndpoint)
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.status, server.statuses, server.delay, server.body = 200, [], 0.0, None
    server.requests = []
    server.lock = threading.Lock()
    server.closing = threading.Event()  # cuts a reply delay short at teardown
    with serving(server):
        yield server
        server.closing.set()
