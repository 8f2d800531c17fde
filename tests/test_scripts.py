import functools
import subprocess
import sys
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import serving, synthetic_raw_rows, write_survey_file

FETCH = Path(__file__).resolve().parents[1] / "scripts" / "fetch_swissmetro.py"


class _QuietFiles(SimpleHTTPRequestHandler):
    def log_message(self, format, *args):
        pass


@pytest.fixture
def file_server(tmp_path):
    """Serves the files of `tmp_path / "served"` on 127.0.0.1; yields its base URL."""
    root = tmp_path / "served"
    root.mkdir()
    handler = functools.partial(_QuietFiles, directory=str(root))
    with serving(ThreadingHTTPServer(("127.0.0.1", 0), handler)) as server:
        yield root, f"http://127.0.0.1:{server.server_address[1]}"


def fetch(url, dest):
    return subprocess.run(
        [sys.executable, str(FETCH), "--url", url, "--dest", str(dest)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_fetch_saves_the_survey_file(file_server, tmp_path):
    root, base = file_server
    served = write_survey_file(root / "swissmetro.dat", synthetic_raw_rows(25, seed=3))
    dest = tmp_path / "data" / "swissmetro.dat"
    done = fetch(f"{base}/swissmetro.dat", dest)
    assert done.returncode == 0, done.stderr
    assert "saved 25 rows" in done.stdout
    assert dest.read_bytes() == served.read_bytes()


def test_fetch_rejects_a_file_without_a_choice_column(file_server, tmp_path):
    root, base = file_server
    (root / "page.html").write_text("<html>not the survey</html>\n")
    dest = tmp_path / "data" / "swissmetro.dat"
    done = fetch(f"{base}/page.html", dest)
    assert done.returncode == 1
    assert "does not look like the survey data" in done.stderr
    assert not dest.exists()


def test_fetch_leaves_an_existing_file_alone(file_server, tmp_path):
    root, base = file_server
    write_survey_file(root / "swissmetro.dat", synthetic_raw_rows(25, seed=3))
    dest = tmp_path / "swissmetro.dat"
    dest.write_text("kept\n")
    done = fetch(f"{base}/swissmetro.dat", dest)
    assert done.returncode == 0, done.stderr
    assert "already present" in done.stdout
    assert dest.read_text() == "kept\n"
