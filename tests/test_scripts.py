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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the program names perfbench's tracer replaces, by module
TRACED = {
    ("pipeline", name)
    for name in (
        "ingest_key", "stage_ingest", "stage_sample", "stage_llm", "stage_benchmarks",
        "load_or_create", "load_raw", "to_choice_situations", "balanced_split", "build_prompt",
        "make_backend", "batch_complete", "parse_response", "write_report",
    )
} | {
    ("benchmarks", name)
    for name in (
        "fit_scaler", "fit_classifier", "encode_matrix", "predict_labels", "model_to_dict",
        "model_from_dict",
    )
}


def test_perfbench_tracer_replaces_each_target_and_puts_it_back(monkeypatch):
    """The tracer wraps program functions by their names in `pipeline` and
    `benchmarks`, so each must still be there under that name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from modechoice import benchmarks, pipeline

    modules = {"pipeline": pipeline, "benchmarks": benchmarks}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    with tracing.Tracer("t").installed():
        inside = {name: dict(vars(module)) for name, module in modules.items()}
    replaced = {
        (name, attr)
        for name, values in inside.items()
        for attr, value in values.items()
        if value is not before[name].get(attr)
    }
    assert TRACED <= replaced
    for name, attr in replaced:
        assert inside[name][attr].__wrapped__ is before[name][attr], (name, attr)
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[attr] is value for attr, value in before[name].items()), name
