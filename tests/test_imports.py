"""What each entry point imports: the package root and a warm run load no
numpy and no HTTP stack, and print what they printed with every module
loaded."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modechoice
from modechoice.cli import main

from conftest import synthetic_raw_rows, write_survey_file

SRC = Path(modechoice.__file__).resolve().parents[1]
HEAVY = ("numpy", "urllib.request", "ssl")
# runs the CLI, then reports on stderr which heavy modules it left loaded
PROBE = f"""
import json, sys
from modechoice.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:  # --help
    status = exc.code
sys.stdout.flush()
loaded = [name for name in {HEAVY!r} if name in sys.modules]
print("loaded:", json.dumps(loaded), file=sys.stderr)
sys.exit(status)
"""
CONFIG = """\
dataset:
  path: survey.dat
sampling: {n_train: 60, n_test: 15, seed: 3}
benchmarks:
  kinds: [mnl, rf, nn]
  mnl: {max_epochs: 50}
  rf: {n_trees: 3}
  nn: {hidden_units: 4, max_epochs: 5}
"""


def probe(*argv, cwd: Path) -> tuple[int, str, list[str]]:
    """The command's exit status, its stdout, and the heavy modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    loaded = done.stderr.splitlines()[-1]
    assert loaded.startswith("loaded: "), done.stderr
    return done.returncode, done.stdout, json.loads(loaded.removeprefix("loaded: "))


def test_a_warm_cli_run_loads_no_numpy_and_prints_what_a_full_import_prints(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    write_survey_file(tmp_path / "survey.dat", synthetic_raw_rows(300, seed=5))
    (tmp_path / "config.yaml").write_text(CONFIG)
    config = str(tmp_path / "config.yaml")
    status, cold_out, loaded = probe("run", "--config", config, cwd=tmp_path)
    assert status == 0 and "numpy" in loaded  # a cold run fits, with numpy
    assert (tmp_path / "out" / "stages").is_dir()

    outs = []
    for argv in (["run", "--config", config], ["evaluate", "--config", config], ["--help"]):
        status, out, loaded = probe(*argv, cwd=tmp_path)
        assert loaded == [], argv
        try:  # in this process, where the stage modules are loaded
            expected_status = main(argv)
        except SystemExit as exc:
            expected_status = exc.code
        assert (status, out) == (expected_status, capsys.readouterr().out), argv
        outs.append(out)
    assert outs[0] == cold_out and outs[2].startswith("usage: modechoice")


def test_the_package_root_exports_each_name_from_its_module_and_loads_no_numpy():
    for name in modechoice.__all__:
        value = getattr(modechoice, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        modechoice.nothing
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import sys, modechoice; print([m for m in {HEAVY!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
