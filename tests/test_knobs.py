"""The ``REPRO_*`` knob table: one reader, loud errors, no side doors."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import knobs

SRC = Path(__file__).resolve().parents[1] / "src"

#: A value each knob refuses.  A path accepts any string, so it has none.
MALFORMED = {
    "REPRO_FUNC_ENGINE": "gridlock",
    "REPRO_TIMING_ENGINE": "fast",
    "REPRO_GUARD": "sometimes",
    "REPRO_GUARD_BUDGET": "abc",
    "REPRO_CHAOS": "crash_tsk:0",
    "REPRO_NO_CACHE": "false",
    "REPRO_CACHE_MAX_MB": "-1",
    "REPRO_CACHE_MEM_ENTRIES": "2.5",
    "REPRO_TASK_TIMEOUT": "nan",
    "REPRO_TASK_RETRIES": "2.7",
    "REPRO_RETRY_BACKOFF": "soon",
    "REPRO_SERVE_WORKERS": "0",
    "REPRO_SERVE_QUEUE_MAX": "x",
}
ANY_VALUE = {"REPRO_CACHE_DIR", "REPRO_SERVE_SOCKET"}


def _environment_uses(tree):
    """Line numbers of every ``environ``/``getenv`` reference in *tree*."""
    names = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in names:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in names for alias in node.names):
            yield node.lineno


def test_only_knobs_reads_the_environment():
    """Every ``REPRO_*`` read goes through :func:`repro.knobs.read`: no
    other module under ``src/repro`` touches the process environment."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "knobs.py" and path.parent.name == "repro":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.relative_to(SRC)}:{line}"
                      for line in _environment_uses(tree)]
    assert offenders == [], ("declare the variable in repro/knobs.py and "
                             "read it with knobs.read: " + ", ".join(offenders))


def test_the_table_is_the_fifteen_knobs():
    assert set(knobs.KNOBS) == set(MALFORMED) | ANY_VALUE
    assert len(knobs.KNOBS) == 15


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_raises_naming_the_knob(name, monkeypatch):
    monkeypatch.setenv(name, MALFORMED[name])
    with pytest.raises(ValueError, match=f"^{name} must be ") as err:
        knobs.read(name)
    assert repr(MALFORMED[name]) in str(err.value)
    assert knobs.accepted(knobs.KNOBS[name]) in str(err.value)


@pytest.mark.parametrize("name", sorted(knobs.KNOBS))
def test_unset_and_empty_read_the_default(name, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    unset = knobs.read(name)
    monkeypatch.setenv(name, "")
    assert knobs.read(name) == unset


@pytest.mark.parametrize("name,raw,value", [
    ("REPRO_FUNC_ENGINE", "reference", "reference"),
    ("REPRO_GUARD_BUDGET", "1", 1.0),
    ("REPRO_CACHE_MEM_ENTRIES", "1e3", 1000),
    ("REPRO_TASK_RETRIES", "2.0", 2),
    ("REPRO_TASK_TIMEOUT", " 30 ", 30.0),
    ("REPRO_NO_CACHE", "0", False),
    ("REPRO_NO_CACHE", "1", True),
    ("REPRO_SERVE_SOCKET", "rel/d.sock", Path("rel/d.sock")),
    ("REPRO_CHAOS", "crash_task:0,,delay_seconds:0", {"crash_task": 0,
                                                     "delay_seconds": 0.0}),
])
def test_accepted_values_keep_their_meaning(name, raw, value, monkeypatch):
    monkeypatch.setenv(name, raw)
    assert knobs.read(name) == value


def test_serve_socket_defaults_under_the_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_SERVE_SOCKET", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert knobs.read("REPRO_SERVE_SOCKET") == tmp_path / "serve.sock"


def test_readme_table_lists_every_knob():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip().strip("`")
            for line in readme.splitlines() if line.startswith("| `REPRO_")}
    assert rows == set(knobs.KNOBS)


@pytest.mark.parametrize("name", ["REPRO_TASK_RETRIES", "REPRO_GUARD_BUDGET",
                                  "REPRO_CHAOS", "REPRO_NO_CACHE"])
def test_doctor_fails_on_a_malformed_knob(name, tmp_path):
    """``repro doctor --no-selftest`` lists every knob; a malformed one
    makes it exit 1 with the variable named and no traceback."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path),
               **{name: MALFORMED[name]})
    done = subprocess.run(
        [sys.executable, "-m", "repro", "doctor", "--no-selftest"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert f"knobs.{name}" in done.stdout
    assert f"ERROR: {name} must be " in done.stdout
    for other in knobs.KNOBS:
        assert f"knobs.{other} " in done.stdout
