"""``repro tables`` pinned whole, on both timing engines.

``test_golden_tables.py`` pins every Table I-V probe's cycles and traffic;
this pins what a user reads: the 42 lines the command prints, Tables
I-VII, by their SHA-256.  A timing-engine change that keeps every probe
but moves a printed figure (a rounding, a table the probes do not reach)
fails here.  A deliberate model change updates the digest and bumps
``SIM_VERSION``.
"""

import hashlib

import pytest

from repro.cli import main
from repro.sim.timing import ENGINES

TABLES_SHA256 = (
    "fb147ef2af04a030695d65f1a38c7ea23a466304e49371da40c65d0a5fea0c94")


@pytest.mark.parametrize("engine", ENGINES)
def test_tables_output_is_pinned(engine, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TIMING_ENGINE", engine)
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 42
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_SHA256
