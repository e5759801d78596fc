"""``repro doctor`` end to end: every self-test passes, run after run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_doctor_passes_twice_against_one_cache_dir(tmp_path):
    """The serve self-test's GEMM is cached by the first run and answered
    from that cache by the second; its coalescing check rides on ``noop``
    twins, which are never cached, so both runs pass."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path))
    for run in (1, 2):
        done = subprocess.run([sys.executable, "-m", "repro", "doctor"],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, (run, done.stdout + done.stderr)
        assert ["selftest.serve_coalesce", "ok"] in [
            line.split() for line in done.stdout.splitlines()]
        assert list((tmp_path / "serve").glob("*.json")), run
