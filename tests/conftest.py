"""Fixtures shared across the test suite."""

import os

import pytest

from .faults import MARKER


@pytest.fixture
def cache_enabled(monkeypatch, tmp_path):
    """Turn the result cache on in a private directory.

    For tests of the cache itself, which must pass even when the suite
    runs with ``REPRO_NO_CACHE`` set."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def worker_faults(monkeypatch, tmp_path):
    """Arm :func:`tests.faults.crash_once` for one test, and let
    ``parallel_map`` start two workers even on a one-CPU host (it caps
    its workers at the CPU count), so a fault reaches a worker."""
    from repro.perf import parallel

    cpus = os.cpu_count() or 1
    monkeypatch.setattr(parallel, "default_workers", lambda: max(2, cpus))
    path = tmp_path / "crashed"
    monkeypatch.setenv(MARKER, str(path))
    return path
