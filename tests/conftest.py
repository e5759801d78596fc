"""Fixtures shared across the test suite."""

import pytest


@pytest.fixture
def cache_enabled(monkeypatch, tmp_path):
    """Turn the result cache on in a private directory.

    For tests of the cache itself, which must pass even when the suite
    runs with ``REPRO_NO_CACHE`` set."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path
