"""Integration: the analysis stack recovers end-to-end from injected faults.

Each scenario injects a fault into a real analysis workload -- a worker
that dies during a parallel SM-profile run, a corrupted disk cache
entry -- and asserts the recovered results are
**bit-identical** to a fault-free serial run.  Recovery that changes
numbers is not recovery.  The tests inject the faults themselves
(:mod:`tests.faults`, or garbage written over a cache file); nothing in
``src/`` does it for them.
"""

import pytest

from repro.analysis import PerformanceModel, perf_model
from repro.arch import RTX2070
from repro.core.config import cublas_like, ours
from repro.perf.cache import PROFILE_CACHE, ResultCache, content_key
from repro.perf.stats import STATS

from ..faults import crash_once

_profile_worker = perf_model._profile_worker


def _profile_crash_once(payload):
    crash_once()
    return _profile_worker(payload)


def _corrupt(store: ResultCache, key: str) -> None:
    """Write garbage over *key*'s disk entry, as ``repro doctor`` does."""
    with open(store._path(key), "r+b") as fh:
        fh.write(b"\x00garbage\x00")


@pytest.fixture(autouse=True)
def clean(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # The process-wide memory layer would satisfy lookups from earlier
    # tests and mask the disk behaviour these scenarios target.
    PROFILE_CACHE.clear()
    yield
    PROFILE_CACHE.clear()


@pytest.fixture
def fault_free(monkeypatch, tmp_path):
    """A serial, fault-free baseline SM profile."""
    return PerformanceModel(RTX2070).profile_many([cublas_like()])[0]


class TestWorkerCrashRecovery:
    def test_profile_many_recovers_bit_identical(self, monkeypatch,
                                                 worker_faults, fault_free):
        want_profile = fault_free
        monkeypatch.setattr(perf_model, "_profile_worker", _profile_crash_once)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # force real re-simulation
        STATS.reset()
        pm = PerformanceModel(RTX2070)
        got = pm.profile_many([ours(), cublas_like()], max_workers=2)
        assert worker_faults.exists()
        assert STATS.counters.get("par.serial_fallbacks", 0) >= 1
        monkeypatch.delenv("REPRO_NO_CACHE")
        baseline = PerformanceModel(RTX2070)
        want = baseline.profile_many([ours(), cublas_like()])
        assert got == want
        assert got[1] == want_profile


class TestCacheCorruptionRecovery:
    def test_corrupted_store_is_resimulated_not_served(self, monkeypatch,
                                                       tmp_path, cache_enabled,
                                                       fault_free):
        want_profile = fault_free
        # A private disk dir: fault_free's entries (memory and disk) must
        # not satisfy the lookups this scenario wants to hit cold.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "corrupt"))
        PROFILE_CACHE.clear()
        PerformanceModel(RTX2070).profile_many([cublas_like()])
        keys = [path.stem for path in PROFILE_CACHE._root().glob("*.json")]
        assert keys  # the profile entry and its run-leg entries
        for key in keys:
            _corrupt(PROFILE_CACHE, key)
        PROFILE_CACHE.clear()  # drop the memory layer, keep disk
        STATS.reset()
        got = PerformanceModel(RTX2070).profile_many([cublas_like()])[0]
        assert got == want_profile
        assert STATS.counters.get("cache.integrity_fails", 0) >= 1
        assert PROFILE_CACHE.quarantined_entries() >= 1

    def test_quarantined_entry_not_rescanned(self, cache_enabled):
        store = ResultCache(subdir="it")
        key = content_key(b"chaos-it")
        store.put(key, {"cycles": 5})
        _corrupt(store, key)
        store.clear()  # memory layer only
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        # A clean rewrite works again.
        store.put(key, {"cycles": 5})
        store.clear()
        assert store.get(key) == {"cycles": 5}
