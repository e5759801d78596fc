"""Integration: the robustness stack recovers end-to-end under chaos.

Each scenario injects a deterministic fault (``REPRO_CHAOS``) into a real
analysis workload -- a parallel SM-profile sweep, a size sweep, a cache
read -- and asserts the recovered results are **bit-identical** to a
fault-free serial run.  Recovery that changes numbers is not recovery.
"""

import numpy as np
import pytest

from repro.analysis import PerformanceModel
from repro.arch import RTX2070
from repro.core.config import cublas_like, ours
from repro.core.hgemm import hgemm, hgemm_reference
from repro.perf.cache import PROFILE_CACHE, ResultCache, content_key
from repro.perf.stats import STATS
from repro.robust import chaos, guard


@pytest.fixture(autouse=True)
def clean(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    # The process-wide memory layer would satisfy lookups from earlier
    # tests and mask the disk behaviour these scenarios target.
    PROFILE_CACHE.clear()
    guard.reset()
    chaos.reset()
    yield
    PROFILE_CACHE.clear()
    guard.reset()
    chaos.reset()


@pytest.fixture
def fault_free(monkeypatch, tmp_path):
    """Serial, chaos-free baseline numbers for one profile + sweep."""
    pm = PerformanceModel(RTX2070)
    profile = pm.profile_many([cublas_like()])[0]
    sweep = [e.tflops for e in pm.sweep(cublas_like(), [2048, 4096])]
    return profile, sweep


class TestWorkerCrashRecovery:
    def test_profile_many_recovers_bit_identical(self, monkeypatch,
                                                 fault_free):
        want_profile, _ = fault_free
        monkeypatch.setenv("REPRO_CHAOS", "crash_task:0")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")  # force real re-simulation
        chaos.reset()
        STATS.reset()
        pm = PerformanceModel(RTX2070)
        got = pm.profile_many([ours(), cublas_like()], max_workers=2)
        monkeypatch.delenv("REPRO_NO_CACHE")
        baseline = PerformanceModel(RTX2070)
        want = baseline.profile_many([ours(), cublas_like()])
        assert got == want
        assert got[1] == want_profile

    def test_sweep_recovers_bit_identical(self, monkeypatch, fault_free):
        _, want_sweep = fault_free
        monkeypatch.setenv("REPRO_CHAOS", "crash_task:1")
        chaos.reset()
        pm = PerformanceModel(RTX2070)
        pm.profile_many([cublas_like()])
        got = [e.tflops for e in pm.sweep(cublas_like(), [2048, 4096],
                                          max_workers=2)]
        assert got == want_sweep


class TestCacheCorruptionRecovery:
    def test_corrupted_store_is_resimulated_not_served(self, monkeypatch,
                                                       tmp_path, cache_enabled,
                                                       fault_free):
        want_profile, _ = fault_free
        # Corrupt the first disk entry this process writes; the next cold
        # read must quarantine it and re-simulate to the same numbers.
        # A private disk dir: fault_free's entries (memory and disk) must
        # not satisfy the lookups this scenario wants to hit cold.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "corrupt"))
        PROFILE_CACHE.clear()
        # Stores go (run-leg, run-leg, profile); corrupt the profile-level
        # entry, the one a fresh model reads first.
        monkeypatch.setenv("REPRO_CHAOS", "corrupt_entry:2")
        chaos.reset()
        PerformanceModel(RTX2070).profile_many([cublas_like()])
        monkeypatch.delenv("REPRO_CHAOS")
        PROFILE_CACHE.clear()  # drop the memory layer, keep disk
        STATS.reset()
        got = PerformanceModel(RTX2070).profile_many([cublas_like()])[0]
        assert got == want_profile
        assert STATS.counters.get("cache.integrity_fails", 0) >= 1

    def test_quarantined_entry_not_rescanned(self, monkeypatch, tmp_path,
                                             cache_enabled):
        store = ResultCache(subdir="it")
        key = content_key(b"chaos-it")
        monkeypatch.setenv("REPRO_CHAOS", "corrupt_entry:0")
        chaos.reset()
        store.put(key, {"cycles": 5})
        monkeypatch.delenv("REPRO_CHAOS")
        store.clear()  # memory layer only
        assert store.get(key) is None
        assert store.quarantined_entries() == 1
        # A clean rewrite works again.
        store.put(key, {"cycles": 5})
        store.clear()
        assert store.get(key) == {"cycles": 5}


class TestGuardedEndToEnd:
    def test_guarded_hgemm_with_flip_still_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:1")
        chaos.reset()
        STATS.reset()
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (128, 32)).astype(np.float16)
        b = rng.uniform(-1, 1, (32, 128)).astype(np.float16)
        out = hgemm(a, b)
        assert np.array_equal(out, hgemm_reference(a, b))
        assert STATS.counters.get("guard.divergences") == 1
        # Subsequent launches run on the degraded rung and stay exact.
        out2 = hgemm(a, b)
        assert np.array_equal(out2, hgemm_reference(a, b))
