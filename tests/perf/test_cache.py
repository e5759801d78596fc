"""Unit tests for the content-addressed result cache.

Covers the integrity layer exhaustively: every corruption class
(truncated JSON, valid-JSON-wrong-schema, checksum mismatch, stale
``SIM_VERSION``) must read as a miss, quarantine the file, and never
surface a stale value; plus the hygiene pieces (store-error accounting,
``*.tmp`` sweeping, size-bounded LRU eviction).
"""

import json
import os
import time

import pytest

from repro import knobs
from repro.arch import RTX2070, T4
from repro.core.config import cublas_like, ours
from repro.perf.cache import (
    SCHEMA_VERSION, SIM_VERSION, ResultCache, content_key,
)
from repro.perf.stats import STATS


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    return ResultCache(subdir="test")


def _entry_path(tmp_path, key):
    return tmp_path / "test" / f"{key}.json"


class TestContentKey:
    def test_deterministic(self):
        assert content_key(b"x", 1, "y") == content_key(b"x", 1, "y")

    def test_distinct_inputs_distinct_keys(self):
        assert content_key(b"abc") != content_key(b"abd")
        assert content_key(RTX2070) != content_key(T4)
        assert content_key(ours()) != content_key(cublas_like())

    def test_length_framing_prevents_concatenation_collisions(self):
        assert content_key(b"ab", b"c") != content_key(b"a", b"bc")
        assert content_key(b"ab") != content_key(b"a", b"b")

    def test_version_tag_changes_key(self):
        base = content_key(b"run", SIM_VERSION, RTX2070)
        assert content_key(b"run", SIM_VERSION + "x", RTX2070) != base

    def test_dataclasses_hash_by_value(self):
        assert content_key(ours()) == content_key(ours())


class TestResultCache:
    def test_miss_then_hit(self, cache):
        key = content_key(b"k1")
        assert cache.get(key) is None
        cache.put(key, {"cycles": 123})
        assert cache.get(key) == {"cycles": 123}

    def test_disk_round_trip(self, cache, tmp_path):
        key = content_key(b"k2")
        cache.put(key, {"cycles": 7})
        fresh = ResultCache(subdir="test")  # empty memory layer
        assert fresh.get(key) == {"cycles": 7}
        assert cache.disk_entries() == 1

    def test_clear(self, cache):
        key = content_key(b"k4")
        cache.put(key, {"v": 1})
        cache.clear()
        # Memory gone, disk still there.
        assert cache.disk_entries() == 1
        assert cache.get(key) == {"v": 1}
        cache.clear(disk=True)
        assert cache.disk_entries() == 0

    def test_values_json_stable(self, cache, tmp_path):
        key = content_key(b"k5")
        cache.put(key, {"marginal_cycles": 4375.0, "ctas_per_sm": 1})
        raw = json.loads(_entry_path(tmp_path, key).read_text())
        assert raw["payload"] == {"marginal_cycles": 4375.0,
                                  "ctas_per_sm": 1}
        assert raw["schema"] == SCHEMA_VERSION
        assert raw["sim_version"] == SIM_VERSION
        assert len(raw["sha256"]) == 64

    def test_stores_counted_only_on_success(self, cache, monkeypatch,
                                            tmp_path):
        STATS.reset()
        cache.put(content_key(b"ok"), {"v": 1})
        assert STATS.counters.get("cache.stores") == 1
        assert "cache.store_errors" not in STATS.counters
        # Point the disk layer at a path that cannot be a directory.
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        cache.put(content_key(b"fails"), {"v": 2})
        assert STATS.counters.get("cache.stores") == 1  # unchanged
        assert STATS.counters.get("cache.store_errors") == 1
        # The memory layer still serves the value.
        assert cache.get(content_key(b"fails")) == {"v": 2}


class TestIntegrity:
    """Every corruption class: miss + quarantine + counted, never served."""

    def _put_and_corrupt(self, cache, tmp_path, mangle):
        key = content_key(b"corrupt-me")
        cache.put(key, {"cycles": 9})
        path = _entry_path(tmp_path, key)
        envelope = json.loads(path.read_text())
        mangle(path, envelope)
        return key, path

    def _assert_quarantined_miss(self, tmp_path, key, path):
        STATS.reset()
        fresh = ResultCache(subdir="test")
        assert fresh.get(key) is None
        assert not path.exists()
        assert (tmp_path / "test" / "quarantine" / path.name).exists()
        assert STATS.counters.get("cache.integrity_fails") == 1
        # And the quarantined file is never picked back up.
        assert fresh.get(key) is None
        assert fresh.quarantined_entries() == 1

    def test_truncated_json(self, cache, tmp_path):
        def mangle(path, envelope):
            raw = path.read_text()
            path.write_text(raw[: len(raw) // 2], encoding="utf-8")

        key, path = self._put_and_corrupt(cache, tmp_path, mangle)
        self._assert_quarantined_miss(tmp_path, key, path)

    def test_valid_json_wrong_schema(self, cache, tmp_path):
        def mangle(path, envelope):
            envelope["schema"] = SCHEMA_VERSION + 1
            path.write_text(json.dumps(envelope), encoding="utf-8")

        key, path = self._put_and_corrupt(cache, tmp_path, mangle)
        self._assert_quarantined_miss(tmp_path, key, path)

    def test_pre_envelope_bare_payload(self, cache, tmp_path):
        def mangle(path, envelope):
            path.write_text(json.dumps(envelope["payload"]),
                            encoding="utf-8")

        key, path = self._put_and_corrupt(cache, tmp_path, mangle)
        self._assert_quarantined_miss(tmp_path, key, path)

    def test_checksum_mismatch(self, cache, tmp_path):
        def mangle(path, envelope):
            envelope["payload"]["cycles"] = 10_000  # silent bit-rot
            path.write_text(json.dumps(envelope), encoding="utf-8")

        key, path = self._put_and_corrupt(cache, tmp_path, mangle)
        self._assert_quarantined_miss(tmp_path, key, path)

    def test_stale_sim_version(self, cache, tmp_path):
        def mangle(path, envelope):
            envelope["sim_version"] = "timing-v0"
            path.write_text(json.dumps(envelope), encoding="utf-8")

        key, path = self._put_and_corrupt(cache, tmp_path, mangle)
        self._assert_quarantined_miss(tmp_path, key, path)

    def test_unparseable_garbage(self, cache, tmp_path):
        key = content_key(b"k3")
        cache.put(key, {"cycles": 9})
        path = _entry_path(tmp_path, key)
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultCache(subdir="test")
        assert fresh.get(key) is None
        assert not path.exists()  # corrupt file moved out of circulation


class TestHygiene:
    def test_clear_removes_tmp_and_quarantine(self, cache, tmp_path):
        key = content_key(b"k7")
        cache.put(key, {"v": 1})
        root = tmp_path / "test"
        (root / "orphan.tmp").write_text("interrupted write")
        path = _entry_path(tmp_path, key)
        path.write_text("{broken", encoding="utf-8")
        fresh = ResultCache(subdir="test")
        assert fresh.get(key) is None  # quarantines the broken entry
        cache.clear(disk=True)
        assert list(root.glob("*.tmp")) == []
        assert list(root.glob("*.json")) == []
        assert list((root / "quarantine").glob("*.json")) == []

    def test_evict_sweeps_stale_tmp(self, cache, tmp_path):
        cache.put(content_key(b"k8"), {"v": 1})
        root = tmp_path / "test"
        stale = root / "stale.tmp"
        stale.write_text("old interrupted write")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh_tmp = root / "fresh.tmp"
        fresh_tmp.write_text("live write in flight")
        cache.evict(max_bytes=None)
        assert not stale.exists()
        assert fresh_tmp.exists()  # a live put's tmp file is left alone

    def test_lru_eviction_drops_oldest_first(self, cache, tmp_path,
                                             monkeypatch):
        STATS.reset()
        keys = [content_key(b"evict", i) for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, {"v": i, "pad": "x" * 200})
        # Back-date entries 0 and 1; touch 2 and 3 as most recent.
        now = time.time()
        for age, key in zip((4000, 3000, 20, 10), keys):
            path = _entry_path(tmp_path, key)
            os.utime(path, (now - age, now - age))
        entry_size = _entry_path(tmp_path, keys[0]).stat().st_size
        evicted = cache.evict(max_bytes=entry_size * 2)
        assert evicted == 2
        assert STATS.counters.get("cache.evictions") == 2
        survivors = {p.name for p in (tmp_path / "test").glob("*.json")}
        assert survivors == {f"{keys[2]}.json", f"{keys[3]}.json"}

    def test_put_honours_max_mb_env(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.0005")  # ~524 bytes
        assert knobs.read("REPRO_CACHE_MAX_MB") == 0.0005
        for i in range(5):
            cache.put(content_key(b"auto", i), {"v": i, "pad": "x" * 200})
        assert cache.disk_bytes() <= 524

    def test_disk_hit_refreshes_lru_position(self, cache, tmp_path):
        key_old = content_key(b"old")
        key_hot = content_key(b"hot")
        cache.put(key_hot, {"v": 1, "pad": "x" * 200})
        cache.put(key_old, {"v": 2, "pad": "x" * 200})
        now = time.time()
        os.utime(_entry_path(tmp_path, key_hot), (now - 5000, now - 5000))
        os.utime(_entry_path(tmp_path, key_old), (now - 1000, now - 1000))
        fresh = ResultCache(subdir="test")
        assert fresh.get(key_hot) is not None  # touches mtime
        entry_size = _entry_path(tmp_path, key_hot).stat().st_size
        cache.evict(max_bytes=entry_size)
        survivors = {p.name for p in (tmp_path / "test").glob("*.json")}
        assert survivors == {f"{key_hot}.json"}


class TestEnvironmentSwitches:
    def test_no_cache_disables_everything(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert knobs.read("REPRO_NO_CACHE")
        key = content_key(b"k6")
        cache.put(key, {"v": 1})
        assert cache.get(key) is None
        assert cache.disk_entries() == 0

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert knobs.read("REPRO_CACHE_DIR") == tmp_path / "elsewhere"

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_CACHE_MAX_MB", "lots"), ("REPRO_CACHE_MAX_MB", "nan"),
        ("REPRO_CACHE_MAX_MB", "-5"), ("REPRO_CACHE_MAX_MB", "inf"),
        ("REPRO_CACHE_MEM_ENTRIES", "abc"), ("REPRO_CACHE_MEM_ENTRIES", "nan"),
        ("REPRO_CACHE_MEM_ENTRIES", "inf"), ("REPRO_CACHE_MEM_ENTRIES", "-1"),
        ("REPRO_CACHE_MEM_ENTRIES", "2.5"),
    ])
    def test_bad_bound_raises_naming_the_variable(self, cache, monkeypatch,
                                                  name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name} must be .*{raw!r}"):
            cache.put(content_key(b"k7"), {"v": 1})

    def test_bounds_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
        monkeypatch.setenv("REPRO_CACHE_MEM_ENTRIES", "0")   # unbounded
        assert knobs.read("REPRO_CACHE_MAX_MB") == 1.5
        assert knobs.read("REPRO_CACHE_MEM_ENTRIES") == 0
        monkeypatch.setenv("REPRO_CACHE_MEM_ENTRIES", "1e3")
        assert knobs.read("REPRO_CACHE_MEM_ENTRIES") == 1000
        monkeypatch.delenv("REPRO_CACHE_MAX_MB")
        monkeypatch.delenv("REPRO_CACHE_MEM_ENTRIES")
        assert knobs.read("REPRO_CACHE_MAX_MB") is None
        assert knobs.read("REPRO_CACHE_MEM_ENTRIES") == 4096
