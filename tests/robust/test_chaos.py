"""Unit tests for the deterministic fault-injection layer."""

import numpy as np
import pytest

from repro import knobs
from repro.robust import chaos


@pytest.fixture(autouse=True)
def clean(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.reset()
    yield
    chaos.reset()


class TestParsing:
    def test_inactive_by_default(self):
        assert knobs.read("REPRO_CHAOS") == {}
        assert not chaos.should_crash(0, 0)

    def test_parses_directive_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS",
                           "crash_task:2, delay_task:1 ,delay_seconds:0.2")
        assert knobs.read("REPRO_CHAOS") == {
            "crash_task": 2, "delay_task": 1, "delay_seconds": 0.2}

    def test_reparses_env_every_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash_task:1")
        assert knobs.read("REPRO_CHAOS") == {"crash_task": 1}
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:3")
        assert knobs.read("REPRO_CHAOS") == {"flip_output": 3}

    def test_garbage_values_never_match(self, monkeypatch):
        """A directive that could never fire is refused, naming the
        variable, instead of being ignored."""
        for spec in ("crash_task:banana", "crash_tsk:0", "crash_task:1.5",
                     "flip_output:-1", "crash_task"):
            monkeypatch.setenv("REPRO_CHAOS", spec)
            with pytest.raises(ValueError, match="REPRO_CHAOS"):
                chaos.should_crash(0, 0)


class TestCrashPredicate:
    def test_crash_task_first_attempt_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash_task:3")
        assert chaos.should_crash(3, 0)
        assert not chaos.should_crash(3, 1)  # retry runs clean
        assert not chaos.should_crash(2, 0)  # other tasks untouched

    def test_crash_task_always_every_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash_task_always:3")
        assert chaos.should_crash(3, 0)
        assert chaos.should_crash(3, 5)
        assert not chaos.should_crash(4, 0)


class TestCorruptEntry:
    def test_targets_kth_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt_entry:1")
        paths = []
        for i in range(3):
            p = tmp_path / f"entry{i}.json"
            p.write_text('{"payload": 1}')
            paths.append(p)
        fired = [chaos.maybe_corrupt_entry(p) for p in paths]
        assert fired == [False, True, False]
        assert paths[1].read_bytes().startswith(b"\x00CHAOS\x00")
        assert paths[0].read_text() == '{"payload": 1}'

    def test_inactive_without_directive(self, tmp_path):
        p = tmp_path / "entry.json"
        p.write_text("{}")
        assert not chaos.maybe_corrupt_entry(p)
        assert p.read_text() == "{}"


class TestFlipOutput:
    def test_fires_at_most_count_times(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:2")
        words = np.zeros(96, dtype=np.uint32)
        assert chaos.maybe_flip_output(words)
        assert chaos.maybe_flip_output(words)
        assert not chaos.maybe_flip_output(words)  # budget exhausted
        assert words[32] == 0  # flipped twice: back to zero
        words2 = np.zeros(96, dtype=np.uint32)
        chaos.reset()
        assert chaos.maybe_flip_output(words2)
        assert words2[32] == 1

    def test_noop_without_directive(self):
        words = np.zeros(8, dtype=np.uint32)
        assert not chaos.maybe_flip_output(words)
        assert not words.any()
