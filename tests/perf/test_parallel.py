"""Unit tests for parallel_map and the parallel model entry points.

The supervisor half uses :mod:`repro.robust.chaos` to inject worker
crashes and hangs deterministically; recovered runs must be bit-identical
to a fault-free serial run.
"""

import pytest

from repro.perf.parallel import default_workers, parallel_map
from repro.perf.stats import STATS
from repro.robust import chaos


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


@pytest.fixture
def chaos_env(monkeypatch):
    """Set REPRO_CHAOS for one test; counters reset around it."""

    def _set(spec):
        monkeypatch.setenv("REPRO_CHAOS", spec)
        chaos.reset()

    yield _set
    chaos.reset()


def test_serial_by_default():
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert parallel_map(_square, [1, 2, 3], max_workers=1) == [1, 4, 9]


def test_single_item_stays_serial():
    assert parallel_map(_square, [5], max_workers=8) == [25]


def test_empty_input():
    assert parallel_map(_square, [], max_workers=4) == []


def test_parallel_preserves_order():
    items = list(range(12))
    assert parallel_map(_square, items, max_workers=2) == [x * x for x in items]


def test_auto_workers():
    assert default_workers() >= 1
    assert parallel_map(_square, [1, 2], max_workers=0) == [1, 4]


def test_worker_exception_propagates():
    with pytest.raises(ValueError, match="boom"):
        parallel_map(_boom, [1, 2], max_workers=2)


@pytest.mark.parametrize("name", ["REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES",
                                  "REPRO_RETRY_BACKOFF"])
@pytest.mark.parametrize("raw", ["soon", "nan", "-1"])
def test_bad_supervisor_knob_raises(monkeypatch, name, raw):
    """A knob that is not a finite number >= 0 fails loudly, naming the
    variable, instead of becoming a default or a disabled timeout."""
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=f"{name} .*{raw!r}"):
        parallel_map(_square, [1, 2], max_workers=2)


def test_supervisor_knobs_resolve(monkeypatch):
    from repro import knobs

    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "30")
    monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
    monkeypatch.delenv("REPRO_RETRY_BACKOFF", raising=False)
    settings = [knobs.read(name) for name in (
        "REPRO_TASK_TIMEOUT", "REPRO_TASK_RETRIES", "REPRO_RETRY_BACKOFF")]
    assert settings == [30.0, 0, 0.25]
    assert [type(value) for value in settings] == [float, int, float]


class TestSupervisor:
    """Crash/timeout recovery and the serial last rung."""

    def test_crash_recovers_bit_identical(self, chaos_env):
        chaos_env("crash_task:1")
        STATS.reset()
        items = list(range(8))
        got = parallel_map(_square, items, max_workers=2, timeout=60,
                           backoff=0.05)
        assert got == [_square(x) for x in items]  # == fault-free serial
        assert STATS.counters.get("par.crashes") == 1
        assert STATS.counters.get("par.retries") == 1
        assert STATS.counters.get("par.pool_rebuilds", 0) >= 1

    def test_timeout_recovers_bit_identical(self, chaos_env):
        chaos_env("delay_task:0,delay_seconds:5")
        STATS.reset()
        items = list(range(4))
        got = parallel_map(_square, items, max_workers=2, timeout=0.5,
                           backoff=0.05)
        assert got == [_square(x) for x in items]
        assert STATS.counters.get("par.timeouts") == 1
        assert STATS.counters.get("par.retries") == 1

    def test_persistent_crash_falls_back_to_serial(self, chaos_env):
        chaos_env("crash_task_always:2")
        STATS.reset()
        items = list(range(5))
        # Every worker attempt at task 2 dies; the serial last rung (which
        # never consults worker-crash directives) must complete it.
        got = parallel_map(_square, items, max_workers=2, timeout=60,
                           retries=1, backoff=0.05)
        assert got == [_square(x) for x in items]
        assert STATS.counters.get("par.serial_fallbacks") == 1
        assert STATS.counters.get("par.crashes") == 2  # initial + 1 retry

    def test_exception_still_propagates_under_chaos(self, chaos_env):
        chaos_env("crash_task:0")
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom, [1, 2, 3], max_workers=2, timeout=60,
                         backoff=0.05)

    def test_salvages_completed_results_after_crash(self, chaos_env):
        # The crash hits task 3's first attempt only; tasks finished by the
        # surviving worker are kept, nothing recomputed comes back wrong.
        chaos_env("crash_task:3")
        items = list(range(10))
        got = parallel_map(_square, items, max_workers=3, timeout=60,
                           backoff=0.05)
        assert got == [_square(x) for x in items]


class TestModelParallelism:
    """profile_many / sweep across processes match the serial results."""

    @pytest.fixture(scope="class")
    def pm(self, tmp_path_factory):
        from repro.analysis import PerformanceModel
        from repro.arch import RTX2070
        return PerformanceModel(RTX2070)

    def test_profile_many_matches_serial(self, pm, monkeypatch, tmp_path):
        from repro.analysis import PerformanceModel
        from repro.core.config import cublas_like

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = [cublas_like()]
        parallel_pm = PerformanceModel(pm.spec)
        got = parallel_pm.profile_many(configs, max_workers=2)
        want = pm.profile_many(configs)
        assert got == want
        # Identity caching inside the instance still holds.
        assert parallel_pm.sm_profile(configs[0]) is got[0]

    def test_sweep_parallel_matches_serial(self, pm):
        from repro.core.config import cublas_like

        sizes = [2048, 4096, 8192]
        serial = pm.sweep(cublas_like(), sizes)
        par = pm.sweep(cublas_like(), sizes, max_workers=2)
        assert [e.tflops for e in serial] == [e.tflops for e in par]
        assert [e.bound for e in serial] == [e.bound for e in par]


def _square_counting(x):
    STATS.count("test.par_marks")
    return x * x


class TestWorkerStatsRepatriation:
    """Workers ship their STATS deltas home with each result."""

    def test_worker_counters_reach_parent(self):
        before = STATS.counters.get("test.par_marks", 0)
        out = parallel_map(_square_counting, [1, 2, 3], max_workers=2,
                           timeout=60)
        assert out == [1, 4, 9]
        gained = STATS.counters.get("test.par_marks", 0) - before
        assert gained == 3

    def test_worker_counters_land_in_active_scope(self):
        """The chain behind per-request serve attribution: a scoped
        request fans out to processes and still gets charged."""
        with STATS.scoped() as scope:
            parallel_map(_square_counting, [1, 2], max_workers=2,
                         timeout=60)
        assert scope.snapshot()["counters"].get("test.par_marks") == 2
