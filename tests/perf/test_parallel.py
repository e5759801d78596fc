"""Unit tests for parallel_map and the parallel model entry points.

The crash half kills pool workers with the task functions of
:mod:`tests.faults`; recovered runs must be bit-identical to a
fault-free serial run.
"""

import concurrent.futures
from concurrent.futures import Future

import pytest

from repro.perf import parallel
from repro.perf.parallel import default_workers, parallel_map
from repro.perf.stats import STATS

from ..faults import crash_always, crash_once


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _square_crash_once_at_1(x):
    if x == 1:
        crash_once()
    return x * x


def _square_crash_once_at_9(x):
    if x == 9:
        crash_once()
    return x * x


def _square_crash_always_at_2(x):
    if x == 2:
        crash_always()
    return x * x


def _boom_after_a_crash(x):
    crash_once()
    raise ValueError(f"boom {x}")


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


def test_workers_capped_at_cpu_count(monkeypatch):
    """A pool never gets more workers than CPUs or items, and a one-CPU
    cap runs serially; a stand-in pool records the sizes asked for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(parallel, "default_workers", lambda: 3)
    items = list(range(64))
    assert parallel_map(_square, items, max_workers=64) == [x * x for x in items]
    assert parallel_map(_square, items, max_workers=0) == [x * x for x in items]
    assert parallel_map(_square, [1, 2], max_workers=64) == [1, 4]
    monkeypatch.setattr(parallel, "default_workers", lambda: 1)
    assert parallel_map(_square, items, max_workers=64) == [x * x for x in items]
    assert sizes == [3, 3, 2]


class TestSupervisor:
    """A dead worker breaks the pool: completed results are kept and the
    rest run serially in this process."""

    def test_crash_recovers_bit_identical(self, worker_faults):
        STATS.reset()
        items = list(range(8))
        got = parallel_map(_square_crash_once_at_1, items, max_workers=2)
        assert got == [_square(x) for x in items]  # == fault-free serial
        assert worker_faults.exists()  # a worker did die
        assert STATS.counters.get("par.serial_fallbacks", 0) >= 1

    def test_persistent_crash_falls_back_to_serial(self, worker_faults):
        STATS.reset()
        items = list(range(5))
        # Every worker that runs task 2 dies; the serial fallback, which
        # runs in this process, completes it.
        got = parallel_map(_square_crash_always_at_2, items, max_workers=2)
        assert got == [_square(x) for x in items]
        assert STATS.counters.get("par.serial_fallbacks", 0) >= 1

    def test_exception_still_propagates_under_chaos(self, worker_faults):
        # Whether a task raises in a worker or in the serial fallback after
        # the crash, its own exception reaches the caller.
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_boom_after_a_crash, [1, 2, 3], max_workers=2)
        assert worker_faults.exists()

    def test_salvages_completed_results_after_crash(self, worker_faults):
        # The crash hits the last task, so at least eight of the ten have
        # finished on the two workers; only the crashed task and at most
        # one in flight beside it run again here.
        STATS.reset()
        items = list(range(10))
        got = parallel_map(_square_crash_once_at_9, items, max_workers=2)
        assert got == [_square(x) for x in items]
        assert 1 <= STATS.counters.get("par.serial_fallbacks", 0) <= 2


class TestModelParallelism:
    """profile_many across processes matches the serial results."""

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


def _square_counting(x):
    STATS.count("test.par_marks")
    return x * x


class TestWorkerStatsRepatriation:
    """Workers ship their STATS deltas home with each result."""

    def test_worker_counters_reach_parent(self):
        before = STATS.counters.get("test.par_marks", 0)
        out = parallel_map(_square_counting, [1, 2, 3], max_workers=2)
        assert out == [1, 4, 9]
        gained = STATS.counters.get("test.par_marks", 0) - before
        assert gained == 3

    def test_worker_counters_land_in_active_scope(self):
        """The chain behind per-request serve attribution: a scoped
        request fans out to processes and still gets charged."""
        with STATS.scoped() as scope:
            parallel_map(_square_counting, [1, 2], max_workers=2)
        assert scope.snapshot()["counters"].get("test.par_marks") == 2
