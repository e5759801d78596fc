"""Unit tests for the coalescing FIFO queue."""

import threading

import pytest

from repro.perf.stats import STATS
from repro.serve.queue import JobQueue, QueueFull, UnknownJob


def _submit(q, key, **kw):
    return q.submit("noop", key, {}, **kw)


class TestAdmission:
    def test_new_job_is_queued_and_inflight(self):
        q = JobQueue()
        job, outcome = _submit(q, "k1")
        assert outcome == "new"
        assert job.state == "queued"
        assert q.depth() == 1
        assert q.inflight() == 1

    def test_fifo_order(self):
        q = JobQueue()
        first, _ = _submit(q, "first")
        second, _ = _submit(q, "second")
        assert q.next_job(timeout=0) is first
        third, _ = _submit(q, "third")
        assert q.next_job(timeout=0) is second
        assert q.next_job(timeout=0) is third
        assert q.next_job(timeout=0) is None

    def test_bounded_depth_raises_queue_full(self):
        q = JobQueue(max_depth=2)
        _submit(q, "a")
        _submit(q, "b")
        with pytest.raises(QueueFull):
            _submit(q, "c")

    def test_running_jobs_do_not_count_against_depth(self):
        q = JobQueue(max_depth=1)
        _submit(q, "a")
        assert q.next_job(timeout=0).key == "a"  # claimed -> depth frees
        _submit(q, "b")  # must not raise

    def test_timeout_returns_none(self):
        q = JobQueue()
        assert q.next_job(timeout=0) is None


class TestCoalescing:
    def test_twin_attaches_and_counts(self):
        q = JobQueue()
        before = STATS.counters.get("serve.coalesced", 0)
        first, _ = _submit(q, "k")
        twin, outcome = _submit(q, "k")
        assert outcome == "coalesced"
        assert twin is first
        assert first.waiters == 2
        assert q.depth() == 1  # one queued job, not two
        assert STATS.counters.get("serve.coalesced", 0) == before + 1

    def test_coalesces_onto_running_job(self):
        q = JobQueue()
        first, _ = _submit(q, "k")
        assert q.next_job(timeout=0) is first
        twin, outcome = _submit(q, "k")
        assert outcome == "coalesced" and twin is first

    def test_completed_key_admits_a_fresh_job(self):
        q = JobQueue()
        first, _ = _submit(q, "k")
        q.next_job(timeout=0)
        q.complete(first, {"v": 1})
        again, outcome = _submit(q, "k")
        assert outcome == "new"
        assert again is not first

    def test_waiter_observes_complete_result_at_wakeup(self):
        """done.set() must be ordered after result/stats publication."""
        q = JobQueue()
        job, _ = _submit(q, "k")
        q.next_job(timeout=0)
        seen = {}

        def waiter():
            job.done.wait(10)
            seen["state"] = job.state
            seen["result"] = job.result
            seen["stats"] = job.stats

        t = threading.Thread(target=waiter)
        t.start()
        q.complete(job, {"v": 42}, {"counters": {"sim.runs": 1}})
        t.join(timeout=10)
        assert seen == {"state": "done", "result": {"v": 42},
                        "stats": {"counters": {"sim.runs": 1}}}


class TestLifecycle:
    def test_fail_publishes_error_and_counts(self):
        q = JobQueue()
        job, _ = _submit(q, "k")
        q.next_job(timeout=0)
        q.fail(job, "boom")
        assert job.state == "failed"
        assert job.done.is_set()
        assert q.failed == 1
        assert job.public()["error"] == "boom"
        assert q.inflight() == 0

    def test_record_cached_is_born_done(self):
        q = JobQueue()
        job = q.record_cached("noop", "k", {}, {"v": 9})
        assert job.state == "done" and job.cached
        assert job.done.is_set()
        assert q.inflight() == 0  # never coalescable: it never ran
        assert q.get(job.id).public()["result"] == {"v": 9}

    def test_unknown_job_raises(self):
        q = JobQueue()
        with pytest.raises(UnknownJob):
            q.get("job-999")

    def test_done_ring_retention_bounded(self, monkeypatch):
        import repro.serve.queue as queue_mod

        monkeypatch.setattr(queue_mod, "_DONE_RETENTION", 3)
        q = JobQueue()
        ids = []
        for i in range(5):
            job, _ = _submit(q, f"k{i}")
            q.next_job(timeout=0)
            q.complete(job, {})
            ids.append(job.id)
        with pytest.raises(UnknownJob):
            q.get(ids[0])  # oldest forgotten
        assert q.get(ids[-1]).state == "done"

    def test_public_hides_result_until_done(self):
        q = JobQueue()
        job, _ = _submit(q, "k")
        view = job.public()
        assert "result" not in view and "error" not in view
        assert view["state"] == "queued"
