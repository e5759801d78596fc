"""Async FIFO job queue with bounded depth and request coalescing.

The queue is the daemon's core perf mechanism.  Every job carries a
**coalescing key** -- by construction the same content-addressed key the
``repro.perf`` result cache uses (:data:`~repro.perf.cache.SIM_VERSION`
included), see :func:`repro.serve.jobs.job_key` -- and the invariant is:

    **at most one job per key is in flight (queued or running) at any
    moment.**

A submission whose key matches an in-flight job *attaches* to it instead
of enqueueing a duplicate: both callers share the one future, and
``serve.coalesced`` counts the attachment (N concurrent submissions of
one key execute one simulation and count N-1).  Completion publishes the
result and the per-job stats delta atomically under the queue lock
before the waiters' event fires, so a coalesced group can never observe
a partial result.

Beyond coalescing the queue is conventional: first in, first out, with
a bounded **queued** depth (running and finished jobs do not count
against it; the bound is back-pressure on admission, not a memory cap).
Finished jobs are retained for late waits in a bounded ring; the oldest
finished jobs are forgotten first.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..perf.stats import STATS

__all__ = ["Job", "JobQueue", "QueueFull", "UnknownJob"]

#: How many finished jobs late waits still find; the oldest go first.
_DONE_RETENTION = 1024


class QueueFull(RuntimeError):
    """Admission refused: the queued depth hit its bound."""


class UnknownJob(KeyError):
    """Asked for a job id the daemon no longer (or never) knew."""


@dataclass
class Job:
    """One admitted request and its lifecycle state."""

    id: str
    kind: str
    key: str
    payload: dict
    tenant: str = "anon"
    #: queued -> running -> done | failed.  "done" with ``cached=True``
    #: never ran: it was answered from the shared result cache.
    state: str = "queued"
    cached: bool = False
    #: Submissions served by this job (1 + coalesced attachments).
    waiters: int = 1
    result: dict = None
    error: str = ""
    #: Scoped ``func.*``/``sim.*``/``cache.*``/``par.*`` deltas of the
    #: one execution, shared by every waiter.
    stats: dict = field(default_factory=dict)
    submitted_at: float = field(default_factory=time.time)
    finished_at: float = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def public(self, with_result: bool = True) -> dict:
        """The JSON view clients see."""
        out = {
            "job_id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "cached": self.cached,
            "waiters": self.waiters,
        }
        if self.state == "failed":
            out["error"] = self.error
        if with_result and self.state == "done":
            out["result"] = self.result
            out["stats"] = self.stats
        return out


class JobQueue:
    """Thread-safe coalescing FIFO queue (see module docstring)."""

    def __init__(self, max_depth: int = 256):
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._fifo: deque = deque()    # queued Jobs, oldest first
        self._inflight: dict = {}      # key -> queued/running Job
        self._jobs: dict = {}          # id -> every Job we still remember
        self._done_ring: deque = deque()
        self._next_id = itertools.count(1)
        self.executed = 0              # jobs that actually ran
        self.failed = 0

    # ------------------------------------------------------------ admission

    def _new_id(self) -> str:
        return f"job-{next(self._next_id)}"

    def submit(self, kind: str, key: str, payload: dict,
               tenant: str = "anon"):
        """Admit one request; returns ``(job, outcome)``.

        *outcome* is ``"new"`` (enqueued), or ``"coalesced"`` (attached
        to an in-flight job with the same key -- the caller shares its
        future).  Raises :class:`QueueFull` when the queued depth is at
        its bound.
        """
        return self.submit_all([(kind, key, payload, tenant)])[0]

    def submit_all(self, requests: list) -> list:
        """Admit ``(kind, key, payload, tenant)`` requests, all or none.

        Returns one :meth:`submit` ``(job, outcome)`` per request, in
        order; a request twins an in-flight job or an earlier request of
        the list.  Raises :class:`QueueFull`, admitting none, when the
        new jobs would take the queued depth past its bound.
        """
        with self._lock:
            new = {key for _, key, _, _ in requests
                   if key not in self._inflight}
            if len(self._fifo) + len(new) > self.max_depth:
                raise QueueFull(
                    f"queue depth {len(self._fifo)} + {len(new)} new "
                    f"job(s) exceeds its bound ({self.max_depth}); "
                    "resubmit later")
            return [self._admit(*request) for request in requests]

    def _admit(self, kind: str, key: str, payload: dict, tenant: str):
        existing = self._inflight.get(key)
        if existing is not None:
            existing.waiters += 1
            STATS.count("serve.coalesced")
            return existing, "coalesced"
        job = Job(id=self._new_id(), kind=kind, key=key,
                  payload=payload, tenant=tenant)
        self._inflight[key] = job
        self._jobs[job.id] = job
        self._fifo.append(job)
        STATS.count("serve.jobs")
        self._available.notify()
        return job, "new"

    def record_cached(self, kind: str, key: str, payload: dict,
                      result: dict, tenant: str = "anon") -> Job:
        """Admit a request already answered by the shared result cache.

        The job is born ``done`` (``cached=True``) so waiting works the
        same way; it never touches the FIFO or the in-flight index.
        """
        with self._lock:
            job = Job(id=self._new_id(), kind=kind, key=key,
                      payload=payload, tenant=tenant, state="done",
                      cached=True, result=result)
            job.finished_at = time.time()
            job.done.set()
            self._jobs[job.id] = job
            self._retain_done(job)
            STATS.count("serve.cache_hits")
            return job

    # ------------------------------------------------------------ execution

    def next_job(self, timeout: float = None):
        """Block until a queued job is available; claim and return it.

        Returns ``None`` on timeout.  The claimed job is ``running`` and
        still in the in-flight index, so late twins keep coalescing onto
        it until :meth:`complete`/:meth:`fail`.
        """
        with self._lock:
            while not self._fifo:
                if not self._available.wait(timeout):
                    return None
            job = self._fifo.popleft()
            job.state = "running"
            return job

    def _retain_done(self, job: Job) -> None:
        self._done_ring.append(job.id)
        while len(self._done_ring) > _DONE_RETENTION:
            old = self._done_ring.popleft()
            self._jobs.pop(old, None)

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        self._inflight.pop(job.key, None)
        self._retain_done(job)
        # The event fires only after every field above is published --
        # a coalesced group never observes a partial result.
        job.done.set()

    def complete(self, job: Job, result: dict, stats: dict = None) -> None:
        """Publish *result* (+ scoped stats delta) and wake all waiters."""
        with self._lock:
            job.result = result
            job.stats = stats or {}
            self.executed += 1
            self._finish(job, "done")

    def fail(self, job: Job, error: str, stats: dict = None) -> None:
        """Publish a failure and wake all waiters."""
        with self._lock:
            job.error = error
            job.stats = stats or {}
            self.failed += 1
            STATS.count("serve.errors")
            self._finish(job, "failed")

    # -------------------------------------------------------------- lookup

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def depth(self) -> int:
        """Jobs currently queued (not yet claimed by the executor)."""
        with self._lock:
            return len(self._fifo)

    def inflight(self) -> int:
        """Jobs queued or running (the coalescing window)."""
        with self._lock:
            return len(self._inflight)
