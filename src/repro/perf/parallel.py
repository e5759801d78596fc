"""Supervised process-parallel maps for simulation sweeps.

The timing simulator is CPU-bound pure Python, so threads cannot help;
worker processes can.  Workers inherit the environment, so they share the
on-disk result cache of :mod:`repro.perf.cache`: a sweep's workers
populate the cache for the parent and for every later run.

Earlier versions drove a bare ``ProcessPoolExecutor``; one OOM-killed
worker then destroyed the whole sweep.  :func:`parallel_map` is now built
around a **supervisor** that owns each worker process directly:

* every task has a **timeout** (``REPRO_TASK_TIMEOUT`` seconds, default
  600, 0 disables) -- a worker that exceeds it is terminated and its task
  retried elsewhere;
* crashes and timeouts get **bounded retries with exponential backoff**
  (``REPRO_TASK_RETRIES`` extra attempts, default 2;
  ``REPRO_RETRY_BACKOFF`` base delay, default 0.25 s, doubled per retry);
* a dead worker is **replaced** and completed results are salvaged --
  nothing already computed is re-run;
* tasks that exhaust their retries fall back to **in-process serial
  execution**, the last rung (simulation tasks are pure, so re-running a
  failed task in the parent is always sound).

Deterministic Python exceptions raised by the task function itself are
*not* retried -- they propagate to the caller exactly as a serial run
would raise them.  Retries exist for abnormal death (OOM kill, segfault,
:mod:`repro.robust.chaos` crash injection) and for hangs.

Callables passed to :func:`parallel_map` must be module-level (picklable),
and their payloads must pickle too -- ``GpuSpec``, ``KernelConfig`` and
:class:`~repro.analysis.perf_model.PerfOptions` all do.

STATS counters: ``par.tasks``, ``par.crashes``, ``par.timeouts``,
``par.retries``, ``par.pool_rebuilds``, ``par.serial_fallbacks``.
Additionally, every completed task ships its own ``STATS`` delta (the
counters and timers it incremented in the worker process) back with its
result; the supervisor folds those into the parent's ``STATS`` on the
calling thread, so scoped attribution (``STATS.scoped()``) sees the work
a sweep's workers did exactly as if it had run serially.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import time
from collections import deque

from .. import knobs
from ..robust import chaos
from .stats import STATS

__all__ = ["default_workers", "parallel_map", "WorkerTaskError"]

#: Supervisor poll granularity (seconds): the latency of noticing a death
#: or deadline, traded against idle wakeups.
_TICK_S = 0.05


def default_workers() -> int:
    """Worker count for ``max_workers=0`` ("auto"): the CPU count."""
    return max(1, os.cpu_count() or 1)


class WorkerTaskError(RuntimeError):
    """A task died abnormally (crash/timeout) through all its retries."""


# ----------------------------------------------------------- worker process

def _dump_exc(exc: BaseException):
    """Exception as a picklable payload (falls back to its repr)."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(worker_id, task_q, result_q, fn):
    """Worker loop: report ready, then run assigned (task, attempt) pairs."""
    result_q.put((worker_id, None, "ready", None))
    while True:
        message = task_q.get()
        if message is None:
            return
        task_id, attempt, item = message
        if chaos.should_crash(task_id, attempt):
            # Die like an OOM kill -- but never while our feeder thread
            # still holds the shared result-queue write lock (it may be
            # a few instructions shy of releasing it after flushing the
            # "ready" message).  An exit mid-send would poison the queue
            # for every sibling and replacement worker; flush first.
            result_q.close()
            result_q.join_thread()
            os._exit(13)
        chaos.maybe_delay_task(task_id, attempt)
        before = STATS.snapshot()
        try:
            result = fn(item)
        except BaseException as exc:  # noqa: BLE001
            result_q.put((worker_id, task_id, "error", _dump_exc(exc)))
        else:
            # Ship the task's counter/timer delta home with the result:
            # the parent folds it into its own STATS (and any active
            # scopes), so ``sim.*``/``func.*`` attribution survives the
            # process gap.
            delta = STATS.delta(before)
            try:
                result_q.put((worker_id, task_id, "ok", (result, delta)))
            except Exception as exc:  # unpicklable result
                result_q.put((worker_id, task_id, "error", _dump_exc(exc)))


# -------------------------------------------------------------- supervisor

class _Task:
    __slots__ = ("idx", "item", "attempt", "eligible_at")

    def __init__(self, idx, item):
        self.idx = idx
        self.item = item
        self.attempt = 0
        self.eligible_at = 0.0


class _Worker:
    """Parent-side handle: the process, its private queue, its assignment."""

    __slots__ = ("proc", "task_q", "ready", "task", "deadline")

    def __init__(self, ctx, worker_id, result_q, fn):
        self.task_q = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, result_q, fn),
            daemon=True,
        )
        self.ready = False
        self.task = None
        self.deadline = None
        self.proc.start()


class _Supervisor:
    """Owns the worker fleet for one :func:`parallel_map` call."""

    def __init__(self, fn, workers, timeout, retries, backoff):
        self.fn = fn
        self.n_workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.ctx = mp.get_context()
        self.result_q = self.ctx.Queue()
        self.workers: dict = {}
        self._next_wid = 0

    # ------------------------------------------------------------- plumbing

    def _spawn(self) -> None:
        wid = self._next_wid
        self._next_wid += 1
        self.workers[wid] = _Worker(self.ctx, wid, self.result_q, self.fn)

    def _assign(self, worker: _Worker, task: _Task) -> None:
        worker.task = task
        worker.deadline = (time.monotonic() + self.timeout
                           if self.timeout else None)
        worker.task_q.put((task.idx, task.attempt, task.item))

    def _retire_worker(self, wid, terminate: bool) -> None:
        worker = self.workers.pop(wid)
        if terminate and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5)

    def _shutdown(self) -> None:
        for worker in self.workers.values():
            if worker.proc.is_alive():
                if worker.task is None:
                    worker.task_q.put(None)  # graceful: it is idle
                else:
                    worker.proc.terminate()
        for worker in self.workers.values():
            worker.proc.join(timeout=5)
        self.workers.clear()
        self.result_q.close()

    # ------------------------------------------------------------- recovery

    def _requeue(self, task: _Task, pending, failures, why: str) -> None:
        """Retry *task* with backoff, or park it for the serial last rung."""
        task.attempt += 1
        if task.attempt > self.retries:
            failures[task.idx] = WorkerTaskError(
                f"task {task.idx} {why} after {task.attempt} attempts")
        else:
            STATS.count("par.retries")
            delay = self.backoff * (2 ** (task.attempt - 1))
            task.eligible_at = time.monotonic() + delay
            pending.append(task)

    # ------------------------------------------------------------ main loop

    def run(self, items: list) -> list:
        n = len(items)
        STATS.count("par.tasks", n)
        pending = deque(_Task(i, item) for i, item in enumerate(items))
        results: dict = {}
        failures: dict = {}
        error = None
        for _ in range(self.n_workers):
            self._spawn()
        try:
            while error is None and len(results) + len(failures) < n:
                self._dispatch(pending)
                try:
                    message = self.result_q.get(timeout=_TICK_S)
                except queue_mod.Empty:
                    message = None
                if message is not None:
                    error = self._handle(message, pending, results, failures)
                self._police(pending, failures)
        finally:
            self._shutdown()
        if error is not None:
            raise error
        if failures:
            # Last rung: run what the fleet could not finish in-process.
            STATS.count("par.serial_fallbacks", len(failures))
            for idx in sorted(failures):
                results[idx] = self.fn(items[idx])
        return [results[i] for i in range(n)]

    def _dispatch(self, pending) -> None:
        if not pending:
            return
        now = time.monotonic()
        for worker in self.workers.values():
            if not pending:
                return
            if worker.task is not None or not worker.ready:
                continue
            if not worker.proc.is_alive():
                continue  # _police replaces it
            task = self._next_eligible(pending, now)
            if task is None:
                return
            self._assign(worker, task)

    @staticmethod
    def _next_eligible(pending, now):
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.eligible_at <= now:
                return task
            pending.append(task)
        return None

    def _handle(self, message, pending, results, failures):
        """Process one worker message; returns an exception to raise."""
        wid, task_id, kind, payload = message
        worker = self.workers.get(wid)
        if kind == "ready":
            if worker is not None:
                worker.ready = True
            return None
        if worker is not None and worker.task is not None \
                and worker.task.idx == task_id:
            worker.task = None
            worker.deadline = None
        if kind == "ok":
            result, delta = payload
            STATS.merge(delta)
            results[task_id] = result
            return None
        return payload  # deterministic task error: propagate, no retry

    def _police(self, pending, failures) -> None:
        """Detect dead and overdue workers; retry their tasks, refill."""
        now = time.monotonic()
        for wid in list(self.workers):
            worker = self.workers[wid]
            if not worker.proc.is_alive():
                task = worker.task
                self._retire_worker(wid, terminate=False)
                if task is not None:
                    STATS.count("par.crashes")
                    self._requeue(task, pending, failures, "crashed")
            elif (worker.task is not None and worker.deadline is not None
                    and now > worker.deadline):
                task = worker.task
                STATS.count("par.timeouts")
                self._retire_worker(wid, terminate=True)
                self._requeue(task, pending, failures, "timed out")
        refill = self.n_workers - len(self.workers)
        if refill > 0:
            STATS.count("par.pool_rebuilds", refill)
            for _ in range(refill):
                self._spawn()


# ---------------------------------------------------------------- public API

def parallel_map(fn, items, max_workers=None, timeout=None, retries=None,
                 backoff=None) -> list:
    """``[fn(x) for x in items]``, optionally across supervised workers.

    ``max_workers`` semantics:

    * ``None`` or ``1`` -- run serially in this process (the default: the
      caller opts in to parallelism explicitly);
    * ``0`` -- auto: one worker per CPU;
    * ``n > 1`` -- at most *n* workers.

    ``timeout`` (seconds per task, 0 disables), ``retries`` (extra
    attempts after a crash or timeout) and ``backoff`` (base retry delay in
    seconds, doubled per retry) tune the supervisor; each defaults to its
    ``REPRO_*`` knob.  See the module docstring for the recovery ladder.

    Order of results always matches the order of *items*.  Exceptions
    raised by *fn* propagate to the caller, as they would serially;
    abnormal worker death is retried and, as a last resort, the affected
    tasks run serially in this process.
    """
    items = list(items)
    if max_workers == 0:
        max_workers = default_workers()
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    timeout = knobs.read("REPRO_TASK_TIMEOUT") if timeout is None else timeout
    retries = knobs.read("REPRO_TASK_RETRIES") if retries is None else retries
    backoff = knobs.read("REPRO_RETRY_BACKOFF") if backoff is None else backoff
    workers = min(max_workers, len(items))
    supervisor = _Supervisor(fn, workers, max(0.0, timeout), max(0, retries),
                             max(0.0, backoff))
    return supervisor.run(items)
