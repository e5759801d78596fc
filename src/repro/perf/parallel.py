"""Process-parallel maps for simulation sweeps.

The timing simulator is CPU-bound pure Python, so threads cannot help;
worker processes can.  Workers inherit the environment, so they share the
on-disk result cache of :mod:`repro.perf.cache`: a sweep's workers
populate the cache for the parent and for every later run.

:func:`parallel_map` runs its tasks on a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each task returns its
result together with its own ``STATS`` delta (the counters and timers it
incremented in the worker), and the caller folds those deltas into its
``STATS`` in item order on its own thread, so scoped attribution
(``STATS.scoped()``) sees the work a sweep's workers did exactly as if
it had run serially.

A task's own exception propagates to the caller, as it would serially,
and the tasks not yet started are cancelled.  A worker that dies
abnormally (an OOM kill, a segfault) breaks the pool: the results already
completed are kept, and the tasks that lack one run serially in this
process -- simulation tasks are pure, so re-running one is always sound.

Callables passed to :func:`parallel_map` must be module-level (picklable),
and their payloads must pickle too -- ``GpuSpec`` and ``KernelConfig``
do.

STATS counters: ``par.tasks`` (tasks sent to a pool) and
``par.serial_fallbacks`` (tasks a broken pool left to this process).
"""

from __future__ import annotations

import multiprocessing as mp
import os

from .stats import STATS

__all__ = ["default_workers", "parallel_map"]


def default_workers() -> int:
    """Worker count for ``max_workers=0`` ("auto") and the cap on any
    other count: the CPU count."""
    return max(1, os.cpu_count() or 1)


def _run_task(fn, item):
    """Worker side of one task: ``(fn(item), STATS delta of the call)``."""
    before = STATS.snapshot()
    result = fn(item)
    return result, STATS.delta(before)


def parallel_map(fn, items, max_workers=None) -> list:
    """``[fn(x) for x in items]``, optionally across worker processes.

    ``max_workers`` semantics:

    * ``None`` or ``1`` -- run serially in this process (the default: the
      caller opts in to parallelism explicitly);
    * ``0`` -- auto: one worker per CPU;
    * ``n > 1`` -- at most *n* workers, and never more than one per CPU
      or one per item.

    Order of results always matches the order of *items*.
    """
    items = list(items)
    if max_workers == 0:
        max_workers = default_workers()
    workers = min(max_workers or 1, len(items), default_workers())
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here: the pool's modules cost a process that never starts
    # one (the daemon, most CLI calls) about 1.4 MiB.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    STATS.count("par.tasks", len(items))
    done = {}
    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context())
    try:
        futures = []
        for item in items:
            try:
                futures.append(pool.submit(_run_task, fn, item))
            except BrokenProcessPool:  # a worker died already
                break
        for index, future in enumerate(futures):
            try:
                done[index], delta = future.result()
            except BrokenProcessPool:
                continue
            STATS.merge(delta)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    missing = [index for index in range(len(items)) if index not in done]
    if missing:
        STATS.count("par.serial_fallbacks", len(missing))
        for index in missing:
            done[index] = fn(items[index])
    return [done[index] for index in range(len(items))]
