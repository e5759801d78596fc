"""Process-wide performance counters and timers, with scoped attribution.

A single module-level :data:`STATS` instance collects what the performance
layer wants to report: cache hits and misses, simulator invocations, total
simulated cycles and the wall time spent stepping them.  Everything is
plain dict arithmetic -- cheap enough to leave enabled unconditionally.

Counter names use dotted namespaces by convention:

* ``sim.runs`` / ``sim.cycles`` / ``sim.instructions`` -- incremented by
  :class:`~repro.sim.timing.TimingSimulator` per ``run()``.
* ``sim.plans`` / ``sim.plan_insts`` -- incremented by the event timing
  engine when a straight-line MMA issue plan fires: plans executed as one
  stacked batch kernel, and the instructions those plans covered (only
  recorded when nonzero, so a reference-engine run leaves them absent).
* ``sim.wall`` (a timer, seconds) -- wall time inside ``run()``.
* ``func.runs`` / ``func.ctas`` / ``func.instructions`` -- incremented
  by :class:`~repro.sim.functional.FunctionalSimulator` per ``run()``
  (grid launches, CTAs executed, instructions retired).
* ``func.dispatches`` -- closure calls made by the warp-lockstep loop
  (one per stacked slot or fused window executed) and its warp-by-warp
  de-stack loop, summed from the per-slot execution counts when a
  launch ends (see :mod:`repro.sim.decode`).
* ``func.destacks`` -- incremented by the warp-lockstep engine each time
  a CTA hits a stacked closure that returns ``DIVERGED`` and falls back
  to the per-warp interleave path (see :mod:`repro.sim.decode`).
* ``func.wall`` (a timer, seconds) -- wall time inside functional
  ``run()``, including predecode.
* ``core.build_hits`` / ``core.build_misses`` -- incremented by
  :func:`~repro.core.builder.build_hgemm` per call: kernels served from
  the process-wide launch cache, and kernels emitted (and then cached).
* ``decode.slot_hits`` / ``decode.slot_misses`` /
  ``decode.window_hits`` / ``decode.window_misses`` -- added once per
  :func:`~repro.sim.decode.predecode` call: the program's slots found in
  or compiled into the process-wide code cache, and likewise its fused
  windows (only recorded when nonzero).  A relaunch of a program whose
  tables are already assembled counts every slot and window as a hit.
* ``cache.mem_hits`` / ``cache.disk_hits`` / ``cache.misses`` /
  ``cache.stores`` -- maintained by :mod:`repro.perf.cache`.
* ``cache.integrity_fails`` / ``cache.store_errors`` /
  ``cache.evictions`` / ``cache.mem_evictions`` -- the cache's
  robustness and hygiene edge: disk entries that failed envelope
  verification (quarantined, read as a miss), disk writes that failed
  (entry kept in memory only), entries unlinked by the
  ``REPRO_CACHE_MAX_MB`` LRU sweep, and in-process entries dropped by
  the ``REPRO_CACHE_MEM_ENTRIES`` bound (a long-running daemon must not
  grow its memory layer without limit).
* ``guard.checks`` / ``guard.divergences`` / ``guard.degraded`` --
  maintained by :mod:`repro.robust.guard`: reference re-executions
  performed, mismatches caught, and engine-ladder degradation steps
  taken.
* ``par.tasks`` / ``par.retries`` / ``par.timeouts`` / ``par.crashes`` /
  ``par.pool_rebuilds`` / ``par.serial_fallbacks`` -- maintained by the
  supervised :func:`~repro.perf.parallel.parallel_map`: tasks submitted,
  retry attempts scheduled, per-task deadline kills, abnormal worker
  deaths, replacement workers spawned, and tasks that exhausted their
  retries and ran on the in-process serial last rung.
* ``serve.jobs`` / ``serve.coalesced`` / ``serve.cache_hits`` /
  ``serve.errors`` -- maintained by :mod:`repro.serve`: jobs admitted to
  the daemon's queue, concurrent submissions that attached to an already
  in-flight job with the same cache key (N callers, one simulation, N-1
  coalesced), submissions answered straight from the shared result
  cache, and jobs that failed.
* ``perfstats.wall`` (a timer, seconds) -- the ``perfstats`` CLI
  command's whole measured section (profiling plus warm-up launches).

**Scoped attribution.**  :meth:`PerfStats.scoped` opens a dynamic scope
on the calling thread: every ``count``/``add_time`` performed by that
thread while the scope is active is *also* accumulated on the scope
object, so a server can attribute ``func.*``/``sim.*``/``cache.*``
deltas to the one request it is serving even while other threads serve
other requests.  Scopes nest, and worker-process deltas folded in with
:meth:`PerfStats.merge` land in the merging thread's active scopes too
(the supervised ``parallel_map`` runs its merge loop on the calling
thread, so a scoped sweep sees its workers' counters).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["PerfStats", "ScopedStats", "STATS"]


class ScopedStats:
    """Counter/timer deltas attributed to one dynamic scope.

    Filled incrementally by :class:`PerfStats` while the scope is active
    on its thread -- never by snapshot subtraction, so a concurrent
    ``STATS.reset()`` or another thread's activity cannot corrupt it.
    """

    def __init__(self) -> None:
        self.counters: dict = {}
        self.timers: dict = {}

    def snapshot(self) -> dict:
        """The scope's deltas: ``{"counters": {...}, "timers": {...}}``."""
        return {"counters": dict(self.counters), "timers": dict(self.timers)}


class PerfStats:
    """Named counters plus named wall-time accumulators."""

    def __init__(self) -> None:
        self.counters: dict = {}
        self.timers: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ mutation

    def _scopes(self):
        return getattr(self._local, "scopes", ())

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount
        for scope in self._scopes():
            scope.counters[name] = scope.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            self.timers[name] = self.timers.get(name, 0.0) + seconds
        for scope in self._scopes():
            scope.timers[name] = scope.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()

    # --------------------------------------------------------- attribution

    @contextmanager
    def scoped(self):
        """Attribute this thread's counts to a :class:`ScopedStats` too.

        Usage::

            with STATS.scoped() as scope:
                run_one_request()
            deltas = scope.snapshot()

        Scopes are per-thread and nest (an inner scope's counts land on
        the outer one as well).  Counts from *other* threads are not
        attributed -- that isolation is the point.
        """
        scope = ScopedStats()
        scopes = getattr(self._local, "scopes", None)
        if scopes is None:
            scopes = self._local.scopes = []
        scopes.append(scope)
        try:
            yield scope
        finally:
            scopes.remove(scope)

    def merge(self, delta: dict) -> None:
        """Fold a ``{"counters", "timers"}`` delta into the totals.

        Used to repatriate counters measured in a worker process (the
        supervised ``parallel_map`` ships each task's delta back with its
        result).  Goes through :meth:`count`/:meth:`add_time`, so the
        merging thread's active scopes see the delta as well.
        """
        for name, amount in (delta.get("counters") or {}).items():
            self.count(name, amount)
        for name, seconds in (delta.get("timers") or {}).items():
            self.add_time(name, seconds)

    def delta(self, before: dict) -> dict:
        """Counters/timers gained since a :meth:`snapshot` *before*.

        Only strictly-positive deltas are reported (a ``reset`` between
        the snapshots would make deltas negative; dropping them keeps the
        payload meaningful as "work done since").
        """
        counters, timers = {}, {}
        with self._lock:
            for name, value in self.counters.items():
                gained = value - before.get("counters", {}).get(name, 0)
                if gained > 0:
                    counters[name] = gained
            for name, value in self.timers.items():
                gained = value - before.get("timers", {}).get(name, 0.0)
                if gained > 0.0:
                    timers[name] = gained
        return {"counters": counters, "timers": timers}

    # ----------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """Point-in-time copy: ``{"counters": {...}, "timers": {...}}``."""
        with self._lock:
            return {"counters": dict(self.counters),
                    "timers": dict(self.timers)}

    def rate(self, counter: str, timer: str) -> float:
        """counter / timer, or 0.0 when no time has been recorded."""
        elapsed = self.timers.get(timer, 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.counters.get(counter, 0) / elapsed

    def report(self) -> str:
        """Human-readable multi-line summary (the ``perfstats`` command)."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"{name:<24s} {self.counters[name]:>14,d}")
        for name in sorted(self.timers):
            lines.append(f"{name:<24s} {self.timers[name]:>14.3f} s")
        cps = self.rate("sim.cycles", "sim.wall")
        if cps:
            lines.append(f"{'sim.cycles_per_sec':<24s} {cps:>14,.0f}")
        return "\n".join(lines) if lines else "(no activity recorded)"


#: The process-wide stats instance.
STATS = PerfStats()
