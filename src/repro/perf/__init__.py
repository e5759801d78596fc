"""Simulation performance layer: result caching, counters, parallel maps.

Every figure and table in the reproduction funnels through the cycle-level
timing simulator, and one SM profile costs seconds of pure-Python cycle
stepping.  This package makes those results reusable and the work shareable:

* :mod:`repro.perf.cache` -- a persistent, content-addressed cache of
  deterministic simulation results (in-process dict + on-disk JSON under
  ``$REPRO_CACHE_DIR``, default ``~/.cache/repro-sim``; disable with
  ``REPRO_NO_CACHE=1``).  Caching never changes reported numbers: a hit
  returns exactly what the simulator produced when the entry was written,
  and the key covers everything the simulation depends on.
* :mod:`repro.perf.stats` -- lightweight counters/timers (cache hits,
  simulated cycles, wall time) surfaced by ``python -m repro perfstats``.
* :mod:`repro.perf.parallel` -- a ``ProcessPoolExecutor`` map for sweeps
  and autotune finalists; workers populate the shared disk cache.
"""

from .cache import (
    PROFILE_CACHE,
    ResultCache,
    SIM_VERSION,
    content_key,
)
from .parallel import default_workers, parallel_map
from .stats import STATS, PerfStats

__all__ = [
    "PROFILE_CACHE",
    "ResultCache",
    "SIM_VERSION",
    "content_key",
    "default_workers",
    "parallel_map",
    "STATS",
    "PerfStats",
]
