"""Runtime guard rails for the simulation stack.

Three pillars, each defending a different invariant at *run* time (the
test suite pins them at test time, but a long-running service cannot
assume every fast path, worker process or disk cache entry stays sound):

* :mod:`repro.robust.guard` -- the divergence watchdog.  Opt-in
  (``REPRO_GUARD=off|sample|full``) re-execution
  of runs on the ``reference`` engines, digest comparison, reproducer
  bundles under ``$REPRO_CACHE_DIR/divergence/`` and graceful degradation
  down the engine ladder instead of crashing.
* :mod:`repro.robust.chaos` -- deterministic fault injection
  (``REPRO_CHAOS``): crash a worker, delay a task, corrupt a cache entry,
  flip an engine output bit.  Drives the robustness test suite and the CI
  chaos leg.
* :mod:`repro.robust.doctor` -- the ``repro doctor`` subcommand: lists
  every ``REPRO_*`` knob, reports guard / cache / worker health and runs a
  small self-test of each pillar.

Submodules are imported on demand (``from repro.robust import guard``)
rather than here: :mod:`repro.perf` imports the chaos layer, and keeping
this package ``__init__`` empty of imports keeps the import graph acyclic.
"""

__all__ = ["chaos", "guard", "doctor"]
