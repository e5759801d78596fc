"""Health checks of the simulation stack.

:mod:`repro.robust.doctor` is the ``repro doctor`` subcommand: it lists
every ``REPRO_*`` knob, reports cache and worker state and runs a small
self-test of each piece a shipped path relies on -- the cache's sealed
envelopes and quarantine, the process-parallel map, the agreement of
each simulator's fast and reference engines, the host's BLAS summation
order and a serve round-trip.

The submodule is imported on demand (``from repro.robust import
doctor``) rather than here, so importing the package costs nothing.
"""

__all__ = ["doctor"]
