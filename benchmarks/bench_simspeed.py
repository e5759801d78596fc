"""Simulator speed benchmark: engine sweep + cold simulation vs warm cache.

Two families of legs, written to ``BENCH_simspeed.json`` in the repo root:

**Engine sweep** (no cache anywhere): both paper kernels (``ours`` and
``cublas-like``) at their true occupancy (CTAs/SM) across a k-depth ladder
-- the same composition ``PerformanceModel.sm_profile``/``sweep`` simulate
-- run directly through ``TimingSimulator`` on the ``reference`` and
``event`` engines.  Every per-run :class:`TimingResult` must compare equal
across engines (the event engine's core invariant) and the event engine
must finish the sweep at least 3x faster end-to-end.

**Cache ladder**: profiling both kernels three ways --

* **cold** -- empty cache: every profile leg runs the timing simulator;
* **warm disk** -- the in-process layer is dropped, so profiles reload
  from the on-disk store (what a fresh interpreter sees);
* **warm memory** -- everything hits the in-process layer.

Runs against a throwaway cache directory, never the user's real one, and
verifies that all three paths return identical profiles.

Usage::

    PYTHONPATH=src python benchmarks/bench_simspeed.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: k depths of the engine-sweep leg.  Matches the range the figure sweeps
#: exercise (profile legs at small k, long-k estimates amortising them).
SWEEP_KS = (64, 128, 256, 512)

#: Required end-to-end event-over-reference speedup on the sweep leg.
EVENT_SPEEDUP_TARGET = 3.0


def _build_legs(spec):
    """The sweep composition: both kernels at true occupancy across k."""
    from repro.analysis import PerformanceModel
    from repro.core import cublas_like, ours
    from repro.core.builder import HgemmProblem, build_hgemm

    pm = PerformanceModel(spec)
    legs = []
    for config in (ours(), cublas_like()):
        ctas = pm.ctas_per_sm(config)
        for k in SWEEP_KS:
            problem = HgemmProblem(m=config.b_m, n=config.b_n, k=k,
                                   a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
            program = build_hgemm(config, problem, spec)
            legs.append((f"{config.name}/k{k}/ctas{ctas}", ctas, program))
    return legs


def _engine_sweep(spec, legs):
    """Time both engines over the sweep; returns (times, identical, runs)."""
    from repro.sim.memory import GlobalMemory
    from repro.sim.timing import TimingSimulator

    times, results = {}, {}
    for engine in ("reference", "event"):
        total = 0.0
        out = []
        for _label, ctas, program in legs:
            sim = TimingSimulator(spec, engine=engine)
            memory = GlobalMemory(16 << 20)
            start = time.perf_counter()
            out.append(sim.run(program, memory, num_ctas=ctas))
            total += time.perf_counter() - start
        times[engine] = total
        results[engine] = out
    identical = all(
        ref == evt for ref, evt in zip(results["reference"], results["event"])
    )
    return times, identical, [label for label, _, _ in legs]


def _profile_all(spec, configs):
    from repro.analysis import PerformanceModel

    pm = PerformanceModel(spec)
    start = time.perf_counter()
    profiles = [pm.sm_profile(c) for c in configs]
    return time.perf_counter() - start, profiles


def main() -> int:
    scratch = tempfile.mkdtemp(prefix="repro-simspeed-")
    os.environ["REPRO_CACHE_DIR"] = scratch
    os.environ.pop("REPRO_NO_CACHE", None)

    from repro.arch import RTX2070
    from repro.core import cublas_like, ours
    from repro.perf import PROFILE_CACHE, STATS

    configs = [ours(), cublas_like()]
    try:
        legs = _build_legs(RTX2070)
        engine_times, engines_identical, sweep_legs = _engine_sweep(
            RTX2070, legs)

        STATS.reset()
        cold_s, cold = _profile_all(RTX2070, configs)
        sim_stats = STATS.snapshot()

        PROFILE_CACHE.clear()  # drop the memory layer, keep the disk files
        disk_s, warm_disk = _profile_all(RTX2070, configs)

        mem_s, warm_mem = _profile_all(RTX2070, configs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not engines_identical:
        print("FAIL: event engine results differ from reference",
              file=sys.stderr)
        return 1
    if not (cold == warm_disk == warm_mem):
        print("FAIL: cached profiles differ from simulated ones", file=sys.stderr)
        return 1

    ref_s, evt_s = engine_times["reference"], engine_times["event"]
    event_speedup = ref_s / evt_s if evt_s else None
    counters = sim_stats["counters"]
    sim_wall = sim_stats["timers"].get("sim.wall", 0.0)
    payload = {
        "device": RTX2070.name,
        "kernels": [c.name for c in configs],
        "sweep_legs": sweep_legs,
        "reference_engine_seconds": round(ref_s, 4),
        "event_engine_seconds": round(evt_s, 4),
        "event_engine_speedup": round(event_speedup, 2) if event_speedup else None,
        "engines_bit_identical": engines_identical,
        "cold_seconds": round(cold_s, 4),
        "warm_disk_seconds": round(disk_s, 4),
        "warm_memory_seconds": round(mem_s, 4),
        "warm_disk_speedup": round(cold_s / disk_s, 1) if disk_s else None,
        "warm_memory_speedup": round(cold_s / mem_s, 1) if mem_s else None,
        "simulated_cycles": counters.get("sim.cycles", 0),
        "simulated_instructions": counters.get("sim.instructions", 0),
        "simulator_runs": counters.get("sim.runs", 0),
        "simulated_cycles_per_sec": round(
            counters.get("sim.cycles", 0) / sim_wall) if sim_wall else None,
    }

    out = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    if (event_speedup or 0.0) < EVENT_SPEEDUP_TARGET:
        print(f"FAIL: event engine only {event_speedup:.2f}x over reference "
              f"(< {EVENT_SPEEDUP_TARGET}x target)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
