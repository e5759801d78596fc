"""Service-coalescing benchmark: N duplicate sweeps, one simulation.

The scenario the serve daemon exists for: ``CLIENTS`` tenants ask for the
same figure sweep at the same time.  Without the service each pays the
full simulation cost; with it, the first submission executes and the
other ``CLIENTS - 1`` coalesce onto its in-flight future.

Two measured legs, written to ``BENCH_servespeed.json`` in the repo root:

**Uncoalesced leg** -- ``CLIENTS`` sequential in-process sweep runs with
caching disabled (``REPRO_NO_CACHE=1``) and a fresh model per run: what
``CLIENTS`` independent cold processes would cost in total.

**Serve leg** -- one in-process :class:`repro.serve.ServeDaemon` on a
scratch socket, ``CLIENTS`` concurrent client threads each submitting
the identical sweep job and waiting.  Gates:

* ``serve.coalesced`` >= ``CLIENTS - 1`` (every twin attached to the one
  in-flight execution -- none re-simulated, none raced past it);
* exactly one job executed;
* all ``CLIENTS`` results bit-identical to each other **and** to the
  in-process reference run (coalescing must be invisible in the data);
* wall-clock speedup >= ``SERVE_SPEEDUP_TARGET``.

Runs against a throwaway cache directory, never the user's real one.

Usage::

    PYTHONPATH=src python benchmarks/bench_servespeed.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

#: Concurrent duplicate tenants on the serve leg (and sequential cold
#: runs on the uncoalesced leg).
CLIENTS = 8

#: Required wall-clock speedup of the serve leg over the uncoalesced one.
#: Perfect coalescing approaches CLIENTSx; 3x leaves room for protocol
#: and scheduling overhead on a loaded box.
SERVE_SPEEDUP_TARGET = 3.0

#: Square sizes of the duplicated sweep -- small, the cost is dominated
#: by the SM profile simulation every cold run must repeat.
SWEEP_SIZES = [2048, 4096]


def _sweep_payload(spec):
    from repro.core import ours
    from repro.serve.jobs import config_to_dict, spec_to_dict

    return {"spec": spec_to_dict(spec), "config": config_to_dict(ours()),
            "sizes": list(SWEEP_SIZES)}


def _inprocess_sweep(spec):
    """One cold in-process run; returns its result in serve-job form."""
    from dataclasses import asdict

    from repro.analysis import PerformanceModel
    from repro.core import ours

    pm = PerformanceModel(spec)
    estimates = pm.sweep(ours(), SWEEP_SIZES)
    # JSON round-trip so tuples/lists compare equal to daemon results.
    return json.loads(json.dumps(
        {"estimates": [asdict(e) for e in estimates]}))


def _uncoalesced_leg(spec):
    """CLIENTS sequential cold runs: total seconds + the last result."""
    start = time.perf_counter()
    result = None
    for _ in range(CLIENTS):
        result = _inprocess_sweep(spec)
    return time.perf_counter() - start, result


def _serve_leg(spec, socket_path):
    """CLIENTS concurrent duplicate submissions against one daemon."""
    from repro.serve import ServeClient, ServeDaemon

    payload = _sweep_payload(spec)
    daemon = ServeDaemon(socket_path)
    daemon.start()
    try:
        views = [None] * CLIENTS
        errors = []

        def submit(slot):
            try:
                with ServeClient(socket_path, tenant=f"bench-{slot}") as c:
                    views[slot] = c.run("sweep", payload)
            except Exception as exc:  # noqa: BLE001 - report, not hang
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        wall = time.perf_counter() - start
        stats = daemon._stats()
    finally:
        daemon.stop()
    if errors:
        raise RuntimeError(f"serve leg client failure: {errors[0]}")
    if any(v is None for v in views):
        raise RuntimeError("serve leg: a client never finished")
    return wall, views, stats


def main() -> int:
    scratch = tempfile.mkdtemp(prefix="repro-bench-serve")
    saved = {k: os.environ.get(k) for k in ("REPRO_CACHE_DIR",
                                            "REPRO_NO_CACHE")}
    os.environ["REPRO_CACHE_DIR"] = scratch
    try:
        from repro.arch import RTX2070

        # Uncoalesced leg first, fully cache-disabled: every run pays the
        # whole simulation, exactly like CLIENTS unrelated cold processes.
        os.environ["REPRO_NO_CACHE"] = "1"
        print(f"uncoalesced leg: {CLIENTS} sequential cold sweeps...",
              file=sys.stderr)
        uncoalesced_s, reference = _uncoalesced_leg(RTX2070)

        # Serve leg with caches enabled (still the empty scratch dir, so
        # the daemon's one execution is as cold as each run above).
        del os.environ["REPRO_NO_CACHE"]
        print(f"serve leg: {CLIENTS} concurrent duplicate submissions...",
              file=sys.stderr)
        serve_s, views, stats = _serve_leg(
            RTX2070, os.path.join(scratch, "bench.sock"))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch, ignore_errors=True)

    identical = all(v["result"] == reference for v in views)
    speedup = uncoalesced_s / serve_s if serve_s else None
    payload = {
        "clients": CLIENTS,
        "sweep_sizes": SWEEP_SIZES,
        "uncoalesced_seconds": round(uncoalesced_s, 4),
        "serve_seconds": round(serve_s, 4),
        "serve_speedup": round(speedup, 2) if speedup else None,
        "serve_speedup_target": SERVE_SPEEDUP_TARGET,
        "executed": stats["executed"],
        "coalesced": stats["coalesced"],
        "cache_hits": stats["cache_hits"],
        "failed": stats["failed"],
        "results_identical": identical,
    }

    out = Path(__file__).resolve().parent.parent / "BENCH_servespeed.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    if not identical:
        print("FAIL: served results differ from the in-process reference",
              file=sys.stderr)
        return 1
    if stats["executed"] != 1:
        print(f"FAIL: {stats['executed']} executions for {CLIENTS} "
              "identical submissions (expected 1)", file=sys.stderr)
        return 1
    if stats["coalesced"] < CLIENTS - 1:
        print(f"FAIL: only {stats['coalesced']} of {CLIENTS - 1} twins "
              "coalesced", file=sys.stderr)
        return 1
    if (speedup or 0.0) < SERVE_SPEEDUP_TARGET:
        print(f"FAIL: serve leg only {speedup:.2f}x over uncoalesced "
              f"(< {SERVE_SPEEDUP_TARGET}x target)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
