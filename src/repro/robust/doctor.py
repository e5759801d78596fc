"""``repro doctor``: health report and self-test of the robustness stack.

The report covers the four robustness surfaces:

* **guard** -- mode, budget, and the process-wide degradation ladder state
  (:func:`repro.robust.guard.degradation_report`);
* **cache** -- location, layer sizes, quarantine count, configured size
  bound;
* **workers** -- CPU count and the timeout/retry/backoff the supervisor
  will use (a bad ``REPRO_TASK_*``/``REPRO_RETRY_BACKOFF`` value raises);
* **chaos** -- any active ``REPRO_CHAOS`` directives (so a forgotten env
  var cannot masquerade as a real fault).

``run_doctor(selftest=True)`` additionally exercises each pillar once:

* a cache round-trip (put/get under a private ``doctor`` subdir) plus a
  deliberate corruption that must read back as a quarantined miss;
* a supervised :func:`~repro.perf.parallel.parallel_map` across two
  workers;
* a tiny guarded functional launch in ``full`` mode, which must pass its
  reference check with no divergence;
* the host's BLAS summation order: ``np.matmul`` of every registry HMMA
  shape, stacked 1 to 4,096 deep, must add the products in k order, as
  the precision model (and so every functional golden) assumes;
* a service round-trip: an in-process daemon on a temporary socket, the
  same tiny GEMM submitted by two concurrent clients, which must run
  **once** (the twin coalesces or hits the shared cache), return
  bit-identical matrices that match an in-process run, and shut down
  cleanly (socket removed).

Everything returns data; the CLI does the printing.
"""

from __future__ import annotations

import os

from ..perf import cache as cache_mod
from ..perf.parallel import default_workers, parallel_map, supervisor_settings
from ..perf.stats import STATS
from . import chaos, guard

__all__ = ["run_doctor", "format_report"]


def _doctor_square(x):
    """Module-level so the supervised worker self-test can pickle it."""
    return x * x


def _env(name: str, default: str) -> str:
    return os.environ.get(name, "") or default


def _section_guard() -> dict:
    return {
        "mode": guard.guard_mode(),
        "budget": _env("REPRO_GUARD_BUDGET", "0.05 (default)"),
        **guard.degradation_report(),
    }


def _section_cache() -> dict:
    store = cache_mod.PROFILE_CACHE
    max_bytes = cache_mod.cache_max_bytes()
    return {
        "enabled": cache_mod.cache_enabled(),
        "dir": str(cache_mod.cache_dir()),
        "sim_version": cache_mod.SIM_VERSION,
        "disk_entries": store.disk_entries(),
        "disk_bytes": store.disk_bytes(),
        "quarantined": store.quarantined_entries(),
        "max_bytes": max_bytes if max_bytes is not None else "unbounded",
    }


def _section_workers() -> dict:
    settings = supervisor_settings()
    return {
        "cpus": default_workers(),
        "task_timeout_s": settings["timeout"],
        "task_retries": settings["retries"],
        "retry_backoff_s": settings["backoff"],
    }


def _section_chaos() -> dict:
    spec = chaos.directives()
    return {"active": chaos.active(), "directives": spec or "(none)"}


# ------------------------------------------------------------------ selftests

def _selftest_cache() -> str:
    store = cache_mod.ResultCache(subdir="doctor")
    key = cache_mod.content_key(b"doctor-selftest")
    try:
        store.put(key, {"ok": 1})
        store._memory.clear()  # force the disk path
        if store.get(key) != {"ok": 1}:
            return "FAIL: disk round-trip returned a different value"
        # A corrupted entry must quarantine and miss, never surface.
        path = store._path(key)
        if path.is_file():
            with open(path, "r+b") as fh:
                fh.write(b"\x00garbage\x00")
            store._memory.clear()
            if store.get(key) is not None:
                return "FAIL: corrupted entry was served"
            if path.is_file():
                return "FAIL: corrupted entry was not quarantined"
        return "ok"
    except OSError as exc:
        return f"SKIP: cache dir not writable ({exc})"
    finally:
        try:
            store.clear(disk=True)
        except OSError:
            pass


def _selftest_workers() -> str:
    out = parallel_map(_doctor_square, [2, 3], max_workers=2, timeout=60)
    if out != [4, 9]:
        return f"FAIL: supervised map returned {out!r}"
    return "ok"


def _selftest_guard() -> str:
    import numpy as np

    from ..core.hgemm import hgemm, hgemm_reference

    before = STATS.counters.get("guard.divergences", 0)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((64, 16), dtype=np.float32).astype(np.float16)
    b = rng.standard_normal((16, 64), dtype=np.float32).astype(np.float16)
    out = hgemm(a, b, guard="full")
    ref = hgemm_reference(a, b)
    if not np.array_equal(out, ref):
        return "FAIL: guarded hgemm mismatches the NumPy oracle"
    diverged = STATS.counters.get("guard.divergences", 0) - before
    if diverged:
        return f"FAIL: guarded run diverged from the reference engine ({diverged})"
    return "ok"


def _selftest_blas_order() -> str:
    from ..arch.family import GENERATIONS
    from ..hmma.mma import k_order_mismatch

    for shape in sorted({arch.hmma_shape for arch in GENERATIONS.values()}):
        for depth in (1, 64, 4096):
            share = k_order_mismatch(shape, depth)
            if share:
                return (f"FAIL: np.matmul of {depth} stacked {shape} products "
                        f"adds out of k order in {share:.1%} of outputs; "
                        "functional results will not match the goldens "
                        "(try another BLAS build)")
    return "ok"


def _selftest_serve() -> str:
    import tempfile
    import threading

    import numpy as np

    from ..core.hgemm import hgemm
    from ..serve import ServeClient, ServeDaemon
    from ..serve.protocol import decode_payload

    payload = {"m": 64, "n": 64, "k": 16, "kernel": "ours", "seed": 11,
               "return_c": True}
    with tempfile.TemporaryDirectory(prefix="repro-doctor-serve") as tmp:
        sock = os.path.join(tmp, "doctor.sock")
        daemon = ServeDaemon(sock, workers=1)
        daemon.start()
        try:
            # Park the single worker on a noop so both GEMM submissions
            # provably arrive while the key is queued -- the coalescing
            # check is then deterministic, not a race we usually win.
            with ServeClient(sock, tenant="doctor-hold") as holder:
                holder.submit("noop", {"sleep_s": 0.75})
            views, errors = [None, None], []

            def submit(slot):
                try:
                    with ServeClient(sock, tenant=f"doctor-{slot}") as c:
                        views[slot] = c.run("hgemm", payload)
                except Exception as exc:  # noqa: BLE001 - report, not raise
                    errors.append(f"{type(exc).__name__}: {exc}")

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            if errors:
                return f"FAIL: client error ({errors[0]})"
            if any(v is None for v in views):
                return "FAIL: a client never got its result"
            stats = daemon._stats()
            if stats["executed"] != 2:  # the noop holder + ONE simulation
                return (f"FAIL: {stats['executed'] - 1} simulations ran for "
                        "2 identical submissions")
            if stats["coalesced"] != 1:
                return (f"FAIL: twin did not coalesce "
                        f"(coalesced={stats['coalesced']})")
            c0, c1 = (decode_payload(v["result"]["c"]) for v in views)
            if not np.array_equal(c0, c1):
                return "FAIL: coalesced twins returned different matrices"
            rng = np.random.default_rng(payload["seed"])
            a = rng.uniform(-1, 1, (64, 16)).astype(np.float16)
            b = rng.uniform(-1, 1, (16, 64)).astype(np.float16)
            if not np.array_equal(c0, hgemm(a, b, kernel="ours")):
                return "FAIL: served result differs from an in-process run"
        finally:
            daemon.stop()
        if os.path.exists(sock):
            return "FAIL: daemon left its socket behind"
    return "ok"


def run_doctor(selftest: bool = True):
    """Collect the health report; returns ``(report_dict, all_ok)``."""
    report = {
        "guard": _section_guard(),
        "cache": _section_cache(),
        "workers": _section_workers(),
        "chaos": _section_chaos(),
    }
    ok = True
    if selftest:
        results = {
            "cache_roundtrip": _selftest_cache(),
            "supervised_map": _selftest_workers(),
            "guarded_run": _selftest_guard(),
            "blas_k_order": _selftest_blas_order(),
            "serve_coalesce": _selftest_serve(),
        }
        ok = not any(v.startswith("FAIL") for v in results.values())
        report["selftest"] = results
    return report, ok


def format_report(report: dict) -> str:
    """Render the report as aligned ``section.key  value`` lines."""
    lines = []
    for section, entries in report.items():
        for key, value in entries.items():
            lines.append(f"{section + '.' + key:<28s} {value}")
    return "\n".join(lines)
