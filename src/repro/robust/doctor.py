"""``repro doctor``: health report and self-test of the simulation stack.

The report covers:

* **knobs** -- every ``REPRO_*`` knob of :data:`repro.knobs.KNOBS` with
  the value this process reads (so a forgotten engine or cache setting
  cannot masquerade as a real fault).  A malformed knob is reported with
  its error, the rest of the report is skipped, and the doctor fails.
  A set ``REPRO_*`` variable that names no knob (a removed or misspelt
  one) is reported as ignored, without failing the doctor;
* **cache** -- version, layer sizes and quarantine count;
* **workers** -- the CPU count.

``run_doctor(selftest=True)`` additionally exercises each piece once:

* a cache round-trip (put/get under a private ``doctor`` subdir) plus a
  deliberate corruption that must read back as a quarantined miss;
* a :func:`~repro.perf.parallel.parallel_map` across two workers (at most
  one per CPU);
* one small GEMM launch on both functional engines and one on both
  timing engines: each pair must leave equal memory images and equal
  results, and the functional launch must match the NumPy oracle;
* the host's BLAS summation order: ``np.matmul`` of every registry HMMA
  shape, stacked 1 to 4,096 deep, must add the products in k order, as
  the precision model (and so every functional golden) assumes;
* a service round-trip: an in-process daemon on a temporary socket, the
  same ``noop`` submitted by two concurrent clients, which must run
  **once** (the twin coalesces, and exactly one job view says so), a
  tiny GEMM whose served ``c_sha256`` must match an in-process run's
  (whether the daemon ran it or its cache answered), and a clean
  shutdown (socket removed).

Everything returns data; the CLI does the printing.
"""

from __future__ import annotations

import os

from .. import knobs
from ..perf import cache as cache_mod
from ..perf.parallel import default_workers, parallel_map

__all__ = ["run_doctor", "format_report"]


def _doctor_square(x):
    """Module-level so the worker self-test can pickle it."""
    return x * x


def _section_knobs():
    """``(entries, ok)``: each knob's value, or its error when malformed,
    then each set variable that names no knob."""
    entries, ok, given = {}, True, knobs.environment()
    for name in knobs.KNOBS:
        try:
            value = knobs.read(name)
        except knobs.KnobError as exc:
            entries[name], ok = f"ERROR: {exc}", False
            continue
        entries[name] = str(value) + ("" if name in given else " (default)")
    for name in sorted(set(given) - set(knobs.KNOBS)):
        entries[name] = "ignored: not a knob; unset it"
    return entries, ok


def _section_cache() -> dict:
    store = cache_mod.PROFILE_CACHE
    return {
        "sim_version": cache_mod.SIM_VERSION,
        "disk_entries": store.disk_entries(),
        "disk_bytes": store.disk_bytes(),
        "quarantined": store.quarantined_entries(),
    }


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
    out = parallel_map(_doctor_square, [2, 3], max_workers=2)
    if out != [4, 9]:
        return f"FAIL: parallel map returned {out!r}"
    return "ok"


def _selftest_engines() -> str:
    import numpy as np

    from ..arch.turing import RTX2070
    from ..core.builder import HgemmProblem, build_hgemm
    from ..core.hgemm import hgemm_reference, resolve_config
    from ..sim import functional, timing
    from ..sim.gpu import Device
    from ..sim.memory import GlobalMemory

    rng = np.random.default_rng(7)
    a = rng.standard_normal((64, 16), dtype=np.float32).astype(np.float16)
    b = rng.standard_normal((16, 64), dtype=np.float32).astype(np.float16)
    dev = Device(memory_bytes=1 << 20)
    problem = HgemmProblem(64, 64, 16, dev.malloc_array(a),
                           dev.malloc_array(np.ascontiguousarray(b.T)),
                           dev.malloc(64 * 64 * 2))
    config = resolve_config("ours", 64, 64, 16)
    program = build_hgemm(config, problem)

    def launches(simulator, engines, **launch):
        """``(result, memory)`` of the launch on each engine, each from a
        copy of the device's memory."""
        out = []
        for engine in engines:
            memory = GlobalMemory(dev.memory.size)
            np.copyto(memory._words, dev.memory._words)
            out.append((simulator(engine).run(program, memory, **launch),
                        memory))
        return out

    runs = {
        "functional": launches(
            lambda engine: functional.FunctionalSimulator(engine=engine),
            functional.ENGINES, grid_dim=config.grid_dim(64, 64)),
        "timing": launches(
            lambda engine: timing.TimingSimulator(RTX2070, engine=engine),
            timing.ENGINES, num_ctas=1),
    }
    for name, ((fast, fast_mem), (ref, ref_mem)) in runs.items():
        if fast != ref or not np.array_equal(fast_mem._words, ref_mem._words):
            return (f"FAIL: the fast and reference {name} engines disagree "
                    "on a small hgemm launch")
    out = runs["functional"][0][1].read_array(problem.c_addr, np.float16,
                                             64 * 64)
    if not np.array_equal(out.reshape(64, 64), hgemm_reference(a, b)):
        return "FAIL: the functional hgemm launch mismatches the NumPy oracle"
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

    gemm = {"m": 64, "n": 64, "k": 16, "kernel": "ours", "seed": 11}
    with tempfile.TemporaryDirectory(prefix="repro-doctor-serve") as tmp:
        sock = os.path.join(tmp, "doctor.sock")
        daemon = ServeDaemon(sock)
        daemon.start()
        try:
            # Park the executor on a noop so both twins provably
            # arrive while their key is queued -- the coalescing check is
            # then deterministic, not a race we usually win.  noop is never
            # cached, so a rerun against the same cache dir coalesces too.
            with ServeClient(sock, tenant="doctor-hold") as holder:
                holder.submit("noop", {"sleep_s": 0.75})
            views, errors = [None, None], []

            def submit(slot):
                try:
                    with ServeClient(sock, tenant=f"doctor-{slot}") as c:
                        views[slot] = c.run("noop", {"value": "doctor"})
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
            if stats["executed"] != 2:  # the noop holder + ONE twin
                return (f"FAIL: {stats['executed'] - 1} executions ran for "
                        "2 identical submissions")
            if stats["coalesced"] != 1:
                return (f"FAIL: twin did not coalesce "
                        f"(coalesced={stats['coalesced']})")
            if sum(bool(v.get("coalesced")) for v in views) != 1:
                return "FAIL: the twin's job view does not read coalesced"
            with ServeClient(sock, tenant="doctor-gemm") as client:
                served = client.run("hgemm", gemm)["result"]
            rng = np.random.default_rng(gemm["seed"])
            a = rng.uniform(-1, 1, (64, 16)).astype(np.float16)
            b = rng.uniform(-1, 1, (16, 64)).astype(np.float16)
            local = cache_mod.content_key(hgemm(a, b, kernel="ours").tobytes())
            if not served["exact"] or served["c_sha256"] != local:
                return "FAIL: served result differs from an in-process run"
        finally:
            daemon.stop()
        if os.path.exists(sock):
            return "FAIL: daemon left its socket behind"
    return "ok"


def run_doctor(selftest: bool = True):
    """Collect the health report; returns ``(report_dict, all_ok)``."""
    entries, ok = _section_knobs()
    report = {"knobs": entries}
    if not ok:
        return report, False
    report.update(cache=_section_cache(), workers={"cpus": default_workers()})
    if selftest:
        results = {
            "cache_roundtrip": _selftest_cache(),
            "parallel_map": _selftest_workers(),
            "engines_agree": _selftest_engines(),
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
            lines.append(f"{section + '.' + key:<30s} {value}")
    return "\n".join(lines)
