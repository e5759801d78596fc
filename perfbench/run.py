"""Benchmark of the simulator as its users run it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gemm_verify --seed 1 --seconds 35 --trace 0

Workloads: ``gemm_verify``, ``paper_cold``, ``remote_layers`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The lines before it restate every metric with
its unit and sample count.  The exit code is 0 only when every operation
was correct.

The benchmark measures the shipped defaults: every ``REPRO_*`` variable
is removed from the environment, except a scratch ``REPRO_CACHE_DIR``
under ``.perfbench_work/`` that is deleted at exit.  BLAS runs on one
thread, so that CPU time is the simulator's work and not a BLAS pool
spin-waiting beside it.

Times are CPU seconds: on a shared virtual machine, wall time also
counts time the hypervisor gives to other guests (the report prints the
host's steal share and the wall-time figures beside the metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Interpreter starts measured for ``setup_s`` (the median is reported).
IMPORT_SAMPLES = 7


class Context:
    """Arguments and scratch locations shared by the workloads."""

    def __init__(self, args, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = str(ROOT)
        self.work = work
        self.env = dict(os.environ)


def scrubbed_environment(cache_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = cache_dir
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_cpu_s(env):
    """CPU seconds of ``import repro`` in a fresh interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import repro"], env=env,
                   cwd=ROOT, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((after.ru_utime - before.ru_utime)
            + (after.ru_stime - before.ru_stime))


def host_ticks():
    """(steal, total) CPU ticks of the host since boot (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def source_digest():
    """Digest of the simulator and benchmark sources (keys the count log)."""
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py"))
                       + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload, seed, round_counts):
    """Exact per-round counts must agree across rounds and across runs.

    The first run of a (workload, seed, sources) triple records its counts
    under ``.perfbench_work/counts``; later runs must reproduce them.
    Returns a list of drift messages.
    """
    drift = [f"round {i} counts {counts} differ from round 0 "
             f"{round_counts[0]}"
             for i, counts in enumerate(round_counts)
             if counts != round_counts[0]]
    if not round_counts:
        return drift
    log = WORK / "counts" / f"{workload}-{seed}-{source_digest()}.json"
    if log.is_file():
        recorded = json.loads(log.read_text(encoding="utf-8"))
        if recorded != round_counts[0]:
            drift.append(f"counts {round_counts[0]} differ from an earlier "
                         f"run with seed {seed}: {recorded}")
    else:
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text(json.dumps(round_counts[0], sort_keys=True),
                       encoding="utf-8")
    return drift


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, steal_share):
    from measure import highest_percentile, median, percentile, piece_costs

    wall = run.op_wall_ms
    rounds = run.rounds["plain"]
    if run.op_cells:
        # In-process operations run one at a time: each is costed at its
        # cell's cost scaled to the reference speed, simulator call by
        # simulator call, and every round runs the same cells.
        cpu = piece_costs(run.op_cells, run.op_cpu_ms, run.op_probe_ms,
                          run.op_parts_ms)
        round_cpu = sum(cpu) / 1e3 / len(rounds)
        pieces = len(set(run.op_cells)) + sum(
            len(parts) for parts in dict(zip(run.op_cells,
                                             run.op_parts_ms)).values())
        costed = (f"{len(set(run.op_cells))} cells in {pieces} pieces, "
                  "scaled to the reference probe")
    else:
        # Concurrent requests: what overlaps a request is part of the
        # workload, so costs are as measured.
        cpu = run.op_cpu_ms
        round_cpu = median(c for _, c in rounds)
        costed = "as measured"
    n = len(cpu)
    setup_s = sum(median(v) for v in run.setup_samples.values())
    lines = [
        f"setup_s        {setup_s:.4f} s CPU  (medians of "
        + ", ".join(f"{len(v)} {k}" for k, v in run.setup_samples.items())
        + " samples)",
        f"round_cpu_s    {round_cpu:.4f} s  ({costed}; {len(rounds)} rounds, "
        "measured CPU " + " ".join(f"{c:.3f}" for _, c in rounds)
        + f"; median wall {median(w for w, _ in rounds):.4f} s)",
        f"op_cpu_p50_ms  {percentile(cpu, 50):.3f} ms  (n={n}; as measured "
        f"{percentile(run.op_cpu_ms, 50):.3f} ms; wall "
        f"{percentile(wall, 50):.3f} ms)",
        f"op_cpu_p90_ms  {percentile(cpu, 90):.3f} ms  (n={n}; as measured "
        f"{percentile(run.op_cpu_ms, 90):.3f} ms; wall "
        f"{percentile(wall, 90):.3f} ms; highest percentile with >=10 "
        f"samples beyond it: p{highest_percentile(n)})",
        f"peak_rss_mb    {run.peak_rss_mb:.1f} MiB",
        f"failed_frac    {run.failed / max(1, run.attempted):.4f}  "
        f"({run.failed} of {run.attempted} ops)",
        f"host steal     {100 * steal_share:.1f}% of host CPU time during "
        "the run",
    ]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "round_cpu_s": metric(round_cpu, "s"),
        "op_cpu_p50_ms": metric(percentile(cpu, 50), "ms"),
        "op_cpu_p90_ms": metric(percentile(cpu, 90), "ms"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MiB"),
    }
    return metrics, lines


def per_layer(run):
    """Per-traced-round layer figures, and the exact counts of a round."""
    from measure import median

    t = run.layers or {}
    rounds = max(1, run.traced_rounds)
    self_s = t.get("self_s", {})
    calls = t.get("calls", {})
    counts = run.round_counts[-1] if run.round_counts else {}

    def per_round(value):
        return value / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    func_s = per_round(self_s.get("func", 0.0))
    timing_s = per_round(self_s.get("timing", 0.0))
    insts = counts.get("func.instructions", 0)
    cycles = counts.get("sim.cycles", 0)
    lookups = calls.get("ResultCache.get", 0)
    serve = t.get("serve", {})
    plain = [c for _, c in run.rounds["plain"]]
    traced = [c for _, c in run.rounds["traced"]]
    values = {
        "core.build_s": (per_round(self_s.get("core", 0.0)), "s"),
        "core.builds": (per_round(calls.get("build_hgemm", 0)), "count"),
        "decode.predecode_s": (per_round(self_s.get("decode", 0.0)), "s"),
        "decode.calls": (per_round(calls.get("predecode", 0)), "count"),
        "func.run_s": (func_s, "s"),
        "func.insts": (insts, "count"),
        "func.insts_per_s": (ratio(insts, func_s), "1/s"),
        "func.destacks_per_launch": (ratio(
            counts.get("func.destacks", 0) + counts.get("func.grid_destacks", 0),
            counts.get("func.runs", 0)), "count"),
        "verify.oracle_s": (per_round(self_s.get("verify", 0.0)), "s"),
        "verify.checks": (per_round(calls.get("array_equal", 0)), "count"),
        "timing.run_s": (timing_s, "s"),
        "timing.runs": (counts.get("sim.runs", 0), "count"),
        "timing.cycles": (cycles, "cycles"),
        "timing.cycles_per_s": (ratio(cycles, timing_s), "1/s"),
        "timing.ff_cycle_share": (ratio(counts.get("sim.ff_cycles", 0),
                                        cycles), "ratio"),
        "timing.plan_inst_share": (ratio(counts.get("sim.plan_insts", 0),
                                         counts.get("sim.instructions", 0)),
                                   "ratio"),
        "analysis.self_s": (per_round(self_s.get("analysis", 0.0)), "s"),
        "cache.lookup_s": (per_round(self_s.get("cache.lookup", 0.0)), "s"),
        "cache.store_s": (per_round(self_s.get("cache.store", 0.0)), "s"),
        "cache.hit_ratio": (ratio(t.get("hits", {}).get("ResultCache.get", 0),
                                  lookups), "ratio"),
        "cache.stores": (per_round(calls.get("ResultCache.put", 0)), "count"),
        "workloads.self_s": (per_round(self_s.get("workloads", 0.0)), "s"),
        "serve.hit_ms_p50": (serve.get("hit_ms_p50", 0.0), "ms"),
        "serve.overhead_s": (per_round(self_s.get("serve", 0.0)), "s"),
        "serve.coalesced_share": (serve.get("coalesced_share", 0.0), "ratio"),
        "serve.cache_hit_share": (serve.get("cache_hit_share", 0.0), "ratio"),
        "serve.executed": (counts.get("jobs", 0), "count"),
        "unattributed_s": (per_round(t.get("unattributed_s", 0.0)), "s"),
        "trace_overhead_frac": (median(traced) / median(plain) - 1.0
                                if plain and traced else 0.0, "ratio"),
    }
    layer_sum = sum(self_s.values())
    lines = [f"{name:<26s} {value:.6g} {unit}"
             for name, (value, unit) in values.items()]
    lines.append(f"(CPU per traced round; {run.traced_rounds} traced and "
                 f"{len(plain)} plain rounds after "
                 f"{len(run.rounds['warmup'])} warm-up, median CPU "
                 f"{median(traced) if traced else 0:.3f} s and "
                 f"{median(plain) if plain else 0:.3f} s; CPU in spans "
                 f"{per_round(t.get('root_s', 0.0)):.4f} s = layer self "
                 f"{per_round(layer_sum):.4f} s + unattributed "
                 f"{per_round(t.get('unattributed_s', 0.0)):.4f} s)")
    metrics = {name: metric(value, unit)
               for name, (value, unit) in values.items()}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        env = scrubbed_environment(os.path.join(work, "cache"))
        os.environ.clear()
        os.environ.update(env)
        sys.path.insert(0, str(ROOT / "src"))
        # Build step: compile the sources once so no sample pays for it.
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=env,
                       cwd=ROOT, check=True)

        from workloads import WORKLOADS, Run

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; known: "
                  f"{sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        ctx = Context(args, work)
        run = Run()
        if not ctx.trace:
            run.setup_samples["import_s"] = [import_cpu_s(env)
                                             for _ in range(IMPORT_SAMPLES)]
        steal, total = host_ticks()
        WORKLOADS[args.workload](ctx, run)
        steal_after, total_after = host_ticks()
        steal_share = (steal_after - steal) / max(1, total_after - total)
        drift = check_counts(args.workload, args.seed, run.round_counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in drift:
        run.fail(f"exact-count drift: {message}")
    metrics, lines = (per_layer(run) if ctx.trace
                      else end_to_end(run, steal_share))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if ctx.trace else 'measured'} run")
    for line in run.notes + lines:
        print(line)
    counts = run.round_counts[0] if run.round_counts else {}
    print(f"exact counts per round: {json.dumps(counts, sort_keys=True)}")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
