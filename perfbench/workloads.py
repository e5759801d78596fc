"""The three benchmark workloads: gemm_verify, paper_cold, remote_layers.

Each workload runs *rounds*.  A round is a fixed list of user operations
whose order and operand data come from ``(seed, workload, round)``; the
multiset of operations is the same in every round and for every seed, so
host cost and the exact simulator counts do not depend on the seed.
Rounds repeat until the time budget is spent (a round starts only if a
median round still fits) and, in a measured run, until at least
``MIN_OPS`` operations were timed, so ``op_cpu_p90_ms`` has ten samples
beyond it.

Costs are measured in CPU time: ``time.thread_time`` per operation, and
for remote_layers the client's CPU plus the daemon's job CPU per request
and both processes' CPU per round.  On a shared virtual machine wall time
also counts the time the hypervisor gives to other guests.  Wall times
are recorded beside them for the report.  The in-process workloads also
record each operation's cell and a probe of the host's state
(``measure.piece_costs``).

A traced run starts with a warm-up round (lazy imports, first-call
caches), then alternates plain rounds and traced rounds with the layer
wrappers installed; remote_layers, whose daemon is traced for its whole
life, spends half the budget on a plain daemon and half on a traced one,
and the first round on each daemon is its warm-up.  Plain and traced
round CPU, warm-up rounds left out, give ``trace_overhead_frac``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import astuple, dataclass, field

import numpy as np

import repro.analysis as analysis
import repro.arch as arch
import repro.core as core
import repro.serve as serve
from repro.cli import main as cli_main
from repro.perf import PROFILE_CACHE, STATS
from repro.serve.jobs import run_job

from measure import (JOB_CPU_TIMER, PART_TARGETS, PartTimer, Tracer,
                     install, median, time_probe)

#: Operations a measured run times at least (p90 needs 10 beyond it).
MIN_OPS = 100


def stream_rng(seed, workload, round_no):
    """The generator of one round's stream: equal arguments, equal stream."""
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng([int(seed), tag, int(round_no)])


def peak_rss_mb():
    """High-water resident memory of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid):
    """CPU seconds another process has used, exited threads included.

    From ``/proc/<pid>/stat`` (utime + stime, in clock ticks).
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class Run:
    """What one benchmark process measured and checked."""

    #: phase -> [(wall seconds, CPU seconds)] per round.
    rounds: dict = field(default_factory=lambda: {
        "warmup": [], "plain": [], "traced": []})
    op_cpu_ms: list = field(default_factory=list)
    op_wall_ms: list = field(default_factory=list)
    #: What each timed in-process operation was, without its operand
    #: data: the repetitions of one cell do the same work.  Empty for
    #: remote_layers, whose requests overlap by design.
    op_cells: list = field(default_factory=list)
    #: The probe taken just before each timed in-process operation, and
    #: its simulator calls as (ms, probe ms before it), in call order
    #: (``measure.piece_costs``).
    op_probe_ms: list = field(default_factory=list)
    op_parts_ms: list = field(default_factory=list)
    #: Records the simulator calls while a measured run is in process.
    part_timer: PartTimer = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Exact simulator/service counts of every round, in round order.
    round_counts: list = field(default_factory=list)
    setup_samples: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Traced-phase tracer totals (``Tracer.snapshot`` shape) or None.
    layers: dict = None
    traced_rounds: int = 0
    notes: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def phases(seconds, traced):
    """(phase, budget seconds, minimum ops, minimum rounds) of a run.

    A traced phase runs a warm-up round and at least one more.
    """
    if traced:
        return [("plain", seconds / 2.0, 0, 2), ("traced", seconds / 2.0, 0, 2)]
    return [("plain", float(seconds), MIN_OPS, 1)]


def drive(budget, min_ops, ops_per_round, run_round, first_round=0,
          min_rounds=1):
    """Run rounds from *first_round* until the wall budget is spent.

    *run_round* returns (wall, cpu).  Returns (rounds, next round
    number).  At least *min_rounds* rounds run.
    """
    rounds, round_no = [], first_round
    start = time.perf_counter()
    while True:
        rounds.append(run_round(round_no))
        round_no += 1
        elapsed = time.perf_counter() - start
        if (len(rounds) >= min_rounds
                and len(rounds) * ops_per_round >= min_ops
                and elapsed + median(w for w, _ in rounds) > budget):
            return rounds, round_no


def stats_delta(before, names):
    """Exact counter deltas since *before* for *names* (absent -> 0)."""
    gained = STATS.delta(before)["counters"]
    return {name: gained.get(name, 0) for name in names}


def run_inprocess(ctx, run, ops_per_round, one_round):
    """The rounds of a workload that runs in this process.

    ``one_round(round_no, tracer)`` runs one round and returns its (wall,
    cpu).  The garbage of the previous round is collected first, untimed.
    A traced run starts with a warm-up round, then alternates traced and
    plain rounds, so slow drift of the host does not land on one side of
    ``trace_overhead_frac``.
    """
    tracer = Tracer() if ctx.trace else None

    def run_round(round_no):
        gc.collect()
        if tracer is None or round_no % 2 == 0:
            result = one_round(round_no, None)
            phase = "warmup" if tracer is not None and round_no == 0 else "plain"
            run.rounds[phase].append(result)
            return result
        uninstall = install(tracer)
        try:
            result = one_round(round_no, tracer)
        finally:
            uninstall()
        run.rounds["traced"].append(result)
        return result

    if tracer is None:
        run.part_timer = PartTimer()
        uninstall = install(run.part_timer, PART_TARGETS)
        try:
            drive(ctx.seconds, MIN_OPS, ops_per_round, run_round)
        finally:
            uninstall()
    else:
        drive(ctx.seconds, 0, ops_per_round, run_round, min_rounds=3)
        run.layers = tracer.snapshot()
        run.traced_rounds = len(run.rounds["traced"])
    run.peak_rss_mb = peak_rss_mb()


def time_op(run, tracer, label, cell, fn, *args):
    """Run one operation; returns (value, wall seconds, CPU seconds).

    The value is None after a failure, which is recorded.
    """
    run.attempted += 1
    value = None
    probe = 0.0
    if run.part_timer is not None:
        run.part_timer.take()
        probe = time_probe()
    wall, cpu = time.perf_counter(), time.thread_time()
    try:
        value = tracer.root(fn, *args) if tracer is not None else fn(*args)
    except Exception as exc:  # noqa: BLE001 - an op failure is data
        run.fail(f"{label}: {type(exc).__name__}: {exc}")
    cpu = time.thread_time() - cpu
    wall = time.perf_counter() - wall
    parts = run.part_timer.take() if run.part_timer is not None else []
    # The probes before the simulator calls are not the operation's work.
    cpu -= sum(part_probe for _, part_probe in parts)
    if tracer is None:
        run.op_cpu_ms.append(cpu * 1e3)
        run.op_wall_ms.append(wall * 1e3)
        run.op_cells.append(cell)
        run.op_probe_ms.append(probe * 1e3)
        run.op_parts_ms.append([(part * 1e3, part_probe * 1e3)
                                for part, part_probe in parts])
    return value, wall, cpu


# ------------------------------------------------------------ gemm_verify

GEMM_DEVICES = ("RTX2070", "V100", "A100")
GEMM_KERNELS = ("ours", "cublas")
GEMM_SHAPES = ((256, 256, 64), (512, 512, 64), (1024, 512, 64),
               (1024, 1024, 64))
IGEMM_DEVICES = ("RTX2070", "A100")   # the generations with IMMA
IGEMM_SHAPES = ((256, 256, 64), (512, 512, 64), (1024, 512, 64))

GEMM_CELLS = tuple(
    [("hgemm", d, kern, s) for d in GEMM_DEVICES for kern in GEMM_KERNELS
     for s in GEMM_SHAPES]
    + [("igemm", d, None, s) for d in IGEMM_DEVICES for s in IGEMM_SHAPES])

#: Functional-simulator counters that must repeat exactly per round.
FUNC_COUNTS = ("func.runs", "func.ctas", "func.instructions",
               "func.destacks", "func.grid_destacks")


def gemm_round_ops(seed, round_no):
    """[(cell, operand seed)] of one gemm_verify round."""
    rng = stream_rng(seed, "gemm_verify", round_no)
    order = rng.permutation(len(GEMM_CELLS))
    data = rng.integers(0, 2 ** 31, len(GEMM_CELLS))
    return [(GEMM_CELLS[i], int(d)) for i, d in zip(order, data)]


def gemm_op(cell, data_seed):
    """One launch plus its oracle check, as ``repro hgemm``/``igemm`` do."""
    kind, device, kernel, (m, n, k) = cell
    spec = arch.get_device(device)
    rng = np.random.default_rng(data_seed)
    if kind == "hgemm":
        a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
        b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
        run = core.hgemm(a, b, kernel=kernel, spec=spec, return_run=True)
        reference = core.hgemm_reference(a, b, w_k=run.config.w_k)
    else:
        a = rng.integers(-128, 128, (m, k), dtype=np.int8)
        b = rng.integers(-128, 128, (k, n), dtype=np.int8)
        run = core.igemm(a, b, return_run=True, spec=spec)
        reference = core.igemm_reference(a, b)
    return bool(np.array_equal(run.c, reference))


def run_gemm_verify(ctx, run):
    def one_round(round_no, tracer):
        before = STATS.snapshot()
        wall = cpu = 0.0
        for cell, data_seed in gemm_round_ops(ctx.seed, round_no):
            label = f"{cell[0]} {cell[1]} {cell[2] or ''} {cell[3]}"
            exact, op_wall, op_cpu = time_op(run, tracer, label, cell,
                                             gemm_op, cell, data_seed)
            wall, cpu = wall + op_wall, cpu + op_cpu
            if exact is False:
                run.fail(f"{label}: result differs from the oracle")
        run.round_counts.append(stats_delta(before, FUNC_COUNTS))
        return wall, cpu

    run_inprocess(ctx, run, len(GEMM_CELLS), one_round)


# ------------------------------------------------------------- paper_cold

SWEEP_SIZES = tuple(range(1024, 16385, 128))
#: The operations a paper_cold round repeats warm after their cold run.
CACHED_OPS = (
    {"op": "sweep", "device": "RTX2070"},
    {"op": "sweep", "device": "T4"},
    {"op": "estimate", "device": "T4", "suite": "bert"},
)
#: The cold pass, in one order: which simulations are alive together
#: sets the peak memory.
COLD_PASS = CACHED_OPS + ({"op": "tables"},)
#: Warm runs of each cached op in each warm chunk.
DISK_REPEATS = 3
MEMORY_REPEATS = 3

#: Exact timing-simulator and cache counters per round.
PAPER_COUNTS = ("sim.runs", "sim.cycles", "sim.instructions", "sim.plans",
                "sim.plan_insts", "sim.ff_periods", "sim.ff_cycles",
                "cache.mem_hits", "cache.disk_hits", "cache.misses",
                "cache.stores")

#: Paper values the model is compared against, and whether the
#: ``PerfOptions``/``GpuSpec`` defaults were calibrated on them.
PAPER_POINTS = (
    ("Fig. 6 RTX 2070 ours max TFLOPS", 60.37, "held out"),
    ("Fig. 6 RTX 2070 cuBLAS max TFLOPS", 52.75, "held out"),
    ("Fig. 6 RTX 2070 cuBLAS cliff W", 12032,
     "calibrated (PerfOptions.cliff_l2_fraction)"),
    ("Fig. 7 T4 ours max TFLOPS", 49.71, "held out"),
    ("Fig. 7 T4 cuBLAS max TFLOPS", 45.43, "held out"),
    ("Table I HMMA.1688 CPI", 8.06, "calibrated (GpuSpec pipe CPI)"),
)


def paper_round_ops(seed, round_no):
    """The op list of one paper_cold round.

    Every op is a dict with ``op`` (tables/sweep/estimate), ``device``
    and ``suite`` where relevant, and ``pass`` (cold/disk/memory).  Each
    op of the cold pass starts with the memory layer dropped, as a fresh
    CLI process does, and is followed by a warm chunk: for every cached op
    run cold so far this round, in seeded order, ``DISK_REPEATS`` disk-warm
    runs (each starts with the memory layer dropped too; the disk hit
    refills it) and then ``MEMORY_REPEATS`` memory-warm runs.  Spread
    over the round, the warm runs of one op meet the host in several of
    its quiet and busy spells.
    """
    rng = stream_rng(seed, "paper_cold", round_no)
    ops, cached = [], []
    for op in COLD_PASS:
        ops.append(dict(op, **{"pass": "cold"}))
        if op in CACHED_OPS:
            cached.append(op)
        for i in rng.permutation(len(cached)):
            ops += [dict(cached[i], **{"pass": "disk"})] * DISK_REPEATS
            ops += [dict(cached[i], **{"pass": "memory"})] * MEMORY_REPEATS
    return ops


def op_key(op):
    return (op["op"], op.get("device"), op.get("suite"))


def paper_op(op):
    """Run one op the way its CLI command does; returns a comparable value."""
    if op["op"] == "tables":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli_main(["tables"])
        if status != 0:
            raise RuntimeError(f"tables exited with {status}")
        return out.getvalue()
    spec = arch.get_device(op["device"])
    if op["op"] == "sweep":
        pm = analysis.PerformanceModel(spec)
        pm.profile_many([core.ours(), core.cublas_like()])
        ours = pm.sweep(core.ours(), SWEEP_SIZES)
        cublas = pm.sweep(core.cublas_like(), SWEEP_SIZES,
                          baseline_quirks=True)
        return ([astuple(e) for e in ours], [astuple(e) for e in cublas])
    rows = analysis.sweep_suite(op["suite"], spec, scale="full")
    return [(p.name, label, astuple(est), astuple(base))
            for p, label, est, base in rows]


def paper_accuracy(results):
    """[(point, paper, model, relative error, calibration)] from a cold pass."""
    tflops = 4  # LaunchEstimate field order: m, n, k, seconds, tflops
    fig6 = results[("sweep", "RTX2070", None)]
    fig7 = results[("sweep", "T4", None)]
    o6 = [e[tflops] for e in fig6[0]]
    c6 = [e[tflops] for e in fig6[1]]
    # The cliff is the first size where the model's cliff quirk is active
    # (LaunchEstimate.cliff_active, its last field).
    cliff = next((w for w, e in zip(SWEEP_SIZES, fig6[1]) if e[-1]),
                 float("nan"))
    cpi = re.search(r"CPI measured\s*\|\s*8\.06\s*\|\s*([0-9.]+)",
                    results[("tables", None, None)])
    model = [max(o6), max(c6), cliff,
             max(e[tflops] for e in fig7[0]),
             max(e[tflops] for e in fig7[1]),
             float(cpi.group(1)) if cpi else float("nan")]
    return [(name, paper, value, (value - paper) / paper, how)
            for (name, paper, how), value in zip(PAPER_POINTS, model)]


def format_accuracy(rows):
    lines = ["model accuracy vs the paper (recorded, not gated):"]
    for name, paper, value, err, how in rows:
        lines.append(f"  {name:<36s} paper {paper:>9.2f}  model "
                     f"{value:>9.2f}  error {100 * err:+6.2f}%  [{how}]")
    return lines


def run_paper_cold(ctx, run):
    def one_round(round_no, tracer):
        # Every round starts from an empty cache, as a first-time user does.
        os.environ["REPRO_CACHE_DIR"] = os.path.join(
            ctx.work, f"cache-{round_no}")
        PROFILE_CACHE.clear()
        results = {}
        before = STATS.snapshot()
        wall = cpu = 0.0
        for op in paper_round_ops(ctx.seed, round_no):
            if op["pass"] != "memory":
                PROFILE_CACHE.clear()  # a fresh CLI process: disk layer only
            label = f"{op['pass']} {op['op']} {op.get('device', '')}"
            value, op_wall, op_cpu = time_op(run, tracer, label,
                                             (op["pass"], op_key(op)),
                                             paper_op, op)
            wall, cpu = wall + op_wall, cpu + op_cpu
            if value is None:
                continue
            key = op_key(op)
            if key not in results:
                results[key] = value
            elif value != results[key]:
                run.fail(f"{label}: differs from the cold-pass result")
        run.round_counts.append(stats_delta(before, PAPER_COUNTS))
        if round_no == 0 and len(results) == 1 + len(CACHED_OPS):
            run.notes.extend(format_accuracy(paper_accuracy(results)))
        return wall, cpu

    run_inprocess(ctx, run, len(paper_round_ops(ctx.seed, 0)), one_round)


# ---------------------------------------------------------- remote_layers

REMOTE_SUITES = ("layers", "bert", "resnet", "lstm", "smoke")
REMOTE_DEVICES = ("RTX2070", "T4", "V100", "A100")
#: hgemm jobs that fit one CTA for both kernels on every device.
SMALL_SHAPES = ((64, 64, 64), (128, 128, 64), (128, 128, 128))
#: Payload cells both clients submit at the same moment (twins).
TWIN_CELLS = (("RTX2070", "ours", (128, 128, 128)),
              ("T4", "cublas", (128, 128, 64)),
              ("A100", "ours", (64, 64, 64)))
TWIN_SLOTS = (8, 17, 26)
REPEATS_PER_CLIENT = 5
CLIENTS = 2
#: Per-round exact counts from the daemon's per-tenant accounting.
REMOTE_COUNTS = ("jobs", "func.runs", "func.ctas", "func.instructions")
#: Daemon start-ups measured for ``setup_s`` in a measured run.
DAEMON_STARTS = 3


def _hgemm_payload(device, kernel, shape, seed):
    m, n, k = shape
    return {"m": m, "n": n, "k": k, "kernel": kernel, "accumulate": "f16",
            "seed": seed, "spec": {"device": device}}


def remote_round_plan(seed, round_no):
    """Each client's request list for one round.

    Items are ``{"kind", "payload", "role"}`` with role distinct, repeat
    (an earlier payload of the same client, answered from the serve
    cache) or twin (the same payload at the same slot in both lists).
    """
    rng = stream_rng(seed, "remote_layers", round_no)

    def data_seed():
        return int(rng.integers(0, 2 ** 31))

    suites = [{"kind": "workloads", "role": "distinct",
               "payload": {"suite": s, "spec": {"device": d}, "scale": "sim",
                           "kernel": "ours", "seed": data_seed()}}
              for s in REMOTE_SUITES for d in REMOTE_DEVICES]
    gemms = [{"kind": "hgemm", "role": "distinct",
              "payload": _hgemm_payload(d, kern, s, data_seed())}
             for d in REMOTE_DEVICES for kern in GEMM_KERNELS
             for s in SMALL_SHAPES]
    suites = [suites[i] for i in rng.permutation(len(suites))]
    gemms = [gemms[i] for i in rng.permutation(len(gemms))]
    twins = [{"kind": "hgemm", "role": "twin",
              "payload": _hgemm_payload(d, kern, s, data_seed())}
             for d, kern, s in TWIN_CELLS]
    plans = []
    for client in range(CLIENTS):
        mine = suites[client::CLIENTS] + gemms[client::CLIENTS]
        seq = [mine[i] for i in rng.permutation(len(mine))]
        for _ in range(REPEATS_PER_CLIENT):
            at = int(rng.integers(1, len(seq) + 1))
            earlier = [item for item in seq[:at] if item["role"] == "distinct"]
            source = earlier[int(rng.integers(len(earlier)))]
            seq.insert(at, dict(source, role="repeat"))
        for slot, twin in zip(TWIN_SLOTS, twins):
            seq.insert(slot, twin)
        plans.append(seq)
    return plans


def remote_request(socket_path, kind, payload, tenant):
    """One ``--remote`` CLI request: ping, then submit and wait.

    Returns (view, coalesced); raises on an unreachable daemon or a
    refused submission.
    """
    if not serve.daemon_available(socket_path):
        raise serve.ServeUnavailable(f"no daemon at {socket_path}")
    with serve.ServeClient(socket_path, tenant=tenant) as client:
        view = client.submit(kind, payload)
        coalesced = bool(view.get("coalesced"))
        if view["state"] not in ("done", "failed"):
            view = client.wait(view["job_id"])
    return view, coalesced


class Daemon:
    """A ``repro serve`` daemon in its own process, via perfbench/daemon.py."""

    def __init__(self, ctx, name, traced):
        self.socket = os.path.join(os.path.relpath(ctx.work), f"{name}.sock")
        self.report = os.path.join(ctx.work, f"{name}.json")
        cmd = [sys.executable, os.path.join(ctx.root, "perfbench",
                                            "daemon.py"),
               "--socket", self.socket, "--report", self.report]
        if traced:
            cmd.append("--trace")
        deadline = time.perf_counter() + 60.0
        with open(os.path.join(ctx.work, f"{name}.log"), "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                         stdout=log, stderr=subprocess.STDOUT)
        while not serve.daemon_available(self.socket, timeout=1.0):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"daemon {name} did not come up "
                                   f"(log in {ctx.work})")
            time.sleep(0.01)
        #: CPU seconds from exec until the first ping was answered.
        self.start_cpu_s = self.cpu_s()

    def cpu_s(self):
        return process_cpu_s(self.proc.pid)

    def stats(self):
        with serve.ServeClient(self.socket) as client:
            return client.stats()

    def stop(self):
        """Shut the daemon down, wait for it, and return its report."""
        if self.proc.poll() is None:
            try:
                with serve.ServeClient(self.socket, timeout=10) as client:
                    client.shutdown()
            except (OSError, serve.ServeError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        try:
            with open(self.report, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


@dataclass
class Reply:
    kind: str
    role: str
    payload: dict
    cpu_s: float = 0.0
    wall_s: float = 0.0
    view: dict = None
    coalesced: bool = False
    error: str = ""

    @property
    def executed(self):
        """This submission created the job (not a cache hit or a twin)."""
        return bool(self.view) and not (self.view.get("cached")
                                        or self.coalesced)


def client_loop(socket_path, plan, tenant, barrier, tracer, out):
    """One closed-loop client: each request waits for the previous reply."""
    for item in plan:
        if item["role"] == "twin":
            try:
                barrier.wait(timeout=120)
            except threading.BrokenBarrierError:
                pass
        reply = Reply(item["kind"], item["role"], item["payload"])
        args = (socket_path, item["kind"], item["payload"], tenant)
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            if tracer is None:
                reply.view, reply.coalesced = remote_request(*args)
            else:
                reply.view, reply.coalesced = tracer.root(
                    tracer.call, "serve", "remote_request", remote_request,
                    args, {})
        except Exception as exc:  # noqa: BLE001 - counted as failed
            reply.error = f"{type(exc).__name__}: {exc}"
        reply.cpu_s = time.thread_time() - cpu
        reply.wall_s = time.perf_counter() - wall
        if reply.executed:
            timers = (reply.view.get("stats") or {}).get("timers") or {}
            reply.cpu_s += timers.get(JOB_CPU_TIMER, 0.0)
        out.append(reply)


def run_remote_layers(ctx, run):
    served = {}       # payload key -> (kind, payload, first result), round 0
    traced_replies = []

    def one_round(round_no, daemon, tracer, phase):
        plans = remote_round_plan(ctx.seed, round_no)
        barrier = threading.Barrier(CLIENTS)
        outs = [[] for _ in range(CLIENTS)]
        threads = [threading.Thread(target=client_loop, args=(
            daemon.socket, plans[i], f"perfbench-{round_no}", barrier,
            tracer, outs[i])) for i in range(CLIENTS)]
        wall = time.perf_counter()
        cpu = time.process_time(), daemon.cpu_s()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            barrier.abort()
            raise RuntimeError("a client did not finish within 170 s")
        cpu = (time.process_time() - cpu[0]) + (daemon.cpu_s() - cpu[1])
        wall = time.perf_counter() - wall
        check_round([r for out in outs for r in out], round_no, phase)
        return wall, cpu

    def check_round(replies, round_no, phase):
        firsts = {}
        for reply in replies:
            run.attempted += 1
            key = json.dumps([reply.kind, reply.payload], sort_keys=True)
            label = f"{reply.role} {reply.kind} {reply.payload.get('suite', '')}"
            if phase == "plain":
                run.op_cpu_ms.append(reply.cpu_s * 1e3)
                run.op_wall_ms.append(reply.wall_s * 1e3)
            else:
                traced_replies.append(reply)
            view = reply.view
            if reply.error or view is None or view.get("state") != "done":
                run.fail(f"{label}: {reply.error or (view or {}).get('error')}")
                continue
            result = view["result"]
            if not result.get("exact", result.get("passed")):
                run.fail(f"{label}: served result is not bit-exact")
                continue
            if key in firsts and firsts[key] != result:
                run.fail(f"{label}: differs from the same payload's reply")
                continue
            firsts.setdefault(key, result)
            if round_no == 0:
                served.setdefault(key, (reply.kind, reply.payload, result))

    def tenant_counts(stats, first, last):
        counts = []
        for round_no in range(first, last):
            tenant = stats["tenants"].get(f"perfbench-{round_no}", {})
            counters = tenant.get("counters", {})
            row = {"jobs": tenant.get("jobs", 0)}
            row.update({n: counters.get(n, 0) for n in REMOTE_COUNTS[1:]})
            counts.append(row)
        return counts

    starts = []
    if not ctx.trace:
        # Set-up: start and stop the daemon; the phase's daemon is the last.
        for i in range(DAEMON_STARTS - 1):
            probe = Daemon(ctx, f"probe{i}", False)
            starts.append(probe.start_cpu_s)
            probe.stop()
    next_round = 0
    rss_daemon = 0.0
    daemon_trace = {}
    load_tracer = None
    ops_per_round = sum(len(plan) for plan in remote_round_plan(0, 0))
    for phase, budget, min_ops, min_rounds in phases(ctx.seconds, ctx.trace):
        traced = phase == "traced"
        daemon = Daemon(ctx, phase, traced)
        starts.append(daemon.start_cpu_s)
        load_tracer = Tracer() if traced else None
        first = next_round
        try:
            rounds, next_round = drive(
                budget, min_ops, ops_per_round,
                lambda r: one_round(r, daemon, load_tracer, phase),
                next_round, min_rounds)
            run.round_counts.extend(tenant_counts(daemon.stats(), first,
                                                  next_round))
        finally:
            report = daemon.stop()
        if ctx.trace:
            # The daemon's first round is its warm-up (traced on the traced
            # daemon, so it stays in the layer totals).
            run.rounds["warmup"].append(rounds[0])
            rounds = rounds[1:]
        run.rounds[phase] = rounds
        rss_daemon = max(rss_daemon, report.get("maxrss_mb", 0.0))
        if traced:
            daemon_trace = report.get("trace") or {}
            run.traced_rounds = len(rounds) + 1
    run.peak_rss_mb = peak_rss_mb() + rss_daemon
    if not ctx.trace:
        run.setup_samples["daemon_start_s"] = starts

    # Every round-0 result must equal the in-process result of its payload.
    for kind, payload, result in served.values():
        expected = json.loads(json.dumps(run_job(kind, payload)))
        if expected != result:
            run.fail(f"served {kind} differs from the in-process result")
    run.notes.append(f"served results checked against in-process runs: "
                     f"{len(served)} distinct payloads of round 0")
    if ctx.trace:
        run.layers = remote_layer_totals(load_tracer.snapshot(), daemon_trace,
                                         traced_replies)


def remote_layer_totals(load, daemon, replies):
    """Merge the load-side and daemon-side traces into one set of totals.

    Both are CPU time, so they add: the serve layer is the clients'
    request handling plus the daemon's request dispatch.
    """
    merged = {}
    for key in ("self_s", "calls", "hits"):
        merged[key] = dict(daemon.get(key, {}))
        for name, value in load.get(key, {}).items():
            merged[key][name] = merged[key].get(name, 0) + value
    merged["unattributed_s"] = (load.get("unattributed_s", 0.0)
                                + daemon.get("unattributed_s", 0.0))
    # Every daemon span is top-level or nested in one (job, dispatch, or a
    # cache call outside both), so its top-level CPU is all its span CPU.
    merged["root_s"] = load.get("root_s", 0.0) + daemon.get("top_s", 0.0)
    done = [r for r in replies if r.view and r.view.get("state") == "done"]
    hits = [r.wall_s * 1e3 for r in done if r.view.get("cached")]
    twins = [r for r in done if r.role == "twin"]
    merged["serve"] = {
        "hit_ms_p50": median(hits) if hits else 0.0,
        "coalesced_share": (sum(r.coalesced for r in twins)
                            / max(1, len(twins) // CLIENTS)),
        "cache_hit_share": len(hits) / max(1, len(replies)),
    }
    return merged


WORKLOADS = {
    "gemm_verify": run_gemm_verify,
    "paper_cold": run_paper_cold,
    "remote_layers": run_remote_layers,
}
