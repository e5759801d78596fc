"""Cycle-level timing simulator of one Turing SM.

Models exactly the mechanisms the paper measures and then exploits:

* **4 warp schedulers** (one per processing block), each issuing at most one
  instruction per cycle from its resident warps (loose round-robin).
* **Pipes with occupancy**: each HMMA occupies its processing block's tensor
  pipe for ``hmma_cpi`` (8) cycles; every LDG/STG/LDS/STS occupies the
  single SM-wide memory-IO pipe for its CPI (Tables III/IV), scaled by the
  measured shared-memory **bank-conflict multiplier** of its actual lane
  addresses; ALU/FMA ops occupy their scheduler's dispatch path.
* **Fixed-latency results via stall counts**: HMMA writes the first half of
  D 10 cycles after issue and the second half 14 cycles after (Table I);
  ALU results land after ``ALU_LATENCY``.  Results are *deferred register
  writes* -- an under-stalled consumer reads the stale value, which is
  precisely how the paper probes latency ("varying the stall cycles and
  check if the output result is correct").
* **Variable latency via scoreboards**: loads release their write barrier
  when data arrives (L1/L2/DRAM service times from
  :class:`~repro.sim.memory.MemorySubsystem`); instructions waiting on a
  scoreboard do not issue until it clears.

The simulator is also a full functional interpreter, so timing experiments
can verify results, and correctness experiments can read clocks.  It has
no instruction semantics of its own: the reference engine runs the
:func:`~repro.sim.exec_units.execute` adapter, and the event engine
compiles the functional simulator's compute steps
(:func:`repro.sim.decode.compute_step`) and adds only a *commit* step
that defers each result by its latency.

Engines
-------

Two interchangeable engines drive the model (``REPRO_TIMING_ENGINE`` or the
``engine=`` constructor argument):

* ``reference`` -- the seed loop: every scheduler scan evaluates each warp
  against live state and every instruction runs through the generic
  :func:`~repro.sim.exec_units.execute` adapter.
* ``event`` (the default) -- same cycle-for-cycle semantics, restructured
  for speed: per-warp *block status* caches (stall / scoreboard / MIO /
  pipe) with release-cycle expiries let idle-cycle probes and fully-blocked
  scheduler scans reuse the scan's own conclusions instead of re-deriving
  them; instructions compile once per run through the shared compute
  step into closures over live register rows, and a predicated one issues
  compiled whenever its guard is on in every lane (otherwise, and for
  predicated MMAs, through the generic adapter); a shared access costs
  one lookup in its compiled step's memo, keyed by the raw lanes of its
  base register, for both its word indices and its bank-conflict
  multiplier, and a global access computes its lane-relative address
  pattern once for the :class:`~repro.sim.memory.WarpMemory` and
  :class:`~repro.sim.memory.MemorySubsystem` memos; straight-line runs of
  independent MMA ops become *issue plans* whose math is one
  :func:`~repro.sim.decode.mma_group` call, the lockstep engine's fused
  MMA builder, and whose head splits every member's D into its two
  latency halves once, so a member commits both writes without slicing
  (per-issue latency/CPI bookkeeping unchanged); and the MIO queue
  retires by advancing a head index over a monotone completion list and
  keeps one "full until" cycle, which a warp blocked on it compares
  against instead of calling into the queue.  These memos live and die
  with one run.

The engines are **bit-identical** on every :class:`TimingResult` field and
on final memory/register state (pinned by
``tests/sim/test_timing_differential.py`` and the per-engine goldens in
``tests/sim/test_golden_cycles.py``), so the engine is deliberately *not*
part of the result-cache key and ``SIM_VERSION`` does not change with it.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..arch.registers import PredicateFile, RegisterFile, WARP_LANES
from ..arch.turing import GpuSpec
from ..isa.control import NO_BARRIER
from ..isa.instructions import Pipe
from ..isa.program import Program
from .. import knobs
from ..perf.stats import STATS
from .decode import compute_step, mma_group
from .exec_units import ExecError, execute
from .memory import GlobalMemory, MemorySubsystem
from .shared import SharedMemory, conflict_multiplier
from .uop import decode_uop

__all__ = ["TimingSimulator", "TimingResult", "ALU_LATENCY", "ENGINES"]

#: Cycles from issue to result for short ALU/FMA operations.
ALU_LATENCY = 5

#: Simulation fuel: cycles after which we declare the kernel hung.
DEFAULT_MAX_CYCLES = 30_000_000

#: Recognised timing engines, fastest first; the first is the default.
ENGINES = knobs.KNOBS["REPRO_TIMING_ENGINE"].accepts

_INF = float("inf")
_U32 = np.dtype(np.uint32)


class _MioQueue:
    """The SM's memory-IO instruction queue.

    Warps deposit LDS/STS/LDG/STG here and continue issuing math; the queue
    drains serially at each instruction's CPI (so a long sequence measures
    exactly the Table III/IV CPIs, the paper's methodology).  Only when the
    queue is full does the issuing warp stall -- which is precisely how an
    under-spaced STS schedule (Fig. 4's "STS2") ends up starving the tensor
    pipes."""

    def __init__(self, depth: int):
        self.depth = depth
        self.drain_free = 0.0       # when the drain port frees up
        self._done = deque()        # completion times of queued entries

    def can_accept(self, cycle: int) -> bool:
        self._retire(cycle)
        return len(self._done) < self.depth

    def next_slot_free(self, cycle: int) -> float:
        """Earliest cycle a full queue opens a slot."""
        self._retire(cycle)
        if len(self._done) < self.depth:
            return cycle
        return self._done[0]

    def push(self, cycle: int, occupancy: float) -> float:
        """Enqueue one access; returns its drain-completion time."""
        start = max(self.drain_free, float(cycle))
        done = start + occupancy
        self.drain_free = done
        self._done.append(done)
        return done

    def _retire(self, cycle: int) -> None:
        done = self._done
        while done and done[0] <= cycle:
            done.popleft()


class _VecMioQueue:
    """Flat-list MIO queue used by the event engine.

    Completion times are monotonically non-decreasing (each entry drains
    after the previous one), so retirement just advances a head index.
    For the same reason the queue is full at a cycle ``t`` no earlier than
    the last push iff ``t < full_until``: a push that fills the queue sets
    ``full_until`` to the ceiling of its head's completion, when the first
    slot opens, and only another push can fill it again.  The issue loop
    compares the cycle against that one int; a push happens only when
    ``cycle >= full_until``.  ``push`` computes the same IEEE float
    sequence as :class:`_MioQueue`'s.
    """

    __slots__ = ("depth", "drain_free", "full_until", "_done", "_head")

    def __init__(self, depth: int):
        self.depth = depth
        self.drain_free = 0.0
        self.full_until = 0
        self._done = []          # drain-completion times, nondecreasing
        self._head = 0

    def push(self, cycle: int, occupancy: float) -> float:
        start = self.drain_free
        if cycle > start:
            start = float(cycle)
        done = start + occupancy
        self.drain_free = done
        queue = self._done
        queue.append(done)
        head = self._head
        n = len(queue)
        while queue[head] <= cycle:   # retire what drained by now
            head += 1
            if head == n:
                break
        if head >= 512:
            del queue[:head]
            n -= head
            head = 0
        self._head = head
        if n - head >= self.depth:
            self.full_until = math.ceil(queue[head])
        return done


class _TimedWarp:
    """Per-warp microarchitectural state."""

    __slots__ = (
        "warp_id", "cta_slot", "ctaid", "lane_ids", "tid", "regs", "preds",
        "global_mem", "shared_mem", "pc", "next_issue", "exited",
        "at_barrier", "scoreboards", "pending_writes",
        "pending_tensor_writes", "retired", "_clock_now",
        "wid", "min_due", "tensor_min_due", "plan_queue", "plan_qi",
    )

    def __init__(self, warp_id, cta_slot, ctaid, global_mem, shared_mem):
        self.warp_id = warp_id
        self.cta_slot = cta_slot
        self.ctaid = ctaid
        self.lane_ids = np.arange(WARP_LANES, dtype=np.uint32)
        local = warp_id * WARP_LANES + self.lane_ids
        self.tid = local.astype(np.uint32)
        self.regs = RegisterFile()
        self.preds = PredicateFile()
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.pc = 0
        self.next_issue = 0
        self.exited = False
        self.at_barrier = False
        self.scoreboards = [0] * 6       # release cycle per barrier index
        self.pending_writes = []         # (apply_cycle, first_reg, values, mask)
        self.pending_tensor_writes = []  # same shape; forwardable inside the pipe
        self.retired = 0
        self._clock_now = 0
        self.wid = 0                     # index into the SM-wide warp list
        self.min_due = _INF              # earliest pending_writes apply cycle
        self.tensor_min_due = _INF       # earliest pending tensor apply cycle
        self.plan_queue = None           # queued (pc, D halves) from an MMA plan
        self.plan_qi = 0

    def clock(self) -> int:
        return self._clock_now

    def defer_write(self, due, first_reg, values, mask) -> None:
        self.pending_writes.append((due, first_reg, values, mask))
        if due < self.min_due:
            self.min_due = due

    def defer_tensor_write(self, due, first_reg, values, mask) -> None:
        self.pending_tensor_writes.append((due, first_reg, values, mask))
        if due < self.tensor_min_due:
            self.tensor_min_due = due

    def apply_due_writes(self, cycle: int) -> None:
        if self.min_due <= cycle:
            self.pending_writes, self.min_due = self._drain_due(
                self.pending_writes, cycle
            )
        if self.tensor_min_due <= cycle:
            self.pending_tensor_writes, self.tensor_min_due = self._drain_due(
                self.pending_tensor_writes, cycle
            )

    def _drain_due(self, queue: list, cycle: int):
        """Apply the writes of *queue* due by *cycle*, in issue order;
        returns the rest and their earliest due cycle.  It runs only when
        a write is due, so a one-item queue drains whole."""
        if len(queue) == 1:
            due_now, remaining, nxt = queue, [], _INF
        else:
            due_now, remaining, nxt = [], [], _INF
            for item in queue:
                due = item[0]
                if due <= cycle:
                    due_now.append(item)
                else:
                    remaining.append(item)
                    if due < nxt:
                        nxt = due
        data = self.regs._data
        for _, first_reg, values, mask in due_now:
            if mask is None and values.dtype == _U32:
                # Deferred values are pre-shaped (n, lanes) uint32;
                # skip the write_group asarray/bounds ceremony.
                data[first_reg:first_reg + values.shape[0]] = values
            else:
                self.regs.write_group(
                    first_reg, values,
                    mask=None if mask is None or mask.all() else mask,
                )
        return remaining, nxt

    def forward_tensor_writes(self) -> None:
        """Apply not-yet-due tensor results early (intra-pipe forwarding):
        back-to-back accumulating HMMAs see each other's results at the
        8-cycle issue interval even though non-tensor consumers must wait
        the architectural 10/14 cycles."""
        self.pending_tensor_writes.sort(key=lambda item: item[0])
        for _, first_reg, values, mask in self.pending_tensor_writes:
            self.regs.write_group(
                first_reg, values,
                mask=None if mask is None or mask.all() else mask,
            )
        self.pending_tensor_writes = []
        self.tensor_min_due = _INF

    def flush_writes(self) -> None:
        combined = self.pending_writes + self.pending_tensor_writes
        combined.sort(key=lambda item: item[0])
        for _, first_reg, values, mask in combined:
            self.regs.write_group(
                first_reg, values,
                mask=None if mask is None or mask.all() else mask,
            )
        self.pending_writes = []
        self.pending_tensor_writes = []
        self.min_due = _INF
        self.tensor_min_due = _INF

    def wait_satisfied(self, wait_mask: int, cycle: int) -> bool:
        if not wait_mask:
            return True
        for b in range(6):
            if wait_mask & (1 << b) and self.scoreboards[b] > cycle:
                return False
        return True

    def next_wait_release(self, wait_mask: int) -> int:
        return max(
            (self.scoreboards[b] for b in range(6) if wait_mask & (1 << b)),
            default=0,
        )


class _DecodedInst:
    """Static per-instruction facts, predecoded once per :meth:`run`.

    The issue loop runs once per scheduler per simulated cycle; chasing
    ``inst.info.is_memory`` / ``inst.ctrl.wait_mask`` attribute chains and
    re-deriving memory CPIs there dominated simulation time.  Everything
    that does not depend on dynamic state is flattened here.
    """

    __slots__ = (
        "inst", "opcode", "pipe_class", "is_memory", "is_mma", "is_tensor",
        "occupancy", "issue_stall", "wait_mask", "write_bar", "read_bar",
        "mem_shared", "mem_store", "mem_cpi", "mem_cpi_l2",
    )

    def __init__(self, inst, spec: GpuSpec):
        info = inst.info
        ctrl = inst.ctrl
        self.inst = inst
        self.opcode = inst.opcode
        self.is_memory = info.is_memory
        self.is_mma = info.warp_wide
        self.is_tensor = info.pipe == Pipe.TENSOR
        self.wait_mask = ctrl.wait_mask
        self.write_bar = ctrl.write_bar
        self.read_bar = ctrl.read_bar
        self.issue_stall = max(1, ctrl.stall)

        # Execution-pipe class for the issue-port busy check (memory ops
        # go through the MIO queue instead; branches/barriers need none).
        if info.is_memory or info.pipe in (Pipe.BRANCH, Pipe.BARRIER):
            self.pipe_class = None
        else:
            self.pipe_class = info.pipe

        # Issue-port occupancy of non-memory instructions.
        if inst.opcode == "HMMA":
            self.occupancy = spec.hmma_cpi
        elif inst.opcode == "IMMA":
            self.occupancy = spec.imma_cpi
        elif info.pipe == Pipe.ALU:
            self.occupancy = spec.alu_cpi
        elif info.pipe == Pipe.FMA:
            self.occupancy = spec.fma_cpi
        else:
            self.occupancy = 0.0

        # MIO drain-port CPIs (Tables III/IV); for LDG, ``mem_cpi`` holds
        # the L1-hit table and ``mem_cpi_l2`` the L2/DRAM table.
        self.mem_shared = False
        self.mem_store = False
        self.mem_cpi = 0.0
        self.mem_cpi_l2 = 0.0
        if info.is_memory:
            width = inst.width
            self.mem_store = info.is_store
            if inst.opcode in ("LDS", "STS"):
                self.mem_shared = True
                table = spec.sts_cpi if info.is_store else spec.lds_cpi
                self.mem_cpi = table.cpi(width)
            elif inst.opcode == "STG":
                self.mem_cpi = spec.stg_cpi.cpi(width)
            else:  # LDG
                self.mem_cpi = spec.ldg_l1_cpi.cpi(width)
                self.mem_cpi_l2 = spec.ldg_l2_cpi.cpi(width)


@dataclass
class TimingResult:
    """Outcome of one timed SM run."""

    cycles: int
    instructions: int
    opcode_counts: dict
    pipe_busy: dict            # pipe name -> total busy cycles (all units)
    issue_stall_reasons: dict  # reason -> cycles summed over warps
    traffic: "object"          # MemorySubsystem counters
    num_schedulers: int = 4

    def cpi_of(self, opcode: str) -> float:
        count = self.opcode_counts.get(opcode, 0)
        if count == 0:
            raise ValueError(f"no {opcode} instructions were executed")
        return self.cycles / count

    def pipe_utilization(self, pipe: str) -> float:
        """Busy fraction of the named pipe class over the whole run.

        ``tensor`` / ``alu`` / ``fma`` have one unit per scheduler, so
        their busy cycles are normalised by ``cycles * num_schedulers``;
        ``lsu`` has a single SM-wide drain port and is normalised by
        ``cycles`` alone.  A pipe with no recorded busy time -- including
        names this run never touched -- reports 0.0 rather than raising.
        """
        units = 1 if pipe == "lsu" else self.num_schedulers
        return self.pipe_busy.get(pipe, 0) / max(1, self.cycles * units)


# --------------------------------------------------------------------------
# Event-engine compilation: one slot per program instruction, from
# :func:`repro.sim.decode.compute_step` -- the compute step the lockstep
# engine compiles too -- plus this engine's deferred commit in
# `TimingSimulator._issue_fast`.  A predicated slot compiles too, with its
# guard: it issues compiled only when the guard is on in every lane, and
# otherwise through `_issue`, which owns all-off and lane-mixed semantics.
# Predicated MMAs, and every slot the compute step refuses, always run
# through the generic `exec_units.execute` adapter, so error behaviour
# matches the reference engine exactly.

_K_GENERIC, _K_ALU, _K_PRED, _K_LOAD, _K_STORE, _K_MMA = range(6)


def _compile_slot(dec):
    """Compile one `_DecodedInst` to ``(kind, fn, aux)``."""
    inst = dec.inst
    if inst.pred is not None and dec.is_mma:
        return _K_GENERIC, None, None
    try:
        u = decode_uop(inst)
    except ExecError:
        return _K_GENERIC, None, None
    fn = compute_step(u, WARP_LANES, timed=True)
    if fn is None:
        return _K_GENERIC, None, None
    if u.kind == "load":
        return _K_LOAD, fn, (u.dest[1], u.mem.width, u.mem.bypass_l1)
    if u.kind == "store":
        return _K_STORE, fn, u.mem.width
    if u.dest[0] == "pred":
        return _K_PRED, fn, u.dest[1]
    if dec.is_mma:
        return _K_MMA, fn, u.dest[1]
    if len(u.srcs) == 1:
        # A one-source µop may return its source row itself; the write is
        # deferred, so it must not alias a live register row.
        fn = (lambda warp, _f=fn: _f(warp).copy())
    return _K_ALU, fn, u.dest[1]


#: Issue-plan window limits: max program slots spanned / max batched members.
_PLAN_SPAN = 96
_PLAN_MEMBERS = 32


class _Plan:
    """A static window of independent same-shape MMA ops whose math runs
    as one :func:`~repro.sim.decode.mma_group` call at the head's issue;
    tail members consume queued D blocks."""

    __slots__ = ("members", "tail", "run", "half", "read_mask", "read_lo",
                 "read_hi")


def _build_plans(decoded, kinds):
    """Find batchable MMA windows.

    A window grows from an unpredicated batchable MMA head over straight
    line code (any control-flow µop ends it).  A later MMA joins as a
    *member* iff it has the same fuse key, no scoreboard wait, and reads
    nothing written earlier in the window (so its operands at its own issue
    equal its operands at the head's issue -- the gather moment).  All
    other slots are *interleaved*: their writes join the window write set
    but they execute normally between members.
    """
    n = len(decoded)
    plans = {}
    consumed = [False] * n
    for pc in range(n):
        if consumed[pc] or kinds[pc] != _K_MMA:
            continue
        head = decode_uop(decoded[pc].inst)
        members = [pc]
        payloads = [head.fuse_payload]
        window_writes = set(head.writes)
        member_reads = set(head.reads)
        j = pc + 1
        while j < n and j - pc < _PLAN_SPAN and len(members) < _PLAN_MEMBERS:
            try:
                uj = decode_uop(decoded[j].inst)
            except ExecError:
                break
            if uj.kind in ("bra", "exit", "bar"):
                break
            if (kinds[j] == _K_MMA and uj.fuse_key == head.fuse_key
                    and decoded[j].wait_mask == 0
                    and not (uj.reads & window_writes)):
                members.append(j)
                payloads.append(uj.fuse_payload)
                member_reads |= uj.reads
            window_writes |= uj.writes
            j += 1
        if len(members) < 2:
            continue
        read_regs = sorted(r for r in member_reads if isinstance(r, int))
        read_mask = np.zeros(256, dtype=bool)
        read_mask[read_regs] = True
        plan = _Plan()
        plan.members = tuple(members)
        plan.tail = tuple(members[1:])
        d_rows, plan.run = mma_group(head.fuse_key, payloads)
        plan.half = (d_rows.shape[1] + 1) // 2
        plan.read_mask = read_mask
        plan.read_lo = read_regs[0]
        plan.read_hi = read_regs[-1] + 1
        plans[pc] = plan
        for m in members:
            consumed[m] = True
    return plans


def _plan_clear(warp, plan) -> bool:
    """May this plan batch *now*?  Only if no in-flight deferred write
    targets a register any member reads: operands are gathered at the head
    but consumed over later cycles, so a write landing mid-window to a
    member-read register would make the batch read stale state."""
    lo = plan.read_lo
    hi = plan.read_hi
    read_mask = plan.read_mask
    for item in warp.pending_writes:
        first = item[1]
        count = item[2].shape[0]
        if first < hi and first + count > lo \
                and read_mask[first:first + count].any():
            return False
    return True


def _compile_event(decoded):
    """Compile a predecoded program for the event engine: per slot its
    kind, compute step, commit operand and guard -- ``(predicate index,
    negated)`` of a compiled predicated slot, else None -- plus the issue
    plans."""
    kinds = []
    fns = []
    aux = []
    guards = []
    for dec in decoded:
        k, f, a = _compile_slot(dec)
        kinds.append(k)
        fns.append(f)
        aux.append(a)
        pred = dec.inst.pred
        guards.append(None if k == _K_GENERIC or pred is None
                      else (pred.index, pred.negated))
    return kinds, fns, aux, guards, _build_plans(decoded, kinds)


def _guard_on(warp, guard) -> bool:
    """Is a compiled slot's guard on in every lane?  Predicates are written
    at issue, never deferred, so the live row is the value `execute`
    would read."""
    row = warp.preds._data[guard[0]]
    return not row.any() if guard[1] else bool(row.all())


class TimingSimulator:
    """Simulates *num_ctas* CTAs of one program resident on one SM."""

    def __init__(self, spec: GpuSpec, bandwidth_share: float = 1.0,
                 l1_bytes: int = 32 * 1024, engine: str = None):
        self.spec = spec
        self.bandwidth_share = bandwidth_share
        self.l1_bytes = l1_bytes
        self.engine = (engine if engine is not None
                       else knobs.read("REPRO_TIMING_ENGINE"))
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )

    def run(self, program: Program, global_mem: GlobalMemory = None,
            num_ctas: int = 1, first_ctaid=(0, 0, 0),
            max_cycles: int = DEFAULT_MAX_CYCLES) -> TimingResult:
        if global_mem is None:
            global_mem = GlobalMemory(4 * 1024 * 1024)
        memsys = MemorySubsystem(self.spec, self.bandwidth_share, self.l1_bytes)

        warps = []
        cta_warps = []
        for slot in range(num_ctas):
            shared = SharedMemory(program.meta.smem_bytes)
            ctaid = (first_ctaid[0] + slot, first_ctaid[1], first_ctaid[2])
            members = [
                _TimedWarp(w, slot, ctaid, global_mem, shared)
                for w in range(program.meta.warps_per_cta)
            ]
            warps.extend(members)
            cta_warps.append(members)
        for i, w in enumerate(warps):
            w.wid = i
        decoded = [_DecodedInst(inst, self.spec) for inst in program]

        start_wall = time.perf_counter()
        if self.engine == "reference":
            outcome = self._run_reference(
                warps, cta_warps, decoded, memsys, max_cycles)
        else:
            outcome = self._run_event(
                warps, cta_warps, decoded, memsys, max_cycles)
        cycle, retired, opcode_counts, pipe_busy_total, stall_reasons, \
            plan_stats = outcome

        for w in warps:
            w.flush_writes()

        STATS.count("sim.runs")
        STATS.count("sim.cycles", cycle)
        STATS.count("sim.instructions", retired)
        if plan_stats[0]:
            STATS.count("sim.plans", plan_stats[0])
            STATS.count("sim.plan_insts", plan_stats[1])
        STATS.add_time("sim.wall", time.perf_counter() - start_wall)

        return TimingResult(
            cycles=cycle,
            instructions=retired,
            opcode_counts=opcode_counts,
            pipe_busy=pipe_busy_total,
            issue_stall_reasons=stall_reasons,
            traffic=memsys.counters,
            num_schedulers=self.spec.warp_schedulers_per_sm,
        )

    # ------------------------------------------------------ reference engine

    def _run_reference(self, warps, cta_warps, decoded, memsys, max_cycles):
        n_sched = self.spec.warp_schedulers_per_sm
        pipes = {
            **{("tensor", s): 0 for s in range(n_sched)},
            **{("alu", s): 0 for s in range(n_sched)},
            **{("fma", s): 0 for s in range(n_sched)},
        }
        mio = _MioQueue(self.spec.mio_queue_depth)
        pipe_busy_total = {"tensor": 0, "alu": 0, "fma": 0, "lsu": 0}
        stall_reasons = {"pipe": 0, "scoreboard": 0, "stall": 0, "barrier": 0}
        opcode_counts: dict = {}
        rr = [0] * n_sched  # round-robin pointers
        by_sched = [
            [w for i, w in enumerate(warps) if i % n_sched == s]
            for s in range(n_sched)
        ]

        cycle = 0
        retired = 0
        while cycle < max_cycles:
            if all(w.exited for w in warps):
                break
            issued_any = False
            # Rotate the polling order so no scheduler gets standing
            # priority on the shared memory-IO pipe (hardware arbitrates
            # fairly; a fixed order starves the last scheduler's warps and
            # makes them barrier stragglers).
            for s in range(cycle % n_sched, cycle % n_sched + n_sched):
                s %= n_sched
                issued = self._try_issue_scheduler(
                    s, by_sched[s], rr, cycle, pipes, mio, pipe_busy_total,
                    stall_reasons, opcode_counts, memsys, cta_warps, decoded,
                )
                if issued:
                    retired += 1
                    issued_any = True
            if issued_any:
                cycle += 1
                continue
            # Nothing issued: skip ahead to the next possible event.
            nxt = self._next_event(warps, pipes, mio, cycle, decoded)
            if nxt <= cycle:
                cycle += 1
            else:
                cycle = min(nxt, max_cycles)
        else:
            raise RuntimeError(
                f"timing simulation exceeded {max_cycles} cycles; "
                "kernel appears hung"
            )
        return (cycle, retired, opcode_counts, pipe_busy_total,
                stall_reasons, (0, 0))

    # ---------------------------------------------------------------- issue

    def _try_issue_scheduler(self, s, sched_warps, rr, cycle, pipes, mio,
                             pipe_busy_total, stall_reasons, opcode_counts,
                             memsys, cta_warps, decoded) -> bool:
        n = len(sched_warps)
        base = rr[s]
        for k in range(n):
            idx = (base + k) % n
            warp = sched_warps[idx]
            if warp.exited or warp.at_barrier:
                continue
            if warp.next_issue > cycle:
                stall_reasons["stall"] += 1
                continue
            if warp.pc >= len(decoded):
                raise ExecError(
                    f"warp {warp.warp_id} ran off the end of the program "
                    f"(pc={warp.pc}); missing EXIT?"
                )
            dec = decoded[warp.pc]
            if dec.wait_mask and not warp.wait_satisfied(dec.wait_mask, cycle):
                stall_reasons["scoreboard"] += 1
                continue
            if dec.is_memory:
                if not mio.can_accept(cycle):
                    stall_reasons["pipe"] += 1
                    continue
                pipe_key = None
            elif dec.pipe_class is None:
                pipe_key = None  # branch / barrier need no execution pipe
            else:
                pipe_key = (dec.pipe_class, s)
                # A pipe that frees up *during* this cycle accepts the
                # issue; the fractional busy time carries over (so CPI 4.06
                # averages to 4.06, not 5).
                if pipes[pipe_key] >= cycle + 1:
                    stall_reasons["pipe"] += 1
                    continue

            # Issue!
            self._issue(warp, dec, cycle, pipes, pipe_key, mio,
                        pipe_busy_total, memsys, cta_warps)
            opcode_counts[dec.opcode] = opcode_counts.get(dec.opcode, 0) + 1
            rr[s] = (idx + 1) % n
            return True
        return False

    def _issue(self, warp, dec, cycle, pipes, pipe_key, mio,
               pipe_busy_total, memsys, cta_warps) -> None:
        warp.apply_due_writes(cycle)
        if dec.is_tensor:
            # Intra-pipe forwarding: a tensor op chained on a prior one's
            # accumulator sees it at the issue interval.
            warp.forward_tensor_writes()
        warp._clock_now = cycle
        eff = execute(dec.inst, warp)
        warp.retired += 1

        occupancy = 0.0
        write_bar_release = None

        if dec.is_mma:
            occupancy = dec.occupancy
            self._defer_hmma_writes(warp, dec.inst, eff, cycle)
        elif dec.is_memory:
            lsu_occupancy, ready = self._price_memory(dec, eff, cycle,
                                                      memsys, mio)
            pipe_busy_total["lsu"] += lsu_occupancy
            # Drained through the MIO queue, not a pipe: occupancy stays 0.
            write_bar_release = ready
            for first_reg, values, mask in eff.reg_writes:
                warp.defer_write(ready, first_reg, values, mask)
        else:
            occupancy = dec.occupancy
            due = cycle + ALU_LATENCY
            for first_reg, values, mask in eff.reg_writes:
                warp.defer_write(due, first_reg, values, mask)

        # A predicate result is written at issue, not deferred, so code must
        # stall its producer at least ALU_LATENCY cycles before a consumer
        # (the generated kernels always do).
        for index, values, mask in eff.pred_writes:
            warp.preds.write(index, values, mask=None if mask.all() else mask)

        if pipe_key is not None and occupancy:
            pipes[pipe_key] = max(pipes[pipe_key], float(cycle)) + occupancy
            pipe_busy_total[pipe_key[0]] += occupancy

        if dec.write_bar != NO_BARRIER:
            release = write_bar_release
            if release is None:
                release = cycle + ALU_LATENCY
            warp.scoreboards[dec.write_bar] = max(
                warp.scoreboards[dec.write_bar], release
            )
        if dec.read_bar != NO_BARRIER:
            # Sources are consumed shortly after issue.
            warp.scoreboards[dec.read_bar] = max(
                warp.scoreboards[dec.read_bar], cycle + 2
            )

        if eff.exited:
            warp.exited = True
            warp.flush_writes()
            self._maybe_release_barrier(cta_warps[warp.cta_slot], cycle)
            return
        if eff.branch_target is not None:
            warp.pc = eff.branch_target
        else:
            warp.pc += 1
        warp.next_issue = cycle + dec.issue_stall
        if eff.barrier:
            warp.at_barrier = True
            self._maybe_release_barrier(cta_warps[warp.cta_slot], cycle)

    def _defer_hmma_writes(self, warp, inst, eff, cycle) -> None:
        """Split the D write: first half at +10, second half at +14."""
        spec = self.spec
        for first_reg, values, mask in eff.reg_writes:
            n = values.shape[0]
            first = values[: (n + 1) // 2]
            second = values[(n + 1) // 2 :]
            warp.defer_tensor_write(
                cycle + spec.hmma_latency_first_half, first_reg, first, mask
            )
            if second.shape[0]:
                warp.defer_tensor_write(
                    cycle + spec.hmma_latency_second_half,
                    first_reg + first.shape[0], second, mask,
                )

    def _price_memory(self, dec, eff, cycle, memsys, mio):
        """Push one memory access through the MIO queue.

        Returns ``(occupancy, ready_cycle)``: the drain-port cycles the
        access consumes, and when its result (load data / store-complete)
        is architecturally visible.
        """
        txn = eff.transaction
        if txn is None:  # fully predicated-off access
            return 0.0, cycle + 1

        if dec.mem_shared:
            mult = conflict_multiplier(txn.addresses, txn.width_bytes, txn.mask)
            occupancy = dec.mem_cpi * mult
            done = mio.push(cycle, occupancy)
            if dec.mem_store:
                return occupancy, int(done) + 1
            return occupancy, int(done) + self.spec.lds_latency_cycles

        # Global: the LSU forwards the request to L1/L2/DRAM once the MIO
        # queue drains it.
        if dec.mem_store:
            occupancy = dec.mem_cpi
            done = mio.push(cycle, occupancy)
            memsys.access(int(done), txn.addresses, txn.width_bytes,
                          txn.mask, is_store=True, bypass_l1=txn.bypass_l1)
            return occupancy, int(done) + 1
        # Loads: peek the level first (L1-hit CPIs differ from L2, Table III).
        summary = memsys.access(cycle, txn.addresses, txn.width_bytes,
                                txn.mask, is_store=False,
                                bypass_l1=txn.bypass_l1)
        occupancy = dec.mem_cpi if summary.level == "l1" else dec.mem_cpi_l2
        done = mio.push(cycle, occupancy)
        ready = max(summary.ready_cycle, int(done) + 1)
        return occupancy, ready

    @staticmethod
    def _maybe_release_barrier(members, cycle) -> None:
        live = [w for w in members if not w.exited]
        if live and all(w.at_barrier for w in live):
            for w in live:
                w.at_barrier = False
                w.next_issue = max(w.next_issue, cycle + 1)

    # ------------------------------------------------------------ skipping

    def _next_event(self, warps, pipes, mio, cycle, decoded) -> int:
        candidates = []
        horizon = cycle + 1
        for w in warps:
            if w.exited or w.at_barrier:
                continue
            t = w.next_issue
            if t <= cycle:
                dec = decoded[w.pc]
                wait_mask = dec.wait_mask
                if wait_mask and not w.wait_satisfied(wait_mask, cycle):
                    t = w.next_wait_release(wait_mask)
                elif dec.is_memory and not mio.can_accept(cycle):
                    t = math.ceil(mio.next_slot_free(cycle))
                else:
                    # Earliest cycle c at which some busy pipe satisfies
                    # free < c + 1, i.e. c = floor(free_time).
                    t = min(
                        (math.floor(v) for v in pipes.values()
                         if v >= horizon),
                        default=horizon,
                    )
            candidates.append(t)
        return min(candidates, default=horizon)

    # ---------------------------------------------------------- event engine

    def _run_event(self, warps, cta_warps, decoded, memsys, max_cycles):
        """Event-driven issue loop: cycle-identical to `_run_reference`.

        Each warp carries a cached *block status* with a release-cycle
        expiry: 1=stall-count (expires at ``next_issue``), 2=scoreboard
        (expires at ``next_wait_release``), 3=MIO-full (expires at the
        queue's ``full_until``), 4=pipe-busy (expires at
        ``floor(free_time)``), 5=at-barrier, 6=exited.  Expiry alone
        validates a cached status: codes 1/2 only move on the warp's own
        issue; a full MIO queue stays full until ``full_until`` (a push
        needs the gate open); and a busy pipe only gets busier, so
        re-examination at the cached expiry re-derives the same reason if
        the window grew.  The scan consumes valid caches without touching
        warp state, and idle-cycle probes take the minimum over the
        schedulers' fully-blocked summaries -- on a no-issue cycle every
        scheduler replayed a valid summary or just rebuilt one, so their
        expiries hold exactly the candidate set `_next_event` recomputes
        from scratch and the two engines visit identical cycles and count
        identical stall reasons.
        """
        spec = self.spec
        n_sched = spec.warp_schedulers_per_sm
        pipes = {
            **{("tensor", s): 0 for s in range(n_sched)},
            **{("alu", s): 0 for s in range(n_sched)},
            **{("fma", s): 0 for s in range(n_sched)},
        }
        pipe_keys = {
            cls: tuple((cls, s) for s in range(n_sched))
            for cls in ("tensor", "alu", "fma")
        }
        mio = _VecMioQueue(spec.mio_queue_depth)
        pipe_busy_total = {"tensor": 0, "alu": 0, "fma": 0, "lsu": 0}
        opcode_counts: dict = {}
        rr = [0] * n_sched
        by_sched = [
            [w for i, w in enumerate(warps) if i % n_sched == s]
            for s in range(n_sched)
        ]
        kinds, fns, aux, guards, plans = _compile_event(decoded)
        plan_stats = [0, 0]

        n_warps = len(warps)
        n_slots = len(decoded)
        st_code = [0] * n_warps
        st_expiry = [0] * n_warps
        wids_by_sched = [[w.wid for w in ws] for ws in by_sched]
        # The schedulers' polling order per cycle % n_sched, and each
        # scheduler's scan order per round-robin pointer: (index, wid).
        sched_orders = [[(rot + k) % n_sched for k in range(n_sched)]
                        for rot in range(n_sched)]
        scan_orders = [
            [[((base + k) % len(ws), ws[(base + k) % len(ws)])
              for k in range(len(ws))] for base in range(len(ws))]
            for ws in wids_by_sched
        ]
        # Fully-blocked scheduler summary: (stall, scoreboard, pipe counter
        # adds, valid-until cycle, any warp pipe-blocked).  While valid it
        # replays the scheduler's per-cycle stall counts in O(1) instead of
        # re-examining every warp; the earliest member expiry or a
        # barrier/exit wake invalidates it.
        sched_sum = [None] * n_sched
        live = n_warps
        n_stall = n_score = n_pipe = 0
        retired = 0
        floor = math.floor

        cycle = 0
        while cycle < max_cycles:
            if live == 0:
                break
            issued_any = False
            for s in sched_orders[cycle % n_sched]:
                sched_warps = by_sched[s]
                n = len(sched_warps)
                if not n:
                    continue
                summ = sched_sum[s]
                if summ is not None:
                    if cycle < summ[3]:
                        n_stall += summ[0]
                        n_score += summ[1]
                        n_pipe += summ[2]
                        continue
                    sched_sum[s] = None
                counts = n_stall, n_score, n_pipe
                for idx, wid in scan_orders[s][rr[s]]:
                    code = st_code[wid]
                    if code:
                        if code >= 5:
                            continue
                        if st_expiry[wid] > cycle:
                            if code == 1:
                                n_stall += 1
                            elif code == 2:
                                n_score += 1
                            else:
                                n_pipe += 1
                            continue
                    # Cache expired: re-evaluate live state.  A blocked warp
                    # cannot issue, so its pc / next_issue / satisfied waits
                    # are frozen -- an expired MIO or pipe block only needs
                    # its own condition re-tested, not the full chain.
                    warp = sched_warps[idx]
                    if code == 3:
                        if cycle < mio.full_until:
                            st_expiry[wid] = mio.full_until
                            n_pipe += 1
                            continue
                        pc = warp.pc
                        dec = decoded[pc]
                        pipe_key = None
                    elif code == 4:
                        pc = warp.pc
                        dec = decoded[pc]
                        pipe_key = pipe_keys[dec.pipe_class][s]
                        v = pipes[pipe_key]
                        if v >= cycle + 1:
                            st_expiry[wid] = floor(v)
                            n_pipe += 1
                            continue
                    else:
                        if warp.next_issue > cycle:
                            st_code[wid] = 1
                            st_expiry[wid] = warp.next_issue
                            n_stall += 1
                            continue
                        pc = warp.pc
                        if pc >= n_slots:
                            raise ExecError(
                                f"warp {warp.warp_id} ran off the end of the "
                                f"program (pc={pc}); missing EXIT?"
                            )
                        dec = decoded[pc]
                        wait_mask = dec.wait_mask
                        if wait_mask and not warp.wait_satisfied(
                            wait_mask, cycle
                        ):
                            st_code[wid] = 2
                            st_expiry[wid] = warp.next_wait_release(wait_mask)
                            n_score += 1
                            continue
                        if dec.is_memory:
                            if cycle < mio.full_until:
                                st_code[wid] = 3
                                st_expiry[wid] = mio.full_until
                                n_pipe += 1
                                continue
                            pipe_key = None
                        elif dec.pipe_class is None:
                            pipe_key = None
                        else:
                            pipe_key = pipe_keys[dec.pipe_class][s]
                            v = pipes[pipe_key]
                            if v >= cycle + 1:
                                st_code[wid] = 4
                                st_expiry[wid] = floor(v)
                                n_pipe += 1
                                continue

                    # Issue!
                    kindc = kinds[pc]
                    if kindc and (guards[pc] is None
                                  or _guard_on(warp, guards[pc])):
                        self._issue_fast(
                            warp, dec, kindc, fns[pc], aux[pc], cycle,
                            pipes, pipe_key, mio, pipe_busy_total, memsys,
                            plans, plan_stats,
                        )
                    else:
                        self._issue(warp, dec, cycle, pipes, pipe_key, mio,
                                    pipe_busy_total, memsys, cta_warps)
                    opcode_counts[dec.opcode] = (
                        opcode_counts.get(dec.opcode, 0) + 1
                    )
                    retired += 1
                    rr[s] = idx + 1 if idx + 1 < n else 0
                    issued_any = True
                    # Re-prime this warp's cache (and CTA mates a barrier
                    # release or exit may have woken).
                    if warp.exited:
                        st_code[wid] = 6
                        live -= 1
                        for m in cta_warps[warp.cta_slot]:
                            if st_code[m.wid] == 5 and not m.at_barrier:
                                st_code[m.wid] = 1
                                st_expiry[m.wid] = m.next_issue
                                sched_sum[m.wid % n_sched] = None
                    elif warp.at_barrier:
                        st_code[wid] = 5
                    else:
                        st_code[wid] = 1
                        st_expiry[wid] = warp.next_issue
                        if dec.opcode == "BAR":
                            for m in cta_warps[warp.cta_slot]:
                                if st_code[m.wid] == 5 and not m.at_barrier:
                                    st_code[m.wid] = 1
                                    st_expiry[m.wid] = m.next_issue
                                    sched_sum[m.wid % n_sched] = None
                    break  # this scheduler issued; next scheduler
                else:
                    # All warps blocked: snapshot this scheduler's per-cycle
                    # stall counts (the scan just added one per live warp)
                    # for O(1) replay.
                    vu = _INF
                    pipe4 = False
                    for wid2 in wids_by_sched[s]:
                        code = st_code[wid2]
                        if code >= 5:
                            continue
                        e = st_expiry[wid2]
                        if e < vu:
                            vu = e
                        if code == 4:
                            pipe4 = True
                    sched_sum[s] = (n_stall - counts[0], n_score - counts[1],
                                    n_pipe - counts[2], vu, pipe4)
            if issued_any:
                cycle += 1
                continue
            # Nothing issued: every scheduler with warps replayed or just
            # rebuilt its summary, so the summaries' expiries are the
            # candidate set `_next_event` computes from scratch.  For a
            # pipe-blocked warp that set holds the earliest busy pipe,
            # which is never later than the warp's own expiry.
            nxt = _INF
            pipe_blocked = False
            for summ in sched_sum:
                if summ is not None:
                    if summ[3] < nxt:
                        nxt = summ[3]
                    if summ[4]:
                        pipe_blocked = True
            if pipe_blocked:
                horizon = cycle + 1
                t = _INF
                for v in pipes.values():
                    if v >= horizon and v < t:
                        t = v
                t = horizon if t is _INF else floor(t)
                if t < nxt:
                    nxt = t
            if nxt is _INF:
                nxt = cycle + 1
            if nxt <= cycle:
                cycle += 1
            else:
                cycle = min(nxt, max_cycles)
        else:
            raise RuntimeError(
                f"timing simulation exceeded {max_cycles} cycles; "
                "kernel appears hung"
            )
        stall_reasons = {
            "pipe": n_pipe, "scoreboard": n_score, "stall": n_stall,
            "barrier": 0,
        }
        return (cycle, retired, opcode_counts, pipe_busy_total,
                stall_reasons, plan_stats)

    def _issue_fast(self, warp, dec, kindc, fn, aux, cycle, pipes, pipe_key,
                    mio, pipe_busy_total, memsys, plans,
                    plan_stats) -> None:
        """Issue one compiled slot: `_issue` minus the generic adapter.

        Same state transitions in the same order; the lane math comes from
        the slot's compute step (or a queued MMA-plan D) instead of
        `execute`, and this commit step defers its result without the
        Effects packaging.
        """
        if warp.min_due <= cycle or warp.tensor_min_due <= cycle:
            warp.apply_due_writes(cycle)
        warp._clock_now = cycle
        release = None
        if kindc == _K_MMA:
            if warp.pending_tensor_writes:
                warp.forward_tensor_writes()
            first = None
            queue = warp.plan_queue
            if queue is not None:
                plan_pc, first, second = queue[warp.plan_qi]
                if plan_pc == warp.pc:
                    warp.plan_qi += 1
                    if warp.plan_qi == len(queue):
                        warp.plan_queue = None
                        warp.plan_qi = 0
                else:  # branched off the window: abandon queued rows
                    first = None
                    warp.plan_queue = None
                    warp.plan_qi = 0
            if first is None:
                plan = plans.get(warp.pc)
                if plan is not None and _plan_clear(warp, plan):
                    # Split every member's D into its latency halves once.
                    batch = plan.run(warp.regs._data)
                    half = plan.half
                    firsts = batch[:, :half]
                    seconds = batch[:, half:]
                    first = firsts[0]
                    second = seconds[0]
                    warp.plan_queue = list(zip(plan.tail, firsts[1:],
                                               seconds[1:]))
                    warp.plan_qi = 0
                    plan_stats[0] += 1
                    plan_stats[1] += len(plan.members)
                else:
                    out = fn(warp)
                    if out.ndim != 2:
                        out = out[None, :]
                    half = (out.shape[0] + 1) // 2
                    first = out[:half]
                    second = out[half:]
            warp.retired += 1
            # Forwarding above emptied the tensor queue: these two writes
            # are all of it.
            spec = self.spec
            due = cycle + spec.hmma_latency_first_half
            if second.shape[0]:
                due2 = cycle + spec.hmma_latency_second_half
                warp.pending_tensor_writes = [
                    (due, aux, first, None),
                    (due2, aux + first.shape[0], second, None),
                ]
                warp.tensor_min_due = due if due < due2 else due2
            else:
                warp.pending_tensor_writes = [(due, aux, first, None)]
                warp.tensor_min_due = due
            occupancy = dec.occupancy
            pipes[pipe_key] = max(pipes[pipe_key], float(cycle)) + occupancy
            pipe_busy_total[pipe_key[0]] += occupancy
        elif kindc == _K_ALU:
            out = fn(warp)
            warp.retired += 1
            warp.defer_write(cycle + ALU_LATENCY, aux, out[None, :], None)
            occupancy = dec.occupancy
            if occupancy:
                pipes[pipe_key] = (
                    max(pipes[pipe_key], float(cycle)) + occupancy
                )
                pipe_busy_total[pipe_key[0]] += occupancy
        elif kindc == _K_LOAD:
            dest, width, bypass_l1 = aux
            price, data = fn(warp)
            warp.retired += 1
            if dec.mem_shared:   # price: the bank-conflict multiplier
                occupancy = dec.mem_cpi * price
                done = mio.push(cycle, occupancy)
                ready = int(done) + self.spec.lds_latency_cycles
            else:   # price: the addresses and their lane pattern
                summary = memsys.access(cycle, price[0], width, None,
                                        is_store=False, bypass_l1=bypass_l1,
                                        pattern=price[1])
                occupancy = (dec.mem_cpi if summary.level == "l1"
                             else dec.mem_cpi_l2)
                done = mio.push(cycle, occupancy)
                ready = max(summary.ready_cycle, int(done) + 1)
            pipe_busy_total["lsu"] += occupancy
            warp.defer_write(ready, dest, data, None)
            release = ready
        elif kindc == _K_STORE:
            price = fn(warp)
            warp.retired += 1
            if dec.mem_shared:
                occupancy = dec.mem_cpi * price
                done = mio.push(cycle, occupancy)
            else:
                occupancy = dec.mem_cpi
                done = mio.push(cycle, occupancy)
                memsys.access(int(done), price[0], aux, None, is_store=True,
                              bypass_l1=False, pattern=price[1])
            pipe_busy_total["lsu"] += occupancy
            release = int(done) + 1
        else:  # _K_PRED
            out = fn(warp)
            warp.retired += 1
            warp.preds.write(aux, out, mask=None)
            occupancy = dec.occupancy
            if occupancy:
                pipes[pipe_key] = (
                    max(pipes[pipe_key], float(cycle)) + occupancy
                )
                pipe_busy_total[pipe_key[0]] += occupancy

        if dec.write_bar != NO_BARRIER:
            bar_release = release
            if bar_release is None:
                bar_release = cycle + ALU_LATENCY
            scoreboards = warp.scoreboards
            if bar_release > scoreboards[dec.write_bar]:
                scoreboards[dec.write_bar] = bar_release
        if dec.read_bar != NO_BARRIER:
            scoreboards = warp.scoreboards
            if cycle + 2 > scoreboards[dec.read_bar]:
                scoreboards[dec.read_bar] = cycle + 2
        warp.pc += 1
        warp.next_issue = cycle + dec.issue_stall
