"""Decoded execution: the instruction compiler under both simulators.

The reference interpreter (:func:`repro.sim.exec_units.execute`) re-examines
every ``Instruction`` each time it retires: operand descriptors evaluated
afresh, fresh ``np.full`` immediates, and an ``Effects`` record that the
caller then unpacks.  For a GEMM that retires the same few hundred
instructions thousands of times, almost all of that work is loop-invariant.

:func:`predecode` moves it to launch time.  Every slot's semantics come from
the µop table (:mod:`repro.sim.uop`): ``decode_uop`` yields the operand
descriptors, lane kernel and dependence sets once, and this module merely
*compiles* them -- descriptors become bound row readers, the kernel is
called directly, and the scheduler metadata drives window fusion.  There is
no per-opcode lane math here.

Each program slot becomes one closure with its register indices, immediates,
predicate slot and kernel resolved once; executing an instruction is then a
single call that reads and writes the warp's register file directly.  A
slot compiles in two steps.  The *compute* step (:func:`compute_step`)
reads the operands and runs the kernel; a load also returns its addresses
and their lane pattern, and a store performs itself and returns those.
The *commit* step writes the result: here in place, while the event
timing engine (:mod:`repro.sim.timing`) compiles the same compute steps
and defers each write by the instruction's latency.  Groups of
independent MMAs likewise share one builder, :func:`mma_group`, which
returns every member's D: a fused window writes it at once, a timing
issue plan queues it per member.
A closure returns the control signal for the interval loop in
:mod:`repro.sim.functional`:

* ``None`` -- fall through to the slot's precomputed ``next_pc``;
* an ``int >= 0`` -- branch to that slot;
* :data:`EXITED` / :data:`BARRIER` -- the warp exits / arrives at a barrier;
* :data:`DIVERGED` -- (stacked decodings only, see below) the warps of a CTA
  stopped agreeing and lockstep execution must de-stack.

``predecode(program, lanes)`` compiles for any lane count: the lockstep
engine passes ``n_warps * 32`` so every closure operates on all of a CTA's
warps as one stacked array, and the default 32 serves one warp.  Stacked
closures must be warp-uniform; wherever per-warp behaviour could differ
(partial predicates, divergent branches, reference-only paths) the closure
returns :data:`DIVERGED` *before* mutating any state, and the caller
de-stacks the CTA onto the 32-lane decoding, run warp by warp.

On top of the per-slot closures, straight-line *windows* of schedulable
slots are fused: independent same-shape instructions (HMMA/IMMA, LDS/LDG,
STS/STG, MOV, IADD3/IMAD -- the inner loops of the generated kernels)
group into *batched* closures that execute with warp-wide NumPy gathers
and scatters.  An instruction joins a group only when no reordered pair
reads or overwrites what the other writes, so gather-all-then-scatter-all
is order-equivalent to sequential execution.  A window's head slot runs
the whole window; every member slot keeps its individual closure, which
a 32-lane window whose guard is mixed runs in order (see below).

Window boundaries: a window ends before any slot that cannot join one
(control flow, barriers, clock reads, reference-only paths), starts
afresh at every branch target -- so a loop's back edge enters a window at
its head -- and ends before a predicated slot whose predicate an earlier
member writes.

Guarded windows: a predicated slot with a fast path joins windows, so the
generated kernels' ``@P0 LDG`` prefetch and ``@P0 STS`` tile store ride
inside the HMMA stream.  A member's fusion key carries its guard, so a
group holds members under one guard only, and a window compiles one
schedule whatever its guards' values.  The window reads each distinct
guard predicate once, on entry.  When every guard is all-on or all-off
across the lanes, the groups and solo members under an on guard run
unpredicated and those under an off guard are skipped (they still
retire, as a predicated-off instruction does).  Groups of the same
instructions, which recur in one window when an unrolled loop's steps
reuse their registers, share one build.  The compiled window is
immutable, so threads share it as they share slots.  When a guard is
mixed across lanes, a stacked window returns :data:`DIVERGED` before any
member touches state, and the CTA de-stacks at the window head; a
32-lane window runs its members' own closures in program order, which
apply the masks.

Decoding is cached at two levels.  A program keeps its
:class:`DecodedProgram` (slot and window closures, ``next_pc``, ``lens``,
``reads_clock``, ``slot_ops``) in ``program.predecoded``, one per lane
count, so a relaunch of a cached kernel (:func:`repro.core.build_hgemm`
returns one shared program per kernel) looks nothing up and builds
nothing.  Below that, compiled code is cached by content, process-wide,
because GEMM launches replay a few fixed instruction streams across programs of
different shapes and addresses.  A slot compiles once per distinct
(instruction, lanes) pair and a fused window once per distinct sequence
of member slots, keyed by the members' slot ids plus the lane count, so
assembling a new program of known code compiles nothing.  The cache holds
at most ``SLOT_CACHE_BOUND`` slots and ``WINDOW_CACHE_BOUND`` windows,
evicting the oldest first.  Slots keep their lane-sized constant operands
(the operand readers are shared, so equal immediates and zero rows are
stored once per lane count); fused windows keep only window-sized index
arrays (an HMMA group moves its fragments as whole register rows, see
:func:`~repro.hmma.mma.mma_window`).  ``STATS`` counts
``decode.slot_hits``/``slot_misses`` and
``decode.window_hits``/``window_misses``.  Cached code keeps no state of
the memories it runs against: the address-pattern memo of unmasked
shared accesses lives on each :class:`~repro.sim.shared.SharedMemory`.
The timing engine calls :func:`compute_step` and :func:`mma_group`
once per run and caches nothing here; its timed steps' memos live and
die with that run.

Bit-exactness contract: every fast path runs the same lane kernels as the
reference executor -- integer ops wrap modulo 2**32 either way, permutation
gathers reorder but never transform values, and a fused HMMA window runs
its products as one stacked 3-D float32 matmul, each product one slice,
which NumPy computes with the same BLAS kernel as a 2-D product, so the
rounding sequence matches the reference exactly.  The golden
tests in ``tests/sim/test_golden_functional.py`` and the differential fuzz
suites in ``tests/sim/test_uop_differential.py`` (functional engines) and
``tests/sim/test_timing_differential.py`` (timing engines) pin this
equivalence.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict

import numpy as np

from ..arch.registers import WARP_LANES
from ..hmma import mma as mma_ops
from ..isa.operands import SpecialReg, PT_INDEX, RZ_INDEX
from ..perf import STATS
from .exec_units import ExecError, execute
from .memory import PATTERN_MEMO_BOUND, lane_pattern
from .uop import (
    MEM_GLOBAL as _MEM_GLOBAL,
    MEM_SHARED as _MEM_SHARED,
    MMA_BATCH_KERNELS,
    SOLO,
    decode_uop,
    k_iadd3,
    k_imad,
)

__all__ = ["BARRIER", "DIVERGED", "EXITED", "CodeCache", "DecodedProgram",
           "compute_step", "mma_group", "predecode"]

#: Control signals returned by decoded-op closures (negative so that any
#: non-negative return value can be a branch-target slot).
EXITED = -1
BARRIER = -2
#: Stacked (multi-warp) closures return this -- before touching any state --
#: when the CTA's warps stop agreeing and must be executed per warp.
DIVERGED = -3

_MEM_TOKENS = frozenset((_MEM_GLOBAL, _MEM_SHARED))

#: Marker key for schedulable-but-not-batchable slots: they join a window as
#: single-member groups (keeping it unbroken) and run their fast path.
_SOLO = None


class DecodedProgram:
    """Slot-indexed decoded form of one :class:`~repro.isa.program.Program`.

    Parallel tuples, indexed by slot (= instruction index), shared by
    every launch of the program and by threads:

    * ``run_fns`` -- the closure executing the slot (a fused window's
      head runs the whole window);
    * ``next_pc`` -- fall-through successor (``pc + 1``, or ``pc + g`` for a
      fused run of ``g`` instructions);
    * ``lens`` -- instructions retired per execution (``g`` for fused runs);
    * ``reads_clock`` -- slot reads ``SR_CLOCKLO/HI``, so the interval loop
      must sync ``warp.retired`` before calling it;
    * ``slot_ops`` -- tuple of ``(opcode, count)`` pairs retired per
      execution (several pairs for a fused window), used by
      :meth:`accumulate` to expand per-slot execution counters into the
      per-opcode retire counts of a :class:`FunctionalResult`.

    ``lanes`` records the lane count the closures were compiled for (32 for
    one warp; ``n_warps * 32`` for a lockstep stacking).
    """

    __slots__ = ("n", "run_fns", "next_pc", "lens", "reads_clock",
                 "slot_ops", "lanes")

    def __init__(self, n, run_fns, next_pc, lens, reads_clock, slot_ops,
                 lanes=WARP_LANES):
        self.n = n
        self.run_fns = run_fns
        self.next_pc = next_pc
        self.lens = lens
        self.reads_clock = reads_clock
        self.slot_ops = slot_ops
        self.lanes = lanes

    def new_counts(self) -> list:
        """Fresh per-slot execution counters for one launch."""
        return [0] * self.n

    def accumulate(self, counts, result) -> int:
        """Fold per-slot execution *counts* into *result* (a
        FunctionalResult); returns the executions, ``sum(counts)``."""
        opcode_counts = result.opcode_counts
        total = calls = 0
        for slot, executed in enumerate(counts):
            if not executed:
                continue
            calls += executed
            for opcode, per_exec in self.slot_ops[slot]:
                retired = executed * per_exec
                total += retired
                opcode_counts[opcode] = opcode_counts.get(opcode, 0) + retired
        result.instructions_retired += total
        return calls


# ----------------------------------------------------- descriptor compilation

def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _special_getter(name, lanes):
    """fn(warp) -> (lanes,) array for a special register, or None."""
    if name == "SR_TID.X":
        return lambda warp: warp.tid
    if name in ("SR_TID.Y", "SR_TID.Z", "SRZ"):
        zeros = _frozen(np.zeros(lanes, dtype=np.uint32))
        return lambda warp: zeros
    if name == "SR_CTAID.X":
        return lambda warp: np.full(lanes, warp.ctaid[0], dtype=np.uint32)
    if name == "SR_CTAID.Y":
        return lambda warp: np.full(lanes, warp.ctaid[1], dtype=np.uint32)
    if name == "SR_CTAID.Z":
        return lambda warp: np.full(lanes, warp.ctaid[2], dtype=np.uint32)
    if name == "SR_LANEID":
        return lambda warp: warp.lane_ids
    if name == "SR_CLOCKLO":
        return lambda warp: np.full(
            lanes, warp.clock() & 0xFFFFFFFF, dtype=np.uint32)
    if name == "SR_CLOCKHI":
        return lambda warp: np.full(
            lanes, (warp.clock() >> 32) & 0xFFFFFFFF, dtype=np.uint32)
    return None


@functools.lru_cache(maxsize=2048)
def _make_reader(desc, lanes):
    """Compile one µop source descriptor to fn(warp) -> array, or None.

    Readers are pure functions of (desc, lanes), so the slots of every
    cached program share them and their lane-sized constants."""
    kind = desc[0]
    if kind == "reg":
        index = desc[1]
        if index == RZ_INDEX:
            zeros = _frozen(np.zeros(lanes, dtype=np.uint32))
            return lambda warp: zeros
        return lambda warp: warp.regs._data[index]
    if kind == "reg_i32":
        index = desc[1]
        if index == RZ_INDEX:
            zeros = _frozen(np.zeros(lanes, dtype=np.int32))
            return lambda warp: zeros
        return lambda warp: warp.regs._data[index].view(np.int32)
    if kind == "regs":
        index, count = desc[1], desc[2]
        return lambda warp: warp.regs._data[index:index + count]
    if kind == "imm":
        const = _frozen(np.full(lanes, desc[1], dtype=np.uint32))
        return lambda warp: const
    if kind == "imm_i32":
        const = np.full(lanes, desc[1], dtype=np.uint32).view(np.int32)
        const.setflags(write=False)
        return lambda warp: const
    if kind == "pred":
        index, negated = desc[1], desc[2]
        if negated:
            return lambda warp: ~warp.preds._data[index]
        return lambda warp: warp.preds._data[index]
    return _special_getter(desc[1], lanes)   # ("sr", ...) / ("sr_i32", ...)


# ------------------------------------------- compute and commit (see above)

def compute_step(uop, lanes, timed=False):
    """The compute step of *uop* at *lanes*, or None when the slot has no
    fast path (the reference path runs it).

    The step is ``fn(warp)``.  An ALU µop returns its kernel's output (a
    one-source µop -- the MOV family, or IADD3 with one term -- returns
    its source row itself, which may be a live register row).  A load
    returns ``(price, data)``; a store writes memory and returns its
    price.  The *price*, what the timing model prices the access by, is
    its addresses and their :func:`~repro.sim.memory.lane_pattern`.
    Slots whose operands fall outside the fast path (``groups_ok`` false:
    register groups at or past RZ, writes to RZ) get None.

    A *timed* shared access (the event timing engine's) is priced by its
    bank-conflict multiplier instead, and its step memoises each valid
    access by the raw lanes of its base register, so a repeat costs one
    lookup for both its word indices and its multiplier.  The memo lives
    as long as the step, and assumes every warp the step serves has a
    shared memory of one size, as the CTAs of one launch do; so lockstep,
    whose slots outlive a launch, never gets one.
    """
    if not uop.groups_ok:
        return None
    if uop.kind == "alu":
        return _compute_alu(uop, lanes)
    if uop.kind in ("load", "store"):
        if timed and uop.mem.space == "shared":
            return _compute_shared_timed(uop)
        return _compute_mem(uop)
    return None


def _compute_alu(uop, lanes):
    # Special-register sources feed lane kernels through the reference path
    # only (their getters may return non-uint32 lane indices); the identity
    # move (kernel None) returns them directly, and its commit casts.
    if uop.kernel is not None and any(
            d[0] in ("sr", "sr_i32") for d in uop.srcs):
        return None
    readers = []
    for desc in uop.srcs:
        reader = _make_reader(desc, lanes)
        if reader is None:
            return None
        if desc[0] == "sr_i32":
            getter = reader
            reader = (lambda warp, _g=getter: _g(warp).view(np.int32))
        readers.append(reader)
    kernel = uop.kernel
    if kernel is None:
        (r0,) = readers
        return r0
    if len(readers) == 1:
        (r0,) = readers
        return lambda warp: kernel(r0(warp))
    if len(readers) == 2:
        r0, r1 = readers
        return lambda warp: kernel(r0(warp), r1(warp))
    if len(readers) == 3:
        r0, r1, r2 = readers
        return lambda warp: kernel(r0(warp), r1(warp), r2(warp))
    return lambda warp: kernel(*[r(warp) for r in readers])


def _compute_mem(uop):
    # An RZ base reads register-file row 255, which stays all-zero.
    mem = uop.mem
    mem_attr = "global_mem" if mem.space == "global" else "shared_mem"
    bi, offset, width = mem.base_index, mem.offset, mem.width
    if mem.is_store:
        si, words = mem.reg, mem.words

        def store(warp):
            addresses = warp.regs._data[bi].astype(np.int64)
            addresses += offset
            return addresses, getattr(warp, mem_attr).store_pattern(
                addresses, warp.regs._data[si:si + words], width)
        return store

    def load(warp):
        addresses = warp.regs._data[bi].astype(np.int64)
        addresses += offset
        pattern, data = getattr(warp, mem_attr).load_pattern(addresses, width)
        return (addresses, pattern), data
    return load


def _compute_shared_timed(uop):
    mem = uop.mem
    bi, offset, width = mem.base_index, mem.offset, mem.width
    memo = {}   # raw base lanes -> (word indices, bank-conflict multiplier)

    def remember(warp, key):
        # An invalid access raises here, as an untimed one does, and is
        # never stored.
        addresses = warp.regs._data[bi].astype(np.int64)
        addresses += offset
        pattern = lane_pattern(addresses)
        shared = warp.shared_mem
        entry = (shared._pattern_indices(addresses, width, pattern),
                 shared.pattern_conflicts(addresses, width, pattern))
        if len(memo) >= PATTERN_MEMO_BOUND:
            memo.clear()
        memo[key] = entry
        return entry

    if mem.is_store:
        si, words = mem.reg, mem.words

        def store(warp):
            key = warp.regs._data[bi].tobytes()
            idx, mult = memo.get(key) or remember(warp, key)
            warp.shared_mem._words[idx] = warp.regs._data[si:si + words]
            return mult
        return store

    def load(warp):
        key = warp.regs._data[bi].tobytes()
        idx, mult = memo.get(key) or remember(warp, key)
        return mult, warp.shared_mem._words[idx]
    return load


def _commit(uop, compute):
    """Lockstep's commit step: *compute*'s result written in place.  The
    closure returns None (fall through), as every fast path must."""
    if uop.kind == "store":
        def run(warp):
            compute(warp)
        return run
    kind, d = uop.dest[0], uop.dest[1]
    if kind == "pred":
        if d == PT_INDEX:
            return lambda warp: None  # writes to PT are discarded

        def run(warp):
            warp.preds._data[d] = compute(warp)
        return run
    words = uop.dest[2]
    if uop.kind == "load":
        def run(warp):
            warp.regs._data[d:d + words] = compute(warp)[1]
    elif words > 1:
        def run(warp):
            warp.regs._data[d:d + words] = compute(warp)
    else:
        def run(warp):
            warp.regs._data[d] = compute(warp)
    return run


def _reads_clock(inst) -> bool:
    return any(isinstance(op, SpecialReg) and op.name in ("SR_CLOCKLO", "SR_CLOCKHI")
               for op in inst.srcs)


# -------------------------------------------------------- control + fallback

def _build_exit(inst, lanes):
    if inst.pred is None:
        return lambda warp: EXITED
    pi, negated = inst.pred.index, inst.pred.negated
    if lanes != WARP_LANES:
        # Stacked: a partial predicate may still be warp-uniform per warp --
        # de-stack and let per-warp execution sort it out.
        if negated:
            def run(warp):
                active = warp.preds._data[pi]
                if not active.any():
                    return EXITED
                if active.all():
                    return None
                return DIVERGED
        else:
            def run(warp):
                active = warp.preds._data[pi]
                if active.all():
                    return EXITED
                if not active.any():
                    return None
                return DIVERGED
        return run
    if negated:
        def run(warp):
            return EXITED if not warp.preds._data[pi].any() else None
    else:
        def run(warp):
            return EXITED if warp.preds._data[pi].all() else None
    return run


def _build_bra(inst, lanes):
    target = inst.target_index
    if inst.pred is None:
        if target is None:
            return lambda warp: None  # unresolved target falls through
        return lambda warp: target
    pi, negated = inst.pred.index, inst.pred.negated
    if lanes != WARP_LANES:
        if negated:
            def run(warp):
                active = warp.preds._data[pi]
                if not active.any():
                    return target
                if active.all():
                    return None
                return DIVERGED
        else:
            def run(warp):
                active = warp.preds._data[pi]
                if active.all():
                    return target
                if not active.any():
                    return None
                return DIVERGED
        return run
    if negated:
        def run(warp):
            active = warp.preds._data[pi]
            if not active.any():
                return target
            if active.all():
                return None
            raise ExecError(
                "divergent branch: this subset requires warp-uniform branch "
                f"predicates ({int(WARP_LANES - active.sum())}/32 lanes taken)")
    else:
        def run(warp):
            active = warp.preds._data[pi]
            if active.all():
                return target
            if not active.any():
                return None
            raise ExecError(
                "divergent branch: this subset requires warp-uniform branch "
                f"predicates ({int(active.sum())}/32 lanes taken)")
    return run


def _build_generic(inst, lanes):
    """Exact reference semantics: evaluate through ``execute`` and apply the
    Effects the same way the reference interval loop does.  Reference
    contexts are 32-lane, so stacked decodings de-stack instead."""
    if lanes != WARP_LANES:
        return lambda warp: DIVERGED

    def run(warp):
        eff = execute(inst, warp)
        for first_reg, values, mask in eff.reg_writes:
            warp.regs.write_group(
                first_reg, values, mask=None if mask.all() else mask)
        for index, values, mask in eff.pred_writes:
            warp.preds.write(index, values, mask=None if mask.all() else mask)
        if eff.exited:
            return EXITED
        if eff.branch_target is not None:
            return eff.branch_target
        if eff.barrier:
            return BARRIER
        return None
    return run


def _guarded(fast, generic, pred):
    """Predicate wrapper: all lanes on -> fast path; all off -> retire as a
    no-op; partial -> the reference path (which owns masked semantics; on a
    stacked decoding it returns :data:`DIVERGED` instead)."""
    pi, negated = pred.index, pred.negated
    if negated:
        def run(warp):
            active = warp.preds._data[pi]
            if not active.any():
                return fast(warp)
            if active.all():
                return None
            return generic(warp)
    else:
        def run(warp):
            active = warp.preds._data[pi]
            if active.all():
                return fast(warp)
            if not active.any():
                return None
            return generic(warp)
    return run


def _decode_one(inst, lanes):
    """-> (closure, fast): *fast* is the slot's fast path with its guard
    predicate ignored, or None.  A fast path is pure -- it returns None
    and never refuses -- so a composite window, whose parts' return values
    are ignored, may run it once the window has checked the guard."""
    opcode = inst.opcode
    if opcode == "EXIT":
        return _build_exit(inst, lanes), None
    if opcode == "BAR":
        return (lambda warp: BARRIER), None  # arrives regardless of predication
    if opcode == "BRA":
        return _build_bra(inst, lanes), None
    if opcode == "NOP":
        def noop(warp):
            return None
        return noop, noop if inst.pred is None else None
    generic = _build_generic(inst, lanes)
    try:
        uop = decode_uop(inst)
    except Exception:
        return generic, None  # malformed: the reference path raises at exec
    compute = compute_step(uop, lanes)
    if compute is None:
        return generic, None
    fast = _commit(uop, compute)
    if inst.pred is None:
        return fast, fast
    return _guarded(fast, generic, inst.pred), fast


# -------------------------------------------------------------- fusion layer
#
# Generated kernels software-pipeline their inner loops (LDS and HMMA
# interleave 1:1), so batching only *consecutive* same-opcode runs would fuse
# almost nothing.  Instead, predecode finds maximal straight-line *windows*
# of schedulable slots and list-schedules each one: instructions with the
# same fusion key collect into a batch, reordered across unrelated neighbours
# when the dependence check proves the reorder is observation-equivalent.
#
# Keys, payloads and dependence sets all come from the µop table; this layer
# only groups them.  Dependence sets contain GPR indices (ints), predicate
# tokens ``("p", i)`` and whole-space memory tokens (loads read / stores
# write their space -- exact aliasing is unknown statically, so a space is
# one location).  Reads of RZ batch as gathers of register-file row 255,
# which stays all-zero because writes to RZ are discarded.

def _fuse_entry(inst, fast, guard):
    """(key, reads, writes, payload) when *inst*, whose fast path is
    *fast*, can join a fused window.  The key pairs the µop's fusion key
    with the slot's *guard*, so members group only under one guard."""
    if fast is None:
        return None
    try:
        uop = decode_uop(inst)
    except Exception:
        return None
    if uop.reads_clock or not uop.groups_ok or uop.fuse_key is None:
        return None
    key = _SOLO if uop.fuse_key == SOLO else (uop.fuse_key, guard)
    return key, uop.reads, uop.writes, uop.fuse_payload


def mma_group(key, payloads):
    """``(d_rows, run)`` of a group of independent MMAs with fusion *key*
    and fuse payloads ``(d, a, b, c)``: ``run(regs)`` reads every member's
    operands from a ``(256, lanes)`` register file and returns each
    member's D, ``(g, c_words, lanes)``, without writing it; ``d_rows``
    ``(g, c_words)`` are the registers it belongs in.

    HMMA runs :func:`~repro.hmma.mma.mma_window`'s whole-register
    converter, IMMA the ``imma_8816_batch`` kernel.  The lockstep window
    writes ``regs[d_rows]`` (:func:`_build_mma_group`); the event timing
    engine's issue plans queue one D per member.
    """
    batch_fn, c_words = MMA_BATCH_KERNELS[key]
    d, a, b, c = (np.array(col, dtype=np.intp) for col in zip(*payloads))
    words = np.arange(c_words, dtype=np.intp)
    if key[0] == "hmma":
        run = mma_ops.mma_window(key[1], key[2], a, b, c)
    else:   # IMMA.8816: A and B are one register each
        c_rows = c[:, None] + words

        def run(regs):
            return batch_fn(regs[a], regs[b], regs[c_rows])
    return d[:, None] + words, run


def _build_mma_group(key, payloads):
    """Every MMA group: :func:`mma_group`'s D written back as whole rows."""
    d_rows, compute = mma_group(key, payloads)

    def run(warp):
        regs = warp.regs._data
        regs[d_rows] = compute(regs)
    return run


def _build_mem_group(key, payloads):
    _, opcode, width = key
    is_store = opcode in ("STS", "STG")
    mem_attr = "global_mem" if opcode in ("LDG", "STG") else "shared_mem"
    g = len(payloads)
    words = width // 4
    reg_idx = np.array([[p[0] + i for i in range(words)] for p in payloads],
                       dtype=np.intp)
    base_idx = np.array([p[1] for p in payloads], dtype=np.intp)
    offsets = np.array([p[2] for p in payloads], dtype=np.int64).reshape(g, 1)

    if is_store:
        def run(warp):
            regs = warp.regs._data
            addresses = regs[base_idx].astype(np.int64) + offsets
            getattr(warp, mem_attr).store_warp_batch(addresses, regs[reg_idx], width)
    else:
        def run(warp):
            regs = warp.regs._data
            addresses = regs[base_idx].astype(np.int64) + offsets
            regs[reg_idx] = getattr(warp, mem_attr).load_warp_batch(addresses, width)
    return run


def _build_mov_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    if key[1] == "r":
        s_idx = np.array([p[1] for p in payloads], dtype=np.intp)

        def run(warp):
            regs = warp.regs._data
            regs[d_idx] = regs[s_idx]
    else:
        values = _frozen(
            np.array([p[1] for p in payloads], dtype=np.uint32).reshape(-1, 1))

        def run(warp):
            warp.regs._data[d_idx] = values
    return run


def _group_terms(key, payloads):
    """Per-source-position batched term arrays for IADD3/IMAD groups."""
    signature = key[1]
    terms = []
    for pos, kind in enumerate(signature):
        if kind == "r":
            terms.append(("r", np.array([p[1][pos] for p in payloads],
                                        dtype=np.intp)))
        else:
            col = _frozen(np.array([p[1][pos] for p in payloads],
                                   dtype=np.uint32).reshape(-1, 1))
            terms.append(("i", col))
    return terms


def _build_iadd3_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    terms = _group_terms(key, payloads)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = k_iadd3(
            *[regs[arr] if kind == "r" else arr for kind, arr in terms])
    return run


def _build_imad_group(key, payloads):
    d_idx = np.array([p[0] for p in payloads], dtype=np.intp)
    (ka, ta), (kb, tb), (kc, tc) = _group_terms(key, payloads)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = k_imad(regs[ta] if ka == "r" else ta,
                             regs[tb] if kb == "r" else tb,
                             regs[tc] if kc == "r" else tc)
    return run


_GROUP_BUILDERS = {
    "hmma": _build_mma_group,
    "imma": _build_mma_group,
    "load": _build_mem_group,
    "store": _build_mem_group,
    "mov": _build_mov_group,
    "iadd3": _build_iadd3_group,
    "imad": _build_imad_group,
}


# ----------------------------------------------------------- window scheduler

class _Group:
    """One batch being assembled while scheduling a window."""

    __slots__ = ("key", "reads", "writes", "payloads", "slots")

    def __init__(self, key, reads, writes, payload, slot):
        self.key = key
        self.reads = set(reads)
        self.writes = set(writes)
        self.payloads = [payload]
        self.slots = [slot]


def _schedule_window(fuse):
    """List-schedule a window's slots (their *fuse* entries) into ordered
    groups whose ``slots`` index *fuse*.

    Groups execute in first-appearance order, members in original order.
    Instruction *j* may join the open group of its key only when the move is
    observation-equivalent: *j* must not depend on -- nor be depended on by --
    any member of a group scheduled after its own (those members originally
    precede *j* but will execute after it), and within its own group *j* must
    not read or overwrite anything the group already writes (the batch
    gathers every operand before it scatters any result).  Stores batch over
    their whole-space memory token: duplicate scatter indices resolve last-
    wins in member order, matching sequential stores exactly.
    """
    groups = []
    open_group = {}  # key -> index of the newest group with that key
    for slot, (key, reads, writes, payload) in enumerate(fuse):
        placed = False
        gi = open_group.get(key) if key is not _SOLO else None
        if gi is not None:
            group = groups[gi]
            own_writes = group.writes - _MEM_TOKENS
            if not ((reads - _MEM_TOKENS) & own_writes
                    or (writes - _MEM_TOKENS) & own_writes):
                ok = True
                for later in groups[gi + 1:]:
                    if (writes & later.reads or writes & later.writes
                            or reads & later.writes):
                        ok = False
                        break
                if ok:
                    group.reads |= reads
                    group.writes |= writes
                    group.payloads.append(payload)
                    group.slots.append(slot)
                    placed = True
        if not placed:
            groups.append(_Group(key, reads, writes, payload, slot))
            if key is not _SOLO:
                open_group[key] = len(groups) - 1
    return groups


# --------------------------------------------------------------- code cache
#
# Keys, bounds and memory: see the module docstring.  Compiled code holds
# no per-run state (counters live in the caller), so programs and threads
# can share it.

#: Entry bounds.  One round of perfbench's ``remote_layers`` workload
#: touches 3,110 distinct slots and 176 windows, one ``gemm_verify`` round
#: 2,805 and 71; the bounds hold both working sets at once.
SLOT_CACHE_BOUND = 8192
WINDOW_CACHE_BOUND = 1024


class CodeCache:
    """Bounded content-keyed map; the oldest insertion is evicted first.

    Lookups are lock-free dict reads.  Inserts and evictions hold a lock,
    so threads filling it at once can at worst compile an entry twice,
    each copy correct.  The kernel builder's launch cache
    (:func:`repro.core.build_hgemm`) is one too.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        #: key -> entry or None (the dict's own method: one C call per slot)
        self.get = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.bound:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_SLOTS = CodeCache(SLOT_CACHE_BOUND)
_WINDOWS = CodeCache(WINDOW_CACHE_BOUND)
#: Slot ids; never reused, so a window key naming an evicted slot can
#: only miss.
_SLOT_IDS = itertools.count()
#: opcode -> the ``slot_ops`` entry of one unfused slot, shared by all.
_SINGLE_OPS: dict = {}


class _Slot:
    """Compiled form of one (instruction, lanes) pair: its closure, its
    fast path (None when it has none), its guard -- ``(predicate index,
    negated)`` of a predicated slot with a fast path, else None -- its
    fusion entry (None when it cannot join a window), clock read and
    retire counts."""

    __slots__ = ("uid", "run", "fast", "guard", "fuse", "reads_clock", "ops")

    def __init__(self, inst, lanes):
        self.uid = next(_SLOT_IDS)
        self.run, self.fast = _decode_one(inst, lanes)
        self.guard = (None if self.fast is None or inst.pred is None
                      else (inst.pred.index, inst.pred.negated))
        self.fuse = _fuse_entry(inst, self.fast, self.guard)
        self.reads_clock = _reads_clock(inst)
        self.ops = _SINGLE_OPS.setdefault(inst.opcode, ((inst.opcode, 1),))


class _Window:
    """Compiled code of one fused window: an immutable code-cache entry.

    ``parts`` are ``(guard, part)`` pairs in run order: a batched group
    or a member's fast path, under its members' guard (None when they
    are unpredicated).  ``preds`` are the distinct predicate indices the
    guards read, ascending; ``runs`` the members' own closures, which a
    32-lane window runs when a guard is mixed; ``run`` the closure the
    window's head slot runs.  Groups of the same instructions recur in
    one window (an unrolled k-loop's steps reuse their fragment and
    accumulator registers); they share one build.
    """

    __slots__ = ("runs", "stacked", "preds", "parts", "ops", "run")

    def __init__(self, members, lanes, groups):
        self.runs = tuple(member.run for member in members)
        self.stacked = lanes != WARP_LANES
        self.preds = tuple(sorted({m.guard[0] for m in members if m.guard}))
        built = {}   # (fusion key, payloads) -> its group's part
        parts = []
        for group in groups:
            if group.key is not _SOLO and len(group.payloads) >= 2:
                key, guard = group.key
                payloads = tuple(group.payloads)
                part = built.get((key, payloads))
                if part is None:
                    part = built[key, payloads] = _GROUP_BUILDERS[key[0]](
                        key, payloads)
                parts.append((guard, part))
            else:
                parts.extend((members[i].guard, members[i].fast)
                             for i in group.slots)
        self.parts = tuple(parts)
        ops = []
        for member in members:
            opcode = member.ops[0][0]
            if ops and ops[-1][0] == opcode:
                ops[-1] = (opcode, ops[-1][1] + 1)
            else:
                ops.append((opcode, 1))
        self.ops = tuple(ops)
        self.run = _window_run(self)


def _compile_window(members, lanes):
    """The fused window over slots *members*, or () when scheduling them
    batches nothing (composition would only add indirection)."""
    groups = _schedule_window([m.fuse for m in members])
    if not any(g.key is not _SOLO and len(g.payloads) >= 2 for g in groups):
        return ()
    return _Window(members, lanes, groups)


def _window_run(window):
    """The closure running *window*: check its guards, then run the parts
    whose guard is on."""
    parts, preds = window.parts, window.preds
    stacked, runs = window.stacked, window.runs

    def run(warp):
        rows = warp.preds._data
        on = {}
        for pi in preds:
            row = rows[pi]
            if row.all():
                on[pi] = True
            elif not row.any():
                on[pi] = False
            elif stacked:
                return DIVERGED   # read-only so far: the CTA de-stacks here
            else:
                for member in runs:   # masked: each member on its own
                    member(warp)
                return None
        for guard, part in parts:
            if guard is None or on[guard[0]] != guard[1]:
                part(warp)
    return run


def _window_end(entries, start, targets) -> int:
    """End of the window that opens at slot *start*: it runs to the first
    slot that cannot join a window, is a branch target, or is guarded by
    a predicate an earlier member writes."""
    written = set(entries[start].fuse[2])
    end = start + 1
    while end < len(entries):
        entry = entries[end]
        if (entry.fuse is None or end in targets
                or entry.guard and ("p", entry.guard[0]) in written):
            break
        written |= entry.fuse[2]
        end += 1
    return end


def _assemble(program, lanes) -> tuple:
    """(decoded program, window keys looked up, hit and miss counters) of
    *program* at *lanes*, looking up (and compiling on a miss) every slot
    and window in the code cache."""
    slots, windows = _SLOTS, _WINDOWS
    entries = []
    slot_misses = 0
    for inst in program.instructions:
        key = (inst, lanes)
        entry = slots.get(key)
        if entry is None:
            entry = _Slot(inst, lanes)
            slots.put(key, entry)
            slot_misses += 1
        entries.append(entry)
    n = len(entries)
    run_fns = [entry.run for entry in entries]
    next_pc = list(range(1, n + 1))
    lens = [1] * n
    slot_ops = [entry.ops for entry in entries]
    targets = {inst.target_index for inst in program.instructions
               if inst.opcode == "BRA"}

    window_misses = lookups = 0
    start = 0
    while start < n:
        if entries[start].fuse is None:
            start += 1
            continue
        end = _window_end(entries, start, targets)
        if end - start >= 2:
            members = entries[start:end]
            key = (lanes, *[member.uid for member in members])
            lookups += 1
            window = windows.get(key)
            if window is None:
                window = _compile_window(members, lanes)
                windows.put(key, window)
                window_misses += 1
            if window:
                run_fns[start] = window.run
                next_pc[start] = end
                lens[start] = end - start
                slot_ops[start] = window.ops
        start = end

    decoded = DecodedProgram(
        n, tuple(run_fns), tuple(next_pc), tuple(lens),
        tuple(entry.reads_clock for entry in entries), tuple(slot_ops),
        lanes)
    return decoded, lookups, {"decode.slot_hits": n - slot_misses,
                              "decode.slot_misses": slot_misses,
                              "decode.window_hits": lookups - window_misses,
                              "decode.window_misses": window_misses}


# ---------------------------------------------------------------- predecode

def predecode(program, lanes: int = WARP_LANES) -> DecodedProgram:
    """Decode *program* into slot-indexed closures plus fused windows.

    ``lanes`` selects the lane count the closures operate on: 32 (default)
    for per-warp execution, ``n_warps * 32`` for the lockstep engine.
    The first call at a lane count assembles the program's decoding from
    the process-wide code cache (see the module docstring) and keeps it in
    ``program.predecoded``; later calls return it, build nothing, and
    count every slot and window as a hit.  The call adds its slot and
    window hits and misses to ``STATS`` once.
    """
    cached = program.predecoded.get(lanes)
    if cached is None:
        decoded, lookups, counts = _assemble(program, lanes)
        program.predecoded[lanes] = decoded, lookups
    else:
        decoded, lookups = cached
        counts = {"decode.slot_hits": decoded.n,
                  "decode.window_hits": lookups}
    for name, amount in counts.items():
        if amount:
            STATS.count(name, amount)
    return decoded
