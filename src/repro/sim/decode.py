"""Decoded execution for the functional simulator's lockstep engine.

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
closure returns the control signal for the interval loop in
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

On top of the per-slot closures, maximal runs of consecutive independent
same-shape instructions (HMMA/IMMA, LDS/LDG, STS/STG, MOV, IADD3/IMAD --
the inner loops of the generated kernels) are fused into *batched* closures
that execute the whole run with warp-wide NumPy gathers and scatters.
Fusion is only applied when no instruction in the run reads or overwrites a
register written earlier in the run, so gather-all-then-scatter-all is
order-equivalent to sequential execution; branches into the middle of a
fused run still work because every member slot keeps its individual closure.

Decoding is cached at two levels.  A program keeps its assembled tables
(slot closures, ``next_pc``, ``lens``, ``reads_clock``, ``slot_ops`` and
each fused window's parts) in ``program.predecoded``, one set per lane
count, so a relaunch of a cached kernel (:func:`repro.core.build_hgemm`
returns one shared program per kernel) looks nothing up per instruction.
Below that, compiled code is cached by content, process-wide, because
GEMM launches replay a few fixed instruction streams across programs of
different shapes and addresses.  A slot compiles once per distinct
(instruction, lanes) pair and a fused window once per distinct sequence
of member slots, keyed by the members' slot ids plus the lane count, so
assembling a new program of known code compiles nothing.  The cache holds
at most ``SLOT_CACHE_BOUND`` slots and ``WINDOW_CACHE_BOUND`` windows,
evicting the oldest first.  Slots keep their lane-sized constant operands
(the operand readers are shared, so equal immediates and zero rows are
stored once per lane count); the HMMA windows' flat index tables, 8 bytes
per gathered element, are rebuilt by every predecode call and die with
its launch.  ``STATS`` counts ``decode.slot_hits``/``slot_misses`` and
``decode.window_hits``/``window_misses``.

Bit-exactness contract: every fast path runs the same lane kernels as the
reference executor -- integer ops wrap modulo 2**32 either way, permutation
gathers reorder but never transform values, and a fused HMMA window runs
its products as one stacked 3-D float32 matmul, each product one slice,
which NumPy computes with the same BLAS kernel as a 2-D product, so the
rounding sequence matches the reference exactly.  The golden
tests in ``tests/sim/test_golden_functional.py`` and the differential fuzz
suite in ``tests/sim/test_uop_differential.py`` pin this equivalence.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict, namedtuple

import numpy as np

from ..arch.registers import WARP_LANES
from ..hmma import mma as mma_ops
from ..isa.operands import SpecialReg, PT_INDEX, RZ_INDEX
from ..perf import STATS
from .exec_units import ExecError, execute
from .uop import (
    MEM_GLOBAL as _MEM_GLOBAL,
    MEM_SHARED as _MEM_SHARED,
    MMA_BATCH_KERNELS,
    SOLO,
    decode_uop,
    k_iadd3,
    k_imad,
    mma_row_index,
)

__all__ = ["BARRIER", "DIVERGED", "EXITED", "CodeCache", "DecodedProgram",
           "predecode"]

#: Control signals returned by decoded-op closures (negative so that any
#: non-negative return value can be a branch-target slot).
EXITED = -1
BARRIER = -2
#: Stacked (multi-warp) closures return this -- before touching any state --
#: when the CTA's warps stop agreeing and must be executed per warp.
DIVERGED = -3

_MEM_TOKENS = frozenset((_MEM_GLOBAL, _MEM_SHARED))

#: Marker key for schedulable-but-not-batchable slots: they join a window as
#: single-member groups (keeping it unbroken) and run their own closure.
_SOLO = None


class DecodedProgram:
    """Slot-indexed decoded form of one :class:`~repro.isa.program.Program`.

    Parallel sequences, indexed by slot (= instruction index); all but
    ``run_fns`` are tuples shared by every launch of the program:

    * ``run_fns`` -- the closure executing the slot (a list of this
      launch's own, since fused-window heads hold per-launch state);
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

    def accumulate(self, counts, result) -> None:
        """Fold per-slot execution *counts* into *result* (a FunctionalResult)."""
        opcode_counts = result.opcode_counts
        total = 0
        for slot, executed in enumerate(counts):
            if not executed:
                continue
            for opcode, per_exec in self.slot_ops[slot]:
                retired = executed * per_exec
                total += retired
                opcode_counts[opcode] = opcode_counts.get(opcode, 0) + retired
        result.instructions_retired += total


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
            lanes, warp.retired & 0xFFFFFFFF, dtype=np.uint32)
    if name == "SR_CLOCKHI":
        return lambda warp: np.full(
            lanes, (warp.retired >> 32) & 0xFFFFFFFF, dtype=np.uint32)
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


def _compile_alu(uop, lanes):
    # Special-register sources feed lane kernels through the reference path
    # only (their getters may return non-uint32 lane indices); the identity
    # move (kernel None) assigns them directly, which casts.
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
    dest = uop.dest
    if dest[0] == "pred":
        di = dest[1]
        if di == PT_INDEX:
            return lambda warp: None  # writes to PT are discarded
        r0, r1, r2 = readers

        def run(warp):
            warp.preds._data[di] = kernel(r0(warp), r1(warp), r2(warp))
        return run
    d, words = dest[1], dest[2]
    if kernel is None:
        (r0,) = readers

        def run(warp):
            warp.regs._data[d] = r0(warp)
        return run
    if words > 1:
        r0, r1, r2 = readers

        def run(warp):
            warp.regs._data[d:d + words] = kernel(r0(warp), r1(warp), r2(warp))
        return run
    if len(readers) == 2:
        r0, r1 = readers

        def run(warp):
            warp.regs._data[d] = kernel(r0(warp), r1(warp))
        return run
    if len(readers) == 3:
        r0, r1, r2 = readers

        def run(warp):
            warp.regs._data[d] = kernel(r0(warp), r1(warp), r2(warp))
        return run

    def run(warp):
        warp.regs._data[d] = kernel(*[r(warp) for r in readers])
    return run


def _compile_mem(uop, lanes):
    mem = uop.mem
    mem_attr = "global_mem" if mem.space == "global" else "shared_mem"
    width = mem.width
    words = mem.words
    offset = mem.offset
    if mem.is_store:
        si = mem.reg
        if mem.base_index == RZ_INDEX:
            const_addresses = _frozen(np.full(lanes, offset, dtype=np.int64))

            def run(warp):
                getattr(warp, mem_attr).store_warp(
                    const_addresses, warp.regs._data[si:si + words], width, None)
        else:
            bi = mem.base_index

            def run(warp):
                addresses = warp.regs._data[bi].astype(np.int64) + offset
                getattr(warp, mem_attr).store_warp(
                    addresses, warp.regs._data[si:si + words], width, None)
        return run
    dest = uop.dest[1]
    if mem.base_index == RZ_INDEX:
        const_addresses = _frozen(np.full(lanes, offset, dtype=np.int64))

        def run(warp):
            data = getattr(warp, mem_attr).load_warp(const_addresses, width, None)
            warp.regs._data[dest:dest + words] = data
    else:
        bi = mem.base_index

        def run(warp):
            addresses = warp.regs._data[bi].astype(np.int64) + offset
            data = getattr(warp, mem_attr).load_warp(addresses, width, None)
            warp.regs._data[dest:dest + words] = data
    return run


def _compile_uop(uop, lanes):
    """Fast closure for *uop* at *lanes*, or None (-> reference path)."""
    if not uop.groups_ok:
        return None
    if uop.lanes32_only and lanes != WARP_LANES:
        return None
    if uop.kind == "alu":
        return _compile_alu(uop, lanes)
    if uop.kind in ("load", "store"):
        return _compile_mem(uop, lanes)
    return None


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
    """-> (closure, fusible): *fusible* marks an unpredicated slot whose
    closure is a pure fast path (safe as a silent member of a composite
    window, whose parts' return values are ignored)."""
    opcode = inst.opcode
    if opcode == "EXIT":
        return _build_exit(inst, lanes), False
    if opcode == "BAR":
        return (lambda warp: BARRIER), False  # arrives regardless of predication
    if opcode == "BRA":
        return _build_bra(inst, lanes), False
    if opcode == "NOP":
        return (lambda warp: None), inst.pred is None
    generic = _build_generic(inst, lanes)
    try:
        uop = decode_uop(inst)
    except Exception:
        return generic, False  # malformed: the reference path raises at exec
    fast = _compile_uop(uop, lanes)
    if fast is None:
        return generic, False
    if inst.pred is None:
        return fast, True
    return _guarded(fast, generic, inst.pred), False


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

def _fuse_entry(inst, fusible):
    """(key, reads, writes, payload) when *inst* can join a fused window."""
    if not fusible or inst.pred is not None:
        return None
    try:
        uop = decode_uop(inst)
    except Exception:
        return None
    if uop.reads_clock or not uop.groups_ok or uop.fuse_key is None:
        return None
    key = _SOLO if uop.fuse_key == SOLO else uop.fuse_key
    return key, uop.reads, uop.writes, uop.fuse_payload


class _PerLaunch:
    """A window part made afresh by every :func:`predecode` call, from a
    factory whose closures keep launch-sized state; the code cache and
    the program's tables keep the factory, never that state."""

    __slots__ = ("new",)

    def __init__(self, new):
        self.new = new


def _build_hmma_group(key, payloads):
    """Every HMMA shape: :func:`~repro.hmma.mma.mma_window`'s in-place
    executor -- composed flat-index gathers straight from the register
    file, unique-fragment dedup, one scatter for D (see ``mma_window`` for
    its size-capped fallback).  Its flat index tables are lane-sized, so
    each launch gets its own."""
    _, shape, f32 = key
    window = mma_ops.mma_window(shape, f32, *zip(*payloads))

    def new_run():
        tables = {}

        def run(warp):
            window(warp.regs._data, tables)
        return run
    return _PerLaunch(new_run)


def _build_mma_group(key, payloads):
    """Row-gather batched MMA executor (IMMA.8816): gather operand register
    rows, run the fuse key's batch kernel, scatter D."""
    batch_fn, a_words, b_words, c_words = MMA_BATCH_KERNELS[key]
    d_idx = mma_row_index(payloads, 0, c_words)
    a_idx = mma_row_index(payloads, 1, a_words)
    b_idx = mma_row_index(payloads, 2, b_words)
    c_idx = mma_row_index(payloads, 3, c_words)

    def run(warp):
        regs = warp.regs._data
        regs[d_idx] = batch_fn(regs[a_idx], regs[b_idx], regs[c_idx])
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
    "hmma": _build_hmma_group,
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
# no per-run state (counters live in the caller, per-launch state is
# rebuilt through _PerLaunch), so programs and threads can share it.

#: Entry bounds.  One round of perfbench's ``remote_layers`` workload
#: touches 3,110 distinct slots and 334 windows, one ``gemm_verify`` round
#: 2,805 and 166; the bounds hold both working sets at once.
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
    """Compiled form of one (instruction, lanes) pair: its closure, fusion
    entry (None when it cannot join a window), clock read and retire
    counts."""

    __slots__ = ("uid", "run", "fuse", "reads_clock", "ops")

    def __init__(self, inst, lanes):
        self.uid = next(_SLOT_IDS)
        self.run, fusible = _decode_one(inst, lanes)
        self.fuse = _fuse_entry(inst, fusible)
        self.reads_clock = _reads_clock(inst)
        self.ops = _SINGLE_OPS.setdefault(inst.opcode, ((inst.opcode, 1),))


def _compile_window(members):
    """(parts, ops) of the fused window over slots *members*, or () when
    scheduling batches nothing (composition would only add indirection).

    Member slots keep their individual closures so branches into the
    middle of a window still execute exactly.
    """
    groups = _schedule_window([m.fuse for m in members])
    if not any(g.key is not _SOLO and len(g.payloads) >= 2 for g in groups):
        return ()
    parts = []
    for group in groups:
        if group.key is not _SOLO and len(group.payloads) >= 2:
            parts.append(_GROUP_BUILDERS[group.key[0]](group.key, group.payloads))
        else:
            parts.extend(members[i].run for i in group.slots)
    ops = []
    for member in members:
        opcode = member.ops[0][0]
        if ops and ops[-1][0] == opcode:
            ops[-1] = (opcode, ops[-1][1] + 1)
        else:
            ops.append((opcode, 1))
    return tuple(parts), tuple(ops)


def _window_run(parts):
    """The closure running a window's *parts* in order, with a fresh
    instance of each per-launch part."""
    parts = tuple(p.new() if type(p) is _PerLaunch else p for p in parts)

    def run(warp):
        for part in parts:
            part(warp)
    return run


#: One program's assembled tables at one lane count: the members of a
#: :class:`DecodedProgram` with each fused window's head still its own
#: slot closure, plus ``windows`` -- ``(head slot, parts)`` of every fused
#: window -- and ``lookups``, the window keys assembly looked up.
_Tables = namedtuple("_Tables", "run_fns next_pc lens reads_clock slot_ops "
                                "windows lookups")


def _assemble(program, lanes) -> tuple:
    """(tables, hit and miss counters) of *program* at *lanes*, looking up
    (and compiling on a miss) every slot and window in the code cache."""
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
    next_pc = list(range(1, n + 1))
    lens = [1] * n
    slot_ops = [entry.ops for entry in entries]
    fused = []

    window_misses = lookups = 0
    start = 0
    while start < n:
        if entries[start].fuse is None:
            start += 1
            continue
        end = start + 1
        while end < n and entries[end].fuse is not None:
            end += 1
        if end - start >= 2:
            members = entries[start:end]
            key = (lanes, *[member.uid for member in members])
            lookups += 1
            window = windows.get(key)
            if window is None:
                window = _compile_window(members)
                windows.put(key, window)
                window_misses += 1
            if window:
                parts, ops = window
                fused.append((start, parts))
                next_pc[start] = end
                lens[start] = end - start
                slot_ops[start] = ops
        start = end

    tables = _Tables(tuple(entry.run for entry in entries), tuple(next_pc),
                     tuple(lens),
                     tuple(entry.reads_clock for entry in entries),
                     tuple(slot_ops), tuple(fused), lookups)
    return tables, {"decode.slot_hits": n - slot_misses,
                    "decode.slot_misses": slot_misses,
                    "decode.window_hits": lookups - window_misses,
                    "decode.window_misses": window_misses}


# ---------------------------------------------------------------- predecode

def predecode(program, lanes: int = WARP_LANES) -> DecodedProgram:
    """Decode *program* into slot-indexed closures plus fused windows.

    ``lanes`` selects the lane count the closures operate on: 32 (default)
    for per-warp execution, ``n_warps * 32`` for the lockstep engine.
    The first call at a lane count assembles the program's tables from the
    process-wide code cache (see the module docstring) and keeps them in
    ``program.predecoded``; later calls reuse them and count every slot and
    window as a hit.  Each call builds fresh fused-window closures, so
    launch-sized state dies with the launch.  The call adds its slot and
    window hits and misses to ``STATS`` once.
    """
    tables = program.predecoded.get(lanes)
    if tables is None:
        tables, counts = _assemble(program, lanes)
        program.predecoded[lanes] = tables
    else:
        counts = {"decode.slot_hits": len(tables.run_fns),
                  "decode.window_hits": tables.lookups}
    for name, amount in counts.items():
        if amount:
            STATS.count(name, amount)
    run_fns = list(tables.run_fns)
    for start, parts in tables.windows:
        run_fns[start] = _window_run(parts)
    return DecodedProgram(len(run_fns), run_fns, tables.next_pc, tables.lens,
                          tables.reads_clock, tables.slot_ops, lanes)
