"""Single-source µop semantics table for the SASS subset.

Before this layer existed the codebase defined *what an instruction does*
three separate times: the reference ``Effects`` executors in
:mod:`repro.sim.exec_units`, ~1k lines of hand-written per-opcode closure
builders in :mod:`repro.sim.decode`, and the timing simulator's predecoded
hot path.  This module collapses all of that into one per-opcode table:

``SEMANTICS[opcode]`` is a decoder that turns an :class:`Instruction` into a
:class:`Uop` -- a declarative record of

* **source descriptors** -- how to read each operand
  (``("reg", i)``, ``("reg_i32", i)``, ``("regs", i, n)``, ``("imm", v)``,
  ``("imm_i32", v)``, ``("pred", i, negated)``, ``("sr", name)``,
  ``("sr_i32", name)``);
* **dest descriptor** -- ``("reg", d, n)`` or ``("pred", i)``;
* **lane kernel** -- one shape-agnostic NumPy function implementing the
  element-wise math.  The same kernel runs on (32,) reference arrays, (L,)
  decoded rows and stacked ``(g, L)`` batch arrays, so there is exactly one
  place where e.g. IADD3's wraparound or ISETP's signed compare is written;
* **memory descriptor** (:class:`MemSpec`) for loads/stores;
* **scheduler metadata** -- window-fusion key/payload plus the GPR /
  predicate / memory-space dependence sets derived from the descriptors.

Consumers:

* :func:`repro.sim.exec_units.execute` -- thin adapter that evaluates the
  descriptors against a warp context and wraps the kernel result in an
  ``Effects`` record (the reference engines of both simulators, and the
  slots the fast paths leave to them);
* :mod:`repro.sim.decode` -- compiles the same descriptors into slot
  closures and window-scheduler groups (the lockstep engine and its
  32-lane de-stack path).  Its compute step and MMA group builder are
  shared with the event timing engine (:mod:`repro.sim.timing`), which
  adds only its own deferred commit.

Kernels never mutate their inputs and return exact ``uint32`` (``bool`` for
predicate dests): integer ops wrap modulo 2**32, compares run on int32 views
(bit-identical to sign-extended int64 compares for every 32-bit pattern),
and the MMA kernels delegate to the batched fragment math in
:mod:`repro.hmma`, where every product is one slice of a stacked 3-D
float32 matmul.  NumPy runs each slice through the same BLAS kernel as a
2-D product, so rounding matches the single-warp references bit for bit
(the per-generation golden digests pin this).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial

import numpy as np

from ..arch.family import GENERATIONS
from ..arch.registers import WARP_LANES
from ..hmma import int8 as int8_ops
from ..hmma import mma as mma_ops
from ..hmma.fp16 import pack_half2, unpack_half2
from ..isa.instructions import OPCODES
from ..isa.operands import Imm, MemRef, Pred, Reg, SpecialReg, PT_INDEX, RZ_INDEX

__all__ = [
    "ExecError",
    "MemSpec",
    "Uop",
    "SEMANTICS",
    "SOLO",
    "MMA_BATCH_KERNELS",
    "decode_uop",
    "special_value",
    "k_iadd3",
    "k_imad",
]


class ExecError(RuntimeError):
    """Raised when an instruction cannot be executed (simulated fault)."""


#: Fusion-key sentinel: the instruction may join a scheduling window but
#: never batches with neighbours (it runs its own closure inside the window).
SOLO = "solo"

#: Whole-space memory tokens used in dependence sets (exact aliasing is
#: unknown statically, so loads read / stores write their whole space).
MEM_GLOBAL = "mem:g"
MEM_SHARED = "mem:s"

#: Memory side-effect descriptor.  ``base_index`` may be ``RZ_INDEX`` (the
#: register file keeps row 255 all-zero, so reading it as a base is exact);
#: ``reg`` is the first data register (dest for loads, source for stores).
MemSpec = namedtuple(
    "MemSpec",
    ("space", "width", "words", "is_store", "bypass_l1",
     "base_index", "offset", "reg"),
)


class Uop:
    """Decoded per-instruction semantics record (see module docstring)."""

    __slots__ = (
        "opcode", "kind", "srcs", "dest", "kernel", "mem", "target",
        "warp_wide", "reads_clock", "groups_ok",
        "fuse_key", "fuse_payload", "reads", "writes",
    )


def _uop(inst, kind, *, srcs=(), dest=None, kernel=None, mem=None,
         target=None, warp_wide=False, groups_ok=True,
         fuse_key=None, fuse_payload=None) -> Uop:
    u = Uop()
    u.opcode = inst.opcode
    u.kind = kind
    u.srcs = tuple(srcs)
    u.dest = dest
    u.kernel = kernel
    u.mem = mem
    u.target = target
    u.warp_wide = warp_wide
    u.groups_ok = groups_ok
    u.fuse_key = fuse_key
    u.fuse_payload = fuse_payload
    u.reads_clock = any(
        d[0] in ("sr", "sr_i32") and d[1] in ("SR_CLOCKLO", "SR_CLOCKHI")
        for d in u.srcs
    )
    u.reads, u.writes = _dep_sets(u)
    return u


def _dep_sets(u: Uop):
    """Window-scheduler dependence sets, derived from the descriptors.

    GPR indices are plain ints, predicates are ``("p", i)`` tokens and
    memory spaces are :data:`MEM_GLOBAL` / :data:`MEM_SHARED`.  RZ reads and
    writes (and PT writes) are dropped: they are hardwired.
    """
    reads, writes = set(), set()
    for desc in u.srcs:
        kind = desc[0]
        if kind in ("reg", "reg_i32"):
            if desc[1] != RZ_INDEX:
                reads.add(desc[1])
        elif kind == "regs":
            reads.update(r for r in range(desc[1], desc[1] + desc[2])
                         if r != RZ_INDEX)
        elif kind == "pred":
            reads.add(("p", desc[1]))
    if u.dest is not None:
        if u.dest[0] == "reg":
            writes.update(r for r in range(u.dest[1], u.dest[1] + u.dest[2])
                          if r != RZ_INDEX)
        elif u.dest[1] != PT_INDEX:
            writes.add(("p", u.dest[1]))
    if u.mem is not None:
        token = MEM_GLOBAL if u.mem.space == "global" else MEM_SHARED
        if u.mem.base_index != RZ_INDEX:
            reads.add(u.mem.base_index)
        if u.mem.is_store:
            writes.add(token)
            reads.update(range(u.mem.reg, u.mem.reg + u.mem.words))
        else:
            reads.add(token)
    return frozenset(reads), frozenset(writes)


# ------------------------------------------------------------- lane kernels
#
# The ONLY definitions of per-opcode lane math.  Every kernel works on
# arrays of any trailing shape (32 reference lanes, L stacked lanes, or
# (g, L) window batches with (g, 1) immediate columns broadcasting).

def k_iadd3(*terms) -> np.ndarray:
    """Sum of 1-3 uint32 terms, wrapping modulo 2**32."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def k_imad(a, b, c) -> np.ndarray:
    """uint32 ``a * b + c``, wrapping modulo 2**32 (two's complement exact)."""
    return a * b + c


def _k_shf_l(value, amount):
    shift = (amount & np.uint32(31)).astype(np.uint64)
    return ((value.astype(np.uint64) << shift)
            & np.uint64(0xFFFFFFFF)).astype(np.uint32)


def _k_shf_r(value, amount):
    shift = (amount & np.uint32(31)).astype(np.uint64)
    return (value.astype(np.uint64) >> shift).astype(np.uint32)


def _k_and(a, b):
    return a & b


def _k_or(a, b):
    return a | b


def _k_xor(a, b):
    return a ^ b


_CMPS = {
    "LT": np.less, "LE": np.less_equal, "GT": np.greater,
    "GE": np.greater_equal, "EQ": np.equal, "NE": np.not_equal,
}


def _make_isetp(cmp):
    def kernel(a, b, base):
        return cmp(a, b) & base
    return kernel


_ISETP_KERNELS = {name: _make_isetp(fn) for name, fn in _CMPS.items()}


def _k_sel(a, b, choose):
    return np.where(choose, a, b)


def _k_hfma2(a, b, c):
    a_lo, a_hi = unpack_half2(a)
    b_lo, b_hi = unpack_half2(b)
    c_lo, c_hi = unpack_half2(c)
    d_lo = (a_lo.astype(np.float32) * b_lo.astype(np.float32)
            + c_lo.astype(np.float32)).astype(np.float16)
    d_hi = (a_hi.astype(np.float32) * b_hi.astype(np.float32)
            + c_hi.astype(np.float32)).astype(np.float16)
    return pack_half2(d_lo, d_hi)


# MMA kernels: the stacked batch math in repro.hmma.  Groups of
# independent MMAs -- the lockstep engine's fused windows and the event
# timing engine's issue plans -- run through one builder,
# :func:`repro.sim.decode.mma_group`.

#: Stacked batch kernel and C/D register count of each MMA fuse key.  A
#: batch call over ``g`` gathered operand sets is bit-identical to ``g``
#: sequential single-op kernel calls: every product is its own slice of
#: one stacked 3-D matmul.  The HMMA rows come from
#: :data:`~repro.arch.GENERATIONS`, one per ``(shape, accumulator)``, keyed
#: ``("hmma", shape, f32)``; which keys a program produces depends on the
#: device's :class:`~repro.arch.ArchSpec`.
MMA_BATCH_KERNELS = {
    ("hmma", arch.hmma_shape, f32): (
        partial(mma_ops.mma_batch, arch.hmma_shape, f32),
        arch.c_regs_f32 if f32 else arch.c_regs_f16)
    for arch in GENERATIONS.values()
    for f32 in ((False, True) if arch.supports_f32_accum else (False,))
}
MMA_BATCH_KERNELS[("imma", "8816")] = (int8_ops.imma_8816_batch, 2)


def _single_op(batch_fn):
    """The lane kernel of one MMA: *batch_fn* over a batch of one."""
    def kernel(a, b, c):
        return batch_fn(a[None], b[None], c[None])[0]
    return kernel


_MMA_KERNELS = {key: _single_op(entry[0])
                for key, entry in MMA_BATCH_KERNELS.items()}


# ------------------------------------------------------- special registers

def special_value(ctx, name: str) -> np.ndarray:
    """Reference-grade (fresh-array) special register value for *ctx*."""
    if name == "SR_TID.X":
        return np.asarray(ctx.tid, dtype=np.uint64).astype(np.uint32)
    if name in ("SR_TID.Y", "SR_TID.Z", "SRZ"):
        return np.zeros(WARP_LANES, dtype=np.uint32)
    if name == "SR_CTAID.X":
        return np.full(WARP_LANES, ctx.ctaid[0], dtype=np.uint32)
    if name == "SR_CTAID.Y":
        return np.full(WARP_LANES, ctx.ctaid[1], dtype=np.uint32)
    if name == "SR_CTAID.Z":
        return np.full(WARP_LANES, ctx.ctaid[2], dtype=np.uint32)
    if name == "SR_LANEID":
        return np.asarray(ctx.lane_ids, dtype=np.uint64).astype(np.uint32)
    if name == "SR_CLOCKLO":
        return np.full(WARP_LANES, ctx.clock() & 0xFFFFFFFF, dtype=np.uint32)
    if name == "SR_CLOCKHI":
        return np.full(WARP_LANES, (ctx.clock() >> 32) & 0xFFFFFFFF,
                       dtype=np.uint32)
    raise ExecError(f"unhandled special register {name}")


# ----------------------------------------------------------------- decoders

def _value_desc(operand):
    """Source descriptor for a scalar-ish value operand."""
    if isinstance(operand, Reg):
        return ("reg", operand.index)
    if isinstance(operand, Imm):
        return ("imm", operand.unsigned)
    if isinstance(operand, SpecialReg):
        return ("sr", operand.name)
    raise ExecError(f"operand {operand!r} is not a value source")


def _value_desc_i32(operand):
    """Signed-view variant (int32 compares == sign-extended int64 compares)."""
    desc = _value_desc(operand)
    return {"reg": ("reg_i32",), "imm": ("imm_i32",),
            "sr": ("sr_i32",)}[desc[0]] + desc[1:]


def _reg_dest(inst, words: int = 1):
    """(index, fast-path-ok) for the single GPR destination."""
    dest = inst.dests[0]
    ok = isinstance(dest, Reg) and not dest.is_rz
    if ok and words > 1:
        ok = dest.index + words <= RZ_INDEX
    return dest.index, ok


def _dec_nop(inst):
    return _uop(inst, "nop", fuse_key=SOLO)


def _dec_exit(inst):
    return _uop(inst, "exit")


def _dec_bar(inst):
    return _uop(inst, "bar")


def _dec_bra(inst):
    return _uop(inst, "bra", target=inst.target_index)


def _dec_mov(inst):
    d, ok = _reg_dest(inst)
    src = _value_desc(inst.srcs[0])
    key = payload = None
    if ok and len(inst.srcs) == 1:
        if src[0] == "reg":
            key, payload = ("mov", "r"), (d, src[1])
        elif src[0] == "imm":
            key, payload = ("mov", "i"), (d, src[1])
        else:
            key = SOLO
    return _uop(inst, "alu", srcs=(src,), dest=("reg", d, 1), groups_ok=ok,
                fuse_key=key, fuse_payload=payload)


def _dec_iadd3(inst):
    d, ok = _reg_dest(inst)
    srcs = tuple(_value_desc(s) for s in inst.srcs)
    ok = ok and bool(srcs)
    key = payload = None
    if ok and all(s[0] in ("reg", "imm") for s in srcs):
        signature = tuple("r" if s[0] == "reg" else "i" for s in srcs)
        key = ("iadd3", signature)
        payload = (d, tuple(s[1] for s in srcs))
    return _uop(inst, "alu", srcs=srcs, dest=("reg", d, 1), kernel=k_iadd3,
                groups_ok=ok, fuse_key=key, fuse_payload=payload)


def _dec_imad(inst):
    d, ok = _reg_dest(inst)
    srcs = tuple(_value_desc(s) for s in inst.srcs)
    ok = ok and len(srcs) == 3
    key = payload = None
    if ok and all(s[0] in ("reg", "imm") for s in srcs):
        signature = tuple("r" if s[0] == "reg" else "i" for s in srcs)
        key = ("imad", signature)
        payload = (d, tuple(s[1] for s in srcs))
    return _uop(inst, "alu", srcs=srcs, dest=("reg", d, 1), kernel=k_imad,
                groups_ok=ok, fuse_key=key, fuse_payload=payload)


def _dec_shf(inst):
    d, ok = _reg_dest(inst)
    srcs = (_value_desc(inst.srcs[0]), _value_desc(inst.srcs[1]))
    if "L" in inst.mods:
        kernel = _k_shf_l
    elif "R" in inst.mods:
        kernel = _k_shf_r
    else:
        raise ExecError(f"SHF needs .L or .R: {inst}")
    return _uop(inst, "alu", srcs=srcs, dest=("reg", d, 1), kernel=kernel,
                groups_ok=ok, fuse_key=SOLO if ok else None)


def _dec_lop3(inst):
    d, ok = _reg_dest(inst)
    srcs = (_value_desc(inst.srcs[0]), _value_desc(inst.srcs[1]))
    if "AND" in inst.mods:
        kernel = _k_and
    elif "OR" in inst.mods:
        kernel = _k_or
    elif "XOR" in inst.mods:
        kernel = _k_xor
    else:
        raise ExecError(f"LOP3 needs .AND/.OR/.XOR: {inst}")
    return _uop(inst, "alu", srcs=srcs, dest=("reg", d, 1), kernel=kernel,
                groups_ok=ok, fuse_key=SOLO if ok else None)


def _dec_isetp(inst):
    cmp_name = inst.mods[0] if inst.mods else None
    if cmp_name not in _CMPS:
        raise ExecError(f"ISETP comparison missing or unknown: {inst}")
    a = _value_desc_i32(inst.srcs[0])
    b = _value_desc_i32(inst.srcs[1])
    combine = inst.srcs[2]
    if not isinstance(combine, Pred):
        raise ExecError(f"ISETP third source must be a predicate: {inst}")
    dest = inst.dests[0]
    ok = isinstance(dest, Pred)
    return _uop(inst, "alu",
                srcs=(a, b, ("pred", combine.index, combine.negated)),
                dest=("pred", dest.index), kernel=_ISETP_KERNELS[cmp_name],
                groups_ok=ok, fuse_key=SOLO if ok else None)


def _dec_sel(inst):
    d, ok = _reg_dest(inst)
    a = _value_desc(inst.srcs[0])
    b = _value_desc(inst.srcs[1])
    pred = inst.srcs[2]
    if not isinstance(pred, Pred):
        raise ExecError(f"SEL third source must be a predicate: {inst}")
    return _uop(inst, "alu",
                srcs=(a, b, ("pred", pred.index, pred.negated)),
                dest=("reg", d, 1), kernel=_k_sel,
                groups_ok=ok, fuse_key=SOLO if ok else None)


def _dec_hfma2(inst):
    d, ok = _reg_dest(inst)
    srcs = tuple(("reg", s.index) for s in inst.srcs[:3])
    ok = ok and len(inst.srcs) == 3 and all(
        isinstance(s, Reg) for s in inst.srcs)
    return _uop(inst, "alu", srcs=srcs, dest=("reg", d, 1), kernel=_k_hfma2,
                groups_ok=ok, fuse_key=SOLO if ok else None)


def _mma_operand_regs(inst):
    if len(inst.dests) != 1 or len(inst.srcs) != 3:
        raise ExecError(
            f"{inst.opcode} takes 4 register operands (D, A, B, C), got "
            f"{len(inst.dests) + len(inst.srcs)}: {inst}")
    for op in (inst.dests[0], *inst.srcs):
        if not isinstance(op, Reg) or op.is_rz:
            raise ExecError(f"HMMA operands must be general registers: {inst}")
    return (inst.dests[0].index, inst.srcs[0].index,
            inst.srcs[1].index, inst.srcs[2].index)


#: HMMA generations by the shape token an instruction names ("1688", ...).
_HMMA_ARCHS = {arch.hmma_mods: arch for arch in GENERATIONS.values()}


def _regs_desc(first, words):
    return ("reg", first) if words == 1 else ("regs", first, words)


def _dec_hmma(inst):
    d, a, b, c = _mma_operand_regs(inst)
    arch = next((_HMMA_ARCHS[m] for m in inst.mods if m in _HMMA_ARCHS), None)
    f32 = "F32" in inst.mods
    if arch is None or (f32 and not arch.supports_f32_accum):
        raise ExecError(f"unknown HMMA shape or accumulator: {inst}")
    c_words = arch.c_regs_f32 if f32 else arch.c_regs_f16
    ok = all(first + words <= RZ_INDEX for first, words in (
        (a, arch.a_regs), (b, arch.b_regs), (c, c_words), (d, c_words)))
    key = ("hmma", arch.hmma_shape, f32)
    return _uop(inst, "alu",
                srcs=(_regs_desc(a, arch.a_regs), _regs_desc(b, arch.b_regs),
                      _regs_desc(c, c_words)),
                dest=("reg", d, c_words), kernel=_MMA_KERNELS[key],
                warp_wide=True, groups_ok=ok,
                fuse_key=key if ok else None, fuse_payload=(d, a, b, c))


def _dec_imma(inst):
    d, a, b, c = _mma_operand_regs(inst)
    if "8816" not in inst.mods:
        raise ExecError(f"unknown IMMA shape: {inst}")
    ok = c + 2 <= RZ_INDEX and d + 2 <= RZ_INDEX
    key = ("imma", "8816")
    return _uop(inst, "alu",
                srcs=(("reg", a), ("reg", b), ("regs", c, 2)),
                dest=("reg", d, 2), kernel=_MMA_KERNELS[key],
                warp_wide=True, groups_ok=ok,
                fuse_key=key if ok else None,
                fuse_payload=(d, a, b, c))


def _dec_load(space):
    def decode(inst):
        memref = inst.srcs[0]
        if not isinstance(memref, MemRef):
            raise ExecError(f"load source must be a memory reference: {inst}")
        width = inst.width // 8
        words = width // 4
        d, ok = _reg_dest(inst, words)
        mem = MemSpec(space, width, words, False, "CG" in inst.mods,
                      memref.base.index, memref.offset, d)
        return _uop(inst, "load", dest=("reg", d, words), mem=mem,
                    groups_ok=ok,
                    fuse_key=("load", inst.opcode, width) if ok else None,
                    fuse_payload=(d, memref.base.index, memref.offset, words))
    return decode


def _dec_store(space):
    def decode(inst):
        memref, src = inst.srcs
        if not isinstance(memref, MemRef) or not isinstance(src, Reg):
            raise ExecError(f"store operands must be ([mem], reg): {inst}")
        width = inst.width // 8
        words = width // 4
        ok = not src.is_rz and src.index + words <= RZ_INDEX
        mem = MemSpec(space, width, words, True, False,
                      memref.base.index, memref.offset, src.index)
        return _uop(inst, "store", mem=mem, groups_ok=ok,
                    fuse_key=("store", inst.opcode, width) if ok else None,
                    fuse_payload=(src.index, memref.base.index,
                                  memref.offset, words))
    return decode


#: The semantics table: one decoder per opcode, the only definition of
#: instruction behaviour in the simulator.
SEMANTICS = {
    "NOP": _dec_nop,
    "EXIT": _dec_exit,
    "BAR": _dec_bar,
    "BRA": _dec_bra,
    "MOV": _dec_mov,
    "MOV32I": _dec_mov,
    "S2R": _dec_mov,
    "CS2R": _dec_mov,
    "IADD3": _dec_iadd3,
    "IMAD": _dec_imad,
    "SHF": _dec_shf,
    "LOP3": _dec_lop3,
    "ISETP": _dec_isetp,
    "SEL": _dec_sel,
    "HFMA2": _dec_hfma2,
    "HMMA": _dec_hmma,
    "IMMA": _dec_imma,
    "LDG": _dec_load("global"),
    "LDS": _dec_load("shared"),
    "STG": _dec_store("global"),
    "STS": _dec_store("shared"),
}

if set(SEMANTICS) != set(OPCODES):  # pragma: no cover - import-time invariant
    raise AssertionError("SEMANTICS must cover every opcode in OPCODES")


@lru_cache(maxsize=65536)
def decode_uop(inst) -> Uop:
    """Decode *inst* to its :class:`Uop` (cached; Instruction is frozen)."""
    try:
        decoder = SEMANTICS[inst.opcode]
    except KeyError:
        raise ExecError(f"no executor for opcode {inst.opcode}") from None
    return decoder(inst)
