"""Reference executor: a thin adapter over the µop semantics table.

``execute(inst, ctx)`` evaluates one instruction against a warp context and
returns an :class:`Effects` record describing *what would change*:

* register / predicate writes (the caller decides *when* to apply them --
  immediately in the functional simulator, after the instruction's latency
  in the timing simulator, which is how under-stalled code reads stale
  values, the paper's latency-probing methodology);
* an optional memory transaction descriptor (the timing simulator prices
  bank conflicts and DRAM/L2 service from the actual lane addresses);
* control outcomes (branch target, barrier arrival, warp exit).

The per-opcode behaviour itself lives in :mod:`repro.sim.uop`
(``SEMANTICS``): this module only evaluates the decoded operand
descriptors against the context, runs the lane kernel, and packages the
result.  The lockstep engine's closures in :mod:`repro.sim.decode`
compile the same descriptors, so there is exactly one definition of each
opcode.

The context must provide: ``regs`` / ``preds`` (register files), ``tid``
(per-lane x-index within the CTA), ``ctaid`` (3-tuple), ``lane_ids``,
``global_mem``, ``shared_mem``, and ``clock()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.registers import WARP_LANES
from ..isa.instructions import Instruction, OPCODES
from .uop import ExecError, decode_uop, special_value

__all__ = ["Effects", "MemTransaction", "ExecError", "execute"]


@dataclass
class MemTransaction:
    """Descriptor of one warp-level memory access (for timing)."""

    space: str                  # "global" or "shared"
    addresses: np.ndarray       # (32,) byte addresses
    width_bytes: int
    is_store: bool
    mask: np.ndarray            # active lanes
    bypass_l1: bool = False


@dataclass
class Effects:
    """Outcome of executing one instruction."""

    reg_writes: list = field(default_factory=list)    # (first_reg, (n,32) array, mask)
    pred_writes: list = field(default_factory=list)   # (index, (32,) bool, mask)
    transaction: MemTransaction = None
    branch_target: int = None
    exited: bool = False
    barrier: bool = False


# Shared all-lanes-on mask for unpredicated instructions (the common case);
# read-only so no consumer can mutate it in place.
_FULL_MASK = np.ones(WARP_LANES, dtype=bool)
_FULL_MASK.setflags(write=False)


def _guard_mask(ctx, inst: Instruction) -> np.ndarray:
    if inst.pred is None:
        return _FULL_MASK
    return ctx.preds.read(inst.pred.index, negated=inst.pred.negated)


def _read_source(ctx, desc) -> np.ndarray:
    """Evaluate one µop source descriptor to a fresh (32,) / (n, 32) array.

    Register reads copy so deferred writes (timing simulator) never alias
    live register-file rows; register *groups* stay live views because MMA
    kernels consume them immediately and produce fresh outputs.
    """
    kind = desc[0]
    if kind == "reg":
        return ctx.regs.read(desc[1]).copy()
    if kind == "reg_i32":
        return ctx.regs.read(desc[1]).copy().view(np.int32)
    if kind == "regs":
        return ctx.regs.read_group(desc[1], desc[2])
    if kind == "imm":
        return np.full(WARP_LANES, desc[1], dtype=np.uint32)
    if kind == "imm_i32":
        return np.full(WARP_LANES, desc[1], dtype=np.uint32).view(np.int32)
    if kind == "pred":
        return ctx.preds.read(desc[1], negated=desc[2])
    value = special_value(ctx, desc[1])         # ("sr", name) / ("sr_i32", name)
    return value.view(np.int32) if kind == "sr_i32" else value


def _mem_addresses(ctx, mem) -> np.ndarray:
    return ctx.regs.read(mem.base_index).astype(np.int64) + mem.offset


def execute(inst: Instruction, ctx) -> Effects:
    """Execute *inst* against warp context *ctx*; see module docstring."""
    eff = Effects()
    mask = _guard_mask(ctx, inst)
    opcode = inst.opcode

    if opcode == "EXIT":
        eff.exited = bool(mask.all())
        return eff
    if opcode == "BAR":
        eff.barrier = True
        return eff

    if not mask.any() and opcode != "BRA":
        return eff  # fully predicated off

    if OPCODES[opcode].warp_wide and not mask.all():
        raise ExecError(f"{opcode} cannot be lane-predicated; it is a warp-wide op")

    uop = decode_uop(inst)
    kind = uop.kind

    if kind == "alu":
        values = [_read_source(ctx, desc) for desc in uop.srcs]
        out = uop.kernel(*values) if uop.kernel is not None else values[0]
        dest = uop.dest
        if dest[0] == "pred":
            eff.pred_writes.append((dest[1], out, mask))
        else:
            eff.reg_writes.append(
                (dest[1], out if out.ndim == 2 else out[None, :], mask))
        return eff

    if kind == "load":
        mem = uop.mem
        addresses = _mem_addresses(ctx, mem)
        memory = ctx.global_mem if mem.space == "global" else ctx.shared_mem
        data = memory.load_warp(addresses, mem.width, mask)
        eff.reg_writes.append((uop.dest[1], data, mask))
        eff.transaction = MemTransaction(
            space=mem.space, addresses=addresses, width_bytes=mem.width,
            is_store=False, mask=mask, bypass_l1=mem.bypass_l1,
        )
        return eff

    if kind == "store":
        mem = uop.mem
        addresses = _mem_addresses(ctx, mem)
        data = ctx.regs.read_group(mem.reg, mem.words)
        memory = ctx.global_mem if mem.space == "global" else ctx.shared_mem
        memory.store_warp(addresses, data, mem.width, mask)
        eff.transaction = MemTransaction(
            space=mem.space, addresses=addresses, width_bytes=mem.width,
            is_store=True, mask=mask,
        )
        return eff

    if kind == "bra":
        taken = bool(mask.any())
        if taken and not mask.all():
            raise ExecError(
                "divergent branch: this subset requires warp-uniform branch "
                f"predicates ({int(mask.sum())}/32 lanes taken)"
            )
        if taken:
            eff.branch_target = uop.target
        return eff

    return eff  # NOP
