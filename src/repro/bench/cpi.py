"""SASS-level CPI microbenchmarks (paper Tables I, III, IV, V).

Methodology, exactly as Section IV-C / V-A describe it:

* issue a long sequence of the instruction under test, reconstructed as a
  loop small enough for the instruction cache;
* read the clock register (``CS2R SR_CLOCKLO``) before and after;
* CPI = elapsed cycles / instruction count.

This is "only possible at SASS level": a C++ compiler would delete a load
whose result is unused.  Our assembler has no such opinion.

The measured value includes the loop's residual overhead, which is why the
paper reports 8.06 for HMMA against a theoretical 8.00.  The MIO queue also
has a fill transient, so memory-op loops take a warm-up pass before the
first clock read (the paper's "thousands of instructions" amortise the same
transient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.turing import GpuSpec
from ..isa.builder import ProgramBuilder
from ..isa.operands import Pred, Reg
from ..sim.memory import GlobalMemory
from ..sim.timing import TimingSimulator

__all__ = [
    "CpiResult",
    "measure_hmma_cpi",
    "measure_lds_cpi",
    "measure_sts_cpi",
    "measure_ldg_cpi",
    "smem_throughput_bytes_per_cycle",
]

#: Where the two clock snapshots land in global memory.
_CLOCK0_ADDR = 0x100
_CLOCK1_ADDR = 0x200


@dataclass(frozen=True)
class CpiResult:
    """Outcome of one CPI measurement."""

    instruction: str
    cpi: float
    instructions: int
    cycles: int


def _finish(b: ProgramBuilder) -> None:
    """Store both clock snapshots (R20, R21) and exit."""
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), 4, _CLOCK0_ADDR, stall=6)
    b.stg(3, 20, width=32, stall=4)
    b.imad(3, Reg(2), 4, _CLOCK1_ADDR, stall=6)
    b.stg(3, 21, width=32, stall=4)
    b.exit()


def _run(program, spec: GpuSpec, instructions: int, name: str,
         mem_bytes: int = 1 << 22) -> CpiResult:
    memory = GlobalMemory(mem_bytes)
    sim = TimingSimulator(spec)
    sim.run(program, memory)
    start = int(memory.read_array(_CLOCK0_ADDR, np.uint32, 1)[0])
    stop = int(memory.read_array(_CLOCK1_ADDR, np.uint32, 1)[0])
    cycles = stop - start
    return CpiResult(instruction=name, cpi=cycles / instructions,
                     instructions=instructions, cycles=cycles)


def _tensor_cpi_loop(spec: GpuSpec, emit, stall: int, per_loop: int,
                     loops: int, name: str) -> CpiResult:
    """Shared loop harness for tensor-pipe CPI measurements."""
    b = ProgramBuilder(name="tensor_cpi", num_regs=32, block_dim=32)
    b.mov32i(1, loops, stall=6)
    b.cs2r_clock(20, stall=2)
    b.label("LOOP")
    # Hide the loop bookkeeping in the tensor pipe's shadow: these ALU ops
    # issue while the tensor pipe is still draining.  The ISETP sits at
    # the loop's end so the decrement's ALU latency has long passed.
    emit(b, 1)
    b.iadd3(1, Reg(1), -1, stall=1)
    for _ in range(per_loop - 1):
        emit(b, stall)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=1)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(21, stall=2)
    _finish(b)
    return _run(b.build(), spec, per_loop * loops, name)


def measure_hmma_cpi(spec: GpuSpec, per_loop: int = 128,
                     loops: int = 16) -> CpiResult:
    """CPI of ``HMMA.1688.F16`` (paper Table I: theoretical 8.00,
    measured 8.06 from loop overhead)."""
    return _tensor_cpi_loop(
        spec, lambda b, s: b.hmma_1688(4, 8, 10, 4, stall=s), 8,
        per_loop, loops, "HMMA.1688.F16")


def measure_imma_cpi(spec: GpuSpec, per_loop: int = 128,
                     loops: int = 16) -> CpiResult:
    """CPI of ``IMMA.8816.S8.S8`` -- the integer future-work measurement.

    Turing's INT8 tensor path runs at twice the FP16 rate: expected CPI 4.
    """
    return _tensor_cpi_loop(
        spec, lambda b, s: b.imma_8816(4, 8, 10, 4, stall=min(s, 4)), 4,
        per_loop, loops, "IMMA.8816.S8.S8")


def _smem_loop(spec: GpuSpec, opcode: str, width: int, per_loop: int,
               loops: int, warmup: int, conflict_stride: int = None) -> CpiResult:
    """Shared-memory CPI loop (LDS or STS) with conflict-free addressing."""
    name = f"{opcode}.{width}" if width != 32 else opcode
    b = ProgramBuilder(name=f"{opcode.lower()}_cpi", num_regs=32,
                       block_dim=32, smem_bytes=32 * 1024)
    b.s2r(2, "SR_TID.X", stall=6)
    stride = conflict_stride if conflict_stride is not None else width // 8
    b.imad(3, Reg(2), stride, 0, stall=6)
    b.mov32i(1, loops, stall=6)

    def access():
        if opcode == "LDS":
            b.lds(8, 3, width=width, stall=1)
        else:
            b.sts(3, 8, width=width, stall=1)

    for _ in range(warmup):
        access()
    b.cs2r_clock(20, stall=2)
    b.label("LOOP")
    access()
    b.iadd3(1, Reg(1), -1, stall=1)
    for _ in range(per_loop - 1):
        access()
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=1)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(21, stall=2)
    _finish(b)
    return _run(b.build(), spec, per_loop * loops, name)


def measure_lds_cpi(spec: GpuSpec, width: int = 32, per_loop: int = 128,
                    loops: int = 8, warmup: int = 48,
                    conflict_stride: int = None) -> CpiResult:
    """CPI of bank-conflict-free LDS (Table IV row 1).

    ``conflict_stride`` overrides the per-lane byte stride to provoke
    conflicts on purpose (e.g. 128 puts every lane in one bank).
    """
    return _smem_loop(spec, "LDS", width, per_loop, loops, warmup,
                      conflict_stride)


def measure_sts_cpi(spec: GpuSpec, width: int = 32, per_loop: int = 128,
                    loops: int = 8, warmup: int = 48,
                    conflict_stride: int = None) -> CpiResult:
    """CPI of bank-conflict-free STS (Table IV row 2)."""
    return _smem_loop(spec, "STS", width, per_loop, loops, warmup,
                      conflict_stride)


def measure_ldg_cpi(spec: GpuSpec, width: int = 32, level: str = "l2",
                    per_loop: int = 128, loops: int = 8,
                    warmup: int = 48) -> CpiResult:
    """CPI of LDG with data resident in L1 or L2 (Table III).

    The paper pins the level by cache hints: repeated access to the same
    footprint keeps data in L1; ``.CG`` (bypass L1) keeps it in L2.
    """
    if level not in ("l1", "l2"):
        raise ValueError(f"level must be 'l1' or 'l2', got {level!r}")
    bypass = level == "l2"
    b = ProgramBuilder(name="ldg_cpi", num_regs=32, block_dim=32)
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), width // 8, 0x10000, stall=6)
    b.mov32i(1, loops, stall=6)
    for _ in range(warmup):
        b.ldg(8, 3, width=width, bypass_l1=bypass, stall=1)
    b.cs2r_clock(20, stall=2)
    b.label("LOOP")
    b.ldg(8, 3, width=width, bypass_l1=bypass, stall=1)
    b.iadd3(1, Reg(1), -1, stall=1)
    for _ in range(per_loop - 1):
        b.ldg(8, 3, width=width, bypass_l1=bypass, stall=1)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=1)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(21, stall=2)
    _finish(b)
    name = f"LDG.{width} ({level.upper()})"
    return _run(b.build(), spec, per_loop * loops, name)


def smem_throughput_bytes_per_cycle(result: CpiResult, width: int,
                                    lanes: int = 32) -> float:
    """Convert a shared-memory CPI into Table V's bytes/cycle."""
    return lanes * (width // 8) / result.cpi
