"""Instruction model and opcode registry for the SASS subset.

The subset covers everything the paper's kernels and microbenchmarks need:

==========  =========  ====================================================
opcode      pipe       purpose
==========  =========  ====================================================
HMMA        tensor     Tensor Core matrix multiply-accumulate (.884/.1688)
LDG/STG     lsu        global memory load/store (widths 32/64/128)
LDS/STS     lsu        shared memory load/store (widths 32/64/128)
MOV/MOV32I  alu        register moves / immediates
IADD3       alu        3-input integer add
IMAD        alu        integer multiply-add (also used as IMAD.MOV)
SHF         alu        funnel shift (used for /, % by powers of two)
LOP3        alu        3-input logic op (we use AND/OR/XOR LUTs)
ISETP       alu        integer compare into predicate
SEL         alu        predicated select
HFMA2       fma        paired FP16 fused multiply-add (the FP16 "CUDA core"
                       path the paper compares Tensor Cores against)
S2R/CS2R    alu        read special register / clock counter
BAR         barrier    CTA-wide barrier (BAR.SYNC)
BRA         branch     relative branch (predicated)
NOP/EXIT    alu        padding / kernel exit
==========  =========  ====================================================

Pipes matter: the paper's whole optimization story is that HMMA issues on the
tensor pipe while LDG/LDS/STS share the memory-IO pipe (Section VI-A: "LDG,
STS and LDS instructions all occupy memory I/O pipe"), so their CPIs add on
that pipe and must be overlapped with tensor work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .control import ControlInfo
from .operands import Imm, MemRef, Pred, Reg, SpecialReg

__all__ = [
    "Pipe",
    "OpcodeInfo",
    "OPCODES",
    "Instruction",
    "memory_width",
]

Operand = Union[Reg, Pred, Imm, MemRef, SpecialReg]


class Pipe:
    """Execution pipe identifiers (string constants, not an enum, so specs
    can use them as plain dict keys)."""

    TENSOR = "tensor"
    LSU = "lsu"
    ALU = "alu"
    FMA = "fma"
    BRANCH = "branch"
    BARRIER = "barrier"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of an opcode."""

    name: str
    pipe: str
    code: int
    is_memory: bool = False
    is_store: bool = False
    is_branch: bool = False
    writes_predicate: bool = False
    #: Executes as one warp-wide operation; cannot be lane-predicated.
    warp_wide: bool = False
    #: Operands in assembly text, destinations first (a branch's label
    #: is not one).
    operands: int = 0


def _build_registry() -> dict:
    table = [
        OpcodeInfo("NOP", Pipe.ALU, 0x00),
        OpcodeInfo("EXIT", Pipe.ALU, 0x01),
        OpcodeInfo("MOV", Pipe.ALU, 0x02, operands=2),
        OpcodeInfo("MOV32I", Pipe.ALU, 0x03, operands=2),
        OpcodeInfo("IADD3", Pipe.ALU, 0x04, operands=4),
        OpcodeInfo("IMAD", Pipe.ALU, 0x05, operands=4),
        OpcodeInfo("SHF", Pipe.ALU, 0x06, operands=3),
        OpcodeInfo("LOP3", Pipe.ALU, 0x07, operands=3),
        OpcodeInfo("ISETP", Pipe.ALU, 0x08, writes_predicate=True, operands=5),
        OpcodeInfo("SEL", Pipe.ALU, 0x09, operands=4),
        OpcodeInfo("S2R", Pipe.ALU, 0x0A, operands=2),
        OpcodeInfo("CS2R", Pipe.ALU, 0x0B, operands=2),
        OpcodeInfo("BAR", Pipe.BARRIER, 0x0C),
        OpcodeInfo("BRA", Pipe.BRANCH, 0x0D, is_branch=True),
        OpcodeInfo("HMMA", Pipe.TENSOR, 0x10, warp_wide=True, operands=4),
        OpcodeInfo("HFMA2", Pipe.FMA, 0x11, operands=4),
        OpcodeInfo("IMMA", Pipe.TENSOR, 0x12, warp_wide=True, operands=4),
        OpcodeInfo("LDG", Pipe.LSU, 0x20, is_memory=True, operands=2),
        OpcodeInfo("STG", Pipe.LSU, 0x21, is_memory=True, is_store=True,
                   operands=2),
        OpcodeInfo("LDS", Pipe.LSU, 0x22, is_memory=True, operands=2),
        OpcodeInfo("STS", Pipe.LSU, 0x23, is_memory=True, is_store=True,
                   operands=2),
    ]
    return {info.name: info for info in table}


#: Registry of all supported opcodes, keyed by mnemonic root.
OPCODES = _build_registry()

_OPCODES_BY_CODE = {info.code: info for info in OPCODES.values()}


def opcode_by_code(code: int) -> OpcodeInfo:
    """Look up an opcode by its numeric encoding."""
    try:
        return _OPCODES_BY_CODE[code]
    except KeyError:
        raise ValueError(f"unknown opcode code {code:#x}") from None


_WIDTH_MODS = {"32": 32, "64": 64, "128": 128}


def memory_width(mods: tuple) -> int:
    """Access width in bits encoded in a memory opcode's modifiers.

    SASS spells ``LDG.E.128``, ``STS.64`` etc.; a missing width means 32.
    """
    for mod in mods:
        if mod in _WIDTH_MODS:
            return _WIDTH_MODS[mod]
    return 32


@dataclass(frozen=True)
class Instruction:
    """One SASS instruction: guard predicate, opcode, modifiers, operands,
    and its scheduling control info.

    ``target`` is the label name for branches; the assembler resolves it to
    an instruction index stored in ``target_index``.
    """

    opcode: str
    dests: tuple = ()
    srcs: tuple = ()
    mods: tuple = ()
    pred: Optional[Pred] = None
    ctrl: ControlInfo = field(default_factory=ControlInfo)
    target: Optional[str] = None
    target_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES:
            raise ValueError(f"unknown opcode: {self.opcode!r}")
        if self.info.is_branch and self.target is None and self.target_index is None:
            raise ValueError(f"{self.opcode} requires a branch target")

    @property
    def info(self) -> OpcodeInfo:
        return OPCODES[self.opcode]

    @property
    def pipe(self) -> str:
        return self.info.pipe

    @property
    def width(self) -> int:
        """Access width in bits (memory instructions only)."""
        if not self.info.is_memory:
            raise ValueError(f"{self.opcode} is not a memory instruction")
        return memory_width(self.mods)

    @property
    def num_data_regs(self) -> int:
        """Registers moved by a memory instruction (1, 2 or 4)."""
        return self.width // 32

    @property
    def mnemonic(self) -> str:
        return ".".join((self.opcode,) + self.mods)

    def with_ctrl(self, ctrl: ControlInfo) -> "Instruction":
        return replace(self, ctrl=ctrl)

    def with_target_index(self, index: int) -> "Instruction":
        return replace(self, target_index=index)

    def reads(self) -> tuple:
        """All operands whose values this instruction consumes."""
        out = list(self.srcs)
        if self.pred is not None and not self.pred.is_pt:
            out.append(self.pred)
        return tuple(out)

    def __str__(self) -> str:
        parts = []
        if self.pred is not None and not (self.pred.is_pt and not self.pred.negated):
            parts.append(f"@{self.pred}")
        parts.append(self.mnemonic)
        operands = ", ".join(str(op) for op in (*self.dests, *self.srcs))
        if self.target is not None:
            operands = f"{operands}, {self.target}" if operands else self.target
        body = " ".join(parts)
        if operands:
            body = f"{body} {operands}"
        return f"{body} {self.ctrl}"
