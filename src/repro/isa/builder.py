"""Fluent programmatic builder for SASS-subset programs.

The text assembler (:mod:`repro.isa.assembler`) is convenient for short
microbenchmark loops; generated kernels (thousands of instructions, computed
offsets, parameterized schedules) are emitted through this builder instead,
exactly as ``maxas``/``turingas`` kernels are emitted from Perl/Python
templates.
"""

from __future__ import annotations

from dataclasses import replace

from .control import ControlInfo
from .instructions import Instruction
from .operands import Imm, MemRef, Pred, PT, Reg, RZ, SpecialReg
from .program import KernelMeta, Program

__all__ = ["ProgramBuilder"]


def _reg(value) -> Reg:
    return value if isinstance(value, Reg) else Reg(value)


def _src(value):
    if isinstance(value, (Reg, Imm, MemRef, SpecialReg, Pred)):
        return value
    if isinstance(value, int):
        return Imm(value)
    raise TypeError(f"cannot interpret {value!r} as a source operand")


class ProgramBuilder:
    """Accumulates instructions and emits a finished :class:`Program`.

    All emitters accept ``ctrl=`` (a :class:`ControlInfo`) or the shorthand
    keywords ``stall``, ``wait`` (iterable of barrier indices), ``wb``,
    ``rb``, ``yield_flag`` -- mirroring the text syntax.
    """

    def __init__(
        self,
        name: str = "kernel",
        num_regs: int = 32,
        smem_bytes: int = 0,
        block_dim: int = 32,
    ):
        self.meta = KernelMeta(
            name=name, num_regs=num_regs, smem_bytes=smem_bytes, block_dim=block_dim
        )
        self._instructions: list = []
        self._labels: dict = {}

    # ------------------------------------------------------------------ core

    def label(self, name: str) -> "ProgramBuilder":
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    @staticmethod
    def _make_ctrl(ctrl, stall, wait, wb, rb, yield_flag) -> ControlInfo:
        if ctrl is not None:
            return ctrl
        info = ControlInfo(stall=stall, yield_flag=yield_flag)
        if wb is not None:
            info = replace(info, write_bar=wb)
        if rb is not None:
            info = replace(info, read_bar=rb)
        if wait:
            info = info.with_wait(*wait)
        return info

    def emit(
        self,
        opcode: str,
        dests=(),
        srcs=(),
        mods=(),
        pred=None,
        target=None,
        *,
        ctrl=None,
        stall: int = 1,
        wait=(),
        wb=None,
        rb=None,
        yield_flag: bool = False,
    ) -> Instruction:
        inst = Instruction(
            opcode=opcode,
            dests=tuple(dests),
            srcs=tuple(srcs),
            mods=tuple(mods),
            pred=pred,
            ctrl=self._make_ctrl(ctrl, stall, wait, wb, rb, yield_flag),
            target=target,
        )
        self._instructions.append(inst)
        return inst

    def build(self) -> Program:
        return Program(
            instructions=self._instructions,
            meta=self.meta,
            labels=self._labels,
        )

    def __len__(self) -> int:
        return len(self._instructions)

    # ------------------------------------------------------- ALU shorthands

    def mov(self, dst, src, **kw):
        return self.emit("MOV", [_reg(dst)], [_src(src)], **kw)

    def mov32i(self, dst, imm: int, **kw):
        return self.emit("MOV32I", [_reg(dst)], [Imm(imm)], **kw)

    def iadd3(self, dst, a, b, c=RZ, **kw):
        return self.emit("IADD3", [_reg(dst)], [_src(a), _src(b), _src(c)], **kw)

    def imad(self, dst, a, b, c=RZ, **kw):
        return self.emit("IMAD", [_reg(dst)], [_src(a), _src(b), _src(c)], **kw)

    def shf_l(self, dst, src, amount, **kw):
        return self.emit("SHF", [_reg(dst)], [_src(src), _src(amount)], mods=("L",), **kw)

    def shf_r(self, dst, src, amount, **kw):
        return self.emit("SHF", [_reg(dst)], [_src(src), _src(amount)], mods=("R",), **kw)

    def lop3_and(self, dst, a, b, **kw):
        return self.emit("LOP3", [_reg(dst)], [_src(a), _src(b)], mods=("AND",), **kw)

    def lop3_or(self, dst, a, b, **kw):
        return self.emit("LOP3", [_reg(dst)], [_src(a), _src(b)], mods=("OR",), **kw)

    def lop3_xor(self, dst, a, b, **kw):
        return self.emit("LOP3", [_reg(dst)], [_src(a), _src(b)], mods=("XOR",), **kw)

    def isetp(self, pred_dst, a, b, cmp: str = "LT", **kw):
        """``ISETP.<cmp>.AND P, PT, a, b, PT`` -- compare into a predicate."""
        return self.emit(
            "ISETP",
            [pred_dst, PT],
            [_src(a), _src(b), PT],
            mods=(cmp, "AND"),
            **kw,
        )

    def sel(self, dst, a, b, pred, **kw):
        return self.emit("SEL", [_reg(dst)], [_src(a), _src(b), pred], **kw)

    def s2r(self, dst, special: str, **kw):
        return self.emit("S2R", [_reg(dst)], [SpecialReg(special)], **kw)

    def cs2r_clock(self, dst, **kw):
        return self.emit("CS2R", [_reg(dst)], [SpecialReg("SR_CLOCKLO")], **kw)

    def hfma2(self, dst, a, b, c, **kw):
        return self.emit("HFMA2", [_reg(dst)], [_reg(a), _reg(b), _reg(c)], **kw)

    # --------------------------------------------------------- control flow

    def bra(self, target: str, pred=None, **kw):
        return self.emit("BRA", pred=pred, target=target, **kw)

    def bar_sync(self, **kw):
        return self.emit("BAR", mods=("SYNC",), **kw)

    def exit(self, **kw):
        return self.emit("EXIT", **kw)

    def nop(self, **kw):
        return self.emit("NOP", **kw)

    # --------------------------------------------------------------- memory

    @staticmethod
    def _width_mods(width: int, extra=()) -> tuple:
        if width not in (32, 64, 128):
            raise ValueError(f"memory width must be 32/64/128, got {width}")
        return tuple(extra) + ((str(width),) if width != 32 else ())

    def ldg(self, dst, base, offset: int = 0, width: int = 32, bypass_l1=False, **kw):
        """Global load.  ``bypass_l1`` adds the ``.CG`` cache hint the paper
        uses to measure L2/DRAM without L1 interference (Section V-A)."""
        extra = ("E",) + (("CG",) if bypass_l1 else ())
        return self.emit(
            "LDG",
            [_reg(dst)],
            [MemRef(_reg(base), offset)],
            mods=self._width_mods(width, extra),
            **kw,
        )

    def stg(self, base, src, offset: int = 0, width: int = 32, **kw):
        return self.emit(
            "STG",
            [],
            [MemRef(_reg(base), offset), _reg(src)],
            mods=self._width_mods(width, ("E",)),
            **kw,
        )

    def lds(self, dst, base, offset: int = 0, width: int = 32, **kw):
        return self.emit(
            "LDS",
            [_reg(dst)],
            [MemRef(_reg(base), offset)],
            mods=self._width_mods(width),
            **kw,
        )

    def sts(self, base, src, offset: int = 0, width: int = 32, **kw):
        return self.emit(
            "STS",
            [],
            [MemRef(_reg(base), offset), _reg(src)],
            mods=self._width_mods(width),
            **kw,
        )

    # ---------------------------------------------------------- tensor core

    def hmma_1688(self, d, a, b, c, f32: bool = False, **kw):
        """``HMMA.1688.F16/F32 Rd, Ra, Rb, Rc`` (register indices name the
        first register of each operand group, as in SASS)."""
        return self.emit(
            "HMMA",
            [_reg(d)],
            [_reg(a), _reg(b), _reg(c)],
            mods=("1688", "F32" if f32 else "F16"),
            **kw,
        )

    def hmma_884(self, d, a, b, c, **kw):
        return self.emit(
            "HMMA", [_reg(d)], [_reg(a), _reg(b), _reg(c)], mods=("884", "F16"), **kw
        )

    def hmma_16816(self, d, a, b, c, f32: bool = False, **kw):
        """``HMMA.16816.F16/F32 Rd, Ra, Rb, Rc`` -- Ampere's k=16 shape
        (A spans 4 registers, B spans 2)."""
        return self.emit(
            "HMMA",
            [_reg(d)],
            [_reg(a), _reg(b), _reg(c)],
            mods=("16816", "F32" if f32 else "F16"),
            **kw,
        )

    def hmma(self, arch, d, a, b, c, f32: bool = False, **kw):
        """Emit the HMMA shape native to *arch* (an :class:`ArchSpec`)."""
        if arch.hmma_mods == "884":
            if f32:
                raise ValueError("HMMA.884 has no F32 accumulate form")
            return self.hmma_884(d, a, b, c, **kw)
        if arch.hmma_mods == "1688":
            return self.hmma_1688(d, a, b, c, f32=f32, **kw)
        if arch.hmma_mods == "16816":
            return self.hmma_16816(d, a, b, c, f32=f32, **kw)
        raise ValueError(f"unknown HMMA shape {arch.hmma_mods!r}")

    def imma_8816(self, d, a, b, c, **kw):
        """``IMMA.8816.S8.S8 Rd, Ra, Rb, Rc`` -- int8 Tensor Core MMA."""
        return self.emit(
            "IMMA", [_reg(d)], [_reg(a), _reg(b), _reg(c)],
            mods=("8816", "S8", "S8"), **kw
        )
