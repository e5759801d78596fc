"""Two-pass assembler: SASS-subset text to :class:`~repro.isa.program.Program`.

Source format (one instruction per line)::

    .kernel hmma_cpi     // kernel metadata directives
    .regs 64
    .smem 0
    .block 32

    LOOP:                                  // labels end with ':'
      S2R R0, SR_TID.X {stall=2, wb=0}
      MOV32I R1, 0x80
      HMMA.1688.F16 R4, R8, R10, R4 {stall=8}
      @!P0 BRA LOOP {stall=5}
      EXIT

Control fields go in braces: ``stall=N``, ``yield``, ``wb=N`` (write
barrier), ``rb=N`` (read barrier), ``wait=MASK`` (int, ``0x..`` or ``0b..``),
``reuse=MASK``.  This replaces the opaque ``--:-:-:Y:8`` column syntax used
by ``maxas``/``turingas`` with named fields, but expresses the same hardware
controls.
"""

from __future__ import annotations

import re

from .control import ControlInfo
from .instructions import OPCODES, Instruction
from .operands import (
    Imm,
    MemRef,
    Pred,
    PT_INDEX,
    Reg,
    RZ_INDEX,
    SPECIAL_REGISTERS,
    SpecialReg,
)
from .program import KernelMeta, Program

__all__ = ["AssemblyError", "assemble", "parse_operand", "parse_control"]


class AssemblyError(ValueError):
    """Raised on malformed assembly input, with line context."""

    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        self.line_no = line_no
        self.line = line
        if line_no:
            message = f"line {line_no}: {message} -- {line.strip()!r}"
        super().__init__(message)


#: Operands that are destinations, per opcode (default: 1, stores/control: 0).
_DEST_COUNTS = {
    "NOP": 0,
    "EXIT": 0,
    "BAR": 0,
    "BRA": 0,
    "STG": 0,
    "STS": 0,
    "ISETP": 2,
}

_REG_RE = re.compile(r"^R(\d+)$")
_PRED_RE = re.compile(r"^(!?)P(\d+)$")
_MEM_RE = re.compile(r"^\[\s*(RZ|R\d+)\s*(?:([+-])\s*(0x[0-9a-fA-F]+|\d+)\s*)?\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|0b[01]+|\d+)$")


def _parse_int(token: str) -> int:
    return int(token, 0)


def parse_operand(token: str):
    """Parse one operand token into its operand object."""
    token = token.strip()
    if token == "RZ":
        return Reg(RZ_INDEX)
    if token == "PT":
        return Pred(PT_INDEX)
    if token == "!PT":
        return Pred(PT_INDEX, negated=True)
    m = _REG_RE.match(token)
    if m:
        return Reg(int(m.group(1)))
    m = _PRED_RE.match(token)
    if m:
        return Pred(int(m.group(2)), negated=bool(m.group(1)))
    m = _MEM_RE.match(token)
    if m:
        base = Reg(RZ_INDEX) if m.group(1) == "RZ" else Reg(int(m.group(1)[1:]))
        offset = 0
        if m.group(3) is not None:
            offset = _parse_int(m.group(3))
            if m.group(2) == "-":
                offset = -offset
        return MemRef(base, offset)
    if token in SPECIAL_REGISTERS:
        return SpecialReg(token)
    if _INT_RE.match(token):
        return Imm(_parse_int(token))
    raise AssemblyError(f"cannot parse operand {token!r}")


def parse_control(text: str) -> ControlInfo:
    """Parse the brace-enclosed control field list (without the braces)."""
    kwargs: dict = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        if item == "yield":
            kwargs["yield_flag"] = True
            continue
        if "=" not in item:
            raise AssemblyError(f"bad control field {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        try:
            ivalue = _parse_int(value.strip())
        except ValueError:
            raise AssemblyError(f"bad control value in {item!r}") from None
        field_name = {
            "stall": "stall",
            "wb": "write_bar",
            "rb": "read_bar",
            "wait": "wait_mask",
            "reuse": "reuse",
        }.get(key)
        if field_name is None:
            raise AssemblyError(f"unknown control field {key!r}")
        kwargs[field_name] = ivalue
    return ControlInfo(**kwargs)


def _strip_comment(line: str) -> str:
    for marker in ("//", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_instruction(body: str) -> Instruction:
    ctrl = ControlInfo()
    brace = body.find("{")
    if brace >= 0:
        if not body.rstrip().endswith("}"):
            raise AssemblyError("unterminated control braces")
        ctrl = parse_control(body[brace + 1 : body.rfind("}")])
        body = body[:brace].strip()

    pred = None
    if body.startswith("@"):
        guard, _, body = body.partition(" ")
        parsed = parse_operand(guard[1:])
        if not isinstance(parsed, Pred):
            raise AssemblyError(f"guard must be a predicate: {guard!r}")
        pred = parsed
        body = body.strip()

    mnemonic, _, rest = body.partition(" ")
    parts = mnemonic.split(".")
    opcode, mods = parts[0], tuple(parts[1:])
    if opcode not in OPCODES:
        raise AssemblyError(f"unknown opcode {opcode!r}")

    tokens = [t.strip() for t in rest.split(",")] if rest.strip() else []

    target = None
    if OPCODES[opcode].is_branch:
        if len(tokens) != 1 or not tokens[0]:
            raise AssemblyError("BRA takes exactly one label")
        target = tokens[0]
        tokens = []

    operands = [parse_operand(t) for t in tokens]
    expected = OPCODES[opcode].operands
    if len(operands) != expected:
        raise AssemblyError(
            f"{opcode} takes {expected} operands, got {len(operands)}")
    n_dest = _DEST_COUNTS.get(opcode, 1)
    return Instruction(
        opcode=opcode,
        dests=tuple(operands[:n_dest]),
        srcs=tuple(operands[n_dest:]),
        mods=mods,
        pred=pred,
        ctrl=ctrl,
        target=target,
    )


#: Kernel-metadata directives and the :class:`KernelMeta` field each sets.
_DIRECTIVES = {".kernel": "name", ".regs": "num_regs", ".smem": "smem_bytes",
               ".block": "block_dim"}


def assemble(source: str) -> Program:
    """Assemble *source* text into a :class:`Program`.

    Every malformed line -- an out-of-range operand, control field or
    directive value, or a branch to a label the program never defines --
    raises an :class:`AssemblyError` carrying that line's number.
    """
    meta_kwargs: dict = {}
    labels: dict = {}
    instructions: list = []
    branches: list = []   # (target, line_no, raw) of each branch

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        try:
            if line.startswith("."):
                key, _, value = line.partition(" ")
                if key not in _DIRECTIVES:
                    raise AssemblyError(f"unknown directive {key!r}")
                value = value.strip()
                if key != ".kernel" and not _INT_RE.match(value):
                    raise AssemblyError(f"{key} takes an integer, got {value!r}")
                meta_kwargs[_DIRECTIVES[key]] = (
                    value if key == ".kernel" else _parse_int(value))
                KernelMeta(**meta_kwargs)  # refuse a bad value on its line
                continue

            m = _LABEL_RE.match(line)
            if m:
                label = m.group(1)
                if label in labels:
                    raise AssemblyError(f"duplicate label {label!r}")
                labels[label] = len(instructions)
                continue

            inst = _parse_instruction(line)
            instructions.append(inst)
            if inst.target is not None:
                branches.append((inst.target, line_no, raw))
        except ValueError as exc:
            raise AssemblyError(str(exc), line_no, raw) from None

    for target, line_no, raw in branches:
        if target not in labels:
            raise AssemblyError(f"undefined branch target {target!r}",
                                line_no, raw)
    return Program(
        instructions=instructions,
        meta=KernelMeta(**meta_kwargs),
        labels=labels,
    )
