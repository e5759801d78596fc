"""Property test: malformed assembler text fails as one typed, located error.

Lines of valid programs -- a disassembled HGEMM kernel and a hand-written
program with directives, labels, guards and control fields -- are
mutated: a token is dropped, duplicated or swapped with its neighbour, or
replaced by an out-of-range register, predicate, barrier, immediate,
directive value or branch label.  Whatever comes out either assembles or
raises :class:`~repro.isa.assembler.AssemblyError` carrying the number
of a line of the text; no other exception type may escape.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import KernelConfig
from repro.isa import AssemblyError, assemble, disassemble, encode_program

_HAND_WRITTEN = """\
.kernel fuzz_seed   // directives first
.regs 64
.smem 1024
.block 64

  S2R R0, SR_TID.X {stall=2, wb=0}
  MOV32I R1, 0x80
  ISETP.LT.AND P0, PT, R0, 32, PT {stall=4}
  CS2R R2, SR_CLOCKLO
LOOP:
  IADD3 R3, R3, 1, RZ {stall=6}
  @P0 LDG.E.128 R4, [R1+0x10] {stall=1, wb=1}
  STS.128 [R0], R4 {stall=1, wait=0b10}
  BAR.SYNC {stall=5, yield}
  LDS.64 R8, [R0-0x8] {stall=2, rb=2, reuse=1}
  HMMA.1688.F16 R10, R12, R14, R10 {stall=8}
  @!P0 BRA LOOP {stall=5}
  EXIT
"""


def _kernel_text() -> str:
    config = KernelConfig(b_m=64, b_n=64, b_k=16, w_m=32, w_n=32, w_k=8)
    program = build_hgemm(config, HgemmProblem(64, 64, 32, 0, 1 << 16,
                                               1 << 17))
    return disassemble(encode_program(program), program.meta)


_SOURCES = [_HAND_WRITTEN, _kernel_text()]

#: Tokens out of range for the field they land in, or out of place.
_BAD_TOKENS = [
    "R300", "R255,", "R-1", "P9", "@P9", "@R1", "!P8,", "{stall=99}",
    "{wait=0x1ff}", "{wb=9}", "{rb=6}", "{reuse=16}", "{stall=x}",
    "{bogus=1}", "{stall=2", "99999999999999999999", "0x1ffffffff,",
    "-4294967297", "007", "[R1+0x7fffffff]", "[R300]", "[R1+]",
    "SR_NOPE", ".block", "-32", "abc", "0", "BRA", "NOWHERE", "LOOP:",
    "L0:", "HMMA.1688.F16", ",", "{", "}", "@", "",
]


@st.composite
def _mutated(draw):
    source = draw(st.sampled_from(_SOURCES))
    lines = source.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        index = draw(st.integers(0, len(lines) - 1))
        tokens = lines[index].split()
        action = draw(st.sampled_from(["drop", "duplicate", "swap",
                                       "replace", "insert"]))
        at = draw(st.integers(0, max(0, len(tokens) - 1)))
        bad = draw(st.sampled_from(_BAD_TOKENS))
        if action == "drop" and tokens:
            del tokens[at]
        elif action == "duplicate" and tokens:
            tokens.insert(at, tokens[at])
        elif action == "swap" and len(tokens) > 1:
            at = min(at, len(tokens) - 2)
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
        elif action == "replace" and tokens:
            tokens[at] = bad
        else:
            tokens.insert(at, bad)
        lines[index] = " ".join(tokens)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_malformed_text_assembles_or_names_its_line(text):
    try:
        assemble(text)
    except AssemblyError as exc:
        assert 0 < exc.line_no <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.line_no}: ")


@pytest.mark.parametrize("line,message", [
    ("MOV R300, R1", "register index out of range: 300"),
    ("@P9 MOV R1, R2", "predicate index out of range: 9"),
    ("NOP {stall=99}", "stall must fit in 4 bits, got 99"),
    ("NOP {wait=0x1ff}", "wait_mask must fit in 6 bits, got 511"),
    ("MOV32I R0, 99999999999999999999",
     "immediate does not fit in 32 bits: 99999999999999999999"),
    (".block abc", ".block takes an integer, got 'abc'"),
    (".block -32", "block_dim must be a positive multiple of the warp "
                   "size, got -32"),
    ("BRA NOWHERE", "undefined branch target 'NOWHERE'"),
])
def test_out_of_range_line_is_located(line, message):
    """Out-of-range values, bad directive values and undefined branch
    targets are refused on their own line."""
    with pytest.raises(AssemblyError) as err:
        assemble(f"NOP\n{line}\nEXIT")
    assert err.value.line_no == 2
    assert str(err.value) == f"line 2: {message} -- {line!r}"
