"""Tests for the text assembler."""

import pytest

from repro.isa import (
    AssemblyError,
    Imm,
    MemRef,
    Pred,
    Reg,
    SpecialReg,
    assemble,
    parse_control,
    parse_operand,
)


class TestParseOperand:
    def test_registers(self):
        assert parse_operand("R12") == Reg(12)
        assert parse_operand("RZ").is_rz

    def test_predicates(self):
        assert parse_operand("P3") == Pred(3)
        assert parse_operand("!P3") == Pred(3, negated=True)
        assert parse_operand("PT").is_pt
        assert parse_operand("!PT") == Pred(7, negated=True)

    def test_memrefs(self):
        assert parse_operand("[R4]") == MemRef(Reg(4), 0)
        assert parse_operand("[R4+0x80]") == MemRef(Reg(4), 0x80)
        assert parse_operand("[R4 - 8]") == MemRef(Reg(4), -8)
        assert parse_operand("[RZ+4]") == MemRef(Reg(255), 4)

    def test_immediates(self):
        assert parse_operand("42") == Imm(42)
        assert parse_operand("-1") == Imm(-1)
        assert parse_operand("0x100") == Imm(256)
        assert parse_operand("0b101") == Imm(5)

    def test_special(self):
        assert parse_operand("SR_TID.X") == SpecialReg("SR_TID.X")

    def test_garbage_raises(self):
        with pytest.raises(AssemblyError):
            parse_operand("Q7")


class TestParseControl:
    def test_full(self):
        ctrl = parse_control("stall=8, yield, wb=0, rb=1, wait=0b11, reuse=0x3")
        assert ctrl.stall == 8
        assert ctrl.yield_flag
        assert ctrl.write_bar == 0
        assert ctrl.read_bar == 1
        assert ctrl.wait_mask == 3
        assert ctrl.reuse == 3

    def test_empty(self):
        assert parse_control("").stall == 1

    def test_unknown_field(self):
        with pytest.raises(AssemblyError):
            parse_control("frobnicate=1")

    def test_bad_value(self):
        with pytest.raises(AssemblyError):
            parse_control("stall=abc")


SOURCE = """
.kernel demo
.regs 64
.smem 1024
.block 64

// prologue
START:
  S2R R0, SR_TID.X {stall=2, wb=0}
  MOV32I R1, 0x80
LOOP:
  HMMA.1688.F16 R4, R8, R10, R4 {stall=8}
  LDG.E.128 R16, [R2+0x100] {stall=1, wb=1}
  STS.128 [R20], R16 {wait=0b10, stall=2}
  IADD3 R1, R1, -1, RZ
  ISETP.GT.AND P0, PT, R1, RZ, PT {stall=4}
  @P0 BRA LOOP {stall=5}
  EXIT
"""


class TestAssemble:
    def test_metadata(self):
        prog = assemble(SOURCE)
        assert prog.meta.name == "demo"
        assert prog.meta.num_regs == 64
        assert prog.meta.smem_bytes == 1024
        assert prog.meta.block_dim == 64
        assert prog.meta.warps_per_cta == 2

    def test_labels_and_branch_resolution(self):
        prog = assemble(SOURCE)
        assert prog.labels == {"START": 0, "LOOP": 2}
        bra = prog[7]
        assert bra.opcode == "BRA"
        assert bra.target == "LOOP"
        assert bra.target_index == 2
        assert bra.pred == Pred(0)

    def test_instruction_fields(self):
        prog = assemble(SOURCE)
        hmma = prog[2]
        assert hmma.opcode == "HMMA"
        assert hmma.mods == ("1688", "F16")
        assert hmma.dests == (Reg(4),)
        assert hmma.srcs == (Reg(8), Reg(10), Reg(4))
        assert hmma.ctrl.stall == 8

        ldg = prog[3]
        assert ldg.width == 128
        assert ldg.num_data_regs == 4
        assert ldg.ctrl.write_bar == 1

        sts = prog[4]
        assert sts.dests == ()
        assert sts.srcs == (MemRef(Reg(20), 0), Reg(16))
        assert sts.ctrl.wait_mask == 0b10

    def test_isetp_two_dests(self):
        prog = assemble(SOURCE)
        isetp = prog[6]
        assert len(isetp.dests) == 2
        assert isetp.dests[0] == Pred(0)
        assert isetp.mods == ("GT", "AND")

    def test_count_opcode(self):
        prog = assemble(SOURCE)
        assert prog.count_opcode("HMMA") == 1
        assert prog.count_opcode("BRA") == 1
        assert prog.count_opcode("NOP") == 0

    def test_listing_roundtrips_labels(self):
        text = assemble(SOURCE).listing()
        assert "LOOP:" in text
        assert "HMMA.1688.F16" in text

    def test_undefined_label_raises(self):
        with pytest.raises(ValueError, match="undefined branch target"):
            assemble("BRA NOWHERE\nEXIT")

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            assemble("A:\nA:\nEXIT")

    def test_unknown_opcode_raises(self):
        with pytest.raises(AssemblyError, match="unknown opcode"):
            assemble("FROB R0, R1")

    def test_unknown_directive_raises(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble(".banana 3")

    def test_line_number_in_error(self):
        with pytest.raises(AssemblyError, match="line 3"):
            assemble("NOP\nNOP\nFROB R0\n")

    def test_bra_needs_single_label(self):
        with pytest.raises(AssemblyError):
            assemble("BRA A, B\nA:\nB:\nEXIT")

    def test_comments_and_blank_lines_ignored(self):
        prog = assemble("# hi\n\n  // nothing\nNOP\n")
        assert len(prog) == 1

    def test_guard_must_be_predicate(self):
        with pytest.raises(AssemblyError, match="guard"):
            assemble("@R0 NOP")

    @pytest.mark.parametrize("line, got", [
        ("HMMA.1688.F16 R0, R2, R4", 3),
        ("IMMA.8816.S8.S8 R0, R2, R4", 3),
        ("HMMA.1688.F16 R0, R2, R4, R6, R8", 5),
    ])
    def test_mma_takes_four_register_operands(self, line, got):
        with pytest.raises(AssemblyError,
                           match=rf"line 2: .*takes 4 operands, got {got}"):
            assemble(f"NOP\n{line}\nEXIT")

    @pytest.mark.parametrize("line, opcode, expected, got", [
        ("IADD3 R1, R2", "IADD3", 4, 2),
        ("IADD3 R1, R2, R3, RZ, RZ", "IADD3", 4, 5),
        ("MOV R1", "MOV", 2, 1),
        ("MOV32I R1, 1, 2", "MOV32I", 2, 3),
        ("IMAD R1, R2, R3", "IMAD", 4, 3),
        ("SHF.L R1, R2", "SHF", 3, 2),
        ("LOP3.AND R1, R2, R3, R4", "LOP3", 3, 4),
        ("ISETP.LT.AND P0, PT, R1, R2", "ISETP", 5, 4),
        ("SEL R1, R2, R3", "SEL", 4, 3),
        ("S2R R1", "S2R", 2, 1),
        ("CS2R R1, SR_CLOCKLO, R2", "CS2R", 2, 3),
        ("HFMA2 R1, R2, R3", "HFMA2", 4, 3),
        ("LDS.32 R1", "LDS", 2, 1),
        ("LDG.E R1, [R2], R3", "LDG", 2, 3),
        ("STS [R2]", "STS", 2, 1),
        ("STG.E [R2]", "STG", 2, 1),
        ("EXIT R1", "EXIT", 0, 1),
        ("NOP R1", "NOP", 0, 1),
        ("BAR.SYNC R0", "BAR", 0, 1),
    ])
    def test_operand_count_is_checked(self, line, opcode, expected, got):
        """Every opcode's operand count comes from ``OPCODES``; a line with
        another count names the opcode, the expected and the given count."""
        with pytest.raises(AssemblyError,
                           match=rf"line 2: {opcode} takes {expected} operands,"
                                 rf" got {got}"):
            assemble(f"NOP\n{line}\nEXIT")

    def test_builder_kernels_assemble(self):
        """The counts in ``OPCODES`` are the ones the builders emit: every
        generated kernel's disassembly assembles back to the same bytes."""
        from repro.arch import DEVICES
        from repro.core import ours_int8
        from repro.core.builder import HgemmProblem, build_hgemm
        from repro.core.hgemm import resolve_config
        from repro.core.igemm import _shrink_int8
        from repro.isa import disassemble, encode_program

        seen = set()
        for spec in DEVICES.values():
            configs = [resolve_config(kernel, 256, 256, 64, spec=spec)
                       for kernel in ("ours", "cublas")]
            if spec.arch.supports_f32_accum:
                configs.append(resolve_config("ours", 256, 256, 64, "f32", spec))
            if spec.arch.supports_imma:
                configs.append(_shrink_int8(ours_int8(), 256, 256, 64))
            for config in configs:
                program = build_hgemm(config, HgemmProblem(
                    256, 256, 64, 0, 1 << 20, 1 << 21), spec)
                blob = encode_program(program)
                again = assemble(disassemble(blob, program.meta))
                assert encode_program(again) == blob
                seen.update(inst.opcode for inst in program)
        assert {"HMMA", "IMMA", "IADD3", "LDS", "STS", "LDG", "STG",
                "EXIT"} <= seen
