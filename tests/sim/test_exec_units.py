"""Tests for the shared functional executors."""

import numpy as np
import pytest

from repro.arch import PredicateFile, RegisterFile
from repro.hmma import (
    COL_MAJOR,
    fragments_to_matrix16x8,
    matrix16x8_to_fragments,
    matrix_to_fragment,
)
from repro.isa import Instruction, Reg, assemble
from repro.sim.exec_units import ExecError, execute
from repro.sim.memory import GlobalMemory
from repro.sim.shared import SharedMemory


class Ctx:
    """Minimal warp context for executor tests."""

    def __init__(self):
        self.regs = RegisterFile()
        self.preds = PredicateFile()
        self.tid = np.arange(32, dtype=np.uint32)
        self.lane_ids = np.arange(32, dtype=np.uint32)
        self.ctaid = (3, 1, 0)
        self.global_mem = GlobalMemory(64 * 1024)
        self.shared_mem = SharedMemory(16 * 1024)
        self._clock = 1234

    def clock(self):
        return self._clock


def run1(ctx, source):
    """Assemble a single instruction and execute it, applying writes."""
    prog = assemble(source + "\nEXIT")
    eff = execute(prog[0], ctx)
    for first, values, mask in eff.reg_writes:
        ctx.regs.write_group(first, values, mask=None if mask.all() else mask)
    for idx, values, mask in eff.pred_writes:
        ctx.preds.write(idx, values, mask=None if mask.all() else mask)
    return eff


class TestAlu:
    def test_mov32i(self):
        ctx = Ctx()
        run1(ctx, "MOV32I R1, 0x1234")
        assert np.all(ctx.regs.read(1) == 0x1234)

    def test_mov_reg(self):
        ctx = Ctx()
        ctx.regs.write(2, np.arange(32, dtype=np.uint32))
        run1(ctx, "MOV R3, R2")
        np.testing.assert_array_equal(ctx.regs.read(3), np.arange(32))

    def test_iadd3(self):
        ctx = Ctx()
        ctx.regs.write(1, np.full(32, 10, np.uint32))
        ctx.regs.write(2, np.full(32, 20, np.uint32))
        run1(ctx, "IADD3 R0, R1, R2, 5")
        assert np.all(ctx.regs.read(0) == 35)

    def test_iadd3_negative_imm_wraps(self):
        ctx = Ctx()
        run1(ctx, "IADD3 R0, RZ, -1, RZ")
        assert np.all(ctx.regs.read(0) == 0xFFFFFFFF)

    def test_imad(self):
        ctx = Ctx()
        ctx.regs.write(1, np.arange(32, dtype=np.uint32))
        ctx.regs.write(2, np.full(32, 3, np.uint32))
        ctx.regs.write(3, np.full(32, 7, np.uint32))
        run1(ctx, "IMAD R0, R1, R2, R3")
        np.testing.assert_array_equal(ctx.regs.read(0), np.arange(32) * 3 + 7)

    def test_shf(self):
        ctx = Ctx()
        ctx.regs.write(1, np.full(32, 0b1100, np.uint32))
        run1(ctx, "SHF.L R0, R1, 2")
        assert np.all(ctx.regs.read(0) == 0b110000)
        run1(ctx, "SHF.R R2, R1, 2")
        assert np.all(ctx.regs.read(2) == 0b11)

    def test_lop3(self):
        ctx = Ctx()
        ctx.regs.write(1, np.full(32, 0b1010, np.uint32))
        run1(ctx, "LOP3.AND R0, R1, 0b0110")
        assert np.all(ctx.regs.read(0) == 0b0010)
        run1(ctx, "LOP3.OR R0, R1, 0b0110")
        assert np.all(ctx.regs.read(0) == 0b1110)
        run1(ctx, "LOP3.XOR R0, R1, 0b0110")
        assert np.all(ctx.regs.read(0) == 0b1100)

    def test_isetp_lt(self):
        ctx = Ctx()
        ctx.regs.write(1, np.arange(32, dtype=np.uint32))
        run1(ctx, "ISETP.LT.AND P0, PT, R1, 16, PT")
        got = ctx.preds.read(0)
        np.testing.assert_array_equal(got, np.arange(32) < 16)

    def test_isetp_signed_compare(self):
        ctx = Ctx()
        ctx.regs.write(1, np.full(32, 0xFFFFFFFF, np.uint32))  # -1
        run1(ctx, "ISETP.LT.AND P0, PT, R1, RZ, PT")
        assert np.all(ctx.preds.read(0))  # -1 < 0 signed

    def test_sel(self):
        ctx = Ctx()
        vals = np.zeros(32, bool)
        vals[:8] = True
        ctx.preds.write(1, vals)
        ctx.regs.write(2, np.full(32, 5, np.uint32))
        ctx.regs.write(3, np.full(32, 9, np.uint32))
        run1(ctx, "SEL R0, R2, R3, P1")
        out = ctx.regs.read(0)
        assert np.all(out[:8] == 5) and np.all(out[8:] == 9)

    def test_s2r_tid(self):
        ctx = Ctx()
        run1(ctx, "S2R R0, SR_TID.X")
        np.testing.assert_array_equal(ctx.regs.read(0), np.arange(32))

    def test_s2r_ctaid(self):
        ctx = Ctx()
        run1(ctx, "S2R R0, SR_CTAID.X")
        assert np.all(ctx.regs.read(0) == 3)
        run1(ctx, "S2R R1, SR_CTAID.Y")
        assert np.all(ctx.regs.read(1) == 1)

    def test_cs2r_clock(self):
        ctx = Ctx()
        run1(ctx, "CS2R R0, SR_CLOCKLO")
        assert np.all(ctx.regs.read(0) == 1234)

    def test_hfma2_packed(self):
        from repro.hmma.fp16 import pack_half2, unpack_half2

        ctx = Ctx()
        a = np.full(32, 2.0, np.float16)
        b = np.full(32, 3.0, np.float16)
        c = np.full(32, 1.0, np.float16)
        ctx.regs.write(1, pack_half2(a, a * 2))
        ctx.regs.write(2, pack_half2(b, b))
        ctx.regs.write(3, pack_half2(c, c))
        run1(ctx, "HFMA2 R0, R1, R2, R3")
        lo, hi = unpack_half2(ctx.regs.read(0))
        assert np.all(lo == 7.0)   # 2*3+1
        assert np.all(hi == 13.0)  # 4*3+1


class TestPredication:
    def test_guarded_off_lane_write_suppressed(self):
        ctx = Ctx()
        vals = np.zeros(32, bool)
        vals[0] = True
        ctx.preds.write(0, vals)
        run1(ctx, "@P0 MOV32I R1, 42")
        out = ctx.regs.read(1)
        assert out[0] == 42 and np.all(out[1:] == 0)

    def test_fully_off_no_effects(self):
        ctx = Ctx()
        eff = run1(ctx, "@P0 MOV32I R1, 42")  # P0 all-false
        assert eff.reg_writes == []

    def test_negated_guard(self):
        ctx = Ctx()
        run1(ctx, "@!P0 MOV32I R1, 7")  # !false = all lanes
        assert np.all(ctx.regs.read(1) == 7)


class TestHmmaExec:
    def test_hmma_1688_f16(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (16, 8)).astype(np.float16)
        b = rng.uniform(-1, 1, (8, 8)).astype(np.float16)
        c = rng.uniform(-1, 1, (16, 8)).astype(np.float16)
        ctx = Ctx()
        ctx.regs.write_group(8, matrix16x8_to_fragments(a))
        ctx.regs.write(10, matrix_to_fragment(b, COL_MAJOR))
        ctx.regs.write_group(4, matrix16x8_to_fragments(c))
        run1(ctx, "HMMA.1688.F16 R0, R8, R10, R4")
        got = fragments_to_matrix16x8(ctx.regs.read_group(0, 2))
        expected = (a.astype(np.float32) @ b.astype(np.float32)
                    + c.astype(np.float32)).astype(np.float16)
        np.testing.assert_array_equal(got, expected)

    def test_hmma_rejects_lane_predication(self):
        ctx = Ctx()
        vals = np.zeros(32, bool)
        vals[0] = True
        ctx.preds.write(0, vals)
        prog = assemble("@P0 HMMA.1688.F16 R0, R8, R10, R4\nEXIT")
        with pytest.raises(ExecError, match="warp-wide"):
            execute(prog[0], ctx)

    def test_hmma_rejects_rz_operand(self):
        ctx = Ctx()
        prog = assemble("HMMA.1688.F16 R0, RZ, R10, R4\nEXIT")
        with pytest.raises(ExecError, match="general registers"):
            execute(prog[0], ctx)

    @pytest.mark.parametrize("opcode, mods", [
        ("HMMA", ("1688", "F16")), ("IMMA", ("8816", "S8", "S8"))])
    def test_mma_built_without_c_operand_is_refused(self, opcode, mods):
        inst = Instruction(opcode, dests=(Reg(0),), srcs=(Reg(2), Reg(4)),
                           mods=mods)
        with pytest.raises(ExecError,
                           match=rf"{opcode} takes 4 register operands .*got 3"):
            execute(inst, Ctx())


class TestMemoryExec:
    def test_ldg_stg_roundtrip(self):
        ctx = Ctx()
        ctx.global_mem.write_array(0x100, np.arange(32, dtype=np.uint32))
        # R2 = 0x100 + 4*tid
        run1(ctx, "S2R R1, SR_TID.X")
        run1(ctx, "IMAD R2, R1, 4, 0x100")
        run1(ctx, "LDG.E.32 R3, [R2]")
        np.testing.assert_array_equal(ctx.regs.read(3), np.arange(32))
        run1(ctx, "IMAD R4, R1, 4, 0x200")
        run1(ctx, "STG.E.32 [R4], R3")
        np.testing.assert_array_equal(
            ctx.global_mem.read_array(0x200, np.uint32, 32), np.arange(32)
        )

    def test_ldg_width_mods(self):
        ctx = Ctx()
        data = np.arange(128, dtype=np.uint32)
        ctx.global_mem.write_array(0, data)
        run1(ctx, "S2R R1, SR_TID.X")
        run1(ctx, "IMAD R2, R1, 16, RZ")
        run1(ctx, "LDG.E.128 R4, [R2]")
        got = ctx.regs.read_group(4, 4)
        np.testing.assert_array_equal(got, data.reshape(32, 4).T)

    def test_lds_sts_roundtrip(self):
        ctx = Ctx()
        run1(ctx, "S2R R1, SR_TID.X")
        run1(ctx, "IMAD R2, R1, 4, RZ")
        run1(ctx, "MOV R3, R1")
        run1(ctx, "STS [R2], R3")
        run1(ctx, "LDS R5, [R2]")
        np.testing.assert_array_equal(ctx.regs.read(5), np.arange(32))

    def test_transaction_metadata(self):
        ctx = Ctx()
        run1(ctx, "S2R R1, SR_TID.X")
        run1(ctx, "IMAD R2, R1, 4, RZ")
        eff = run1(ctx, "LDG.E.CG.32 R3, [R2+0x40]")
        txn = eff.transaction
        assert txn.space == "global"
        assert txn.bypass_l1
        assert txn.width_bytes == 4
        np.testing.assert_array_equal(txn.addresses, np.arange(32) * 4 + 0x40)

    def test_masked_load_keeps_register(self):
        ctx = Ctx()
        ctx.regs.write(3, np.full(32, 77, np.uint32))
        vals = np.zeros(32, bool)
        vals[0] = True
        ctx.preds.write(0, vals)
        run1(ctx, "S2R R1, SR_TID.X")
        run1(ctx, "IMAD R2, R1, 4, RZ")
        run1(ctx, "@P0 LDG.E.32 R3, [R2]")
        out = ctx.regs.read(3)
        assert out[0] == 0  # loaded (memory is zeroed)
        assert np.all(out[1:] == 77)  # untouched lanes keep their value


class TestControlExec:
    def test_exit(self):
        ctx = Ctx()
        prog = assemble("EXIT")
        assert execute(prog[0], ctx).exited

    def test_bar(self):
        ctx = Ctx()
        prog = assemble("BAR.SYNC\nEXIT")
        assert execute(prog[0], ctx).barrier

    def test_bra_uniform_taken(self):
        ctx = Ctx()
        prog = assemble("L:\nBRA L")
        eff = execute(prog[0], ctx)
        assert eff.branch_target == 0

    def test_bra_not_taken(self):
        ctx = Ctx()
        prog = assemble("L:\n@P0 BRA L\nEXIT")  # P0 false everywhere
        eff = execute(prog[0], ctx)
        assert eff.branch_target is None

    def test_divergent_branch_rejected(self):
        ctx = Ctx()
        vals = np.zeros(32, bool)
        vals[0] = True
        ctx.preds.write(0, vals)
        prog = assemble("L:\n@P0 BRA L\nEXIT")
        with pytest.raises(ExecError, match="divergent"):
            execute(prog[0], ctx)
