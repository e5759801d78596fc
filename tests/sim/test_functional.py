"""Tests for the grid-level functional simulator."""

import numpy as np
import pytest

from repro.isa import assemble
from repro.sim import FunctionalSimulator, GlobalMemory, SimLimitError
from repro.sim.exec_units import ExecError

# Writes tid to out[tid] for a 64-thread CTA, one CTA.
STORE_TID = """
.kernel store_tid
.block 64
  S2R R1, SR_TID.X
  IMAD R2, R1, 4, RZ
  STG.E.32 [R2], R1
  EXIT
"""


class TestBasicKernels:
    def test_store_tid(self):
        gm = GlobalMemory(4096)
        sim = FunctionalSimulator()
        result = sim.run(assemble(STORE_TID), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 64), np.arange(64)
        )
        assert result.ctas_run == 1
        assert result.opcode_counts["STG"] == 2  # one per warp

    def test_grid_indexing(self):
        # Each CTA writes its ctaid.x at out[ctaid.x].
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          IMAD R2, R1, 4, RZ
          STG.E.32 [R2], R1
          EXIT
        """
        gm = GlobalMemory(1024)
        result = FunctionalSimulator().run(assemble(src), gm, grid_dim=(5, 1))
        np.testing.assert_array_equal(gm.read_array(0, np.uint32, 5), np.arange(5))
        assert result.ctas_run == 5

    def test_2d_grid(self):
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          S2R R2, SR_CTAID.Y
          IMAD R3, R2, 3, R1      // flat = y*3 + x
          IMAD R4, R3, 4, RZ
          STG.E.32 [R4], R3
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm, grid_dim=(3, 4))
        np.testing.assert_array_equal(gm.read_array(0, np.uint32, 12), np.arange(12))


class TestLoops:
    def test_counted_loop(self):
        # Sum 0..9 per lane, store lane sums.
        src = """
        .block 32
          MOV32I R1, 0        // i
          MOV32I R2, 0        // acc
        LOOP:
          IADD3 R2, R2, R1, RZ
          IADD3 R1, R1, 1, RZ
          ISETP.LT.AND P0, PT, R1, 10, PT
          @P0 BRA LOOP
          S2R R3, SR_TID.X
          IMAD R4, R3, 4, RZ
          STG.E.32 [R4], R2
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        assert np.all(gm.read_array(0, np.uint32, 32) == 45)

    def test_runaway_loop_fuel(self):
        src = """
        .block 32
        LOOP:
          BRA LOOP
        """
        sim = FunctionalSimulator(max_instructions_per_warp=1000)
        with pytest.raises(SimLimitError, match="exceeded"):
            sim.run(assemble(src), GlobalMemory(64))


class TestBarriers:
    def test_inter_warp_communication(self):
        # Warp 0 writes shared[0..31]; after BAR, warp 1 reads it and stores.
        src = """
        .kernel xwarp
        .block 64
        .smem 256
          S2R R1, SR_TID.X
          ISETP.LT.AND P0, PT, R1, 32, PT    // P0: warp 0 lanes
          IMAD R2, R1, 4, RZ                 // tid*4
          IADD3 R3, R1, 100, RZ
          @P0 STS [R2], R3
          BAR.SYNC
          IADD3 R4, R2, -128, RZ             // warp1: (tid-32)*4
          @!P0 LDS R5, [R4]
          @!P0 STG.E.32 [R4], R5
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 32), np.arange(32) + 100
        )

    def test_multiple_barriers(self):
        # Two rounds of ping-pong through shared memory.
        src = """
        .block 64
        .smem 128
          S2R R1, SR_TID.X
          ISETP.LT.AND P0, PT, R1, 32, PT
          LOP3.AND R2, R1, 31
          IMAD R2, R2, 4, RZ                 // lane*4
          @P0 STS [R2], R1
          BAR.SYNC
          @!P0 LDS R3, [R2]
          @!P0 IADD3 R3, R3, 1, RZ
          @!P0 STS [R2], R3
          BAR.SYNC
          @P0 LDS R4, [R2]
          @P0 IMAD R5, R1, 4, RZ
          @P0 STG.E.32 [R5], R4
          EXIT
        """
        gm = GlobalMemory(1024)
        FunctionalSimulator().run(assemble(src), gm)
        np.testing.assert_array_equal(
            gm.read_array(0, np.uint32, 32), np.arange(32) + 1
        )


class TestCtaDivergence:
    def test_cta_divergent_branch_matches_reference(self):
        # CTAs 0-1 take the @P0 branch, CTAs 2-3 fall through.  Each CTA's
        # branch is warp-uniform, so lockstep runs every CTA stacked
        # (no de-stack) and must match the reference engine's memory and
        # retire counts exactly.
        src = """
        .block 32
          S2R R1, SR_CTAID.X
          S2R R2, SR_TID.X
          IMAD R3, R1, 128, RZ
          IMAD R4, R2, 4, R3                 // &out[ctaid*32 + tid]
          ISETP.LT.AND P0, PT, R1, 2, PT     // P0: ctaid < 2
          @P0 BRA SMALL
          MOV32I R5, 777
          STG.E.32 [R4], R5
          EXIT
        SMALL:
          MOV32I R5, 111
          STG.E.32 [R4], R5
          EXIT
        """
        from repro.perf.stats import STATS

        program = assemble(src)
        runs = {}
        for engine in ("lockstep", "reference"):
            gm = GlobalMemory(4096)
            STATS.counters.pop("func.destacks", None)
            result = FunctionalSimulator(engine=engine).run(
                program, gm, grid_dim=(4, 1))
            runs[engine] = (gm._words.copy(), result)
            if engine == "lockstep":
                assert STATS.counters.get("func.destacks", 0) == 0
        want = np.repeat([111, 111, 777, 777], 32).astype(np.uint32)
        np.testing.assert_array_equal(runs["reference"][0][:128], want)
        np.testing.assert_array_equal(runs["lockstep"][0],
                                      runs["reference"][0])
        assert runs["lockstep"][1] == runs["reference"][1]


class TestErrors:
    def test_missing_exit(self):
        src = ".block 32\nNOP\n"
        with pytest.raises(ExecError, match="missing EXIT"):
            FunctionalSimulator().run(assemble(src), GlobalMemory(64))

    def test_instruction_counting(self):
        gm = GlobalMemory(4096)
        result = FunctionalSimulator().run(assemble(STORE_TID), gm)
        # 2 warps x 4 instructions.
        assert result.instructions_retired == 8
