"""Tests for the IMMA.8816 int8 Tensor Core semantics (future work)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmma import int8 as i8


def rand_a(seed):
    return np.random.default_rng(seed).integers(-128, 128, (8, 16),
                                                dtype=np.int8)


def rand_b(seed):
    return np.random.default_rng(seed).integers(-128, 128, (16, 8),
                                                dtype=np.int8)


class TestFragments:
    def test_a_roundtrip(self):
        a = rand_a(0)
        words = i8.int8_matrix_to_fragment_a(a)
        assert words.shape == (32,) and words.dtype == np.uint32
        np.testing.assert_array_equal(i8.fragment_a_to_int8_matrix(words), a)

    def test_b_roundtrip(self):
        b = rand_b(1)
        words = i8.int8_matrix_to_fragment_b(b)
        np.testing.assert_array_equal(i8.fragment_b_to_int8_matrix(words), b)

    def test_s32_roundtrip(self):
        c = np.random.default_rng(2).integers(-2**31, 2**31, (8, 8),
                                              dtype=np.int64).astype(np.int32)
        regs = i8.s32_matrix_to_fragments(c)
        assert regs.shape == (2, 32)
        np.testing.assert_array_equal(i8.fragments_to_s32_matrix(regs), c)

    def test_a_lane_ownership(self):
        # Lane 4r+p holds A[r, 4p..4p+3]: check one specific lane.
        a = np.zeros((8, 16), np.int8)
        a[3, 8:12] = [1, 2, 3, 4]
        words = i8.int8_matrix_to_fragment_a(a)
        lane = 4 * 3 + 2  # row 3, byte group 2
        packed = int(words[lane])
        assert [(packed >> (8 * i)) & 0xFF for i in range(4)] == [1, 2, 3, 4]
        assert all(words[l] == 0 for l in range(32) if l != lane)

    def test_b_lane_ownership(self):
        # Lane q+4c holds B[4q..4q+3, c].
        b = np.zeros((16, 8), np.int8)
        b[4:8, 5] = [9, 8, 7, 6]
        words = i8.int8_matrix_to_fragment_b(b)
        lane = 1 + 4 * 5
        packed = int(words[lane])
        assert [(packed >> (8 * i)) & 0xFF for i in range(4)] == [9, 8, 7, 6]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            i8.int8_matrix_to_fragment_a(np.zeros((16, 8), np.int8))
        with pytest.raises(ValueError):
            i8.fragments_to_s32_matrix(np.zeros((3, 32), np.uint32))


class TestImma:
    def _run(self, a, b, c):
        return i8.fragments_to_s32_matrix(i8.imma_8816(
            i8.int8_matrix_to_fragment_a(a),
            i8.int8_matrix_to_fragment_b(b),
            i8.s32_matrix_to_fragments(c),
        ))

    def test_matches_integer_reference(self):
        a, b = rand_a(3), rand_b(4)
        c = np.random.default_rng(5).integers(-1000, 1000, (8, 8),
                                              dtype=np.int32)
        expected = (a.astype(np.int64) @ b.astype(np.int64) + c).astype(np.int32)
        np.testing.assert_array_equal(self._run(a, b, c), expected)

    def test_exact_at_extremes(self):
        # All -128 * -128 * 16 = 262144 per element: exact in s32.
        a = np.full((8, 16), -128, np.int8)
        b = np.full((16, 8), -128, np.int8)
        d = self._run(a, b, np.zeros((8, 8), np.int32))
        assert np.all(d == 128 * 128 * 16)

    def test_wraparound_accumulate(self):
        a = np.zeros((8, 16), np.int8)
        a[0, 0] = 1
        b = np.zeros((16, 8), np.int8)
        b[0, 0] = 1
        c = np.full((8, 8), np.int32(2**31 - 1))
        d = self._run(a, b, c)
        assert d[0, 0] == np.int32(-2**31)  # INT_MAX + 1 wraps

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_property(self, seed):
        a, b = rand_a(seed), rand_b(seed + 1)
        c = np.zeros((8, 8), np.int32)
        expected = (a.astype(np.int64) @ b.astype(np.int64)).astype(np.int32)
        np.testing.assert_array_equal(self._run(a, b, c), expected)

    def test_ops_constant(self):
        assert i8.IMMA_8816_OPS == 2048


class TestImmaBatch:
    """The stacked batch kernel (float64 BLAS sums) against the per-warp
    int64 reference, on random and extreme operands."""

    @settings(max_examples=25, deadline=None)
    @given(g=st.integers(1, 8), n_warps=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans())
    def test_matches_per_warp(self, g, n_warps, seed, extreme):
        rng = np.random.default_rng(seed)
        lanes = 32 * n_warps
        if extreme:   # int8 bounds, and C words next to the s32 bounds
            a, b = (rng.choice(np.array([-128, 127], np.int8), (g, 4 * lanes))
                    .view(np.uint32) for _ in range(2))
            c = (rng.choice(np.array([2**31 - 1, -2**31, -1, 0], np.int64),
                            (g, 2, lanes)).astype(np.int32).view(np.uint32))
        else:
            a, b = (rng.integers(0, 1 << 32, (g, lanes), dtype=np.uint32)
                    for _ in range(2))
            c = rng.integers(0, 1 << 32, (g, 2, lanes), dtype=np.uint32)
        got = i8.imma_8816_batch(a, b, c)
        assert got.shape == c.shape and got.dtype == np.uint32
        for i in range(g):
            for w in range(n_warps):
                warp = slice(32 * w, 32 * (w + 1))
                np.testing.assert_array_equal(
                    got[i][:, warp],
                    i8.imma_8816(a[i][warp], b[i][warp], c[i][:, warp]))


class TestImmaInSimulator:
    def test_executes_in_program(self):
        import numpy as np
        from repro.isa import ProgramBuilder, Reg
        from repro.sim import FunctionalSimulator, GlobalMemory

        rng = np.random.default_rng(7)
        a = rng.integers(-4, 4, (8, 16), dtype=np.int8)
        bm = rng.integers(-4, 4, (16, 8), dtype=np.int8)

        b = ProgramBuilder(name="imma", block_dim=32)
        b.s2r(2, "SR_TID.X", stall=6)
        b.imad(3, Reg(2), 4, 0, stall=6)
        b.ldg(8, 3, offset=0x1000, width=32, stall=2, wb=0)   # A
        b.ldg(10, 3, offset=0x1100, width=32, stall=2, wb=1)  # B
        b.mov(4, Reg(255), stall=1)
        b.mov(5, Reg(255), stall=2, wait=(0, 1))
        b.imma_8816(4, 8, 10, 4, stall=4)
        b.nop(stall=15)
        b.stg(3, 4, offset=0x2000, width=32, stall=4)
        b.stg(3, 5, offset=0x2080, width=32, stall=4)
        b.exit()

        gm = GlobalMemory(1 << 20)
        gm.write_array(0x1000, i8.int8_matrix_to_fragment_a(a))
        gm.write_array(0x1100, i8.int8_matrix_to_fragment_b(bm))
        FunctionalSimulator().run(b.build(), gm)

        regs = np.stack([gm.read_array(0x2000, np.uint32, 32),
                         gm.read_array(0x2080, np.uint32, 32)])
        got = i8.fragments_to_s32_matrix(regs)
        expected = (a.astype(np.int64) @ bm.astype(np.int64)).astype(np.int32)
        np.testing.assert_array_equal(got, expected)

    def test_cpi_is_4(self):
        from repro.arch import RTX2070
        from repro.bench import measure_imma_cpi

        result = measure_imma_cpi(RTX2070)
        assert result.cpi == pytest.approx(4.0, abs=0.1)

    def test_double_throughput_vs_hmma(self):
        from repro.arch import RTX2070
        from repro.bench import measure_hmma_cpi, measure_imma_cpi

        hmma = measure_hmma_cpi(RTX2070, per_loop=64, loops=4)
        imma = measure_imma_cpi(RTX2070, per_loop=64, loops=4)
        # Same 2048 ops per instruction at half the cycles: 2x the TOPS.
        assert hmma.cpi / imma.cpi == pytest.approx(2.0, rel=0.03)
