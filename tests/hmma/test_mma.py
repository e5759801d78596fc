"""Tests for the functional HMMA semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GENERATIONS
from repro.hmma import (
    COL_MAJOR,
    ROW_MAJOR,
    fragment_to_matrix,
    fragments_f32_to_matrix16x8,
    fragments_to_matrix16x8,
    matrix16x8_to_fragments,
    matrix16x8_to_fragments_f32,
    matrix_to_fragment,
    mma,
)


def rand_half(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, size=shape).astype(np.float16)


class TestMatrixReference:
    def test_identity_b(self):
        a = rand_half((16, 8), 0)
        c = np.zeros((16, 8), np.float16)
        d = mma.mma_reference(a, np.eye(8, dtype=np.float16), c, accumulate_f32=False)
        np.testing.assert_array_equal(d, a)

    def test_accumulation(self):
        a = np.ones((16, 8), np.float16)
        b = np.ones((8, 8), np.float16)
        c = np.full((16, 8), 2.0, np.float16)
        d = mma.mma_reference(a, b, c, accumulate_f32=False)
        assert np.all(d == 10.0)  # 8 + 2

    def test_f32_keeps_precision(self):
        # 2048 + 1 is exactly representable in f32 but not f16.
        a = np.zeros((16, 8), np.float16)
        a[:, 0] = 1.0
        b = np.zeros((8, 8), np.float16)
        b[0, 0] = 1.0
        c = np.full((16, 8), 2048.0, np.float32)
        d32 = mma.mma_reference(a, b, c, accumulate_f32=True)
        assert d32[0, 0] == 2049.0
        d16 = mma.mma_reference(a, b, c.astype(np.float16), accumulate_f32=False)
        assert d16[0, 0] == 2048.0  # rounded back to f16

    def test_shape_check(self):
        with pytest.raises(ValueError):
            mma.mma_reference(
                np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((16, 8)), False
            )


class TestHmma1688F16:
    def _run(self, a, b, c):
        d_regs = mma.hmma_1688_f16(
            matrix16x8_to_fragments(a),
            matrix_to_fragment(b, COL_MAJOR),
            matrix16x8_to_fragments(c),
        )
        return fragments_to_matrix16x8(d_regs)

    def test_matches_reference(self):
        a = rand_half((16, 8), 1)
        b = rand_half((8, 8), 2)
        c = rand_half((16, 8), 3)
        np.testing.assert_array_equal(
            self._run(a, b, c), mma.mma_reference(a, b, c, accumulate_f32=False)
        )

    def test_zero_inputs(self):
        z16 = np.zeros((16, 8), np.float16)
        z8 = np.zeros((8, 8), np.float16)
        assert np.all(self._run(z16, z8, z16) == 0)

    def test_b_is_consumed_column_major(self):
        # If B were (incorrectly) gathered row-major the result would be A @ B^T.
        a = np.zeros((16, 8), np.float16)
        a[0, 0] = 1.0
        b = np.zeros((8, 8), np.float16)
        b[0, 3] = 5.0  # row 0, col 3
        d = self._run(a, b, np.zeros((16, 8), np.float16))
        assert d[0, 3] == 5.0
        assert d[3, 0] == 0.0

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_random_matches_numpy_f32_rounded(self, seed):
        a = rand_half((16, 8), seed)
        b = rand_half((8, 8), seed + 1)
        c = rand_half((16, 8), seed + 2)
        expected = (
            a.astype(np.float32) @ b.astype(np.float32) + c.astype(np.float32)
        ).astype(np.float16)
        np.testing.assert_array_equal(self._run(a, b, c), expected)


class TestHmma1688F32:
    def test_matches_reference(self):
        a = rand_half((16, 8), 4)
        b = rand_half((8, 8), 5)
        rng = np.random.default_rng(6)
        c = rng.normal(size=(16, 8)).astype(np.float32)
        d_regs = mma.hmma_1688_f32(
            matrix16x8_to_fragments(a),
            matrix_to_fragment(b, COL_MAJOR),
            matrix16x8_to_fragments_f32(c),
        )
        got = fragments_f32_to_matrix16x8(d_regs)
        expected = a.astype(np.float32) @ b.astype(np.float32) + c
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_higher_accuracy_than_f16_chain(self):
        # Accumulating 0.0009765625 (2^-10) onto 64.0: f16 ulp at 64 is 1/16,
        # so an f16 accumulator drops it; f32 keeps it.
        a = np.zeros((16, 8), np.float16)
        a[0, 0] = 1.0
        b = np.zeros((8, 8), np.float16)
        b[0, 0] = np.float16(2**-10)
        c32 = np.full((16, 8), 64.0, np.float32)
        d_regs = mma.hmma_1688_f32(
            matrix16x8_to_fragments(a),
            matrix_to_fragment(b, COL_MAJOR),
            matrix16x8_to_fragments_f32(c32),
        )
        got = fragments_f32_to_matrix16x8(d_regs)
        assert got[0, 0] > 64.0


class TestHmma884:
    def test_matches_reference(self):
        a = rand_half((8, 8), 7)
        b = rand_half((8, 8), 8)
        c = rand_half((8, 8), 9)
        d_reg = mma.hmma_884_f16(
            matrix_to_fragment(a, ROW_MAJOR),
            matrix_to_fragment(b, COL_MAJOR),
            matrix_to_fragment(c, ROW_MAJOR),
        )
        got = fragment_to_matrix(d_reg, ROW_MAJOR)
        expected = (
            a.astype(np.float32) @ b.astype(np.float32) + c.astype(np.float32)
        ).astype(np.float16)
        np.testing.assert_array_equal(got, expected)

    def test_two_884_equal_one_1688(self):
        # HMMA.1688 on [A_top; A_bottom] equals two independent 884s.
        a = rand_half((16, 8), 10)
        b = rand_half((8, 8), 11)
        c = rand_half((16, 8), 12)
        d1688 = fragments_to_matrix16x8(
            mma.hmma_1688_f16(
                matrix16x8_to_fragments(a),
                matrix_to_fragment(b, COL_MAJOR),
                matrix16x8_to_fragments(c),
            )
        )
        for half in range(2):
            d884 = fragment_to_matrix(
                mma.hmma_884_f16(
                    matrix_to_fragment(a[8 * half : 8 * half + 8], ROW_MAJOR),
                    matrix_to_fragment(b, COL_MAJOR),
                    matrix_to_fragment(c[8 * half : 8 * half + 8], ROW_MAJOR),
                ),
                ROW_MAJOR,
            )
            np.testing.assert_array_equal(d1688[8 * half : 8 * half + 8], d884)


class TestFlopAccounting:
    def test_hmma_flops_constant(self):
        assert mma.HMMA_1688_FLOPS == 2048


#: Every HMMA shape of the generation registry, by SASS modifier.
SHAPES = [pytest.param(arch.hmma_shape, id=arch.hmma_mods)
          for arch in GENERATIONS.values()]


class TestHostSummationOrder:
    """The precision model takes ``np.matmul`` to add an HMMA's products
    in k order, and every functional golden depends on that order, so a
    host whose BLAS sums otherwise fails here first."""

    @pytest.mark.parametrize("depth", [1, 64, 4096])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matmul_sums_in_k_order(self, shape, depth):
        assert mma.k_order_mismatch(shape, depth) == 0.0

    @pytest.mark.parametrize("shape", SHAPES)
    def test_check_tells_the_orders_apart(self, shape):
        assert mma.k_order_mismatch(shape, 64, reverse=True) > 0.25
