"""Tests for the INT8 IGEMM kernel (paper Section VIII future work)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import RTX2070
from repro.core import KernelConfig, igemm, igemm_reference, ours_int8
from repro.core.builder import RegisterPlan
from repro.core.config import ConfigError


def rand8(shape, seed):
    return np.random.default_rng(seed).integers(-128, 128, shape,
                                                dtype=np.int8)


class TestConfig:
    def test_preset(self):
        cfg = ours_int8()
        assert cfg.ab_dtype == "s8"
        assert cfg.cta_tile == (256, 128, 64)
        assert cfg.warp_tile == (64, 64, 16)
        assert cfg.ab_element_bytes == 1
        assert cfg.c_element_bytes == 4

    def test_same_smem_stride_as_fp16(self):
        # 64 int8 + 16 pad = 80-byte rows: the proven conflict-free stride.
        assert ours_int8().smem_row_bytes == 80
        assert ours_int8().smem_bytes == (256 + 128) * 80

    def test_registers_fit(self):
        plan = RegisterPlan.for_config(ours_int8(), 256)
        assert plan.n_acc == 128  # 64 8x8 ops x 2 s32 regs
        assert plan.top <= 255

    def test_validation(self):
        with pytest.raises(ConfigError, match="multiples of 16"):
            KernelConfig(b_m=64, b_n=64, b_k=32, w_m=32, w_n=32, w_k=8,
                         ab_dtype="s8")
        with pytest.raises(ConfigError, match="s32"):
            KernelConfig(b_m=64, b_n=64, b_k=32, w_m=32, w_n=32, w_k=16,
                         ab_dtype="s8", accum_f32=True)

    def test_feasible_on_device(self):
        ours_int8().validate_against(RTX2070)


class TestCorrectness:
    @pytest.mark.parametrize("m,n,k", [(64, 64, 32), (256, 128, 64),
                                       (128, 128, 96), (64, 256, 128)])
    def test_bit_exact(self, m, n, k):
        a, b = rand8((m, k), m + k), rand8((k, n), n)
        c = igemm(a, b)
        assert c.dtype == np.int32
        np.testing.assert_array_equal(c, igemm_reference(a, b))

    def test_extreme_values(self):
        # -128 * -128 summed over long k: large but exact s32 values.
        a = np.full((64, 128), -128, np.int8)
        b = np.full((128, 64), -128, np.int8)
        c = igemm(a, b)
        assert np.all(c == 128 * 128 * 128)

    def test_explicit_config(self):
        cfg = KernelConfig(b_m=64, b_n=64, b_k=32, w_m=32, w_n=32, w_k=16,
                           ab_dtype="s8", name="tiny-int8")
        a, b = rand8((64, 32), 0), rand8((32, 64), 1)
        np.testing.assert_array_equal(igemm(a, b, kernel=cfg),
                                      igemm_reference(a, b))

    def test_non_int8_config_rejected(self):
        from repro.core import ours
        with pytest.raises(ValueError, match="int8"):
            igemm(rand8((64, 32), 0), rand8((32, 64), 1), kernel=ours())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            igemm(rand8((64, 32), 0), rand8((16, 64), 1))

    def test_indivisible_raises(self):
        with pytest.raises(ConfigError, match="multiples"):
            igemm(rand8((100, 32), 0), rand8((32, 64), 1))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_property(self, seed):
        a, b = rand8((64, 64), seed), rand8((64, 64), seed + 1)
        np.testing.assert_array_equal(igemm(a, b), igemm_reference(a, b))


def _int64_oracle(a, b):
    """The int64 formula the oracle's float64 path must match."""
    full = a.astype(np.int64) @ b.astype(np.int64)
    return (full & 0xFFFFFFFF).astype(np.uint32).view(np.int32)


class TestOracle:
    """``igemm_reference`` sums in float64 (BLAS): bit-equal to the int64
    formula, wrap-around included."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 5, 3), (64, 48, 96),
                                       (33, 17, 1000)])
    def test_random_inputs(self, shape):
        m, n, k = shape
        a, b = rand8((m, k), k), rand8((k, n), k + 1)
        got = igemm_reference(a, b)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _int64_oracle(a, b))

    def test_all_minus_128(self):
        a = np.full((8, 512), -128, dtype=np.int8)
        b = np.full((512, 8), -128, dtype=np.int8)
        np.testing.assert_array_equal(igemm_reference(a, b),
                                      np.full((8, 8), 512 << 14, np.int32))

    def test_s32_wraps(self):
        k = (1 << 17) + 4096   # 2**14 * k > 2**31: the sum wraps
        a = np.full((2, k), -128, dtype=np.int8)
        b = np.full((k, 3), -128, dtype=np.int8)
        b[:, 1] = 127
        want = _int64_oracle(a, b)
        assert want[0, 0] < 0 and want[0, 0] != (k << 14)
        np.testing.assert_array_equal(igemm_reference(a, b), want)


class TestPerformanceCharacter:
    def test_int8_more_throughput_but_dram_bound(self):
        # The whole point of INT8 tensor ops -- and the paper's thesis
        # taken further: at 2x the compute rate, even the RTX 2070's DRAM
        # becomes the binding constraint.
        from repro.analysis import PerformanceModel
        from repro.core import ours

        pm = PerformanceModel(RTX2070)
        f16 = pm.estimate(ours(), 8192, 8192, 8192)
        s8 = pm.estimate(ours_int8(), 8192, 8192, 8192)
        assert s8.tflops > 1.2 * f16.tflops  # TOPS > TFLOPS
        assert s8.bound == "dram"
