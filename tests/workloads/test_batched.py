"""Tests for strided-batched GEMM through Device.launch."""

import numpy as np
import pytest

from repro.arch import DEVICES
from repro.arch.turing import RTX2070
from repro.core import hgemm, hgemm_reference
from repro.workloads import (
    hgemm_strided_batched,
    hgemm_strided_batched_reference,
)


def _rand(shape, seed):
    return np.random.default_rng(seed).uniform(-1, 1, shape).astype(
        np.float16)


class TestStridedBatched:
    def test_batched_matches_oracle_bitwise(self):
        a = _rand((3, 64, 32), 0)
        b = _rand((3, 32, 64), 1)
        run = hgemm_strided_batched(a, b, return_run=True)
        oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k)
        np.testing.assert_array_equal(run.c, oracle)
        assert run.launches == 3
        assert len(run.per_entry) == 3

    def test_3d_operands_match_per_matrix_reference(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (3, 64, 16)).astype(np.float16)
        b = rng.uniform(-1, 1, (3, 16, 64)).astype(np.float16)
        c = hgemm_strided_batched(a, b)
        assert c.shape == (3, 64, 64)
        for i in range(3):
            np.testing.assert_array_equal(c[i], hgemm_reference(a[i], b[i]))

    def test_each_entry_matches_single_hgemm(self):
        """The batch must be *exactly* a loop of single launches: same
        kernel, same bits per entry."""
        a = _rand((2, 64, 32), 2)
        b = _rand((2, 32, 64), 3)
        c = hgemm_strided_batched(a, b)
        for i in range(2):
            np.testing.assert_array_equal(c[i], np.asarray(hgemm(a[i], b[i])))

    def test_shared_b_broadcasts_with_stride_zero(self):
        a = _rand((4, 64, 32), 4)
        b = _rand((32, 64), 5)           # one weight matrix, stride 0
        c = hgemm_strided_batched(a, b)
        assert c.shape == (4, 64, 64)
        for i in range(4):
            np.testing.assert_array_equal(c[i], np.asarray(hgemm(a[i], b)))

    def test_shared_a_broadcasts_with_stride_zero(self):
        a = _rand((64, 128), 6)          # one input, stride 0 (LSTM gates)
        b = _rand((4, 128, 64), 7)
        run = hgemm_strided_batched(a, b, return_run=True)
        oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k)
        np.testing.assert_array_equal(run.c, oracle)

    def test_stats_aggregate_over_batch(self):
        a = _rand((2, 64, 32), 8)
        b = _rand((2, 32, 64), 9)
        run = hgemm_strided_batched(a, b, return_run=True)
        single = hgemm(a[0], b[0], return_run=True)
        assert run.instructions == 2 * single.stats.instructions_retired
        assert run.mma == 2 * single.stats.opcode_counts["HMMA"]
        assert run.ctas == 2 * single.stats.ctas_run

    def test_two_2d_operands_rejected(self):
        with pytest.raises(ValueError, match="at least one operand"):
            hgemm_strided_batched(_rand((64, 32), 0), _rand((32, 64), 1))

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            hgemm_strided_batched(_rand((2, 64, 32), 0),
                                  _rand((3, 32, 64), 1))

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            hgemm_strided_batched(_rand((2, 64, 32), 0),
                                  _rand((2, 64, 64), 1))

    def test_array_protocol(self):
        a = _rand((2, 64, 32), 10)
        b = _rand((2, 32, 64), 11)
        run = hgemm_strided_batched(a, b, return_run=True)
        np.testing.assert_array_equal(np.asarray(run), run.c)

    @pytest.mark.parametrize("device", ["V100", "A100"])
    def test_other_generations(self, device):
        spec = DEVICES[device]
        a = _rand((2, 64, 32), 12)
        b = _rand((32, 64), 13)
        run = hgemm_strided_batched(a, b, spec=spec, return_run=True)
        oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k)
        np.testing.assert_array_equal(run.c, oracle)

    def test_f32_accumulate(self):
        a = _rand((2, 64, 32), 14)
        b = _rand((2, 32, 64), 15)
        run = hgemm_strided_batched(a, b, accumulate="f32", return_run=True,
                                    spec=RTX2070)
        assert run.c.dtype == np.float32
        oracle = hgemm_strided_batched_reference(a, b, w_k=run.config.w_k,
                                                 accumulate="f32")
        np.testing.assert_array_equal(run.c, oracle)
