"""Tests for the standard-form GEMM (alpha/beta) and batched wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigError, hgemm, hgemm_reference
from repro.core.builder import HgemmProblem
from repro.core.config import ours_f32


def rand(shape, seed):
    return np.random.default_rng(seed).uniform(-2, 2, shape).astype(np.float16)


class TestAlphaBeta:
    def test_alpha_scales(self):
        a, b = rand((64, 16), 0), rand((16, 64), 1)
        got = hgemm(a, b, alpha=2.0)
        np.testing.assert_array_equal(got, hgemm_reference(a, b, alpha=2.0))

    def test_beta_accumulates(self):
        a, b = rand((64, 16), 2), rand((16, 64), 3)
        c = rand((64, 64), 4)
        got = hgemm(a, b, beta=1.0, c=c)
        np.testing.assert_array_equal(
            got, hgemm_reference(a, b, beta=1.0, c=c))

    def test_both(self):
        a, b = rand((128, 32), 5), rand((32, 128), 6)
        c = rand((128, 128), 7)
        got = hgemm(a, b, alpha=0.5, beta=-1.5, c=c)
        np.testing.assert_array_equal(
            got, hgemm_reference(a, b, alpha=0.5, beta=-1.5, c=c))

    def test_alpha_zero(self):
        # alpha=0, beta=1 copies C through the epilogue scaling.
        a, b = rand((64, 16), 8), rand((16, 64), 9)
        c = rand((64, 64), 10)
        got = hgemm(a, b, alpha=0.0, beta=1.0, c=c)
        np.testing.assert_array_equal(
            got, hgemm_reference(a, b, alpha=0.0, beta=1.0, c=c))

    def test_beta_requires_c(self):
        with pytest.raises(ValueError, match="requires the input C"):
            hgemm(rand((64, 16), 0), rand((16, 64), 1), beta=1.0)

    def test_c_shape_checked(self):
        with pytest.raises(ValueError, match="C must be"):
            hgemm(rand((64, 16), 0), rand((16, 64), 1), beta=1.0,
                  c=np.zeros((8, 8), np.float16))

    def test_f32_path_rejects_scaling(self):
        prob = HgemmProblem(256, 128, 32, alpha=2.0)
        with pytest.raises(ConfigError, match="alpha/beta"):
            prob.validate(ours_f32())

    def test_cublas_kernel_scaling(self):
        a, b = rand((128, 64), 11), rand((64, 128), 12)
        c = rand((128, 128), 13)
        got = hgemm(a, b, kernel="cublas", alpha=2.0, beta=0.5, c=c)
        np.testing.assert_array_equal(
            got, hgemm_reference(a, b, alpha=2.0, beta=0.5, c=c))

    @settings(max_examples=6, deadline=None)
    @given(alpha=st.sampled_from([0.25, 1.0, 3.0]),
           beta=st.sampled_from([0.0, 1.0, -0.5]),
           seed=st.integers(0, 100))
    def test_property(self, alpha, beta, seed):
        a, b = rand((64, 16), seed), rand((16, 64), seed + 1)
        c = rand((64, 64), seed + 2) if beta else None
        got = hgemm(a, b, alpha=alpha, beta=beta, c=c)
        np.testing.assert_array_equal(
            got, hgemm_reference(a, b, alpha=alpha, beta=beta, c=c))
