"""Public INT8 GEMM API (paper Section VIII: "integer data type").

``igemm`` runs the generated ``IMMA.8816.S8.S8`` kernel on the functional
simulator: ``C[m,n] (int32) = A[m,k] (int8) @ B[k,n] (int8)``, with exact
32-bit wrap-around accumulation.
"""

from __future__ import annotations

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..sim.functional import FunctionalSimulator
from ..sim.memory import GlobalMemory
from .builder import HgemmProblem, build_hgemm
from .config import ConfigError, KernelConfig, ours_int8

__all__ = ["igemm", "igemm_reference", "IgemmRun"]


def _shrink_int8(config: KernelConfig, m: int, n: int, k: int) -> KernelConfig:
    b_m, b_n, b_k = config.b_m, config.b_n, config.b_k
    w_m, w_n = config.w_m, config.w_n
    while b_m > 64 and m % b_m:
        b_m //= 2
        w_m = min(w_m, b_m)
    while b_n > 64 and n % b_n:
        b_n //= 2
        w_n = min(w_n, b_n)
    while b_k > 32 and k % b_k:
        b_k //= 2
    if m % b_m or n % b_n or k % b_k:
        raise ConfigError(
            f"igemm needs dimensions that are multiples of (64, 64, 32); "
            f"got {m}x{n}x{k}"
        )
    return config.with_(b_m=b_m, b_n=b_n, b_k=b_k, w_m=w_m, w_n=w_n)


class IgemmRun:
    """Result of one simulated IGEMM launch."""

    def __init__(self, c: np.ndarray, config: KernelConfig, stats):
        self.c = c
        self.config = config
        self.stats = stats

    def __array__(self, dtype=None, copy=None):
        arr = self.c
        if dtype is not None:
            arr = arr.astype(dtype)
        return arr


def igemm(a, b, kernel=None, spec: GpuSpec = RTX2070,
          return_run: bool = False):
    """Compute ``C = A @ B`` on int8 operands with s32 accumulation.

    Args:
        a: (m, k) int8 array (row-major on the device).
        b: (k, n) int8 array (stored column-major, i.e. as n x k).
        kernel: an explicit int8 :class:`KernelConfig`, or None for the
            :func:`ours_int8` preset (shrunk to fit the problem).
        spec: target device.
        return_run: also return kernel statistics.

    Returns:
        (m, n) int32 array, or an :class:`IgemmRun` when *return_run*.
    """
    a8 = np.ascontiguousarray(a, dtype=np.int8)
    b8 = np.ascontiguousarray(b, dtype=np.int8)
    if a8.ndim != 2 or b8.ndim != 2 or a8.shape[1] != b8.shape[0]:
        raise ValueError(f"incompatible operands: A{a8.shape} @ B{b8.shape}")
    m, k = a8.shape
    n = b8.shape[1]
    if kernel is None:
        config = _shrink_int8(ours_int8(), m, n, k)
    else:
        if kernel.ab_dtype != "s8":
            raise ValueError("igemm needs an int8 kernel config")
        config = kernel

    def aligned(nbytes: int) -> int:
        return (nbytes + 255) // 256 * 256

    a_addr = 256
    b_addr = a_addr + aligned(a8.nbytes)
    c_addr = b_addr + aligned(b8.nbytes)
    memory = GlobalMemory(c_addr + aligned(4 * m * n) + 256)
    memory.write_array(a_addr, a8)
    memory.write_array(b_addr, np.ascontiguousarray(b8.T))  # n x k

    problem = HgemmProblem(m=m, n=n, k=k, a_addr=a_addr, b_addr=b_addr,
                           c_addr=c_addr)
    program = build_hgemm(config, problem, spec)
    stats = FunctionalSimulator().run(
        program, memory, grid_dim=config.grid_dim(m, n))
    out = memory.read_array(c_addr, np.int32, m * n).reshape(m, n)
    if return_run:
        return IgemmRun(out, config, stats)
    return out


def igemm_reference(a, b) -> np.ndarray:
    """Exact int8 GEMM oracle with s32 wrap-around accumulation.

    NumPy runs an int64 matmul without BLAS, so the sum comes from a
    float64 (BLAS) matmul, many times faster, and is then wrapped to s32.
    It is exact for k < 2**39: an int8 product is at most 2**14 in
    magnitude, so every partial sum is an integer below 2**53, exact in
    float64 whatever order BLAS adds them in.  (One row of A at k = 2**39
    would already take 512 GiB.)
    """
    a = np.ascontiguousarray(a, dtype=np.int8).astype(np.float64)
    b = np.ascontiguousarray(b, dtype=np.int8).astype(np.float64)
    full = (a @ b).astype(np.int64)
    return (full & 0xFFFFFFFF).astype(np.uint32).view(np.int32)
