"""Public HGEMM API: run the generated kernels on the simulated device.

This is the user-facing entry point of the reproduction::

    import numpy as np
    from repro import hgemm

    A = np.random.rand(256, 128).astype(np.float16)
    B = np.random.rand(128, 512).astype(np.float16)
    C = hgemm(A, B)                       # our optimized kernel
    C2 = hgemm(A, B, kernel="cublas")     # the cuBLAS-10.1-like baseline

``hgemm`` executes the *actual generated SASS program* on the functional
simulator, so the result carries the true Tensor Core arithmetic (per-HMMA
FP16 rounding of the accumulator).  ``hgemm_reference`` provides the
matching NumPy oracle.
"""

from __future__ import annotations

import numpy as np

from ..arch.family import SM75, ArchSpec
from ..arch.turing import GpuSpec, RTX2070
from ..sim.functional import FunctionalSimulator
from ..sim.memory import GlobalMemory
from .builder import HgemmProblem, build_hgemm
from .config import (
    ConfigError,
    KernelConfig,
    adapt_for_arch,
    cublas_like,
    ours,
    ours_f32,
)

__all__ = ["hgemm", "hgemm_batched", "hgemm_reference", "HgemmRun",
           "resolve_config"]


def _resolve_config(kernel, m: int, n: int, k: int,
                    accumulate: str = "f16",
                    spec: GpuSpec = RTX2070) -> KernelConfig:
    arch = getattr(spec, "arch", SM75)
    if isinstance(kernel, KernelConfig):
        if accumulate == "f32" and not kernel.accum_f32:
            raise ValueError(
                "accumulate='f32' needs a config with accum_f32=True"
            )
        return kernel  # explicit configs are taken verbatim
    if kernel in ("ours", None):
        base = ours_f32() if accumulate == "f32" else ours()
    elif kernel in ("cublas", "cublas-like", "baseline"):
        if accumulate == "f32":
            raise ValueError("the baseline kernel is FP16-accumulate only")
        base = cublas_like()
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return _shrink_to_fit(adapt_for_arch(base, arch), m, n, k, arch)


def _shrink_to_fit(config: KernelConfig, m: int, n: int, k: int,
                   arch: ArchSpec = SM75) -> KernelConfig:
    """Shrink the CTA/warp tiles for problems smaller than one tile.

    Production GEMM libraries keep a family of kernels and pick by shape;
    we emulate that by halving tile dimensions until they divide the
    problem.  Raises if no feasible member exists.
    """
    b_m, b_n, b_k = config.b_m, config.b_n, config.b_k
    w_m, w_n = config.w_m, config.w_n
    while b_m > 64 and m % b_m:
        b_m //= 2
        w_m = min(w_m, max(16, b_m // 2))
    while b_n > 64 and n % b_n:
        b_n //= 2
        w_n = min(w_n, max(8, b_n // 2))
    while b_k > 16 and k % b_k:
        b_k //= 2
    kwargs = dict(b_m=b_m, b_n=b_n, b_k=b_k, w_m=w_m, w_n=w_n)
    if config.smem_swizzle and b_k != 64:
        kwargs.update(smem_swizzle=False, smem_pad_halves=0)
    if m % b_m or n % b_n or k % b_k:
        raise ConfigError(
            f"no kernel in the family fits {m}x{n}x{k}; dimensions must be "
            f"multiples of (64, 64, 16)"
        )
    candidate = config.with_(**kwargs)
    if candidate.b_k // candidate.w_k < 2 or (candidate.b_k // candidate.w_k) % 2:
        min_wk = arch.hmma_k if config.ab_dtype == "f16" else config.w_k
        candidate = candidate.with_(w_k=min_wk,
                                    b_k=max(2 * min_wk, candidate.b_k))
    return candidate


def resolve_config(kernel, m: int, n: int, k: int,
                   accumulate: str = "f16",
                   spec: GpuSpec = RTX2070) -> KernelConfig:
    """The kernel-family selection :func:`hgemm` performs, as a public API.

    Workload drivers that manage device memory themselves (the batched
    and conv-as-GEMM paths in :mod:`repro.workloads`) need the same
    preset-to-feasible-member resolution without launching anything:
    named presets are adapted to the device's Tensor Core generation and
    shrunk until they tile ``m x n x k``; explicit configs are taken
    verbatim, exactly as ``hgemm`` would.
    """
    return _resolve_config(kernel, m, n, k, accumulate, spec)


class HgemmRun:
    """Result of one simulated HGEMM launch."""

    def __init__(self, c: np.ndarray, config: KernelConfig, stats):
        self.c = c
        self.config = config
        self.stats = stats

    def __array__(self, dtype=None, copy=None):
        arr = self.c
        if dtype is not None:
            arr = arr.astype(dtype)
        return arr


def hgemm(a, b, kernel="ours", spec: GpuSpec = RTX2070,
          accumulate: str = "f16", alpha: float = 1.0, beta: float = 0.0,
          c=None, return_run: bool = False, engine: str = None,
          guard: str = None):
    """Compute ``C = alpha * A @ B + beta * C`` on the simulated GPU.

    Args:
        a: (m, k) array, converted to float16 row-major.
        b: (k, n) array, converted to float16 (stored column-major on the
           device, as the paper's evaluation does).
        kernel: "ours", "cublas", or an explicit :class:`KernelConfig`.
        spec: target device description.
        accumulate: "f16" (``HMMA.1688.F16``, FP16 C -- the paper's
           kernels) or "f32" (``HMMA.1688.F32``, FP32 accumulators and
           FP32 C -- the paper's Section VIII future work).
        alpha, beta: the standard GEMM scalars (paper Section II-A; its
           evaluation uses alpha=1, beta=0).  FP16 path only.
        c: (m, n) float16 input, required when ``beta != 0``.
        return_run: also return kernel statistics.
        engine: functional execution engine ("lockstep" or
           "reference"); ``None`` defers to ``REPRO_FUNC_ENGINE``.  Both
           engines are bit-identical.
        guard: divergence-watchdog mode ("off", "sample", "full");
           ``None`` defers to ``REPRO_GUARD`` (see
           :mod:`repro.robust.guard`).

    Returns:
        (m, n) float16 (or float32) array, or an :class:`HgemmRun` when
        *return_run*.
    """
    if accumulate not in ("f16", "f32"):
        raise ValueError(f"accumulate must be 'f16' or 'f32', got {accumulate!r}")
    a16 = np.ascontiguousarray(a, dtype=np.float16)
    b16 = np.ascontiguousarray(b, dtype=np.float16)
    if a16.ndim != 2 or b16.ndim != 2 or a16.shape[1] != b16.shape[0]:
        raise ValueError(
            f"incompatible operands: A{a16.shape} @ B{b16.shape}"
        )
    m, k = a16.shape
    n = b16.shape[1]
    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires the input C")
        c_in = np.ascontiguousarray(c, dtype=np.float16)
        if c_in.shape != (m, n):
            raise ValueError(f"C must be ({m}, {n}), got {c_in.shape}")
    config = _resolve_config(kernel, m, n, k, accumulate, spec)
    c_dtype = np.float32 if config.accum_f32 else np.float16

    def aligned(nbytes: int) -> int:
        return (nbytes + 255) // 256 * 256

    a_addr = 0
    b_addr = aligned(a16.nbytes)
    c_addr = b_addr + aligned(b16.nbytes)
    total = c_addr + aligned(np.dtype(c_dtype).itemsize * m * n) + 256
    memory = GlobalMemory(total)
    memory.write_array(a_addr, a16)
    memory.write_array(b_addr, np.ascontiguousarray(b16.T))  # n x k
    if beta != 0.0:
        memory.write_array(c_addr, c_in)

    problem = HgemmProblem(m=m, n=n, k=k, a_addr=a_addr, b_addr=b_addr,
                           c_addr=c_addr, alpha=alpha, beta=beta)
    program = build_hgemm(config, problem, spec)
    stats = FunctionalSimulator(engine=engine, guard=guard).run(
        program, memory, grid_dim=config.grid_dim(m, n))
    out = memory.read_array(c_addr, c_dtype, m * n).reshape(m, n)
    if return_run:
        return HgemmRun(out, config, stats)
    return out


def hgemm_batched(a, b, kernel="ours", spec: GpuSpec = RTX2070,
                  accumulate: str = "f16") -> np.ndarray:
    """Batched GEMM: ``C[i] = A[i] @ B[i]`` for a stack of problems.

    The paper's related work (Li et al. [16]) targets batched small GEMMs;
    this wrapper provides the API surface by launching one grid per batch
    entry.  Every entry calls :func:`hgemm`; the entries share one kernel
    (same config, shape and device addresses), so the launch cache of
    :func:`~repro.core.builder.build_hgemm` builds and predecodes it once
    and every later entry reuses the program and its decoded tables.
    """
    a_s = np.ascontiguousarray(a, dtype=np.float16)
    b_s = np.ascontiguousarray(b, dtype=np.float16)
    if a_s.ndim != 3 or b_s.ndim != 3 or a_s.shape[0] != b_s.shape[0]:
        raise ValueError(
            f"batched operands must be (batch, m, k) and (batch, k, n); "
            f"got {a_s.shape} and {b_s.shape}"
        )
    out = [hgemm(a_s[i], b_s[i], kernel=kernel, spec=spec,
                 accumulate=accumulate) for i in range(a_s.shape[0])]
    return np.stack(out)


def hgemm_reference(a, b, w_k: int = 8, accumulate: str = "f16",
                    alpha: float = 1.0, beta: float = 0.0,
                    c=None) -> np.ndarray:
    """NumPy oracle with the Tensor Core precision model: full-precision
    products, accumulator rounding once per ``w_k``-wide HMMA step (to FP16
    for ``accumulate='f16'``; FP32 accumulation is exact per step), then
    the epilogue's packed-FP16 alpha/beta scaling."""
    a16 = np.ascontiguousarray(a, dtype=np.float16)
    b16 = np.ascontiguousarray(b, dtype=np.float16)
    m, k = a16.shape
    n = b16.shape[1]
    acc_dtype = np.float32 if accumulate == "f32" else np.float16
    acc = np.zeros((m, n), dtype=acc_dtype)
    for start in range(0, k, w_k):
        partial = (
            a16[:, start : start + w_k].astype(np.float32)
            @ b16[start : start + w_k].astype(np.float32)
        )
        acc = (partial + acc.astype(np.float32)).astype(acc_dtype)
    if alpha != 1.0:
        # HFMA2: acc * alpha + 0, rounded to FP16.
        acc = (acc.astype(np.float32)
               * np.float32(np.float16(alpha))).astype(np.float16)
    if beta != 0.0:
        c16 = np.ascontiguousarray(c, dtype=np.float16)
        # HFMA2: c * beta + acc, rounded to FP16.
        acc = (c16.astype(np.float32) * np.float32(np.float16(beta))
               + acc.astype(np.float32)).astype(np.float16)
    return acc
