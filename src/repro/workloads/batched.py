"""Batched/strided GEMM: independent problems through ``Device.launch``.

The paper's related work (Li et al. [16]) targets batched small GEMMs --
the shape deep-learning frameworks feed cuBLAS as
``cublasHgemmStridedBatched``: ``C[i] = A[i] @ B[i]`` for a stack of
identically-shaped problems, where any operand may have batch stride
zero (one weight matrix shared by every batch entry, the LSTM/FC case).

This driver reproduces that call on the simulated device: all operands
are packed into one :class:`~repro.sim.gpu.Device` memory arena at
their batch strides, one kernel is resolved for the common shape, and
each entry's grid is driven through ``Device.launch``.  The generated
program is rebuilt per entry only because the operand addresses differ;
the kernel configuration (and therefore the SASS schedule) is resolved
once for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..core.builder import HgemmProblem, build_hgemm
from ..core.hgemm import hgemm_reference, resolve_config
from ..sim.gpu import Device

__all__ = ["BatchedRun", "hgemm_strided_batched",
           "hgemm_strided_batched_reference"]


@dataclass
class BatchedRun:
    """Result of one strided-batched launch sequence."""

    c: np.ndarray              # (batch, m, n)
    config: object             # the resolved KernelConfig (shared)
    launches: int              # grids driven through Device.launch
    instructions: int = 0      # retired, summed over the batch
    ctas: int = 0              # CTAs run, summed over the batch
    mma: int = 0               # HMMA instructions, summed over the batch
    per_entry: list = field(default_factory=list)  # FunctionalResult stats

    def __array__(self, dtype=None, copy=None):
        arr = self.c
        if dtype is not None:
            arr = arr.astype(dtype)
        return arr


def _as_batch(x, name: str, batch: int) -> tuple:
    """(array, strided) where a 2-D operand broadcasts with stride 0."""
    arr = np.ascontiguousarray(x, dtype=np.float16)
    if arr.ndim == 2:
        return arr[np.newaxis], False
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 2-D (broadcast) or 3-D (batched), "
                         f"got shape {arr.shape}")
    if arr.shape[0] != batch:
        raise ValueError(f"{name} has batch {arr.shape[0]}, expected {batch}")
    return arr, True


def _aligned(nbytes: int) -> int:
    return (nbytes + 255) // 256 * 256


def hgemm_strided_batched(a, b, kernel="ours", spec: GpuSpec = RTX2070,
                          accumulate: str = "f16", return_run: bool = False):
    """Compute ``C[i] = A[i] @ B[i]`` for a stack of independent problems.

    Args:
        a: (batch, m, k) float16 stack, or (m, k) to share one A across
           the batch (batch stride 0).
        b: (batch, k, n) stack, or (k, n) shared weights (stride 0) --
           the fully-connected / LSTM-gate layout.
        kernel: "ours", "cublas", or an explicit KernelConfig; resolved
           once for the common (m, n, k) shape.
        spec: target device.
        accumulate: "f16" or "f32" (see :func:`repro.core.hgemm`).
        return_run: also return per-batch statistics.

    Returns:
        (batch, m, n) array, or a :class:`BatchedRun` when *return_run*.

    At least one operand must be 3-D (it determines the batch count).
    """
    a_arr = np.ascontiguousarray(a, dtype=np.float16)
    b_arr = np.ascontiguousarray(b, dtype=np.float16)
    if a_arr.ndim == 2 and b_arr.ndim == 2:
        raise ValueError("at least one operand must be batched (3-D); "
                         "use repro.hgemm for a single GEMM")
    batch = a_arr.shape[0] if a_arr.ndim == 3 else b_arr.shape[0]
    a_s, a_strided = _as_batch(a_arr, "A", batch)
    b_s, b_strided = _as_batch(b_arr, "B", batch)
    m, k = a_s.shape[1:]
    if b_s.shape[1] != k:
        raise ValueError(f"incompatible operands: A(..,{m},{k}) @ "
                         f"B(..,{b_s.shape[1]},{b_s.shape[2]})")
    n = b_s.shape[2]

    config = resolve_config(kernel, m, n, k, accumulate, spec)
    c_dtype = np.float32 if config.accum_f32 else np.float16

    a_stride = _aligned(m * k * 2) if a_strided else 0
    b_stride = _aligned(k * n * 2) if b_strided else 0
    c_stride = _aligned(m * n * np.dtype(c_dtype).itemsize)
    a_bytes = _aligned(m * k * 2) * (batch if a_strided else 1)
    b_bytes = _aligned(k * n * 2) * (batch if b_strided else 1)
    total = a_bytes + b_bytes + c_stride * batch + (4 << 10)

    dev = Device(spec, memory_bytes=_aligned(total))
    a_base = dev.malloc(a_bytes)
    b_base = dev.malloc(b_bytes)
    c_base = dev.malloc(c_stride * batch)
    for i in range(a_s.shape[0]):
        dev.memcpy_htod(a_base + i * a_stride, a_s[i])
    for i in range(b_s.shape[0]):
        # B is stored transposed (n x k) on the device, as hgemm does.
        dev.memcpy_htod(b_base + i * b_stride,
                        np.ascontiguousarray(b_s[i].T))

    run = BatchedRun(c=np.empty((batch, m, n), dtype=c_dtype),
                     config=config, launches=batch)
    grid = config.grid_dim(m, n)
    for i in range(batch):
        problem = HgemmProblem(
            m=m, n=n, k=k,
            a_addr=a_base + i * a_stride,
            b_addr=b_base + i * b_stride,
            c_addr=c_base + i * c_stride,
        )
        program = build_hgemm(config, problem, spec)
        stats = dev.launch(program, grid=grid)
        run.instructions += stats.instructions_retired
        run.ctas += stats.ctas_run
        run.mma += stats.opcode_counts.get("HMMA", 0)
        run.per_entry.append(stats)
        run.c[i] = dev.memcpy_dtoh(c_base + i * c_stride, c_dtype,
                                   m * n).reshape(m, n)
    if return_run:
        return run
    return run.c


def hgemm_strided_batched_reference(a, b, w_k: int = 8,
                                    accumulate: str = "f16") -> np.ndarray:
    """Precision-model oracle for :func:`hgemm_strided_batched`.

    Broadcasting rules match the driver: 2-D operands are shared across
    the batch.  ``w_k`` must be the resolved config's warp k-step (the
    device generation's native HMMA k).
    """
    a_arr = np.ascontiguousarray(a, dtype=np.float16)
    b_arr = np.ascontiguousarray(b, dtype=np.float16)
    batch = a_arr.shape[0] if a_arr.ndim == 3 else b_arr.shape[0]
    a_s, _ = _as_batch(a_arr, "A", batch)
    b_s, _ = _as_batch(b_arr, "B", batch)
    out = [hgemm_reference(a_s[min(i, a_s.shape[0] - 1)],
                           b_s[min(i, b_s.shape[0] - 1)],
                           w_k=w_k, accumulate=accumulate)
           for i in range(batch)]
    return np.stack(out)
