"""Convolution as implicit GEMM: the im2col lowering (paper Section I).

Frameworks feed convolutions to Tensor Cores by lowering them to GEMM:
every output pixel's receptive field becomes one row of a patch matrix
(``im2col``), the filter bank becomes a ``(R*S*C) x K`` weight matrix,
and the convolution is one ``(N*OH*OW) x K x (R*S*C)`` GEMM.  This
module provides the shape mapper plus a functional ``conv2d`` that runs
the lowered GEMM through the real simulated kernel, so the Tensor Core
precision model applies to the convolution exactly as it does to plain
HGEMM.

Layout conventions: activations are NHWC, weights are ``(R, S, C, K)``
(filter height, width, input channels, output channels) -- the layouts
cuDNN's implicit-GEMM kernels prefer, and the ones under which im2col
rows are contiguous channel runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..core.hgemm import hgemm, hgemm_reference

__all__ = ["ConvSpec", "im2col", "weights_matrix", "conv2d",
           "conv2d_reference"]


@dataclass(frozen=True)
class ConvSpec:
    """One 2-D convolution layer and its implicit-GEMM shape."""

    n: int            # batch
    h: int            # input height
    w: int            # input width
    c_in: int         # input channels
    c_out: int        # output channels (filter count K)
    r: int = 3        # filter height
    s: int = 3        # filter width
    stride: int = 1
    pad: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.h, self.w, self.c_in, self.c_out,
               self.r, self.s, self.stride) < 1 or self.pad < 0:
            raise ValueError(f"invalid convolution spec {self}")
        if (self.h + 2 * self.pad < self.r
                or self.w + 2 * self.pad < self.s):
            raise ValueError(
                f"filter {self.r}x{self.s} does not fit the padded "
                f"{self.h + 2 * self.pad}x{self.w + 2 * self.pad} input")

    @property
    def out_h(self) -> int:
        return (self.h + 2 * self.pad - self.r) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.w + 2 * self.pad - self.s) // self.stride + 1

    @property
    def gemm_shape(self) -> tuple:
        """(m, n, k) of the lowered GEMM: patches x filters."""
        return (self.n * self.out_h * self.out_w, self.c_out,
                self.r * self.s * self.c_in)

    @property
    def flops(self) -> int:
        m, n, k = self.gemm_shape
        return 2 * m * n * k

    def describe(self) -> str:
        m, n, k = self.gemm_shape
        return (f"conv {self.r}x{self.s} s{self.stride}p{self.pad} on "
                f"{self.n}x{self.h}x{self.w}x{self.c_in} -> {self.c_out} "
                f"channels == GEMM {m}x{n}x{k}")


def im2col(x, spec: ConvSpec) -> np.ndarray:
    """Lower NHWC activations to the ``(N*OH*OW, R*S*C)`` patch matrix.

    Row order is (n, oh, ow); column order is (r, s, c) -- matching
    :func:`weights_matrix` so the GEMM contraction lines up.
    """
    x = np.ascontiguousarray(x, dtype=np.float16)
    if x.shape != (spec.n, spec.h, spec.w, spec.c_in):
        raise ValueError(f"activations must be NHWC {spec.n}x{spec.h}x"
                         f"{spec.w}x{spec.c_in}, got {x.shape}")
    if spec.pad:
        x = np.pad(x, ((0, 0), (spec.pad, spec.pad),
                       (spec.pad, spec.pad), (0, 0)))
    oh, ow = spec.out_h, spec.out_w
    patches = np.empty((spec.n, oh, ow, spec.r, spec.s, spec.c_in),
                       dtype=np.float16)
    for dr in range(spec.r):
        for ds in range(spec.s):
            tile = x[:, dr : dr + oh * spec.stride : spec.stride,
                     ds : ds + ow * spec.stride : spec.stride, :]
            patches[:, :, :, dr, ds, :] = tile
    return patches.reshape(spec.n * oh * ow, spec.r * spec.s * spec.c_in)


def weights_matrix(w, spec: ConvSpec) -> np.ndarray:
    """Reshape ``(R, S, C, K)`` filters to the ``(R*S*C, K)`` GEMM operand."""
    w = np.ascontiguousarray(w, dtype=np.float16)
    if w.shape != (spec.r, spec.s, spec.c_in, spec.c_out):
        raise ValueError(f"weights must be {spec.r}x{spec.s}x{spec.c_in}x"
                         f"{spec.c_out} (RSCK), got {w.shape}")
    return w.reshape(spec.r * spec.s * spec.c_in, spec.c_out)


def conv2d(x, w, spec: ConvSpec, device: GpuSpec = RTX2070,
           kernel="ours", accumulate: str = "f16", return_run: bool = False):
    """Convolve NHWC *x* with RSCK *w* on the simulated device.

    The lowered GEMM runs through :func:`repro.core.hgemm` -- the actual
    generated SASS on the functional simulator -- so the result carries
    the true per-HMMA rounding.  Returns ``(N, OH, OW, K)`` activations
    (float32 under ``accumulate='f32'``), or the underlying
    :class:`~repro.core.hgemm.HgemmRun` when *return_run* (its ``c`` is
    the flat patch matrix).
    """
    patches = im2col(x, spec)
    filters = weights_matrix(w, spec)
    run = hgemm(patches, filters, kernel=kernel, spec=device,
                accumulate=accumulate, return_run=True)
    if return_run:
        return run
    return run.c.reshape(spec.n, spec.out_h, spec.out_w, spec.c_out)


def conv2d_reference(x, w, spec: ConvSpec, w_k: int = 8,
                     accumulate: str = "f16") -> np.ndarray:
    """Precision-model oracle: the same im2col lowering through
    :func:`repro.core.hgemm_reference` (bit-exact against :func:`conv2d`
    when ``w_k`` matches the resolved kernel's warp k-step)."""
    out = hgemm_reference(im2col(x, spec), weights_matrix(w, spec),
                          w_k=w_k, accumulate=accumulate)
    return out.reshape(spec.n, spec.out_h, spec.out_w, spec.c_out)
