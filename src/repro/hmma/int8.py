"""INT8 Tensor Core semantics: the ``IMMA.8816`` instruction family.

The paper's Section VIII lists "demystifying Tensor Cores with ... integer
data type" as future work; this module does for ``IMMA`` what
:mod:`repro.hmma.fragments`/:mod:`repro.hmma.mma` do for ``HMMA``.

``IMMA.8816.S8.S8`` computes ``D[8x8,s32] = A[8x16,s8] @ B[16x8,s8] +
C[8x8,s32]``.  Operand layouts (one 32-bit register holds four int8
elements, so one warp register again holds a full operand):

* **A, row-major**: lane ``4r + p`` holds ``A[r, 4p .. 4p+3]`` -- the same
  8-rows-by-4-lane-groups grid as Fig. 1, with 4 bytes along k per lane.
* **B, column-major**: lane ``q + 4c`` holds ``B[4q .. 4q+3, c]``.
* **C/D, s32**: two registers; lane ``4r + p`` holds ``D[r, 2p]`` in the
  first and ``D[r, 2p+1]`` in the second (the ``HMMA.1688.F32``
  register-pair pattern on an 8x8 tile).

Accumulation is exact 32-bit integer arithmetic (products of two s8 values
summed in s32 cannot overflow for k = 16; long chains wrap modulo 2^32,
as on hardware).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IMMA_8816_OPS",
    "int8_matrix_to_fragment_a",
    "fragment_a_to_int8_matrix",
    "int8_matrix_to_fragment_b",
    "fragment_b_to_int8_matrix",
    "s32_matrix_to_fragments",
    "fragments_to_s32_matrix",
    "imma_8816",
    "imma_8816_batch",
]

#: Integer operations per IMMA.8816 (2 * 8 * 8 * 16 multiply-adds).
IMMA_8816_OPS = 2 * 8 * 8 * 16

_LANES = 32


def _check(shape, arr, dtype, name):
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.shape != shape:
        raise ValueError(f"{name} must be {shape}, got {out.shape}")
    return out


def int8_matrix_to_fragment_a(matrix) -> np.ndarray:
    """Scatter an 8x16 int8 A operand into one (32,) uint32 register."""
    mat = _check((8, 16), matrix, np.int8, "A")
    lanes = mat.reshape(8, 4, 4)              # row, lane-group, 4 bytes
    return lanes.reshape(32, 4).view(np.uint8).copy().view(np.uint32).ravel()


def fragment_a_to_int8_matrix(words) -> np.ndarray:
    """Gather the A fragment back into an 8x16 int8 matrix."""
    arr = _check((_LANES,), words, np.uint32, "A fragment")
    return arr.view(np.uint8).view(np.int8).reshape(8, 16).copy()


def int8_matrix_to_fragment_b(matrix) -> np.ndarray:
    """Scatter a 16x8 int8 B operand (column-major) into one register.

    Lane ``q + 4c`` packs ``B[4q:4q+4, c]``.
    """
    mat = _check((16, 8), matrix, np.int8, "B")
    # (q, byte, col) -> transpose so lane-major order is (c, q): index
    # [c, q, byte] flattened row-major gives lane 4c + q... we need q + 4c,
    # which is the same flat index, so one transpose suffices.
    lanes = mat.reshape(4, 4, 8).transpose(2, 0, 1).reshape(32, 4)
    return lanes.view(np.uint8).copy().view(np.uint32).ravel()


# Flat-byte gather tables (endian-independent: fragments address whole
# bytes, never sub-byte fields).  _B_GATHER[r, c] is the byte index within a
# B fragment's 128 bytes of element B[r, c]: lane q + 4c holds B[4q:4q+4, c],
# so with r = 4q + j the byte sits at (q + 4c) * 4 + j.
_B_ROWS = np.arange(16)[:, None]
_B_COLS = np.arange(8)[None, :]
_B_GATHER = (4 * ((_B_ROWS // 4) + 4 * _B_COLS) + _B_ROWS % 4).astype(np.intp)

# _C_GATHER[r, c] indexes the reg-major flat (2 * 32,) C pair: lane 4r + p
# holds C[r, 2p] in register 0 and C[r, 2p + 1] in register 1.
_C_ROWS = np.arange(8)[:, None]
_C_COLS = np.arange(8)[None, :]
_C_GATHER = ((_C_COLS % 2) * 32 + 4 * _C_ROWS + _C_COLS // 2).astype(np.intp)
# Inverse: _C_SCATTER[reg-major flat index] = matrix flat index.
_C_SCATTER = np.empty(64, dtype=np.intp)
_C_SCATTER[_C_GATHER.ravel()] = np.arange(64)


def fragment_b_to_int8_matrix(words) -> np.ndarray:
    """Gather the B fragment back into a 16x8 int8 matrix."""
    arr = _check((_LANES,), words, np.uint32, "B fragment")
    return arr.view(np.uint8).view(np.int8)[_B_GATHER]


def s32_matrix_to_fragments(matrix) -> np.ndarray:
    """Scatter an 8x8 int32 C/D operand into a (2, 32) register pair."""
    mat = _check((8, 8), matrix, np.int32, "C")
    rows = np.repeat(np.arange(8), 4)
    cells = np.tile(np.arange(4), 8)
    out = np.empty((2, _LANES), dtype=np.uint32)
    out[0] = mat[rows, 2 * cells].view(np.uint32)
    out[1] = mat[rows, 2 * cells + 1].view(np.uint32)
    return out


def fragments_to_s32_matrix(words) -> np.ndarray:
    """Gather a (2, 32) register pair back into an 8x8 int32 matrix."""
    arr = _check((2, _LANES), words, np.uint32, "C fragments")
    out = np.empty((8, 8), dtype=np.int32)
    rows = np.repeat(np.arange(8), 4)
    cells = np.tile(np.arange(4), 8)
    out[rows, 2 * cells] = arr[0].view(np.int32)
    out[rows, 2 * cells + 1] = arr[1].view(np.int32)
    return out


def imma_8816(a_reg, b_reg, c_regs) -> np.ndarray:
    """Execute ``IMMA.8816.S8.S8`` on warp registers.

    Args:
        a_reg: (32,) uint32 -- A[8x16] int8, row-major fragment.
        b_reg: (32,) uint32 -- B[16x8] int8, column-major fragment.
        c_regs: (2, 32) uint32 -- C[8x8] int32 accumulator.

    Returns:
        (2, 32) uint32 -- D in the C layout.
    """
    a = fragment_a_to_int8_matrix(a_reg).astype(np.int64)
    b = fragment_b_to_int8_matrix(b_reg).astype(np.int64)
    c = fragments_to_s32_matrix(c_regs).astype(np.int64)
    # Exact products, signed 32-bit wrap-around accumulate (hardware s32).
    d64 = (a @ b + c) & 0xFFFFFFFF
    d = d64.astype(np.uint32).view(np.int32)
    return s32_matrix_to_fragments(d)


def imma_8816_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``IMMA.8816``: *g* independent products over *w* warps.

    Args:
        a_regs: (g, L) uint32 -- A fragments, L = 32 * n_warps lanes laid
            out warp-major.
        b_regs: (g, L) uint32 -- B fragments.
        c_regs: (g, 2, L) uint32 -- C accumulator pairs.

    Returns:
        (g, 2, L) uint32 -- D pairs.

    The int8 products are summed in one stacked float64 (BLAS) matmul,
    exact in any summation order: a product is at most 2**14 in
    magnitude, so every partial sum of 16 is an integer far below 2**53.
    C is added in int64 and the sum wraps to s32, so results are
    bit-identical to :func:`imma_8816` (an int64 matmul, kept as the
    reference) per warp slice on any host endianness.
    """
    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    g, total = a_regs.shape
    n_warps = total // _LANES
    gw = g * n_warps
    # A's 128 fragment bytes are exactly the row-major 8x16 matrix bytes.
    a8 = a_regs.view(np.uint8).view(np.int8).reshape(gw, 8, 16)
    b8 = (b_regs.view(np.uint8).view(np.int8).reshape(gw, 128)
          .take(_B_GATHER.ravel(), axis=1).reshape(gw, 16, 8))
    c32 = (c_regs.view(np.int32).reshape(g, 2, n_warps, 32)
           .transpose(0, 2, 1, 3).reshape(gw, 64)
           .take(_C_GATHER.ravel(), axis=1).reshape(gw, 8, 8))
    d64 = (np.matmul(a8.astype(np.float64), b8.astype(np.float64))
           .astype(np.int64) + c32) & 0xFFFFFFFF
    d = d64.astype(np.uint32).reshape(gw, 64).take(_C_SCATTER, axis=1)
    return (d.reshape(g, n_warps, 2, 32).transpose(0, 2, 1, 3)
            .reshape(g, 2, total))
