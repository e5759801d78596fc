"""Functional semantics of the ``HMMA`` Tensor Core instructions.

One HMMA computes ``D[m x n] = A[m x k] @ B[k x n] + C[m x n]`` (paper
Eq. (2)) on warp-register fragments.  The shape ``(m, n, k)`` is the
generation's :attr:`~repro.arch.ArchSpec.hmma_shape`: ``.884`` (Volta),
``.1688`` (Turing, the paper's instruction) or ``.16816`` (Ampere).

Operand layout
--------------
Every operand is a grid of 8x8 tiles, each tile one warp register in the
layouts of :mod:`repro.hmma.fragments` (paper Figs. 1-2).  In an operand
``R`` tiles tall, tile ``(i, j)`` sits in register ``i + R*j``; A, C and D
tiles are row-major, B tiles column-major.  ``.F32`` accumulators promote
the low and high half of each register to a full register: element
(lane, half) of tile ``t`` sits in lane ``lane`` of register ``2t + half``
(``fragments._INV_F32`` is the 16x8 instance).

On a little-endian host a warp register's 64 halves, in lane order, are
its tile row by row (row-major: lane ``4r + p`` holds ``(r, 2p)`` and
``(r, 2p + 1)``) or column by column (column-major), and an ``.F32``
register pair holds the even and odd columns of a row-major tile.  So a
block of whole register rows turns into operand matrices, and D back
into registers, by reshape and transpose alone: :func:`_to_matrices`
and :func:`_to_registers` are the one place the rule above is written,
and :func:`mma_batch` and :func:`mma_window` both run on them, so every
generation's kernels come from the same code.

Precision model
---------------
Each FP16 product is exact in float32.  The k-reduction and the addition
of C run in float32, in NumPy matmul's summation order, so each addition
rounds to float32.  The model takes that order to be sequential in k;
:func:`k_order_mismatch` checks it on the running host (the test suite
and ``repro doctor`` run it), since every functional golden depends on
it.  The accumulator type then decides the result:

* ``.F16`` -- D is rounded once more, to half precision;
* ``.F32`` -- D stays in single precision.

:func:`_accumulate` is the one place this happens; the matrix reference,
the batch kernel and the fused window all call it.  A long K reduction
chained over many ``.F16`` HMMAs still rounds to FP16 once per
instruction, which is why Tensor Core results are more accurate than a
chain of FP16 FMAs (paper Section I) but not exact.
"""

from __future__ import annotations

import numpy as np

from ..arch.family import GENERATIONS
from . import fragments as frag
from .fp16 import HALF
from .fragments import (
    COL_MAJOR,
    ROW_MAJOR,
    fragment_to_matrix,
    fragments_f32_to_matrix16x8,
    fragments_to_matrix16x8,
    matrix16x8_to_fragments,
    matrix16x8_to_fragments_f32,
    matrix_to_fragment,
)

__all__ = [
    "k_order_mismatch",
    "mma_reference",
    "mma_batch",
    "mma_window",
    "hmma_1688_f16",
    "hmma_1688_f32",
    "hmma_884_f16",
    "hmma_16816_f16",
    "hmma_16816_f32",
    "HMMA_1688_FLOPS",
]

#: Floating point operations performed by one HMMA.1688 (2 * 16 * 8 * 8).
HMMA_1688_FLOPS = 2 * 16 * 8 * 8

#: Every ``(m, n, k)`` HMMA shape in the generation registry.
_SHAPES = frozenset(arch.hmma_shape for arch in GENERATIONS.values())


def _accumulate(a32, b32, c32, f32: bool) -> np.ndarray:
    """``A @ B + C`` on float32 operands (any leading batch dimensions),
    rounded to float16 unless the accumulator is ``.F32``."""
    d = np.matmul(a32, b32) + c32
    return d if f32 else d.astype(np.float16)


def k_order_mismatch(shape, depth: int, seed: int = 0,
                     reverse: bool = False) -> float:
    """Share of the outputs where this host's stacked float32
    ``np.matmul`` differs from adding the products one k at a time.

    *depth* products of the HMMA *shape* ``(m, n, k)`` run as one
    ``(depth, m, k) @ (depth, k, n)`` matmul, as :func:`_accumulate` runs
    them, on FP16 operands with random sign, exponent and mantissa (every
    finite value, subnormals included, so the order of the additions
    shows in the rounding).  The loop adds k = 0, 1, ... in float32, or
    the reverse with *reverse*.  0.0 means matmul sums in that order.
    """
    m, n, k = shape
    rng = np.random.default_rng(seed)

    def wide(rows, cols):
        bits = (rng.integers(0, 0x7C00, (depth, rows, cols), dtype=np.uint16)
                | rng.integers(0, 2, (depth, rows, cols), dtype=np.uint16)
                << 15)
        return bits.view(HALF).astype(np.float32)

    a32, b32 = wide(m, k), wide(k, n)
    order = range(k - 1, -1, -1) if reverse else range(k)
    loop = None
    for kk in order:   # each FP16 product is exact in float32
        product = a32[:, :, kk, None] * b32[:, None, kk, :]
        loop = product if loop is None else loop + product
    matmul = np.matmul(a32, b32)
    return float(np.mean(loop.view(np.uint32) != matmul.view(np.uint32)))


def mma_reference(a, b, c, accumulate_f32: bool) -> np.ndarray:
    """Matrix-level reference: ``A[m x k] @ B[k x n] + C[m x n]`` for any
    registry HMMA shape, with the precision model of the module docstring.
    """
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    c32 = np.asarray(c, dtype=np.float32)
    got = (a32.shape, b32.shape, c32.shape)
    if not any(got == ((m, k), (k, n), (m, n)) for m, n, k in _SHAPES):
        raise ValueError(
            f"mma_reference expects A(m x k), B(k x n), C(m x n) for an HMMA "
            f"shape (m, n, k) in {sorted(_SHAPES)}; got "
            f"{a32.shape}, {b32.shape}, {c32.shape}"
        )
    return _accumulate(a32, b32, c32, accumulate_f32)


# ------------------------------------------------------ single-warp references
#
# Built on the per-register conversions of repro.hmma.fragments, not on the
# register-row converter below, so the generator is checked against
# independent code.

def hmma_1688_f16(a_regs, b_reg, c_regs) -> np.ndarray:
    """Execute ``HMMA.1688.F16`` on warp registers.

    Args:
        a_regs: (2, 32) uint32 -- A in row-major fragments.
        b_reg: (32,) uint32 -- B in column-major fragments.
        c_regs: (2, 32) uint32 -- C accumulator in row-major fragments.

    Returns:
        (2, 32) uint32 -- D in row-major fragments.
    """
    a = fragments_to_matrix16x8(a_regs)
    b = fragment_to_matrix(b_reg, COL_MAJOR)
    c = fragments_to_matrix16x8(c_regs)
    return matrix16x8_to_fragments(mma_reference(a, b, c, accumulate_f32=False))


def hmma_1688_f32(a_regs, b_reg, c_regs) -> np.ndarray:
    """Execute ``HMMA.1688.F32`` on warp registers.

    Args:
        a_regs: (2, 32) uint32 -- A in row-major half fragments.
        b_reg: (32,) uint32 -- B in column-major half fragments.
        c_regs: (4, 32) uint32 -- C accumulator, float32 fragment pairs.

    Returns:
        (4, 32) uint32 -- D as float32 fragment pairs.
    """
    a = fragments_to_matrix16x8(a_regs)
    b = fragment_to_matrix(b_reg, COL_MAJOR)
    c = fragments_f32_to_matrix16x8(c_regs)
    return matrix16x8_to_fragments_f32(mma_reference(a, b, c, accumulate_f32=True))


def hmma_884_f16(a_reg, b_reg, c_reg) -> np.ndarray:
    """Execute the Volta-style ``HMMA.884`` step: ``D[8x8] = A[8x8]B[8x8]+C``.

    The SM70 generation's native shape (the paper focuses on ``.1688``
    because it is "more succinct"); A, D and C are row-major single warp
    registers, B is column-major.
    """
    a = fragment_to_matrix(a_reg, ROW_MAJOR)
    b = fragment_to_matrix(b_reg, COL_MAJOR)
    c = fragment_to_matrix(c_reg, ROW_MAJOR)
    return matrix_to_fragment(mma_reference(a, b, c, accumulate_f32=False),
                              ROW_MAJOR)


def _matrix16x16_from_a_fragments(a_regs) -> np.ndarray:
    """A[16x16] from 4 registers: regs 0-1 hold k 0-7 (the 1688 A layout),
    regs 2-3 hold k 8-15 in the same row-major pair layout."""
    return np.concatenate(
        [fragments_to_matrix16x8(a_regs[:2]), fragments_to_matrix16x8(a_regs[2:])],
        axis=1,
    )


def _matrix16x8_from_b_fragments(b_regs) -> np.ndarray:
    """B[16x8] from 2 column-major registers, one per k-half."""
    return np.concatenate(
        [fragment_to_matrix(b_regs[0], COL_MAJOR),
         fragment_to_matrix(b_regs[1], COL_MAJOR)],
        axis=0,
    )


def hmma_16816_f16(a_regs, b_regs, c_regs) -> np.ndarray:
    """Execute Ampere's ``HMMA.16816.F16`` on warp registers.

    Args:
        a_regs: (4, 32) uint32 -- A[16x16], row-major pairs per k-half.
        b_regs: (2, 32) uint32 -- B[16x8], column-major per k-half.
        c_regs: (2, 32) uint32 -- C accumulator in row-major pairs.

    Returns:
        (2, 32) uint32 -- D fragments.
    """
    a = _matrix16x16_from_a_fragments(a_regs)
    b = _matrix16x8_from_b_fragments(b_regs)
    c = fragments_to_matrix16x8(c_regs)
    return matrix16x8_to_fragments(mma_reference(a, b, c, accumulate_f32=False))


def hmma_16816_f32(a_regs, b_regs, c_regs) -> np.ndarray:
    """Execute ``HMMA.16816.F32`` (C/D are (4, 32) float32 fragment pairs)."""
    a = _matrix16x16_from_a_fragments(a_regs)
    b = _matrix16x8_from_b_fragments(b_regs)
    c = fragments_f32_to_matrix16x8(c_regs)
    return matrix16x8_to_fragments_f32(mma_reference(a, b, c, accumulate_f32=True))


#: The single-warp reference of each ``(shape, f32)``, for hosts where a
#: register's u16 view is not its (lo, hi) halves in order.
_WARP_REFERENCES = {
    ((8, 8, 8), False): hmma_884_f16,
    ((16, 8, 8), False): hmma_1688_f16,
    ((16, 8, 8), True): hmma_1688_f32,
    ((16, 8, 16), False): hmma_16816_f16,
    ((16, 8, 16), True): hmma_16816_f32,
}


# ------------------------------------------------------------ the generator
#
# The register-row converter.  A block of whole register rows,
# (g, words, lanes) uint32, becomes (g * warps, rows, cols) matrices by
# reshape and transpose alone: split the words into the (C, R) tile grid
# (word i + R*j is tile (i, j)) and the lanes into (warp, 8, 8) halves,
# then move the warp next to g and each tile's rows and columns next to
# the grid's.  The reverse permutation writes D back.

#: (g, C, R, warp, r, c) -> (g, warp, R, r, C, c), and back.
_TO_MATRIX = (0, 3, 2, 4, 1, 5)
_TO_REGS = (0, 4, 2, 1, 3, 5)
#: A column-major tile holds (c, r): its halves are the tile's transpose.
_COL_TO_MATRIX = (0, 3, 2, 5, 1, 4)


def _to_matrices(block, g: int, rows: int, cols: int, order: str,
                 f32: bool) -> np.ndarray:
    """(g * warps, rows, cols) float32 operands from a contiguous uint32
    block of *g* products' register rows, lanes last."""
    nw, tall, wide = block.shape[-1] // 32, rows // 8, cols // 8
    if not f32:
        tiles = block.view(HALF).reshape(g, wide, tall, nw, 8, 8)
        axes = _TO_MATRIX if order == ROW_MAJOR else _COL_TO_MATRIX
        return (tiles.transpose(axes).astype(np.float32, order="C")
                .reshape(g * nw, rows, cols))
    # .F32: lane 4r + p of register 2t + half holds (r, 2p + half) of
    # tile t.  Each half is a 4-wide row-major tile; the two interleave.
    pairs = block.view(np.float32).reshape(g, wide, tall, 2, nw, 8, 4)
    out = np.empty((g, nw, tall, 8, wide, 4, 2), dtype=np.float32)
    for half in (0, 1):
        out[..., half] = pairs[:, :, :, half].transpose(_TO_MATRIX)
    return out.reshape(g * nw, rows, cols)


def _to_registers(d, g: int, f32: bool) -> np.ndarray:
    """(g, words, lanes) uint32 registers of (g * warps, rows, cols)
    row-major results *d* (float16, or float32 for ``.F32``)."""
    gw, rows, cols = d.shape
    nw, tall, wide = gw // g, rows // 8, cols // 8
    out = np.empty((g, tall * wide * (2 if f32 else 1), 32 * nw),
                   dtype=np.uint32)
    if f32:   # (g, warp, R, r, C, p, half) -> (g, C, R, half, warp, r, p)
        out.view(np.float32).reshape(g, wide, tall, 2, nw, 8, 4)[...] = (
            d.reshape(g, nw, tall, 8, wide, 4, 2)
            .transpose(0, 4, 2, 6, 1, 3, 5))
    else:
        out.view(HALF).reshape(g, wide, tall, nw, 8, 8)[...] = (
            d.reshape(g, nw, tall, 8, wide, 8).transpose(_TO_REGS))
    return out


def _mma_batch_fallback(shape, f32, a_regs, b_regs, c_regs) -> np.ndarray:
    """Per-(product, warp) loop over the single-warp reference (big-endian
    hosts, where a uint32 register's u16 view is not (lo, hi) ordered)."""
    warp_fn = _WARP_REFERENCES[shape, f32]
    g, total = a_regs.shape[0], a_regs.shape[-1]

    def one_warp(regs, i, lanes):
        block = regs[i].reshape(-1, total)[:, lanes]
        return block[0] if block.shape[0] == 1 else block

    out = np.empty_like(c_regs)
    for i in range(g):
        for w in range(total // 32):
            lanes = slice(32 * w, 32 * (w + 1))
            out[i][..., lanes] = warp_fn(one_warp(a_regs, i, lanes),
                                         one_warp(b_regs, i, lanes),
                                         one_warp(c_regs, i, lanes))
    return out


def mma_batch(shape, f32: bool, a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked HMMA: *g* independent products of ``shape`` over *w* warps.

    Args:
        shape: ``(m, n, k)``, an :attr:`~repro.arch.ArchSpec.hmma_shape`.
        f32: ``.F32`` accumulators (C and D), else ``.F16``.
        a_regs, b_regs, c_regs: (g, regs, L) uint32 operand registers,
            L = 32 * n_warps lanes laid out warp-major (warp 0's 32 lanes
            first); an operand held in one register may be (g, L).

    Returns:
        D, uint32, shaped like ``c_regs``.

    The ``g * n_warps`` products run as one stacked ``(gw, m, k) @
    (gw, k, n)`` float32 matmul, bit-identical to the single-warp
    references on every warp slice (``tests/hmma/test_generations.py``).
    """
    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    if not frag._LITTLE_ENDIAN:
        return _mma_batch_fallback(shape, f32, a_regs, b_regs, c_regs)
    m, n, k = shape
    g = a_regs.shape[0]
    d = _accumulate(_to_matrices(a_regs, g, m, k, ROW_MAJOR, False),
                    _to_matrices(b_regs, g, k, n, COL_MAJOR, False),
                    _to_matrices(c_regs, g, m, n, ROW_MAJOR, f32), f32)
    return _to_registers(d, g, f32).reshape(c_regs.shape)


def _rows(bases, words: int) -> np.ndarray:
    """(operands, words) register rows of the operands at *bases*."""
    return (np.asarray(bases, dtype=np.intp)[:, None]
            + np.arange(words, dtype=np.intp))


def _fragments(bases):
    """(bases of the distinct fragments, index of each member's fragment
    among them); the index is None when no two members share one."""
    bases = np.asarray(bases, dtype=np.intp)
    uniq, inv = np.unique(bases, return_inverse=True)
    return (bases, None) if uniq.size == bases.size else (uniq, inv)


def mma_window(shape, f32: bool, a_base, b_base, c_base):
    """Compile the math of a fused window of *g* independent HMMAs.

    The bases are the members' first A/B/C registers.  Returns
    ``run(regs)``, which reads a ``(256, lanes)`` uint32 register file of
    any lane count and returns every member's D, ``(g, c_words, lanes)``
    uint32, without writing it: the caller decides where and when D
    lands (the lockstep engine writes it at once, the timing engine
    after the HMMA latency).  GEMM windows reuse fragments (each A row
    block multiplies several B column blocks and vice versa), so ``run``
    takes the whole register rows of each *unique* A and B fragment and
    of every C in one row gather, converts each unique fragment once, and
    expands them to per-product form with a float32 row gather -- a pure
    copy, so results stay bit-identical to :func:`mma_batch`.  What
    ``run`` keeps is sized by the window, not the lanes, so a code cache
    can keep it for the life of the process.  Big-endian hosts run the
    gathered rows through :func:`mma_batch`.
    """
    m, n, k = shape
    g = len(c_base)
    a_words, b_words = m * k // 64, k * n // 64
    c_words = m * n // (32 if f32 else 64)
    if not frag._LITTLE_ENDIAN:
        a_rows, b_rows = _rows(a_base, a_words), _rows(b_base, b_words)
        c_rows = _rows(c_base, c_words)

        def run_batch(regs):
            return mma_batch(shape, f32, regs[a_rows], regs[b_rows],
                             regs[c_rows])
        return run_batch

    (a_uniq, a_inv), (b_uniq, b_inv) = map(_fragments, (a_base, b_base))
    ua, ub = a_uniq.size, b_uniq.size
    rows = np.concatenate([_rows(a_uniq, a_words).ravel(),
                           _rows(b_uniq, b_words).ravel(),
                           _rows(c_base, c_words).ravel()])
    a_end = ua * a_words
    b_end = a_end + ub * b_words

    def run(regs):
        lanes = regs.shape[1]
        nw = lanes // 32
        block = regs.take(rows, axis=0)
        a32 = _to_matrices(block[:a_end], ua, m, k, ROW_MAJOR, False)
        if a_inv is not None:
            a32 = a32.reshape(ua, nw, m, k).take(a_inv, axis=0)
        b32 = _to_matrices(block[a_end:b_end], ub, k, n, COL_MAJOR, False)
        if b_inv is not None:
            b32 = b32.reshape(ub, nw, k, n).take(b_inv, axis=0)
        c32 = _to_matrices(block[b_end:], g, m, n, ROW_MAJOR, f32)
        d = _accumulate(a32.reshape(g * nw, m, k), b32.reshape(g * nw, k, n),
                        c32, f32)
        return _to_registers(d, g, f32)
    return run
