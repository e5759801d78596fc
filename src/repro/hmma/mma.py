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
(``fragments._INV_F32`` is the 16x8 instance).  :func:`_operand_offsets`
is the one place that rule is written; :func:`mma_batch` and
:func:`mma_window` gather through its offsets, so every generation's
kernels come from the same code.

Precision model
---------------
Each FP16 product is exact in float32.  The k-reduction and the addition
of C run in float32, in NumPy matmul's summation order, so each addition
rounds to float32.  The accumulator type then decides the result:

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
# flat offsets below, so the generator is checked against independent code.

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


#: The single-warp reference of each ``(shape, f32)``, for hosts where the
#: flat offsets below do not apply.
_WARP_REFERENCES = {
    ((8, 8, 8), False): hmma_884_f16,
    ((16, 8, 8), False): hmma_1688_f16,
    ((16, 8, 8), True): hmma_1688_f32,
    ((16, 8, 16), False): hmma_16816_f16,
    ((16, 8, 16), True): hmma_16816_f32,
}


# ------------------------------------------------------------ the generator

def _operand_offsets(rows: int, cols: int, order: str, f32: bool,
                     n_warps: int) -> np.ndarray:
    """(n_warps, rows, cols) flat offsets of one operand's elements.

    The offsets index a ``(regs, 32 * n_warps)`` uint32 register block
    (warp *w* in columns ``32w .. 32w + 31``) viewed flat as uint16 for
    FP16 operands or as float32 for ``.F32`` accumulators.  Tile ``(i, j)``
    of the operand is register ``i + (rows // 8) * j``; within it, element
    (r, c) is u16 ``2 * lane + half`` of the tile's 8x8 layout, and an
    ``.F32`` accumulator moves it to lane ``lane`` of register
    ``2 * tile + half``.
    """
    total = 32 * n_warps
    r = np.arange(rows, dtype=np.intp)[:, None]
    c = np.arange(cols, dtype=np.intp)[None, :]
    tile = r // 8 + (rows // 8) * (c // 8)
    u16 = frag._PERMS[order][0][r % 8, c % 8]
    warp = np.arange(n_warps, dtype=np.intp)[:, None, None]
    if not f32:
        return tile * (2 * total) + 64 * warp + u16
    lane, half = np.divmod(u16, 2)
    return (2 * tile + half) * total + 32 * warp + lane


#: (A, B, C/D) offsets of :func:`_operand_offsets`, keyed by
#: ``(shape, f32, n_warps)``.  The batch kernel indexes with them as they
#: are; the fused window adds each member's register row to them.
_OPERAND_TABLES: dict = {}


def _operand_tables(shape, f32: bool, n_warps: int):
    key = (shape, f32, n_warps)
    tables = _OPERAND_TABLES.get(key)
    if tables is None:
        m, n, k = shape
        tables = _OPERAND_TABLES[key] = (
            _operand_offsets(m, k, ROW_MAJOR, False, n_warps),
            _operand_offsets(k, n, COL_MAJOR, False, n_warps),
            _operand_offsets(m, n, ROW_MAJOR, f32, n_warps),
        )
    return tables


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
    g, total = a_regs.shape[0], a_regs.shape[-1]
    n_warps = total // 32
    gw = g * n_warps
    a_idx, b_idx, c_idx = _operand_tables(shape, f32, n_warps)
    a32 = (a_regs.view(np.uint16).reshape(g, -1)[:, a_idx].view(HALF)
           .reshape(gw, m, k).astype(np.float32))
    b32 = (b_regs.view(np.uint16).reshape(g, -1)[:, b_idx].view(HALF)
           .reshape(gw, k, n).astype(np.float32))
    # D scatters through the C offsets as (n_warps, m*n): the 3-D index is
    # measurably slower for .F32.
    d_idx = c_idx.reshape(n_warps, m * n)
    out = np.empty(c_regs.shape, dtype=np.uint32)
    if f32:
        c32 = (c_regs.view(np.float32).reshape(g, -1)[:, c_idx]
               .reshape(gw, m, n))
        d = _accumulate(a32, b32, c32, True)
        out.view(np.float32).reshape(g, -1)[:, d_idx] = (
            d.reshape(g, n_warps, m * n))
    else:
        c32 = (c_regs.view(np.uint16).reshape(g, -1)[:, c_idx].view(HALF)
               .reshape(gw, m, n).astype(np.float32))
        d16 = _accumulate(a32, b32, c32, False)
        out.view(np.uint16).reshape(g, -1)[:, d_idx] = (
            d16.view(np.uint16).reshape(g, n_warps, m * n))
    return out


#: Ceiling on a window's flat index tables (int64 elements).  Above it the
#: window falls back to the row-gather + batch-kernel path: the tables cost
#: 8 bytes per gathered element, which stops being a good trade against a
#: few-MB register file.  A 64-HMMA.1688 window of an 8-warp lockstep CTA
#: needs about 143k elements, so the generated kernels stay well below it.
_WINDOW_FLAT_MAX_ELEMS = 1 << 21


def mma_window(shape, f32: bool, d_base, a_base, b_base, c_base):
    """Compile an in-place executor for a fused window of *g* HMMAs.

    The bases are the members' first D/A/B/C registers.  Returns
    ``run(regs, cache)`` operating directly on the ``(256, lanes)``
    uint32 register file.  Each operand is one fancy-index gather with a
    fully materialised flat index (a member's register row added to the
    :func:`_operand_offsets` of its operand) -- NumPy's single-index take
    beats both the two-index broadcast form and a row gather followed by
    a block gather.  GEMM windows reuse fragments (each A row block
    multiplies several B column blocks and vice versa), so A and B are
    gathered and converted per *unique* register base only, then expanded
    to per-product form with a float32 row gather -- a pure copy, so
    results stay bit-identical to :func:`mma_batch`.  Windows whose
    tables would exceed ``_WINDOW_FLAT_MAX_ELEMS`` fall back to the
    row-gather + :func:`mma_batch` path, as do big-endian hosts.

    The flat tables take 8 bytes per gathered element, so the caller owns
    them: ``cache`` is a dict ``run`` fills on its first call and reuses
    whenever it is passed again.  A code cache can thus keep ``run`` for
    the life of the process while each launch's tables die with the
    launch.
    """
    m, n, k = shape
    g = len(d_base)
    c_words = m * n // (32 if f32 else 64)
    d_rows, a_rows, b_rows, c_rows = (np.asarray(base, dtype=np.intp) for base
                                      in (d_base, a_base, b_base, c_base))
    a_uniq, a_inv = np.unique(a_rows, return_inverse=True)
    b_uniq, b_inv = np.unique(b_rows, return_inverse=True)
    ua, ub = a_uniq.size, b_uniq.size
    # (g, words) register rows of each operand, for the row-gather path.
    d_blk, a_blk, b_blk, c_blk = (
        rows[:, None] + np.arange(words, dtype=np.intp)
        for rows, words in ((d_rows, c_words), (a_rows, m * k // 64),
                            (b_rows, k * n // 64), (c_rows, c_words)))

    def run_blocks(regs, cache=None):
        regs[d_blk] = mma_batch(shape, f32, regs[a_blk], regs[b_blk],
                                regs[c_blk])

    if not frag._LITTLE_ENDIAN:
        return run_blocks

    # Flat tables depend on the lane count, known only once the first
    # register file arrives; one decoded program has exactly one lane count,
    # so its cache holds a single entry in practice.
    def tables(cache, lanes):
        if lanes in cache:
            return cache[lanes]
        nw = lanes // 32
        elems = nw * (m * k * ua + k * n * ub + 2 * m * n * g)
        if elems > _WINDOW_FLAT_MAX_ELEMS:
            cache[lanes] = None
            return None
        a_off, b_off, c_off = _operand_tables(shape, f32, nw)
        s16 = 2 * lanes   # u16 row stride of the (256, lanes) u32 file
        sc = lanes if f32 else s16
        i_a = (a_uniq[:, None, None, None] * s16 + a_off).ravel()
        i_b = (b_uniq[:, None, None, None] * s16 + b_off).ravel()
        i_c = (c_rows[:, None, None, None] * sc + c_off).ravel()
        i_d = (d_rows[:, None, None, None] * sc + c_off).ravel()
        tab = cache[lanes] = (nw, i_a, i_b, i_c, i_d)
        return tab

    def run(regs, cache):
        tab = tables(cache, regs.shape[1])
        if tab is None:
            return run_blocks(regs)
        nw, i_a, i_b, i_c, i_d = tab
        gw = g * nw
        u16 = regs.view(np.uint16).reshape(-1)
        a32 = (u16[i_a].view(HALF).reshape(ua, nw, m, k)
               .astype(np.float32)[a_inv].reshape(gw, m, k))
        b32 = (u16[i_b].view(HALF).reshape(ub, nw, k, n)
               .astype(np.float32)[b_inv].reshape(gw, k, n))
        if f32:
            acc = regs.view(np.float32).reshape(-1)
            c32 = acc[i_c].reshape(gw, m, n)
            acc[i_d] = _accumulate(a32, b32, c32, True).reshape(-1)
        else:
            c32 = u16[i_c].view(HALF).reshape(gw, m, n).astype(np.float32)
            d16 = _accumulate(a32, b32, c32, False)
            u16[i_d] = d16.view(np.uint16).reshape(-1)
    return run
