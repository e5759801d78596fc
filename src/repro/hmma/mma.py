"""Functional semantics of the ``HMMA.1688`` Tensor Core instruction.

One ``HMMA.1688`` computes ``D[16x8] = A[16x8] @ B[8x8] + C[16x8]`` (paper
Eq. (2)) on warp-register fragments whose layout is defined in
:mod:`repro.hmma.fragments`.

Precision model
---------------
Tensor Cores multiply FP16 operands exactly (each product of two FP16 values
is representable in FP32) and accumulate in higher precision *within* one
instruction; the accumulator register type then determines the rounding of
the result:

* ``.F16`` -- the 16x8 result is rounded to half precision once per HMMA.
* ``.F32`` -- the result stays in single precision.

This matches the paper's observation (Section I) that Tensor Core results are
*more accurate* than a chain of FP16 FMA operations, while a long K reduction
performed by many chained ``.F16`` HMMAs still accumulates FP16 rounding
error once per instruction.
"""

from __future__ import annotations

import numpy as np

from .fragments import (
    fragment_to_matrix,
    fragments_f32_to_matrix16x8,
    fragments_to_matrix16x8,
    matrix16x8_to_fragments,
    matrix16x8_to_fragments_f32,
    COL_MAJOR,
)

__all__ = [
    "mma_16x8x8",
    "mma_16x8x16",
    "hmma_1688_f16",
    "hmma_1688_f32",
    "hmma_884_f16",
    "hmma_16816_f16",
    "hmma_16816_f32",
    "hmma_1688_f16_batch",
    "hmma_1688_f32_batch",
    "hmma_884_f16_batch",
    "hmma_16816_f16_batch",
    "hmma_16816_f32_batch",
    "hmma_1688_window",
    "HMMA_1688_FLOPS",
]

#: Floating point operations performed by one HMMA.1688 (2 * 16 * 8 * 8).
HMMA_1688_FLOPS = 2 * 16 * 8 * 8


def mma_16x8x16(a, b, c, accumulate_f32: bool) -> np.ndarray:
    """Matrix-level reference for Ampere's ``HMMA.16816``:
    ``A[16x16] @ B[16x8] + C[16x8]``, one rounding per instruction."""
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    c32 = np.asarray(c, dtype=np.float32)
    if a32.shape != (16, 16) or b32.shape != (16, 8) or c32.shape != (16, 8):
        raise ValueError(
            f"mma_16x8x16 expects A(16x16), B(16x8), C(16x8); got "
            f"{a32.shape}, {b32.shape}, {c32.shape}"
        )
    d = a32 @ b32 + c32
    if accumulate_f32:
        return d
    return d.astype(np.float16)


def mma_16x8x8(a, b, c, accumulate_f32: bool) -> np.ndarray:
    """Matrix-level reference: ``A[16x8] @ B[8x8] + C``.

    Products and the intra-instruction reduction happen in float32; the
    result is rounded to float16 once iff ``accumulate_f32`` is false.
    """
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    c32 = np.asarray(c, dtype=np.float32)
    if a32.shape != (16, 8) or b32.shape != (8, 8) or c32.shape != (16, 8):
        raise ValueError(
            f"mma_16x8x8 expects A(16x8), B(8x8), C(16x8); got "
            f"{a32.shape}, {b32.shape}, {c32.shape}"
        )
    d = a32 @ b32 + c32
    if accumulate_f32:
        return d
    return d.astype(np.float16)


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
    d = mma_16x8x8(a, b, c, accumulate_f32=False)
    return matrix16x8_to_fragments(d)


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
    d = mma_16x8x8(a, b, c, accumulate_f32=True)
    return matrix16x8_to_fragments_f32(d)


#: Fused gather/scatter index tables for the batch kernels, keyed by the
#: number of stacked warps.  Composing the warp-major de-interleave with the
#: fragment permutation moves each operand register-file -> matrix form in
#: ONE fancy-index gather (and the result back in one scatter) instead of a
#: transpose copy plus a take copy per operand -- the batch kernels are the
#: lockstep engine's hottest path, so the copies matter.
_BATCH_IDX_CACHE: dict = {}


def _batch_index_tables(n_warps: int):
    """(a_idx, b_idx, d_idx, c32_idx, d32_idx) for ``n_warps`` stacked warps.

    All tables index the flat u16 (fp16 operands) or f32 (``.F32``
    accumulators) view of a warp-major ``(g, regs, total)`` uint32 block:

    * ``a_idx``/``b_idx`` -- (nw, 16, 8) / (nw, 8, 8) gathers producing the
      A (and C, same layout) and B matrices per warp;
    * ``d_idx`` -- (nw, 128) scatter from flat D matrices back to fragment
      pairs;
    * ``c32_idx``/``d32_idx`` -- the float32-accumulator equivalents.
    """
    hit = _BATCH_IDX_CACHE.get(n_warps)
    if hit is not None:
        return hit
    from . import fragments as frag

    total = n_warps * 32
    w3 = np.arange(n_warps, dtype=np.intp).reshape(n_warps, 1, 1)
    w2 = np.arange(n_warps, dtype=np.intp).reshape(n_warps, 1)
    # fp16 16x8 operands: u16 element e of pair-register c of warp w sits at
    # flat offset c*2*total + 64*w + e of the (2, total)-u32 block.
    c, e = np.divmod(np.asarray(frag._GATHER_16X8, dtype=np.intp), 64)
    a_idx = c * (2 * total) + 64 * w3 + e
    b_idx = 64 * w2.reshape(n_warps, 1, 1) + np.asarray(
        frag._PERMS[COL_MAJOR][0], dtype=np.intp)
    # D fp16: matrix element m of warp w lands in fragment slot
    # Sinv[m] = argsort(S)[m], at the offset scheme above.
    t = np.argsort(np.asarray(frag._SCATTER_16X8, dtype=np.intp))
    c, e = np.divmod(t, 64)
    d_idx = c * (2 * total) + 64 * w2 + e
    # .F32 accumulators: f32 word q = r*32 + l of warp w sits at flat
    # offset r*total + 32*w + l of the (4, total)-u32 block.
    r, lane = np.divmod(np.asarray(frag._INV_F32, dtype=np.intp), 32)
    c32_idx = r * total + 32 * w3 + lane
    perm = np.asarray(frag._PERM_F32, dtype=np.intp).ravel()
    q_off = (np.repeat(np.arange(4, dtype=np.intp), 32) * total
             + np.tile(np.arange(32, dtype=np.intp), 4))
    d32_idx = np.empty((n_warps, 128), dtype=np.intp)
    d32_idx[:, perm] = 32 * w2 + q_off
    tables = (a_idx, b_idx, d_idx, c32_idx, d32_idx)
    _BATCH_IDX_CACHE[n_warps] = tables
    return tables


#: Per-warp column tables for :func:`hmma_1688_window`, keyed by n_warps.
_WINDOW_COL_CACHE: dict = {}

#: Ceiling on a window's flat index tables (int64 elements).  Above it the
#: window falls back to the row-gather + batch-kernel path: the tables cost
#: 8 bytes per gathered element, which stops being a good trade against a
#: few-MB register file.  A 64-HMMA window of an 8-warp lockstep CTA needs
#: about 143k elements, so the generated kernels stay well below it.
_WINDOW_FLAT_MAX_ELEMS = 1 << 21


def _window_col_tables(n_warps: int):
    """Column tables indexing the register file's u16/f32 views directly.

    Where :func:`_batch_index_tables` indexes an already-gathered
    ``(g, regs, total)`` operand block, these carry the *column* part of a
    composed index straight into the ``(256, lanes)`` register file: element
    (i, j) of warp *w*'s A matrix sits at row ``a_base + cA[i, j]``, u16
    column ``colA[w, i, j]``.  The caller folds in the per-payload register
    rows and flattens.
    """
    hit = _WINDOW_COL_CACHE.get(n_warps)
    if hit is not None:
        return hit
    from . import fragments as frag

    w = np.arange(n_warps, dtype=np.intp)
    # fp16 operands: warp w's u16 element e of pair-register c sits at
    # register row base+c, u16 column 64*w + e.
    cA, eA = np.divmod(np.asarray(frag._GATHER_16X8, dtype=np.intp), 64)
    colA = 64 * w[:, None, None] + eA
    colB = 64 * w[:, None, None] + np.asarray(
        frag._PERMS[COL_MAJOR][0], dtype=np.intp)
    t = np.argsort(np.asarray(frag._SCATTER_16X8, dtype=np.intp))
    cD, eD = np.divmod(t, 64)
    colD = 64 * w[:, None] + eD
    # .F32 accumulators: f32 word q = r*32 + l of warp w sits at register
    # row base+r, f32 column 32*w + l.
    r32, l32 = np.divmod(np.asarray(frag._INV_F32, dtype=np.intp), 32)
    colC32 = 32 * w[:, None, None] + l32
    perm = np.asarray(frag._PERM_F32, dtype=np.intp).ravel()
    rD32 = np.empty(128, dtype=np.intp)
    lD32 = np.empty(128, dtype=np.intp)
    rD32[perm] = np.repeat(np.arange(4, dtype=np.intp), 32)
    lD32[perm] = np.tile(np.arange(32, dtype=np.intp), 4)
    colD32 = 32 * w[:, None] + lD32
    tables = (cA, colA, colB, cD, colD, r32, colC32, rD32, colD32)
    _WINDOW_COL_CACHE[n_warps] = tables
    return tables


def hmma_1688_window(d_base, a_base, b_base, c_base, f32: bool):
    """Compile an in-place executor for a fused window of *g* HMMA.1688s.

    Returns ``run(regs, cache)`` operating directly on the ``(256, lanes)``
    uint32 register file.  Each operand is one fancy-index gather with a fully
    materialised flat index (the window row gather fused with the fragment
    permutation of :func:`_batch_index_tables`) -- NumPy's single-index take
    beats both the two-index broadcast form and a row gather followed by a
    block gather.  GEMM windows reuse fragments (each A row block multiplies
    several B column blocks and vice versa), so A and B are gathered and
    converted per *unique* register base only, then expanded to per-product
    form with a float32 row gather -- a pure copy, so results stay
    bit-identical to the batch kernels (the uop differential suite pins this
    against the reference engine).  Windows whose tables would exceed
    ``_WINDOW_FLAT_MAX_ELEMS`` fall back to the row-gather + batch-kernel
    path, as do big-endian hosts.

    The flat tables take 8 bytes per gathered element, so the caller owns
    them: ``cache`` is a dict ``run`` fills on its first call and reuses
    whenever it is passed again.  A code cache can thus keep ``run`` for
    the life of the process while each launch's tables die with the
    launch.
    """
    from . import fragments as frag
    from .fp16 import HALF

    g = len(d_base)
    nreg = 4 if f32 else 2
    d_rows = np.asarray(d_base, dtype=np.intp)
    c_rows = np.asarray(c_base, dtype=np.intp)
    a_uniq, a_inv = np.unique(np.asarray(a_base, dtype=np.intp),
                              return_inverse=True)
    b_uniq, b_inv = np.unique(np.asarray(b_base, dtype=np.intp),
                              return_inverse=True)
    ua, ub = a_uniq.size, b_uniq.size

    a_idx2 = np.asarray(a_base, dtype=np.intp)[:, None] + np.arange(
        2, dtype=np.intp)
    b_idx1 = np.asarray(b_base, dtype=np.intp)
    c_idx2 = c_rows[:, None] + np.arange(nreg, dtype=np.intp)
    d_idx2 = d_rows[:, None] + np.arange(nreg, dtype=np.intp)
    batch = hmma_1688_f32_batch if f32 else hmma_1688_f16_batch

    def run_blocks(regs, cache=None):
        regs[d_idx2] = batch(regs[a_idx2], regs[b_idx1], regs[c_idx2])

    if not frag._LITTLE_ENDIAN:
        return run_blocks

    # Flat tables depend on the lane count, known only once the first
    # register file arrives; one decoded program has exactly one lane count,
    # so its cache holds a single entry in practice.
    def tables(cache, lanes):
        tab = cache.get(lanes)
        if tab is not None:
            return tab
        nw = lanes // 32
        elems = nw * (128 * ua + 64 * ub + 2 * 128 * g)
        if elems > _WINDOW_FLAT_MAX_ELEMS:
            tab = cache[lanes] = None
            return tab
        (cA, colA, colB, cD, colD,
         r32, colC32, rD32, colD32) = _window_col_tables(nw)
        s16 = 2 * lanes   # u16 row stride of the (256, lanes) u32 file
        iA = ((a_uniq[:, None, None] + cA)[:, None] * s16 + colA[None]).ravel()
        iB = (b_uniq[:, None, None, None] * s16 + colB[None]).ravel()
        if f32:
            iC = ((c_rows[:, None, None] + r32)[:, None] * lanes
                  + colC32[None]).ravel()
            iD = ((d_rows[:, None] + rD32)[:, None] * lanes
                  + colD32[None]).ravel()
        else:
            iC = ((c_rows[:, None, None] + cA)[:, None] * s16
                  + colA[None]).ravel()
            iD = ((d_rows[:, None] + cD)[:, None] * s16 + colD[None]).ravel()
        tab = cache[lanes] = (nw, iA, iB, iC, iD)
        return tab

    if f32:
        def run(regs, cache):
            tab = tables(cache, regs.shape[1])
            if tab is None:
                return run_blocks(regs)
            nw, iA, iB, iC, iD = tab
            gw = g * nw
            f16 = regs.view(np.uint16).reshape(-1)
            f32v = regs.view(np.float32).reshape(-1)
            a32 = (f16[iA].view(HALF).reshape(ua, nw, 16, 8)
                   .astype(np.float32)[a_inv].reshape(gw, 16, 8))
            b32 = (f16[iB].view(HALF).reshape(ub, nw, 8, 8)
                   .astype(np.float32)[b_inv].reshape(gw, 8, 8))
            c32 = f32v[iC].reshape(gw, 16, 8)
            d = np.matmul(a32, b32) + c32
            f32v[iD] = d.reshape(-1)
    else:
        def run(regs, cache):
            tab = tables(cache, regs.shape[1])
            if tab is None:
                return run_blocks(regs)
            nw, iA, iB, iC, iD = tab
            gw = g * nw
            f16 = regs.view(np.uint16).reshape(-1)
            a32 = (f16[iA].view(HALF).reshape(ua, nw, 16, 8)
                   .astype(np.float32)[a_inv].reshape(gw, 16, 8))
            b32 = (f16[iB].view(HALF).reshape(ub, nw, 8, 8)
                   .astype(np.float32)[b_inv].reshape(gw, 8, 8))
            c32 = f16[iC].view(HALF).reshape(gw, 16, 8).astype(np.float32)
            d16 = (np.matmul(a32, b32) + c32).astype(np.float16)
            f16[iD] = d16.view(np.uint16).reshape(-1)
    return run


def _hmma_1688_batch_fallback(a_regs, b_regs, c_regs, f32: bool) -> np.ndarray:
    """Per-(product, warp) scalar path (big-endian hosts)."""
    g, _, total = a_regs.shape
    n_warps = total // 32
    fn = hmma_1688_f32 if f32 else hmma_1688_f16
    out = np.empty_like(c_regs)
    for i in range(g):
        for w in range(n_warps):
            lanes = slice(32 * w, 32 * (w + 1))
            out[i][:, lanes] = fn(
                a_regs[i][:, lanes], b_regs[i][lanes], c_regs[i][:, lanes])
    return out


def hmma_1688_f16_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``HMMA.1688.F16``: *g* independent products over *w* warps.

    Args:
        a_regs: (g, 2, L) uint32 -- A fragments, L = 32 * n_warps lanes
            laid out warp-major (warp 0's 32 lanes first).
        b_regs: (g, L) uint32 -- B fragments.
        c_regs: (g, 2, L) uint32 -- C accumulators.

    Returns:
        (g, 2, L) uint32 -- D fragments.

    The ``g * n_warps`` products run as one stacked (gw,16,8) @ (gw,8,8)
    float32 matmul; NumPy applies the same per-slice BLAS kernel as the 2-D
    ``a @ b`` in :func:`hmma_1688_f16`, so rounding stays bit-identical on
    every warp slice -- the golden functional digests pin this equivalence.
    """
    from . import fragments as frag
    from .fp16 import HALF

    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    if not frag._LITTLE_ENDIAN:
        return _hmma_1688_batch_fallback(a_regs, b_regs, c_regs, f32=False)
    g, _, total = a_regs.shape
    n_warps = total // 32
    gw = g * n_warps
    a_idx, b_idx, d_idx, _, _ = _batch_index_tables(n_warps)
    af = a_regs.view(np.uint16).reshape(g, 4 * total)
    bf = b_regs.view(np.uint16).reshape(g, 2 * total)
    cf = c_regs.view(np.uint16).reshape(g, 4 * total)
    a32 = af[:, a_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    b32 = bf[:, b_idx].view(HALF).reshape(gw, 8, 8).astype(np.float32)
    c32 = cf[:, a_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    d16 = (np.matmul(a32, b32) + c32).astype(np.float16)
    out = np.empty((g, 2, total), dtype=np.uint32)
    out.view(np.uint16).reshape(g, 4 * total)[:, d_idx] = (
        d16.view(np.uint16).reshape(g, n_warps, 128))
    return out


def hmma_1688_f32_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``HMMA.1688.F32`` (see :func:`hmma_1688_f16_batch`).

    ``c_regs`` / result are (g, 4, L) uint32 float32 fragment pairs.
    """
    from . import fragments as frag
    from .fp16 import HALF

    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    if not frag._LITTLE_ENDIAN:
        return _hmma_1688_batch_fallback(a_regs, b_regs, c_regs, f32=True)
    g, _, total = a_regs.shape
    n_warps = total // 32
    gw = g * n_warps
    a_idx, b_idx, _, c32_idx, d32_idx = _batch_index_tables(n_warps)
    af = a_regs.view(np.uint16).reshape(g, 4 * total)
    bf = b_regs.view(np.uint16).reshape(g, 2 * total)
    a32 = af[:, a_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    b32 = bf[:, b_idx].view(HALF).reshape(gw, 8, 8).astype(np.float32)
    c32 = (c_regs.view(np.float32).reshape(g, 4 * total)[:, c32_idx]
           .reshape(gw, 16, 8))
    d = np.matmul(a32, b32) + c32
    out = np.empty((g, 4, total), dtype=np.uint32)
    out.view(np.float32).reshape(g, 4 * total)[:, d32_idx] = (
        d.reshape(g, n_warps, 128))
    return out


def hmma_884_f16(a_reg, b_reg, c_reg) -> np.ndarray:
    """Execute the Volta-style ``HMMA.884`` step: ``D[8x8] = A[8x8]B[8x8]+C``.

    The SM70 generation's native shape (the paper focuses on ``.1688``
    because it is "more succinct"); A, D and C are row-major single warp
    registers, B is column-major.
    """
    from .fragments import matrix_to_fragment, ROW_MAJOR

    a = fragment_to_matrix(a_reg, ROW_MAJOR)
    b = fragment_to_matrix(b_reg, COL_MAJOR)
    c = fragment_to_matrix(c_reg, ROW_MAJOR)
    a32 = a.astype(np.float32)
    b32 = b.astype(np.float32)
    d = (a32 @ b32 + c.astype(np.float32)).astype(np.float16)
    return matrix_to_fragment(d, ROW_MAJOR)


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
    d = mma_16x8x16(a, b, c, accumulate_f32=False)
    return matrix16x8_to_fragments(d)


def hmma_16816_f32(a_regs, b_regs, c_regs) -> np.ndarray:
    """Execute ``HMMA.16816.F32`` (C/D are (4, 32) float32 fragment pairs)."""
    a = _matrix16x16_from_a_fragments(a_regs)
    b = _matrix16x8_from_b_fragments(b_regs)
    c = fragments_f32_to_matrix16x8(c_regs)
    d = mma_16x8x16(a, b, c, accumulate_f32=True)
    return matrix16x8_to_fragments_f32(d)


#: Gather/scatter tables for the SM70/SM80 batch kernels, keyed by warps.
_BATCH_IDX_CACHE_884: dict = {}
_BATCH_IDX_CACHE_16816: dict = {}


def _batch_index_tables_884(n_warps: int):
    """(row_idx, col_idx, d_idx) for stacked ``HMMA.884`` warps.

    All tables index the flat u16 view of a ``(g, total)`` uint32 register
    row: u16 element e of warp w sits at offset ``64*w + e``.  ``row_idx``
    and ``col_idx`` are (nw, 8, 8) gathers producing the row-major (A/C)
    and column-major (B) 8x8 matrices; ``d_idx`` is the (nw, 64) scatter
    from flat D matrices back to fragments.
    """
    hit = _BATCH_IDX_CACHE_884.get(n_warps)
    if hit is not None:
        return hit
    from . import fragments as frag

    w3 = np.arange(n_warps, dtype=np.intp).reshape(n_warps, 1, 1)
    w2 = np.arange(n_warps, dtype=np.intp).reshape(n_warps, 1)
    row_idx = 64 * w3 + np.asarray(frag._PERMS[frag.ROW_MAJOR][0], dtype=np.intp)
    col_idx = 64 * w3 + np.asarray(frag._PERMS[frag.COL_MAJOR][0], dtype=np.intp)
    inv = np.argsort(np.asarray(frag._PERMS[frag.ROW_MAJOR][1], dtype=np.intp))
    d_idx = 64 * w2 + inv
    tables = (row_idx, col_idx, d_idx)
    _BATCH_IDX_CACHE_884[n_warps] = tables
    return tables


def _batch_index_tables_16816(n_warps: int):
    """(a_idx, b_idx) for stacked ``HMMA.16816`` warps.

    ``a_idx`` -- (nw, 16, 16) gather over the flat u16 view of a
    ``(g, 4, total)`` uint32 block (regs 0-1: k 0-7 via the 1688 A tables;
    regs 2-3: k 8-15); ``b_idx`` -- (nw, 16, 8) over a ``(g, 2, total)``
    block (one column-major register per k-half).  C/D reuse the 1688
    accumulator tables from :func:`_batch_index_tables`.
    """
    hit = _BATCH_IDX_CACHE_16816.get(n_warps)
    if hit is not None:
        return hit
    from . import fragments as frag

    total = n_warps * 32
    w3 = np.arange(n_warps, dtype=np.intp).reshape(n_warps, 1, 1)
    c, e = np.divmod(np.asarray(frag._GATHER_16X8, dtype=np.intp), 64)
    a_lo = c * (2 * total) + 64 * w3 + e
    a_hi = (c + 2) * (2 * total) + 64 * w3 + e
    a_idx = np.concatenate([a_lo, a_hi], axis=2)
    col = np.asarray(frag._PERMS[frag.COL_MAJOR][0], dtype=np.intp)
    b_lo = 64 * w3 + col
    b_hi = 2 * total + 64 * w3 + col
    b_idx = np.concatenate([b_lo, b_hi], axis=1)
    tables = (a_idx, b_idx)
    _BATCH_IDX_CACHE_16816[n_warps] = tables
    return tables


def hmma_884_f16_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``HMMA.884``: *g* independent 8x8x8 products over *w* warps.

    Args:
        a_regs: (g, L) uint32 -- A fragments (row-major), L = 32 * n_warps.
        b_regs: (g, L) uint32 -- B fragments (column-major).
        c_regs: (g, L) uint32 -- C accumulators (row-major).

    Returns:
        (g, L) uint32 -- D fragments.
    """
    from . import fragments as frag
    from .fp16 import HALF

    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    g, total = a_regs.shape
    n_warps = total // 32
    if not frag._LITTLE_ENDIAN:
        out = np.empty_like(c_regs)
        for i in range(g):
            for w in range(n_warps):
                lanes = slice(32 * w, 32 * (w + 1))
                out[i][lanes] = hmma_884_f16(
                    a_regs[i][lanes], b_regs[i][lanes], c_regs[i][lanes])
        return out
    gw = g * n_warps
    row_idx, col_idx, d_idx = _batch_index_tables_884(n_warps)
    af = a_regs.view(np.uint16).reshape(g, 2 * total)
    bf = b_regs.view(np.uint16).reshape(g, 2 * total)
    cf = c_regs.view(np.uint16).reshape(g, 2 * total)
    a32 = af[:, row_idx].view(HALF).reshape(gw, 8, 8).astype(np.float32)
    b32 = bf[:, col_idx].view(HALF).reshape(gw, 8, 8).astype(np.float32)
    c32 = cf[:, row_idx].view(HALF).reshape(gw, 8, 8).astype(np.float32)
    d16 = (np.matmul(a32, b32) + c32).astype(np.float16)
    out = np.empty((g, total), dtype=np.uint32)
    out.view(np.uint16).reshape(g, 2 * total)[:, d_idx] = (
        d16.view(np.uint16).reshape(g, n_warps, 64))
    return out


def _hmma_16816_batch_fallback(a_regs, b_regs, c_regs, f32: bool) -> np.ndarray:
    """Per-(product, warp) scalar path (big-endian hosts)."""
    g, _, total = a_regs.shape
    n_warps = total // 32
    fn = hmma_16816_f32 if f32 else hmma_16816_f16
    out = np.empty_like(c_regs)
    for i in range(g):
        for w in range(n_warps):
            lanes = slice(32 * w, 32 * (w + 1))
            out[i][:, lanes] = fn(
                a_regs[i][:, lanes], b_regs[i][:, lanes], c_regs[i][:, lanes])
    return out


def hmma_16816_f16_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``HMMA.16816.F16``: *g* independent products over *w* warps.

    Args:
        a_regs: (g, 4, L) uint32 -- A[16x16] fragments, L = 32 * n_warps.
        b_regs: (g, 2, L) uint32 -- B[16x8] fragments.
        c_regs: (g, 2, L) uint32 -- C accumulators (the 1688 layout).

    Returns:
        (g, 2, L) uint32 -- D fragments.
    """
    from . import fragments as frag
    from .fp16 import HALF

    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    if not frag._LITTLE_ENDIAN:
        return _hmma_16816_batch_fallback(a_regs, b_regs, c_regs, f32=False)
    g, _, total = a_regs.shape
    n_warps = total // 32
    gw = g * n_warps
    a_idx, b_idx = _batch_index_tables_16816(n_warps)
    cd_idx, _, d_idx, _, _ = _batch_index_tables(n_warps)
    af = a_regs.view(np.uint16).reshape(g, 8 * total)
    bf = b_regs.view(np.uint16).reshape(g, 4 * total)
    cf = c_regs.view(np.uint16).reshape(g, 4 * total)
    a32 = af[:, a_idx].view(HALF).reshape(gw, 16, 16).astype(np.float32)
    b32 = bf[:, b_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    c32 = cf[:, cd_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    d16 = (np.matmul(a32, b32) + c32).astype(np.float16)
    out = np.empty((g, 2, total), dtype=np.uint32)
    out.view(np.uint16).reshape(g, 4 * total)[:, d_idx] = (
        d16.view(np.uint16).reshape(g, n_warps, 128))
    return out


def hmma_16816_f32_batch(a_regs, b_regs, c_regs) -> np.ndarray:
    """Stacked ``HMMA.16816.F32`` (see :func:`hmma_16816_f16_batch`).

    ``c_regs`` / result are (g, 4, L) uint32 float32 fragment pairs.
    """
    from . import fragments as frag
    from .fp16 import HALF

    a_regs = np.ascontiguousarray(a_regs, dtype=np.uint32)
    b_regs = np.ascontiguousarray(b_regs, dtype=np.uint32)
    c_regs = np.ascontiguousarray(c_regs, dtype=np.uint32)
    if not frag._LITTLE_ENDIAN:
        return _hmma_16816_batch_fallback(a_regs, b_regs, c_regs, f32=True)
    g, _, total = a_regs.shape
    n_warps = total // 32
    gw = g * n_warps
    a_idx, b_idx = _batch_index_tables_16816(n_warps)
    _, _, _, c32_idx, d32_idx = _batch_index_tables(n_warps)
    af = a_regs.view(np.uint16).reshape(g, 8 * total)
    bf = b_regs.view(np.uint16).reshape(g, 4 * total)
    a32 = af[:, a_idx].view(HALF).reshape(gw, 16, 16).astype(np.float32)
    b32 = bf[:, b_idx].view(HALF).reshape(gw, 16, 8).astype(np.float32)
    c32 = (c_regs.view(np.float32).reshape(g, 4 * total)[:, c32_idx]
           .reshape(gw, 16, 8))
    d = np.matmul(a32, b32) + c32
    out = np.empty((g, 4, total), dtype=np.uint32)
    out.view(np.float32).reshape(g, 4 * total)[:, d32_idx] = (
        d.reshape(g, n_warps, 128))
    return out
