"""Per-generation HMMA semantics: 884 (SM70), 1688 (SM75) and 16816 (SM80).

The single-warp 1688 references (SM75, the source paper's generation) are
covered by ``test_mma.py``.  This file pins the 16816 references against
the matrix-level oracle, and for every ``(arch, accumulator)`` in
``GENERATIONS`` checks the generator: the stacked batch kernel against
per-warp loops, the fused window against the batch kernel, and golden
digests that freeze the exact bit patterns the functional engines produce.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GENERATIONS, SM70, SM75, SM80
from repro.hmma import (
    COL_MAJOR,
    ROW_MAJOR,
    fragment_to_matrix,
    fragments_f32_to_matrix16x8,
    fragments_to_matrix16x8,
    matrix16x8_to_fragments,
    matrix16x8_to_fragments_f32,
    matrix_to_fragment,
    mma,
)

# Random uint32 fragments routinely decode to fp16 NaN/Inf; the kernels
# propagate them identically everywhere, so the IEEE warnings are noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)


def rand_half(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, size=shape).astype(np.float16)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class TestHmma16816:
    def _run_f16(self, a, b, c):
        a_regs = np.concatenate(
            [matrix16x8_to_fragments(a[:, :8]),
             matrix16x8_to_fragments(a[:, 8:])])
        b_regs = np.stack([matrix_to_fragment(b[:8], COL_MAJOR),
                           matrix_to_fragment(b[8:], COL_MAJOR)])
        d = mma.hmma_16816_f16(a_regs, b_regs, matrix16x8_to_fragments(c))
        return fragments_to_matrix16x8(d)

    def test_matches_reference(self):
        a = rand_half((16, 16), 1)
        b = rand_half((16, 8), 2)
        c = rand_half((16, 8), 3)
        np.testing.assert_array_equal(
            self._run_f16(a, b, c), mma.mma_reference(a, b, c, accumulate_f32=False))

    def test_single_rounding_per_instruction(self):
        # One 16816 rounds ONCE over k=16; two chained 1688 steps round
        # twice.  With products straddling the f16 ulp they must differ --
        # this is exactly the hgemm_reference(w_k=...) distinction.
        a = rand_half((16, 16), 40)
        b = rand_half((16, 8), 41)
        c = rand_half((16, 8), 42)
        one = mma.mma_reference(a, b, c, accumulate_f32=False)
        lo = mma.mma_reference(a[:, :8], b[:8], c, accumulate_f32=False)
        two = mma.mma_reference(a[:, 8:], b[8:], lo, accumulate_f32=False)
        exact = (a.astype(np.float32) @ b.astype(np.float32)
                 + c.astype(np.float32)).astype(np.float16)
        np.testing.assert_array_equal(one, exact)
        assert not np.array_equal(one, two)

    def test_f32_matches_reference(self):
        a = rand_half((16, 16), 4)
        b = rand_half((16, 8), 5)
        c = np.random.default_rng(6).normal(size=(16, 8)).astype(np.float32)
        a_regs = np.concatenate(
            [matrix16x8_to_fragments(a[:, :8]),
             matrix16x8_to_fragments(a[:, 8:])])
        b_regs = np.stack([matrix_to_fragment(b[:8], COL_MAJOR),
                           matrix_to_fragment(b[8:], COL_MAJOR)])
        d = mma.hmma_16816_f32(a_regs, b_regs, matrix16x8_to_fragments_f32(c))
        got = fragments_f32_to_matrix16x8(d)
        expected = a.astype(np.float32) @ b.astype(np.float32) + c
        np.testing.assert_array_equal(got, expected)

    def test_reference_shape_check(self):
        with pytest.raises(ValueError):
            mma.mma_reference(np.zeros((16, 8)), np.zeros((16, 8)),
                            np.zeros((16, 8)), False)


def _rand_regs(shape, seed):
    return np.random.default_rng(seed).integers(
        0, 1 << 32, shape, dtype=np.uint32)


#: Every (arch, accumulator) the registry defines.
ARCH_ACCUMULATORS = [
    pytest.param(arch, f32, id=f"{arch.name}-{'f32' if f32 else 'f16'}")
    for arch in GENERATIONS.values()
    for f32 in ((False, True) if arch.supports_f32_accum else (False,))
]

#: The single-warp references, built on the per-register conversions.
_PER_WARP = {
    ("884", False): mma.hmma_884_f16,
    ("1688", False): mma.hmma_1688_f16,
    ("1688", True): mma.hmma_1688_f32,
    ("16816", False): mma.hmma_16816_f16,
    ("16816", True): mma.hmma_16816_f32,
}


def _c_words(arch, f32):
    return arch.c_regs_f32 if f32 else arch.c_regs_f16


class TestBatchKernelsMatchPerWarp:
    """The engines' vectorised batch kernels vs per-warp scalar loops."""

    G, NW = 5, 3
    L = NW * 32

    def _operands(self, arch, f32):
        # A one-register operand is a (g, L) block, as the engines gather it.
        return tuple(
            _rand_regs((self.G, self.L) if words == 1
                       else (self.G, words, self.L), seed)
            for words, seed in ((arch.a_regs, 13), (arch.b_regs, 14),
                                (_c_words(arch, f32), 15)))

    @pytest.mark.parametrize("arch, f32", ARCH_ACCUMULATORS)
    def test_matches_per_warp(self, arch, f32):
        a, b, c = self._operands(arch, f32)
        warp = _PER_WARP[arch.hmma_mods, f32]
        got = mma.mma_batch(arch.hmma_shape, f32, a, b, c)
        for i in range(self.G):
            for w in range(self.NW):
                lanes = slice(32 * w, 32 * (w + 1))
                np.testing.assert_array_equal(
                    got[i][..., lanes],
                    warp(a[i][..., lanes], b[i][..., lanes], c[i][..., lanes]))

    @pytest.mark.parametrize("arch, f32", ARCH_ACCUMULATORS)
    def test_big_endian_fallback(self, arch, f32, monkeypatch):
        # The byte-order-independent path loops over the per-warp
        # references; it must agree with the flat-offset kernel.
        a, b, c = self._operands(arch, f32)
        want = mma.mma_batch(arch.hmma_shape, f32, a, b, c)
        monkeypatch.setattr(mma.frag, "_LITTLE_ENDIAN", False)
        got = mma.mma_batch(arch.hmma_shape, f32, a, b, c)
        np.testing.assert_array_equal(got, want)


class TestWindowMatchesBatch:
    """``mma_window`` on a register file equals ``mma_batch`` over the
    same register rows, on the register-row converter (id "flat": each
    gathered row's halves, read flat, reshape into tiles) and on the
    row-gather + ``mma_batch`` path big-endian hosts take."""

    G, NW = 6, 3

    @pytest.mark.parametrize("path", ["flat", "big-endian"])
    @pytest.mark.parametrize("bases", ["distinct", "repeated"])
    @pytest.mark.parametrize("arch, f32", ARCH_ACCUMULATORS)
    def test_window(self, arch, f32, bases, path, monkeypatch):
        c_words = _c_words(arch, f32)
        member = np.arange(self.G)
        # Repeated: each A base serves two non-adjacent products, each B
        # base three adjacent ones.
        a_slot, b_slot = ((member, member) if bases == "distinct"
                          else (member % 3, member // 3))
        a = arch.a_regs * a_slot
        b = 32 + arch.b_regs * b_slot
        c = 64 + c_words * member
        d = 128 + c_words * member
        regs = _rand_regs((256, 32 * self.NW), 16)
        regs_before = regs.copy()

        def rows(base, words):
            return base[:, None] + np.arange(words)

        want = regs.copy()
        want[rows(d, c_words)] = mma.mma_batch(
            arch.hmma_shape, f32, regs[rows(a, arch.a_regs)],
            regs[rows(b, arch.b_regs)], regs[rows(c, c_words)])
        if path == "big-endian":
            monkeypatch.setattr(mma.frag, "_LITTLE_ENDIAN", False)
        run = mma.mma_window(arch.hmma_shape, f32, a, b, c)
        for _ in range(2):   # the compiled window keeps no state
            got = regs.copy()
            got[rows(d, c_words)] = run(got)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(regs, regs_before)   # D is not written


#: FP16 bit patterns at the edges of the format: +-0, subnormals, +-inf,
#: NaN payloads (quiet and signalling) and the values next to +-65504.
_EDGE_HALVES = np.array(
    [0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x0200, 0x7C00,
     0xFC00, 0x7C01, 0x7E00, 0x7FFF, 0xFC01, 0xFE00, 0xFFFF, 0x7BFF,
     0x7BFE, 0xFBFF, 0xFBFE, 0x3C00, 0xBC00, 0x0400, 0x8400],
    dtype=np.uint16)


def _edge_register_file(seed, lanes, edge_share):
    """(256, lanes) uint32 register file whose halves are drawn from
    :data:`_EDGE_HALVES` with probability *edge_share*, else uniformly
    random bits."""
    rng = np.random.default_rng(seed)
    halves = rng.integers(0, 1 << 16, (256, 2 * lanes), dtype=np.uint16)
    edge = rng.random(halves.shape) < edge_share
    halves[edge] = rng.choice(_EDGE_HALVES, int(edge.sum()))
    return halves.view(np.uint32)


class TestExecutorsAgree:
    """Over generated windows and register files, the fused window, the
    batch kernel and the single-warp references compute the same bits,
    and so do the big-endian paths of the window and the batch kernel."""

    @settings(max_examples=60, deadline=None)
    @given(arch_f32=st.sampled_from([p.values for p in ARCH_ACCUMULATORS]),
           n_warps=st.integers(1, 16),
           g=st.integers(1, 8),
           repeated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1),
           edge_share=st.sampled_from([0.0, 0.5, 1.0]))
    def test_window_batch_and_per_warp(self, arch_f32, n_warps, g, repeated,
                                       seed, edge_share):
        arch, f32 = arch_f32
        shape = arch.hmma_shape
        c_words = _c_words(arch, f32)
        rng = np.random.default_rng(seed)
        member = np.arange(g)
        # Distinct bases or fragments shared by several members, in a
        # seeded order.
        a_slot, b_slot = ((rng.integers(0, 3, g), rng.integers(0, 3, g))
                          if repeated else
                          (rng.permutation(g), rng.permutation(g)))
        a = arch.a_regs * a_slot
        b = 32 + arch.b_regs * b_slot
        c = 64 + c_words * member
        regs = _edge_register_file(seed, 32 * n_warps, edge_share)

        def rows(base, words):
            return regs[base[:, None] + np.arange(words)]

        a_regs, b_regs = rows(a, arch.a_regs), rows(b, arch.b_regs)
        c_regs = rows(c, c_words)
        batch = mma.mma_batch(shape, f32, a_regs, b_regs, c_regs)
        warp = _PER_WARP[arch.hmma_mods, f32]

        def squeeze(block):
            return block[0] if block.shape[0] == 1 else block

        for i in range(g):
            for w in range(n_warps):
                lanes = slice(32 * w, 32 * (w + 1))
                want = warp(*(squeeze(block[i][..., lanes])
                              for block in (a_regs, b_regs, c_regs)))
                np.testing.assert_array_equal(
                    squeeze(batch[i][..., lanes]), want)
        np.testing.assert_array_equal(mma.mma_window(shape, f32, a, b, c)(regs),
                                      batch)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mma.frag, "_LITTLE_ENDIAN", False)
            np.testing.assert_array_equal(
                mma.mma_batch(shape, f32, a_regs, b_regs, c_regs), batch)
            np.testing.assert_array_equal(
                mma.mma_window(shape, f32, a, b, c)(regs), batch)


class TestGoldenDigests:
    """Pinned bit patterns per generation.

    These freeze the exact fp16/fp32 rounding the functional engines
    produce for each generation's native HMMA -- any change to fragment
    tables, accumulation order, or rounding shows up here before it
    silently shifts every simulated GEMM result.
    """

    def _operands(self):
        rng = np.random.default_rng(2026)
        g, L = 5, 96
        a884 = rng.integers(0, 1 << 32, (g, L), dtype=np.uint32)
        b884 = rng.integers(0, 1 << 32, (g, L), dtype=np.uint32)
        c884 = rng.integers(0, 1 << 32, (g, L), dtype=np.uint32)
        a4 = rng.integers(0, 1 << 32, (g, 4, L), dtype=np.uint32)
        b2 = rng.integers(0, 1 << 32, (g, 2, L), dtype=np.uint32)
        c2 = rng.integers(0, 1 << 32, (g, 2, L), dtype=np.uint32)
        c4 = rng.integers(0, 1 << 32, (g, 4, L), dtype=np.uint32)
        return a884, b884, c884, a4, b2, c2, c4

    def test_sm70_884(self):
        a, b, c, *_ = self._operands()
        got = mma.mma_batch(SM70.hmma_shape, False, a, b, c)
        assert _digest(got) == "02a3bcaf963cf6f5"

    def test_sm75_1688(self):
        _, _, _, a4, b2, c2, _ = self._operands()
        got = mma.mma_batch(SM75.hmma_shape, False, a4[:, :2], b2[:, 0], c2)
        assert _digest(got) == "ca23627da355fa6a"

    def test_sm75_1688_f32(self):
        _, _, _, a4, b2, _, c4 = self._operands()
        got = mma.mma_batch(SM75.hmma_shape, True, a4[:, :2], b2[:, 0], c4)
        assert _digest(got) == "9919ecff07fc2e03"

    def test_sm80_16816_f16(self):
        _, _, _, a4, b2, c2, _ = self._operands()
        got = mma.mma_batch(SM80.hmma_shape, False, a4, b2, c2)
        assert _digest(got) == "df8cb18ec902e903"

    def test_sm80_16816_f32(self):
        _, _, _, a4, b2, _, c4 = self._operands()
        got = mma.mma_batch(SM80.hmma_shape, True, a4, b2, c4)
        assert _digest(got) == "fc43badb9244f3a1"


class TestCrossGenerationConsistency:
    def test_two_884_equal_one_1688_row_pair(self):
        a = rand_half((16, 8), 20)
        b = rand_half((8, 8), 21)
        c = rand_half((16, 8), 22)
        d1688 = mma.mma_reference(a, b, c, accumulate_f32=False)
        for half in range(2):
            rows = slice(8 * half, 8 * half + 8)
            d884 = fragment_to_matrix(
                mma.hmma_884_f16(
                    matrix_to_fragment(a[rows], ROW_MAJOR),
                    matrix_to_fragment(b, COL_MAJOR),
                    matrix_to_fragment(c[rows], ROW_MAJOR)),
                ROW_MAJOR)
            np.testing.assert_array_equal(d1688[rows], d884)

    def test_16816_f32_close_to_two_chained_1688_f32(self):
        # FP32 accumulation is not associative, so the native k=16 reduction
        # and two chained k=8 steps may differ in the last ulp -- but only
        # there.  (This is why cross-generation FP32 GEMMs agree to rounding
        # while FP16-accumulate results need the per-w_k oracle.)
        a = rand_half((16, 16), 30)
        b = rand_half((16, 8), 31)
        c = np.random.default_rng(32).normal(size=(16, 8)).astype(np.float32)
        one = mma.mma_reference(a, b, c, accumulate_f32=True)
        lo = mma.mma_reference(a[:, :8], b[:8], c, accumulate_f32=True)
        two = mma.mma_reference(a[:, 8:], b[8:], lo, accumulate_f32=True)
        np.testing.assert_allclose(one, two, rtol=1e-5)
