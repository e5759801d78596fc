"""Tests for banked shared memory and bank-conflict computation."""

import numpy as np
import pytest

from repro.sim import memory
from repro.sim.memory import WarpMemory
from repro.sim.shared import (
    SharedMemory,
    bank_conflict_degree,
    conflict_multiplier,
)

ALL = np.ones(32, dtype=bool)


def lane_addresses(fn):
    return np.array([fn(l) for l in range(32)], dtype=np.int64)


class TestBankConflictDegree:
    def test_conflict_free_stride4(self):
        # Lane i -> word i: each bank gets exactly one word.
        addrs = lane_addresses(lambda l: 4 * l)
        assert bank_conflict_degree(addrs, 4) == 1

    def test_same_bank_stride128(self):
        # Lane i -> byte 128*i: every lane hits bank 0 -> 32-way conflict.
        addrs = lane_addresses(lambda l: 128 * l)
        assert bank_conflict_degree(addrs, 4) == 32

    def test_broadcast_is_free(self):
        # All lanes read the same word: hardware broadcasts.
        addrs = lane_addresses(lambda l: 64)
        assert bank_conflict_degree(addrs, 4) == 1

    def test_two_way_conflict(self):
        # Lane i -> word (i % 16) * 2: banks 0,2,..30 each get 1 distinct
        # word; 16 lanes duplicate the other 16 -> still 1 distinct word per
        # bank. Use (i%16)*2 + (i//16)*64 words to make 2 distinct per bank.
        addrs = lane_addresses(lambda l: 4 * ((l % 16) * 2 + (l // 16) * 64))
        assert bank_conflict_degree(addrs, 4) == 2

    def test_wide_access_conflict_free_baseline(self):
        # LDS.128 with lane i -> 16*i: words 4i..4i+3; 128 words over 32
        # banks = 4 per bank (the hardware's 4-phase baseline).
        addrs = lane_addresses(lambda l: 16 * l)
        assert bank_conflict_degree(addrs, 16) == 4

    def test_misaligned_raises(self):
        addrs = lane_addresses(lambda l: 4 * l + 2)
        with pytest.raises(ValueError, match="misaligned"):
            bank_conflict_degree(addrs, 4)

    def test_masked_lanes_ignored(self):
        addrs = lane_addresses(lambda l: 128 * l)  # nasty if all active
        mask = np.zeros(32, bool)
        mask[0] = True
        assert bank_conflict_degree(addrs, 4, mask) == 1

    def test_empty_mask(self):
        addrs = lane_addresses(lambda l: 4 * l)
        assert bank_conflict_degree(addrs, 4, np.zeros(32, bool)) == 0


class TestConflictMultiplier:
    def test_free_access_is_one(self):
        addrs = lane_addresses(lambda l: 4 * l)
        assert conflict_multiplier(addrs, 4) == 1.0

    def test_32way_is_32(self):
        addrs = lane_addresses(lambda l: 128 * l)
        assert conflict_multiplier(addrs, 4) == 32.0

    def test_wide_baseline_normalised(self):
        addrs = lane_addresses(lambda l: 16 * l)
        assert conflict_multiplier(addrs, 16) == 1.0

    def test_wide_conflicted(self):
        # LDS.128 with every lane on the same 16 bytes: 4 distinct words in
        # 4 banks -> degree 4 -> multiplier 1 (broadcast). Instead use lane
        # stride 128 bytes: lane words 32i..32i+3 -> banks 0..3 each get 32
        # distinct words -> degree 32, multiplier 8.
        addrs = lane_addresses(lambda l: 128 * l)
        assert conflict_multiplier(addrs, 16) == 8.0

    def test_padded_fragment_load_conflict_free(self):
        # The HGEMM fragment load: one LDS.32 gathers an 8x8 half fragment;
        # lane l reads 4 bytes at (row = l//4, half-col = 2*(l%4)).  With the
        # padded tile (stride 32 + 8 = 40 halves -> 80 bytes) the 8 rows land
        # on disjoint bank quadruples: conflict-free (paper Fig. 5, padded).
        addrs = lane_addresses(lambda l: 80 * (l // 4) + 4 * (l % 4))
        assert conflict_multiplier(addrs, 4) == 1.0

    def test_naive_fragment_load_4way_conflict(self):
        # Naive stride 32 halves (64 bytes): rows two apart revisit the same
        # banks -> 4-way conflict on the same load (paper Fig. 5, naive).
        addrs = lane_addresses(lambda l: 64 * (l // 4) + 4 * (l % 4))
        assert conflict_multiplier(addrs, 4) == 4.0

    def test_padded_tile_store_conflict_free(self):
        # STS.128 writing the A tile: 4 lanes cover one 64-byte row chunk.
        # Both strides are conflict-free for the store...
        padded = lane_addresses(lambda l: 80 * (l // 4) + 16 * (l % 4))
        assert conflict_multiplier(padded, 16) == 1.0

    def test_naive_tile_store_also_conflict_free(self):
        # ...so the whole Fig. 5 gap comes from the LDS side.
        naive = lane_addresses(lambda l: 64 * (l // 4) + 16 * (l % 4))
        assert conflict_multiplier(naive, 16) == 1.0


class TestSharedMemory:
    def test_roundtrip_32(self):
        sm = SharedMemory(4096)
        addrs = lane_addresses(lambda l: 4 * l)
        data = np.arange(32, dtype=np.uint32)[None, :]
        sm.store_warp(addrs, data, 4, ALL)
        out = sm.load_warp(addrs, 4, ALL)
        np.testing.assert_array_equal(out, data)

    def test_roundtrip_128(self):
        sm = SharedMemory(4096)
        addrs = lane_addresses(lambda l: 16 * l)
        data = np.arange(128, dtype=np.uint32).reshape(4, 32)
        sm.store_warp(addrs, data, 16, ALL)
        np.testing.assert_array_equal(sm.load_warp(addrs, 16, ALL), data)

    def test_masked_load_returns_zero(self):
        sm = SharedMemory(256)
        addrs = lane_addresses(lambda l: 4 * l)
        mask = np.zeros(32, bool)
        mask[1] = True
        sm.store_warp(addrs, np.full((1, 32), 7, np.uint32), 4, mask)
        out = sm.load_warp(addrs, 4, ALL)
        assert out[0, 1] == 7
        assert out[0, 0] == 0

    def test_out_of_bounds_raises(self):
        sm = SharedMemory(64)
        addrs = lane_addresses(lambda l: 4 * l)
        with pytest.raises(IndexError):
            sm.load_warp(addrs, 4, ALL)

    def test_misaligned_raises(self):
        sm = SharedMemory(4096)
        addrs = lane_addresses(lambda l: 8 * l + 4)
        with pytest.raises(ValueError, match="misaligned"):
            sm.load_warp(addrs, 8, ALL)

    def test_debug_read_array(self):
        sm = SharedMemory(128)
        addrs = lane_addresses(lambda l: 4 * l)
        sm.store_warp(addrs, np.arange(32, dtype=np.uint32)[None, :], 4, ALL)
        np.testing.assert_array_equal(
            sm.read_array(0, np.uint32, 8), np.arange(8, dtype=np.uint32)
        )

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SharedMemory(13)

    def test_zero_size_allowed(self):
        SharedMemory(0)

    def test_repeated_unmasked_pattern_is_validated_once(self, monkeypatch):
        """Unmasked accesses memoise their lane-relative address pattern per
        width, so a repeat -- at the same or a moved base -- builds no new
        entry and takes no full check; masked and faulting accesses take
        the full check every time."""
        built, checked = [], []
        build = memory._lane_pattern
        check = WarpMemory._checked_indices

        def counted_build(rel, width_bytes):
            built.append(width_bytes)
            return build(rel, width_bytes)

        def counted_check(self, addresses, width_bytes, mask):
            checked.append(width_bytes)
            return check(self, addresses, width_bytes, mask)

        monkeypatch.setattr(memory, "_lane_pattern", counted_build)
        monkeypatch.setattr(WarpMemory, "_checked_indices", counted_check)
        sm = SharedMemory(4096)
        addrs = lane_addresses(lambda l: 16 * l)
        data = np.arange(128, dtype=np.uint32).reshape(4, 32)
        sm.store_warp(addrs, data, 16, None)
        np.testing.assert_array_equal(sm.load_warp(addrs, 16, None), data)
        np.testing.assert_array_equal(sm.load_warp(addrs, 4, None), data[:1])
        sm.store_warp(addrs + 512, data + 1, 16, None)
        np.testing.assert_array_equal(sm.load_warp(addrs + 512, 16, None),
                                      data + 1)
        np.testing.assert_array_equal(sm.load_warp(addrs, 16, ALL), data)
        assert built == [16, 4]
        assert checked == [16]
        bad = lane_addresses(lambda l: 16 * l + 8)
        for _ in range(2):
            with pytest.raises(ValueError, match="misaligned"):
                sm.load_warp(bad, 16, None)
            with pytest.raises(IndexError, match="outside"):
                sm.load_warp(addrs + 4096, 16, None)
        assert built == [16, 4]
        assert checked == [16, 16, 16, 16, 16]
