"""Tests for global memory and the L1/L2/DRAM service model."""

import numpy as np
import pytest

from repro.arch import RTX2070
from repro.sim.memory import GlobalMemory, MemorySubsystem

ALL = np.ones(32, dtype=bool)


def addrs(fn):
    return np.array([fn(l) for l in range(32)], dtype=np.int64)


class TestGlobalMemoryHost:
    def test_write_read_bytes(self):
        gm = GlobalMemory(1024)
        gm.write_bytes(16, b"\x01\x02\x03\x04" * 4)
        assert gm.read_bytes(16, 16) == b"\x01\x02\x03\x04" * 4

    def test_array_roundtrip(self):
        gm = GlobalMemory(4096)
        data = np.arange(100, dtype=np.float16)
        gm.write_array(128, data)
        np.testing.assert_array_equal(gm.read_array(128, np.float16, 100), data)

    def test_misaligned_host_access(self):
        gm = GlobalMemory(64)
        with pytest.raises(ValueError):
            gm.write_bytes(2, b"\x00" * 4)

    def test_out_of_bounds(self):
        gm = GlobalMemory(64)
        with pytest.raises(IndexError):
            gm.read_bytes(60, 8)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            GlobalMemory(0)
        with pytest.raises(ValueError):
            GlobalMemory(10)
        with pytest.raises(ValueError):
            GlobalMemory(10, mapped=True)

    def test_mapped_memory_behaves_like_heap_memory(self):
        heap, mapped = GlobalMemory(1 << 16), GlobalMemory(1 << 16, mapped=True)
        a = addrs(lambda l: 16 * l + 4096)
        data = np.arange(128, dtype=np.uint32).reshape(4, 32)
        for gm in (heap, mapped):
            gm.write_bytes(64, bytes(range(16)))
            gm.store_warp(a, data, 16, None)
        assert mapped.read_bytes(0, 1 << 16) == heap.read_bytes(0, 1 << 16)
        np.testing.assert_array_equal(mapped.load_warp(a, 16, None), data)


class TestGlobalMemoryWarp:
    def test_load_store_roundtrip_32(self):
        gm = GlobalMemory(1024)
        a = addrs(lambda l: 4 * l)
        data = np.arange(32, dtype=np.uint32)[None, :]
        gm.store_warp(a, data, 4, ALL)
        np.testing.assert_array_equal(gm.load_warp(a, 4, ALL), data)

    def test_load_store_roundtrip_128(self):
        gm = GlobalMemory(4096)
        a = addrs(lambda l: 16 * l)
        data = np.arange(128, dtype=np.uint32).reshape(4, 32)
        gm.store_warp(a, data, 16, ALL)
        np.testing.assert_array_equal(gm.load_warp(a, 16, ALL), data)

    def test_masked_lanes_untouched(self):
        gm = GlobalMemory(256)
        a = addrs(lambda l: 4 * l)
        mask = np.zeros(32, bool)
        mask[2] = True
        gm.store_warp(a, np.full((1, 32), 9, np.uint32), 4, mask)
        out = gm.load_warp(a, 4, ALL)
        assert out[0, 2] == 9 and out[0, 3] == 0

    def test_misaligned_raises(self):
        gm = GlobalMemory(256)
        a = addrs(lambda l: 8 * l + 4)
        with pytest.raises(ValueError, match="misaligned"):
            gm.load_warp(a, 8, ALL)

    def test_oob_raises(self):
        gm = GlobalMemory(64)
        a = addrs(lambda l: 16 * l)
        with pytest.raises(IndexError):
            gm.load_warp(a, 16, ALL)

    def test_inactive_oob_lane_ignored(self):
        gm = GlobalMemory(64)
        a = addrs(lambda l: 4 * l)  # lanes 16.. would be OOB
        a[16:] = 10**9
        mask = np.zeros(32, bool)
        mask[:16] = True
        gm.load_warp(a, 4, mask)  # must not raise


class TestMemorySubsystem:
    def test_cold_access_goes_to_dram(self):
        ms = MemorySubsystem(RTX2070)
        s = ms.access(0, addrs(lambda l: 4 * l), 4, ALL)
        assert s.level == "dram"
        assert ms.counters.dram_bytes > 0

    def test_repeat_access_hits_l1(self):
        ms = MemorySubsystem(RTX2070)
        a = addrs(lambda l: 4 * l)
        ms.access(0, a, 4, ALL)
        s = ms.access(1000, a, 4, ALL)
        assert s.level == "l1"
        assert ms.counters.l1_hit_bytes > 0

    def test_bypass_l1_hits_l2(self):
        # The paper's methodology: .CG bypasses L1, so repeats hit L2.
        ms = MemorySubsystem(RTX2070)
        a = addrs(lambda l: 4 * l)
        ms.access(0, a, 4, ALL, bypass_l1=True)
        s = ms.access(1000, a, 4, ALL, bypass_l1=True)
        assert s.level == "l2"

    def test_l1_capacity_eviction(self):
        # Stream > 32 KB through L1, then revisit the start: must miss L1.
        ms = MemorySubsystem(RTX2070, l1_bytes=4096)
        for i in range(64):  # 64 x 128B lines = 8 KB > 4 KB L1
            a = addrs(lambda l, i=i: i * 128 + 4 * l)
            ms.access(i, a, 4, ALL)
        s = ms.access(10_000, addrs(lambda l: 4 * l), 4, ALL)
        assert s.level in ("l2", "dram")

    def test_sector_counting(self):
        ms = MemorySubsystem(RTX2070)
        # 32 lanes x 4B contiguous = 128 bytes = 4 sectors of 32B.
        s = ms.access(0, addrs(lambda l: 4 * l), 4, ALL)
        assert s.sectors == 4
        # Strided: one 4B word per 32B sector -> 32 sectors.
        s2 = ms.access(0, addrs(lambda l: 32 * l + 4096), 4, ALL)
        assert s2.sectors == 32

    def test_bandwidth_serialisation(self):
        # Back-to-back big accesses must be spaced by bytes/bandwidth.
        ms = MemorySubsystem(RTX2070)
        a1 = ms.access(0, addrs(lambda l: 16 * l), 16, ALL)
        a2 = ms.access(0, addrs(lambda l: 4096 + 16 * l), 16, ALL)
        assert a2.ready_cycle > a1.ready_cycle

    def test_dram_rate_matches_measured_bandwidth(self):
        # Streaming N bytes cold should take ~ N / measured-BW seconds.
        ms = MemorySubsystem(RTX2070, bandwidth_share=1.0)
        total = 0
        last = None
        for i in range(256):
            a = addrs(lambda l, i=i: i * 512 + 16 * l)
            last = ms.access(0, a, 16, ALL)
            total += 512
        seconds = RTX2070.cycles_to_seconds(last.ready_cycle - RTX2070.ldg_latency_cycles)
        gbps = total / seconds / 1e9
        assert gbps == pytest.approx(RTX2070.dram_measured_gbps, rel=0.05)

    def test_store_counts_traffic(self):
        ms = MemorySubsystem(RTX2070)
        ms.access(0, addrs(lambda l: 4 * l), 4, ALL, is_store=True)
        assert ms.counters.store_bytes == 128

    def test_empty_mask_short_circuits(self):
        ms = MemorySubsystem(RTX2070)
        s = ms.access(5, addrs(lambda l: 4 * l), 4, np.zeros(32, bool))
        assert s.sectors == 0
        assert s.ready_cycle == 5

    def test_bad_share(self):
        with pytest.raises(ValueError):
            MemorySubsystem(RTX2070, bandwidth_share=0.0)
