"""Property-based tests on the simulator's micro-models.

These pin the mechanisms against independent brute-force references:
the bank-conflict calculator, the MIO queue's drain behaviour, and the
LRU line sets of the memory hierarchy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import RTX2070
from repro.sim.memory import _LruLineSet
from repro.sim.shared import NUM_BANKS, bank_conflict_degree
from repro.sim.timing import _MioQueue


def brute_force_degree(addresses, width_bytes, mask):
    """Independent re-implementation of the bank-phase count."""
    words = set()
    for addr, active in zip(addresses, mask):
        if not active:
            continue
        for byte in range(0, width_bytes, 4):
            words.add((addr + byte) // 4)
    per_bank = {}
    for word in words:
        per_bank.setdefault(word % NUM_BANKS, set()).add(word)
    return max((len(v) for v in per_bank.values()), default=0)


class TestBankConflictProperty:
    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 10**6),
        width=st.sampled_from([4, 8, 16]),
        mask_seed=st.integers(0, 10**6),
    )
    def test_matches_brute_force(self, seed, width, mask_seed):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 1024, 32, dtype=np.int64) * width
        mask = np.random.default_rng(mask_seed).random(32) < 0.8
        got = bank_conflict_degree(addresses, width, mask)
        assert got == brute_force_degree(addresses, width, mask)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_degree_bounds(self, seed):
        rng = np.random.default_rng(seed)
        addresses = rng.integers(0, 2048, 32, dtype=np.int64) * 4
        degree = bank_conflict_degree(addresses, 4, np.ones(32, bool))
        assert 1 <= degree <= 32

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 256, 32, dtype=np.int64) * 4
        mask = np.ones(32, bool)
        base = bank_conflict_degree(addresses, 4, mask)
        for _ in range(5):
            perm = rng.permutation(32)
            assert bank_conflict_degree(addresses[perm], 4, mask) == base


class TestMioQueueProperties:
    def test_drain_rate_is_exact(self):
        # N entries of occupancy c drain in exactly N*c cycles.
        q = _MioQueue(depth=8)
        last = 0.0
        for i in range(100):
            last = q.push(0, 2.11)
        assert last == pytest.approx(100 * 2.11)

    def test_idle_queue_restarts_from_now(self):
        q = _MioQueue(depth=8)
        q.push(0, 4.0)           # drains at 4
        done = q.push(100, 4.0)  # queue idle: starts at 100
        assert done == pytest.approx(104.0)

    def test_capacity_gates_acceptance(self):
        q = _MioQueue(depth=4)
        for _ in range(4):
            q.push(0, 10.0)
        assert not q.can_accept(0)
        assert q.next_slot_free(0) == pytest.approx(10.0)
        assert q.can_accept(10)      # first entry drained at 10

    @settings(max_examples=50)
    @given(occupancies=st.lists(st.floats(min_value=0.5, max_value=20),
                                min_size=1, max_size=40))
    def test_fifo_completion_order(self, occupancies):
        q = _MioQueue(depth=1000)
        dones = [q.push(0, occ) for occ in occupancies]
        assert dones == sorted(dones)
        assert dones[-1] == pytest.approx(sum(occupancies))


class TestLruLineSet:
    def test_hit_after_insert(self):
        s = _LruLineSet(capacity_bytes=4 * 128, line_bytes=128)
        s.insert([1])
        assert s.lookup([1])

    def test_eviction_order(self):
        s = _LruLineSet(capacity_bytes=2 * 128, line_bytes=128)
        s.insert([1])
        s.insert([2])
        s.insert([3])          # evicts 1
        assert not s.lookup([1])
        assert s.lookup([2]) and s.lookup([3])

    def test_lookup_refreshes_recency(self):
        s = _LruLineSet(capacity_bytes=2 * 128, line_bytes=128)
        s.insert([1])
        s.insert([2])
        s.lookup([1])          # 1 becomes most recent
        s.insert([3])          # evicts 2, not 1
        assert s.lookup([1])
        assert not s.lookup([2])

    def test_zero_capacity_never_hits(self):
        s = _LruLineSet(capacity_bytes=0, line_bytes=128)
        s.insert([1])
        assert not s.lookup([1])

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=200))
    def test_size_never_exceeds_capacity(self, lines):
        s = _LruLineSet(capacity_bytes=8 * 128, line_bytes=128)
        for line in lines:
            s.insert([line])
            assert len(s) <= 8


class TestTimingDeterminism:
    def test_repeat_runs_identical(self):
        from repro.core import ours
        from repro.core.builder import HgemmProblem, build_hgemm
        from repro.sim import GlobalMemory, TimingSimulator

        prob = HgemmProblem(256, 256, 64, 0, 4 << 20, 8 << 20)
        program = build_hgemm(ours(), prob)
        cycles = []
        for _ in range(2):
            sim = TimingSimulator(RTX2070)
            cycles.append(sim.run(program, GlobalMemory(16 << 20)).cycles)
        assert cycles[0] == cycles[1]
