"""Banked shared memory: functional store + bank-conflict timing.

Turing shared memory has 32 banks of 4 bytes; a warp access serialises into
as many phases as the most-contended bank needs.  The conflict *multiplier*
computed here scales the baseline LDS/STS CPI (paper Table IV, which is
defined for conflict-free patterns).  Broadcasts (several lanes reading the
same word) do not conflict.

This module is what makes the paper's Fig. 5 ablation mechanistic: the naive
``A[256][32]`` layout produces multi-way conflicts on the HGEMM's LDS/STS
patterns while the padded layout (``offset = row*32 + row%2*8 + col``) is
conflict-free -- both facts are *computed from the addresses*, not asserted.
"""

from __future__ import annotations

import numpy as np

from .memory import PATTERN_MEMO_BOUND, WarpMemory

__all__ = ["SharedMemory", "bank_conflict_degree", "conflict_multiplier"]

#: Turing shared memory geometry.
NUM_BANKS = 32
BANK_BYTES = 4
#: Bytes after which the banks repeat.
BANK_SPAN = NUM_BANKS * BANK_BYTES


def bank_conflict_degree(addresses: np.ndarray, width_bytes: int,
                         mask: np.ndarray = None) -> int:
    """Serialisation phases needed by one warp-wide shared access.

    Args:
        addresses: (32,) byte addresses, one per lane.
        width_bytes: 4, 8 or 16 (LDS/STS .32/.64/.128).
        mask: active-lane mask; inactive lanes make no requests.

    Returns:
        The number of bank phases, i.e. ``max_b |distinct words in bank b|``
        over the whole access.  A conflict-free access of width ``w`` needs
        ``32 * (w/4) / 32 = w/4`` phases (that baseline is already priced
        into the CPI tables).
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if mask is None:
        mask = np.ones(addresses.shape, dtype=bool)
    active = addresses[mask]
    if active.size == 0:
        return 0
    if np.any(active % width_bytes):
        bad = int(active[active % width_bytes != 0][0])
        raise ValueError(f"misaligned {width_bytes}-byte shared access at {bad:#x}")
    words_per_lane = width_bytes // BANK_BYTES
    words = (
        active[:, None] // BANK_BYTES
        + np.arange(words_per_lane, dtype=np.int64)[None, :]
    ).ravel()
    distinct = np.unique(words)
    banks = distinct % NUM_BANKS
    return int(np.bincount(banks, minlength=NUM_BANKS).max())


def conflict_multiplier(addresses: np.ndarray, width_bytes: int,
                        mask: np.ndarray = None) -> float:
    """How much slower this access is than the conflict-free baseline.

    Wide accesses are issued by the hardware in ``width/4`` wavefronts, so a
    conflict-free .128 access already takes 4 phases; the multiplier is the
    measured phase count over that baseline, floored at 1.
    """
    degree = bank_conflict_degree(addresses, width_bytes, mask)
    baseline = width_bytes // BANK_BYTES
    return max(1.0, degree / baseline)


class SharedMemory(WarpMemory):
    """Per-CTA shared memory with vectorised warp access (and the
    lane-relative pattern memo of :class:`~repro.sim.memory.WarpMemory`)."""

    space = "shared"

    def __init__(self, size_bytes: int):
        if size_bytes < 0 or size_bytes % 4:
            raise ValueError(f"size must be a non-negative multiple of 4, got {size_bytes}")
        super().__init__(size_bytes,
                         np.zeros(max(1, size_bytes // 4), dtype=np.uint32))
        self._conflicts = {}

    def pattern_conflicts(self, addresses: np.ndarray, width_bytes: int,
                          pattern: tuple) -> float:
        """:func:`conflict_multiplier` of a valid unmasked access whose
        :func:`~repro.sim.memory.lane_pattern` is *pattern*, memoised by
        its width, pattern and base modulo :data:`BANK_SPAN`: an aligned
        access's banks depend on nothing else, so the warps of a CTA
        share entries."""
        key = (width_bytes, pattern[0] % BANK_SPAN, pattern[1])
        mult = self._conflicts.get(key)
        if mult is None:
            if len(self._conflicts) >= PATTERN_MEMO_BOUND:
                self._conflicts.clear()
            mult = self._conflicts[key] = conflict_multiplier(addresses,
                                                              width_bytes)
        return mult

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Debug view of shared contents (not a hardware operation)."""
        nbytes = np.dtype(dtype).itemsize * count
        if addr % 4 or addr + nbytes > self.size:
            raise IndexError("bad shared read range")
        return self._words[addr // 4 : (addr + nbytes) // 4].view(dtype)[:count].copy()
