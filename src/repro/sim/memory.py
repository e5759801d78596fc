"""Global memory state and the L1/L2/DRAM service model.

Two concerns live here:

* :class:`GlobalMemory` -- the *functional* byte store backing LDG/STG, with
  vectorised warp-wide gather/scatter (32 lanes x 1/2/4 words each), which
  it shares with shared memory through :class:`WarpMemory`.

* :class:`MemorySubsystem` -- the *timing* model the SM simulator consults
  for every global access: which level serves it (L1 / L2 / DRAM), how many
  32-byte sectors move, and when the data arrives.  Capacity is modelled
  with LRU line sets; bandwidth with per-level "next free cycle" counters
  advanced by ``bytes / (bytes per cycle)``.

Both memoise an unmasked access by its *lane-relative* address pattern
(every lane's address minus lane 0's), so a k-loop or a streaming probe,
which repeats one pattern with a moving base, pays one dictionary lookup
per access instead of per-lane validation and per-sector bookkeeping.

The bandwidth constants come from the paper's Table II *measured* values:
the simulator is the stand-in for the silicon, so its DRAM ceiling is the
380/238 GB/s the authors measured, not the 448/320 GB/s marketing peak.
"""

from __future__ import annotations

import mmap
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..arch.turing import GpuSpec

__all__ = ["WarpMemory", "GlobalMemory", "AccessSummary", "MemorySubsystem",
           "lane_pattern"]

#: Entry bound of each address-pattern memo.  A GEMM k-loop cycles through
#: a few patterns per slot; the bound only guards against programs whose
#: patterns never repeat.
PATTERN_MEMO_BOUND = 4096

_INT64 = np.dtype(np.int64)


class WarpMemory:
    """Word-addressed store with warp-wide vectorised gather and scatter.

    :class:`GlobalMemory` and :class:`~repro.sim.shared.SharedMemory`
    share this one implementation; each passes its ``size`` (bytes) and
    ``_words`` (uint32), and :attr:`space` names it in errors.  Addresses
    are byte addresses; every access must be aligned to its width (the
    hardware faults otherwise, and so do we -- misalignment in a
    generated kernel is a bug we want loud).

    Unmasked int64-addressed accesses (the compiled slots of both
    simulators) look their lane-relative pattern up in a per-memory memo:
    whether every offset is width-aligned, the pattern's extent, and its
    relative word indices.  Such an access is valid iff its base is
    aligned, the pattern is aligned and the extent lands inside ``size``;
    its indices are the relative ones plus ``base // 4``.  Any other
    access, and any that fails those tests, takes the full check, so
    every error keeps its type and text.
    """

    space = "global"

    def __init__(self, size_bytes: int, words: np.ndarray):
        self.size = size_bytes
        self._words = words
        self._patterns = {}

    def load_warp(self, addresses: np.ndarray, width_bytes: int,
                  mask: np.ndarray) -> np.ndarray:
        """Gather ``width_bytes`` per active lane; returns (words, lanes)
        uint32.  Inactive lanes return zeros; ``mask=None`` means all lanes
        are active."""
        idx = self._word_indices(addresses, width_bytes, mask)
        if mask is None:
            return self._words[idx]
        out = np.zeros((width_bytes // 4, addresses.shape[0]), dtype=np.uint32)
        out[:, mask] = self._words[idx[:, mask]]
        return out

    def store_warp(self, addresses: np.ndarray, data: np.ndarray,
                   width_bytes: int, mask: np.ndarray) -> None:
        """Scatter (words, lanes) uint32 *data* to the active lanes."""
        idx = self._word_indices(addresses, width_bytes, mask)
        if mask is None:
            self._words[idx] = data
            return
        self._words[idx[:, mask]] = data[:, mask]

    def load_warp_batch(self, addresses: np.ndarray, width_bytes: int) -> np.ndarray:
        """Gather for a fused run: (g, lanes) addresses -> (g, words, lanes).

        All lanes are active (a fused run's guard is checked before it
        runs); semantically this equals ``g`` sequential :meth:`load_warp`
        calls.
        """
        return self._words[self._batch_indices(addresses, width_bytes)]

    def store_warp_batch(self, addresses: np.ndarray, data: np.ndarray,
                         width_bytes: int) -> None:
        """Scatter for a fused run of stores: (g, lanes) addresses and
        (g, words, lanes) data.  NumPy fancy assignment applies duplicate
        indices in C order, so later members of the run win -- exactly like
        sequential stores."""
        self._words[self._batch_indices(addresses, width_bytes)] = data

    def _batch_indices(self, addresses: np.ndarray, width_bytes: int) -> np.ndarray:
        """(g, words, lanes) word indices of a fused run's int64 addresses.

        Widths are powers of two, so one mask tests alignment, and the
        whole batch's extent tests bounds; only a faulty batch pays for
        the per-row search that names its first fault."""
        if ((addresses & (width_bytes - 1)).any() or addresses.min() < 0
                or addresses.max() + width_bytes > self.size):
            self._batch_fault(addresses, width_bytes)
        words = width_bytes // 4
        return ((addresses >> 2)[:, None, :]
                + np.arange(words, dtype=np.int64)[None, :, None])

    def _batch_fault(self, addresses: np.ndarray, width_bytes: int) -> None:
        """Raise for a faulty fused run: its first misaligned lane, else
        the first row that leaves the memory."""
        misaligned = addresses % width_bytes != 0
        if misaligned.any():
            raise ValueError(
                f"misaligned {width_bytes}-byte {self.space} access at "
                f"{int(addresses[misaligned][0]):#x}")
        per_row_max = addresses.max(axis=1)
        per_row_min = addresses.min(axis=1)
        oob = (per_row_min < 0) | (per_row_max + width_bytes > self.size)
        row = int(np.argmax(oob))
        first = int(per_row_min[row])
        self._bounds_check(first, int(per_row_max[row]) + width_bytes - first)

    def _word_indices(self, addresses: np.ndarray, width_bytes: int,
                      mask: np.ndarray) -> np.ndarray:
        if mask is None and addresses.dtype is _INT64 and addresses.size:
            return self._pattern_indices(addresses, width_bytes,
                                         lane_pattern(addresses))
        return self._checked_indices(addresses, width_bytes, mask)

    def _pattern_indices(self, addresses: np.ndarray, width_bytes: int,
                         pattern: tuple) -> np.ndarray:
        """Word indices of an unmasked int64 access whose
        :func:`lane_pattern` is *pattern*, from the memo when the access
        is valid, else from the full check."""
        base, rel = pattern
        key = (width_bytes, rel)
        entry = self._patterns.get(key)
        if entry is None:
            entry = _lane_pattern(addresses - base, width_bytes)
            if len(self._patterns) >= PATTERN_MEMO_BOUND:
                self._patterns.clear()
            self._patterns[key] = entry
        aligned, lo, hi, rel_idx = entry
        if (aligned and base % width_bytes == 0 and base + lo >= 0
                and base + hi <= self.size):
            return rel_idx + base // 4
        return self._checked_indices(addresses, width_bytes, None)

    def load_pattern(self, addresses: np.ndarray, width_bytes: int):
        """:meth:`load_warp` of an unmasked int64 access, with its
        :func:`lane_pattern`: ``(pattern, data)``.  A timed access hands
        the pattern on to :meth:`MemorySubsystem.access`, so it is
        computed once."""
        pattern = lane_pattern(addresses)
        return pattern, self._words[
            self._pattern_indices(addresses, width_bytes, pattern)]

    def store_pattern(self, addresses: np.ndarray, data: np.ndarray,
                      width_bytes: int) -> tuple:
        """:meth:`store_warp` of an unmasked int64 access; returns its
        :func:`lane_pattern`, as :meth:`load_pattern` does."""
        pattern = lane_pattern(addresses)
        self._words[self._pattern_indices(addresses, width_bytes,
                                          pattern)] = data
        return pattern

    def _checked_indices(self, addresses: np.ndarray, width_bytes: int,
                         mask: np.ndarray) -> np.ndarray:
        """Validate every active lane, then build the (words, lanes) word
        indices; raises on a misaligned or out-of-bounds lane."""
        active = addresses if mask is None else addresses[mask]
        if active.size:
            if np.any(active % width_bytes):
                bad = int(active[active % width_bytes != 0][0])
                raise ValueError(
                    f"misaligned {width_bytes}-byte {self.space} access at {bad:#x}")
            first = int(active.min())
            self._bounds_check(first, int(active.max()) + width_bytes - first)
        words = width_bytes // 4
        base = (addresses // 4).astype(np.int64)
        if mask is not None:
            # Clamp inactive lanes so indexing stays in range; they are masked out.
            base = np.where(mask, base, 0)
        return base[None, :] + np.arange(words, dtype=np.int64)[:, None]

    def _bounds_check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise IndexError(
                f"{self.space} access [{addr:#x}, {addr + size:#x}) outside "
                f"the {self.size:#x}-byte {self.space} memory"
            )


def lane_pattern(addresses: np.ndarray) -> tuple:
    """``(base, offsets)`` of an unmasked int64 warp access: lane 0's
    address and the bytes of every lane's address minus it, the key both
    memos look the access up by."""
    base = int(addresses[0])
    return base, (addresses - base).tobytes()


def _lane_pattern(rel: np.ndarray, width_bytes: int) -> tuple:
    """Memo entry of one lane-relative address pattern: ``(aligned, lowest
    offset, highest offset + width, relative word indices)``."""
    words = width_bytes // 4
    rel_idx = rel[None, :] // 4 + np.arange(words, dtype=np.int64)[:, None]
    rel_idx.setflags(write=False)
    return (not np.any(rel % width_bytes), int(rel.min()),
            int(rel.max()) + width_bytes, rel_idx)


class GlobalMemory(WarpMemory):
    """Flat global memory: the warp access of :class:`WarpMemory` plus the
    host's copies in and out.

    ``mapped=True`` puts the words on fresh private anonymous pages,
    which the kernel zero-fills on first touch: a large memory that a run
    touches sparsely then keeps only the pages it touched resident,
    whatever state malloc's heap is in.
    """

    def __init__(self, size_bytes: int, *, mapped: bool = False):
        if size_bytes <= 0 or size_bytes % 4:
            raise ValueError(f"size must be a positive multiple of 4, got {size_bytes}")
        if mapped:
            words = np.frombuffer(
                mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE),
                dtype=np.uint32)
        else:
            words = np.zeros(size_bytes // 4, dtype=np.uint32)
        super().__init__(size_bytes, words)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Host-side memcpy into the device (cudaMemcpy H2D equivalent)."""
        if addr % 4 or len(data) % 4:
            raise ValueError("host writes must be 4-byte aligned")
        self._bounds_check(addr, len(data))
        self._words[addr // 4 : (addr + len(data)) // 4] = np.frombuffer(
            data, dtype=np.uint32
        )

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Host-side memcpy out of the device (cudaMemcpy D2H equivalent)."""
        if addr % 4 or size % 4:
            raise ValueError("host reads must be 4-byte aligned")
        self._bounds_check(addr, size)
        return self._words[addr // 4 : (addr + size) // 4].tobytes()

    def write_array(self, addr: int, array: np.ndarray) -> None:
        self.write_bytes(addr, np.ascontiguousarray(array).tobytes())

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        nbytes = np.dtype(dtype).itemsize * count
        return np.frombuffer(self.read_bytes(addr, nbytes), dtype=dtype).copy()


def _touched_units(active: np.ndarray, width_bytes: int, unit: int) -> list:
    """Sorted distinct ``unit``-byte block indices touched by width-byte
    accesses at the given (non-negative) byte addresses.

    Equivalent to ``np.unique(word_starts // unit)`` over every 4-byte word
    start: when a whole access spans at most two blocks (``width_bytes - 4
    <= unit``) only the end words matter.
    """
    if width_bytes - 4 <= unit:
        out = set((active // unit).tolist())
        if width_bytes > 4:
            out.update(((active + (width_bytes - 4)) // unit).tolist())
    else:
        out = set()
        for off in range(0, width_bytes, 4):
            out.update(((active + off) // unit).tolist())
    return sorted(out)


@dataclass
class AccessSummary:
    """Timing outcome of one warp-level global access."""

    level: str            # "l1", "l2" or "dram"
    sectors: int          # distinct 32-byte sectors touched
    ready_cycle: int      # cycle when the data is available to the warp


class _LruLineSet:
    """Fully-associative LRU set of cache lines (capacity in bytes).

    Both operations take one access's units (lines or sectors) in
    ascending order; the insertion order is the LRU order.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int):
        self.line_bytes = line_bytes
        self.capacity_lines = max(0, capacity_bytes // line_bytes)
        self._lines: OrderedDict = OrderedDict()

    def lookup(self, units) -> bool:
        """Whether every unit is resident; if so each moves to most
        recently used, in order.  A miss moves nothing."""
        lines = self._lines
        for unit in units:
            if unit not in lines:
                return False
        move = lines.move_to_end
        for unit in units:
            move(unit)
        return True

    def insert(self, units) -> None:
        """Make every unit most recently used, in order, evicting the least
        recently used line whenever a new one overflows the capacity."""
        capacity = self.capacity_lines
        if capacity == 0:
            return
        lines = self._lines
        for unit in units:
            if unit in lines:
                lines.move_to_end(unit)
            else:
                lines[unit] = True
                if len(lines) > capacity:
                    lines.popitem(last=False)

    def __len__(self) -> int:
        return len(self._lines)


@dataclass
class TrafficCounters:
    """Byte counters the bandwidth benchmarks read out."""

    l1_hit_bytes: int = 0
    l2_hit_bytes: int = 0
    dram_bytes: int = 0
    store_bytes: int = 0


class MemorySubsystem:
    """Timing model of the global-memory path seen by one simulated SM.

    ``bandwidth_share`` scales the device-level L2/DRAM bandwidth down to
    this SM's fair share when the benchmark models a full-device launch
    (e.g. ``1 / num_sms`` when every SM streams concurrently).
    """

    L1_LINE = 128

    def __init__(self, spec: GpuSpec, bandwidth_share: float = 1.0,
                 l1_bytes: int = 32 * 1024):
        if not 0 < bandwidth_share <= 1.0:
            raise ValueError(f"bandwidth_share must be in (0, 1], got {bandwidth_share}")
        self.spec = spec
        self.l1 = _LruLineSet(l1_bytes, self.L1_LINE)
        self.l2 = _LruLineSet(spec.l2_bytes, spec.l2_sector_bytes)
        # Sectors per L1 line, or 0 when sectors do not nest in lines.
        self._sectors_per_line = (self.L1_LINE // spec.l2_sector_bytes
                                  if self.L1_LINE % spec.l2_sector_bytes == 0
                                  else 0)
        def bytes_per_cycle(gbps):
            # GB/s / (Gcycle/s) = bytes/cycle.
            return gbps * bandwidth_share / (spec.clock_ghz)

        self._l2_bpc = bytes_per_cycle(spec.l2_measured_gbps)
        self._dram_bpc = bytes_per_cycle(spec.dram_measured_gbps)
        self._l2_free = 0.0
        self._dram_free = 0.0
        self.counters = TrafficCounters()
        self._patterns = {}   # lane-relative pattern -> _full_units offsets

    def access(self, cycle: int, addresses: np.ndarray, width_bytes: int,
               mask: np.ndarray, is_store: bool = False,
               bypass_l1: bool = False, pattern: tuple = None) -> AccessSummary:
        """Account one warp access and return where/when it was served.

        ``mask=None`` means every lane is active.  *pattern* is the
        access's :func:`lane_pattern` when the caller already has it.
        """
        sector = self.spec.l2_sector_bytes
        ratio = self._sectors_per_line
        if (ratio and (mask is None or mask.all())
                and addresses.dtype is _INT64):
            sector_list, line_list = self._full_units(
                addresses, width_bytes, pattern or lane_pattern(addresses))
        else:
            active = addresses if mask is None else addresses[mask]
            if active.size == 0:
                return AccessSummary(level="l1", sectors=0, ready_cycle=cycle)
            sector_list = _touched_units(active, width_bytes, sector)
            # Every touched L1 line contains a touched sector, so the line
            # set comes from the (much smaller) sector set when sizes nest.
            if ratio:
                line_list = sorted({q // ratio for q in sector_list})
            else:
                line_list = _touched_units(active, width_bytes, self.L1_LINE)
        nbytes = len(sector_list) * sector

        if is_store:
            # Write-through accounting: stores consume DRAM write bandwidth.
            self.counters.store_bytes += nbytes
            if not bypass_l1:
                self.l1.insert(line_list)
            self.l2.insert(sector_list)
            ready = self._serve(cycle, nbytes, dram=True)
            return AccessSummary(level="dram", sectors=len(sector_list), ready_cycle=ready)

        if not bypass_l1 and self.l1.lookup(line_list):
            self.counters.l1_hit_bytes += nbytes
            return AccessSummary(
                level="l1",
                sectors=len(sector_list),
                ready_cycle=cycle + self.spec.lds_latency_cycles,
            )

        # A hit refreshes every sector in order, which is all the inserts
        # would do; a miss refreshes none, and the inserts move any
        # resident ones first, before anything is evicted.
        l2_hit = self.l2.lookup(sector_list)
        if not l2_hit:
            self.l2.insert(sector_list)
        if not bypass_l1:
            self.l1.insert(line_list)

        if l2_hit:
            self.counters.l2_hit_bytes += nbytes
            ready = self._serve(cycle, nbytes, dram=False)
            level = "l2"
        else:
            self.counters.dram_bytes += nbytes
            ready = self._serve(cycle, nbytes, dram=True)
            level = "dram"
        return AccessSummary(level=level, sectors=len(sector_list), ready_cycle=ready)

    def _full_units(self, addresses: np.ndarray, width_bytes: int,
                    pattern: tuple):
        """Sorted sectors and L1 lines of an all-lanes access, from a memo of
        their offsets keyed by the lane-relative pattern and the base's
        offset in its L1 line: sectors nest in lines, so the line index
        fixes the sector base."""
        base, rel = pattern
        line, offset = divmod(base, self.L1_LINE)
        key = (width_bytes, offset, rel)
        units = self._patterns.get(key)
        if units is None:
            ratio = self._sectors_per_line
            sectors = _touched_units(addresses - line * self.L1_LINE,
                                     width_bytes, self.spec.l2_sector_bytes)
            units = (sectors, sorted({q // ratio for q in sectors}))
            if len(self._patterns) >= PATTERN_MEMO_BOUND:
                self._patterns.clear()
            self._patterns[key] = units
        sectors, lines = units
        first = line * self._sectors_per_line
        return [first + q for q in sectors], [line + q for q in lines]

    def _serve(self, cycle: int, nbytes: int, dram: bool) -> int:
        base_latency = self.spec.ldg_latency_cycles
        if dram:
            start = max(cycle, self._dram_free)
            self._dram_free = start + nbytes / self._dram_bpc
            return int(self._dram_free) + base_latency
        start = max(cycle, self._l2_free)
        self._l2_free = start + nbytes / self._l2_bpc
        return int(self._l2_free) + base_latency // 2
