"""Property tests: the lane-relative pattern memos change no observable.

`WarpMemory` looks an unmasked access's lane-relative address pattern up
in a memo instead of validating every lane, and `MemorySubsystem.access`
looks up the sectors and lines of an all-lanes access and updates each
LRU set once per access; a fused run checks its whole batch at once.
The references below are the per-lane, per-sector and per-row code those
paths replaced, kept here as the oracle: over hypothesis-generated
patterns -- strided, permuted, broadcast, negative relative offsets,
straddled lines, masked, misaligned and out of bounds, repeated at moving
bases so the memos hit -- both sides must return the same data or raise
the same exception type and text, and leave the same memory image, access
summaries, traffic counters and L1/L2 LRU order.  Small L1/L2 capacities
force evictions.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import RTX2070, T4
from repro.sim.memory import GlobalMemory, MemorySubsystem, lane_pattern
from repro.sim.shared import SharedMemory

LANES = 32
WIDTHS = (4, 8, 16)


# ------------------------------------------------------------ references

def ref_word_indices(space, size, addresses, width, mask):
    """Per-lane validation and index build (the code the memo replaced)."""
    active = addresses if mask is None else addresses[mask]
    if active.size:
        if np.any(active % width):
            bad = int(active[active % width != 0][0])
            raise ValueError(f"misaligned {width}-byte {space} access at {bad:#x}")
        first = int(active.min())
        last = int(active.max()) + width
        if first < 0 or last > size:
            raise IndexError(
                f"{space} access [{first:#x}, {last:#x}) outside "
                f"the {size:#x}-byte {space} memory")
    base = (addresses // 4).astype(np.int64)
    if mask is not None:
        base = np.where(mask, base, 0)
    return base[None, :] + np.arange(width // 4, dtype=np.int64)[:, None]


def ref_batch_indices(space, size, addresses, width):
    """Per-row validation and index build of a fused run (the code the
    whole-batch check replaced)."""
    misaligned = addresses % width != 0
    if misaligned.any():
        raise ValueError(f"misaligned {width}-byte {space} access at "
                         f"{int(addresses[misaligned][0]):#x}")
    per_row_max = addresses.max(axis=1)
    per_row_min = addresses.min(axis=1)
    oob = (per_row_min < 0) | (per_row_max + width > size)
    if oob.any():
        row = int(np.argmax(oob))
        first, last = int(per_row_min[row]), int(per_row_max[row]) + width
        raise IndexError(
            f"{space} access [{first:#x}, {last:#x}) outside "
            f"the {size:#x}-byte {space} memory")
    return (addresses[:, None, :] // 4
            + np.arange(width // 4, dtype=np.int64)[None, :, None])


class RefLru:
    """One lookup or insert per unit, as the per-sector code did."""

    def __init__(self, capacity_bytes, line_bytes):
        self.capacity = max(0, capacity_bytes // line_bytes)
        self.lines = {}

    def lookup(self, unit):
        if unit in self.lines:
            self.lines[unit] = self.lines.pop(unit)
            return True
        return False

    def insert(self, unit):
        if self.capacity == 0:
            return
        self.lines.pop(unit, None)
        self.lines[unit] = True
        if len(self.lines) > self.capacity:
            del self.lines[next(iter(self.lines))]


class RefSubsystem:
    """`MemorySubsystem.access` lane by lane and sector by sector."""

    def __init__(self, spec, l1_bytes):
        self.spec = spec
        self.model = MemorySubsystem(spec, l1_bytes=l1_bytes)  # _serve only
        self.l1 = RefLru(l1_bytes, 128)
        self.l2 = RefLru(spec.l2_bytes, spec.l2_sector_bytes)

    def access(self, cycle, addresses, width, mask, is_store, bypass_l1):
        lanes = range(LANES) if mask is None else np.flatnonzero(mask)
        words = [int(addresses[lane]) + off for lane in lanes
                 for off in range(0, width, 4)]
        if not words:
            return ("l1", 0, cycle)
        sector = self.spec.l2_sector_bytes
        sectors = sorted({w // sector for w in words})
        lines = sorted({w // 128 for w in words})
        nbytes = len(sectors) * sector
        counters = self.model.counters
        if is_store:
            counters.store_bytes += nbytes
            if not bypass_l1:
                for line in lines:
                    self.l1.insert(line)
            for s in sectors:
                self.l2.insert(s)
            return ("dram", len(sectors),
                    self.model._serve(cycle, nbytes, dram=True))
        if not bypass_l1 and all(self.l1.lookup(line) for line in lines):
            counters.l1_hit_bytes += nbytes
            return ("l1", len(sectors), cycle + self.spec.lds_latency_cycles)
        l2_hit = all(self.l2.lookup(s) for s in sectors)
        for s in sectors:
            self.l2.insert(s)
        if not bypass_l1:
            for line in lines:
                self.l1.insert(line)
        if l2_hit:
            counters.l2_hit_bytes += nbytes
            return ("l2", len(sectors),
                    self.model._serve(cycle, nbytes, dram=False))
        counters.dram_bytes += nbytes
        return ("dram", len(sectors), self.model._serve(cycle, nbytes, dram=True))


# ------------------------------------------------------------ strategies

@st.composite
def lane_patterns(draw):
    """A lane-relative pattern (lane 0 at offset 0)."""
    kind = draw(st.sampled_from(
        ["strided", "permuted", "broadcast", "grouped", "scattered"]))
    if kind == "broadcast":
        rel = np.zeros(LANES, dtype=np.int64)
    elif kind == "scattered":
        rel = np.array(draw(st.lists(st.integers(-512, 2048), min_size=LANES,
                                     max_size=LANES)), dtype=np.int64)
    else:
        stride = draw(st.sampled_from([4, 8, 12, 16, 32, 36, 64, 128, -4, -16]))
        lanes = np.arange(LANES, dtype=np.int64)
        if kind == "grouped":          # 4-lane groups share a word
            lanes = lanes // 4
        rel = lanes * stride
        if kind == "permuted":
            rel = rel[np.array(draw(st.permutations(range(LANES))))]
    return rel - rel[0]


def masks():
    return st.one_of(
        st.none(),
        st.just(np.ones(LANES, dtype=bool)),
        st.lists(st.booleans(), min_size=LANES, max_size=LANES).map(
            lambda bits: np.array(bits, dtype=bool)))


def accesses(bases, count):
    """Lists of (pattern index, base, width, mask) over a few patterns."""
    return st.tuples(
        st.lists(lane_patterns(), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), bases, st.sampled_from(WIDTHS),
                           masks()),
                 min_size=1, max_size=count))


# ---------------------------------------------------------------- gathers

def _outcome(fn):
    try:
        return "ok", fn()
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _same(got, want):
    assert got[0] == want[0]
    if got[0] == "ok":
        np.testing.assert_array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


SIZE = 4096
# Aligned, misaligned, near the end, past the end and negative bases.
GATHER_BASES = st.one_of(
    st.integers(0, SIZE // 16).map(lambda q: 16 * q),
    st.integers(-64, SIZE + 64),
)


@settings(max_examples=150, deadline=None)
@given(memory_cls=st.sampled_from([GlobalMemory, SharedMemory]),
       case=accesses(GATHER_BASES, 40),
       stores=st.lists(st.booleans(), min_size=40, max_size=40))
def test_gathers_and_scatters_match_per_lane_reference(memory_cls, case,
                                                       stores):
    patterns, steps = case
    memory = memory_cls(SIZE)
    rng = np.random.default_rng(len(steps))
    memory._words[:] = rng.integers(0, 1 << 32, SIZE // 4, dtype=np.uint32)
    ref_words = memory._words.copy()
    # Takes every unmasked store through the compiled steps' store_pattern.
    twin = memory_cls(SIZE)
    twin._words[:] = ref_words
    space = memory.space
    for (pattern, base, width, mask), is_store in zip(steps, stores):
        addresses = base + patterns[pattern % len(patterns)]
        if is_store:
            data = rng.integers(0, 1 << 32, (width // 4, LANES),
                                dtype=np.uint32)

            def ref_store():
                idx = ref_word_indices(space, SIZE, addresses, width, mask)
                if mask is None:
                    ref_words[idx] = data
                else:
                    ref_words[idx[:, mask]] = data[:, mask]

            def twin_store():
                if mask is not None:
                    twin.store_warp(addresses, data, width, mask)
                    return None
                return twin.store_pattern(addresses, data, width)

            got = _outcome(lambda: memory.store_warp(addresses, data, width,
                                                     mask))
            twin_got = _outcome(twin_store)
            want = _outcome(ref_store)
            _same(got, want)
            np.testing.assert_array_equal(memory._words, ref_words)
            if mask is None and want[0] == "ok":
                assert twin_got == ("ok", lane_pattern(addresses))
            else:
                _same(twin_got, want)
            np.testing.assert_array_equal(twin._words, ref_words)
        else:
            def ref_load():
                idx = ref_word_indices(space, SIZE, addresses, width, mask)
                if mask is None:
                    return ref_words[idx]
                out = np.zeros((width // 4, LANES), dtype=np.uint32)
                out[:, mask] = ref_words[idx[:, mask]]
                return out

            want = _outcome(ref_load)
            _same(_outcome(lambda: memory.load_warp(addresses, width, mask)),
                  want)
            if mask is None:   # the compiled steps' load
                _same(_outcome(lambda: memory.load_pattern(addresses,
                                                           width)[1]),
                      want)


@settings(max_examples=150, deadline=None)
@given(memory_cls=st.sampled_from([GlobalMemory, SharedMemory]),
       patterns=st.lists(lane_patterns(), min_size=1, max_size=6),
       bases=st.lists(GATHER_BASES, min_size=6, max_size=6),
       width=st.sampled_from(WIDTHS), is_store=st.booleans())
def test_fused_batches_match_per_row_reference(memory_cls, patterns, bases,
                                               width, is_store):
    """A fused run's gather or scatter -- rows at moving, misaligned,
    negative or out-of-bounds bases -- returns the per-row reference's
    data or raises its exception type and text."""
    addresses = np.stack([base + rel for rel, base in zip(patterns, bases)])
    memory = memory_cls(SIZE)
    rng = np.random.default_rng(len(patterns))
    memory._words[:] = rng.integers(0, 1 << 32, SIZE // 4, dtype=np.uint32)
    ref_words = memory._words.copy()
    space = memory.space
    if is_store:
        data = rng.integers(0, 1 << 32, (len(patterns), width // 4, LANES),
                            dtype=np.uint32)

        def ref_store():
            ref_words[ref_batch_indices(space, SIZE, addresses, width)] = data

        _same(_outcome(lambda: memory.store_warp_batch(addresses, data,
                                                       width)),
              _outcome(ref_store))
        np.testing.assert_array_equal(memory._words, ref_words)
    else:
        _same(_outcome(lambda: memory.load_warp_batch(addresses, width)),
              _outcome(lambda: ref_words[ref_batch_indices(
                  space, SIZE, addresses, width)]))


# ------------------------------------------------------------ the L1/L2

SMALL_L2 = {spec.name: dataclasses.replace(spec, l2_bytes=64 * 32)
            for spec in (RTX2070, T4)}
# Non-negative bases (the functional access faults on any other before
# timing sees it), aligned or not, spread over 40 L1 lines.
ACCESS_BASES = st.one_of(st.integers(0, 320).map(lambda q: 16 * q),
                         st.integers(0, 5120))


@settings(max_examples=120, deadline=None)
@given(spec_name=st.sampled_from(sorted(SMALL_L2)),
       case=accesses(ACCESS_BASES, 60),
       kinds=st.lists(st.tuples(st.booleans(), st.booleans()),
                      min_size=60, max_size=60),
       gaps=st.lists(st.integers(0, 400), min_size=60, max_size=60))
def test_access_matches_per_sector_reference(spec_name, case, kinds, gaps):
    spec = SMALL_L2[spec_name]
    patterns, steps = case
    # Patterns may reach below their base; keep every address >= 0.
    low = min(int(p.min()) for p in patterns)
    memsys = MemorySubsystem(spec, l1_bytes=6 * 128)
    ref = RefSubsystem(spec, l1_bytes=6 * 128)
    cycle = 0
    for (pattern, base, width, mask), (is_store, bypass), gap in zip(
            steps, kinds, gaps):
        cycle += gap
        addresses = base - low + patterns[pattern % len(patterns)]
        got = memsys.access(cycle, addresses, width, mask,
                            is_store=is_store, bypass_l1=bypass)
        want = ref.access(cycle, addresses, width, mask, is_store, bypass)
        assert (got.level, got.sectors, got.ready_cycle) == want
        assert memsys.counters == ref.model.counters
        assert list(memsys.l1._lines) == list(ref.l1.lines)
        assert list(memsys.l2._lines) == list(ref.l2.lines)
