"""Tables I-V pinned bit for bit: every probe's cycles and traffic.

The per-table tests (``test_cpi_bench.py``, ``test_memband_bench.py``)
check the paper's figures within a few percent, and ``repro tables``
prints two decimals, so a probe that drifted by a few cycles would fail
neither.  These goldens pin each microbenchmark's measured cycles, the
Table II probes' bytes moved, and the memory traffic counters of the
run behind every probe, on both timing engines.  A deliberate
timing-model change updates them and bumps ``SIM_VERSION``.
"""

import pytest

from repro.arch import RTX2070, T4
from repro.bench import (
    measure_dram_bandwidth,
    measure_hmma_cpi,
    measure_l2_bandwidth,
    measure_ldg_cpi,
    measure_lds_cpi,
    measure_sts_cpi,
)
from repro.sim.timing import ENGINES, TimingSimulator

#: probe -> (measurement, cycles, bytes moved or None, traffic counters as
#: (l1_hit_bytes, l2_hit_bytes, dram_bytes, store_bytes)).
GOLDEN = {
    "hmma": (lambda: measure_hmma_cpi(RTX2070), 16482, None, (0, 0, 0, 256)),
    "rtx2070-dram": (lambda: measure_dram_bandwidth(RTX2070), 483112,
                     3145728, (0, 0, 3145728, 0)),
    "rtx2070-l2": (lambda: measure_l2_bandwidth(RTX2070), 238344,
                   3014656, (0, 3014656, 131072, 0)),
    "t4-dram": (lambda: measure_dram_bandwidth(T4), 840949,
                3145728, (0, 0, 3145728, 0)),
    "t4-l2": (lambda: measure_l2_bandwidth(T4), 214627,
              3014656, (0, 3014656, 131072, 0)),
}
# LDG traffic: the first load misses to DRAM, the other 1,071 hit L1 (or,
# with .CG, L2); the two clock stores write 128 bytes each.
for _width, _l1, _l2, _lds, _sts, _hit, _cold in (
        (32, 4143, 4296, 2167, 4164, 137088, 128),
        (64, 4143, 8587, 4102, 6150, 274176, 256),
        (128, 8198, 16339, 8198, 10246, 548352, 512)):
    GOLDEN[f"ldg-l1-{_width}"] = (
        lambda w=_width: measure_ldg_cpi(RTX2070, w, level="l1"), _l1, None,
        (_hit, 0, _cold, 256))
    GOLDEN[f"ldg-l2-{_width}"] = (
        lambda w=_width: measure_ldg_cpi(RTX2070, w, level="l2"), _l2, None,
        (0, _hit, _cold, 256))
    GOLDEN[f"lds-{_width}"] = (
        lambda w=_width: measure_lds_cpi(RTX2070, w), _lds, None,
        (0, 0, 0, 256))
    GOLDEN[f"sts-{_width}"] = (
        lambda w=_width: measure_sts_cpi(RTX2070, w), _sts, None,
        (0, 0, 0, 256))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("probe", sorted(GOLDEN))
def test_table_probe_is_pinned(probe, engine, monkeypatch):
    measure, cycles, bytes_moved, traffic = GOLDEN[probe]
    monkeypatch.setenv("REPRO_TIMING_ENGINE", engine)
    runs = []
    run = TimingSimulator.run

    def recorded(self, *args, **kwargs):
        runs.append(run(self, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(TimingSimulator, "run", recorded)
    result = measure()
    assert result.cycles == cycles
    if bytes_moved is not None:
        assert result.bytes_moved == bytes_moved
    counters = runs[-1].traffic   # the probe's run (a watchdog rerun is inner)
    assert (counters.l1_hit_bytes, counters.l2_hit_bytes,
            counters.dram_bytes, counters.store_bytes) == traffic
