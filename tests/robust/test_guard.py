"""Divergence-watchdog tests.

The centrepiece is the watchdog demo: a chaos-injected bit flip plays the
role of a fast-engine bug, and the guard must catch it, write a reproducer
bundle, degrade the engine ladder, and *still complete the run with the
correct numbers* (asserted against the NumPy oracle / the reference
engine's own output).
"""

import json

import numpy as np
import pytest

from repro.arch import RTX2070
from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import ours
from repro.core.hgemm import hgemm, hgemm_reference
from repro.perf.stats import STATS
from repro.robust import chaos, guard
from repro.sim.memory import GlobalMemory
from repro.sim.timing import TimingSimulator


@pytest.fixture(autouse=True)
def clean(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_GUARD", raising=False)
    monkeypatch.delenv("REPRO_GUARD_BUDGET", raising=False)
    guard.reset()
    chaos.reset()
    STATS.reset()
    yield
    guard.reset()
    chaos.reset()


def _operands(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((64, 16), dtype=np.float32).astype(np.float16)
    b = rng.standard_normal((16, 64), dtype=np.float32).astype(np.float16)
    return a, b


def _timing_run():
    config = ours()
    problem = HgemmProblem(m=config.b_m, n=config.b_n, k=32,
                           a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
    program = build_hgemm(config, problem, RTX2070)
    return TimingSimulator(RTX2070).run(program, GlobalMemory(16 << 20),
                                        num_ctas=1)


class TestModeResolution:
    def test_default_off(self):
        assert guard.guard_mode() == "off"

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "sample")
        assert guard.guard_mode() == "sample"
        assert guard.guard_mode("full") == "full"  # override wins
        assert guard.guard_mode("off") == "off"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "sometimes")
        with pytest.raises(ValueError, match="guard mode"):
            guard.guard_mode()

    @pytest.mark.parametrize("budget", ["five", "-0.1", "1.5", "nan"])
    def test_invalid_budget_rejected(self, monkeypatch, budget):
        monkeypatch.setenv("REPRO_GUARD", "sample")
        monkeypatch.setenv("REPRO_GUARD_BUDGET", budget)
        with pytest.raises(ValueError, match="REPRO_GUARD_BUDGET"):
            guard.guard_mode()
        # A guarded run fails before it simulates anything.
        with pytest.raises(ValueError, match="REPRO_GUARD_BUDGET"):
            _timing_run()
        assert "sim.runs" not in STATS.counters
        # The budget only matters while guarding.
        assert guard.guard_mode("off") == "off"
        monkeypatch.setenv("REPRO_GUARD_BUDGET", "0")
        assert guard.guard_mode() == "sample"


class TestLadders:
    def test_monotone_functional_degradation(self):
        assert guard.effective_func_engine("lockstep") == "lockstep"
        assert guard.effective_func_engine("reference") == "reference"
        assert guard.degradation_report()["func_engine_floor"] == "lockstep"
        guard._degrade("functional")
        assert guard.effective_func_engine("lockstep") == "reference"
        assert guard.effective_func_engine("reference") == "reference"
        assert guard.degradation_report()["func_engine_floor"] == "reference"
        # The ladder never resets upward on its own, and a functional
        # degradation leaves the timing rung alone.
        guard._degrade("functional")
        assert guard.effective_func_engine("lockstep") == "reference"
        assert guard.effective_timing_engine("event") == "event"

    def test_timing_one_rung_degradation(self):
        assert guard.effective_timing_engine("event") == "event"
        assert guard.degradation_report()["timing_engine_floor"] == "event"
        guard._degrade("timing")
        assert guard.effective_timing_engine("event") == "reference"
        assert guard.effective_timing_engine("reference") == "reference"
        assert guard.degradation_report()["timing_engine_floor"] \
            == "reference"
        # Monotone, and the functional rung is left alone.
        guard._degrade("timing")
        assert guard.effective_timing_engine("event") == "reference"
        assert guard.effective_func_engine("lockstep") == "lockstep"


class TestBudgetSampler:
    def test_full_always_checks(self):
        assert guard._decide("full", run_wall=100.0)

    def test_sample_checks_until_budget_spent(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD_BUDGET", "0.05")
        # A fresh process cannot yet afford a reference re-run (estimated
        # at ~4x the run wall, against a 5% budget): no check.
        assert not guard._decide("sample", run_wall=1.0)
        # Enough accumulated fast wall buys the first check.
        guard._state["total_wall"] = 100.0
        assert guard._decide("sample", run_wall=1.0)
        # Once checks have eaten the budget, sampling stops...
        guard._state["guard_wall"] = 10.0
        assert not guard._decide("sample", run_wall=1.0)
        # ...and frees up again as cheap fast runs accumulate.
        guard._state["total_wall"] = 1000.0
        assert guard._decide("sample", run_wall=1.0)


class TestFunctionalWatchdog:
    def test_divergence_healed_bundle_written_ladder_degraded(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GUARD", "full")
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:1")
        a, b = _operands()
        out = hgemm(a, b)
        # 1. The run completed with the *correct* numbers.
        assert np.array_equal(out, hgemm_reference(a, b))
        # 2. The watchdog saw and counted the divergence.
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        assert STATS.counters.get("guard.degraded") == 1
        # 3. The process degraded its one rung (lockstep -> reference).
        report = guard.degradation_report()
        assert report["func_engine_floor"] == "reference"
        assert report["bundles_written"] == 1
        # 4. A replayable reproducer bundle exists.
        bundles = list((tmp_path / "divergence").iterdir())
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle.name.startswith("functional-")
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["kind"] == "functional"
        assert meta["digests"]["memory_fast"] != meta["digests"]["memory_reference"]
        assert (bundle / "program.bin").stat().st_size > 0
        pre = np.load(bundle / "memory_pre.npz")["words"]
        assert pre.dtype == np.uint32 and pre.size > 0

    def test_clean_run_checks_without_degrading(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        a, b = _operands(1)
        out = hgemm(a, b)
        assert np.array_equal(out, hgemm_reference(a, b))
        assert STATS.counters.get("guard.checks") == 1
        assert "guard.divergences" not in STATS.counters
        assert guard.degradation_report()["func_engine_floor"] == "lockstep"

    def test_guard_off_param_overrides_env(self, monkeypatch):
        from repro.sim.functional import FunctionalSimulator

        monkeypatch.setenv("REPRO_GUARD", "full")
        config = ours()
        problem = HgemmProblem(m=config.b_m, n=config.b_n, k=32,
                               a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
        FunctionalSimulator(guard="off").run(
            build_hgemm(config, problem, RTX2070), GlobalMemory(16 << 20))
        assert "guard.checks" not in STATS.counters

    def test_degraded_engine_actually_used(self, monkeypatch):
        # After a functional degradation the floor is the reference
        # engine; runs still work and are no longer guarded (guarding the
        # ground truth would be circular).
        monkeypatch.setenv("REPRO_GUARD", "full")
        guard._degrade("functional")
        a, b = _operands(3)
        out = hgemm(a, b)
        assert np.array_equal(out, hgemm_reference(a, b))
        assert "guard.checks" not in STATS.counters


class TestTimingWatchdog:
    def test_divergence_degrades_to_reference_floor(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_GUARD", "full")
        monkeypatch.setenv("REPRO_CHAOS", "flip_output:2")
        r1 = _timing_run()
        assert guard.degradation_report()["timing_engine_floor"] \
            == "reference"
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        assert STATS.counters.get("guard.degraded") == 1
        # The next run is on the reference floor and unguarded, so the
        # second armed flip never fires; the healed first result already
        # reported the reference numbers.
        r2 = _timing_run()
        assert r1 == r2
        assert STATS.counters.get("guard.checks") == 1
        assert STATS.counters.get("guard.divergences") == 1
        bundles = sorted(p.name for p in (tmp_path / "divergence").iterdir())
        assert len(bundles) == 1
        assert bundles[0].startswith("timing-")

    def test_clean_timing_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "full")
        r = _timing_run()
        assert r.cycles > 0
        assert STATS.counters.get("guard.checks") == 1
        assert "guard.divergences" not in STATS.counters
        assert guard.effective_timing_engine("event") == "event"
