"""Tests for the device-level performance model (drives Figs. 4-9).

The model's SM profiles come from real timing-simulator runs, so this
module is the slowest test file; profiles are cached per model instance
and the module shares models through fixtures.
"""

import pytest

from repro.analysis import PerformanceModel, perf_model
from repro.arch import RTX2070, T4
from repro.core import cublas_like, ours


@pytest.fixture(scope="module")
def pm2070():
    return PerformanceModel(RTX2070)


@pytest.fixture(scope="module")
def pm_t4():
    return PerformanceModel(T4)


class TestSmProfile:
    def test_ours_profile_near_table6(self, pm2070):
        profile = pm2070.sm_profile(ours())
        # Table VI: 4126 HMMA-bound cycles/iteration; the generated
        # schedule lands within ~10% of that analytic floor.
        assert profile.marginal_cycles == pytest.approx(4126, rel=0.10)
        assert profile.fixed_cycles > 0
        assert profile.ctas_per_sm == 1

    def test_cublas_profile_near_memory_floor(self, pm2070):
        profile = pm2070.sm_profile(cublas_like())
        # Memory-IO bound: 2741 cycles per CTA-iteration (Eq. 4+5 with
        # b_k = 64), two CTAs resident.
        assert profile.ctas_per_sm == 2
        per_cta = profile.marginal_cycles / 2
        assert per_cta == pytest.approx(2741, rel=0.10)

    def test_profiles_cached(self, pm2070):
        p1 = pm2070.sm_profile(ours())
        p2 = pm2070.sm_profile(ours())
        assert p1 is p2


class TestWaveWindow:
    def test_row_order_fills_columns_first(self):
        rows, cols = PerformanceModel.wave_window(ours(), 64, 64, 36)
        assert (rows, cols) == (1, 36)

    def test_row_order_wraps(self):
        rows, cols = PerformanceModel.wave_window(ours(), 8, 64, 36)
        assert cols == 8
        assert rows == 5  # ceil(36/8)

    def test_supertile_window_square_ish(self):
        cfg = ours(cta_order="supertile", supertile_width=8)
        rows, cols = PerformanceModel.wave_window(cfg, 64, 64, 36)
        assert cols == 8
        assert rows == 5
        # Much better reuse shape than (1, 36).

    def test_window_capped_by_grid(self):
        rows, cols = PerformanceModel.wave_window(ours(), 2, 2, 36)
        assert rows <= 2 and cols <= 2

    def test_empty(self):
        assert PerformanceModel.wave_window(ours(), 4, 4, 0) == (0, 0)


class TestEstimates:
    def test_ours_plateau_near_paper_rtx2070(self, pm2070):
        est = pm2070.estimate(ours(), 8192, 8192, 8192)
        # Paper Fig. 6: ours sustains ~55-60 TFLOPS at large sizes.
        assert 48 <= est.tflops <= 60
        assert est.bound == "compute"

    def test_ours_dram_bound_on_t4(self, pm_t4):
        est = pm_t4.estimate(ours(), 13312, 13312, 13312)
        # Paper Fig. 7 / Section VII-C: T4 is DRAM-bound around 50 TFLOPS.
        assert est.bound == "dram"
        assert 42 <= est.tflops <= 52

    def test_cublas_cliff_at_12032(self, pm2070):
        before = pm2070.estimate(cublas_like(), 11776, 11776, 11776,
                                 baseline_quirks=True)
        after = pm2070.estimate(cublas_like(), 12032, 12032, 12032,
                                baseline_quirks=True)
        assert not before.cliff_active
        assert after.cliff_active
        assert after.tflops < 0.75 * before.tflops  # the sharp drop

    def test_no_cliff_without_quirks(self, pm2070):
        est = pm2070.estimate(cublas_like(), 12032, 12032, 12032)
        assert not est.cliff_active

    def test_no_cliff_on_t4(self, pm_t4):
        # Paper Fig. 7 shows no sharp drop on T4.
        est = pm_t4.estimate(cublas_like(), 12032, 12032, 12032,
                             baseline_quirks=True)
        assert not est.cliff_active

    def test_small_matrices_underutilize(self, pm2070):
        small = pm2070.estimate(ours(), 1024, 1024, 1024)
        large = pm2070.estimate(ours(), 8192, 8192, 8192)
        assert small.tflops < 0.6 * large.tflops

    def test_ours_beats_cublas_at_large_sizes(self, pm2070):
        o = pm2070.estimate(ours(), 16128, 16128, 16128)
        c = pm2070.estimate(cublas_like(), 16128, 16128, 16128,
                            baseline_quirks=True)
        assert o.tflops / c.tflops > 1.8  # paper: up to 2.7x

    def test_seconds_positive_and_consistent(self, pm2070):
        est = pm2070.estimate(ours(), 4096, 4096, 4096)
        flops = 2 * 4096 ** 3
        assert est.seconds > 0
        assert est.tflops == pytest.approx(flops / est.seconds / 1e12)

    def test_sweep_shapes(self, pm2070):
        ests = pm2070.sweep(ours(), [1024, 2048], shape=(2, 1, 1))
        assert [(e.m, e.n, e.k) for e in ests] == [(2048, 1024, 1024),
                                                   (4096, 2048, 2048)]


class TestOptions:
    """The wave model's calibration constants move its estimates the way
    DESIGN.md §5 says."""

    def test_zero_reuse_hurts(self, pm2070, monkeypatch):
        base = pm2070.estimate(ours(), 8192, 8192, 8192)
        monkeypatch.setattr(perf_model, "L2_REUSE_ETA", 0.0)
        worse = pm2070.estimate(ours(), 8192, 8192, 8192)
        assert worse.tflops < base.tflops

    def test_drift_reduces_reuse(self, pm2070):
        eta_short = pm2070._reuse_efficiency(iters=64)
        eta_long = pm2070._reuse_efficiency(iters=4096)
        assert eta_long < eta_short

    def test_infeasible_config_raises(self, pm2070):
        cfg = ours(smem_pad_halves=64)  # 64 KB + padding won't fit
        with pytest.raises(Exception):
            pm2070.estimate(cfg, 4096, 4096, 4096)
