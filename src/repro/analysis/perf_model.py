"""Device-level performance model: per-SM cycle profiles + memory ceilings.

The paper's evaluation (Figs. 4-9) runs kernels on a whole GPU.  Simulating
4096 CTAs cycle-by-cycle is pointless -- every full wave is statistically
identical -- so the model composes:

1. **Per-SM compute profile** (measured, not modelled): the timing simulator
   runs one SM with the kernel's actual occupancy (CTAs/SM co-resident) at
   two k depths; the difference isolates the marginal cycles per k-iteration
   and the fixed prologue/epilogue cost.  Bank conflicts, STS interleave
   quality, prefetch bubbles -- everything the paper tunes -- lands in this
   number.

2. **Wave model**: the grid executes in waves of ``num_sms * ctas_per_sm``
   concurrent CTAs.  Per k-iteration each wave moves a predictable number of
   bytes; the wave's wall time is the max of the compute profile, the L2
   service time, and the DRAM service time (a roofline across three
   ceilings, paper Section VI-A).

3. **L2 reuse**: concurrent CTAs that share an A-tile row or B-tile column
   can hit in L2 instead of DRAM.  The launch order determines the window's
   shape (row-major vs supertile-swizzled); CTAs drift out of lockstep over
   long k, eroding the sharing (``drift``).

4. **Baseline quirk**: cuBLAS 10.1 on the RTX 2070 shows a sharp drop at
   n >= 12032 (paper Fig. 6: "we suspect that the L2 cache blocking
   strategy of cuBLAS fails at that size").  We reproduce it as an explicit,
   documented quirk -- when one C tile-row exceeds ~72% of L2, the
   baseline's inter-CTA reuse collapses.  The paper's T4 data (Fig. 7)
   shows no cliff, so the quirk is keyed to the device.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..arch.turing import GpuSpec
from ..core.builder import HgemmProblem, build_hgemm
from ..core.config import KernelConfig, adapt_for_arch
from ..isa.encoding import encode_program
from ..perf.cache import PROFILE_CACHE, SIM_VERSION, content_key
from ..perf.parallel import parallel_map
from ..sim.memory import GlobalMemory
from ..sim.timing import TimingSimulator

__all__ = ["SmProfile", "LaunchEstimate", "PerformanceModel"]

#: Global-memory footprint used for profile runs (fresh, zero-filled).
_PROFILE_MEM_BYTES = 16 << 20

# The wave/L2 model's calibration (DESIGN.md §5).  No microbenchmark
# measures these; each is one value every figure is drawn with.

#: Fraction of *potential* inter-CTA tile sharing served by L2 when CTAs
#: are roughly in lockstep.
L2_REUSE_ETA = 0.8
#: Lockstep erosion: reuse efficiency loses up to ``DRIFT_MAX`` as the
#: iteration count approaches ``DRIFT_SPAN`` (long-k runs drift apart).
DRIFT_SPAN = 4096.0
DRIFT_MAX = 0.3
#: cuBLAS-10.1 quirk: reuse collapses when n*b_m*2 > fraction * L2, on
#: the devices named (the paper's T4 data, Fig. 7, shows no cliff).
CLIFF_L2_FRACTION = 0.72
CLIFF_DEVICES = ("RTX2070",)
#: The two k-depths (lo, hi) the SM profile is measured at; every
#: SM-profile cache key hashes them.
PROFILE_ITERS = (2, 6)


@dataclass(frozen=True)
class SmProfile:
    """Measured per-SM cost of one kernel configuration."""

    marginal_cycles: float   # wall cycles per k-iteration (all resident CTAs)
    fixed_cycles: float      # prologue + pipeline fill + epilogue
    ctas_per_sm: int


@dataclass
class LaunchEstimate:
    """Predicted execution of one HGEMM launch on the whole device."""

    m: int
    n: int
    k: int
    seconds: float
    tflops: float
    bound: str                 # "compute", "dram" or "l2"
    waves: int
    concurrent_ctas: int
    wave_rows: int
    wave_cols: int
    dram_bytes_per_iter: float
    l2_bytes_per_iter: float
    compute_time_per_iter: float
    dram_time_per_iter: float
    l2_time_per_iter: float
    cliff_active: bool = False


class PerformanceModel:
    """Estimates whole-device HGEMM performance for one GPU."""

    def __init__(self, spec: GpuSpec):
        self.spec = spec
        self._profiles: dict = {}

    # --------------------------------------------------------- SM profiling

    def sm_profile(self, config: KernelConfig) -> SmProfile:
        """Measure (and cache) the per-SM cycle profile of *config*.

        Three cache layers, cheapest first: the per-instance ``_profiles``
        dict (preserves object identity within one model), then the shared
        :data:`~repro.perf.cache.PROFILE_CACHE` keyed on the *profile*
        (spec + config + iters -- a hit skips even program construction),
        then a run-level entry keyed on the encoded program bytes.  The
        simulator is deterministic, so every layer returns exactly the
        numbers a fresh simulation would produce.

        The config is first adapted to the device's Tensor Core
        generation (:func:`adapt_for_arch`); on Turing this is the
        identity, so existing cache keys are untouched.
        """
        config = adapt_for_arch(config, self.spec.arch)
        key = config
        if key in self._profiles:
            return self._profiles[key]
        ctas_per_sm = self.ctas_per_sm(config)
        lo, hi = PROFILE_ITERS
        profile_key = content_key(b"sm-profile", SIM_VERSION, self.spec,
                                  config, (lo, hi), ctas_per_sm)
        cached = PROFILE_CACHE.get(profile_key)
        if cached is not None:
            profile = SmProfile(**cached)
            self._profiles[key] = profile
            return profile
        cycles = {iters: self._profile_leg_cycles(config, iters, ctas_per_sm)
                  for iters in (lo, hi)}
        marginal = (cycles[hi] - cycles[lo]) / (hi - lo)
        fixed = max(0.0, cycles[lo] - lo * marginal)
        profile = SmProfile(marginal_cycles=marginal, fixed_cycles=fixed,
                            ctas_per_sm=ctas_per_sm)
        PROFILE_CACHE.put(profile_key, asdict(profile))
        self._profiles[key] = profile
        return profile

    def _profile_leg_cycles(self, config: KernelConfig, iters: int,
                            ctas_per_sm: int) -> int:
        """Simulated cycles of one profile leg, via the run-level cache.

        The key hashes the encoded program image itself, so any change to
        the kernel builder or the ISA encoding naturally invalidates it.
        """
        problem = HgemmProblem(
            m=config.b_m, n=config.b_n, k=iters * config.b_k,
            a_addr=0, b_addr=4 << 20, c_addr=8 << 20,
        )
        program = build_hgemm(config, problem, self.spec)
        run_key = content_key(b"timing-run", SIM_VERSION,
                              encode_program(program), self.spec,
                              ctas_per_sm, _PROFILE_MEM_BYTES, 1.0)
        cached = PROFILE_CACHE.get(run_key)
        if cached is not None:
            return cached["cycles"]
        sim = TimingSimulator(self.spec, bandwidth_share=1.0)
        # A leg touches a few tiles of its 16 MiB: fresh mapped pages keep
        # resident only those, however malloc placed earlier legs.
        result = sim.run(program, GlobalMemory(_PROFILE_MEM_BYTES, mapped=True),
                         num_ctas=ctas_per_sm)
        PROFILE_CACHE.put(run_key, {"cycles": result.cycles})
        return result.cycles

    def profile_many(self, configs, max_workers=None) -> list:
        """SM profiles for several configs, optionally across processes.

        ``max_workers`` follows :func:`repro.perf.parallel.parallel_map`
        semantics (None/1 serial, 0 auto, n capped).  Worker processes
        return their profiles directly (and also populate the shared disk
        cache when it is enabled), so parallelism never re-simulates in the
        parent and works even under ``REPRO_NO_CACHE=1``.
        """
        configs = [adapt_for_arch(c, self.spec.arch) for c in configs]
        todo = [c for c in configs if c not in self._profiles]
        if len(todo) > 1 and max_workers is not None and max_workers != 1:
            profiles = parallel_map(
                _profile_worker,
                [(self.spec, c) for c in todo],
                max_workers=max_workers,
            )
            for config, profile in zip(todo, profiles):
                self._profiles[config] = SmProfile(**profile)
        return [self.sm_profile(c) for c in configs]

    def ctas_per_sm(self, config: KernelConfig) -> int:
        occ = self.spec.ctas_per_sm(
            regs_per_thread=config.regs_per_thread,
            smem_per_cta=config.smem_bytes,
            threads_per_cta=config.threads_per_cta,
        )
        if occ < 1:
            raise ValueError(
                f"config {config.name!r} cannot launch on {self.spec.name}"
            )
        return occ

    # ---------------------------------------------------------- wave model

    @staticmethod
    def wave_window(config: KernelConfig, grid_x: int, grid_y: int,
                    concurrent: int) -> tuple:
        """(rows, cols) of distinct C tiles covered by one wave.

        Row-major order fills columns first; the supertile order walks
        ``supertile_width`` columns down all rows before moving right,
        keeping the window roughly square (L2-friendlier).
        """
        total = grid_x * grid_y
        concurrent = min(concurrent, total)
        if concurrent == 0:
            return (0, 0)
        if config.cta_order == "supertile":
            width = min(config.supertile_width, grid_x)
            rows = min(grid_y, math.ceil(concurrent / width))
            cols = min(grid_x, max(width, math.ceil(concurrent / grid_y)))
        else:
            cols = min(grid_x, concurrent)
            rows = min(grid_y, math.ceil(concurrent / grid_x))
        return rows, cols

    @staticmethod
    def _reuse_efficiency(iters: int) -> float:
        drift = min(DRIFT_MAX, DRIFT_MAX * iters / DRIFT_SPAN)
        return L2_REUSE_ETA * (1.0 - drift)

    def _cliff_active(self, config: KernelConfig, n: int,
                      baseline_quirks: bool) -> bool:
        if not baseline_quirks:
            return False
        if self.spec.name not in CLIFF_DEVICES:
            return False
        c_row_bytes = n * config.b_m * 2
        return c_row_bytes > CLIFF_L2_FRACTION * self.spec.l2_bytes

    # ----------------------------------------------------------- estimates

    def estimate(self, config: KernelConfig, m: int, n: int, k: int,
                 baseline_quirks: bool = False) -> LaunchEstimate:
        """Predict the launch: seconds and TFLOPS for ``C[m,n] = A @ B``.

        ``baseline_quirks`` enables the cuBLAS-10.1 behavioural quirks
        (the RTX 2070 L2-blocking cliff); use it only for the baseline.
        """
        spec = self.spec
        config = adapt_for_arch(config, spec.arch)
        profile = self.sm_profile(config)
        grid_x, grid_y = config.grid_dim(m, n)
        total_ctas = grid_x * grid_y
        concurrent = spec.num_sms * profile.ctas_per_sm
        iters = k // config.b_k

        cliff = self._cliff_active(config, n, baseline_quirks)
        eta = 0.0 if cliff else self._reuse_efficiency(iters)

        clock = spec.clock_ghz * 1e9
        compute_iter = profile.marginal_cycles / clock
        fixed_time = profile.fixed_cycles / clock

        tile_bytes = ((config.b_m + config.b_n) * config.b_k
                      * config.ab_element_bytes)
        epilogue_bytes_per_cta = config.b_m * config.b_n * config.c_element_bytes

        def wave_time(wave_ctas: int) -> tuple:
            rows, cols = self.wave_window(config, grid_x, grid_y, wave_ctas)
            l2_bytes = wave_ctas * tile_bytes
            shared_bytes = (rows * config.b_m + cols * config.b_n) * config.b_k * 2
            dram_bytes = l2_bytes - eta * max(0.0, l2_bytes - shared_bytes)
            # C is written once per CTA; spread its DRAM traffic over k.
            dram_bytes += wave_ctas * epilogue_bytes_per_cta / max(1, iters)
            dram_t = dram_bytes / (spec.dram_measured_gbps * 1e9)
            l2_t = l2_bytes / (spec.l2_measured_gbps * 1e9)
            t = max(compute_iter, dram_t, l2_t)
            if t == compute_iter:
                bound = "compute"
            elif t == dram_t:
                bound = "dram"
            else:
                bound = "l2"
            return t, bound, rows, cols, dram_bytes, l2_bytes, dram_t, l2_t

        full_waves, remainder = divmod(total_ctas, concurrent)
        seconds = spec.kernel_launch_overhead_us * 1e-6
        t_full = bound = rows = cols = None
        dram_b = l2_b = dram_t = l2_t = 0.0
        if full_waves:
            t_full, bound, rows, cols, dram_b, l2_b, dram_t, l2_t = wave_time(concurrent)
            seconds += full_waves * (fixed_time + iters * t_full)
        if remainder:
            t_part, bound_p, rows_p, cols_p, dram_bp, l2_bp, dram_tp, l2_tp = wave_time(remainder)
            seconds += fixed_time + iters * t_part
            if t_full is None:
                bound, rows, cols = bound_p, rows_p, cols_p
                dram_b, l2_b, dram_t, l2_t = dram_bp, l2_bp, dram_tp, l2_tp
                t_full = t_part

        flops = 2 * m * n * k
        return LaunchEstimate(
            m=m, n=n, k=k,
            seconds=seconds,
            tflops=flops / seconds / 1e12,
            bound=bound,
            waves=full_waves + (1 if remainder else 0),
            concurrent_ctas=concurrent,
            wave_rows=rows, wave_cols=cols,
            dram_bytes_per_iter=dram_b,
            l2_bytes_per_iter=l2_b,
            compute_time_per_iter=compute_iter,
            dram_time_per_iter=dram_t,
            l2_time_per_iter=l2_t,
            cliff_active=cliff,
        )

    def sweep(self, config: KernelConfig, sizes, shape=(1, 1, 1),
              baseline_quirks: bool = False) -> list:
        """Estimate a size sweep; ``shape`` scales (m, n, k) from W (the
        paper's [aW x bW x cW] rectangular series).

        The sizes share one SM profile, measured by the first estimate;
        the rest is arithmetic, which costs less than starting a worker.
        """
        config = adapt_for_arch(config, self.spec.arch)
        out = []
        for w in sizes:
            m, n, k = (s * w for s in shape)
            out.append(self.estimate(config, m, n, k,
                                     baseline_quirks=baseline_quirks))
        return out


# A module-level worker function: ``ProcessPoolExecutor`` requires a
# picklable callable, and the payload (GpuSpec, KernelConfig) pickles.

def _profile_worker(payload) -> dict:
    spec, config = payload
    return asdict(PerformanceModel(spec).sm_profile(config))
