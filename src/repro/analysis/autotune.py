"""Autotuner: the paper's last future-work item, "automatic tools to
simplify programming while achieving near to peak performance".

Two stages, mirroring how the paper's authors worked by hand:

1. **Analytical pruning** -- enumerate the feasible configuration space
   (CTA tiles, warp tiles, b_k, layout) and rank it with the closed-form
   pipe model (Eqs. 3-5) plus the roofline: exactly the paper's Table VI
   reasoning, in a loop.
2. **Simulation ranking** -- run the top candidates' generated kernels
   through the cycle-level simulator + wave model and pick the winner for
   the requested problem shape.

Candidates the builder cannot realise (register pressure, odd pipelines)
are skipped with their reason recorded -- infeasibility is data here, as
it is in the paper's Section VI-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.turing import GpuSpec
from ..core.blocking import min_hmma_between_sts, pipe_cycles
from ..core.builder import RegisterPlan
from ..core.config import ConfigError, KernelConfig
from .perf_model import PerformanceModel

__all__ = ["Candidate", "TuneResult", "candidate_space", "autotune"]


@dataclass
class Candidate:
    """One configuration's journey through the tuner."""

    config: KernelConfig
    analytic_score: float = 0.0      # predicted TFLOPS from stage 1
    simulated_tflops: float = None   # stage 2, for finalists only
    rejected: str = ""               # infeasibility reason, if any


@dataclass
class TuneResult:
    """Outcome of one autotuning run."""

    best: KernelConfig
    best_tflops: float
    candidates: list = field(default_factory=list)

    @property
    def feasible(self) -> list:
        return [c for c in self.candidates if not c.rejected]

    def summary(self) -> str:
        lines = [f"best: {self.best.describe()} "
                 f"-> {self.best_tflops:.1f} TFLOPS"]
        for cand in sorted(self.candidates,
                           key=lambda c: -(c.simulated_tflops
                                           or c.analytic_score)):
            tag = (f"{cand.simulated_tflops:.1f} TFLOPS (simulated)"
                   if cand.simulated_tflops is not None
                   else f"{cand.analytic_score:.1f} TFLOPS (analytic)"
                   if not cand.rejected else f"rejected: {cand.rejected}")
            lines.append(f"  {cand.config.name:<18s} {tag}")
        return "\n".join(lines)


def candidate_space(spec: GpuSpec, accum_f32: bool = False) -> list:
    """Enumerate feasible kernel configurations for *spec*.

    The warp k-step is the device generation's native HMMA k (8 on
    Volta/Turing, 16 on Ampere); the swizzled layout is only proposed
    where a k-slice is one 16-byte chunk (the swizzle's invariant).
    """
    arch = spec.arch
    sts = min_hmma_between_sts(spec)
    w_k = arch.hmma_k
    out = []
    for b_m in (64, 128, 256):
        for b_n in (64, 128, 256):
            for b_k in (32, 64):
                for w_m, w_n in ((32, 32), (64, 64), (128, 64)):
                    if b_m % w_m or b_n % w_n:
                        continue
                    slices = b_k // w_k
                    if slices < 2 or slices % 2:
                        continue
                    layouts = [dict(smem_pad_halves=8)]
                    if b_k == 64 and w_k * 2 == 16:
                        layouts.append(dict(smem_pad_halves=0,
                                            smem_swizzle=True))
                    for layout in layouts:
                        name = (f"{b_m}x{b_n}x{b_k}/{w_m}x{w_n}"
                                + ("s" if layout.get("smem_swizzle") else ""))
                        try:
                            cfg = KernelConfig(
                                b_m=b_m, b_n=b_n, b_k=b_k,
                                w_m=w_m, w_n=w_n, w_k=w_k,
                                sts_interleave=sts, accum_f32=accum_f32,
                                name=name, **layout,
                            )
                        except ConfigError:
                            continue
                        out.append(cfg)
    return out


def _check_feasible(config: KernelConfig, spec: GpuSpec) -> str:
    """Empty string if buildable on *spec*, else the rejection reason."""
    try:
        config.validate_against(spec)
        RegisterPlan.for_config(config, config.threads_per_cta, spec.arch)
    except ConfigError as exc:
        return str(exc).split(" (")[0]
    return ""


def _analytic_tflops(config: KernelConfig, spec: GpuSpec) -> float:
    """Stage-1 score: min(pipe-limited, optimistic-DRAM) TFLOPS.

    The DRAM bound is doubled relative to the raw CTA-intensity roofline:
    concurrent CTAs in a wave share operand tiles through L2, so the raw
    roofline is too pessimistic and would prune reuse-friendly finalists
    that stage 2 should judge.
    """
    cycles = pipe_cycles(config, spec)
    flops_per_iter = 2 * config.b_m * config.b_n * config.b_k
    bottleneck = max(cycles.hmma, cycles.memory_io)
    per_sm = flops_per_iter / bottleneck * spec.clock_ghz / 1e3
    compute = per_sm * spec.num_sms
    dram_roof = 2 * config.compute_intensity * spec.dram_measured_gbps / 1e3
    return min(compute, dram_roof)


def autotune(spec: GpuSpec, m: int, n: int, k: int,
             accum_f32: bool = False, finalists: int = 6,
             model: PerformanceModel = None, max_workers=None) -> TuneResult:
    """Pick the best kernel configuration for one problem on one device.

    Pass a shared :class:`PerformanceModel` to reuse its cached SM
    profiles across autotuning calls.  ``max_workers`` (semantics of
    :func:`repro.perf.parallel.parallel_map`) profiles the stage-2
    finalists across worker processes -- the dominant cost of a cold run.
    """
    pm = model or PerformanceModel(spec)
    candidates = [Candidate(config=c)
                  for c in candidate_space(spec, accum_f32=accum_f32)]

    for cand in candidates:
        cand.rejected = _check_feasible(cand.config, spec)
        if not cand.rejected and (m % cand.config.b_m or n % cand.config.b_n
                                  or k % cand.config.b_k):
            cand.rejected = "tile does not divide the problem"
        if not cand.rejected:
            cand.analytic_score = _analytic_tflops(cand.config, spec)

    ranked = sorted((c for c in candidates if not c.rejected),
                    key=lambda c: -c.analytic_score)
    if not ranked:
        raise ValueError(f"no feasible configuration for {m}x{n}x{k}")

    if max_workers is not None and max_workers != 1:
        try:
            pm.profile_many([c.config for c in ranked[:finalists]],
                            max_workers=max_workers)
        except Exception:
            # A finalist the builder cannot realise fails the whole batch;
            # fall through and let the serial loop record it per candidate.
            pass

    best, best_tflops = None, -1.0
    for cand in ranked[:finalists]:
        try:
            est = pm.estimate(cand.config, m, n, k)
        except Exception as exc:  # builder surprises count as rejections
            cand.rejected = str(exc)
            continue
        cand.simulated_tflops = est.tflops
        if est.tflops > best_tflops:
            best, best_tflops = cand.config, est.tflops

    if best is None:
        raise ValueError("all finalists failed to build")
    return TuneResult(best=best, best_tflops=best_tflops,
                      candidates=candidates)
