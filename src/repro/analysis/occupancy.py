"""Occupancy analysis: CTAs/SM and warps/SM per kernel (paper Table VII).

Turing SM resources: 64K 32-bit registers, 64 KB shared memory, 32 resident
warps, 16 resident CTAs.  The winner of each ``min()`` is reported so the
Table VII comparison ("ours trades occupancy for blocking size") is
explainable, not just a number.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.turing import GpuSpec
from ..core.config import KernelConfig

__all__ = ["OccupancyReport", "occupancy", "table7"]


@dataclass(frozen=True)
class OccupancyReport:
    """Resource usage and resulting occupancy of one kernel on one SM."""

    config_name: str
    regs_per_thread: int
    smem_per_cta: int
    threads_per_cta: int
    ctas_per_sm: int
    limiting_resource: str
    limits: dict

    @property
    def warps_per_sm(self) -> int:
        return self.ctas_per_sm * (self.threads_per_cta // 32)


def occupancy(config: KernelConfig, spec: GpuSpec,
              regs_per_thread: int = None) -> OccupancyReport:
    """Compute the occupancy of *config* on *spec*.

    ``regs_per_thread`` overrides the config's analytic estimate (e.g. to
    use the generated kernel's exact register count).
    """
    regs = regs_per_thread if regs_per_thread is not None else config.regs_per_thread
    limits = spec.occupancy_limits(
        regs_per_thread=regs,
        smem_per_cta=config.smem_bytes,
        threads_per_cta=config.threads_per_cta,
    )
    ctas = min(limits.values())
    limiting = min(limits, key=lambda k: limits[k])
    return OccupancyReport(
        config_name=config.name or "custom",
        regs_per_thread=regs,
        smem_per_cta=config.smem_bytes,
        threads_per_cta=config.threads_per_cta,
        ctas_per_sm=ctas,
        limiting_resource=limiting,
        limits=dict(limits),
    )


def table7(ours_config: KernelConfig, baseline_config: KernelConfig,
           spec: GpuSpec) -> list:
    """Regenerate Table VII: per-kernel blocking, shared memory, occupancy."""
    rows = []
    for config in (ours_config, baseline_config):
        report = occupancy(config, spec)
        rows.append({
            "kernel": config.name,
            "cta_tile": config.cta_tile,
            "warp_tile": config.warp_tile,
            "smem_per_cta_kb": config.smem_bytes / 1024,
            "ctas_per_sm": report.ctas_per_sm,
            "warps_per_sm": report.warps_per_sm,
            "limited_by": report.limiting_resource,
        })
    return rows
