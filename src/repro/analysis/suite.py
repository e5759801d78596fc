"""Suite-wide tuning: autotune/sweep every GEMM of a workload suite.

The per-problem tools (:func:`repro.analysis.autotune`,
:meth:`~repro.analysis.perf_model.PerformanceModel.sweep`) answer "what
is the best kernel for *this* shape".  A deep-learning workload is many
shapes at once -- this module runs those tools across every GEMM a
:class:`~repro.workloads.suite.WorkloadSuite` contains, sharing one
:class:`~repro.analysis.perf_model.PerformanceModel` so SM profiles are
measured once, and dedupes repeated shapes (a transformer layer uses
the same projection GEMM twice).
"""

from __future__ import annotations

from ..arch.turing import GpuSpec, RTX2070
from ..report import format_table
from .autotune import autotune
from .perf_model import PerformanceModel

__all__ = ["autotune_suite", "sweep_suite", "format_suite_tuning"]


def _unique_problems(suite, scale: str):
    from ..workloads.suite import get_suite

    seen, out = set(), []
    for problem in get_suite(suite).problems(scale):
        key = (problem.m, problem.n, problem.k)
        if key not in seen:
            seen.add(key)
            out.append(problem)
    return out


def autotune_suite(suite, spec: GpuSpec = RTX2070, scale: str = "full",
                   accum_f32: bool = False, finalists: int = 6,
                   model: PerformanceModel = None, max_workers=None) -> list:
    """Autotune every distinct GEMM shape of *suite* on one device.

    Returns ``[(GemmShape, TuneResult), ...]`` in suite order with
    duplicate (m, n, k) shapes collapsed.  One shared model caches the
    candidate SM profiles, so the marginal cost of each extra shape is
    analytic only.
    """
    pm = model or PerformanceModel(spec)
    return [(problem, autotune(spec, problem.m, problem.n, problem.k,
                               accum_f32=accum_f32, finalists=finalists,
                               model=pm, max_workers=max_workers))
            for problem in _unique_problems(suite, scale)]


def sweep_suite(suite, spec: GpuSpec = RTX2070, scale: str = "full",
                model: PerformanceModel = None, baseline: bool = True,
                max_workers=None) -> list:
    """Performance-model sweep across *suite* (shape-aware tile choice).

    A thin wrapper over :func:`repro.workloads.suite.estimate_suite`
    that owns the shared model -- the analysis-side twin of
    :func:`autotune_suite` for when the kernel family is fixed and only
    the per-shape selection matters.
    """
    from ..workloads.suite import estimate_suite

    pm = model or PerformanceModel(spec)
    return estimate_suite(suite, spec, scale=scale, model=pm,
                          baseline=baseline, max_workers=max_workers)


def format_suite_tuning(rows, spec: GpuSpec, title: str = "") -> str:
    """Render :func:`autotune_suite` rows as a table."""
    table = [(problem.name, problem.describe(), result.best.describe(),
              round(result.best_tflops, 1), len(result.feasible))
             for problem, result in rows]
    return format_table(
        ["layer", "GEMM", "best configuration", "TFLOPS", "feasible"],
        table, title=title or f"Suite autotuning on {spec.name}")
