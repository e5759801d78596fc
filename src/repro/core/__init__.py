"""The paper's primary contribution: the optimized Tensor Core HGEMM."""

from .blocking import (
    PipeCycles,
    choose_blocking,
    hmma_cycles_per_iteration,
    ldg_sts_cycles_per_iteration,
    lds_cycles_per_iteration,
    min_hmma_between_sts,
    pipe_cycles,
    table6_rows,
)
from .builder import HgemmProblem, RegisterPlan, build_hgemm
from .config import ConfigError, KernelConfig, cublas_like, ours, ours_f32
from .config import ours_int8
from .hgemm import (
    HgemmRun,
    hgemm,
    hgemm_reference,
    resolve_config,
)
from .igemm import IgemmRun, igemm, igemm_reference
from .layout import SmemPlan, TileLayout
from .scheduler import InterleaveScheduler, spacing_for
from .verify import CaseResult, VerificationReport, verify_kernel

__all__ = [
    "PipeCycles",
    "choose_blocking",
    "hmma_cycles_per_iteration",
    "ldg_sts_cycles_per_iteration",
    "lds_cycles_per_iteration",
    "min_hmma_between_sts",
    "pipe_cycles",
    "table6_rows",
    "HgemmProblem",
    "RegisterPlan",
    "build_hgemm",
    "ConfigError",
    "KernelConfig",
    "cublas_like",
    "ours",
    "ours_f32",
    "ours_int8",
    "IgemmRun",
    "igemm",
    "igemm_reference",
    "HgemmRun",
    "hgemm",
    "hgemm_reference",
    "resolve_config",
    "SmemPlan",
    "TileLayout",
    "InterleaveScheduler",
    "spacing_for",
    "CaseResult",
    "VerificationReport",
    "verify_kernel",
]
