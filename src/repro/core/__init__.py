"""The paper's primary contribution: the optimized Tensor Core HGEMM."""

from .. import _lazy

# Resolved on first use, so the kernel configs load without the builder
# and the simulators behind it.
__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    ".blocking": ("PipeCycles", "choose_blocking",
                  "hmma_cycles_per_iteration", "ldg_sts_cycles_per_iteration",
                  "lds_cycles_per_iteration", "min_hmma_between_sts",
                  "pipe_cycles", "table6_rows"),
    ".builder": ("HgemmProblem", "RegisterPlan", "build_hgemm"),
    ".config": ("ConfigError", "KernelConfig", "cublas_like", "ours",
                "ours_f32", "ours_int8"),
    ".igemm": ("IgemmRun", "igemm", "igemm_reference"),
    ".hgemm": ("HgemmRun", "hgemm", "hgemm_reference", "resolve_config"),
    ".layout": ("SmemPlan", "TileLayout"),
    ".scheduler": ("InterleaveScheduler", "spacing_for"),
    ".verify": ("CaseResult", "VerificationReport", "verify_kernel"),
})
