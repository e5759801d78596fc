"""repro -- reproduction of "Demystifying Tensor Cores to Optimize
Half-Precision Matrix Multiply" (Yan, Wang, Chu; IPDPS 2020).

The package is a full software substrate for the paper's methodology:

* :mod:`repro.hmma`   -- Tensor Core semantics: 8x8 fragment layouts
  (Figs. 1-2) and functional ``HMMA.1688`` execution.
* :mod:`repro.isa`    -- a SASS-subset assembler, binary encoder and
  program builder (the ``turingas`` role).
* :mod:`repro.arch`   -- Turing device descriptions (RTX 2070, T4)
  calibrated from the paper's microbenchmarks.
* :mod:`repro.sim`    -- functional + cycle-level simulators of a Turing
  SM with tensor pipes, the memory-IO queue, banked shared memory and an
  L1/L2/DRAM service model.
* :mod:`repro.core`   -- the paper's contribution: the blocked Tensor Core
  HGEMM generator, CPI-guided scheduler, shared-memory layouts, and the
  public :func:`hgemm` API.
* :mod:`repro.bench`  -- SASS-level microbenchmarks (Tables I-V).
* :mod:`repro.analysis` -- roofline, occupancy and the device-level wave
  performance model that regenerates the evaluation figures.

Quick start::

    import numpy as np
    from repro import hgemm

    A = np.random.rand(256, 128).astype(np.float16)
    B = np.random.rand(128, 512).astype(np.float16)
    C = hgemm(A, B)
"""

from . import _lazy

__version__ = "1.0.0"

# Resolved on first use: importing this package loads neither NumPy nor
# a simulator (see repro._lazy).
__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    ".arch": ("DEVICES", "GpuSpec", "RTX2070", "T4", "get_device"),
    ".core": ("KernelConfig", "build_hgemm", "cublas_like", "hgemm",
              "hgemm_reference", "ours"),
    ".analysis": ("PerformanceModel", "Roofline"),
})
__all__ += ["__version__"]
