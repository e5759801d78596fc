"""Tensor Core architecture family: one simulator, three generations.

The paper's analysis is written against Turing (SM75), whose native
half-precision MMA is ``HMMA.1688`` (a 16x8x8 matmul per warp-wide
instruction).  Volta (SM70) and Ampere (SM80) differ in exactly the
dimensions an :class:`ArchSpec` captures:

==========  =========  ==============  ==========================
generation  SM         HMMA shape      operand registers (A/B/C16)
==========  =========  ==============  ==========================
Volta       SM70       8x8x8 (.884)    1 / 1 / 1
Turing      SM75       16x8x8 (.1688)  2 / 1 / 2
Ampere      SM80       16x8x16 (.16816)  4 / 2 / 2
==========  =========  ==============  ==========================

Everything generational lives here -- the MMA shape, the per-operand
register footprint (which drives the kernel builder's register plan and
shared-memory fragment loads), the per-Tensor-Core FMA rate (which
drives the structural peak-TFLOPS computation), and feature flags (F32
accumulate, IMMA/int8).  Per-*device* numbers (SM counts, clocks,
bandwidths, measured CPIs) stay on :class:`repro.arch.turing.GpuSpec`,
which now carries one of these specs in its ``arch`` field.

Calibration sources (PAPERS.md):

* SM70 -- "Dissecting the NVIDIA Volta GPU Architecture via
  Microbenchmarking" (Citadel; companion of the Turing report cited by
  the source paper) for CPIs/latencies, and "Modeling Three Generations
  of Tensor Cores" for the ``.884`` fragment semantics.
* SM75 -- the source paper's own Tables I-V.
* SM80 -- "Demystifying the Nvidia Ampere Architecture through
  Microbenchmarking and Instruction-level Analysis" (Tables 4-5:
  tensor-op latencies/throughputs) and the A100 whitepaper structure
  (4 third-generation Tensor Cores/SM at 256 FP16 FMA/cycle each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..core.config import ConfigError

__all__ = ["ArchSpec", "SM70", "SM75", "SM80", "GENERATIONS", "get_generation"]


def check_ranges(spec, zero_ok=()) -> None:
    """Refuse, by name, a number field of *spec* no device can have: each
    is finite and > 0, or >= 0 if *zero_ok* names it."""
    for f in fields(spec):
        if f.type not in ("int", "float"):
            continue
        value, zero = getattr(spec, f.name), f.name in zero_ok
        finite = not isinstance(value, float) or math.isfinite(value)
        if not (finite and (value >= 0 if zero else value > 0)):
            raise ConfigError(f"{type(spec).__name__}.{f.name} must be a "
                              f"finite number {'>=' if zero else '>'} 0, "
                              f"got {value!r}")


@dataclass(frozen=True)
class ArchSpec:
    """One Tensor Core generation: the ISA-visible MMA contract.

    ``hmma_m/n/k`` is the per-instruction matmul shape (D[m,n] +=
    A[m,k] @ B[k,n]); ``a_regs``/``b_regs``/``c_regs_f16``/``c_regs_f32``
    are the per-thread register counts of each warp-wide operand
    fragment; ``fma_per_tc_cycle`` is the FP16 FMA rate of one Tensor
    Core, so structural peaks derive from the registry instead of
    hardcoded products.
    """

    name: str                 # "volta" / "turing" / "ampere"
    sm_version: int           # 70 / 75 / 80
    hmma_m: int
    hmma_n: int
    hmma_k: int
    hmma_mods: str            # SASS modifier token: "884" / "1688" / "16816"
    a_regs: int               # registers per thread holding the A fragment
    b_regs: int               # ... B fragment
    c_regs_f16: int           # ... C/D fragment with FP16 accumulate
    c_regs_f32: int           # ... with FP32 accumulate (0 = unsupported)
    fma_per_tc_cycle: int     # FP16 FMAs one Tensor Core retires per cycle
    supports_f32_accum: bool
    supports_imma: bool       # int8 IMMA.8816 path (SM75+)
    #: Measured HMMA CPI plugged into the paper's Eq. (3) pipe model
    #: (Turing: Table I's 8.06; others from the PAPERS.md calibrations).
    measured_hmma_cpi: float

    def __post_init__(self) -> None:
        # c_regs_f32 may be 0 only where there is no F32-accumulate form.
        check_ranges(self, () if self.supports_f32_accum else ("c_regs_f32",))
        # A warp's fragment registers must exactly cover the matrix tiles.
        if self.a_regs * 64 != self.hmma_m * self.hmma_k:
            raise ValueError(f"{self.name}: A fragment does not tile")
        if self.b_regs * 64 != self.hmma_k * self.hmma_n:
            raise ValueError(f"{self.name}: B fragment does not tile")
        if self.c_regs_f16 * 64 != self.hmma_m * self.hmma_n:
            raise ValueError(f"{self.name}: C fragment does not tile")
        if self.supports_f32_accum and self.c_regs_f32 * 32 != self.hmma_m * self.hmma_n:
            raise ValueError(f"{self.name}: C/f32 fragment does not tile")

    @property
    def hmma_shape(self) -> tuple:
        return (self.hmma_m, self.hmma_n, self.hmma_k)

    @property
    def flops_per_hmma(self) -> int:
        return 2 * self.hmma_m * self.hmma_n * self.hmma_k


#: Volta: first-generation Tensor Cores.  Our ``.884`` model is the
#: f16-accumulate warp-synchronous form (D[8,8] = A[8,8] @ B[8,8] + C);
#: one register per operand fragment, no IMMA, no F32 accumulate path in
#: this subset.
SM70 = ArchSpec(
    name="volta", sm_version=70,
    hmma_m=8, hmma_n=8, hmma_k=8, hmma_mods="884",
    a_regs=1, b_regs=1, c_regs_f16=1, c_regs_f32=0,
    fma_per_tc_cycle=64,
    supports_f32_accum=False, supports_imma=False,
    measured_hmma_cpi=4.03,
)

#: Turing: the source paper's generation (HMMA.1688, Tables I-V).
SM75 = ArchSpec(
    name="turing", sm_version=75,
    hmma_m=16, hmma_n=8, hmma_k=8, hmma_mods="1688",
    a_regs=2, b_regs=1, c_regs_f16=2, c_regs_f32=4,
    fma_per_tc_cycle=64,
    supports_f32_accum=True, supports_imma=True,
    measured_hmma_cpi=8.06,
)

#: Ampere: third-generation Tensor Cores -- one 256-FMA/cycle core per
#: processing block, native HMMA.16816 (k doubles to 16).
SM80 = ArchSpec(
    name="ampere", sm_version=80,
    hmma_m=16, hmma_n=8, hmma_k=16, hmma_mods="16816",
    a_regs=4, b_regs=2, c_regs_f16=2, c_regs_f32=4,
    fma_per_tc_cycle=256,
    supports_f32_accum=True, supports_imma=True,
    measured_hmma_cpi=8.06,
)

#: Generation registry, keyed by the lowercase family name.
GENERATIONS = {arch.name: arch for arch in (SM70, SM75, SM80)}


def get_generation(name: str) -> ArchSpec:
    """Look up a generation by name ("volta") or SM version ("sm70"/70)."""
    token = str(name).lower()
    for arch in GENERATIONS.values():
        if token in (arch.name, f"sm{arch.sm_version}", str(arch.sm_version)):
            return arch
    raise KeyError(f"unknown architecture {name!r}; known: {sorted(GENERATIONS)}")
