"""Turing-class GPU device specifications.

All architectural constants used by the simulator and the analytical models
live here.  They come from two sources only:

1. Public Turing facts (SM counts, clocks, register file and shared memory
   sizes, warp scheduler structure) from the Turing whitepaper.
2. The paper's *microbenchmark* results (Tables I-V): instruction CPIs,
   measured DRAM/L2 bandwidths, HMMA latencies.

Nothing here is fitted to the paper's *evaluation* results (Figs. 4-9);
those must emerge from the mechanism.

CPI semantics (paper Section IV-C / V): a CPI value is the number of SM
cycles an instruction occupies its issue pipe, limiting back-to-back
throughput of that instruction class:

* HMMA occupies the **tensor pipe of one processing block** (4 blocks/SM,
  2 Tensor Cores each; a 16x8x8 HMMA is 16 4x4x4 MMAs / 2 TCs = 8 cycles).
* LDG/STG/LDS/STS all occupy the **single SM-wide memory-IO pipe**
  (Section VI-A: "LDG, STS and LDS instructions all occupy memory I/O
  pipe"), so their CPIs add.
* ALU/FMA ops occupy their scheduler's dispatch slot (CPI 2: 16-lane units
  serve a 32-lane warp in two passes).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .family import SM70, SM75, SM80, ArchSpec, check_ranges

__all__ = [
    "MemoryCpiTable", "GpuSpec", "RTX2070", "T4", "V100", "A100",
    "DEVICES", "get_device",
]


def _check_ranges(spec) -> None:
    """:func:`~repro.arch.family.check_ranges`, letting a field whose
    default is 0 (a figure left unmeasured) be 0."""
    check_ranges(spec, [f.name for f in fields(spec) if f.default == 0])


@dataclass(frozen=True)
class MemoryCpiTable:
    """CPI of one memory instruction class, keyed by access width in bits."""

    cpi32: float
    cpi64: float
    cpi128: float

    def __post_init__(self) -> None:
        _check_ranges(self)

    def cpi(self, width: int) -> float:
        table = {32: self.cpi32, 64: self.cpi64, 128: self.cpi128}
        try:
            return table[width]
        except KeyError:
            raise ValueError(
                f"unsupported memory width {width}; "
                f"supported widths: {sorted(table)}"
            ) from None

    def bytes_per_cycle(self, width: int, lanes: int = 32) -> float:
        """Warp-level throughput in bytes per cycle (paper Table V)."""
        return lanes * (width // 8) / self.cpi(width)


@dataclass(frozen=True)
class GpuSpec:
    """Complete description of one device (any registered generation)."""

    name: str
    num_sms: int
    clock_ghz: float
    #: Tensor Core generation (HMMA shape, fragment layout, feature flags).
    arch: ArchSpec = SM75
    # --- SM structure (Turing whitepaper) ---
    processing_blocks_per_sm: int = 4
    tensor_cores_per_block: int = 2
    max_warps_per_sm: int = 32
    registers_per_sm: int = 64 * 1024
    max_regs_per_thread: int = 256
    smem_per_sm_bytes: int = 64 * 1024
    smem_banks: int = 32
    smem_bank_bytes: int = 4
    max_ctas_per_sm: int = 16
    # --- memory system ---
    dram_peak_gbps: float = 0.0
    dram_measured_gbps: float = 0.0
    l2_measured_gbps: float = 0.0
    l2_bytes: int = 4 * 1024 * 1024
    l2_sector_bytes: int = 32
    # --- compute peaks ---
    tensor_tflops: float = 0.0
    fp16_tflops: float = 0.0
    # --- instruction timing (paper Tables I, III, IV; same on both GPUs) ---
    hmma_cpi: float = 8.0
    hmma_latency_first_half: int = 10
    hmma_latency_second_half: int = 14
    #: IMMA.8816 issues twice as fast: Turing's INT8 tensor path delivers
    #: 2x the FP16 rate (Turing whitepaper), so 8x8x16 MACs take 4 cycles
    #: per processing block.
    imma_cpi: float = 4.0
    ldg_l1_cpi: MemoryCpiTable = MemoryCpiTable(4.04, 4.04, 8.00)
    ldg_l2_cpi: MemoryCpiTable = MemoryCpiTable(4.19, 8.38, 15.95)
    lds_cpi: MemoryCpiTable = MemoryCpiTable(2.11, 4.00, 8.00)
    sts_cpi: MemoryCpiTable = MemoryCpiTable(4.06, 6.00, 10.00)
    stg_cpi: MemoryCpiTable = MemoryCpiTable(4.06, 8.38, 15.95)
    alu_cpi: float = 2.0
    fma_cpi: float = 2.0
    ldg_latency_cycles: int = 300
    lds_latency_cycles: int = 25
    #: Depth of the SM's memory-IO instruction queue (MIO): warps enqueue
    #: LDS/STS/LDG and keep issuing math until the queue fills; the queue
    #: drains at the instruction's CPI rate.
    mio_queue_depth: int = 16
    # --- launch / runtime model ---
    kernel_launch_overhead_us: float = 4.0

    def __post_init__(self) -> None:
        _check_ranges(self)

    # ------------------------------------------------------------- derived

    @property
    def tensor_cores_per_sm(self) -> int:
        return self.processing_blocks_per_sm * self.tensor_cores_per_block

    @property
    def warp_schedulers_per_sm(self) -> int:
        # One scheduler per processing block on Turing.
        return self.processing_blocks_per_sm

    @property
    def tensor_peak_tflops(self) -> float:
        """Tensor peak from structure: TC/SM x FMA/TC/cycle x 2 flop x clock
        (the per-core FMA rate comes from the generation's :class:`ArchSpec`)."""
        flops_per_cycle = self.tensor_cores_per_sm * self.arch.fma_per_tc_cycle * 2
        return self.num_sms * flops_per_cycle * self.clock_ghz / 1e3

    @property
    def fp16_peak_tflops(self) -> float:
        """FP16-unit peak (Tensor Cores are 4x, paper Section I)."""
        return self.tensor_peak_tflops / 4.0

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9)

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.clock_ghz * 1e9

    def ldg_cpi(self, width: int, hit_l1: bool = False) -> float:
        table = self.ldg_l1_cpi if hit_l1 else self.ldg_l2_cpi
        return table.cpi(width)

    def occupancy_limits(self, regs_per_thread: int, smem_per_cta: int,
                         threads_per_cta: int) -> dict:
        """Resource-limited CTAs/SM (paper Table VII machinery)."""
        if regs_per_thread > self.max_regs_per_thread:
            raise ValueError(
                f"kernel needs {regs_per_thread} registers/thread; the "
                f"hardware limit is {self.max_regs_per_thread}"
            )
        limits = {
            "regs": self.registers_per_sm // max(1, regs_per_thread * threads_per_cta),
            "smem": (self.smem_per_sm_bytes // smem_per_cta) if smem_per_cta else self.max_ctas_per_sm,
            "warps": self.max_warps_per_sm // max(1, threads_per_cta // 32),
            "hw": self.max_ctas_per_sm,
        }
        return limits

    def ctas_per_sm(self, regs_per_thread: int, smem_per_cta: int,
                    threads_per_cta: int) -> int:
        return min(
            self.occupancy_limits(regs_per_thread, smem_per_cta, threads_per_cta).values()
        )


#: NVIDIA GeForce RTX 2070 (TU106).  36 SMs; 59.7 tensor TFLOPS at the
#: 1.62 GHz boost clock the paper's peak implies; GDDR6 448 GB/s.
RTX2070 = GpuSpec(
    name="RTX2070",
    num_sms=36,
    clock_ghz=1.62,
    dram_peak_gbps=448.0,
    dram_measured_gbps=380.0,
    l2_measured_gbps=750.0,
    l2_bytes=4 * 1024 * 1024,
    tensor_tflops=59.7,
    fp16_tflops=14.9,
)

#: NVIDIA Tesla T4 (TU104).  40 SMs; the paper locks clocks at 1590 MHz
#: giving the 65 tensor-TFLOPS peak; GDDR6 320 GB/s.
T4 = GpuSpec(
    name="T4",
    num_sms=40,
    clock_ghz=1.59,
    dram_peak_gbps=320.0,
    dram_measured_gbps=238.0,
    l2_measured_gbps=910.0,
    l2_bytes=4 * 1024 * 1024,
    tensor_tflops=65.0,
    fp16_tflops=16.3,
)

#: NVIDIA Tesla V100 (GV100, SXM2).  Volta/SM70: 80 SMs at the 1.53 GHz
#: boost clock -> 125.3 tensor TFLOPS from structure (80 x 8 TC x 64 FMA
#: x 2); HBM2 900 GB/s peak.  CPIs/latencies calibrated from the Citadel
#: Volta microbenchmark report (PAPERS.md): HMMA.884 issues at CPI ~4 per
#: processing block (same 256 FLOP/cycle/block as Turing), global loads
#: ~28% slower than Turing's L1, shared latency slightly lower.
V100 = GpuSpec(
    name="V100",
    num_sms=80,
    clock_ghz=1.53,
    arch=SM70,
    smem_per_sm_bytes=96 * 1024,
    max_ctas_per_sm=32,
    max_warps_per_sm=64,
    dram_peak_gbps=900.0,
    dram_measured_gbps=790.0,
    l2_measured_gbps=2155.0,
    l2_bytes=6 * 1024 * 1024,
    tensor_tflops=125.3,
    fp16_tflops=31.3,
    hmma_cpi=4.0,
    hmma_latency_first_half=8,
    hmma_latency_second_half=12,
    ldg_latency_cycles=375,
    lds_latency_cycles=19,
)

#: NVIDIA A100 (GA100, SXM4).  Ampere/SM80: 108 SMs at 1.41 GHz; one
#: third-generation Tensor Core per processing block at 256 FMA/cycle
#: -> 312 tensor TFLOPS from structure; HBM2e 1555 GB/s peak, 40 MB L2.
#: HMMA.16816 CPI 8 per block (4096 FLOP / 512 FLOP-per-cycle-per-block);
#: latencies from the Ampere microbenchmark paper (PAPERS.md, Tables 4-5).
A100 = GpuSpec(
    name="A100",
    num_sms=108,
    clock_ghz=1.41,
    arch=SM80,
    tensor_cores_per_block=1,
    smem_per_sm_bytes=164 * 1024,
    max_ctas_per_sm=32,
    max_warps_per_sm=64,
    dram_peak_gbps=1555.0,
    dram_measured_gbps=1370.0,
    l2_measured_gbps=4500.0,
    l2_bytes=40 * 1024 * 1024,
    tensor_tflops=311.9,
    fp16_tflops=78.0,
    hmma_cpi=8.0,
    hmma_latency_first_half=12,
    hmma_latency_second_half=16,
    imma_cpi=4.0,
    ldg_latency_cycles=290,
    lds_latency_cycles=23,
)

#: Registry of known devices.
DEVICES = {spec.name: spec for spec in (RTX2070, T4, V100, A100)}


def get_device(name: str) -> GpuSpec:
    """Look up a device spec by name (case-insensitive)."""
    for key, spec in DEVICES.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown device {name!r}; known: {sorted(DEVICES)}")
