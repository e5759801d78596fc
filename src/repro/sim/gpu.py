"""Device: a CUDA-runtime-flavoured front end for the simulators.

Wraps global memory management and kernel launches in the familiar
malloc / memcpy / launch vocabulary so custom SASS programs (and the
examples) don't have to juggle raw byte offsets::

    dev = Device(RTX2070)
    a = dev.malloc(4096)
    dev.memcpy_htod(a, host_array)
    dev.launch(program, grid=(4, 2))
    out = dev.memcpy_dtoh(a, np.float16, 2048)

``launch`` executes functionally over the whole grid; ``launch_timed``
runs one SM cycle-accurately (the paper's per-SM measurement harness) and
returns the :class:`~repro.sim.timing.TimingResult` plus the wall-clock
seconds implied by the device clock, the simulated analogue of the
``cudaEvent`` timing the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from ..isa.program import Program
from .functional import FunctionalResult, FunctionalSimulator
from .memory import GlobalMemory
from .timing import TimingResult, TimingSimulator

__all__ = ["Device", "LaunchTiming"]

#: Allocation granularity (matches cudaMalloc's 256-byte alignment).
_ALIGN = 256


@dataclass(frozen=True)
class LaunchTiming:
    """Result of a timed (one-SM) launch."""

    result: TimingResult
    seconds: float

    @property
    def cycles(self) -> int:
        return self.result.cycles


class Device:
    """One simulated GPU with a flat global memory arena."""

    def __init__(self, spec: GpuSpec = RTX2070,
                 memory_bytes: int = 64 << 20):
        self.spec = spec
        self.memory = GlobalMemory(memory_bytes)
        self._bump = _ALIGN  # address 0 stays unmapped, like NULL

    # ---------------------------------------------------------- allocation

    def malloc(self, nbytes: int) -> int:
        """Reserve *nbytes* and return the device address."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        addr = self._bump
        self._bump += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
        if self._bump > self.memory.size:
            raise MemoryError(
                f"device out of memory: {self._bump} > {self.memory.size}"
            )
        return addr

    def malloc_array(self, array: np.ndarray) -> int:
        """Allocate for *array*, copy it in, return the address."""
        addr = self.malloc(array.nbytes)
        self.memcpy_htod(addr, array)
        return addr

    # -------------------------------------------------------------- memcpy

    def memcpy_htod(self, addr: int, array) -> None:
        self.memory.write_array(addr, np.ascontiguousarray(array))

    def memcpy_dtoh(self, addr: int, dtype, count: int) -> np.ndarray:
        return self.memory.read_array(addr, dtype, count)

    # ------------------------------------------------------------- launch

    def launch(self, program: Program, grid=(1, 1)) -> FunctionalResult:
        """Run *program* functionally over the whole grid."""
        return FunctionalSimulator().run(
            program, self.memory, grid_dim=grid)

    def launch_timed(self, program: Program, num_ctas: int = 1,
                     bandwidth_share: float = None) -> LaunchTiming:
        """Run *num_ctas* CTAs on one simulated SM, cycle-accurately.

        ``bandwidth_share`` defaults to this SM's fair share of the device
        (1/num_sms), the right setting when modelling a full launch.
        """
        share = bandwidth_share
        if share is None:
            share = 1.0 / self.spec.num_sms
        sim = TimingSimulator(self.spec, bandwidth_share=share)
        result = sim.run(program, self.memory, num_ctas=num_ctas)
        return LaunchTiming(
            result=result,
            seconds=self.spec.cycles_to_seconds(result.cycles),
        )
