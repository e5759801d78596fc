"""Program container: an ordered tuple of instructions plus kernel metadata.

A :class:`Program` is what the assembler emits and both simulators execute.
Kernel metadata carries the launch-relevant resource usage (registers per
thread, shared memory per CTA, threads per CTA) that the occupancy model
(paper Table VII) consumes.  Programs are immutable, so one program can be
shared by every launch of its kernel (see :func:`repro.core.build_hgemm`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .instructions import Instruction

__all__ = ["KernelMeta", "Program"]


@dataclass(frozen=True)
class KernelMeta:
    """Static resources of a kernel, as a launch configurator sees them."""

    name: str = "kernel"
    num_regs: int = 32
    smem_bytes: int = 0
    block_dim: int = 32

    def __post_init__(self) -> None:
        if not 1 <= self.num_regs <= 256:
            raise ValueError(f"registers/thread must be 1..256, got {self.num_regs}")
        if self.smem_bytes < 0:
            raise ValueError(f"negative shared memory: {self.smem_bytes}")
        if self.block_dim <= 0 or self.block_dim % 32:
            raise ValueError(
                f"block_dim must be a positive multiple of the warp size, "
                f"got {self.block_dim}"
            )

    @property
    def warps_per_cta(self) -> int:
        return self.block_dim // 32


@dataclass(frozen=True)
class Program:
    """An assembled kernel: instructions with resolved branch targets.

    ``instructions`` is stored as a tuple and ``labels`` as a read-only
    mapping, whatever sequence and mapping the caller passed.
    ``predecoded`` is not part of the program's value: it is where
    :func:`repro.sim.decode.predecode` keeps the program's assembled
    tables, one set per lane count, so that a relaunch reuses them.
    """

    instructions: tuple
    meta: KernelMeta = field(default_factory=KernelMeta)
    labels: Mapping = field(default_factory=dict)
    predecoded: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        labels = MappingProxyType(dict(self.labels))
        for label, index in labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ValueError(f"label {label!r} points outside program: {index}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "instructions",
                           tuple(self._resolve_targets()))

    def _resolve_targets(self):
        for inst in self.instructions:
            if inst.target is not None and inst.target_index is None:
                if inst.target not in self.labels:
                    raise ValueError(f"undefined branch target: {inst.target!r}")
                inst = inst.with_target_index(self.labels[inst.target])
            yield inst

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def count_opcode(self, opcode: str) -> int:
        """Number of instructions with mnemonic root *opcode*."""
        return sum(1 for inst in self.instructions if inst.opcode == opcode)

    def listing(self) -> str:
        """Human-readable listing with labels and instruction indices."""
        by_index: dict = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for i, inst in enumerate(self.instructions):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"  /*{i:04d}*/ {inst}")
        for label in by_index.get(len(self.instructions), ()):
            lines.append(f"{label}:")
        return "\n".join(lines)
