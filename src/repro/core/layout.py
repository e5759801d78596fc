"""Shared-memory tile layouts and their addressing (paper Section VI-D).

The CTA keeps two operand tiles in shared memory:

* the A tile, ``b_m`` rows of ``b_k`` halves (row-major);
* the B tile, ``b_n`` columns of ``b_k`` halves (column-major storage, so
  each "row" of the allocation is one n-column's k-slice).

Both use the same row stride: ``b_k + pad`` halves.  ``pad = 0`` is the
naive layout (Fig. 5, slow); ``pad = 8`` skews consecutive rows by 4 banks,
which makes both the STS.128 tile stores and the LDS.32 fragment gathers
bank-conflict-free (verified mechanically by the simulator's conflict
calculator, see ``tests/sim/test_shared.py``).

Note on the paper: Section VI-D gives ``offset = row*32 + row%2*8 + col``
("pad 8 halves every other row", 36 KB/CTA).  Taken literally that formula
overlaps adjacent rows, and under our whole-warp bank model the every-other-
row skew still leaves 2-way LDS conflicts, so we implement the same idea
with an unambiguous stride: 8 halves of padding on *every* row (40 KB/CTA
at 256x256x32).  The occupancy consequence is identical (1 CTA/SM) and the
conflict-free property is machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import KernelConfig

__all__ = ["TileLayout", "SmemPlan"]


@dataclass(frozen=True)
class TileLayout:
    """Addressing of one operand tile in shared memory.

    ``swizzle`` XOR-permutes the eight 16-byte chunks of each 128-byte row
    by ``row % 8`` -- cuBLAS's padding-free conflict avoidance (requires
    ``cols == 64`` halves so a row is exactly 8 chunks).
    """

    rows: int            # b_m (A) or b_n (B)
    cols: int            # b_k, in elements
    pad_halves: int      # row padding, in elements
    base_bytes: int      # offset of this tile within the CTA's allocation
    swizzle: bool = False
    elem_bytes: int = 2  # 2 = FP16 halves, 1 = INT8

    def __post_init__(self) -> None:
        if self.swizzle and (self.pad_halves or self.cols != 64
                             or self.elem_bytes != 2):
            raise ValueError(
                "swizzle requires FP16 tiles with cols == 64 and no padding"
            )

    @property
    def row_stride_halves(self) -> int:
        return self.cols + self.pad_halves

    @property
    def row_stride_bytes(self) -> int:
        return self.elem_bytes * self.row_stride_halves

    @property
    def size_bytes(self) -> int:
        return self.rows * self.row_stride_bytes

    def offset_halves(self, row: int, col: int) -> int:
        """Logical (row, col) -> half-element offset within the tile."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"({row}, {col}) outside {self.rows}x{self.cols} tile")
        if self.swizzle:
            chunk, within = divmod(col, 8)
            return row * self.row_stride_halves + (chunk ^ (row % 8)) * 8 + within
        return row * self.row_stride_halves + col

    def address(self, row: int, col: int) -> int:
        """Logical (row, col) -> byte address in shared memory."""
        return self.base_bytes + self.elem_bytes * self.offset_halves(row, col)


@dataclass(frozen=True)
class SmemPlan:
    """The CTA's full shared-memory plan: A tile followed by B tile."""

    a: TileLayout
    b: TileLayout

    @classmethod
    def for_config(cls, config: KernelConfig) -> "SmemPlan":
        a = TileLayout(
            rows=config.b_m, cols=config.b_k,
            pad_halves=config.smem_pad_elems, base_bytes=0,
            swizzle=config.smem_swizzle,
            elem_bytes=config.ab_element_bytes,
        )
        b = TileLayout(
            rows=config.b_n, cols=config.b_k,
            pad_halves=config.smem_pad_elems, base_bytes=a.size_bytes,
            swizzle=config.smem_swizzle,
            elem_bytes=config.ab_element_bytes,
        )
        return cls(a=a, b=b)

    @property
    def total_bytes(self) -> int:
        return self.a.size_bytes + self.b.size_bytes
