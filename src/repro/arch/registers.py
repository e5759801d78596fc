"""Warp register file and predicate file for the functional simulator.

A warp's general-purpose state is a (256, 32) uint32 array: 256 register
slots (R255 = RZ hardwired to zero) by 32 lanes.  This matches the paper's
"warp register" view (Section IV-A): an 8x8 half matrix is one register
index across all 32 lanes.

The arrays are NumPy-backed so fragment gather/scatter and the HMMA
executors operate on whole warp registers without per-lane Python loops.
"""

from __future__ import annotations

import numpy as np

from ..isa.operands import PT_INDEX, RZ_INDEX

__all__ = ["WARP_LANES", "RegisterFile", "PredicateFile"]

#: Lanes per warp.
WARP_LANES = 32


class RegisterFile:
    """Per-warp general purpose registers: 256 x *lanes* of uint32.

    ``lanes`` defaults to one warp (32); the lockstep engine stacks all of
    a CTA's warps into one file with ``lanes = n_warps * 32``.
    """

    NUM_REGS = 256

    def __init__(self, lanes: int = WARP_LANES) -> None:
        self._lanes = lanes
        self._data = np.zeros((self.NUM_REGS, lanes), dtype=np.uint32)

    def read(self, index: int) -> np.ndarray:
        """Value of register *index* across all lanes (always a copy-safe
        read: RZ returns fresh zeros)."""
        if index == RZ_INDEX:
            return np.zeros(self._lanes, dtype=np.uint32)
        return self._data[index]

    def write(self, index: int, values, mask=None) -> None:
        """Write *values* (broadcastable to 32 lanes) under an optional
        boolean lane *mask*.  Writes to RZ are discarded, as on hardware."""
        if index == RZ_INDEX:
            return
        vals = np.asarray(values, dtype=np.uint32)
        if mask is None:
            self._data[index] = vals
        else:
            lane_mask = np.asarray(mask, dtype=bool)
            self._data[index][lane_mask] = (
                vals[lane_mask] if vals.ndim else vals
            )

    def read_group(self, index: int, count: int) -> np.ndarray:
        """Registers ``index .. index+count-1`` as a (count, 32) array."""
        self._check_group(index, count)
        return self._data[index : index + count]

    def write_group(self, index: int, values, mask=None) -> None:
        """Write a (count, 32) block of registers.  A one-register write to
        RZ is discarded, as :meth:`write` discards it."""
        vals = np.asarray(values, dtype=np.uint32)
        if index == RZ_INDEX and vals.shape[0] == 1:
            return
        self._check_group(index, vals.shape[0])
        if mask is None:
            self._data[index : index + vals.shape[0]] = vals
        else:
            lane_mask = np.asarray(mask, dtype=bool)
            self._data[index : index + vals.shape[0], lane_mask] = vals[:, lane_mask]

    def _check_group(self, index: int, count: int) -> None:
        if index == RZ_INDEX:
            raise ValueError("register groups cannot start at RZ")
        if index + count > RZ_INDEX:
            raise ValueError(
                f"register group R{index}..R{index + count - 1} overruns the "
                f"register file (RZ is R{RZ_INDEX})"
            )

    def signed(self, index: int) -> np.ndarray:
        """Register value viewed as signed 32-bit integers."""
        return self.read(index).astype(np.int64) - (
            (self.read(index) >> np.uint32(31)).astype(np.int64) << 32
        )


class PredicateFile:
    """Per-warp predicate registers: 8 x *lanes* of bool (P7 = PT)."""

    NUM_PREDS = 8

    def __init__(self, lanes: int = WARP_LANES) -> None:
        self._data = np.zeros((self.NUM_PREDS, lanes), dtype=bool)
        self._data[PT_INDEX] = True

    def read(self, index: int, negated: bool = False) -> np.ndarray:
        vals = self._data[index]
        return ~vals if negated else vals.copy()

    def write(self, index: int, values, mask=None) -> None:
        """Write predicate *index*; writes to PT are discarded."""
        if index == PT_INDEX:
            return
        vals = np.asarray(values, dtype=bool)
        if mask is None:
            self._data[index] = vals
        else:
            lane_mask = np.asarray(mask, dtype=bool)
            self._data[index][lane_mask] = vals[lane_mask] if vals.ndim else vals
