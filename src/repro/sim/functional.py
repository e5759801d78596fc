"""Functional (untimed) simulator: executes a kernel over a full grid.

This is the correctness half of the substrate: it runs the generated HGEMM
kernels CTA by CTA and produces bit-exact results that tests compare against
NumPy references.  Within a CTA, warps execute round-robin in *barrier
intervals*: each warp runs until it reaches a ``BAR.SYNC``, an ``EXIT`` or a
configurable fuel limit; the barrier releases when every live warp arrives.
This is exact for well-synchronised programs (all cross-warp communication
through shared memory must be separated by barriers -- which is also the
hardware's own correctness contract).

Two execution engines share those semantics (both built on the one µop
table in :mod:`repro.sim.uop`, so they cannot drift apart):

* ``"lockstep"`` (the default and the one fast path) -- the program is
  decoded once for ``n_warps * 32`` stacked lanes and, between barriers,
  all warps of a CTA execute each slot as one warp-lockstep NumPy
  operation.  Wherever the warps could stop agreeing (cross-warp-divergent
  predicates or branches, reference-only paths) the closure returns
  ``DIVERGED`` *before* mutating state and the CTA de-stacks onto 32-lane
  decoded closures run warp by warp in barrier intervals (``STATS``
  counter ``func.destacks``).  Well-synchronised GEMM kernels never
  de-stack.
* ``"reference"`` -- the instruction-at-a-time interpreter through
  :func:`repro.sim.exec_units.execute`, kept as the semantic ground
  truth for differential tests, the divergence watchdog and benchmark
  baselines (``REPRO_FUNC_ENGINE=reference``).

A grid's CTAs run in order, one after another, in this process.

``CS2R SR_CLOCKLO`` returns the warp's retired-instruction count here; for
cycle-accurate clocks use :class:`repro.sim.timing.TimingSimulator`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..arch.registers import PredicateFile, RegisterFile, WARP_LANES
from ..isa.program import Program
from .. import knobs
from ..perf import STATS
from ..robust import chaos
from ..robust import guard as _guard
from .decode import DIVERGED, EXITED, predecode
from .exec_units import ExecError, execute
from .memory import GlobalMemory
from .shared import SharedMemory

__all__ = ["FunctionalSimulator", "FunctionalResult", "SimLimitError"]

#: Selectable engines; the first is the default.
ENGINES = knobs.KNOBS["REPRO_FUNC_ENGINE"].accepts


class SimLimitError(RuntimeError):
    """Raised when a warp exceeds its instruction fuel (runaway loop)."""


class _WarpState:
    """Execution context of one warp (duck-typed for exec_units)."""

    def __init__(self, warp_id: int, ctaid, block_dim: int,
                 global_mem: GlobalMemory, shared_mem: SharedMemory):
        self.warp_id = warp_id
        self.ctaid = ctaid
        self.lane_ids = np.arange(WARP_LANES, dtype=np.uint32)
        self.tid = (warp_id * WARP_LANES + self.lane_ids).astype(np.uint32)
        self.regs = RegisterFile()
        self.preds = PredicateFile()
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.pc = 0
        self.retired = 0
        self.exited = False
        self.at_barrier = False

    def clock(self) -> int:
        return self.retired


class _CtaState:
    """Stacked execution context: all warps of one CTA as ``n_warps * 32``
    lanes, laid out warp-major (warp 0's lanes first).

    Duck-types the warp attributes the decoded closures touch (``regs``,
    ``preds``, ``tid``, ``lane_ids``, ``ctaid``, memories, ``clock()``),
    so a closure compiled for stacked lanes runs every warp at once.
    """

    def __init__(self, n_warps: int, ctaid, block_dim: int,
                 global_mem: GlobalMemory, shared_mem: SharedMemory):
        self.n_warps = n_warps
        self.ctaid = ctaid
        self.block_dim = block_dim
        lanes = n_warps * WARP_LANES
        self.lane_ids = np.tile(
            np.arange(WARP_LANES, dtype=np.uint32), n_warps)
        self.tid = np.arange(lanes, dtype=np.uint32)
        self.regs = RegisterFile(lanes)
        self.preds = PredicateFile(lanes)
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.retired = 0

    def clock(self) -> int:
        return self.retired

    def split(self, pc: int, retired: int) -> list:
        """De-stack into per-warp states (column-slice copies), all resuming
        at *pc* with *retired* instructions already counted."""
        warps = []
        for w in range(self.n_warps):
            warp = _WarpState(w, self.ctaid, self.block_dim,
                              self.global_mem, self.shared_mem)
            cols = slice(w * WARP_LANES, (w + 1) * WARP_LANES)
            warp.regs._data[:] = self.regs._data[:, cols]
            warp.preds._data[:] = self.preds._data[:, cols]
            warp.pc = pc
            warp.retired = retired
            warps.append(warp)
        return warps


@dataclass
class FunctionalResult:
    """Statistics of one functional launch."""

    instructions_retired: int = 0
    opcode_counts: dict = field(default_factory=dict)
    ctas_run: int = 0

    def _count(self, opcode: str) -> None:
        self.instructions_retired += 1
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1


class FunctionalSimulator:
    """Executes programs functionally over an (x, y) grid of CTAs.

    ``engine`` selects the execution engine (``None`` -> ``REPRO_FUNC_ENGINE``
    or lockstep); ``guard`` the divergence-watchdog mode (``None`` ->
    ``REPRO_GUARD``, see :mod:`repro.robust.guard`).  After a watchdog
    degradation a lockstep request runs on the reference engine.
    """

    def __init__(self, max_instructions_per_warp: int = 5_000_000,
                 engine: str = None, guard: str = None):
        self.max_instructions_per_warp = max_instructions_per_warp
        self.engine = (engine if engine is not None
                       else knobs.read("REPRO_FUNC_ENGINE"))
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        self.guard = guard

    def run(self, program: Program, global_mem: GlobalMemory,
            grid_dim=(1, 1)) -> FunctionalResult:
        """Launch *program* over ``grid_dim`` CTAs against *global_mem*."""
        gx, gy = (grid_dim if len(grid_dim) == 2 else (*grid_dim, 1)[:2])
        ctaids = [(bx, by, 0) for by in range(gy) for bx in range(gx)]
        mode = _guard.guard_mode(self.guard)
        engine = _guard.effective_func_engine(self.engine)
        ctx = None
        if mode != "off" and engine != "reference":
            ctx = _guard.GuardContext("functional", engine, mode,
                                      global_mem._words)
        STATS.count("func.runs")
        with STATS.timer("func.wall"):
            result = self._run_ctas(program, global_mem, ctaids, engine)
        if ctx is not None:
            # Chaos flip fires only on guarded runs: a synthetic fast-engine
            # bug for the watchdog to catch, never silent corruption.
            chaos.maybe_flip_output(global_mem._words)
            result = ctx.conclude(
                global_mem._words, result,
                lambda: _reference_rerun(program, ctx.pre, grid_dim,
                                         self.max_instructions_per_warp),
                program=program,
                context={"grid_dim": [gx, gy], "engine": engine},
            )
        STATS.count("func.ctas", result.ctas_run)
        STATS.count("func.instructions", result.instructions_retired)
        return result

    # ------------------------------------------------------------ internals

    def _run_ctas(self, program: Program, global_mem: GlobalMemory,
                  ctaids, engine: str) -> FunctionalResult:
        result = FunctionalResult()
        if engine == "reference":
            for ctaid in ctaids:
                self._run_cta(program, global_mem, ctaid, result)
                result.ctas_run += 1
            return result
        # lockstep: one stacked decoding for the whole run, plus a lazily
        # built 32-lane decoding for CTAs that de-stack.  Each decoding
        # keeps its own counters because their window structures can differ.
        n_warps = program.meta.warps_per_cta
        decoded = predecode(program, lanes=n_warps * WARP_LANES)
        counts = decoded.new_counts()
        fallback = [None, None]  # [DecodedProgram, counts], built on demand
        for ctaid in ctaids:
            self._run_cta_lockstep(program, decoded, counts, fallback,
                                   global_mem, ctaid)
            result.ctas_run += 1
        # Closure calls: lockstep counts every call once per warp.
        dispatches = decoded.accumulate(counts, result) // n_warps
        if fallback[0] is not None:
            dispatches += fallback[0].accumulate(fallback[1], result)
        STATS.count("func.dispatches", dispatches)
        return result

    @staticmethod
    def _interleave(warps, ctaid, run_interval) -> None:
        """Round-robin barrier-interval loop over per-warp states;
        ``run_interval(warp)`` runs one warp to its next barrier or exit."""
        while True:
            progressed = False
            for warp in warps:
                if warp.exited or warp.at_barrier:
                    continue
                run_interval(warp)
                progressed = True
            live = [w for w in warps if not w.exited]
            if not live:
                return
            if all(w.at_barrier for w in live):
                for w in live:  # release the barrier
                    w.at_barrier = False
                continue
            if not progressed:
                raise SimLimitError(
                    f"CTA {ctaid} deadlocked: some warps wait at a barrier "
                    "that the others never reach"
                )

    # ------------------------------------------------------ reference engine

    def _run_cta(self, program: Program, global_mem: GlobalMemory,
                 ctaid, result: FunctionalResult) -> None:
        shared = SharedMemory(program.meta.smem_bytes)
        warps = [
            _WarpState(w, ctaid, program.meta.block_dim, global_mem, shared)
            for w in range(program.meta.warps_per_cta)
        ]
        self._interleave(
            warps, ctaid,
            lambda warp: self._run_warp_interval(program, warp, result))

    def _run_warp_interval(self, program: Program, warp: _WarpState,
                           result: FunctionalResult) -> None:
        """Run one warp until barrier / exit / fuel exhaustion."""
        while True:
            if warp.retired >= self.max_instructions_per_warp:
                raise SimLimitError(
                    f"warp {warp.warp_id} exceeded "
                    f"{self.max_instructions_per_warp} instructions"
                )
            if warp.pc >= len(program):
                raise ExecError(
                    f"warp {warp.warp_id} ran off the end of the program "
                    f"(pc={warp.pc}); missing EXIT?"
                )
            inst = program[warp.pc]
            eff = execute(inst, warp)
            warp.retired += 1
            result._count(inst.opcode)

            for first_reg, values, mask in eff.reg_writes:
                warp.regs.write_group(first_reg, values, mask=_opt_mask(mask))
            for index, values, mask in eff.pred_writes:
                warp.preds.write(index, values, mask=_opt_mask(mask))

            if eff.exited:
                warp.exited = True
                return
            if eff.branch_target is not None:
                warp.pc = eff.branch_target
            else:
                warp.pc += 1
            if eff.barrier:
                warp.at_barrier = True
                return

    # ------------------------------------------------------- lockstep engine

    def _run_cta_lockstep(self, program: Program, decoded, counts, fallback,
                          global_mem: GlobalMemory, ctaid) -> None:
        """Run one CTA with all warps stacked into a single lane dimension.

        Between barriers every warp executes the same slot simultaneously,
        so barriers release instantly and the interval machinery disappears;
        the loop is a straight signal dispatch.  On ``DIVERGED`` the CTA
        de-stacks (no state was mutated) and finishes warp by warp on the
        32-lane decoding, which owns all per-warp semantics.
        """
        cta = _CtaState(program.meta.warps_per_cta, ctaid,
                        program.meta.block_dim, global_mem,
                        SharedMemory(program.meta.smem_bytes))
        n_warps = cta.n_warps
        run_fns = decoded.run_fns
        next_pc = decoded.next_pc
        lens = decoded.lens
        reads_clock = decoded.reads_clock
        n = decoded.n
        limit = self.max_instructions_per_warp
        pc = 0
        retired = 0  # per-warp count (identical across warps here)
        while True:
            if retired >= limit:
                raise SimLimitError(
                    f"CTA {ctaid} exceeded {limit} instructions per warp")
            if pc >= n:
                raise ExecError(
                    f"CTA {ctaid} ran off the end of the program "
                    f"(pc={pc}); missing EXIT?")
            if reads_clock[pc]:
                cta.retired = retired  # CS2R reads the pre-retire count
            signal = run_fns[pc](cta)
            if signal == DIVERGED:
                STATS.count("func.destacks")
                if fallback[0] is None:
                    fallback[0] = predecode(program)
                    fallback[1] = fallback[0].new_counts()
                self._interleave(
                    cta.split(pc, retired), ctaid,
                    functools.partial(self._run_warp_interval_decoded,
                                      fallback[0], fallback[1]))
                return
            counts[pc] += n_warps
            retired += lens[pc]
            if signal is None:
                pc = next_pc[pc]
            elif signal >= 0:
                pc = signal
            elif signal == EXITED:
                return  # warp-uniform by construction: all warps exit
            else:  # BARRIER: every warp arrived together; release instantly
                pc = next_pc[pc]

    def _run_warp_interval_decoded(self, decoded, counts, warp) -> None:
        """Decoded interval loop of a de-stacked warp: dispatch 32-lane
        closures until barrier/exit/fuel."""
        run_fns = decoded.run_fns
        next_pc = decoded.next_pc
        lens = decoded.lens
        reads_clock = decoded.reads_clock
        n = decoded.n
        limit = self.max_instructions_per_warp
        pc = warp.pc
        retired = warp.retired
        try:
            while True:
                if retired >= limit:
                    raise SimLimitError(
                        f"warp {warp.warp_id} exceeded {limit} instructions")
                if pc >= n:
                    raise ExecError(
                        f"warp {warp.warp_id} ran off the end of the program "
                        f"(pc={pc}); missing EXIT?")
                if reads_clock[pc]:
                    warp.retired = retired  # CS2R reads the pre-retire count
                signal = run_fns[pc](warp)
                counts[pc] += 1
                retired += lens[pc]
                if signal is None:
                    pc = next_pc[pc]
                elif signal >= 0:
                    pc = signal
                elif signal == EXITED:
                    warp.exited = True
                    return
                else:  # BARRIER
                    pc = next_pc[pc]
                    warp.at_barrier = True
                    return
        finally:
            warp.pc = pc
            warp.retired = retired


def _opt_mask(mask: np.ndarray):
    """Treat an all-active mask as no mask (fast path + full overwrite)."""
    return None if mask.all() else mask


def _reference_rerun(program: Program, pre_words: np.ndarray, grid_dim,
                     fuel: int):
    """Watchdog rerun: the same launch on the reference engine, from the
    guarded run's memory snapshot.  Returns ``(result, memory_words)``."""
    mem = GlobalMemory(pre_words.nbytes)
    np.copyto(mem._words, pre_words)
    sim = FunctionalSimulator(max_instructions_per_warp=fuel,
                              engine="reference", guard="off")
    result = sim.run(program, mem, grid_dim=grid_dim)
    return result, mem._words

