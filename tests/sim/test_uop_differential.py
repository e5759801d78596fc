"""Differential fuzz: one semantics table, three bit-identical paths.

For every opcode in the ISA, execute representative instruction forms
against randomized register files, predicate files and memory images on

* the reference adapter (:func:`repro.sim.exec_units.execute`),
* the 32-lane decoded closure (:func:`repro.sim.decode.predecode`, the
  lockstep engine's de-stack path), and
* the stacked warp-lockstep closure (``predecode(program, lanes=W*32)``),

and require the complete post-state -- all 256 register rows, all 8
predicate rows, global memory, shared memory, and the control signal -- to
be bit-identical across paths for every warp.  Because all three compile
from the same ``SEMANTICS`` table, any divergence is a bug in the
compilation layers, not an ambiguity in the semantics.

Stacked closures are allowed exactly one alternative behaviour: returning
``DIVERGED`` *without mutating any state* (the lockstep engine then
re-runs the slot per warp), which this suite also verifies.
"""

import numpy as np
import pytest

from repro.isa import assemble
from repro.isa.instructions import OPCODES
from repro.sim.decode import BARRIER, DIVERGED, EXITED, predecode
from repro.sim.exec_units import execute
from repro.sim.functional import _CtaState, _WarpState
from repro.sim.memory import GlobalMemory
from repro.sim.shared import SharedMemory

# Random bit patterns routinely decode to float16 NaN/Inf; the kernels
# propagate them identically on every engine, so the IEEE warnings are noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

N_WARPS = 3
LANES = N_WARPS * 32
GMEM_BYTES = 64 * 1024
SMEM_BYTES = 16 * 1024
CTAID = (2, 1, 0)


def _addresses(rng, lanes):
    """Distinct 16-byte-aligned lane addresses (safe for any access width,
    and scatter order cannot matter because no two lanes collide)."""
    return (rng.permutation(lanes).astype(np.uint32) * 16) + 0x100


def _addr_setup(reg):
    def setup(regs, rng):
        regs[reg] = _addresses(rng, regs.shape[1])
    return setup


#: opcode -> list of (source-of-first-instruction, extra-setup or None).
CASES = {
    "NOP": [("NOP", None)],
    "EXIT": [("EXIT", None)],
    "BAR": [("BAR.SYNC", None)],
    "BRA": [("L:\nBRA L", None)],
    # A write to RZ retires with the value discarded, as on hardware.
    "MOV": [("MOV R3, R2", None),
            ("MOV RZ, R1", None)],
    "MOV32I": [("MOV32I R1, 0xDEADBEEF", None)],
    "IADD3": [("IADD3 R0, R1, R2, R3", None),
              ("IADD3 R0, R1, -1, RZ", None),
              ("IADD3 RZ, R1, R1, RZ", None)],
    "IMAD": [("IMAD R0, R1, R2, R3", None),
             ("IMAD R0, R1, 4, 0x100", None),
             ("IMAD RZ, R1, R1, RZ", None)],
    "SHF": [("SHF.L R0, R1, 2", None),
            ("SHF.R R0, R1, R2", None)],
    "LOP3": [("LOP3.AND R0, R1, R2", None),
             ("LOP3.OR R0, R1, 0b0110", None),
             ("LOP3.XOR R0, R1, R2", None)],
    "ISETP": [("ISETP.LT.AND P0, PT, R1, R2, PT", None),
              ("ISETP.GE.AND P0, PT, R1, 0x80, P1", None),
              ("ISETP.NE.AND P2, PT, R1, RZ, PT", None)],
    "SEL": [("SEL R0, R2, R3, P1", None),
            ("SEL R0, R2, R3, !P1", None)],
    "S2R": [("S2R R0, SR_TID.X", None),
            ("S2R R0, SR_LANEID", None),
            ("S2R R0, SR_CTAID.X", None)],
    "CS2R": [("CS2R R0, SR_CLOCKLO", None)],
    "HFMA2": [("HFMA2 R0, R1, R2, R3", None)],
    "HMMA": [("HMMA.1688.F16 R0, R8, R10, R4", None),
             ("HMMA.1688.F32 R0, R8, R10, R4", None),
             ("HMMA.884.F16 R0, R8, R10, R12", None),
             ("HMMA.16816.F16 R0, R8, R16, R4", None),
             ("HMMA.16816.F32 R0, R8, R16, R4", None)],
    "IMMA": [("IMMA.8816.S8.S8 R0, R8, R10, R4", None)],
    "LDG": [("LDG.E.32 R3, [R2]", _addr_setup(2)),
            ("LDG.E.CG.32 R3, [R2+0x40]", _addr_setup(2)),
            ("LDG.E.64 R4, [R2]", _addr_setup(2)),
            ("LDG.E.128 R4, [R2]", _addr_setup(2))],
    "STG": [("STG.E.32 [R2], R3", _addr_setup(2)),
            ("STG.E.128 [R2], R4", _addr_setup(2))],
    "LDS": [("LDS R5, [R2]", _addr_setup(2)),
            ("LDS.128 R4, [R2]", _addr_setup(2))],
    "STS": [("STS [R2], R3", _addr_setup(2)),
            ("STS.64 [R2], R6", _addr_setup(2))],
}

ALL_CASES = [(opcode, i, src, setup)
             for opcode, cases in sorted(CASES.items())
             for i, (src, setup) in enumerate(cases)]


def test_every_opcode_has_a_case():
    assert set(CASES) == set(OPCODES)


def _random_state(seed, setup):
    """One randomized CTA-wide machine state, shared by every engine."""
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 1 << 32, (256, LANES), dtype=np.uint32)
    regs[255] = 0  # RZ row must stay architecturally zero
    preds = rng.integers(0, 2, (8, LANES)).astype(bool)
    preds[7] = True  # PT
    gmem = rng.integers(0, 1 << 32, GMEM_BYTES // 4, dtype=np.uint32)
    smem = rng.integers(0, 1 << 32, SMEM_BYTES // 4, dtype=np.uint32)
    if setup is not None:
        setup(regs, rng)
    return regs, preds, gmem, smem


def _make_mems(gmem, smem):
    global_mem = GlobalMemory(GMEM_BYTES)
    global_mem._words[:] = gmem
    shared_mem = SharedMemory(SMEM_BYTES)
    shared_mem._words[:] = smem
    return global_mem, shared_mem


def _make_warp(w, regs, preds, global_mem, shared_mem):
    warp = _WarpState(w, CTAID, LANES, global_mem, shared_mem)
    cols = slice(w * 32, (w + 1) * 32)
    warp.regs._data[:] = regs[:, cols]
    warp.preds._data[:] = preds[:, cols]
    return warp


def _snapshot(ctx):
    return (ctx.regs._data.copy(), ctx.preds._data.copy())


def _run_reference(inst, warp):
    eff = execute(inst, warp)
    for first, values, mask in eff.reg_writes:
        warp.regs.write_group(first, values, mask=None if mask.all() else mask)
    for idx, values, mask in eff.pred_writes:
        warp.preds.write(idx, values, mask=None if mask.all() else mask)
    if eff.exited:
        return EXITED
    if eff.branch_target is not None:
        return eff.branch_target
    if eff.barrier:
        return BARRIER
    return None


@pytest.mark.parametrize("opcode,i,src,setup", ALL_CASES,
                         ids=[f"{o}-{i}" for o, i, _, _ in ALL_CASES])
@pytest.mark.parametrize("seed", [0, 1])
def test_differential(opcode, i, src, setup, seed):
    program = assemble(src + "\nEXIT")
    inst = program[0]
    assert inst.opcode == opcode
    regs, preds, gmem, smem = _random_state(seed * 1000 + hash(opcode) % 97,
                                            setup)

    # Reference adapter, warp by warp (memory shared across the CTA, as in
    # every engine).
    ref_gm, ref_sm = _make_mems(gmem, smem)
    ref_warps = [_make_warp(w, regs, preds, ref_gm, ref_sm)
                 for w in range(N_WARPS)]
    ref_signals = [_run_reference(inst, w) for w in ref_warps]
    ref_states = [_snapshot(w) for w in ref_warps]
    ref_mems = (ref_gm._words.copy(), ref_sm._words.copy())

    # 32-lane predecoded closure, warp by warp.
    decoded = predecode(program)
    dec_gm, dec_sm = _make_mems(gmem, smem)
    dec_warps = [_make_warp(w, regs, preds, dec_gm, dec_sm)
                 for w in range(N_WARPS)]
    dec_signals = [decoded.run_fns[0](w) for w in dec_warps]
    assert dec_signals == ref_signals
    for ref_state, warp in zip(ref_states, dec_warps):
        for ref_arr, got_arr in zip(ref_state, _snapshot(warp)):
            np.testing.assert_array_equal(got_arr, ref_arr)
    np.testing.assert_array_equal(dec_gm._words, ref_mems[0])
    np.testing.assert_array_equal(dec_sm._words, ref_mems[1])

    # Stacked warp-lockstep closure, all warps at once.
    stacked = predecode(program, lanes=LANES)
    cta_gm, cta_sm = _make_mems(gmem, smem)
    cta = _CtaState(N_WARPS, CTAID, LANES, cta_gm, cta_sm)
    cta.regs._data[:] = regs
    cta.preds._data[:] = preds
    signal = stacked.run_fns[0](cta)
    if signal == DIVERGED:
        # Allowed only as a pure refusal: nothing may have been mutated.
        np.testing.assert_array_equal(cta.regs._data, regs)
        np.testing.assert_array_equal(cta.preds._data, preds)
        np.testing.assert_array_equal(cta_gm._words, gmem)
        np.testing.assert_array_equal(cta_sm._words, smem)
        return
    assert all(sig == signal for sig in ref_signals)
    for w, ref_state in enumerate(ref_states):
        cols = slice(w * 32, (w + 1) * 32)
        got = (cta.regs._data[:, cols], cta.preds._data[:, cols])
        for ref_arr, got_arr in zip(ref_state, got):
            np.testing.assert_array_equal(got_arr, ref_arr)
    np.testing.assert_array_equal(cta_gm._words, ref_mems[0])
    np.testing.assert_array_equal(cta_sm._words, ref_mems[1])


# --------------------------------------------------------------------------
# Whole-program differential: branchy/looped assembler-text kernels.
#
# The per-instruction cases above can never catch divergence-handling bugs
# (de-stack/re-stack, branch bookkeeping, barrier resume inside loops):
# those only appear across *sequences* of instructions.  Each program here
# runs through the full FunctionalSimulator on every engine, and the final
# global memory plus retirement statistics must agree bit-for-bit.
# Predicates are warp-uniform (derived from tid>>5 or CTAID) -- warps
# disagree with each other, lanes within a warp never do, which is exactly
# the shape that forces the lockstep engine through its DIVERGED de-stack
# path while staying legal on every engine.

# Warp-dependent trip counts: warp w of CTA c loops (w + c + 1) times,
# accumulating tid each trip, then stores accum to a per-thread slot.
LOOP_TRIPS_BY_WARP = """
.kernel trips_by_warp
.regs 32
.block 96
  S2R R1, SR_TID.X
  S2R R7, SR_CTAID.X
  SHF.R R2, R1, 5
  IADD3 R2, R2, 1, RZ
  IADD3 R2, R2, R7, RZ
  MOV32I R3, 0
  MOV32I R4, 0
LOOP:
  IADD3 R4, R4, R1, RZ
  IADD3 R3, R3, 1, RZ
  ISETP.LT.AND P0, PT, R3, R2, PT
  @P0 BRA LOOP
  IMAD R5, R7, 96, R1
  IMAD R5, R5, 4, RZ
  STG.E.32 [R5], R4
  EXIT
"""

# Predicated forward branch: odd warps skip their store entirely.
PREDICATED_SKIP = """
.kernel predicated_skip
.regs 32
.block 96
  S2R R1, SR_TID.X
  S2R R7, SR_CTAID.X
  SHF.R R2, R1, 5
  LOP3.AND R3, R2, 1
  ISETP.NE.AND P1, PT, R3, RZ, PT
  IMAD R5, R7, 96, R1
  IMAD R5, R5, 4, RZ
  @P1 BRA SKIP
  IADD3 R6, R1, 0x101, RZ
  STG.E.32 [R5], R6
SKIP:
  EXIT
"""

# A k-loop with a predicated branch *inside* the body: even iterations
# accumulate, odd iterations jump over the add.  Trip count still differs
# per warp, so both branch directions interleave across the CTA.
BRANCH_IN_LOOP = """
.kernel branch_in_loop
.regs 32
.block 64
  S2R R1, SR_TID.X
  SHF.R R2, R1, 5
  IMAD R2, R2, 3, RZ
  IADD3 R2, R2, 2, RZ
  MOV32I R3, 0
  MOV32I R4, 0
LOOP:
  LOP3.AND R6, R3, 1
  ISETP.NE.AND P2, PT, R6, RZ, PT
  @P2 BRA ODD
  IADD3 R4, R4, R1, RZ
ODD:
  IADD3 R3, R3, 1, RZ
  ISETP.LT.AND P0, PT, R3, R2, PT
  @P0 BRA LOOP
  IMAD R5, R1, 4, RZ
  STG.E.32 [R5], R4
  EXIT
"""

# Uniform-trip loop with a barrier and a cross-warp shared-memory swap in
# the body: exercises barrier suspend/resume inside a loop on every engine.
BARRIER_LOOP = """
.kernel barrier_loop
.regs 32
.smem 1024
.block 64
  S2R R1, SR_TID.X
  MOV32I R3, 0
  MOV R4, R1
  IMAD R8, R1, 4, RZ
  LOP3.XOR R9, R1, 0x20
  IMAD R9, R9, 4, RZ
LOOP:
  STS [R8], R4
  BAR.SYNC
  LDS R10, [R9]
  BAR.SYNC
  IADD3 R4, R4, R10, RZ
  IADD3 R3, R3, 1, RZ
  ISETP.LT.AND P0, PT, R3, 3, PT
  @P0 BRA LOOP
  IMAD R5, R1, 4, RZ
  STG.E.32 [R5], R4
  EXIT
"""

# Guarded fused windows.  The loop head lands inside a fusible run, and
# predicated LDS/STS/LDG/IADD3/MOV/HMMA members sit among unpredicated ones,
# the way the generated kernels' ``@P0`` prefetch rides in the HMMA stream.
# ``{guard}`` sets P0 from the trip count R3 (and P2 = "not the last trip")
# before the loop and again mid-run, so each trip's later members see a
# value the window head did not.  HMMA is warp-wide and cannot be
# lane-predicated, so ``@{h}`` names its guard separately.
GUARDED_LOOP = """
.kernel {name}
.regs 64
.smem 1024
.block {block}
  S2R R1, SR_TID.X
  S2R R7, SR_CTAID.X
  SHF.R R27, R1, 5
  IMAD R5, R7, {block}, R1
  IMAD R24, R5, 64, RZ
  IMAD R25, R5, 4, 0x8000
  IMAD R2, R1, 4, RZ
  LOP3.XOR R26, R1, 1
  IMAD R26, R26, 4, RZ
  IMAD R20, R1, 0x10001, 0x3C003C00
  IMAD R21, R5, 0x10001, 0x38003800
  IMAD R22, R1, 0x20002, 0x34003400
  IADD3 R14, R5, 0x55, RZ
  STG.E.32 [R25], R14
  MOV32I R3, 0
  IADD3 R4, R1, 3, RZ
  MOV R10, RZ
  MOV R11, RZ
  MOV R12, RZ
  MOV R13, RZ
{guard}
LOOP:
  @P0 STS [R2], R4
  @!P0 IADD3 R4, R4, 7, RZ
  @{h} HMMA.1688.F16 R10, R20, R22, R10
  @P0 LDS R6, [R26]
  @P0 LDG.E.32 R8, [R25]
  @!{h} HMMA.1688.F16 R12, R20, R22, R12
  @!P0 MOV R9, R4
  @P0 IADD3 R4, R4, R6, RZ
  @P0 IADD3 R15, R8, R3, RZ
  HMMA.1688.F16 R30, R20, R22, R30
  IADD3 R3, R3, 1, RZ
{guard}
  @P0 IADD3 R17, R17, R3, RZ
  @P0 IADD3 R16, R16, R3, RZ
  @!P0 IADD3 R18, R18, R3, RZ
  @P0 MOV R19, R4
  ISETP.LT.AND P1, PT, R3, 3, PT
  @P1 BRA LOOP
  STG.E.32 [R24], R4
  STG.E.32 [R24+0x4], R9
  STG.E.32 [R24+0x8], R10
  STG.E.32 [R24+0xc], R11
  STG.E.32 [R24+0x10], R12
  STG.E.32 [R24+0x14], R13
  STG.E.32 [R24+0x18], R15
  STG.E.32 [R24+0x1c], R17
  STG.E.32 [R24+0x20], R18
  STG.E.32 [R24+0x24], R19
  STG.E.32 [R24+0x28], R30
  STG.E.32 [R24+0x2c], R31
  STG.E.32 [R24+0x30], R16
  EXIT
"""

_LAST_TRIP = "  ISETP.LT.AND P2, PT, R3, 2, PT"


def _parity_guard(reg):
    """P0 = (reg + trip) odd."""
    return (f"  IADD3 R28, {reg}, R3, RZ\n  LOP3.AND R28, R28, 1\n"
            f"  ISETP.NE.AND P0, PT, R28, RZ, PT\n{_LAST_TRIP}")


# P0 is the same on every lane of the CTA and flips on the last trip (the
# generated kernels' "a next tile exists").
CTA_UNIFORM_GUARD = GUARDED_LOOP.format(
    name="cta_uniform_guard", block=64, h="P0",
    guard=f"  ISETP.LT.AND P0, PT, R3, 2, PT\n{_LAST_TRIP}")
# P0 is uniform within each warp but differs between warps: the stacked
# window refuses at its head and the de-stacked warps run it whole.
WARP_UNIFORM_GUARD = GUARDED_LOOP.format(
    name="warp_uniform_guard", block=96, h="P0", guard=_parity_guard("R27"))
# P0 differs between neighbouring lanes: every 32-lane window runs its
# members one by one, with masked writes.
LANE_MIXED_GUARD = GUARDED_LOOP.format(
    name="lane_mixed_guard", block=64, h="P2", guard=_parity_guard("R1"))

GUARDED_PROGRAMS = [
    ("cta_uniform_guard", CTA_UNIFORM_GUARD, (2, 1)),
    ("warp_uniform_guard", WARP_UNIFORM_GUARD, (2, 1)),
    ("lane_mixed_guard", LANE_MIXED_GUARD, (2, 1)),
]

BRANCHY_PROGRAMS = [
    ("trips_by_warp", LOOP_TRIPS_BY_WARP, (2, 1)),
    ("predicated_skip", PREDICATED_SKIP, (2, 2)),
    ("branch_in_loop", BRANCH_IN_LOOP, (3, 1)),
    ("barrier_loop", BARRIER_LOOP, (2, 1)),
    *GUARDED_PROGRAMS,
]


class TestBranchyProgramDifferential:
    @pytest.mark.parametrize("name,src,grid",
                             [(n, s, g) for n, s, g in BRANCHY_PROGRAMS],
                             ids=[n for n, _, _ in BRANCHY_PROGRAMS])
    def test_engines_agree(self, name, src, grid):
        from repro.sim.functional import ENGINES, FunctionalSimulator

        program = assemble(src)
        outcomes = {}
        for engine in ENGINES:
            gm = GlobalMemory(GMEM_BYTES)
            result = FunctionalSimulator(engine=engine).run(
                program, gm, grid_dim=grid)
            outcomes[engine] = (gm._words.copy(),
                                result.instructions_retired,
                                dict(result.opcode_counts),
                                result.ctas_run)

        ref_mem, ref_retired, ref_counts, ref_ctas = outcomes["reference"]
        assert ref_counts.get("STG", 0) > 0  # the program actually ran
        for engine in ENGINES:
            mem, retired, counts, ctas = outcomes[engine]
            np.testing.assert_array_equal(mem, ref_mem, err_msg=engine)
            assert retired == ref_retired, engine
            assert counts == ref_counts, engine
            assert ctas == ref_ctas, engine

    def test_trip_counts_are_really_divergent(self):
        """The loop program's warps must retire different trip counts --
        otherwise the divergence path this class exists for is untested."""
        from repro.sim.functional import FunctionalSimulator

        gm = GlobalMemory(GMEM_BYTES)
        FunctionalSimulator(engine="reference").run(
            assemble(LOOP_TRIPS_BY_WARP), gm, grid_dim=(2, 1))
        out = gm.read_array(0, np.uint32, 192)
        # accum(tid) = tid * trips(warp, cta); lane 0 of each warp stores
        # tid = w*32, so warp trip counts are recoverable from lane 1.
        trips = [int(out[cta * 96 + w * 32 + 1]) // (w * 32 + 1)
                 for cta in range(2) for w in range(3)]
        assert trips == [1, 2, 3, 2, 3, 4]


class TestGuardedWindows:
    """The guarded programs above really run guarded fused windows."""

    @pytest.mark.parametrize("name,src,grid", GUARDED_PROGRAMS,
                             ids=[n for n, _, _ in GUARDED_PROGRAMS])
    def test_loop_window_holds_every_guarded_member(self, name, src, grid):
        program = assemble(src)
        head = program.labels["LOOP"]
        for lanes in (32, program.meta.warps_per_cta * 32):
            decoded = predecode(program, lanes)
            size = decoded.lens[head]
            members = program.instructions[head:head + size]
            assert {inst.opcode for inst in members if inst.pred} == {
                "STS", "IADD3", "HMMA", "LDS", "LDG", "MOV"}, lanes
            # The mid-run ISETP rewrites P0: the @P0 member after it opens
            # the next window instead of reading the head's stale value.
            end = head + size
            assert program[end].pred is not None and program[end].pred.index == 0
            assert decoded.lens[end] > 1, lanes

    @pytest.mark.parametrize("name,src,grid", GUARDED_PROGRAMS,
                             ids=[n for n, _, _ in GUARDED_PROGRAMS])
    def test_stacked_window_refuses_only_a_warp_split_guard(self, name, src,
                                                            grid):
        from repro.perf import STATS
        from repro.sim.functional import FunctionalSimulator

        before = STATS.snapshot()
        FunctionalSimulator(engine="lockstep").run(
            assemble(src), GlobalMemory(GMEM_BYTES), grid_dim=grid)
        destacks = STATS.delta(before)["counters"].get("func.destacks", 0)
        assert destacks == (0 if name == "cta_uniform_guard" else grid[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_refusal_mutates_nothing(self, seed):
        """A guard that differs between warps makes the stacked window
        return DIVERGED before any member touches registers, predicates
        or memory."""
        program = assemble(WARP_UNIFORM_GUARD)
        assert program.meta.warps_per_cta == N_WARPS
        regs, _, gmem, smem = _random_state(seed, None)
        # Every predicate on in warps 0 and 2, off in warp 1.
        preds = np.tile(np.repeat([True, False, True], 32), (8, 1))
        preds[7] = True
        run = predecode(program, LANES).run_fns[program.labels["LOOP"]]
        global_mem, shared_mem = _make_mems(gmem, smem)
        cta = _CtaState(N_WARPS, CTAID, LANES, global_mem, shared_mem)
        cta.regs._data[:] = regs
        cta.preds._data[:] = preds
        assert run(cta) == DIVERGED
        np.testing.assert_array_equal(cta.regs._data, regs)
        np.testing.assert_array_equal(cta.preds._data, preds)
        np.testing.assert_array_equal(global_mem._words, gmem)
        np.testing.assert_array_equal(shared_mem._words, smem)


def test_lockstep_never_destacks_on_uniform_hot_ops():
    """The hot fast-path opcodes must actually stack (no silent DIVERGED)."""
    hot = ["MOV R3, R2", "IADD3 R0, R1, R2, R3", "IMAD R0, R1, R2, R3",
           "HMMA.1688.F16 R0, R8, R10, R4", "IMMA.8816.S8.S8 R0, R8, R10, R4",
           "LDS R5, [R2]", "STS [R2], R3"]
    for src in hot:
        program = assemble(src + "\nEXIT")
        regs, preds, gmem, smem = _random_state(7, _addr_setup(2))
        stacked = predecode(program, lanes=LANES)
        global_mem, shared_mem = _make_mems(gmem, smem)
        cta = _CtaState(N_WARPS, CTAID, LANES, global_mem, shared_mem)
        cta.regs._data[:] = regs
        cta.preds._data[:] = preds
        assert stacked.run_fns[0](cta) != DIVERGED, src
