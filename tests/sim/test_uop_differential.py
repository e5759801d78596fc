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
    "MOV": [("MOV R3, R2", None)],
    "MOV32I": [("MOV32I R1, 0xDEADBEEF", None)],
    "IADD3": [("IADD3 R0, R1, R2, R3", None),
              ("IADD3 R0, R1, -1, RZ", None)],
    "IMAD": [("IMAD R0, R1, R2, R3", None),
             ("IMAD R0, R1, 4, 0x100", None)],
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

BRANCHY_PROGRAMS = [
    ("trips_by_warp", LOOP_TRIPS_BY_WARP, (2, 1)),
    ("predicated_skip", PREDICATED_SKIP, (2, 2)),
    ("branch_in_loop", BRANCH_IN_LOOP, (3, 1)),
    ("barrier_loop", BARRIER_LOOP, (2, 1)),
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
