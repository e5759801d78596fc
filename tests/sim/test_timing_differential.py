"""Differential fuzz: the two timing engines are cycle-identical.

Mirrors ``tests/sim/test_uop_differential.py`` one layer up: where that
suite pins the *functional* engines to one semantics table, this one pins
the *timing* engines (``reference`` and ``event``) to one cycle-for-cycle
model.  Randomized programs covering every opcode class -- ALU, shifts,
logic, predicates, special registers, clock reads, HFMA2, all three MMA
forms, global/shared loads and stores at every width, barriers and loops --
with random stall counts, random scoreboard write/wait masks and random
yield flags run on both engines over both GpuSpecs, and the complete
:class:`~repro.sim.timing.TimingResult` must compare equal: total cycles,
instruction counts, per-opcode counts (hence ``cpi_of``), per-pipe busy
time (hence ``pipe_utilization``), stall-reason breakdowns and memory
traffic counters.  Final global-memory images must match bit-for-bit too,
which makes every CS2R.CLOCKLO snapshot a self-check: a one-cycle issue
divergence anywhere changes the stored clock values.  Each program ends by
storing every register its loop body writes, so a wrong value -- an ALU
result, a load, an MMA issue plan's D -- changes the image as well, and
the MMA runs take independent accumulators, so issue plans form (the
tests assert that they do).

Because the event engine's block-status caches, issue plans and compiled
closures are all *derived* views of the reference semantics, any mismatch
here is a bug in the event engine's bookkeeping, not model ambiguity.
"""

import numpy as np
import pytest

from repro.arch import RTX2070, T4
from repro.isa import Pred, ProgramBuilder, Reg
from repro.isa.operands import RZ
from repro.perf import STATS
from repro.sim.memory import GlobalMemory
from repro.sim.timing import TimingSimulator

# Random register garbage routinely decodes to fp16 NaN/Inf; both engines
# propagate them identically, so the IEEE warnings are noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

GMEM_BYTES = 1 << 18
#: Per-thread register dumps (at most 384 bytes each, up to 2 CTAs x 256
#: threads) start here, above every address the programs load or store
#: before.
DUMP = 0x10000

#: Opcodes every generated program is guaranteed to exercise.
EXPECTED_OPCODES = {
    "MOV", "MOV32I", "IADD3", "IMAD", "SHF", "LOP3", "ISETP", "SEL", "S2R",
    "CS2R", "HFMA2", "HMMA", "IMMA", "LDG", "STG", "LDS", "STS", "NOP",
    "BAR", "BRA", "EXIT",
}

#: Opcodes each random program issues under a guard that is on in every
#: lane (the event engine's compiled path), off in every lane and
#: lane-mixed (both through its generic `_issue`).
GUARDED_OPCODES = ("LDG", "STG", "LDS", "STS", "IADD3", "ISETP")


def _mma_fragments(b):
    """Non-zero A fragments R8-R9, so every MMA's D depends on A x B."""
    b.imad(8, Reg(2), 0x10001, 0x3C003C00, stall=6)
    b.imad(9, Reg(2), 0x20002, 0x38003800, stall=6)


def _dump_registers(b, block, last):
    """Epilogue: store R10..R*last* of every thread, one STG.128 per four
    registers, at a slot of ``4 * (last - 9)`` bytes per thread of the
    grid."""
    b.s2r(6, "SR_CTAID.X", stall=6)
    b.imad(6, Reg(6), block, Reg(2), stall=6)
    b.imad(5, Reg(6), 4 * (last - 9), DUMP, stall=6)
    for r in range(10, last + 1, 4):
        b.stg(5, r, offset=4 * (r - 10), width=128, stall=2)


def _random_program(seed):
    """One randomized multi-warp kernel: a short loop whose body interleaves
    every opcode class in shuffled order with random control fields, plus a
    straight run of independent MMAs (batched by the event engine's issue
    plans) and an STS burst (fills the MIO queue, exercising the MIO-full
    stall path)."""
    rng = np.random.default_rng(seed)
    block = int(rng.choice([32, 64, 128, 256]))
    b = ProgramBuilder(name=f"fuzz{seed}", num_regs=128, smem_bytes=8192,
                       block_dim=block)

    def ctrl(max_stall=8):
        kw = {"stall": int(rng.integers(1, max_stall + 1))}
        if rng.random() < 0.25:
            waits = np.flatnonzero(rng.random(6) < 0.3)
            if waits.size:
                kw["wait"] = tuple(int(x) for x in waits)
        if rng.random() < 0.15:
            kw["wb"] = int(rng.integers(0, 6))
        if rng.random() < 0.10:
            kw["rb"] = int(rng.integers(0, 6))
        if rng.random() < 0.10:
            kw["yield_flag"] = True
        return kw

    def rand_width():
        return int(rng.choice([32, 64, 128]))

    # Prologue: lane-strided, 16-byte-aligned addresses (valid for every
    # access width), the guards, and a uniform loop counter.  P1 (tid < 64)
    # is uniform within each warp but differs between warps; P3 is on in
    # every lane (so !P3 is off in every lane); P5 (odd tid) is lane-mixed.
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), 16, 0x1000, stall=6)   # global address
    b.imad(4, Reg(2), 16, 0, stall=6)        # shared address
    b.isetp(Pred(1), Reg(2), 64, cmp="LT", stall=6)
    b.isetp(Pred(3), Reg(2), 0, cmp="GE", stall=6)
    b.lop3_and(7, Reg(2), 1, stall=6)
    b.isetp(Pred(5), Reg(7), 0, cmp="NE", stall=6)
    b.mov32i(1, int(rng.integers(2, 4)), stall=6)
    _mma_fragments(b)

    # The loop body: one emitter per opcode class, shuffled, each with
    # randomized control fields.  LDG writes a scoreboard a later LDS waits
    # on, so the variable-latency release path is always crossed.
    wb = int(rng.integers(0, 6))
    body = [
        lambda: b.mov(10, Reg(3), **ctrl()),
        lambda: b.mov(11, Reg(2), pred=Pred(1), **ctrl()),  # predicated
        lambda: b.mov32i(12, int(rng.integers(0, 1 << 31)), **ctrl()),
        lambda: b.iadd3(13, Reg(10), Reg(12), Reg(2), **ctrl()),
        lambda: b.iadd3(RZ, Reg(13), Reg(14), **ctrl()),  # write discarded
        lambda: b.imad(14, Reg(2), 3, 7, **ctrl()),
        lambda: b.shf_l(15, Reg(2), int(rng.integers(1, 8)), **ctrl()),
        lambda: b.shf_r(16, Reg(13), Reg(2), **ctrl()),
        lambda: b.lop3_and(17, Reg(13), Reg(14), **ctrl()),
        lambda: b.lop3_or(18, Reg(2), int(rng.integers(0, 256)), **ctrl()),
        lambda: b.lop3_xor(19, Reg(17), Reg(18), **ctrl()),
        lambda: b.isetp(Pred(2), Reg(13), Reg(14),
                        cmp=str(rng.choice(["LT", "GE", "NE"])), **ctrl()),
        lambda: b.sel(20, Reg(13), Reg(14), Pred(1), **ctrl()),
        lambda: b.s2r(21, str(rng.choice(["SR_LANEID", "SR_CTAID.X"])),
                      **ctrl()),
        lambda: b.cs2r_clock(22, **ctrl()),
        lambda: b.hfma2(23, Reg(13), Reg(14), Reg(17), **ctrl()),
        lambda: b.hmma_884(48, 8, 10, 48, **ctrl()),
        lambda: b.hmma_1688(44, 8, 10, 44, f32=True, **ctrl()),
        lambda: b.imma_8816(52, 8, 10, 52, **ctrl()),
        lambda: b.ldg(24, 3, offset=0, width=rand_width(), wb=wb,
                      **{k: v for k, v in ctrl().items() if k != "wb"}),
        lambda: b.ldg(28, 3, offset=64,
                      width=rand_width(), bypass_l1=True, **ctrl()),
        lambda: b.stg(3, 13, offset=0x2000, width=32, **ctrl()),
        lambda: b.lds(32, 4, offset=0, width=rand_width(),
                      wait=(wb,), stall=int(rng.integers(1, 9))),
        lambda: b.sts(4, 13, offset=0, width=rand_width(), **ctrl()),
        lambda: b.nop(**ctrl()),
    ]
    # Guarded slots of every compiled kind, under each kind of guard, with
    # destinations (R74-R100, P6) of their own that the epilogue dumps.
    guards = (Pred(3), Pred(3, negated=True),
              Pred(5, negated=bool(rng.integers(0, 2))))
    for i, guard in enumerate(guards):
        body += [
            lambda i=i, g=guard: b.ldg(74 + 4 * i, 3, offset=0x100,
                                       width=rand_width(), pred=g, **ctrl()),
            lambda i=i, g=guard: b.stg(3, 13, offset=0x4000 + 0x1000 * i,
                                       width=rand_width(), pred=g, **ctrl()),
            lambda i=i, g=guard: b.lds(86 + 4 * i, 4, offset=0,
                                       width=rand_width(), pred=g, **ctrl()),
            lambda g=guard: b.sts(4, 13, offset=0, width=rand_width(),
                                  pred=g, **ctrl()),
            lambda i=i, g=guard: b.iadd3(98 + i, Reg(13), Reg(2), i + 1,
                                         pred=g, **ctrl()),
            lambda i=i, g=guard: b.isetp(Pred(6), Reg(13), Reg(14 + i),
                                         cmp="LT", pred=g, **ctrl()),
        ]

    b.label("LOOP")
    rng.shuffle(body)
    for emit in body:
        emit()
    # Straight MMA run on independent accumulators: one issue plan.
    for i in range(int(rng.integers(4, 9))):
        b.hmma_1688(56 + 2 * i, 8, 10, 56 + 2 * i, stall=8)
    # STS burst at stall=1: overruns the MIO queue depth.
    for _ in range(int(rng.integers(8, 14))):
        b.sts(4, 14, offset=4096, width=32, stall=1)
    b.bar_sync(stall=1)
    b.iadd3(1, Reg(1), -1, stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    # Clock epilogue: stores the final cycle, so any issue-timing divergence
    # between engines becomes a memory-image mismatch.
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    b.sel(37, Reg(13), Reg(14), Pred(2), stall=6)   # the body's ISETP
    b.sel(101, Reg(13), Reg(14), Pred(6), stall=6)  # the guarded ISETPs
    _dump_registers(b, block, 105)
    b.exit()
    return b.build(), 1 + seed % 2


def _run(spec, program, num_ctas, engine):
    """(result, memory, issue plans formed) of one timed run."""
    gm = GlobalMemory(GMEM_BYTES)
    fill = np.random.default_rng(99)
    gm._words[:] = fill.integers(0, 1 << 32, GMEM_BYTES // 4, dtype=np.uint32)
    sim = TimingSimulator(spec, engine=engine)
    before = STATS.snapshot()
    result = sim.run(program, gm, num_ctas=num_ctas)
    plans = STATS.delta(before)["counters"].get("sim.plans", 0)
    return result, gm, plans


def _record_guarded_issues(monkeypatch):
    """Record the opcode of every predicated issue, by the path it takes:
    ``compiled`` (`_issue_fast`) or ``generic`` (`_issue`)."""
    paths = {"compiled": set(), "generic": set()}
    for name, path in (("_issue_fast", "compiled"), ("_issue", "generic")):
        issue = getattr(TimingSimulator, name)

        def recorded(self, warp, dec, *args, _issue=issue, _path=path):
            if dec.inst.pred is not None:
                paths[_path].add(dec.opcode)
            return _issue(self, warp, dec, *args)

        monkeypatch.setattr(TimingSimulator, name, recorded)
    return paths


@pytest.mark.parametrize("spec", [RTX2070, T4], ids=["rtx2070", "t4"])
@pytest.mark.parametrize("seed", range(6))
def test_engines_bit_identical(spec, seed, monkeypatch):
    program, num_ctas = _random_program(seed)
    ref, ref_gm, _ = _run(spec, program, num_ctas, "reference")
    paths = _record_guarded_issues(monkeypatch)
    evt, evt_gm, plans = _run(spec, program, num_ctas, "event")
    assert plans > 0   # the MMA run's values came from an issue plan
    # Every guarded kind issued compiled (guard on in every lane) and
    # through `_issue` (guard off everywhere, or lane-mixed).
    for opcode in GUARDED_OPCODES:
        assert opcode in paths["compiled"] and opcode in paths["generic"]

    # The whole result object: cycles, instructions, opcode counts, pipe
    # busy totals, stall reasons, traffic counters.
    assert evt == ref

    # Derived views agree for every opcode and pipe the run touched (and
    # for pipes it did not).
    assert set(ref.opcode_counts) >= EXPECTED_OPCODES
    for opcode in ref.opcode_counts:
        assert evt.cpi_of(opcode) == ref.cpi_of(opcode)
    for pipe in ("tensor", "alu", "fma", "lsu", "xu-not-modelled"):
        assert evt.pipe_utilization(pipe) == ref.pipe_utilization(pipe)

    # Bit-identical memory images: every stored CS2R clock snapshot is an
    # issue-cycle witness, and the register dump a witness of every value.
    np.testing.assert_array_equal(evt_gm._words, ref_gm._words)


# ------------------------------------------------------ loop programs

def _steady_loop_program(seed, iters=48):
    """A uniform steady-state loop: every iteration issues the same slots
    with the same control fields, so the schedule settles into one period.
    Loop-carried data (the counter feeds the ALU chain and the STS payload)
    changes the values every iteration even though the schedule does not."""
    rng = np.random.default_rng(seed)
    block = int(rng.choice([32, 64]))
    b = ProgramBuilder(name=f"steady{seed}", num_regs=64, smem_bytes=8192,
                       block_dim=block)
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(4, Reg(2), 16, 0, stall=6)         # shared address
    b.imad(3, Reg(2), 16, 0x1000, stall=6)    # global address
    b.mov32i(1, iters, stall=6)
    _mma_fragments(b)
    width = int(rng.choice([32, 64, 128]))
    mma_run = int(rng.integers(3, 7))
    b.label("LOOP")
    b.iadd3(10, Reg(2), 5, Reg(1), stall=6)
    b.hfma2(23, Reg(10), Reg(2), Reg(10), stall=4)
    for i in range(mma_run):
        b.hmma_1688(40 + 2 * i, 8, 10, 40 + 2 * i, stall=8)
    b.sts(4, 10, offset=0, width=width, stall=4)
    b.lds(32, 4, offset=0, width=width, wb=0, stall=6)
    b.bar_sync(stall=2)
    b.iadd3(1, Reg(1), -1, wait=(0,), stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    _dump_registers(b, block, 53)
    b.exit()
    return b.build()


def _aperiodic_loop_program(iters=48):
    """A loop whose iteration *timing* never settles: the LDS/STS address
    is ``tid * counter * 4``, so the bank-conflict multiplier follows
    gcd(counter, 32) -- a ruler sequence, and no address pattern repeats
    (every shared-memory access misses the compiled slot's pattern memo)."""
    b = ProgramBuilder(name="aperiodic", num_regs=64, smem_bytes=8192,
                       block_dim=32)
    b.s2r(2, "SR_TID.X", stall=6)
    b.mov32i(1, iters, stall=6)
    b.imad(3, Reg(2), 16, 0x1000, stall=6)
    b.label("LOOP")
    b.imad(5, Reg(2), Reg(1), 0, stall=6)     # tid * counter
    b.shf_l(6, Reg(5), 2, stall=6)            # -> byte address
    b.lds(32, 6, offset=0, width=32, stall=6)
    b.sts(6, 2, offset=0, width=32, stall=4)
    b.iadd3(1, Reg(1), -1, stall=6)
    b.isetp(Pred(0), Reg(1), 0, cmp="GT", stall=6)
    b.bra("LOOP", pred=Pred(0), stall=5)
    b.cs2r_clock(36, stall=2)
    b.stg(3, 36, offset=0x3000, width=32, stall=4)
    b.exit()
    return b.build()


def _assert_matches_reference(program):
    """Compare the engines on *program*; returns the event run's plans."""
    ref, ref_gm, _ = _run(RTX2070, program, 1, "reference")
    evt, evt_gm, plans = _run(RTX2070, program, 1, "event")
    assert evt == ref
    np.testing.assert_array_equal(evt_gm._words, ref_gm._words)
    return plans


@pytest.mark.parametrize("seed", range(4))
def test_steady_loop_matches_reference(seed):
    """A long steady-state loop with loop-carried data: the event engine
    stays bit-identical to the reference engine on every iteration."""
    assert _assert_matches_reference(_steady_loop_program(seed)) > 0


def test_aperiodic_loop_matches_reference():
    """A loop whose bank-conflict pattern never repeats: the event engine's
    per-pattern memos miss every time and must still match exactly."""
    _assert_matches_reference(_aperiodic_loop_program())


def test_default_engine_is_event(monkeypatch):
    monkeypatch.delenv("REPRO_TIMING_ENGINE", raising=False)
    assert TimingSimulator(RTX2070).engine == "event"
    monkeypatch.setenv("REPRO_TIMING_ENGINE", "reference")
    assert TimingSimulator(RTX2070).engine == "reference"
    monkeypatch.setenv("REPRO_TIMING_ENGINE", "bogus")
    with pytest.raises(ValueError, match="REPRO_TIMING_ENGINE"):
        TimingSimulator(RTX2070)


# -------------------------------------------------- per-warp issue cycles

def _issue_sequences(monkeypatch, run, engine):
    """Every warp's ``(cycle, pc)`` issue sequence while *run(engine)*
    runs, keyed by ``(CTA slot, warp)``, and whether an issue left the MIO
    queue full (read from the event engine's gate), recorded by wrapping
    the engines' issue entry points.  Issues of other simulators -- a
    watchdog's reference rerun under ``REPRO_GUARD`` -- are left out."""
    sequences, full = {}, []
    issue, issue_fast = TimingSimulator._issue, TimingSimulator._issue_fast

    def record(sim, warp, cycle):
        if sim.engine == engine:
            sequences.setdefault((warp.cta_slot, warp.warp_id), []).append(
                (cycle, warp.pc))

    def recorded(self, warp, dec, cycle, pipes, pipe_key, mio, *rest):
        record(self, warp, cycle)
        issue(self, warp, dec, cycle, pipes, pipe_key, mio, *rest)
        full.append(cycle < getattr(mio, "full_until", 0))

    def recorded_fast(self, warp, dec, kindc, fn, aux, cycle, pipes,
                      pipe_key, mio, *rest):
        record(self, warp, cycle)
        issue_fast(self, warp, dec, kindc, fn, aux, cycle, pipes, pipe_key,
                   mio, *rest)
        full.append(cycle < mio.full_until)

    with monkeypatch.context() as patch:
        patch.setattr(TimingSimulator, "_issue", recorded)
        patch.setattr(TimingSimulator, "_issue_fast", recorded_fast)
        run(engine)
    return sequences, any(full)


def _fuzz_case(spec, seed):
    program, num_ctas = _random_program(seed)
    return lambda engine: _run(spec, program, num_ctas, engine)


def _loop_case(program):
    return lambda engine: _run(RTX2070, program, 1, engine)


def _table2_stream_case(engine):
    """Table II's DRAM stream, two loops instead of 24: eight warps of
    back-to-back LDG.128s keep the MIO queue full."""
    from repro.bench.memband import _stream_program

    TimingSimulator(RTX2070, bandwidth_share=1.0 / RTX2070.num_sms,
                    engine=engine).run(_stream_program(32, 2, advance=True),
                                       GlobalMemory(1 << 20))


def _cublas_leg_case(engine):
    """A two-iteration SM-profile leg of the cuBLAS-like kernel, two CTAs
    resident, as the performance model runs it."""
    from repro.core import cublas_like
    from repro.core.builder import HgemmProblem, build_hgemm
    from repro.core.config import adapt_for_arch

    config = adapt_for_arch(cublas_like(), RTX2070.arch)
    problem = HgemmProblem(m=config.b_m, n=config.b_n, k=2 * config.b_k,
                           a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
    TimingSimulator(RTX2070, engine=engine).run(
        build_hgemm(config, problem, RTX2070),
        GlobalMemory(16 << 20, mapped=True), num_ctas=2)


ISSUE_CASES = {
    **{f"fuzz{seed}-{spec.name.lower()}": _fuzz_case(spec, seed)
       for spec in (RTX2070, T4) for seed in range(6)},
    **{f"steady{seed}": _loop_case(_steady_loop_program(seed))
       for seed in range(4)},
    "aperiodic": _loop_case(_aperiodic_loop_program()),
    "table2-stream": _table2_stream_case,
    "cublas-leg": _cublas_leg_case,
}


@pytest.mark.parametrize("case", sorted(ISSUE_CASES))
def test_per_warp_issue_cycles_match(case, monkeypatch):
    """Each warp issues the same instructions at the same cycles on both
    engines.  Run totals could hide one warp released from a block a
    cycle early and another a cycle late; the sequences cannot."""
    run = ISSUE_CASES[case]
    ref, _ = _issue_sequences(monkeypatch, run, "reference")
    evt, mio_filled = _issue_sequences(monkeypatch, run, "event")
    assert evt == ref
    if case == "table2-stream":
        assert mio_filled


# ----------------------------------------------------------- faulting access

#: A faulting access in a timing run -- opcode, width in bits, the base
#: added to ``tid * 16`` and the immediate offset -- and the exception both
#: engines raise: the memory's own check, never a memo's.
FAULTS = {
    "lds-misaligned": ("lds", 128, 4, 0, ValueError,
                       "misaligned 16-byte shared access at 0x4"),
    "lds-past-end": ("lds", 128, 0x20000, 0, IndexError,
                     "shared access [0x20000, 0x20200) outside the "
                     "0x1000-byte shared memory"),
    "sts-misaligned": ("sts", 64, 4, 0, ValueError,
                       "misaligned 8-byte shared access at 0x4"),
    "sts-negative": ("sts", 64, 0, -16, IndexError,
                     "shared access [-0x10, 0x1e8) outside the 0x1000-byte "
                     "shared memory"),
    "ldg-misaligned": ("ldg", 128, 4, 0, ValueError,
                       "misaligned 16-byte global access at 0x4"),
    "ldg-negative": ("ldg", 128, 0, -16, IndexError,
                     "global access [-0x10, 0x1f0) outside the 0x10000-byte "
                     "global memory"),
    "stg-past-end": ("stg", 32, 0x20000, 0, IndexError,
                     "global access [0x20000, 0x201f4) outside the "
                     "0x10000-byte global memory"),
}


@pytest.mark.parametrize("engine", ["reference", "event"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faulting_access_raises_alike(fault, engine):
    op, width, base, offset, error, text = FAULTS[fault]
    b = ProgramBuilder(name=fault, num_regs=40, smem_bytes=4096,
                       block_dim=64)
    b.s2r(2, "SR_TID.X", stall=6)
    b.imad(3, Reg(2), 16, base, stall=6)
    if op in ("lds", "ldg"):
        getattr(b, op)(8, 3, offset=offset, width=width, stall=2)
    else:
        getattr(b, op)(3, 8, offset=offset, width=width, stall=2)
    b.exit()
    with pytest.raises(error) as raised:
        TimingSimulator(RTX2070, engine=engine).run(
            b.build(), GlobalMemory(1 << 16), num_ctas=2)
    assert str(raised.value) == text
