"""The content-keyed code cache under ``predecode``.

Every hgemm call builds a new Program, so ``predecode`` looks its slots up
by (instruction, lanes) and its fused windows by their members' slot ids:
an equal program compiles nothing, a changed instruction recompiles only
its slot and its window, the cache stays at its bound, and cached, evicted
and concurrently compiled code all run bit-identically to the goldens.
"""

import dataclasses
import sys
import threading

import pytest

from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.hgemm import resolve_config
from repro.isa.operands import Imm
from repro.isa.program import Program
from repro.perf import STATS
from repro.sim import decode, functional

from .test_golden_functional import GOLDEN, _digest, _run

DECODED_ENGINES = [e for e in functional.ENGINES if e != "reference"]
COUNTERS = ("slot_hits", "slot_misses", "window_hits", "window_misses")


@pytest.fixture
def cold_cache():
    decode._SLOTS.clear()
    decode._WINDOWS.clear()


def _program(kernel="ours", m=256, n=256, k=32):
    config = resolve_config(kernel, m, n, k)
    return build_hgemm(config, HgemmProblem(
        m=m, n=n, k=k, a_addr=0, b_addr=1 << 20, c_addr=1 << 21))


def _counted(fn, *args):
    """(fn(*args), the decode.* counters it added)."""
    before = STATS.snapshot()
    result = fn(*args)
    counters = STATS.delta(before)["counters"]
    return result, {name: counters.get(f"decode.{name}", 0)
                    for name in COUNTERS}


def _check_golden(run, kernel, m, n, k):
    digest, retired, ctas, opcodes = GOLDEN[(kernel, m, n, k)]
    assert _digest(run.c) == digest
    assert run.stats.instructions_retired == retired
    assert run.stats.ctas_run == ctas
    assert run.stats.opcode_counts == opcodes


def test_equal_program_compiles_nothing(cold_cache):
    first, second = _program(), _program()
    assert first is not second and first.instructions == second.instructions
    lanes = first.meta.warps_per_cta * 32
    a, cold = _counted(decode.predecode, first, lanes)
    b, warm = _counted(decode.predecode, second, lanes)
    assert cold["slot_misses"] == len(set(first.instructions))
    assert cold["window_misses"] > 0
    windows = cold["window_hits"] + cold["window_misses"]
    assert warm == {"slot_hits": len(second), "slot_misses": 0,
                    "window_hits": windows, "window_misses": 0}
    assert (a.next_pc, a.lens, a.slot_ops, a.reads_clock) == (
        b.next_pc, b.lens, b.slot_ops, b.reads_clock)
    assert any(size > 1 for size in a.lens)
    for slot, size in enumerate(a.lens):
        if size == 1:   # window heads are fresh closures per program
            assert a.run_fns[slot] is b.run_fns[slot]
    # A relaunch of one program object compiles nothing either.
    _, relaunch = _counted(decode.predecode, second, lanes)
    assert relaunch == {"slot_hits": len(second), "slot_misses": 0,
                        "window_hits": windows, "window_misses": 0}


def test_each_lane_count_compiles_its_own_code(cold_cache):
    program = _program()
    stacked = program.meta.warps_per_cta * 32
    _, narrow = _counted(decode.predecode, program, 32)
    _, wide = _counted(decode.predecode, _program(), stacked)
    assert narrow["slot_misses"] == wide["slot_misses"] > 0
    assert wide["slot_hits"] == narrow["slot_hits"]


def test_changed_immediate_recompiles_its_slot_and_window(cold_cache):
    program = _program()
    lanes = program.meta.warps_per_cta * 32
    decoded, cold = _counted(decode.predecode, program, lanes)
    windows = cold["window_hits"] + cold["window_misses"]
    slot = next(pc for start, size in enumerate(decoded.lens) if size > 1
                for pc in range(start, start + size)
                if any(isinstance(op, Imm) for op in program[pc].srcs))
    inst = program[slot]
    changed = dataclasses.replace(inst, srcs=tuple(
        Imm(op.value ^ 0x5A5A) if isinstance(op, Imm) else op
        for op in inst.srcs))
    assert changed not in program.instructions
    instructions = list(program.instructions)
    instructions[slot] = changed
    variant = Program(instructions, program.meta, dict(program.labels))
    redecoded, counts = _counted(decode.predecode, variant, lanes)
    assert counts == {"slot_hits": len(program) - 1, "slot_misses": 1,
                      "window_hits": windows - 1, "window_misses": 1}
    assert redecoded.lens == decoded.lens


def test_bound_holds_and_evicted_code_recompiles_identically(
        cold_cache, monkeypatch):
    kernel, m, n, k = "ours", 256, 256, 32
    monkeypatch.setattr(decode._SLOTS, "bound", 64)
    monkeypatch.setattr(decode._WINDOWS, "bound", 2)
    for _ in range(2):
        run, counts = _counted(_run, kernel, m, n, k)
        assert len(decode._SLOTS) == 64
        assert len(decode._WINDOWS) == 2
        # Every slot of the ~700-slot kernel was evicted before its reuse.
        assert counts["slot_misses"] > 64
        _check_golden(run, kernel, m, n, k)


@pytest.mark.parametrize("engine", DECODED_ENGINES)
@pytest.mark.parametrize("kernel,m,n,k", sorted(GOLDEN))
def test_golden_digests_cold_and_warm(kernel, m, n, k, engine, monkeypatch):
    monkeypatch.setenv("REPRO_FUNC_ENGINE", engine)
    decode._SLOTS.clear()
    decode._WINDOWS.clear()
    run, cold = _counted(_run, kernel, m, n, k)
    _check_golden(run, kernel, m, n, k)
    assert cold["slot_misses"] > 0
    run, warm = _counted(_run, kernel, m, n, k)
    _check_golden(run, kernel, m, n, k)
    assert warm["slot_misses"] == warm["window_misses"] == 0
    assert warm["slot_hits"] > 0


def test_threads_compiling_at_once_match_serial(cold_cache):
    """More threads than cores race to fill a cold cache; each launch must
    still match the serial golden bit for bit."""
    kernel, m, n, k = "cublas", 256, 256, 32
    results, errors = [], []

    def launch():
        try:
            results.append(_run(kernel, m, n, k))
        except Exception as exc:  # reported below, with the others
            errors.append(exc)

    threads = [threading.Thread(target=launch) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == len(threads)
    for run in results:
        _check_golden(run, kernel, m, n, k)
