"""The launch cache under ``build_hgemm`` and the code cache under
``predecode``.

``build_hgemm`` returns one shared program per (config, problem, spec),
and ``predecode`` keeps each program's assembled tables per lane count.
A program assembles from slots looked up by (instruction, lanes) and
fused windows looked up by their members' slot ids: an equal program
compiles nothing, a changed instruction recompiles only its slot and its
window, both caches stay at their bounds, a warm build encodes exactly
like a cold one, and cached, evicted and concurrently launched code all
run bit-identically to the goldens.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEVICES
from repro.core import builder
from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import ConfigError, ours_int8
from repro.core.hgemm import resolve_config
from repro.core.igemm import _shrink_int8
from repro.isa.encoding import encode_program
from repro.isa.operands import Imm
from repro.isa.program import Program
from repro.perf import STATS
from repro.sim import decode, functional

from .test_golden_functional import GOLDEN, _digest, _run

DECODED_ENGINES = [e for e in functional.ENGINES if e != "reference"]
COUNTERS = ("slot_hits", "slot_misses", "window_hits", "window_misses")


def _clear_caches():
    builder._PROGRAMS.clear()
    decode._SLOTS.clear()
    decode._WINDOWS.clear()


@pytest.fixture
def cold_cache():
    _clear_caches()
    yield
    _clear_caches()


def _program(kernel="ours", m=256, n=256, k=32):
    """A program built afresh: the launch cache is cleared first, so two
    calls return equal programs that are distinct objects."""
    builder._PROGRAMS.clear()
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
    # Slot and window closures alike come from the code cache.
    assert all(x is y for x, y in zip(a.run_fns, b.run_fns, strict=True))
    # A relaunch of one program object compiles nothing either: it gets
    # the program's decoding back.
    again, relaunch = _counted(decode.predecode, second, lanes)
    assert again is b
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
        builder._PROGRAMS.clear()   # a new program assembles its tables
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
    _clear_caches()
    run, cold = _counted(_run, kernel, m, n, k)
    _check_golden(run, kernel, m, n, k)
    assert cold["slot_misses"] > 0
    run, warm = _counted(_run, kernel, m, n, k)
    _check_golden(run, kernel, m, n, k)
    assert warm["slot_misses"] == warm["window_misses"] == 0
    assert warm["slot_hits"] > 0


def _launch_in_threads(kernel, m, n, k, count=4):
    """*count* threads launch one kernel at once, switching every 10 µs;
    returns their runs once every thread has finished without error."""
    results, errors = [], []

    def launch():
        try:
            results.append(_run(kernel, m, n, k))
        except Exception as exc:  # reported below, with the others
            errors.append(exc)

    threads = [threading.Thread(target=launch) for _ in range(count)]
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
    assert len(results) == count
    return results


def test_threads_compiling_at_once_match_serial(cold_cache):
    """More threads than cores race to fill a cold cache; each launch must
    still match the serial golden bit for bit.  The kernel runs two
    k-tiles, so its guarded windows meet both values of the "next tile
    exists" predicate."""
    kernel, m, n, k = "ours", 384, 256, 64
    for run in _launch_in_threads(kernel, m, n, k):
        _check_golden(run, kernel, m, n, k)


def test_threads_sharing_a_cached_program_match_serial(cold_cache):
    """Four threads launch one cached program and its predecoded tables at
    once; each launch matches the serial golden bit for bit.  The kernel
    runs two k-tiles, so its guarded windows meet both values of the
    "next tile exists" predicate."""
    kernel, m, n, k = "ours", 384, 256, 64
    _check_golden(_run(kernel, m, n, k), kernel, m, n, k)
    assert any(window and window.preds
               for window in decode._WINDOWS._entries.values())
    before = STATS.snapshot()
    runs = _launch_in_threads(kernel, m, n, k)
    counters = STATS.delta(before)["counters"]
    assert counters.get("core.build_hits") == len(runs)
    assert "core.build_misses" not in counters
    assert "decode.slot_misses" not in counters
    for run in runs:
        _check_golden(run, kernel, m, n, k)


# ------------------------------------------------------------ launch cache

PRESETS = ("ours", "cublas", "f32", "int8")
ADDRESSES = st.tuples(*[st.sampled_from((0, 256, 1 << 20, 1 << 28))] * 3)
#: (alpha, beta) pairs that compare equal in twos (signed zeros, ints),
#: so a key that missed what tells them apart serves a wrong program.
SCALARS = ((1.0, 0.0), (1, -0.0), (0.0, 0.0), (-0.0, 0), (0.5, 1.0))


def _config(preset, m, n, k, spec):
    if preset == "int8":
        return _shrink_int8(ours_int8(), m, n, k)
    if preset == "f32":
        return resolve_config("ours", m, n, k, "f32", spec)
    return resolve_config(preset, m, n, k, "f16", spec)


@settings(max_examples=15, deadline=None)
@given(devices=st.lists(st.sampled_from(sorted(DEVICES)), min_size=2,
                        max_size=2),
       preset=st.sampled_from(PRESETS),
       shape=st.tuples(st.sampled_from((64, 128)), st.sampled_from((64, 128)),
                       st.sampled_from((32, 64))),
       addresses=st.lists(ADDRESSES, min_size=2, max_size=2),
       scalars=st.permutations(SCALARS))
def test_warm_build_encodes_like_a_cold_build(devices, preset, shape,
                                              addresses, scalars):
    """Whatever is already in the launch cache, build_hgemm returns a
    program that encodes to the same bytes as a cold build, over devices,
    presets, shapes, alpha/beta and addresses: the key covers everything
    the encoding depends on."""
    m, n, k = shape
    if preset in ("f32", "int8"):   # alpha/beta scale the FP16 path only
        scalars = [(a, b) for a, b in scalars if a == 1 and b == 0]
    for device in devices:
        spec = DEVICES[device]
        try:
            config = _config(preset, m, n, k, spec)
            config.validate_against(spec)
        except ConfigError:
            continue   # no such kernel on this device
        for a_addr, b_addr, c_addr in addresses:
            for alpha, beta in scalars:
                problem = HgemmProblem(m, n, k, a_addr, b_addr, c_addr,
                                       alpha, beta)
                cold = builder._HgemmEmitter(config, problem, spec).build()
                warm = build_hgemm(config, problem, spec)
                assert warm is build_hgemm(config, problem, spec)
                assert warm == cold
                assert encode_program(warm) == encode_program(cold)


def test_cached_program_is_immutable_and_interned(cold_cache):
    first = _program()
    second = _program("ours", 256, 256, 64)
    assert isinstance(first.instructions, tuple)
    with pytest.raises(TypeError):
        first.labels["KLOOP"] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.instructions = ()
    shared = {id(inst) for inst in first.instructions}
    assert any(id(inst) in shared for inst in second.instructions)
    for inst in second.instructions:
        if inst in first.instructions:
            assert id(inst) in shared


def test_warm_relaunch_builds_nothing(cold_cache, monkeypatch):
    """A relaunch reuses the cached program and its decoding: it calls no
    group builder, HMMA or other, and still matches the golden."""
    builds = []
    for name, build in decode._GROUP_BUILDERS.items():
        def counted(key, payloads, _build=build):
            builds.append(key)
            return _build(key, payloads)
        monkeypatch.setitem(decode._GROUP_BUILDERS, name, counted)
    kernel, m, n, k = "ours", 256, 256, 32
    _check_golden(_run(kernel, m, n, k), kernel, m, n, k)
    assert any(key[0] == "hmma" for key in builds)
    cold = len(builds)
    before = STATS.snapshot()
    _check_golden(_run(kernel, m, n, k), kernel, m, n, k)
    counters = STATS.delta(before)["counters"]
    assert len(builds) == cold
    assert counters.get("core.build_hits") == 1
    assert "core.build_misses" not in counters
    assert "decode.slot_misses" not in counters
    assert "decode.window_misses" not in counters


def test_launch_cache_bound_holds_and_evicted_key_rebuilds(cold_cache,
                                                           monkeypatch):
    monkeypatch.setattr(builder._PROGRAMS, "bound", 2)
    config = resolve_config("ours", 256, 256, 32)
    problems = [HgemmProblem(256, 256, 32, c_addr=addr)
                for addr in (0, 1 << 20, 1 << 21)]
    first, *_ = [build_hgemm(config, problem) for problem in problems]
    assert len(builder._PROGRAMS) == 2
    rebuilt = build_hgemm(config, problems[0])
    assert rebuilt is not first and rebuilt == first
    assert encode_program(rebuilt) == encode_program(first)
    assert len(builder._PROGRAMS) == 2
    kernel, m, n, k = "ours", 256, 256, 32
    _check_golden(_run(kernel, m, n, k), kernel, m, n, k)
