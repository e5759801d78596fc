"""Cross-generation pinning: one simulator, three Tensor Core families.

Every engine family must agree *per generation* -- the functional engines
(lockstep / reference) bit-for-bit on the GEMM result, and the timing
engines (event / reference) cycle-for-cycle -- on a Volta (V100,
HMMA.884), a Turing (RTX2070, HMMA.1688) and an Ampere (A100, HMMA.16816)
device.  Golden digests freeze the V100 and A100 results the same way
``test_golden_cycles.py`` freezes Turing.
"""

import hashlib

import numpy as np
import pytest

from repro.arch.turing import A100, RTX2070, V100
from repro.core import hgemm, hgemm_reference
from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import adapt_for_arch, cublas_like
from repro.core.hgemm import _resolve_config
from repro.sim.functional import ENGINES as FUNC_ENGINES
from repro.sim.memory import GlobalMemory
from repro.sim.timing import ENGINES as TIMING_ENGINES
from repro.sim.timing import TimingSimulator

DEVICES = {"V100": V100, "RTX2070": RTX2070, "A100": A100}


def rand(shape, seed):
    return np.random.default_rng(seed).uniform(-2, 2, shape).astype(np.float16)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class TestFunctionalEnginesPerGeneration:
    """All functional engines produce one bit-exact result per device, and
    that result matches the per-``w_k`` rounding oracle."""

    M, N, K = 64, 64, 64

    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_engines_bit_identical(self, device, monkeypatch):
        spec = DEVICES[device]
        a, b = rand((self.M, self.K), 0), rand((self.K, self.N), 1)
        runs = {}
        for engine in FUNC_ENGINES:
            monkeypatch.setenv("REPRO_FUNC_ENGINE", engine)
            runs[engine] = hgemm(a, b, kernel="ours", spec=spec,
                                 return_run=True)
        first = runs[FUNC_ENGINES[0]]
        want = hgemm_reference(a, b, w_k=first.config.w_k)
        # The warp k-step follows the generation's native HMMA shape.
        assert first.config.w_k == spec.arch.hmma_k
        for engine, run in runs.items():
            assert run.config == first.config, engine
            np.testing.assert_array_equal(run.c, want, err_msg=engine)

    def test_generations_round_differently(self):
        # w_k=16 on Ampere means ONE rounding per 16-deep k-step where
        # Volta/Turing round every 8: the same problem gives different
        # (both correct) bits, which is why goldens are per-generation.
        a, b = rand((64, 512), 2), rand((512, 64), 3)
        c_turing = hgemm(a, b, kernel="ours", spec=RTX2070)
        c_ampere = hgemm(a, b, kernel="ours", spec=A100)
        np.testing.assert_array_equal(
            c_turing, hgemm_reference(a, b, w_k=8))
        np.testing.assert_array_equal(
            c_ampere, hgemm_reference(a, b, w_k=16))
        assert not np.array_equal(c_turing, c_ampere)


#: device -> digest of the 128x128x64 "ours"-preset result matrix.
FUNC_GOLDEN = {
    "V100": "9580e46e4fc98dd4",
    "A100": "d81589c9d15d72aa",
}


@pytest.mark.parametrize("device", sorted(FUNC_GOLDEN))
def test_functional_golden_digest(device):
    spec = DEVICES[device]
    a, b = rand((128, 64), 20), rand((64, 128), 21)
    c = hgemm(a, b, kernel="ours", spec=spec)
    np.testing.assert_array_equal(
        c, hgemm_reference(a, b, w_k=spec.arch.hmma_k))
    assert _digest(c) == FUNC_GOLDEN[device]


# --------------------------------------------------------------- timing

def _timing_run(spec, engine):
    config = adapt_for_arch(cublas_like(), spec.arch)
    problem = HgemmProblem(m=config.b_m, n=config.b_n, k=2 * config.b_k,
                           a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
    program = build_hgemm(config, problem, spec)
    return TimingSimulator(spec, engine=engine).run(
        program, GlobalMemory(16 << 20), num_ctas=2)


#: device -> pinned (cycles, instructions) for the adapted cublas-like
#: config at k = 2 * b_k, 2 CTAs -- both timing engines must reproduce it.
TIMING_GOLDEN = {
    "V100": (15570, 13336),
    "A100": (13913, 7040),
}


@pytest.mark.parametrize("device", sorted(TIMING_GOLDEN))
def test_timing_engines_cycle_identical(device):
    spec = DEVICES[device]
    results = {engine: _timing_run(spec, engine)
               for engine in TIMING_ENGINES}
    ref = results["reference"]
    for engine, result in results.items():
        assert result == ref, engine
    cycles, instructions = TIMING_GOLDEN[device]
    assert ref.cycles == cycles
    assert ref.instructions == instructions
    assert ref.opcode_counts["HMMA"] > 0


@pytest.mark.parametrize("device", sorted(TIMING_GOLDEN))
def test_timing_memory_matches_functional(device):
    """The timing engine's memory image equals the functional engines'.

    Regression guard for the phantom-iteration class of bug: an
    under-stalled loop-counter decrement let fast-HMMA generations read
    the stale counter and run one extra k-iteration -- consistently
    across both timing engines, so only a cross-family comparison like
    this one (or the pinned cycle counts above) can see it.
    """
    from repro.sim.functional import FunctionalSimulator

    spec = DEVICES[device]
    config = adapt_for_arch(cublas_like(), spec.arch)
    k = 2 * config.b_k
    problem = HgemmProblem(m=config.b_m, n=config.b_n, k=k,
                           a_addr=0, b_addr=4 << 20, c_addr=8 << 20)
    program = build_hgemm(config, problem, spec)
    mem_t = GlobalMemory(16 << 20)
    mem_f = GlobalMemory(16 << 20)
    a = rand((config.b_m, k), 31)
    b = rand((k, config.b_n), 32)
    for mem in (mem_t, mem_f):
        mem.write_array(0, a.ravel())
        mem.write_array(4 << 20, b.ravel())
    TimingSimulator(spec, engine="event").run(program, mem_t, num_ctas=1)
    FunctionalSimulator(engine="lockstep").run(program, mem_f,
                                               grid_dim=(1, 1))
    assert np.array_equal(mem_t._words, mem_f._words)


def test_resolved_presets_differ_by_generation():
    """The same preset resolves to generation-appropriate blocking."""
    cfgs = {name: _resolve_config("ours", 256, 256, 64, spec=spec)
            for name, spec in DEVICES.items()}
    assert cfgs["V100"].w_k == 8 and cfgs["RTX2070"].w_k == 8
    assert cfgs["A100"].w_k == 16
    # SM80's 4-register A fragments force the warp tile down to 64 rows.
    assert cfgs["A100"].w_m <= 64
