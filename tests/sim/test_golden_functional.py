"""Golden functional regression: every execution engine is pinned bit-exactly.

These values were captured from the seed interpreter (pre-predecode).
The decoded-op engine, the warp-lockstep engine and the window scheduler's
batched fast paths must all be provably behaviour-preserving: for every
launch they must retire the same opcode mix and produce the same C matrix
to the bit.  Any change to a digest or count
here is a semantics change and must be deliberate.

The digests hash the raw float16 output bytes, so they also pin the HMMA
precision model (per-step FP16 accumulator rounding, BLAS product order).
The IGEMM goldens pin the ``IMMA.8816`` batched fast paths and the int8
epilogue the same way (raw int32 bytes, exact integer arithmetic).
"""

import hashlib

import numpy as np
import pytest

from repro.core import hgemm, igemm
from repro.sim import functional


#: (kernel, m, n, k) -> (sha256 of C bytes, instructions retired, CTAs,
#: full retired-opcode counts).
GOLDEN = {
    ("ours", 256, 256, 32): (
        "86f25e2f809d4b208422202515dfaf429eadd80e063c2aaa1e1b791eb94408fa",
        5864, 1,
        {"BAR": 24, "BRA": 8, "EXIT": 8, "HMMA": 2048, "IADD3": 304,
         "IMAD": 144, "ISETP": 16, "LDG": 128, "LDS": 848, "LOP3": 40,
         "MOV": 1032, "MOV32I": 24, "NOP": 24, "S2R": 24, "SHF": 40,
         "STG": 1024, "STS": 128},
    ),
    ("ours", 384, 256, 64): (
        "f33a21558fcbce865edadaabfc7133ccd727e25ede9820d6c893d8472c31209f",
        15408, 3,
        {"BAR": 120, "BRA": 48, "EXIT": 24, "HMMA": 6144, "IADD3": 840,
         "IMAD": 432, "ISETP": 72, "LDG": 432, "LDS": 3312, "LOP3": 120,
         "MOV": 1560, "MOV32I": 72, "NOP": 72, "S2R": 72, "SHF": 120,
         "STG": 1536, "STS": 432},
    ),
    ("cublas", 256, 256, 32): (
        "86f25e2f809d4b208422202515dfaf429eadd80e063c2aaa1e1b791eb94408fa",
        7056, 4,
        {"BAR": 48, "BRA": 16, "EXIT": 16, "HMMA": 2048, "IADD3": 544,
         "IMAD": 288, "ISETP": 32, "LDG": 256, "LDS": 1184, "LOP3": 80,
         "MOV": 1040, "MOV32I": 48, "NOP": 48, "S2R": 48, "SHF": 80,
         "STG": 1024, "STS": 256},
    ),
    ("cublas", 384, 256, 64): (
        "f33a21558fcbce865edadaabfc7133ccd727e25ede9820d6c893d8472c31209f",
        17160, 6,
        {"BAR": 72, "BRA": 24, "EXIT": 24, "HMMA": 6144, "IADD3": 1392,
         "IMAD": 816, "ISETP": 48, "LDG": 768, "LDS": 3312, "LOP3": 360,
         "MOV": 1560, "MOV32I": 72, "NOP": 72, "S2R": 72, "SHF": 120,
         "STG": 1536, "STS": 768},
    ),
}


#: (m, n, k) -> (sha256 of int32 C bytes, instructions retired, CTAs,
#: full retired-opcode counts) for the generated IMMA.8816 kernel.
GOLDEN_IGEMM = {
    (128, 128, 32): (
        "8eea040b3a29d65179a05df09a08992424714f4c51f038959c9646e283ce5ee4",
        1792, 1,
        {"BAR": 12, "BRA": 4, "EXIT": 4, "IADD3": 104, "IMAD": 72,
         "IMMA": 512, "ISETP": 8, "LDG": 32, "LDS": 164, "LOP3": 20,
         "MOV": 516, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20,
         "STG": 256, "STS": 32},
    ),
    (192, 128, 64): (
        "b46cc9b641f98e5782aae9c447d6b2e950d39900756ffc89006799c5d546978e",
        3984, 3,
        {"BAR": 18, "BRA": 6, "EXIT": 6, "IADD3": 300, "IMAD": 108,
         "IMMA": 1536, "ISETP": 12, "LDG": 144, "LDS": 438, "LOP3": 30,
         "MOV": 774, "MOV32I": 18, "NOP": 18, "S2R": 18, "SHF": 30,
         "STG": 384, "STS": 144},
    ),
}


#: (device, kernel, m, n, k) -> (sha256 of C bytes, instructions retired,
#: CTAs, full retired-opcode counts) of one-CTA launches whose k-loop runs
#: three or four times, so its back edge and both values of the "next tile
#: exists" predicate are exercised on every generation.  Captured from the
#: reference engine.
GOLDEN_KLOOP = {
    ("RTX2070", "ours", 128, 128, 128): (
        "dc70b1bf09cb21f422d50119cac92c33d7f9c573013aa13ec020365a9e84c29d",
        4416, 1,
        {"BAR": 36, "BRA": 16, "EXIT": 4, "HMMA": 2048, "IADD3": 244,
         "IMAD": 72, "ISETP": 20, "LDG": 160, "LDS": 1064, "LOP3": 20,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 160},
    ),
    ("RTX2070", "cublas", 128, 128, 192): (
        "aeb50849bb6ba82ebf9cbcfd45fc9468af30c0b3d6a392354c232c90937552e3",
        6356, 1,
        {"BAR": 28, "BRA": 12, "EXIT": 4, "HMMA": 3072, "IADD3": 368,
         "IMAD": 136, "ISETP": 16, "LDG": 256, "LDS": 1576, "LOP3": 60,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 256},
    ),
    ("V100", "ours", 128, 128, 128): (
        "dc70b1bf09cb21f422d50119cac92c33d7f9c573013aa13ec020365a9e84c29d",
        6476, 1,
        {"BAR": 36, "BRA": 16, "EXIT": 4, "HMMA": 4096, "IADD3": 260,
         "IMAD": 72, "ISETP": 20, "LDG": 160, "LDS": 1060, "LOP3": 20,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 160},
    ),
    ("V100", "cublas", 128, 128, 192): (
        "aeb50849bb6ba82ebf9cbcfd45fc9468af30c0b3d6a392354c232c90937552e3",
        9440, 1,
        {"BAR": 28, "BRA": 12, "EXIT": 4, "HMMA": 6144, "IADD3": 384,
         "IMAD": 136, "ISETP": 16, "LDG": 256, "LDS": 1572, "LOP3": 60,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 256},
    ),
    ("A100", "ours", 128, 128, 128): (
        "9fcb7e0530b60ebd0248c311d0e42caba34c1ed79633606c489b33eb4caf30f4",
        3432, 1,
        {"BAR": 36, "BRA": 16, "EXIT": 4, "HMMA": 1024, "IADD3": 244,
         "IMAD": 72, "ISETP": 20, "LDG": 160, "LDS": 1104, "LOP3": 20,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 160},
    ),
    ("A100", "cublas", 128, 128, 192): (
        "8927aadc584c50c411adc4e7676f64dcf544fa87d50c2dee9db7d4f7fd18ae19",
        4756, 1,
        {"BAR": 28, "BRA": 12, "EXIT": 4, "HMMA": 1536, "IADD3": 368,
         "IMAD": 72, "ISETP": 16, "LDG": 256, "LDS": 1616, "LOP3": 20,
         "MOV": 260, "MOV32I": 12, "NOP": 12, "S2R": 12, "SHF": 20, "STG": 256,
         "STS": 256},
    ),
}


def _inputs(m, n, k):
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, (m, k)).astype(np.float16)
    b = rng.uniform(-2, 2, (k, n)).astype(np.float16)
    return a, b


def _int8_inputs(m, n, k):
    rng = np.random.default_rng(11)
    a = rng.integers(-128, 128, (m, k), dtype=np.int8)
    b = rng.integers(-128, 128, (k, n), dtype=np.int8)
    return a, b


def _digest(c) -> str:
    return hashlib.sha256(np.ascontiguousarray(c).tobytes()).hexdigest()


def _run(kernel, m, n, k):
    a, b = _inputs(m, n, k)
    return hgemm(a, b, kernel=kernel, return_run=True)


@pytest.mark.parametrize("engine", functional.ENGINES)
@pytest.mark.parametrize("kernel,m,n,k", sorted(GOLDEN))
def test_golden_functional(kernel, m, n, k, engine, monkeypatch):
    monkeypatch.setenv("REPRO_FUNC_ENGINE", engine)
    digest, retired, ctas, opcodes = GOLDEN[(kernel, m, n, k)]
    run = _run(kernel, m, n, k)
    assert _digest(run.c) == digest
    assert run.stats.instructions_retired == retired
    assert run.stats.ctas_run == ctas
    assert run.stats.opcode_counts == opcodes


@pytest.mark.parametrize("engine", functional.ENGINES)
@pytest.mark.parametrize("m,n,k", sorted(GOLDEN_IGEMM))
def test_golden_igemm(m, n, k, engine, monkeypatch):
    """IMMA.8816 kernels retire identically on every engine; the int32
    digests were captured from the reference interpreter."""
    monkeypatch.setenv("REPRO_FUNC_ENGINE", engine)
    digest, retired, ctas, opcodes = GOLDEN_IGEMM[(m, n, k)]
    a, b = _int8_inputs(m, n, k)
    run = igemm(a, b, return_run=True)
    assert _digest(run.c) == digest
    assert run.stats.instructions_retired == retired
    assert run.stats.ctas_run == ctas
    assert run.stats.opcode_counts == opcodes


@pytest.mark.parametrize("engine", functional.ENGINES)
@pytest.mark.parametrize("device,kernel,m,n,k", sorted(GOLDEN_KLOOP))
def test_golden_kloop(device, kernel, m, n, k, engine, monkeypatch):
    from repro.arch import DEVICES

    monkeypatch.setenv("REPRO_FUNC_ENGINE", engine)
    digest, retired, ctas, opcodes = GOLDEN_KLOOP[(device, kernel, m, n, k)]
    a, b = _inputs(m, n, k)
    run = hgemm(a, b, kernel=kernel, spec=DEVICES[device], return_run=True)
    assert _digest(run.c) == digest
    assert run.stats.instructions_retired == retired
    assert run.stats.ctas_run == ctas
    assert run.stats.opcode_counts == opcodes


@pytest.mark.parametrize("kernel", ["ours", "cublas"])
def test_reference_engine_matches_goldens(kernel):
    """The seed interpreter (kept as ``engine='reference'``) still agrees
    with the pinned values -- the goldens are not self-referential."""
    from repro.core.builder import HgemmProblem, build_hgemm
    from repro.core.hgemm import _resolve_config
    from repro.sim.memory import GlobalMemory

    m, n, k = 256, 256, 32
    digest, retired, ctas, opcodes = GOLDEN[(kernel, m, n, k)]
    a, b = _inputs(m, n, k)
    sim = functional.FunctionalSimulator(engine="reference")
    config = _resolve_config(kernel, m, n, k)

    def aligned(nbytes):
        return (nbytes + 255) // 256 * 256

    b_addr = aligned(a.nbytes)
    c_addr = b_addr + aligned(b.nbytes)
    memory = GlobalMemory(c_addr + aligned(2 * m * n) + 256)
    memory.write_array(0, a)
    memory.write_array(b_addr, np.ascontiguousarray(b.T))
    program = build_hgemm(config, HgemmProblem(
        m=m, n=n, k=k, a_addr=0, b_addr=b_addr, c_addr=c_addr))
    stats = sim.run(program, memory, grid_dim=config.grid_dim(m, n))
    c = memory.read_array(c_addr, np.float16, m * n).reshape(m, n)
    assert _digest(c) == digest
    assert stats.instructions_retired == retired
    assert stats.ctas_run == ctas
    assert stats.opcode_counts == opcodes


def test_engine_env_override(monkeypatch):
    """``REPRO_FUNC_ENGINE=reference`` opts the whole stack out of the
    lockstep engine, with identical results."""
    monkeypatch.setenv("REPRO_FUNC_ENGINE", "reference")
    kernel, m, n, k = "ours", 256, 256, 32
    digest, retired, _, opcodes = GOLDEN[(kernel, m, n, k)]
    run = _run(kernel, m, n, k)
    assert _digest(run.c) == digest
    assert run.stats.instructions_retired == retired
    assert run.stats.opcode_counts == opcodes


def test_bad_engine_env_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_FUNC_ENGINE", "turbo")
    with pytest.raises(ValueError, match="REPRO_FUNC_ENGINE"):
        functional.FunctionalSimulator()


def _names_both_engines(message):
    return "'lockstep'" in message and "'reference'" in message


def test_removed_engine_env_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_FUNC_ENGINE", "predecoded")
    with pytest.raises(ValueError, match="REPRO_FUNC_ENGINE") as err:
        functional.FunctionalSimulator()
    assert _names_both_engines(str(err.value))


def test_removed_engine_job_rejected(monkeypatch):
    """A job runs on the engine its process's ``REPRO_FUNC_ENGINE`` names
    (payloads carry no engine), and a removed engine is refused there."""
    from repro.serve.jobs import run_job

    removed = "grid" "lock"  # the deleted grid-lockstep engine
    monkeypatch.setenv("REPRO_FUNC_ENGINE", removed)
    with pytest.raises(ValueError, match=f"REPRO_FUNC_ENGINE .*'{removed}'") as err:
        run_job("hgemm", {"m": 64, "n": 64, "k": 32})
    assert _names_both_engines(str(err.value))
