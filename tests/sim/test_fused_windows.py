"""Fused-window structure of the generated kernels, and what it buys.

A window starts at every branch target, so the k-loop's back edge enters
a window at its head and runs it as one call.  Predicated members with a
fast path join windows: the paper's ``@P0 LDG`` prefetch and ``@P0 STS``
tile store ride inside the HMMA stream instead of ending it.  Together
these keep the lockstep engine's closure calls (``func.dispatches``) to a
handful per k-tile, and a window's repeated groups share one build.
"""

import numpy as np
import pytest

from repro.arch import DEVICES
from repro.core import hgemm
from repro.core.builder import HgemmProblem, build_hgemm
from repro.core.config import ours_int8
from repro.core.hgemm import resolve_config
from repro.core.igemm import _shrink_int8
from repro.perf import STATS
from repro.sim import decode

from .test_decode_cache import cold_cache  # noqa: F401  (fixture)

M = N = K = 128


def _kernels():
    """(id, config, spec) of every generated kernel family: each registry
    device x ours/cublas x every accumulator the pair supports (the
    cuBLAS-like baseline is FP16-accumulate only), plus IMMA."""
    kernels = []
    for name, spec in sorted(DEVICES.items()):
        f32 = spec.arch.supports_f32_accum
        for kernel in ("ours", "cublas"):
            for accum in ("f16", "f32") if f32 and kernel == "ours" else ("f16",):
                config = resolve_config(kernel, M, N, K, accum, spec)
                kernels.append((f"{name}-{kernel}-{accum}", config, spec))
        if spec.arch.supports_imma:
            kernels.append((f"{name}-imma", _shrink_int8(ours_int8(), M, N, K),
                            spec))
    return kernels


KERNELS = _kernels()


@pytest.mark.parametrize("config,spec", [k[1:] for k in KERNELS],
                         ids=[k[0] for k in KERNELS])
def test_no_window_holds_a_branch_target_but_at_its_head(config, spec):
    program = build_hgemm(config, HgemmProblem(
        M, N, K, a_addr=0, b_addr=1 << 20, c_addr=1 << 21), spec)
    targets = {inst.target_index for inst in program.instructions
               if inst.opcode == "BRA"}
    assert program.labels["KLOOP"] in targets
    for lanes in (32, program.meta.warps_per_cta * 32):
        decoded = decode.predecode(program, lanes)
        heads = [pc for pc, size in enumerate(decoded.lens) if size > 1]
        assert heads, lanes
        for head in heads:
            inside = targets.intersection(
                range(head + 1, head + decoded.lens[head]))
            assert not inside, (lanes, head, sorted(inside))


def _rand(shape, seed):
    return np.random.default_rng(seed).uniform(-1, 1, shape).astype(np.float16)


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("kernel", ["ours", "cublas"])
@pytest.mark.parametrize("device", ["RTX2070", "V100", "A100"])
def test_one_cta_makes_a_few_calls_per_k_tile(device, kernel, k):
    spec = DEVICES[device]
    config = resolve_config(kernel, M, N, k, "f16", spec)
    a, b = _rand((M, k), 1), _rand((k, N), 2)
    before = STATS.snapshot()
    run = hgemm(a, b, kernel=kernel, spec=spec, return_run=True)
    counters = STATS.delta(before)["counters"]
    assert run.stats.ctas_run == 1
    assert counters.get("func.destacks", 0) == 0
    tiles = k // config.b_k
    assert 0 < counters["func.dispatches"] <= 10 * tiles + 10


@pytest.mark.usefixtures("cold_cache")
def test_repeated_groups_of_a_window_share_one_build(monkeypatch):
    """The unrolled k-steps of a tile reuse their fragment and accumulator
    registers, so one window holds several groups of the same HMMAs.
    They share one build: a cold launch builds each window's distinct
    HMMA groups once, and a relaunch builds none."""
    built = []
    build = decode._GROUP_BUILDERS["hmma"]

    def counted(key, payloads):
        part = build(key, payloads)
        built.append(part)
        return part

    monkeypatch.setitem(decode._GROUP_BUILDERS, "hmma", counted)
    spec = DEVICES["V100"]
    a, b = _rand((M, 64), 3), _rand((64, N), 4)
    monkeypatch.setenv("REPRO_FUNC_ENGINE", "reference")
    want = hgemm(a, b, kernel="cublas", spec=spec)
    monkeypatch.setenv("REPRO_FUNC_ENGINE", "lockstep")
    np.testing.assert_array_equal(hgemm(a, b, kernel="cublas", spec=spec),
                                  want)
    ids = set(map(id, built))
    hmma_parts = [[part for _, part in window.parts if id(part) in ids]
                  for window in decode._WINDOWS._entries.values() if window]
    assert any(len(set(map(id, parts))) < len(parts) for parts in hmma_parts)
    assert len(built) == len(ids) == sum(len(set(map(id, parts)))
                                         for parts in hmma_parts)
    np.testing.assert_array_equal(hgemm(a, b, kernel="cublas", spec=spec),
                                  want)
    assert len(built) == len(ids)
