"""Functional-simulator speed benchmark: both engines, digest-checked.

Runs one full-grid HGEMM (512x512x512 -- the 16-CTA 512^2 problem,
cublas tiling) through the functional simulator two ways:

* **reference** -- the instruction-at-a-time interpreter
  (``REPRO_FUNC_ENGINE=reference``), the baseline;
* **lockstep** -- the default engine: all warps of a CTA execute each
  decoded slot as one stacked NumPy operation, CTAs in order.

Each leg re-seeds its own RNG (identical inputs no matter how legs are
added or reordered), builds its own program, and runs ``reps`` times on
fresh memory images: ``cold`` is the first run (decode included), ``warm``
the best of the rest (decode served by the process-wide code cache --
the paper's figure sweeps replay one kernel many times, so warm is the
steady state that matters).  Both legs must produce bit-identical C
matrices and identical retired-opcode counts -- the throughput layer's
core invariant.

Gate: lockstep must beat the reference interpreter by at least 3x.
Results go to ``BENCH_funcspeed.json``.

A cross-generation leg re-runs the same problem with lockstep on a
non-Turing device (``XGEN_DEVICE``, Ampere's HMMA.16816 pipeline), where
it must match the precision-model oracle digest bit for bit.

Usage::

    PYTHONPATH=src python benchmarks/bench_funcspeed.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

#: Full-grid problem: the paper's canonical 512^3 HGEMM -- 16 CTAs of the
#: cublas-like kernel, big enough that simulation dominates the wall time.
M, N, K = 512, 512, 512
KERNEL = "cublas"

#: Non-Turing device of the cross-generation leg (HMMA.16816 pipeline).
XGEN_DEVICE = "A100"


def _run_leg(engine, reps, device="RTX2070"):
    """Time one engine: build inputs + program from a fresh seed, run
    ``reps`` times on fresh memory.  Returns (cold, warm, digest, stats)."""
    import numpy as np

    from repro.arch.turing import get_device
    from repro.core.hgemm import HgemmProblem, _resolve_config, build_hgemm
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.memory import GlobalMemory

    # Per-leg seeding: every leg regenerates identical inputs, so adding or
    # reordering legs can never silently change what an engine computes.
    rng = np.random.default_rng(7)
    a16 = rng.uniform(-2, 2, (M, K)).astype(np.float16)
    b16 = rng.uniform(-2, 2, (K, N)).astype(np.float16)

    spec = get_device(device)
    config = _resolve_config(KERNEL, M, N, K, "f16", spec)

    def aligned(nbytes):
        return (nbytes + 255) // 256 * 256

    a_addr = 0
    b_addr = aligned(a16.nbytes)
    c_addr = b_addr + aligned(b16.nbytes)
    total = c_addr + aligned(2 * M * N) + 256
    problem = HgemmProblem(m=M, n=N, k=K, a_addr=a_addr, b_addr=b_addr,
                           c_addr=c_addr, alpha=1.0, beta=0.0)
    program = build_hgemm(config, problem, spec)
    bt = np.ascontiguousarray(b16.T)

    os.environ["REPRO_FUNC_ENGINE"] = engine
    try:
        times = []
        for _ in range(reps):
            memory = GlobalMemory(total)
            memory.write_array(a_addr, a16)
            memory.write_array(b_addr, bt)
            start = time.perf_counter()
            stats = FunctionalSimulator().run(
                program, memory, grid_dim=config.grid_dim(M, N))
            times.append(time.perf_counter() - start)
    finally:
        os.environ.pop("REPRO_FUNC_ENGINE", None)
    c = memory.read_array(c_addr, np.float16, M * N)
    digest = hashlib.sha256(np.ascontiguousarray(c).tobytes()).hexdigest()
    cold = times[0]
    warm = min(times[1:]) if len(times) > 1 else times[0]
    return cold, warm, digest, stats


def _oracle_digest(device):
    """Digest of the precision-model oracle result for *device*'s resolved
    config -- correctness anchor for legs that skip the slow reference
    interpreter."""
    import numpy as np

    from repro.arch.turing import get_device
    from repro.core import hgemm_reference
    from repro.core.hgemm import _resolve_config

    rng = np.random.default_rng(7)
    a16 = rng.uniform(-2, 2, (M, K)).astype(np.float16)
    b16 = rng.uniform(-2, 2, (K, N)).astype(np.float16)
    config = _resolve_config(KERNEL, M, N, K, "f16", get_device(device))
    want = hgemm_reference(a16, b16, w_k=config.w_k)
    return hashlib.sha256(np.ascontiguousarray(want).tobytes()).hexdigest()


def main() -> int:
    legs = {
        "reference": _run_leg("reference", 1),
        "lockstep": _run_leg("lockstep", 4),
    }

    ref = legs["reference"]
    ok = all(leg[2] == ref[2] and leg[3].opcode_counts == ref[3].opcode_counts
             for leg in legs.values())
    if not ok:
        print("FAIL: engine legs disagree (digest or opcode counts)",
              file=sys.stderr)
        return 1

    # Cross-generation leg: the same problem on a non-Turing device (the
    # Ampere HMMA.16816 pipeline).  Too slow for the reference interpreter
    # twice over, so the correctness anchor is the precision-model oracle
    # digest.
    xgen = _run_leg("lockstep", 3, device=XGEN_DEVICE)
    xgen_want = _oracle_digest(XGEN_DEVICE)
    xgen_ok = xgen[2] == xgen_want
    if not xgen_ok:
        print(f"FAIL: {XGEN_DEVICE} lockstep disagrees with the oracle digest",
              file=sys.stderr)
        return 1

    cold = {name: leg[0] for name, leg in legs.items()}
    warm = {name: leg[1] for name, leg in legs.items()}
    payload = {
        "problem": f"{M}x{N}x{K}",
        "kernel": KERNEL,
        "ctas": ref[3].ctas_run,
        "instructions_retired": ref[3].instructions_retired,
        "digest_sha256": ref[2],
        "cold_seconds": {k: round(v, 4) for k, v in cold.items()},
        "warm_seconds": {k: round(v, 4) for k, v in warm.items()},
        "lockstep_speedup": round(cold["reference"] / cold["lockstep"], 2),
        "bit_identical": ok,
        "xgen_device": XGEN_DEVICE,
        "xgen_digest_sha256": xgen_want,
        "xgen_warm_seconds": {"lockstep": round(xgen[1], 4)},
        "xgen_bit_identical": xgen_ok,
    }

    out = Path(__file__).resolve().parent.parent / "BENCH_funcspeed.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    speedup = payload["lockstep_speedup"]
    if speedup < 3.0:
        print(f"FAIL: lockstep speedup {speedup:.2f}x < 3x target",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
