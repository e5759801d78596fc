#!/usr/bin/env python
"""Quickstart: run a half-precision GEMM on the simulated Turing GPU.

The matrices go through the full stack: the kernel generator emits the
SASS program, the functional simulator executes it warp by warp (with the
real HMMA fragment layouts and FP16 accumulator rounding), and the result
comes back bit-exact against the Tensor Core precision model.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import hgemm, hgemm_reference, ours
from repro.core.builder import HgemmProblem, build_hgemm


def main() -> None:
    rng = np.random.default_rng(0)
    m, n, k = 256, 512, 128
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)

    print(f"C[{m}x{n}] = A[{m}x{k}] @ B[{k}x{n}], half precision")

    run = hgemm(a, b, return_run=True)
    c = run.c
    print(f"kernel: {run.config.describe()}")
    print(f"executed {run.stats.instructions_retired} instructions "
          f"({run.stats.opcode_counts.get('HMMA', 0)} HMMA) over "
          f"{run.stats.ctas_run} CTAs")

    reference = hgemm_reference(a, b)
    exact = np.array_equal(c, reference)
    print(f"bit-exact vs the Tensor Core precision model: {exact}")

    # The FP16-accumulator error vs a float32 GEMM is small but non-zero:
    f32 = a.astype(np.float32) @ b.astype(np.float32)
    err = np.abs(c.astype(np.float32) - f32).max()
    print(f"max |C - float32 reference| = {err:.4f} "
          "(FP16 accumulation, paper Section IV)")

    # Peek at the generated SASS.
    program = build_hgemm(ours(), HgemmProblem(256, 256, 64, 0, 1 << 22, 1 << 23))
    print(f"\nGenerated kernel: {len(program)} instructions, "
          f"{program.meta.num_regs} registers/thread, "
          f"{program.meta.smem_bytes // 1024} KB shared memory")
    print("first instructions of the main loop:")
    start = program.labels["KLOOP"]
    for index in range(start, start + 8):
        print(f"  /*{index:04d}*/ {program[index]}")

    if not exact:
        raise SystemExit("FAILED: result mismatch")
    print("\nOK")


if __name__ == "__main__":
    main()
