"""Kernel verification harness: sweep shapes, compare against the oracle.

What a kernel engineer runs after every schedule change: a grid of problem
shapes and seeds through the functional simulator, checked bit-exactly
against the precision-model oracle, with per-case outcomes collected
instead of stopping at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.turing import GpuSpec, RTX2070
from .config import KernelConfig
from .hgemm import hgemm, hgemm_reference
from .igemm import igemm, igemm_reference

__all__ = ["CaseResult", "VerificationReport", "verify_kernel"]

#: Default shape grid: small-but-representative multiples of the tiles.
DEFAULT_SHAPES = (
    (64, 64, 16), (64, 64, 32), (128, 64, 32), (64, 128, 48),
    (128, 128, 64), (192, 64, 32), (64, 192, 64), (128, 128, 96),
)


@dataclass
class CaseResult:
    """One verified (shape, seed) case."""

    m: int
    n: int
    k: int
    seed: int
    passed: bool
    max_error: float = 0.0
    message: str = ""


@dataclass
class VerificationReport:
    """All cases of one verification run."""

    kernel_name: str
    cases: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failures(self) -> list:
        return [case for case in self.cases if not case.passed]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.kernel_name} -- "
                 f"{len(self.cases) - len(self.failures)}/{len(self.cases)} "
                 "cases bit-exact"]
        for case in self.failures:
            lines.append(f"  FAIL {case.m}x{case.n}x{case.k} seed={case.seed}"
                         f": {case.message or f'max err {case.max_error}'}")
        return "\n".join(lines)


def verify_kernel(config: KernelConfig, shapes=DEFAULT_SHAPES,
                  seeds=(0, 1),
                  spec: GpuSpec = RTX2070) -> VerificationReport:
    """Run *config* over a shape/seed grid against the oracle.

    Shapes that the configuration cannot tile are skipped (they are not
    this kernel's job); everything it accepts must be bit-exact.
    """
    report = VerificationReport(kernel_name=config.name or "custom")
    is_int8 = config.ab_dtype == "s8"
    for m, n, k in shapes:
        if m % config.b_m or n % config.b_n or k % config.b_k:
            continue
        for seed in seeds:
            rng = np.random.default_rng(seed)
            if is_int8:
                a = rng.integers(-128, 128, (m, k), dtype=np.int8)
                b = rng.integers(-128, 128, (k, n), dtype=np.int8)
            else:
                a = rng.uniform(-2, 2, (m, k)).astype(np.float16)
                b = rng.uniform(-2, 2, (k, n)).astype(np.float16)
            try:
                if is_int8:
                    got = igemm(a, b, kernel=config, spec=spec)
                    want = igemm_reference(a, b)
                else:
                    got = hgemm(a, b, kernel=config, spec=spec,
                                accumulate="f32" if config.accum_f32 else "f16")
                    want = hgemm_reference(
                        a, b, w_k=config.w_k,
                        accumulate="f32" if config.accum_f32 else "f16")
            except Exception as exc:
                report.cases.append(CaseResult(
                    m=m, n=n, k=k, seed=seed, passed=False,
                    message=f"{type(exc).__name__}: {exc}"))
                continue
            exact = np.array_equal(got, want)
            err = 0.0
            if not exact:
                err = float(np.abs(got.astype(np.float64)
                                   - want.astype(np.float64)).max())
            report.cases.append(CaseResult(
                m=m, n=n, k=k, seed=seed, passed=exact, max_error=err))
    return report
