"""Mixed-precision accuracy measurements on the simulated device.

Every sample here is produced by the *real* functional simulator: the
generated SASS runs, each HMMA performs the generation's exact-product /
single-rounding arithmetic, and the measured error therefore carries the
true accumulation order (``w_k``-wide step rounding inside a k-loop) --
not a NumPy approximation of it.  Each point is simultaneously

* **measured** against a float64 exact product (the error the user sees),
* **cross-checked** bit-for-bit against :func:`repro.core.hgemm_reference`
  with the resolved kernel's ``w_k`` -- the same per-generation HMMA
  model the SMT formalization pins down -- so a sample is only reported
  if the simulator and the formal precision model agree exactly,
* **digested** over the raw result bytes, so generation goldens can pin
  the curve bit-for-bit, the way the timing goldens pin cycle counts.

The headline reproduction is Markidis et al.'s error-growth curve:
FP16 accumulation error grows with the contracted dimension K (each
step rounds the running sum to half precision), while FP32 accumulation
stays flat (only the input rounding to FP16 contributes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..arch.turing import GpuSpec, RTX2070
from ..perf.cache import content_key

__all__ = [
    "DISTRIBUTIONS", "ErrorSample", "ErrorCurve", "MarkidisVerdict",
    "measure_point", "error_curve", "markidis_verdict", "supports",
    "DEFAULT_KS",
]

#: Schema tag folded into every sample digest; bump when the measurement
#: definition (operand generation, error metric, digest layout) changes.
NUMERICS_SCHEMA = "numerics-v1"

#: Contracted dimensions for the default error curve.  Spans the range
#: where FP16 accumulation turns from benign to lossy (Markidis et al.
#: measure 2^4..2^13; these keep full-simulator runtime in CI bounds).
DEFAULT_KS = (32, 64, 128, 256, 512, 1024)

#: Operand value distributions.  Uniform in [-1, 1) shows cancellation;
#: "positive" (uniform in [0, 1)) is the adversarial case -- partial
#: sums grow monotonically, so FP16's shrinking absolute resolution
#: bites hardest; "normal" is the weight-matrix-like case.
DISTRIBUTIONS = {
    "uniform": lambda rng, shape: rng.uniform(-1, 1, shape),
    "positive": lambda rng, shape: rng.uniform(0, 1, shape),
    "normal": lambda rng, shape: rng.normal(0, 0.5, shape),
}


def supports(spec: GpuSpec, accumulate: str) -> bool:
    """Whether *spec*'s generation has this HMMA accumulator form.

    Volta's HMMA.884 has no FP32-accumulate form in this model family,
    so SM70 curves are FP16-only.
    """
    return accumulate == "f16" or spec.arch.supports_f32_accum


@dataclass(frozen=True)
class ErrorSample:
    """One measured (shape, accumulator, distribution) point."""

    m: int
    n: int
    k: int
    accumulate: str        # "f16" | "f32"
    distribution: str
    seed: int
    w_k: int               # the resolved kernel's HMMA k-step
    max_rel_err: float     # vs the float64 exact product
    mean_rel_err: float
    model_exact: bool      # simulator == hgemm_reference, bit-for-bit
    digest: str            # sha256 over the raw simulated result bytes

    def describe(self) -> str:
        return (f"{self.m}x{self.n}x{self.k} {self.accumulate}-accum "
                f"{self.distribution}: max {self.max_rel_err:.3e} "
                f"mean {self.mean_rel_err:.3e}"
                + ("" if self.model_exact else "  [MODEL MISMATCH]"))


@dataclass
class ErrorCurve:
    """Error-vs-K sweep for one accumulator mode and distribution."""

    device: str
    accumulate: str
    distribution: str
    samples: list = field(default_factory=list)

    @property
    def model_exact(self) -> bool:
        return all(s.model_exact for s in self.samples)

    @property
    def growth(self) -> float:
        """max_rel_err ratio between the largest and smallest K."""
        first, last = self.samples[0], self.samples[-1]
        if first.max_rel_err == 0:
            return float("inf") if last.max_rel_err else 1.0
        return last.max_rel_err / first.max_rel_err

    def digest(self) -> str:
        """One digest pinning every sample of the curve bit-for-bit."""
        return content_key(NUMERICS_SCHEMA, self.device, self.accumulate,
                           self.distribution,
                           [s.digest for s in self.samples])


def measure_point(spec: GpuSpec = RTX2070, m: int = 64, n: int = 64,
                  k: int = 64, accumulate: str = "f16",
                  distribution: str = "uniform", seed: int = 0,
                  kernel="ours") -> ErrorSample:
    """Run one GEMM through the functional simulator and measure error.

    The float64 product of the (already FP16-rounded) operands is the
    exact reference, so the reported error is purely the accumulation
    scheme's -- input quantisation is common to both sides.
    """
    import numpy as np

    from ..core.hgemm import hgemm, hgemm_reference

    if not supports(spec, accumulate):
        raise ValueError(
            f"{spec.name} ({spec.arch.name}, SM{spec.arch.sm_version}) "
            f"HMMA has no {accumulate}-accumulate form")
    draw = DISTRIBUTIONS[distribution]
    rng = np.random.default_rng(seed)
    a = draw(rng, (m, k)).astype(np.float16)
    b = draw(rng, (k, n)).astype(np.float16)

    run = hgemm(a, b, kernel=kernel, spec=spec, accumulate=accumulate,
                return_run=True)
    oracle = hgemm_reference(a, b, w_k=run.config.w_k, accumulate=accumulate)
    model_exact = bool(np.array_equal(run.c, oracle))

    exact = a.astype(np.float64) @ b.astype(np.float64)
    denom = np.maximum(np.abs(exact), np.finfo(np.float64).tiny)
    rel = np.abs(run.c.astype(np.float64) - exact) / denom
    return ErrorSample(
        m=m, n=n, k=k, accumulate=accumulate, distribution=distribution,
        seed=seed, w_k=run.config.w_k,
        max_rel_err=float(rel.max()), mean_rel_err=float(rel.mean()),
        model_exact=model_exact,
        digest=content_key(NUMERICS_SCHEMA, m, n, k, accumulate,
                           distribution, seed,
                           np.ascontiguousarray(run.c).tobytes()),
    )


def error_curve(spec: GpuSpec = RTX2070, ks=DEFAULT_KS, m: int = 64,
                n: int = 64, accumulate: str = "f16",
                distribution: str = "uniform", seed: int = 0,
                kernel="ours") -> ErrorCurve:
    """Error versus the contracted dimension K, everything else fixed."""
    curve = ErrorCurve(device=spec.name, accumulate=accumulate,
                       distribution=distribution)
    for k in ks:
        curve.samples.append(measure_point(
            spec, m=m, n=n, k=k, accumulate=accumulate,
            distribution=distribution, seed=seed, kernel=kernel))
    return curve


@dataclass(frozen=True)
class MarkidisVerdict:
    """Did the measurement reproduce Markidis et al.'s error shape?"""

    f16_growth: float      # f16-accum error ratio, largest K / smallest K
    f32_worst: float       # f32-accum max rel err at the largest K
                           # (nan when the generation lacks the form)
    f16_grows: bool        # error grows materially with K
    f32_flat: bool         # error stays at the FP32-epsilon scale
                           # (True if unsupported)
    model_exact: bool      # every sample matched the precision model

    @property
    def reproduced(self) -> bool:
        return self.f16_grows and self.f32_flat and self.model_exact

    def describe(self) -> str:
        parts = [
            f"FP16-accumulate error grows {self.f16_growth:.1f}x across "
            f"the K sweep ({'as Markidis et al. measure' if self.f16_grows else 'EXPECTED GROWTH MISSING'})",
        ]
        if math.isnan(self.f32_worst):
            parts.append("FP32 accumulation unsupported on this "
                         "generation (Volta HMMA.884)")
        else:
            parts.append(
                f"FP32-accumulate error stays at {self.f32_worst:.1e} "
                f"({'flat, as expected' if self.f32_flat else 'UNEXPECTEDLY LARGE'})")
        parts.append("every point bit-exact vs the per-generation HMMA "
                     "model" if self.model_exact
                     else "PRECISION-MODEL MISMATCH")
        return "; ".join(parts)


def markidis_verdict(f16_curve: ErrorCurve,
                     f32_curve: ErrorCurve = None,
                     growth_threshold: float = 2.0,
                     flat_ceiling: float = 1e-5) -> MarkidisVerdict:
    """Judge a pair of curves against the expected error shape.

    FP16 growth is a ratio test (largest-K error over smallest-K error);
    FP32 flatness is an absolute ceiling at the largest K -- the curve
    sits at the FP32-epsilon scale (~1e-7) where a ratio would amplify
    noise, and "flat" means it never leaves that scale.
    ``f32_curve=None`` means the generation has no FP32-accumulate form
    (SM70); the flat condition is then vacuously true.
    """
    f32_worst = (float("nan") if f32_curve is None
                 else f32_curve.samples[-1].max_rel_err)
    model_exact = f16_curve.model_exact and (
        f32_curve is None or f32_curve.model_exact)
    return MarkidisVerdict(
        f16_growth=f16_curve.growth,
        f32_worst=f32_worst,
        f16_grows=f16_curve.growth >= growth_threshold,
        f32_flat=(f32_curve is None or f32_worst <= flat_ceiling),
        model_exact=model_exact,
    )
