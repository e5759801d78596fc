"""Kernel configuration: the tuning knobs of the blocked HGEMM.

A :class:`KernelConfig` captures every design decision the paper evaluates:

* thread-block (CTA) tile ``(b_m, b_n, b_k)`` -- shared-memory blocking;
* warp tile ``(w_m, w_n, w_k)`` -- register blocking;
* shared-memory padding (Fig. 5's layout ablation);
* STS interleave depth (Fig. 4's scheduling ablation);
* prefetching (software pipelining) on/off;
* CTA launch order (row-major vs L2-friendly supertiles).

Two presets matter: :func:`ours` is the paper's optimized kernel
(256x256x32 / 128x64x8, padded, 5-HMMA STS interleave); :func:`cublas_like`
reproduces the cuBLAS 10.1 configuration from Table VII (128x128x64 /
64x64x8, no padding, 2-HMMA STS interleave).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

__all__ = ["KernelConfig", "ours", "cublas_like", "ConfigError", "adapt_for_arch",
           "check_field_types"]


class ConfigError(ValueError):
    """Raised when a kernel configuration is infeasible on the hardware."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: (test, description) of each annotated field type.  ``True == 1`` and
#: ``128.0 == 128`` hash alike, so a number of the wrong type would share
#: a cache key with a valid value while building something else.
_FIELD_TYPES = {
    "int": (_is_int, "an int"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
              "a real number"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a str"),
    "tuple[int, ...]": (lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
                        "a tuple of ints"),
    "tuple[str, ...]": (lambda v: isinstance(v, tuple)
                        and all(isinstance(item, str) for item in v),
                        "a tuple of strs"),
}


def check_field_types(obj, values=None) -> None:
    """Raise :class:`ConfigError` naming the first field of dataclass *obj*
    whose value does not have its annotated type: int fields refuse bool,
    float and str, bool fields take only bools, tuple fields take tuples
    of the element type.

    With *values*, *obj* may be the class: the field values it is about
    to be built from are checked instead, those it names only, so a
    decoder refuses them before ``__post_init__`` uses them.
    """
    cls = obj if isinstance(obj, type) else type(obj)
    for f in fields(obj):
        if values is None:
            value = getattr(obj, f.name)
        elif f.name in values:
            value = values[f.name]
        else:
            continue
        test, expected = _FIELD_TYPES[getattr(f.type, "__name__", f.type)]
        if not test(value):
            raise ConfigError(f"{cls.__name__}.{f.name} must be "
                              f"{expected}, got {value!r}")


@dataclass(frozen=True)
class KernelConfig:
    """Full parameterisation of one blocked Tensor Core HGEMM kernel."""

    b_m: int = 256
    b_n: int = 256
    b_k: int = 32
    w_m: int = 128
    w_n: int = 64
    w_k: int = 8
    smem_pad_halves: int = 8      # extra halves per tile row (0 = naive)
    smem_swizzle: bool = False    # XOR-swizzled chunks (cuBLAS-style, 0 pad)
    sts_interleave: int = 5       # HMMAs between consecutive STS.128
    prefetch: bool = True         # software pipelining of global loads
    cta_order: str = "row"        # "row" or "supertile"
    supertile_width: int = 8      # CTAs per supertile column when swizzled
    accum_f32: bool = False       # HMMA.1688.F32: FP32 accumulators, FP32 C
    ab_dtype: str = "f16"         # operand type: "f16" (HMMA) or "s8" (IMMA)
    name: str = ""

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.b_m % self.w_m or self.b_n % self.w_n or self.b_k % self.w_k:
            raise ConfigError(
                f"warp tile {self.warp_tile} must divide CTA tile {self.cta_tile}"
            )
        if self.w_m % 8 or self.w_n % 8 or self.w_k % 8:
            raise ConfigError(
                f"warp tile {self.warp_tile} must be a multiple of the "
                "8x8x8 HMMA granularity (generation-specific shapes are "
                "checked in validate_against)"
            )
        if self.num_warps not in (1, 2, 4, 8, 16):
            raise ConfigError(
                f"{self.num_warps} warps/CTA; must be a power of two <= 16"
            )
        if self.sts_interleave < 1:
            raise ConfigError("sts_interleave must be >= 1")
        if self.smem_pad_halves % 8:
            raise ConfigError(
                "smem padding must be a multiple of 8 halves (16 bytes) to "
                "keep STS.128 aligned"
            )
        if self.smem_swizzle:
            if self.smem_pad_halves:
                raise ConfigError(
                    "swizzling replaces padding; set smem_pad_halves=0"
                )
            if self.b_k != 64:
                raise ConfigError(
                    "the XOR swizzle permutes 8 16-byte chunks per row and "
                    "therefore requires b_k = 64"
                )
            if self.w_k * self.ab_element_bytes != 16:
                raise ConfigError(
                    "the XOR swizzle keeps each k-slice in one 16-byte "
                    f"chunk; w_k={self.w_k} at {self.ab_element_bytes} "
                    "B/element does not form one"
                )
        if self.cta_order not in ("row", "supertile"):
            raise ConfigError(f"unknown cta_order {self.cta_order!r}")
        if self.ab_dtype not in ("f16", "s8"):
            raise ConfigError(f"ab_dtype must be 'f16' or 's8', got {self.ab_dtype!r}")
        if self.ab_dtype == "s8":
            if self.accum_f32:
                raise ConfigError("int8 kernels accumulate in s32, not f32")
            if self.w_k % 16 or self.b_k % self.w_k:
                raise ConfigError("int8 warp tiles step k in multiples of 16")
            if self.w_m % 8:
                raise ConfigError("int8 warp tiles need w_m % 8 == 0")

    # ------------------------------------------------------------- geometry

    @property
    def cta_tile(self) -> tuple:
        return (self.b_m, self.b_n, self.b_k)

    @property
    def warp_tile(self) -> tuple:
        return (self.w_m, self.w_n, self.w_k)

    @property
    def num_warps(self) -> int:
        return (self.b_m // self.w_m) * (self.b_n // self.w_n)

    @property
    def threads_per_cta(self) -> int:
        return 32 * self.num_warps

    @property
    def ab_element_bytes(self) -> int:
        """Bytes per A/B element (2 for FP16, 1 for INT8)."""
        return 1 if self.ab_dtype == "s8" else 2

    @property
    def smem_pad_elems(self) -> int:
        """Row padding in *elements*: the knob is specified in halves
        (16-byte granularity = 8 halves); int8 tiles pad the same bytes."""
        return self.smem_pad_halves * 2 // self.ab_element_bytes

    @property
    def smem_row_halves(self) -> int:
        """Shared tile row stride in elements (b_k plus padding)."""
        return self.b_k + self.smem_pad_elems

    @property
    def smem_row_bytes(self) -> int:
        return self.smem_row_halves * self.ab_element_bytes

    @property
    def smem_bytes(self) -> int:
        """Total static shared memory per CTA (A tile + B tile)."""
        return (self.b_m + self.b_n) * self.smem_row_bytes

    # ------------------------------------------------------ register budget

    @property
    def accumulator_regs(self) -> int:
        """Registers per thread holding the C fragments.

        A warp accumulates w_m x w_n halves = w_m*w_n/64 warp registers;
        FP32 accumulators (``HMMA.1688.F32``'s 128-bit register groups)
        double that -- which is why the paper's 128x64 warp tile only
        works with FP16 accumulation.
        """
        regs = (self.w_m * self.w_n) // 64
        if self.accum_f32 or self.ab_dtype == "s8":
            return 2 * regs  # 32-bit accumulators
        return regs

    @property
    def c_element_bytes(self) -> int:
        """Bytes per C element (2 for FP16; 4 for FP32 or INT32)."""
        return 4 if (self.accum_f32 or self.ab_dtype == "s8") else 2

    @property
    def regs_per_thread(self) -> int:
        """Estimated total register demand per thread.

        Accumulators + A/B fragments (double-buffered) + prefetch staging +
        addressing scratch.  The estimate mirrors the paper's feasibility
        arguments (Section VI-A: 128x128 warp tiles exceed 256 registers).
        """
        frags = 2 * (self.w_m // 64 + self.w_n // 64) * (self.w_k // 8) * 4
        ldg_stage = 0
        if self.prefetch:
            per_thread_halves = (self.b_m + self.b_n) * self.b_k // self.threads_per_cta
            ldg_stage = max(4, per_thread_halves // 4)
        scratch = 16
        return self.accumulator_regs + frags + ldg_stage + scratch

    def grid_dim(self, m: int, n: int) -> tuple:
        """CTAs along (n, m) -- x covers columns of C, y covers rows."""
        return ((n + self.b_n - 1) // self.b_n, (m + self.b_m - 1) // self.b_m)

    # ----------------------------------------------------- analysis helpers

    @property
    def compute_intensity(self) -> float:
        """FLOPs per byte at the CTA-tile level (paper Section VI-A-2):
        2*b_m*b_n*b_k ops over 2*(b_m+b_n)*b_k bytes = b_m*b_n/(b_m+b_n)."""
        return (self.b_m * self.b_n) / (self.b_m + self.b_n)

    def validate_against(self, spec) -> None:
        """Raise :class:`ConfigError` if the kernel cannot launch on *spec*."""
        arch = getattr(spec, "arch", None)
        if arch is not None:
            if self.ab_dtype == "f16":
                if self.w_k % arch.hmma_k:
                    raise ConfigError(
                        f"w_k={self.w_k} is not a multiple of the native "
                        f"HMMA k-step {arch.hmma_k} on {arch.name} "
                        f"(SM{arch.sm_version}); see adapt_for_arch"
                    )
                if self.w_m % arch.hmma_m or self.w_n % arch.hmma_n:
                    raise ConfigError(
                        f"warp tile {self.warp_tile} must be a multiple of "
                        f"{arch.name}'s {arch.hmma_m}x{arch.hmma_n}x"
                        f"{arch.hmma_k} HMMA shape"
                    )
                if self.accum_f32 and not arch.supports_f32_accum:
                    raise ConfigError(
                        f"{arch.name} (SM{arch.sm_version}) HMMA has no "
                        "FP32-accumulate form"
                    )
            elif self.ab_dtype == "s8" and not arch.supports_imma:
                raise ConfigError(
                    f"{arch.name} (SM{arch.sm_version}) has no IMMA "
                    "(int8 Tensor Core ops arrived with Turing)"
                )
        if self.smem_bytes > spec.smem_per_sm_bytes:
            raise ConfigError(
                f"{self.smem_bytes} B of shared memory exceeds the SM's "
                f"{spec.smem_per_sm_bytes} B (paper: b_k <= 64 at 256x256)"
            )
        if self.regs_per_thread > spec.max_regs_per_thread:
            raise ConfigError(
                f"~{self.regs_per_thread} registers/thread exceeds the "
                f"{spec.max_regs_per_thread}-register limit (paper: 128x128 "
                "warp tiles are infeasible)"
            )
        cta_regs = self.regs_per_thread * self.threads_per_cta
        if cta_regs > spec.registers_per_sm:
            raise ConfigError(
                f"~{cta_regs} registers/CTA exceeds the SM's "
                f"{spec.registers_per_sm} registers (paper: 512x256 CTA "
                "tiles occupy the whole register file)"
            )

    def with_(self, **kwargs) -> "KernelConfig":
        """Functional update (for ablations)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        return (
            f"{self.name or 'hgemm'}: CTA {self.b_m}x{self.b_n}x{self.b_k}, "
            f"warp {self.w_m}x{self.w_n}x{self.w_k}, "
            f"{self.num_warps} warps, smem {self.smem_bytes // 1024} KB, "
            f"pad {self.smem_pad_halves}, STS interleave {self.sts_interleave}, "
            f"prefetch {'on' if self.prefetch else 'off'}, "
            f"order {self.cta_order}"
        )


def adapt_for_arch(config: KernelConfig, arch) -> KernelConfig:
    """Adapt a preset stated in Turing terms to another generation's shape.

    The presets in this module encode the paper's Turing tuning (HMMA.1688,
    k-step 8, 2-register A operands).  Other generations move two knobs:

    * the native k-step -- SM80's HMMA.16816 consumes k=16 per instruction,
      so an f16 ``w_k`` below the native k is raised to it;
    * the A-operand register footprint -- SM80's 4-register A fragments
      double the double-buffered A budget, so the paper's 128-wide warp
      tile no longer fits in 256 registers and is halved to 64;
    * the XOR swizzle permutes 16-byte k-slices and is only defined when a
      k-slice is exactly 16 bytes; otherwise fall back to padded rows.

    Returns *config* unchanged when nothing needs adapting (SM70/SM75).
    """
    changes = {}
    if config.ab_dtype == "f16":
        if config.w_k % arch.hmma_k:
            changes["w_k"] = arch.hmma_k
        if arch.a_regs >= 4 and config.w_m > 64:
            changes["w_m"] = 64
    w_k = changes.get("w_k", config.w_k)
    if config.smem_swizzle and w_k * config.ab_element_bytes != 16:
        changes["smem_swizzle"] = False
        changes["smem_pad_halves"] = 8
    if not changes:
        return config
    return config.with_(**changes)


def ours(**overrides) -> KernelConfig:
    """The paper's optimized configuration (Section VI / Table VII)."""
    base = KernelConfig(
        b_m=256, b_n=256, b_k=32,
        w_m=128, w_n=64, w_k=8,
        smem_pad_halves=8,
        sts_interleave=5,
        prefetch=True,
        cta_order="row",     # the paper defers L2-friendly launch order
        name="ours",         # to future work (Section VIII)
    )
    return base.with_(**overrides) if overrides else base


def ours_f32(**overrides) -> KernelConfig:
    """FP32-accumulator variant (the paper's Section VIII future work:
    "demystifying Tensor Cores with single-precision accumulators").

    The doubled accumulator footprint forces the warp tile down to 64x64
    and the CTA tile to 256x128 (a 256x256 tile would need 16 warps whose
    FP32 accumulators alone overflow the SM's register file); every
    scheduling optimization carries over.
    """
    base = KernelConfig(
        b_m=256, b_n=128, b_k=32,
        w_m=64, w_n=64, w_k=8,
        smem_pad_halves=8,
        sts_interleave=5,
        prefetch=True,
        cta_order="row",
        accum_f32=True,
        name="ours-f32",
    )
    return base.with_(**overrides) if overrides else base


def ours_int8(**overrides) -> KernelConfig:
    """INT8 Tensor Core GEMM (the paper's Section VIII "integer data type"
    future work): ``IMMA.8816.S8.S8`` with s32 accumulation.

    INT8 halves the operand bytes (doubling the tile's compute intensity)
    and doubles the tensor-pipe rate, so the same 80-byte padded rows stay
    bank-conflict-free and the blocking analysis carries over.
    """
    base = KernelConfig(
        b_m=256, b_n=128, b_k=64,   # 64 int8 along k = the fp16 tile's bytes
        w_m=64, w_n=64, w_k=16,
        smem_pad_halves=8,          # same 16 bytes of padding per row
        sts_interleave=5,
        prefetch=True,
        cta_order="row",
        ab_dtype="s8",
        name="ours-int8",
    )
    return base.with_(**overrides) if overrides else base


def cublas_like(**overrides) -> KernelConfig:
    """The cuBLAS 10.1 HGEMM configuration the paper reports (Table VII):
    128x128x64 CTA tile, 64x64x8 warp tile, 32 KB of un-padded shared
    memory, and the 2-HMMA STS interleave of Section VI-C."""
    base = KernelConfig(
        b_m=128, b_n=128, b_k=64,
        w_m=64, w_n=64, w_k=8,
        smem_pad_halves=0,
        smem_swizzle=True,   # cuBLAS's "economical" 32 KB layout: no
        sts_interleave=2,    # padding, conflicts avoided by XOR swizzle
        prefetch=True,
        cta_order="row",
        name="cublas-like",
    )
    return base.with_(**overrides) if overrides else base
