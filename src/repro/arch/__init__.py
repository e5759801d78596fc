"""Device descriptions (all Tensor Core generations) and register state."""

from .. import _lazy

# Resolved on first use: the register files load NumPy and the ISA.
__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    ".registers": ("PredicateFile", "RegisterFile", "WARP_LANES"),
    ".family": ("ArchSpec", "GENERATIONS", "SM70", "SM75", "SM80",
                "get_generation"),
    ".turing": ("DEVICES", "GpuSpec", "MemoryCpiTable", "RTX2070", "T4",
                "V100", "A100", "get_device"),
})
