"""Turing-class GPU simulator: functional + cycle-level timing substrate."""

from .. import _lazy

# Resolved on first use, like the other packages' re-exports.  An eager
# import here would also race: a thread importing ``repro.sim.functional``
# while another runs this ``__init__`` could read a partly initialised
# submodule.
__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    ".exec_units": ("Effects", "ExecError", "MemTransaction", "execute"),
    ".functional": ("FunctionalResult", "FunctionalSimulator",
                    "SimLimitError"),
    ".gpu": ("Device", "LaunchTiming"),
    ".memory": ("AccessSummary", "GlobalMemory", "MemorySubsystem"),
    ".shared": ("SharedMemory", "bank_conflict_degree",
                "conflict_multiplier"),
    ".timing": ("ALU_LATENCY", "TimingResult", "TimingSimulator"),
})
