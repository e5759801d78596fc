"""Analytical models: roofline, occupancy, and the device-level wave model."""

from .. import _lazy

# Resolved on first use: the models load the builder and the timing
# simulator.
__all__, __getattr__, __dir__ = _lazy.exports(__name__, {
    ".autotune": ("Candidate", "TuneResult", "autotune", "candidate_space"),
    ".bounds": ("BoundBreakdown", "explain", "sweep_transitions"),
    ".occupancy": ("OccupancyReport", "occupancy", "table7"),
    ".perf_model": ("LaunchEstimate", "PerformanceModel", "SmProfile"),
    ".roofline": ("Roofline", "RooflinePoint"),
    ".suite": ("autotune_suite", "format_suite_tuning", "sweep_suite"),
})
