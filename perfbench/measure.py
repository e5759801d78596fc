"""Measurement arithmetic and the layer tracer of the benchmark.

Everything here is independent of the workloads: the percentile rule,
medians, per-piece scaled costs, self-time accounting for nested spans,
and the wrappers that put a span around each public entry point of a
``repro`` layer.

Self time: a span's duration minus the part of it covered by child spans
on the same thread.  Root spans (the benchmark's own per-op or per-request
spans) carry no layer; their self time is the unattributed remainder.

Spans are timed in thread CPU time by default.  On a shared virtual
machine wall time includes time the hypervisor gives to other guests
(steal); thread CPU time does not, so it is the steady measure of what
the code itself costs.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reportable only with at least this many samples beyond it.
SAMPLES_BEYOND = 10

#: Timer the benchmark's daemon launcher adds to each job's scoped stats
#: (returned with the job): the job's thread CPU seconds.
JOB_CPU_TIMER = "perfbench.job_cpu_s"


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, p):
    """Nearest-rank percentile *p* (0 < p <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Iterations of the reference probe.
PROBE_ITERATIONS = 20000

#: The probe time costs are scaled to, in ms: about what the probe takes
#: on a quiet core of the machine the benchmark was written on.
PROBE_REFERENCE_MS = 1.0


def time_probe():
    """CPU seconds of a fixed pure-Python loop: the host's speed now.

    On a host whose cores are shared with other guests, the CPU time of
    one piece of work switches between a quiet cost and a busy one (1.45x
    to 1.9x), in spells from a second to minutes, and both the busy share
    and how busy the host is drift from run to run.  The probe is timed
    just before each measured piece; within a piece's repetitions, its
    time and the piece's time rise and fall together.
    """
    start = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.thread_time() - start


def scaled_costs(keys, values, probes):
    """Each value replaced by its key's median cost at the reference speed.

    ``probes[i]`` is the probe time, in ms, taken just before
    ``values[i]``; the sample is scaled by ``PROBE_REFERENCE_MS`` over it,
    to what it would have cost on a core where the probe takes the
    reference time.
    """
    groups = {}
    for key, value, probe in zip(keys, values, probes):
        groups.setdefault(key, []).append(value * PROBE_REFERENCE_MS / probe)
    cost = {key: median(group) for key, group in groups.items()}
    return [cost[key] for key in keys]


def piece_costs(cells, totals, probes, parts):
    """Each operation costed at its cell's scaled cost, piece by piece.

    Operation i (cell ``cells[i]``) took ``totals[i]`` after a probe of
    ``probes[i]``; ``parts[i]`` are its simulator calls, in call order,
    as (time, probe before it).  The j-th call of a cell does the same
    work in every repetition, and so does the rest of the operation.  So
    each piece is costed by ``scaled_costs``, and an operation costs the
    sum of its pieces.  An operation of several seconds can outlast a
    spell of the host; its pieces are short enough to sit in one.
    """
    keys, values, states, owners = [], [], [], []
    for i, (cell, total, probe, split) in enumerate(
            zip(cells, totals, probes, parts)):
        for j, (value, part_probe) in enumerate(split):
            keys.append((cell, j))
            values.append(value)
            states.append(part_probe)
            owners.append(i)
        keys.append((cell, None))
        values.append(total - sum(value for value, _ in split))
        states.append(probe)
        owners.append(i)
    costs = [0.0] * len(cells)
    for i, value in zip(owners, scaled_costs(keys, values, states)):
        costs[i] += value
    return costs


def reportable(n, p):
    """Whether percentile *p* of *n* samples has enough samples beyond it."""
    return round(n * (100.0 - p) / 100.0, 9) >= SAMPLES_BEYOND


def highest_percentile(n):
    """The highest ladder percentile reportable from *n* samples, or None."""
    best = None
    for p in PERCENTILE_LADDER:
        if reportable(n, p):
            best = p
    return best


# ------------------------------------------------------------------ tracer

class Tracer:
    """Per-layer self time and call counts of nested spans.

    Thread-safe: each thread keeps its own span stack; totals are merged
    under a lock.  ``unattributed_s`` accumulates the self time of root
    spans, i.e. time inside the benchmark's own spans that no layer span
    covers; ``root_s`` their whole duration; ``top_s`` the duration of
    every span that had no parent on its thread.
    """

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s = {}
        self.calls = {}
        self.hits = {}
        self.unattributed_s = 0.0
        self.root_s = 0.0
        self.top_s = 0.0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer, name, duration, covered, hit=None):
        own = max(0.0, duration - covered)
        stack = self._stack()
        if stack:
            stack[-1] += duration
        with self._lock:
            if not stack:
                self.top_s += duration
            if layer is None:
                self.unattributed_s += own
                self.root_s += duration
                return
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if hit is not None:
                self.hits[name] = self.hits.get(name, 0) + int(hit)

    def call(self, layer, name, fn, args, kwargs, outcome=None):
        """Run ``fn(*args, **kwargs)`` inside a span of *layer*."""
        stack = self._stack()
        stack.append(0.0)
        start = self.clock()
        hit = None
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                hit = outcome(result)
            return result
        finally:
            duration = self.clock() - start
            covered = stack.pop()
            self._close(layer, name, duration, covered, hit)

    def root(self, fn, *args, **kwargs):
        """Run *fn* as a root span: its uncovered time is unattributed."""
        return self.call(None, None, fn, args, kwargs)

    def snapshot(self):
        """JSON-ready totals (what the daemon ships back to the load process)."""
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "hits": dict(self.hits),
                    "unattributed_s": self.unattributed_s,
                    "root_s": self.root_s, "top_s": self.top_s}


class PartTimer:
    """Thread CPU of each call of the wrapped entry points.

    Installed with ``install`` like a ``Tracer``, on one thread.  Each
    call is preceded by a probe.  ``take`` returns (duration, probe) of
    the calls since its last call, in call order: the parts
    ``piece_costs`` splits an operation into.
    """

    def __init__(self, clock=time.thread_time, probe=time_probe):
        self.clock = clock
        self.probe = probe
        self.parts = []

    def call(self, layer, name, fn, args, kwargs, outcome=None):
        probe = self.probe()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts.append((self.clock() - start, probe))

    def take(self):
        parts, self.parts = self.parts, []
        return parts


# ---------------------------------------------------------------- wrapping

#: (module, attribute path, layer, outcome) of every wrapped entry point.
#: Functions are replaced at every module that imported them by name;
#: methods are replaced on their class, which covers every caller.
LAYER_TARGETS = (
    ("repro.core.hgemm", "resolve_config", "core", None),
    ("repro.core.hgemm", "_resolve_config", "core", None),
    ("repro.core.builder", "build_hgemm", "core", None),
    ("repro.isa.encoding", "encode_program", "core", None),
    ("repro.sim.decode", "predecode", "decode", None),
    ("repro.sim.functional", "FunctionalSimulator.run", "func", None),
    ("repro.core.hgemm", "hgemm_reference", "verify", None),
    ("repro.core.igemm", "igemm_reference", "verify", None),
    ("repro.workloads.conv", "conv2d_reference", "verify", None),
    ("repro.workloads.attention", "attention_head_reference", "verify", None),
    ("repro.workloads.batched", "hgemm_strided_batched_reference", "verify",
     None),
    ("numpy", "array_equal", "verify", None),
    ("repro.sim.timing", "TimingSimulator.run", "timing", None),
    ("repro.analysis.perf_model", "PerformanceModel.estimate", "analysis",
     None),
    ("repro.analysis.perf_model", "PerformanceModel.sweep", "analysis", None),
    ("repro.analysis.perf_model", "PerformanceModel.profile_many", "analysis",
     None),
    ("repro.analysis.autotune", "autotune", "analysis", None),
    ("repro.analysis.suite", "sweep_suite", "analysis", None),
    ("repro.perf.cache", "ResultCache.get", "cache.lookup",
     lambda result: result is not None),
    ("repro.perf.cache", "ResultCache.put", "cache.store", None),
    ("repro.workloads.suite", "run_suite", "workloads", None),
)

#: The simulator entry point a measured run splits operations at: a
#: timing simulation of an SM profile runs for up to about half a second.
PART_TARGETS = (
    ("repro.sim.timing", "TimingSimulator.run", "timing", None),
)

#: Modules imported before wrapping, so every by-name import site exists.
_PRELOAD = ("repro", "repro.cli", "repro.analysis", "repro.bench",
            "repro.core", "repro.numerics", "repro.robust", "repro.serve",
            "repro.serve.jobs", "repro.workloads")


def _wrapper(tracer, layer, name, fn, outcome):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, outcome)
    return traced


def install(tracer, targets=LAYER_TARGETS):
    """Wrap every target; returns a callable that restores the originals."""
    for module in _PRELOAD:
        importlib.import_module(module)
    undo = []
    for module_name, path, layer, outcome in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrapper(tracer, layer, path, original,
                                          outcome))
            undo.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(tracer, layer, path, original, outcome)
        sites = [module] + [m for n, m in list(sys.modules.items())
                            if n.startswith("repro") and m is not module]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapped)
                    undo.append((site, name, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
