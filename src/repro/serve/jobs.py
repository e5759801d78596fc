"""Job kinds the simulation service executes, and their cache keys.

Each kind is a pure function of its JSON payload: the daemon can run it
anywhere, coalesce concurrent twins, and cache the result.  The
**coalescing key of a job is the ``repro.perf`` cache key of the work it
performs** -- :func:`~repro.perf.cache.content_key` over the kind and
the canonicalised payload with :data:`~repro.perf.cache.SIM_VERSION`
mixed in.  Two requests coalesce exactly when a warm cache would have
served the second one; a bumped ``SIM_VERSION`` separates the keys the
same way it invalidates the cache.

These runners are also the one implementation of the CLI's job verbs:
``repro hgemm`` and the rest build a payload, run it here through
:func:`run_job` or on a daemon with ``--remote``, and print the result
dict.

Kinds
-----
``noop``
    Diagnostic echo (optionally sleeping); never cached, so tests can
    hold a job in flight deterministically.
``sweep``
    A figure-style size sweep of one kernel config (profile + wave-model
    estimates).
``autotune``
    Full two-stage autotune for one problem shape.
``hgemm`` / ``igemm``
    One functional GEMM launch, seed-generated operands, verified
    against the precision-model oracle daemon-side.  The result carries
    the verdict (``exact``) and a SHA-256 of C (``c_sha256``), not C.
``verify``
    The shape/seed verification grid of one config.
``workloads``
    One deep-learning workload-suite run (:mod:`repro.workloads`):
    every member simulated and checked bit-exactly against its oracle.
``numerics``
    One mixed-precision error-curve report (:mod:`repro.numerics`):
    FP16- vs FP32-accumulate error versus K with the Markidis verdict.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from ..arch.turing import DEVICES, RTX2070, GpuSpec, get_device
from ..core.config import ConfigError, KernelConfig, check_field_types
from ..perf.cache import SIM_VERSION, content_key

__all__ = [
    "JobKind",
    "JOB_KINDS",
    "job_error",
    "job_key",
    "run_job",
    "spec_to_dict",
    "spec_from_dict",
    "config_to_dict",
    "config_from_dict",
    "options_to_dict",
    "options_from_dict",
]


# ------------------------------------------------- dataclass round-trips
#
# GpuSpec / KernelConfig / PerfOptions must cross the JSON protocol and
# come back equal (their dicts feed content_key, so a lossy round-trip
# would split cache keys between client and daemon).

def spec_to_dict(spec: GpuSpec) -> dict:
    """Registry devices travel by name; custom specs as full dicts.

    The name form keeps job payloads (and hence coalescing keys) stable
    across registry recalibrations on the daemon side, and lets clients
    submit against devices they never constructed locally.
    """
    if DEVICES.get(spec.name) == spec:
        return {"device": spec.name}
    return asdict(spec)


def spec_from_dict(data: dict) -> GpuSpec:
    """The :class:`GpuSpec` a :func:`spec_to_dict` dict names.

    A missing, unknown or mistyped field raises a
    :class:`~repro.core.config.ConfigError` naming it.
    """
    if isinstance(data, dict) and "device" in data:
        extra = sorted(set(data) - {"device"})
        if extra:
            raise ValueError(
                f"spec dict names a device and also sets {extra}; send a "
                "registry name alone ({'device': name}) or a full spec dict")
        name = data["device"]
        if not isinstance(name, str):
            raise ConfigError(f"spec device must be a registry device name "
                              f"(a str), got {name!r}")
        try:
            return get_device(name)
        except KeyError:
            raise ValueError(
                f"unknown device {name!r}; known devices: {sorted(DEVICES)}"
            ) from None
    return _from_fields(GpuSpec, data, "spec")


def _from_fields(cls, data, where: str):
    """Dataclass *cls* from a dict of its fields, nested dataclasses too."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a dict of {cls.__name__} fields, "
                          f"got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{cls.__name__} has no field {unknown[0]!r}")
    types = get_type_hints(cls)
    values, scalars = {}, {}
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING:
                raise ConfigError(f"{cls.__name__}.{f.name} must be set")
        elif is_dataclass(types[f.name]):
            values[f.name] = _from_fields(types[f.name], data[f.name],
                                          f"{cls.__name__}.{f.name}")
        else:
            values[f.name] = scalars[f.name] = data[f.name]
    check_field_types(cls, scalars)
    return cls(**values)


def config_to_dict(config: KernelConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> KernelConfig:
    return KernelConfig(**data)


def options_to_dict(options) -> dict:
    return asdict(options)


def options_from_dict(data):
    from ..analysis.perf_model import PerfOptions

    values = dict(data)
    for name in ("cliff_devices", "profile_iters"):
        if name in values and isinstance(values[name], list):
            values[name] = tuple(values[name])
    return PerfOptions(**values)


def _spec(payload):
    """The payload's spec; RTX 2070 when it names none."""
    return spec_from_dict(payload["spec"]) if payload.get("spec") else RTX2070


def _model(payload):
    """(spec, PerformanceModel) from a job payload."""
    from ..analysis.perf_model import PerformanceModel, PerfOptions

    spec = spec_from_dict(payload["spec"])
    options = (options_from_dict(payload["options"])
               if payload.get("options") else PerfOptions())
    return spec, PerformanceModel(spec, options)


# ------------------------------------------------------------ executors

def _run_noop(payload: dict) -> dict:
    import time

    sleep_s = float(payload.get("sleep_s", 0.0))
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    return {"value": payload.get("value")}


def _run_sweep(payload: dict) -> dict:
    _, model = _model(payload)
    config = config_from_dict(payload["config"])
    sizes = payload["sizes"]
    if (not isinstance(sizes, list) or not sizes
            or any(type(w) is not int or w <= 0 for w in sizes)):
        raise ValueError(f"sweep sizes must be a non-empty list of positive "
                         f"ints, got {sizes!r}")
    estimates = model.sweep(
        config,
        sizes=sizes,
        shape=tuple(payload.get("shape", (1, 1, 1))),
        baseline_quirks=bool(payload.get("baseline_quirks", False)),
        max_workers=payload.get("jobs"),
    )
    return {"estimates": [asdict(e) for e in estimates]}


def _run_autotune(payload: dict) -> dict:
    from ..analysis.autotune import autotune

    spec, model = _model(payload)
    result = autotune(spec, payload["m"], payload["n"], payload["k"],
                      accum_f32=bool(payload.get("accum_f32", False)),
                      model=model, max_workers=payload.get("jobs"))
    return {
        "best": config_to_dict(result.best),
        "best_name": result.best.name,
        "best_describe": result.best.describe(),
        "best_tflops": result.best_tflops,
        "summary": result.summary(),
    }


def _gemm_result(run, exact: bool, opcode: str) -> dict:
    return {
        "describe": run.config.describe(),
        "instructions": run.stats.instructions_retired,
        "mma": run.stats.opcode_counts.get(opcode, 0),
        "ctas": run.stats.ctas_run,
        "exact": exact,
        "c_sha256": content_key(np.ascontiguousarray(run.c).tobytes()),
    }


def _run_hgemm(payload: dict) -> dict:
    from ..core import hgemm, hgemm_reference

    rng = np.random.default_rng(int(payload.get("seed", 0)))
    m, n, k = payload["m"], payload["n"], payload["k"]
    a = rng.uniform(-1, 1, (m, k)).astype(np.float16)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float16)
    accumulate = payload.get("accumulate", "f16")
    run = hgemm(a, b, kernel=payload.get("kernel", "ours"),
                spec=_spec(payload), accumulate=accumulate, return_run=True)
    exact = bool(np.array_equal(
        run.c, hgemm_reference(a, b, w_k=run.config.w_k,
                               accumulate=accumulate)))
    return _gemm_result(run, exact, "HMMA")


def _run_igemm(payload: dict) -> dict:
    from ..core import igemm, igemm_reference

    rng = np.random.default_rng(int(payload.get("seed", 0)))
    m, n, k = payload["m"], payload["n"], payload["k"]
    a = rng.integers(-128, 128, (m, k), dtype=np.int8)
    b = rng.integers(-128, 128, (k, n), dtype=np.int8)
    run = igemm(a, b, return_run=True, spec=_spec(payload))
    exact = bool(np.array_equal(run.c, igemm_reference(a, b)))
    return _gemm_result(run, exact, "IMMA")


def _run_verify(payload: dict) -> dict:
    from ..core import verify_kernel

    config = config_from_dict(payload["config"])
    seeds = payload.get("seeds", 2)
    seeds = tuple(seeds) if isinstance(seeds, list) else tuple(range(seeds))
    report = verify_kernel(config, seeds=seeds, spec=_spec(payload))
    return {"passed": report.passed, "summary": report.summary(),
            "cases": len(report.cases)}


def _run_workloads(payload: dict) -> dict:
    from ..workloads import run_suite

    result = run_suite(payload.get("suite", "smoke"), spec=_spec(payload),
                       scale=payload.get("scale", "sim"),
                       kernel=payload.get("kernel", "ours"),
                       seed=int(payload.get("seed", 0)))
    return {
        "suite": result.suite,
        "device": result.device,
        "scale": result.scale,
        "passed": result.passed,
        "instructions": result.instructions,
        "summary": result.summary(),
        "results": [asdict(r) for r in result.results],
    }


def _run_numerics(payload: dict) -> dict:
    from ..numerics import (error_curve, format_curves, format_verdict,
                            markidis_verdict, supports)
    from ..numerics.harness import DEFAULT_KS

    spec = _spec(payload)
    ks = tuple(payload.get("ks") or DEFAULT_KS)
    common = dict(ks=ks, m=int(payload.get("m", 64)),
                  n=int(payload.get("n", 64)),
                  distribution=payload.get("distribution", "positive"),
                  seed=int(payload.get("seed", 0)),
                  kernel=payload.get("kernel", "ours"))
    f16 = error_curve(spec, accumulate="f16", **common)
    f32 = (error_curve(spec, accumulate="f32", **common)
           if supports(spec, "f32") else None)
    verdict = markidis_verdict(f16, f32)
    curves = [f16] + ([f32] if f32 else [])
    return {
        "device": spec.name,
        "reproduced": verdict.reproduced,
        "f16_digest": f16.digest(),
        "f32_digest": f32.digest() if f32 else None,
        "summary": (format_curves(curves) + "\n"
                    + format_verdict(verdict)),
        "samples": [asdict(s) for c in curves for s in c.samples],
    }


# -------------------------------------------------------------- registry

@dataclass(frozen=True)
class JobKind:
    """One executable kind: its runner and caching policy."""

    name: str
    run: callable
    #: Completed results land in the shared serve cache (and later
    #: identical submissions are answered from it).  Off for diagnostics.
    cacheable: bool = True


JOB_KINDS = {
    "noop": JobKind("noop", _run_noop, cacheable=False),
    "sweep": JobKind("sweep", _run_sweep),
    "autotune": JobKind("autotune", _run_autotune),
    "hgemm": JobKind("hgemm", _run_hgemm),
    "igemm": JobKind("igemm", _run_igemm),
    "verify": JobKind("verify", _run_verify),
    "workloads": JobKind("workloads", _run_workloads),
    "numerics": JobKind("numerics", _run_numerics),
}


def kind_of(name: str) -> JobKind:
    try:
        return JOB_KINDS[name]
    except KeyError:
        raise ValueError(f"unknown job kind {name!r} "
                         f"(know: {sorted(JOB_KINDS)})") from None


def job_key(kind: str, payload: dict) -> str:
    """The job's coalescing key == its ``repro.perf`` cache key.

    It hashes (kind, canonical payload) under the ``SIM_VERSION``-salted
    scheme, leaving out ``jobs``: a worker fan-out never changes the
    result.
    """
    kind_of(kind)  # validate early: a bad kind must fail at submit time
    if isinstance(payload, dict) and "jobs" in payload:
        payload = {name: value for name, value in payload.items()
                   if name != "jobs"}
    return content_key(b"serve-job", SIM_VERSION, kind, payload)


def run_job(kind: str, payload: dict) -> dict:
    """Execute one job; pure in (kind, payload)."""
    return kind_of(kind).run(payload)


def job_error(exc: Exception) -> str:
    """What a job that raised *exc* reports: the exception's type and
    message, the same whether it ran in-process or on the daemon."""
    return f"{type(exc).__name__}: {exc}"
