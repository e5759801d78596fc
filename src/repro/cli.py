"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``      regenerate the paper's Tables I-VII
``roofline``    print the Fig. 3 roofline story
``sweep``       run a Fig. 6/7-style square sweep on one device
``hgemm``       run one simulated GEMM and verify it
``igemm``       run one simulated int8 GEMM (IMMA.8816) and verify it
``autotune``    pick the best kernel configuration for a problem
``devices``     list registered devices and their Tensor Core generations
``disasm``      generate an HGEMM kernel and print its SASS listing
``perfstats``   profile kernels and report simulator/cache statistics
``doctor``      report robustness health (guard/cache/workers) + self-test
``serve``       run/manage the simulation-service daemon
``workloads``   deep-learning workload suites: run / estimate / autotune
``numerics``    mixed-precision error curves (FP16 vs FP32 accumulate)

``hgemm``/``igemm``/``sweep``/``autotune``/``verify``/``workloads run``/
``numerics`` are the job verbs (:data:`JOB_VERBS`): each builds the
payloads of the serve job named after it and prints that job's result
dicts.  The jobs run in this process through the daemon's own runner,
:func:`repro.serve.jobs.run_job`, or with ``--remote [SOCKET]`` on a
``repro serve`` daemon (sharing its hot cache and coalescing with other
tenants), which falls back to in-process execution, with a stderr note,
when no daemon is reachable.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import knobs


# ------------------------------------------------------------ job verbs

#: The job verbs.  Each runs serve jobs of the kind it is named after
#: (:data:`repro.serve.jobs.JOB_KINDS`) through :func:`_run_jobs`, so the
#: daemon's runners are their one implementation, and each takes
#: ``--remote``.
JOB_VERBS = ("hgemm", "igemm", "sweep", "autotune", "verify", "workloads",
             "numerics")


def _resolve_remote(args):
    """Daemon socket to use, or None for in-process execution.

    ``--remote`` without a path means the default socket.  An unreachable
    daemon degrades to in-process execution with a stderr note -- the
    command still succeeds, it just pays full price.
    """
    if args.remote is None:
        return None
    from .serve import daemon_available

    path = args.remote or str(knobs.read("REPRO_SERVE_SOCKET"))
    if daemon_available(path):
        return path
    print(f"warning: no daemon reachable at {path}; running in-process",
          file=sys.stderr)
    return None


def _run_jobs(args, payloads, show, charged: bool = False) -> int:
    """Run the verb's jobs and print their result dicts with *show*.

    The jobs go to the daemon ``--remote`` reaches, or run in this
    process through :func:`repro.serve.jobs.run_job`.  *show* prints the
    results and returns the exit status; daemon runs add one
    ``served by daemon:`` line (with the functional instructions charged
    to the request when *charged*).  A job that fails, here or on the
    daemon, is reported as one ``error: job failed:`` line on stderr
    (:func:`repro.serve.jobs.job_error`) and exits 1.
    """
    from functools import partial

    from .perf.parallel import parallel_map
    from .serve.jobs import job_error, run_job

    kind = args.command
    remote = _resolve_remote(args)
    if remote is None:
        jobs = getattr(args, "jobs", None)
        if len(payloads) > 1:
            # Several jobs spread over worker processes, each serial
            # inside: pool workers are daemonic and cannot start pools.
            payloads = [{name: value for name, value in p.items()
                         if name != "jobs"} for p in payloads]
        try:
            results = parallel_map(partial(run_job, kind), payloads,
                                   max_workers=jobs)
        except knobs.KnobError:
            raise   # this process's environment: main reports it
        except Exception as exc:  # noqa: BLE001 - as the daemon reports it
            print(f"error: job failed: {job_error(exc)}", file=sys.stderr)
            return 1
        return show(results)

    from .serve import JobFailed, ServeClient

    try:
        with ServeClient(remote) as client:
            views = client.run_batch([{"kind": kind, "payload": p}
                                      for p in payloads])
    except JobFailed as exc:
        print(f"error: job failed: {exc}", file=sys.stderr)
        return 1
    status = show([view["result"] for view in views])
    detail = ("job" + "s" * (len(views) > 1) + " "
              + ", ".join(view["job_id"] for view in views))
    if charged:
        charge = sum(((view.get("stats") or {}).get("counters") or {})
                     .get("func.instructions", 0) for view in views)
        detail += f", {charge} instructions charged to this request"
    print("served by daemon: " + ", ".join(map(_job_origin, views))
          + f" ({detail})")
    return status


def _job_origin(view: dict) -> str:
    if view.get("cached"):
        return "cache hit"
    if view.get("coalesced"):
        return "coalesced"
    return "executed"


def _show_summary(results) -> int:
    """Print the one job's ``summary``; exit 1 if it did not pass."""
    print(results[0]["summary"])
    return 0 if results[0].get("passed", True) else 1


def _show_gemm(results, opcode: str, oracle: str) -> int:
    r = results[0]
    print(f"kernel: {r['describe']}")
    print(f"instructions: {r['instructions']} ({r['mma']} {opcode}), "
          f"CTAs: {r['ctas']}")
    print(f"bit-exact vs {oracle}: {r['exact']}")
    return 0 if r["exact"] else 1


def _cmd_tables(args) -> int:
    from .arch import RTX2070, T4
    from .analysis import table7
    from .bench import (
        measure_dram_bandwidth, measure_hmma_cpi, measure_hmma_latency,
        measure_l2_bandwidth, measure_ldg_cpi, measure_lds_cpi,
        measure_sts_cpi, smem_throughput_bytes_per_cycle,
    )
    from .core import cublas_like, ours
    from .core.blocking import table6_rows
    from .report import format_table

    print("Table I: HMMA.1688.F16")
    cpi = measure_hmma_cpi(RTX2070)
    lat = measure_hmma_latency(RTX2070)
    print(format_table(["metric", "paper", "measured"], [
        ("CPI measured", 8.06, round(cpi.cpi, 2)),
        ("latency first half", 10, lat.first_half),
        ("latency second half", 14, lat.second_half),
    ]))

    print("\nTable II: bandwidth (GB/s)")
    rows = []
    for spec in (RTX2070, T4):
        rows.append((spec.name, round(measure_dram_bandwidth(spec).gbps, 1),
                     round(measure_l2_bandwidth(spec).gbps, 1)))
    print(format_table(["device", "DRAM", "L2"], rows))

    print("\nTable III: LDG CPI")
    rows = []
    for level in ("l1", "l2"):
        rows.append((level.upper(),) + tuple(
            round(measure_ldg_cpi(RTX2070, w, level).cpi, 2)
            for w in (32, 64, 128)))
    print(format_table(["level", "32", "64", "128"], rows))

    print("\nTables IV-V: shared memory CPI / bytes-per-cycle")
    rows = []
    for op, fn in (("LDS", measure_lds_cpi), ("STS", measure_sts_cpi)):
        results = [fn(RTX2070, w) for w in (32, 64, 128)]
        rows.append((op + " CPI",) + tuple(round(r.cpi, 2) for r in results))
        rows.append((op + " B/cyc",) + tuple(
            round(smem_throughput_bytes_per_cycle(r, w), 2)
            for r, w in zip(results, (32, 64, 128))))
    print(format_table(["metric", "32", "64", "128"], rows))

    print("\nTable VI: pipe cycles per iteration")
    rows = [(f"{c[0]}x{c[1]}x{c[2]}", f"{w[0]}x{w[1]}", round(h), round(m))
            for c, w, h, m in table6_rows(RTX2070)]
    print(format_table(["CTA tile", "warp tile", "HMMA", "memory IO"], rows))

    print("\nTable VII: kernel details")
    rows = [(r["kernel"], "x".join(map(str, r["cta_tile"])),
             f"{r['smem_per_cta_kb']:.0f} KB", r["ctas_per_sm"],
             r["warps_per_sm"]) for r in table7(ours(), cublas_like(), RTX2070)]
    print(format_table(["kernel", "CTA tile", "smem", "CTAs/SM", "warps/SM"],
                       rows))
    return 0


def _cmd_roofline(args) -> int:
    from .arch import get_device
    from .analysis import Roofline
    from .core import cublas_like, ours
    from .report import format_table

    spec = get_device(args.device)
    roof = Roofline(spec)
    rows = []
    for cfg in (cublas_like(), ours()):
        point = roof.evaluate_blocking(cfg)
        rows.append((cfg.name, cfg.compute_intensity,
                     round(point.tensor_tflops, 1),
                     "memory" if point.memory_bound_tensor else "compute"))
    print(format_table(["blocking", "FLOP/B", "attainable TFLOPS", "bound"],
                       rows, title=f"Roofline on {spec.name} "
                                   f"(DRAM {spec.dram_measured_gbps} GB/s)"))
    print(f"Tensor Core ridge: {roof.ridge_intensity():.0f} FLOP/B; "
          f"FP16-unit ridge: {roof.ridge_intensity(False):.0f} FLOP/B")
    return 0


def _cmd_sweep(args) -> int:
    from .arch import get_device
    from .core import cublas_like, ours
    from .report import ascii_chart, format_series
    from .serve.jobs import config_to_dict, spec_to_dict

    spec = get_device(args.device)
    sizes = list(range(args.start, args.stop + 1, args.step))
    payloads = [{"spec": spec_to_dict(spec), "config": config_to_dict(config),
                 "sizes": sizes, "baseline_quirks": quirks}
                for config, quirks in ((ours(), False), (cublas_like(), True))]
    if args.jobs is not None:
        for payload in payloads:
            payload["jobs"] = args.jobs

    def show(results) -> int:
        o, c = ([e["tflops"] for e in r["estimates"]] for r in results)
        print(format_series(sizes, {"ours": [round(v, 1) for v in o],
                                    "cuBLAS": [round(v, 1) for v in c]}))
        print(ascii_chart(sizes, {"ours": o, "cuBLAS": c}))
        speedups = [a / b for a, b in zip(o, c)]
        print(f"avg speedup {sum(speedups) / len(speedups):.2f}, "
              f"max {max(speedups):.2f}")
        return 0

    print(f"simulating SM profiles for {spec.name}...", file=sys.stderr)
    return _run_jobs(args, payloads, show)


def _cmd_hgemm(args) -> int:
    from .arch import get_device
    from .serve.jobs import spec_to_dict

    spec = get_device(args.device)
    payload = {"m": args.m, "n": args.n, "k": args.k, "kernel": args.kernel,
               "accumulate": args.accumulate, "seed": args.seed,
               "spec": spec_to_dict(spec)}

    def show(results) -> int:
        print(f"device: {spec.name} ({spec.arch.name}, "
              f"SM{spec.arch.sm_version})")
        return _show_gemm(results, "HMMA", "precision model")

    return _run_jobs(args, [payload], show, charged=True)


def _cmd_igemm(args) -> int:
    from functools import partial

    from .arch import get_device
    from .serve.jobs import spec_to_dict

    payload = {"m": args.m, "n": args.n, "k": args.k, "seed": args.seed,
               "spec": spec_to_dict(get_device(args.device))}
    return _run_jobs(args, [payload],
                     partial(_show_gemm, opcode="IMMA", oracle="int8 oracle"),
                     charged=True)


def _cmd_autotune(args) -> int:
    from .arch import get_device
    from .serve.jobs import spec_to_dict

    payload = {"spec": spec_to_dict(get_device(args.device)), "m": args.m,
               "n": args.n, "k": args.k,
               "accum_f32": args.accumulate == "f32"}
    if args.jobs is not None:
        payload["jobs"] = args.jobs
    return _run_jobs(args, [payload], _show_summary)


def _cmd_perfstats(args) -> int:
    from .analysis import PerformanceModel
    from .arch import get_device
    from .core import cublas_like, hgemm, ours
    from .perf import PROFILE_CACHE, STATS

    spec = get_device(args.device)
    kernels = {"ours": [ours()], "cublas": [cublas_like()],
               "both": [ours(), cublas_like()]}
    STATS.reset()
    pm = PerformanceModel(spec)
    with STATS.timer("perfstats.wall"):
        profiles = pm.profile_many(kernels[args.kernel],
                                   max_workers=args.jobs)
        # One functional launch per kernel so the func.* counters
        # (CTAs, retired instructions) have data too.
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (256, 32)).astype(np.float16)
        b = rng.uniform(-1, 1, (32, 256)).astype(np.float16)
        for name in ("ours", "cublas"):
            if args.kernel in (name, "both"):
                hgemm(a, b, kernel=name, spec=spec)
    state = ("DISABLED (REPRO_NO_CACHE set)" if knobs.read("REPRO_NO_CACHE")
             else "enabled")
    print(f"result cache: {state}")
    print(f"cache dir:    {knobs.read('REPRO_CACHE_DIR')} "
          f"({PROFILE_CACHE.disk_entries()} profile entries on disk)")
    for cfg, profile in zip(kernels[args.kernel], profiles):
        print(f"{cfg.name}: {profile.marginal_cycles:.1f} cycles/iter "
              f"+ {profile.fixed_cycles:.0f} fixed "
              f"({profile.ctas_per_sm} CTAs/SM)")
    print(STATS.report())
    return 0


def _cmd_analyze(args) -> int:
    from .arch import get_device
    from .analysis import PerformanceModel, explain, sweep_transitions
    from .core import cublas_like, ours

    spec = get_device(args.device)
    pm = PerformanceModel(spec)
    kernels = {"ours": ours(), "cublas": cublas_like()}
    config = kernels[args.kernel]
    quirks = args.kernel == "cublas"

    est = pm.estimate(config, args.m, args.n, args.k,
                      baseline_quirks=quirks)
    breakdown = explain(est)
    print(f"{config.name} @ {args.m}x{args.n}x{args.k} on {spec.name}: "
          f"{est.tflops:.1f} TFLOPS")
    print(breakdown.verdict())
    print(f"waves: {est.waves} of {est.concurrent_ctas} CTAs; wave window "
          f"{est.wave_rows} x {est.wave_cols} tiles"
          + (";  cuBLAS L2-blocking cliff ACTIVE" if est.cliff_active else ""))

    sizes = list(range(2048, 16385, 2048))
    segments = sweep_transitions(pm, config, sizes, baseline_quirks=quirks)
    print("\nbound transitions over the square sweep:")
    for first, last, bound in segments:
        print(f"  W {first}..{last}: {bound}-bound")
    return 0


def _cmd_verify(args) -> int:
    from .arch import get_device
    from .core import cublas_like, ours, ours_f32, ours_int8
    from .core.config import adapt_for_arch
    from .serve.jobs import config_to_dict, spec_to_dict

    spec = get_device(args.device)
    presets = {"ours": ours, "cublas": cublas_like, "f32": ours_f32,
               "int8": ours_int8}
    config = presets[args.kernel]()
    # Shrink to a test-grid-friendly size: the harness skips shapes the
    # config cannot tile, so verify a small member of the family (b_k is
    # two native k-slices so the software pipeline still has work).
    f16_bk = 2 * spec.arch.hmma_k
    config = config.with_(
        b_m=64, b_n=64, b_k=32 if config.ab_dtype == "s8" else f16_bk,
        w_m=min(config.w_m, 32), w_n=min(config.w_n, 32),
        smem_swizzle=False,
        smem_pad_halves=8 if not config.smem_swizzle else 8,
    )
    config = adapt_for_arch(config, spec.arch)
    payload = {"config": config_to_dict(config), "seeds": args.seeds,
               "spec": spec_to_dict(spec)}
    return _run_jobs(args, [payload], _show_summary)


def _cmd_workloads(args) -> int:
    from .arch import get_device

    if args.action == "list":
        from .workloads import SUITES

        for name in sorted(SUITES):
            suite = SUITES[name]
            print(f"{name}: {suite.description}")
            for w in suite.workloads:
                shapes = ", ".join(p.describe() for p in w.problems("sim"))
                print(f"  {w.name} ({w.kind}): sim {shapes}")
        return 0

    spec = get_device(args.device)
    # Functional runs default to the small simulator-friendly shapes;
    # model-side actions default to the production shapes.
    scale = args.scale or ("sim" if args.action == "run" else "full")
    if args.action == "run":
        from .serve.jobs import spec_to_dict

        payload = {"suite": args.suite, "spec": spec_to_dict(spec),
                   "scale": scale, "kernel": args.kernel, "seed": args.seed}
        return _run_jobs(args, [payload], _show_summary)

    if args.action == "estimate":
        from .analysis import sweep_suite
        from .workloads.suite import format_estimates

        rows = sweep_suite(args.suite, spec, scale=scale,
                           max_workers=args.jobs)
        print(format_estimates(rows, spec))
        return 0

    # args.action == "autotune"
    from .analysis import autotune_suite, format_suite_tuning

    rows = autotune_suite(args.suite, spec, scale=scale,
                          accum_f32=args.accumulate == "f32",
                          max_workers=args.jobs)
    print(format_suite_tuning(rows, spec))
    return 0


def _cmd_numerics(args) -> int:
    from .arch import get_device
    from .serve.jobs import spec_to_dict

    payload = {"spec": spec_to_dict(get_device(args.device)),
               "distribution": args.distribution, "m": args.m, "n": args.n,
               "seed": args.seed}
    if args.ks:
        payload["ks"] = [int(k) for k in args.ks.split(",")]
    return _run_jobs(args, [payload], _show_numerics)


def _show_numerics(results) -> int:
    """Table, chart, verdict and digests of the job's error curves."""
    from .numerics import (ErrorCurve, ErrorSample, error_chart,
                           format_curves, format_verdict, markidis_verdict)

    result = results[0]
    curves = {}
    for fields in result["samples"]:
        sample = ErrorSample(**fields)
        curves.setdefault(sample.accumulate, ErrorCurve(
            result["device"], sample.accumulate, sample.distribution,
        )).samples.append(sample)
    f16, f32 = curves["f16"], curves.get("f32")
    print(format_curves(list(curves.values())))
    print()
    print(error_chart(list(curves.values())))
    print()
    verdict = markidis_verdict(f16, f32)
    print(format_verdict(verdict))
    print(f"curve digests: f16 {f16.digest()[:16]}"
          + (f", f32 {f32.digest()[:16]}" if f32 else
             "  (no f32-accumulate form on this generation)"))
    return 0 if verdict.reproduced else 1


def _cmd_doctor(args) -> int:
    from .robust.doctor import format_report, run_doctor

    report, ok = run_doctor(selftest=not args.no_selftest)
    print(format_report(report))
    if "selftest" in report:
        print("doctor: all self-tests passed" if ok
              else "doctor: SELF-TEST FAILURES (see above)")
    elif not ok:
        print("doctor: malformed REPRO_* knobs (see above)")
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from .serve import ServeClient, ServeUnavailable

    sock = args.socket or str(knobs.read("REPRO_SERVE_SOCKET"))
    if args.action == "start":
        return _serve_start(args, sock)
    try:
        with ServeClient(sock) as client:
            if args.action == "stop":
                client.shutdown()
                print(f"daemon at {sock} stopping")
                return 0
            if args.action == "status":
                info = client.ping()
                print(f"daemon at {sock}: pid {info['pid']}, "
                      f"protocol {info['protocol']}, "
                      f"sim {info['sim_version']}, "
                      f"up {info['uptime_s']:.0f}s")
                return 0
            print(_format_serve_stats(client.stats()))
            return 0
    except ServeUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _serve_start(args, sock: str) -> int:
    import signal

    from .serve import ServeDaemon, daemon_available

    if daemon_available(sock):
        print(f"error: a daemon is already serving {sock}", file=sys.stderr)
        return 1
    if args.foreground:
        daemon = ServeDaemon(sock, workers=args.workers,
                             queue_max=args.queue_max)
        try:
            signal.signal(signal.SIGTERM, lambda *_: daemon.stop())
        except ValueError:
            pass  # not the main thread (embedded use)
        print(f"serving on {sock} ({daemon.workers} workers)",
              file=sys.stderr)
        try:
            daemon.serve_forever()
        except KeyboardInterrupt:
            daemon.stop()
        return 0
    return _serve_spawn(args, sock)


def _serve_spawn(args, sock: str) -> int:
    """Fork the daemon into its own session and wait for it to answer."""
    import subprocess
    import time

    from .serve import daemon_available

    cmd = [sys.executable, "-m", "repro", "serve", "start", "--foreground",
           "--socket", sock]
    if args.workers is not None:
        cmd += ["--workers", str(args.workers)]
    if args.queue_max is not None:
        cmd += ["--queue-max", str(args.queue_max)]
    log_path = knobs.read("REPRO_CACHE_DIR") / "serve.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    deadline = time.time() + 10.0
    while time.time() < deadline:
        if daemon_available(sock):
            print(f"daemon started (pid {proc.pid}) on {sock}")
            return 0
        if proc.poll() is not None:
            print(f"error: daemon exited with {proc.returncode} "
                  f"(log: {log_path})", file=sys.stderr)
            return 1
        time.sleep(0.05)
    print(f"error: daemon did not come up within 10s (log: {log_path})",
          file=sys.stderr)
    return 1


def _format_serve_stats(stats: dict) -> str:
    lines = [
        f"daemon pid {stats['pid']}, up {stats['uptime_s']:.0f}s, "
        f"{stats['workers']} workers",
        f"queue: depth {stats['queue_depth']}, "
        f"inflight {stats['inflight']}",
        f"jobs: executed {stats['executed']}, failed {stats['failed']}, "
        f"coalesced {stats['coalesced']}, cache hits {stats['cache_hits']}",
        f"cache: {stats['cache_dir']} "
        f"({stats['cache_disk_entries']} serve entries on disk)",
    ]
    for name, tenant in sorted(stats.get("tenants", {}).items()):
        lines.append(f"tenant {name}: jobs {tenant['jobs']}, "
                     f"coalesced {tenant['coalesced']}, "
                     f"cache hits {tenant['cache_hits']}")
        counters = tenant.get("counters") or {}
        for cname in sorted(counters):
            lines.append(f"    {cname:<26s} {counters[cname]}")
    return "\n".join(lines)


def _cmd_devices(args) -> int:
    """List every registered device with its generation's HMMA shape.

    Everything here comes from the registry (``arch.DEVICES`` and each
    spec's :class:`~repro.arch.family.ArchSpec`) -- no literals, so a new
    registry entry shows up automatically.
    """
    from .arch import DEVICES
    from .report import format_table

    rows = []
    for name in sorted(DEVICES):
        spec = DEVICES[name]
        arch = spec.arch
        rows.append((
            name,
            f"{arch.name} (SM{arch.sm_version})",
            spec.num_sms,
            f"{spec.clock_ghz:.2f}",
            f"{arch.hmma_m}x{arch.hmma_n}x{arch.hmma_k}",
            "yes" if arch.supports_imma else "no",
            f"{spec.tensor_peak_tflops:.1f}",
        ))
    print(format_table(
        ["device", "generation", "SMs", "GHz", "HMMA", "IMMA",
         "peak TFLOPS"],
        rows, title="Registered devices"))
    return 0


def _cmd_disasm(args) -> int:
    from .core import ours
    from .core.builder import HgemmProblem, build_hgemm
    from .core.hgemm import _shrink_to_fit
    from .isa import disassemble, encode_program

    cfg = _shrink_to_fit(ours(), args.m, args.n, args.k)
    program = build_hgemm(cfg, HgemmProblem(
        args.m, args.n, args.k, 0, 1 << 28, 1 << 29))
    if args.binary:
        sys.stdout.write(disassemble(encode_program(program), program.meta))
    else:
        print(program.listing())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tensor Core HGEMM reproduction (IPDPS 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate Tables I-VII")

    p = sub.add_parser("roofline", help="Fig. 3 roofline")
    p.add_argument("--device", default="RTX2070")

    p = sub.add_parser("sweep", help="square-size sweep (Figs. 6-7)")
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--start", type=int, default=1024)
    p.add_argument("--stop", type=int, default=16384)
    p.add_argument("--step", type=int, default=1024)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = one per CPU; default serial)")

    p = sub.add_parser("hgemm", help="run one simulated GEMM")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--device", default="RTX2070",
                   help="registry device name (see 'repro devices')")
    p.add_argument("--kernel", default="ours",
                   choices=["ours", "cublas"])
    p.add_argument("--accumulate", default="f16", choices=["f16", "f32"])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("igemm", help="run one simulated int8 GEMM")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--device", default="RTX2070",
                   help="registry device name (see 'repro devices')")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("autotune", help="pick the best kernel config")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--accumulate", default="f16", choices=["f16", "f32"])
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = one per CPU; default serial)")

    p = sub.add_parser("perfstats",
                       help="profile kernels, report simulator/cache stats")
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--kernel", default="both",
                   choices=["ours", "cublas", "both"])
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (0 = one per CPU; default serial)")

    p = sub.add_parser("analyze", help="bottleneck attribution for a launch")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--kernel", default="ours", choices=["ours", "cublas"])

    p = sub.add_parser("verify", help="bit-exact verification sweep")
    p.add_argument("--device", default="RTX2070",
                   help="registry device name (see 'repro devices')")
    p.add_argument("--kernel", default="ours",
                   choices=["ours", "cublas", "f32", "int8"])
    p.add_argument("--seeds", type=int, default=2)

    p = sub.add_parser("workloads",
                       help="deep-learning workload suites (run/estimate/"
                            "autotune)")
    p.add_argument("action",
                   choices=["list", "run", "estimate", "autotune"])
    p.add_argument("--suite", default="smoke",
                   help="suite name (see 'repro workloads list')")
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--scale", default=None, choices=["sim", "full"],
                   help="shape scale (default: sim for 'run', full for "
                        "'estimate'/'autotune')")
    p.add_argument("--kernel", default="ours", choices=["ours", "cublas"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accumulate", default="f16", choices=["f16", "f32"],
                   help="accumulator for 'autotune'")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for 'estimate'/'autotune' "
                        "(0 = one per CPU; default serial)")

    p = sub.add_parser("numerics",
                       help="mixed-precision error curves (FP16 vs FP32 "
                            "accumulate, simulated HMMA)")
    p.add_argument("--device", default="RTX2070")
    p.add_argument("--ks", default=None,
                   help="comma-separated contracted dimensions "
                        "(default 32..1024)")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--distribution", default="positive",
                   choices=["uniform", "positive", "normal"])
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("devices",
                   help="list registered devices and their generations")

    p = sub.add_parser(
        "doctor", help="robustness health report and pillar self-tests")
    p.add_argument("--no-selftest", action="store_true",
                   help="report configuration/state only; skip the cache, "
                        "worker and guard self-tests")

    p = sub.add_parser("serve", help="simulation-service daemon")
    p.add_argument("action", choices=["start", "stop", "status", "stats"])
    p.add_argument("--socket", default=None,
                   help="unix socket path (default: $REPRO_SERVE_SOCKET "
                        "or <cache dir>/serve.sock)")
    p.add_argument("--workers", type=int, default=None,
                   help="executor threads (default: $REPRO_SERVE_WORKERS "
                        "or 2)")
    p.add_argument("--queue-max", type=int, default=None,
                   help="queued-job bound (default: $REPRO_SERVE_QUEUE_MAX "
                        "or 256)")
    p.add_argument("--foreground", action="store_true",
                   help="with 'start': serve in this process instead of "
                        "forking a background daemon")

    # Thin-client mode: these commands can route through a running daemon.
    for name in JOB_VERBS:
        sub.choices[name].add_argument(
            "--remote", nargs="?", const="", default=None, metavar="SOCKET",
            help="submit to a 'repro serve' daemon (default socket when no "
                 "path given); falls back to in-process when unreachable")

    p = sub.add_parser("disasm", help="print a generated kernel's SASS")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--binary", action="store_true",
                   help="round-trip through the 128-bit encoding first")
    return parser


_COMMANDS = {
    "tables": _cmd_tables,
    "roofline": _cmd_roofline,
    "sweep": _cmd_sweep,
    "hgemm": _cmd_hgemm,
    "igemm": _cmd_igemm,
    "autotune": _cmd_autotune,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "workloads": _cmd_workloads,
    "numerics": _cmd_numerics,
    "devices": _cmd_devices,
    "disasm": _cmd_disasm,
    "perfstats": _cmd_perfstats,
    "doctor": _cmd_doctor,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except knobs.KnobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
