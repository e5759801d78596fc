"""Run a ``repro serve`` daemon for the benchmark and report on exit.

Usage::

    python3 perfbench/daemon.py --socket PATH --report FILE [--trace]

The daemon is exactly ``repro serve start --foreground`` with its
default worker count, with one addition: each job's thread CPU seconds
are added to the job's scoped stats (timer ``JOB_CPU_TIMER``), which the
daemon returns with the job.
With ``--trace`` the layer wrappers of ``measure.py`` are installed too,
request dispatch is the serve layer and each job execution is a root
span, so daemon-side layer time is attributed.  When the daemon stops (a
``shutdown`` request or SIGTERM), its peak resident memory and the trace
totals are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from measure import JOB_CPU_TIMER, LAYER_TARGETS, Tracer, install  # noqa: E402

#: Request dispatch (protocol ops, job keys, admission) is the serve layer.
DISPATCH = ("repro.serve.daemon", "ServeDaemon._dispatch", "serve", None)


def timed_jobs(tracer):
    """Replace the daemon's job runner with one that records job CPU."""
    import repro.serve.daemon as daemon
    from repro.perf import STATS

    run_job = daemon.run_job

    def run_timed(kind, payload):
        start = time.thread_time()
        try:
            if tracer is None:
                return run_job(kind, payload)
            return tracer.root(run_job, kind, payload)
        finally:
            STATS.add_time(JOB_CPU_TIMER, time.thread_time() - start)

    daemon.run_job = run_timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer, LAYER_TARGETS + (DISPATCH,))
    timed_jobs(tracer)
    from repro.cli import main as cli_main

    status = cli_main(["serve", "start", "--foreground", "--socket",
                       args.socket])
    report = {
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
