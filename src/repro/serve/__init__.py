"""Simulation as a service: daemon, coalescing queue, thin clients.

The simulator became a pure cached function (content-addressed results,
supervised workers, guard rails); this package turns it into a shared
**service**.  One long-running daemon (``repro serve start``) owns one
worker pool and one hot cache, and any number of clients -- CLI
invocations with ``--remote``, Python callers of
``ServeClient(sock).run(kind, payload)`` -- submit jobs over a unix
domain socket.  The job runners (:func:`~repro.serve.jobs.run_job`) are
also what the CLI's job verbs run in-process, so a job's answer does
not depend on where it ran.

The perf mechanism is **in-flight coalescing**: jobs are keyed by the
same content-addressed key the ``repro.perf`` cache uses, concurrent
submissions of one key attach to a single execution (``serve.coalesced``
counts the attachments), and completed results land in the shared cache
so later tenants get warm-lookup latency.  N clients autotuning the same
problem cost one fleet, not N.

Modules: :mod:`~repro.serve.protocol` (length-prefixed frames, each
one JSON object), :mod:`~repro.serve.queue` (FIFO, bounded depth,
coalescing), :mod:`~repro.serve.jobs` (job kinds and the key =
cache-key invariant), :mod:`~repro.serve.daemon` (the server),
:mod:`~repro.serve.client` (the thin client).
"""

from .client import (
    JobFailed,
    ServeClient,
    ServeError,
    ServeUnavailable,
    daemon_available,
    default_tenant,
)
from .daemon import PROTOCOL_VERSION, ServeDaemon
from .jobs import JOB_KINDS, job_key, run_job
from .queue import Job, JobQueue, QueueFull, UnknownJob

__all__ = [
    "JobFailed",
    "ServeClient",
    "ServeError",
    "ServeUnavailable",
    "daemon_available",
    "default_tenant",
    "PROTOCOL_VERSION",
    "ServeDaemon",
    "JOB_KINDS",
    "job_key",
    "run_job",
    "Job",
    "JobQueue",
    "QueueFull",
    "UnknownJob",
]
