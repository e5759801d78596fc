"""The simulation-service daemon: socket front-end + worker pool.

One long-running process owns:

* the **listener** on a unix domain socket (one handler thread per
  connection, speaking :mod:`repro.serve.protocol` frames);
* the **job queue** (:class:`repro.serve.queue.JobQueue`) with in-flight
  coalescing;
* one **worker pool** -- executor threads that claim jobs and run them
  through :func:`repro.serve.jobs.run_job`.  Sweep and autotune jobs
  that ask for process parallelism (``"jobs": N`` in their payload) fan
  out through the supervised :func:`repro.perf.parallel.parallel_map`
  exactly as an in-process run would, inheriting its
  timeout/retry/serial-fallback ladder;
* the **shared hot cache**: the process-wide ``repro.perf`` caches plus
  a ``serve/`` result store, so every completed job warms later tenants.

Every job executes under ``STATS.scoped()``: the response carries the
``func.*``/``sim.*``/``cache.*``/``guard.*``/``par.*`` deltas of exactly
that job (worker processes ship their deltas home through the
supervisor), and the daemon aggregates the same deltas per tenant for
``serve stats``.

Request ops (every frame is a JSON object with an ``"op"`` field):

========== ===========================================================
``ping``     liveness + identity (pid, versions, uptime)
``submit``   admit one job: ``kind``, ``payload``, ``tenant`` -> job
             view (may be born ``done`` on cache hit)
``batch``    list of submissions, each checked before any is admitted
             (one malformed refuses them all) -> list of job views
``wait``     block (up to ``timeout`` s; ``0`` does not block) for a
             job to finish -> its view
``stats``    daemon-wide counters, queue gauges, per-tenant totals
``shutdown`` stop accepting, fail queued jobs, finish running ones
========== ===========================================================

Error responses are ``{"ok": false, "error": ..., "code": ...}`` with
``code`` in ``{"queue_full", "unknown_job", "bad_request"}``.  A frame
whose body is not a JSON object gets one ``bad_request`` reply, and the
connection reads on.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from .. import knobs
from ..perf.cache import ResultCache, SIM_VERSION
from ..perf.stats import STATS
from .jobs import JOB_KINDS, job_error, job_key, run_job
from .protocol import BadFrame, ProtocolError, recv_frame, send_frame
from .queue import JobQueue, QueueFull, UnknownJob

__all__ = ["ServeDaemon", "PROTOCOL_VERSION"]

#: Bump when the frame schema above changes incompatibly.
PROTOCOL_VERSION = 2


class ServeDaemon:
    """One service instance (embeddable: tests run it in-process)."""

    def __init__(self, socket_path: str = None, workers: int = None,
                 queue_max: int = None):
        self.socket_path = socket_path or str(knobs.read("REPRO_SERVE_SOCKET"))
        self.workers = workers or knobs.read("REPRO_SERVE_WORKERS")
        self.queue = JobQueue(queue_max or knobs.read("REPRO_SERVE_QUEUE_MAX"))
        self.cache = ResultCache(subdir="serve")
        self.started_at = time.time()
        self._stop = threading.Event()
        self._stopped = threading.Event()  # full teardown (unlink) done
        self._listener = None
        self._threads: list = []
        self._conns: set = set()
        self._conn_lock = threading.Lock()
        self._tenants: dict = {}
        self._tenant_lock = threading.Lock()
        #: Spans a submission's cache lookup and its admission, and a
        #: finished job's cache store and completion: a twin that finished
        #: in between would leave the in-flight index after the lookup
        #: missed, and the submission would run it again.
        self._admit_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Bind the socket and spin up acceptor + worker threads."""
        path = self.socket_path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if os.path.exists(path):
            # A stale socket from a dead daemon blocks bind(); a live one
            # must not be stolen.
            if _ping_raw(path):
                raise RuntimeError(f"a daemon is already serving {path}")
            os.unlink(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(64)
        # close() alone does not wake a thread already blocked in accept();
        # a short timeout bounds how long the acceptor can ignore _stop.
        self._listener.settimeout(0.2)
        self._threads = [threading.Thread(target=self._accept_loop,
                                          name="serve-accept", daemon=True)]
        for i in range(self.workers):
            self._threads.append(threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}",
                daemon=True))
        for thread in self._threads:
            thread.start()

    def serve_forever(self) -> None:
        """:meth:`start`, then block until :meth:`stop` (CLI foreground).

        Waits for *complete* teardown, not just the stop signal: a
        shutdown request arrives on a client thread, and exiting the
        process the moment the event is set would race that thread's
        socket unlink.
        """
        self.start()
        self._stop.wait()
        self._stopped.wait(timeout=60)

    def stop(self) -> None:
        """Stop accepting, fail queued jobs, let running jobs finish."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._listener is not None:
            for call in (lambda: self._listener.shutdown(socket.SHUT_RDWR),
                         self._listener.close):
                try:
                    call()
                except OSError:
                    pass
        # Queued-but-unclaimed jobs cannot run anymore; fail them loudly
        # rather than leaving their waiters hanging.
        while True:
            job = self.queue.next_job(timeout=0)
            if job is None:
                break
            self.queue.fail(job, "daemon stopping")
        self._join()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._stopped.set()

    def _join(self) -> None:
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30)

    # ------------------------------------------------------------- accepting

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:  # periodic _stop check
                continue
            except OSError:
                return  # listener closed by stop()
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(target=self._client_loop, args=(conn,),
                             daemon=True).start()

    def _client_loop(self, conn: socket.socket) -> None:
        """One connection: frames in, frames out, until EOF or error.

        A client that disconnects mid-``wait`` only kills this thread;
        its job stays in flight, completes, and lands in the shared
        cache for whoever asks next.
        """
        try:
            while not self._stop.is_set():
                try:
                    message = recv_frame(conn)
                    if message is None:
                        return
                    response, then_stop = self._dispatch(message)
                except (BadFrame, QueueFull, UnknownJob, ValueError, KeyError,
                        TypeError) as exc:
                    response, then_stop = _error(exc), False
                send_frame(conn, response)
                if then_stop:
                    # Reply is flushed (sendall); now take the daemon down
                    # from a thread that is not in self._threads.
                    self.stop()
                    return
        except (ProtocolError, OSError):
            return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------ dispatch

    def _dispatch(self, message: dict):
        op = message.get("op")
        if op == "ping":
            return {
                "ok": True, "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION, "sim_version": SIM_VERSION,
                "uptime_s": round(time.time() - self.started_at, 3),
            }, False
        if op == "submit":
            return self._submit_one(message), False
        if op == "batch":
            # Check every submission before admitting any: a malformed one
            # refuses the whole batch, with no job queued behind the reply.
            subs = [_submission(sub) for sub in message.get("jobs", [])]
            return {"ok": True,
                    "jobs": [self._admit(*sub) for sub in subs]}, False
        if op == "wait":
            timeout = _timeout(message.get("timeout"))
            job = self.queue.get(message["job_id"])
            job.done.wait(timeout)
            return {"ok": True, **job.public()}, False
        if op == "stats":
            return self._stats(), False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        raise ValueError(f"unknown op {op!r}")

    def _submit_one(self, message: dict) -> dict:
        return self._admit(*_submission(message))

    def _admit(self, kind: str, payload: dict, tenant: str,
               key: str) -> dict:
        with self._admit_lock:
            if JOB_KINDS[kind].cacheable:
                hit = self.cache.get(key)
                if hit is not None:
                    job = self.queue.record_cached(kind, key, payload,
                                                   hit["result"], tenant=tenant)
                    self._account(tenant, "cache_hits", {})
                    return {"ok": True, "coalesced": False, **job.public()}
            job, outcome = self.queue.submit(kind, key, payload,
                                             tenant=tenant)
            # Under the lock a job cannot complete, so a reply never
            # reads "done" without the result a waiter needs.
            view = job.public(with_result=False)
        self._account(tenant, "coalesced" if outcome == "coalesced"
                      else "jobs", {})
        return {"ok": True, "coalesced": outcome == "coalesced", **view}

    def _stats(self) -> dict:
        with self._tenant_lock:
            tenants = {name: {"jobs": t["jobs"], "coalesced": t["coalesced"],
                              "cache_hits": t["cache_hits"],
                              "counters": dict(t["counters"])}
                       for name, t in self._tenants.items()}
        queue = self.queue
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "queue_depth": queue.depth(),
            "inflight": queue.inflight(),
            "executed": queue.executed,
            "failed": queue.failed,
            "coalesced": sum(t["coalesced"] for t in tenants.values()),
            "cache_hits": sum(t["cache_hits"] for t in tenants.values()),
            "cache_dir": str(knobs.read("REPRO_CACHE_DIR")),
            "cache_disk_entries": self.cache.disk_entries(),
            "tenants": tenants,
        }

    # ------------------------------------------------------------ execution

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job) -> None:
        # Payloads run as received: nothing in one is opened as a path.
        with STATS.scoped() as scope:
            try:
                result = run_job(job.kind, job.payload)
            except Exception as exc:  # noqa: BLE001 - job faults must not
                delta = scope.snapshot()  # kill the worker thread
                self.queue.fail(job, job_error(exc), delta)
                self._account(job.tenant, None, delta)
                return
        delta = scope.snapshot()
        with self._admit_lock:
            if JOB_KINDS[job.kind].cacheable:
                self.cache.put(job.key, {"result": result})
            self.queue.complete(job, result, delta)
        self._account(job.tenant, None, delta)

    def _account(self, tenant: str, event: str, delta: dict) -> None:
        """Fold one event / stats delta into the per-tenant aggregates."""
        with self._tenant_lock:
            totals = self._tenants.setdefault(
                tenant, {"jobs": 0, "coalesced": 0, "cache_hits": 0,
                         "counters": {}})
            if event:
                totals[event] += 1
            counters = totals["counters"]
            for name, amount in (delta.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + amount


# ----------------------------------------------------------------- helpers

def _timeout(value):
    """A ``wait`` timeout: ``None`` (no bound) or seconds >= 0."""
    if value is None or (type(value) in (int, float) and value >= 0):
        return value if value is None else min(value, threading.TIMEOUT_MAX)
    raise ValueError(f"timeout must be null or seconds >= 0, got {value!r}")


def _submission(message: dict) -> tuple:
    """``(kind, payload, tenant, job_key)`` of one submission; raises on a
    malformed one before anything is admitted."""
    kind = message["kind"]
    payload = message.get("payload") or {}
    tenant = str(message.get("tenant") or "anon")
    return kind, payload, tenant, job_key(kind, payload)


def _error(exc: Exception) -> dict:
    code = "bad_request"
    if isinstance(exc, QueueFull):
        code = "queue_full"
    elif isinstance(exc, UnknownJob):
        code = "unknown_job"
    return {"ok": False, "code": code,
            "error": f"{type(exc).__name__}: {exc}"}


def _ping_raw(path: str, timeout: float = 1.0) -> bool:
    """True when a live daemon answers a ping on *path*."""
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
        try:
            send_frame(sock, {"op": "ping"})
            reply = recv_frame(sock)
        finally:
            sock.close()
        return bool(reply and reply.get("ok"))
    except (OSError, ProtocolError):
        return False
