"""The simulation-service daemon: socket front-end + one job executor.

One long-running process owns:

* the **listener** on a unix domain socket (one handler thread per
  connection, speaking :mod:`repro.serve.protocol` frames);
* the **job queue** (:class:`repro.serve.queue.JobQueue`) with in-flight
  coalescing;
* one **executor** thread that claims jobs in submission order and runs
  each through :func:`repro.serve.jobs.run_job`, one at a time (two job
  threads would trade the interpreter lock on every NumPy call, DESIGN.md
  §7).  Autotune jobs that ask for process parallelism (``"jobs": N``
  in their payload, at most one worker per CPU) fan out through
  :func:`repro.perf.parallel.parallel_map` exactly as an in-process run
  would, including its serial fallback when a worker dies;
* the **shared hot cache**: the process-wide ``repro.perf`` caches plus
  a ``serve/`` result store, so every completed job warms later tenants.

Every job executes under ``STATS.scoped()``: the response carries the
``func.*``/``sim.*``/``cache.*``/``par.*`` deltas of exactly that job
(worker processes ship their deltas home with their results), and the
daemon aggregates the same deltas per tenant for ``serve stats``.

Request ops (every frame is a JSON object with an ``"op"`` field):

========== ===========================================================
``ping``     liveness + identity (pid, versions, uptime)
``submit``   admit one job: ``kind``, ``payload``, ``tenant`` -> job
             view (may be born ``done`` on cache hit)
``batch``    list of submissions, each checked before any is admitted
             (one malformed refuses them all, and so do more new jobs
             than the queue has room for) -> list of job views
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

    def __init__(self, socket_path: str = None, queue_max: int = None):
        self.socket_path = socket_path or str(knobs.read("REPRO_SERVE_SOCKET"))
        # queue_max lets tests fill a small queue; served daemons keep
        # JobQueue's bound.
        self.queue = JobQueue() if queue_max is None else JobQueue(queue_max)
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
        """Bind the socket and spin up the acceptor and executor threads."""
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
        self._threads = [
            threading.Thread(target=self._accept_loop, name="serve-accept",
                             daemon=True),
            threading.Thread(target=self._executor_loop,
                             name="serve-executor", daemon=True)]
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
            return {"ok": True, "jobs": self._admit(subs)}, False
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
        return self._admit([_submission(message)])[0]

    def _admit(self, subs: list) -> list:
        """Admit ``(kind, payload, tenant, key)`` submissions, all or none;
        returns their job views in order.

        Cache hits and twins take no queue slot; when the rest do not fit
        the queue, :class:`QueueFull` refuses them all.
        """
        with self._admit_lock:
            hits = [self.cache.get(key) if JOB_KINDS[kind].cacheable else None
                    for kind, _, _, key in subs]
            queued = iter(self.queue.submit_all(
                [(kind, key, payload, tenant)
                 for (kind, payload, tenant, key), hit in zip(subs, hits)
                 if hit is None]))
            views, events = [], []
            for (kind, payload, tenant, key), hit in zip(subs, hits):
                if hit is not None:
                    job = self.queue.record_cached(kind, key, payload,
                                                   hit["result"], tenant=tenant)
                    views.append({"ok": True, "coalesced": False,
                                  **job.public()})
                    events.append((tenant, "cache_hits"))
                    continue
                job, outcome = next(queued)
                # Under the lock a job cannot complete, so a reply never
                # reads "done" without the result a waiter needs.
                views.append({"ok": True, "coalesced": outcome == "coalesced",
                              **job.public(with_result=False)})
                events.append((tenant, "coalesced" if outcome == "coalesced"
                               else "jobs"))
        for tenant, event in events:
            self._account(tenant, event, {})
        return views

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

    def _executor_loop(self) -> None:
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
                delta = scope.snapshot()  # kill the executor thread
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
