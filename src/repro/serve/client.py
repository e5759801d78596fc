"""Thin client of the simulation service.

A :class:`ServeClient` wraps one connection to a daemon socket and
exposes the protocol ops as methods.  The CLI's ``--remote`` mode is
built on it, and so is ``repro doctor``'s service self-check.  Python
callers run a job the way ``--remote`` does with
``ServeClient(sock).run(kind, payload)``.

The client is deliberately dumb: no retries, no local execution.  A
caller that wants graceful degradation checks :func:`daemon_available`
(or catches :class:`ServeUnavailable`) and falls back to in-process
execution itself -- that keeps "could not reach the daemon" and "the
daemon says the job failed" as two visibly different failures.
"""

from __future__ import annotations

import getpass
import socket

from .. import knobs
from .protocol import ProtocolError, recv_frame, send_frame

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeUnavailable",
    "JobFailed",
    "daemon_available",
    "default_tenant",
]


class ServeError(RuntimeError):
    """The daemon answered with ``ok: false``."""

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        self.code = code


class ServeUnavailable(ConnectionError):
    """No daemon reachable at the socket path."""


class JobFailed(RuntimeError):
    """A waited-on job finished in the ``failed`` state."""


def default_tenant() -> str:
    """Tenant identity reported with every submission: ``user@pid-host``
    would leak across runs, so user name alone -- stable per human,
    aggregatable across their processes."""
    try:
        return getpass.getuser()
    except Exception:  # no passwd entry in minimal containers
        return "anon"


def daemon_available(socket_path: str = None, timeout: float = 1.0) -> bool:
    """True when a live daemon answers a ping (cheap, side-effect free)."""
    try:
        with ServeClient(socket_path, timeout=timeout) as client:
            client.ping()
        return True
    except (ServeUnavailable, ServeError, ProtocolError, OSError):
        return False


class ServeClient:
    """One connection to a daemon; usable as a context manager."""

    def __init__(self, socket_path: str = None, tenant: str = None,
                 timeout: float = None):
        self.socket_path = socket_path or str(knobs.read("REPRO_SERVE_SOCKET"))
        self.tenant = tenant or default_tenant()
        self.timeout = timeout
        self._sock = None

    # ---------------------------------------------------------- connection

    def connect(self) -> "ServeClient":
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if self.timeout is not None:
                sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                sock.close()
                raise ServeUnavailable(
                    f"no daemon at {self.socket_path} ({exc}); start one "
                    "with 'repro serve start'") from None
            self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, op: str, **fields) -> dict:
        self.connect()
        message = {"op": op, **fields}
        try:
            send_frame(self._sock, message)
            reply = recv_frame(self._sock)
        except OSError as exc:
            self.close()
            raise ServeUnavailable(
                f"daemon at {self.socket_path} went away ({exc})") from None
        if reply is None:
            self.close()
            raise ServeUnavailable(
                f"daemon at {self.socket_path} closed the connection")
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "unspecified daemon error"),
                             code=reply.get("code", ""))
        return reply

    # ----------------------------------------------------------- protocol

    def ping(self) -> dict:
        return self._request("ping")

    def submit(self, kind: str, payload: dict = None) -> dict:
        """Admit one job; returns its job view (may already be done)."""
        return self._request("submit", kind=kind, payload=payload or {},
                             tenant=self.tenant)

    def batch_submit(self, jobs: list) -> list:
        """Admit several jobs in one round trip.

        *jobs* is a list of ``{"kind", "payload"}`` dicts;
        duplicates coalesce against each other (and anything already in
        flight), so a figure-sweep client submits its whole grid here.
        """
        subs = [{"kind": j["kind"], "payload": j.get("payload") or {},
                 "tenant": self.tenant} for j in jobs]
        return self._request("batch", jobs=subs)["jobs"]

    def wait(self, job_id: str, timeout: float = None) -> dict:
        """Block until the job finishes (or *timeout*; ``0`` returns at
        once); returns its view."""
        return self._request("wait", job_id=job_id, timeout=timeout)

    def stats(self) -> dict:
        return self._request("stats")

    def shutdown(self) -> dict:
        return self._request("shutdown")

    # --------------------------------------------------------- convenience

    def run(self, kind: str, payload: dict = None,
            timeout: float = None) -> dict:
        """Submit + wait; returns the finished job view (see
        :meth:`run_batch`)."""
        return self.run_batch([{"kind": kind, "payload": payload}],
                              timeout=timeout)[0]

    def run_batch(self, jobs: list, timeout: float = None) -> list:
        """:meth:`batch_submit` *jobs*, then wait for each in turn; returns
        the finished job views in order, each keeping its submit reply's
        ``coalesced`` flag (the ``wait`` view has none).

        Raises :class:`JobFailed` when the daemon reports a job failed
        (the daemon-side exception text is the message).
        """
        views = []
        for view in self.batch_submit(jobs):
            if view["state"] not in ("done", "failed"):
                view = {**self.wait(view["job_id"], timeout=timeout),
                        "coalesced": view["coalesced"]}
            if view["state"] == "failed":
                raise JobFailed(view.get("error", "job failed"))
            if view["state"] != "done":
                raise ServeError(f"job {view['job_id']} still "
                                 f"{view['state']} after wait")
            views.append(view)
        return views
