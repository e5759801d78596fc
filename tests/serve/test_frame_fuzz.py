"""Property tests of the frame surface: whatever bytes or JSON a peer
sends, the reader returns a message, an EOF or a ``ProtocolError``, and
the daemon answers every well-framed request once and keeps serving."""

import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import ServeClient, ServeDaemon
from repro.serve.jobs import JOB_KINDS
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    BadFrame,
    ProtocolError,
    recv_frame,
    send_frame,
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def _prefix(length: int) -> bytes:
    return length.to_bytes(4, "big")


#: Bodies a frame may carry: JSON text of any value, any text, any bytes.
BODIES = (JSON.map(lambda value: json.dumps(value).encode())
          | st.text(max_size=64).map(str.encode) | st.binary(max_size=64))

#: One chunk of a byte stream: a well-framed body, a frame whose prefix
#: disagrees with its body (truncation), an oversized prefix, or raw bytes.
CHUNKS = st.one_of(
    BODIES.map(lambda body: _prefix(len(body)) + body),
    st.tuples(st.integers(0, 512), BODIES).map(
        lambda pair: _prefix(pair[0]) + pair[1]),
    st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1).map(_prefix),
    st.binary(max_size=16))


def _read_stream(data: bytes) -> list:
    """Every message :func:`recv_frame` reads from *data* before the EOF
    or the first frame error that ends the stream."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        b.settimeout(10)
        messages = []
        while True:
            try:
                message = recv_frame(b)
            except BadFrame:
                continue  # read to its end: the stream is still in step
            except ProtocolError:
                return messages
            if message is None:
                return messages
            messages.append(message)
    finally:
        a.close()
        b.close()


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(CHUNKS, max_size=6))
def test_recv_frame_returns_a_dict_eof_or_protocol_error(chunks):
    for message in _read_stream(b"".join(chunks)):
        assert isinstance(message, dict)


# ------------------------------------------------------------ the daemon

#: Strings that would make a frame simulate, sleep or stop the daemon.
_UNSAFE = (set(JOB_KINDS) - {"noop"}) | {"shutdown", "sleep_s"}


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)


def _safe(frame) -> bool:
    return not any(text in _UNSAFE for text in _strings(frame))


KINDS = st.sampled_from(["noop", "nope", ""]) | JSON
SUBMISSIONS = st.fixed_dictionaries(
    {}, optional={"kind": KINDS, "payload": JSON, "tenant": JSON})
OPS = st.fixed_dictionaries(
    {"op": st.sampled_from(["ping", "submit", "batch", "wait", "stats",
                            "poll"]) | JSON},
    optional={"job_id": st.sampled_from(["job-1", "job-0"]) | JSON,
              "timeout": JSON,
              "jobs": st.lists(SUBMISSIONS, max_size=3) | JSON,
              "kind": KINDS, "payload": JSON, "tenant": JSON})
FRAMES = (OPS | JSON).filter(_safe)

CODES = {"bad_request", "queue_full", "unknown_job"}


@pytest.fixture(scope="module")
def fuzz_daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        mp.delenv("REPRO_CHAOS", raising=False)
        daemon = ServeDaemon(str(root / "fuzz.sock"), workers=2)
        daemon.start()
        yield daemon
        daemon.stop()


@settings(max_examples=200, deadline=None)
@given(frame=FRAMES)
def _answers_once(socket_path, frame):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(socket_path)
        send_frame(sock, frame)
        reply = recv_frame(sock)
        assert isinstance(reply, dict) and "ok" in reply, reply
        if not reply["ok"]:
            assert reply["code"] in CODES, reply
        # The next reply on the connection is the ping's: there was one
        # reply to the frame, not two.
        send_frame(sock, {"op": "ping"})
        assert "protocol" in recv_frame(sock)


def test_daemon_answers_every_frame_once(fuzz_daemon):
    failures = []
    previous, threading.excepthook = threading.excepthook, failures.append
    try:
        _answers_once(fuzz_daemon.socket_path)
    finally:
        threading.excepthook = previous
    assert failures == []
    assert all(thread.is_alive() for thread in fuzz_daemon._threads)
    with ServeClient(fuzz_daemon.socket_path, timeout=10) as client:
        assert client.ping()["ok"]
