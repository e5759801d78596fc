"""Wire protocol of the simulation service: length-prefixed JSON frames.

The daemon and its clients speak over a unix domain socket.  Every
message -- request or response -- is one **frame**: a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON, which must be
an object.  Framing keeps the stream self-delimiting (no sentinel
scanning, no partial-read ambiguity) and JSON keeps the protocol
inspectable with ``socat`` and a hex dump.  Job payloads and results are
plain JSON: a GEMM result carries its verdict and a SHA-256 of C, never
the matrix.

Frames are capped at :data:`MAX_FRAME_BYTES`; anything larger is a
protocol error.
"""

from __future__ import annotations

import json
import socket

__all__ = [
    "MAX_FRAME_BYTES",
    "BadFrame",
    "ProtocolError",
    "send_frame",
    "recv_frame",
]

#: Hard cap on one frame's JSON payload.  Large enough for any summary
#: the service returns, small enough that a corrupt length prefix cannot
#: make a reader allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: JSON's name for each type :func:`json.loads` returns.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


class ProtocolError(RuntimeError):
    """A malformed, oversized or truncated frame."""


class BadFrame(ProtocolError):
    """A whole frame whose body is not a JSON object.

    The frame was read to its end, so the stream stays in step and the
    reader may answer it and read on.
    """


# -------------------------------------------------------------- framing

def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes, or b"" on a clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(65536, n - got))
        if not chunk:
            if got == 0:
                return b""
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise *message* and write it as one length-prefixed frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    sock.sendall(len(data).to_bytes(4, "big") + data)


def recv_frame(sock: socket.socket):
    """The next message on *sock* (a dict), or ``None`` on a clean EOF.

    A frame whose body is not UTF-8 JSON, or is JSON but not an object,
    raises :class:`BadFrame`.
    """
    header = _recv_exact(sock, 4)
    if not header:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame "
                            f"(cap {MAX_FRAME_BYTES})")
    data = _recv_exact(sock, length)
    if len(data) != length:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BadFrame(f"unparseable frame: {exc}") from None
    if not isinstance(message, dict):
        raise BadFrame("frame body must be a JSON object, got a JSON "
                       f"{_JSON_TYPES[type(message)]}")
    return message
