"""Wire protocol of the simulation service: length-prefixed JSON frames.

The daemon and its clients speak over a unix domain socket.  Every
message -- request or response -- is one **frame**: a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON.  Framing keeps
the stream self-delimiting (no sentinel scanning, no partial-read
ambiguity) and JSON keeps the protocol inspectable with ``socat`` and a
hex dump.

NumPy payloads do not fit JSON natively, so :func:`encode_payload` walks
a job result and replaces every ``ndarray`` (and ``bytes``) with a
tagged dict (the daemon runs request payloads as received and never
decodes them):

* small arrays travel **inline** as base64 (``{"__nd__": ...}``);
* arrays above :data:`SPOOL_LIMIT_BYTES` are **file-spooled**: written as
  ``.npy`` into a spool directory and referenced by path
  (``{"__ndfile__": ...}``).  Client and daemon share a host (unix
  socket), so a path reference is sound and keeps multi-MB operands out
  of the socket buffer.

:func:`decode_payload` reverses both.  Frames are capped at
:data:`MAX_FRAME_BYTES`; anything larger is a protocol error, which is
what pushes bulk data onto the spool path.
"""

from __future__ import annotations

import base64
import io
import json
import os
import socket
import tempfile
import uuid

import numpy as np

__all__ = [
    "MAX_FRAME_BYTES",
    "SPOOL_LIMIT_BYTES",
    "ProtocolError",
    "send_frame",
    "recv_frame",
    "encode_payload",
    "decode_payload",
]

#: Hard cap on one frame's JSON payload.  Large enough for any summary
#: the service returns, small enough that a corrupt length prefix cannot
#: make a reader allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Arrays above this many bytes are spooled to ``.npy`` files instead of
#: travelling base64-inline (base64 inflates by 4/3 and the JSON codec
#: copies; 4 MB keeps frames snappy).
SPOOL_LIMIT_BYTES = 4 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed, oversized or truncated frame."""


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
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} cap; "
            "spool bulk arrays instead (see encode_payload)")
    sock.sendall(len(data).to_bytes(4, "big") + data)


def recv_frame(sock: socket.socket):
    """The next message on *sock*, or ``None`` on a clean EOF."""
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
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from None


# ------------------------------------------------------- numpy payloads

def _spool_dir(spool_dir) -> str:
    if spool_dir is None:
        spool_dir = os.path.join(tempfile.gettempdir(), "repro-serve-spool")
    os.makedirs(spool_dir, exist_ok=True)
    return spool_dir


def _encode_array(arr: np.ndarray, spool_dir):
    if arr.nbytes > SPOOL_LIMIT_BYTES:
        path = os.path.join(_spool_dir(spool_dir),
                            f"{uuid.uuid4().hex}.npy")
        with open(path, "wb") as fh:
            np.save(fh, arr, allow_pickle=False)
        return {"__ndfile__": path}
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return {"__nd__": base64.b64encode(buf.getvalue()).decode("ascii")}


def encode_payload(obj, spool_dir=None):
    """Deep-copy *obj* with every ndarray/bytes replaced by a JSON form.

    ``spool_dir`` overrides where oversized arrays are spooled (the
    daemon points it inside its cache directory so ``serve stop`` can
    sweep leftovers).
    """
    if isinstance(obj, np.ndarray):
        return _encode_array(obj, spool_dir)
    if isinstance(obj, (bytes, bytearray)):
        return {"__b64__": base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {key: encode_payload(value, spool_dir)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_payload(value, spool_dir) for value in obj]
    return obj


def decode_payload(obj, unlink_spool: bool = True):
    """Reverse :func:`encode_payload`.

    Spooled files are read once and (by default) unlinked -- they are
    one-shot hand-offs, not a cache.
    """
    if isinstance(obj, dict):
        if "__nd__" in obj and len(obj) == 1:
            raw = base64.b64decode(obj["__nd__"])
            return np.load(io.BytesIO(raw), allow_pickle=False)
        if "__ndfile__" in obj and len(obj) == 1:
            path = obj["__ndfile__"]
            with open(path, "rb") as fh:
                arr = np.load(fh, allow_pickle=False)
            if unlink_spool:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return arr
        if "__b64__" in obj and len(obj) == 1:
            return base64.b64decode(obj["__b64__"])
        return {key: decode_payload(value, unlink_spool)
                for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(value, unlink_spool) for value in obj]
    return obj
