"""Unit tests for the serve wire protocol: length-prefixed JSON objects."""

import socket

import pytest

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    BadFrame,
    ProtocolError,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        send_frame(a, {"op": "ping", "n": 3})
        assert recv_frame(b) == {"op": "ping", "n": 3}

    def test_several_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            send_frame(a, {"i": i})
        assert [recv_frame(b)["i"] for _ in range(5)] == list(range(5))

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert recv_frame(b) is None

    def test_mid_frame_eof_raises(self, pair):
        a, b = pair
        a.sendall((1000).to_bytes(4, "big") + b'{"tru')
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)

    def test_oversize_frame_rejected(self, pair):
        a, b = pair
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(b)

    def test_garbage_json_raises(self, pair):
        a, b = pair
        body = b"not json at all"
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError):
            recv_frame(b)

    def test_plain_json_passthrough(self, pair):
        a, b = pair
        message = {"a": 1, "b": [1.5, "x", None], "c": {"d": True}}
        send_frame(a, message)
        assert recv_frame(b) == message

    @pytest.mark.parametrize("body,name", [
        (b"[1, 2]", "array"), (b'"hello"', "string"), (b"5", "number"),
        (b"true", "boolean"), (b"null", "null")])
    def test_non_object_body_is_a_bad_frame(self, pair, body, name):
        """Only a JSON object is a message; ``null`` is not an EOF."""
        a, b = pair
        a.sendall(len(body).to_bytes(4, "big") + body)
        send_frame(a, {"op": "ping"})
        with pytest.raises(BadFrame, match=f"got a JSON {name}$"):
            recv_frame(b)
        # The bad frame was read to its end: the next one is intact.
        assert recv_frame(b) == {"op": "ping"}

    def test_too_deep_nesting_is_a_bad_frame(self, pair):
        a, b = pair
        body = b"[" * 10_000 + b"]" * 10_000
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(BadFrame):
            recv_frame(b)
