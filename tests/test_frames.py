import socket

import pytest

from vet import frames
from vet.errors import ValidationError
from vet.frames import Frame
from vet.mockserver import make_echo_handler

REQUEST = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"r"}'


def test_serve_relay_round_trip_health_and_abort():
    server = frames.serve_relay(make_echo_handler(), health=b"echo")
    try:
        host, port = server.server_address
        assert b'{"echo":"r"}' in frames.relay(host, port, REQUEST)
        with socket.create_connection((host, port), timeout=5) as sock:
            frames.write_frame(sock, Frame(frames.RELAY_UP, REQUEST))
            assert frames.read_frame(sock).type == frames.RELAY_DOWN
            # HEALTH is answered in mid-connection, which then goes on.
            frames.write_frame(sock, Frame(frames.HEALTH, b""))
            assert frames.read_frame(sock) == Frame(frames.HEALTH_OK, b"echo")
            frames.write_frame(sock, Frame(frames.RELAY_UP, REQUEST))
            assert frames.read_frame(sock).type == frames.RELAY_DOWN
            # Any other frame is answered with ABORT, and the server hangs up.
            frames.write_frame(sock, Frame(frames.FIN, b""))
            assert frames.read_frame(sock) == Frame(frames.ABORT, b"expected RELAY_UP")
            assert sock.recv(1) == b""
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "data",
    [b"\x00", b"\x01\x00\x00\x00", frames.encode(1, b"abc")[:-1], frames.encode(1, b"") + b"\x02"],
    ids=["one-byte", "short-header", "short-payload", "short-second-header"],
)
def test_decode_all_refuses_a_truncated_frame(data):
    with pytest.raises(ValidationError, match="truncated frame header|payload bytes"):
        frames.decode_all(data)
