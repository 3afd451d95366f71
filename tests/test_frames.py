import socket

import pytest

from vet import frames
from vet.agent_model import ROLE_TOOL_RESULT
from vet.canonical import canonical_bytes
from vet.errors import ProtocolError, ValidationError
from vet.frames import Frame
from vet.mockserver import make_core_handler, make_echo_handler, trader_core

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


def _tool_results_request(*results):
    history = b"".join(frames.encode(ROLE_TOOL_RESULT, r) for r in results)
    body = canonical_bytes({"history": history.hex()})
    head = f"POST /v1/agent HTTP/1.1\r\nHost: llm.test\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


@pytest.mark.parametrize(
    "handler, bad_request",
    [
        (make_echo_handler(), b"garbage"),  # ValidationError from httpmsg
        (make_core_handler(trader_core("0")), _tool_results_request(b"abc", b"0.5")),  # ValueError
    ],
    ids=["echo-garbage", "core-non-numeric-tool-result"],
)
def test_relay_answers_an_unreadable_request_with_abort(handler, bad_request):
    server = frames.serve_relay(handler, health=b"ok")
    try:
        host, port = server.server_address
        with pytest.raises(ProtocolError, match="^relay error: relay: malformed request: "):
            frames.relay(host, port, bad_request)
        # The connection thread ended cleanly; the server goes on serving.
        with socket.create_connection((host, port), timeout=5) as sock:
            frames.write_frame(sock, Frame(frames.HEALTH, b""))
            assert frames.read_frame(sock) == Frame(frames.HEALTH_OK, b"ok")
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
