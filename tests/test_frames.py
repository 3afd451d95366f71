import socket
import sys
import threading
import time

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


def test_failed_reply_write_ends_the_connection_quietly(rig, opened_sessions, monkeypatch):
    # A reply that cannot be written (the peer is gone) ends the connection
    # without a traceback, and the session is still dropped.
    from vet import notary

    errors = []
    monkeypatch.setattr(frames.FrameServer, "handle_error", lambda self, *args: errors.append(args))
    server = notary.serve(rig.service)
    try:
        open_frame = Frame(
            frames.OPEN, canonical_bytes({"session_id": "gone", "domain": "echo.test"})
        )

        def broken(sock, *batch):
            raise BrokenPipeError("the peer is gone")

        monkeypatch.setattr(frames, "write_frame", broken)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(open_frame.encode())
            assert sock.recv(1) == b""
        session = opened_sessions["gone"]
        assert (session.state, session.abort_reason) == ("aborted", "connection dropped")
        assert rig.service._live == set()
        assert errors == []
    finally:
        server.shutdown()
        server.server_close()


def _health(sock):
    frames.write_frame(sock, Frame(frames.HEALTH, b""))
    return frames.read_frame(sock)


def test_a_connection_past_the_worker_cap_waits_for_a_free_worker(monkeypatch):
    monkeypatch.setattr(frames, "MAX_WORKERS", 2)
    server = frames.serve_relay(make_echo_handler(), health=b"ok")
    try:
        first = socket.create_connection(server.server_address, timeout=5)
        second = socket.create_connection(server.server_address, timeout=5)
        assert _health(first) == _health(second) == Frame(frames.HEALTH_OK, b"ok")
        with socket.create_connection(server.server_address, timeout=5) as third:
            frames.write_frame(third, Frame(frames.HEALTH, b""))
            third.settimeout(0.3)
            with pytest.raises(TimeoutError):
                third.recv(1)  # in the backlog: both workers are busy
            first.close()
            third.settimeout(5)
            assert frames.read_frame(third) == Frame(frames.HEALTH_OK, b"ok")
        second.close()
        assert len(server._workers) == 2
    finally:
        server.shutdown()
        server.server_close()


def test_a_client_silent_past_the_accept_deferral_is_served():
    # A listening socket may hold a connection back from accept() until
    # its first bytes arrive, for 1 s at most; one that stays silent
    # longer is served all the same.
    server = frames.serve_relay(make_echo_handler(), health=b"ok")
    try:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            time.sleep(1.5)
            assert _health(sock) == Frame(frames.HEALTH_OK, b"ok")
    finally:
        server.shutdown()
        server.server_close()


def test_sequential_sessions_take_two_workers_and_shutdown_ends_them(rig):
    from vet import notary, webproof

    baseline = threading.active_count()
    server = notary.serve(rig.service)
    request, spans = rig.registry.render_call(rig.entry, "seq", {"token": "T" * 16})
    counts = []
    try:
        host, port = server.server_address
        for i in range(10):
            channel = webproof.TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, f"seq-{i}")
            webproof.run_session(channel, request, spans, claims={"input": "seq"})
            counts.append(threading.active_count())
    finally:
        server.shutdown()
        server.server_close()
    assert max(counts) <= baseline + 2, counts
    for worker in server._workers:
        worker.join(timeout=1)
        assert not worker.is_alive()
    assert threading.active_count() <= baseline


def test_workers_count_idle_exactly_under_concurrent_clients():
    # Four clients on two cores, with thread switches forced often: every
    # request is answered, and once all have hung up every worker counts
    # as idle again, which a lost update of the count would break.
    server = frames.serve_relay(make_echo_handler())
    host, port = server.server_address
    errors = []

    def client():
        try:
            for _ in range(10):
                assert b'{"echo":"r"}' in frames.relay(host, port, REQUEST)
        except Exception as exc:  # pragma: no cover - collected for assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client) for _ in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
            assert not thread.is_alive()
        deadline = time.monotonic() + 5
        while server._idle != len(server._workers) and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
        server.server_close()
    assert errors == []
    assert server._idle == len(server._workers)


def test_sequential_relay_calls_take_two_workers(monkeypatch):
    # A relay call sends CLOSE with its request, so the worker counts
    # itself idle before its reply and the next call finds it waiting.
    writes = []
    write_frame = frames.write_frame

    def recorded(sock, *batch):
        writes.append(tuple(frame.type for frame in batch))
        write_frame(sock, *batch)

    monkeypatch.setattr(frames, "write_frame", recorded)
    baseline = threading.active_count()
    server = frames.serve_relay(make_echo_handler())
    host, port = server.server_address
    counts = []
    try:
        for _ in range(10):
            assert b'{"echo":"r"}' in frames.relay(host, port, REQUEST)
            counts.append(threading.active_count())
    finally:
        server.shutdown()
        server.server_close()
    assert writes == [(frames.RELAY_UP, frames.CLOSE), (frames.RELAY_DOWN,)] * 10
    assert max(counts) <= baseline + 2, counts
    assert len(server._workers) <= 2
