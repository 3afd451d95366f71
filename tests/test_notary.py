import random
import socket
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from hypothesis import given, settings, strategies as st

from conftest import WebProofRig

from vet import frames, notary as notary_mod, toytls
from vet.canonical import canonical_bytes, canonical_loads
from vet.channel_sim import CostModel
from vet.errors import CapacityExceeded, ProtocolError, ValidationError
from vet.frames import Frame
from vet.keys import SigningKey, key_fingerprint
from vet import mockserver
from vet.httpmsg import parse_response
from vet.mockserver import make_echo_handler
from vet.notary import (
    STATE_ABORTED,
    STATE_FINALIZED,
    NotaryService,
    check_health,
)
from vet.toytls import TargetServer
from vet.webproof import (
    TCPChannel,
    WebProofProver,
    provision_channel,
    run_session,
    verify_webproof,
)


def _open_frame(session_id, cap_up=1 << 16, cap_down=1 << 16, domain="echo.test"):
    return Frame(
        frames.OPEN,
        canonical_bytes(
            {
                "session_id": session_id,
                "domain": domain,
                "cap_up": str(cap_up),
                "cap_down": str(cap_down),
            }
        ),
    )


def test_open_session_and_statement(rig):
    session, ok = rig.service.open_session(_open_frame("s1", 4096, 16384))
    payload = canonical_loads(ok.payload)
    assert payload["notary_public_key"] == rig.notary_key.public_string
    (statement_frame,) = session.handle(Frame(frames.FIN, b""))
    signed = canonical_loads(statement_frame.payload)
    statement = signed["statement"]
    assert statement["server_domain"] == "echo.test"
    assert statement["channel_capacity"] == {"up": "4096", "down": "16384"}
    assert statement["tee_backed"] is False
    assert statement["server_key_fingerprint"] == key_fingerprint(
        rig.server_key.public_string
    )
    from vet.keys import verify_signature

    assert verify_signature(
        rig.notary_key.public_string,
        canonical_bytes(statement),
        signed["notary_signature"],
    )


def test_one_signature_per_session(rig):
    session, _ = rig.service.open_session(_open_frame("s1"))
    (first,) = session.handle(Frame(frames.FIN, b""))
    (second,) = session.handle(Frame(frames.FIN, b""))
    assert first is second  # cached frame, signed exactly once
    assert rig.service.ledger.get("s1").state == STATE_FINALIZED


def test_record_after_statement_aborts(rig):
    session, _ = rig.service.open_session(_open_frame("s1"))
    session.handle(Frame(frames.FIN, b""))
    (reply,) = session.handle(Frame(frames.RELAY_UP, b"x" * 64))
    assert reply.type == frames.ABORT
    assert rig.service.ledger.get("s1").state == STATE_ABORTED


def _sealed_up(up, index, plaintext):
    key = toytls.derive_record_key("up", up, index)
    return Frame(frames.RELAY_UP, toytls.seal_record(key, plaintext))


def test_capacity_enforced(rig):
    channel = provision_channel(rig.service, "echo.test", cap_up=64, session_id="s1")
    up, _ = _real_handshake(channel)
    (ack,) = channel.exchange(_sealed_up(up, 0, b"x" * 64))
    assert ack.type == frames.ACK
    (reply,) = channel.exchange(_sealed_up(up, 1, b"y"))
    assert reply.type == frames.ABORT
    assert b"capacity" in reply.payload
    # An aborted session answers everything with the abort frame.
    (again,) = channel.exchange(Frame(frames.FIN, b""))
    assert again.type == frames.ABORT


def test_capacity_counts_plaintext_not_tag(rig):
    channel = provision_channel(rig.service, "echo.test", cap_up=64, session_id="s1")
    up, _ = _real_handshake(channel)
    (ack,) = channel.exchange(_sealed_up(up, 0, b"x" * 32), _sealed_up(up, 1, b"x" * 32))[1:]
    assert ack.type == frames.ACK
    assert rig.service.ledger.get("s1").used_up == 64


def test_open_rejects_bad_requests(rig):
    with pytest.raises(ProtocolError):
        rig.service.open_session(_open_frame("s1", cap_up=0))
    with pytest.raises(ProtocolError):
        rig.service.open_session(_open_frame("s2", cap_up=(1 << 16) + 1))
    rig.service.open_session(_open_frame("s3"))
    with pytest.raises(ProtocolError):
        rig.service.open_session(_open_frame("s3"))  # duplicate id
    with pytest.raises(ProtocolError):
        rig.service.open_session(Frame(frames.HS_UP, b""))


def test_max_sessions(rig):
    service = NotaryService(
        rig.notary_key, {"echo.test": rig.server}.__getitem__, max_sessions=2
    )
    service.open_session(_open_frame("a"))
    service.open_session(_open_frame("b"))
    with pytest.raises(ProtocolError):
        service.open_session(_open_frame("c"))


def test_session_fixture_sizes(rig):
    # The two provisioning shapes used throughout: a small per-round
    # channel and a full-size session at the per-direction ceiling.
    for cap_up, cap_down in [(4096, 16384), (1 << 16, 1 << 16)]:
        session_id = f"fixture-{cap_up}"
        channel = provision_channel(
            rig.service, "echo.test", cap_up, cap_down, session_id=session_id
        )
        request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
        response, proof = run_session(channel, request, claims={"input": "m"})
        assert b'"echo":"m"' in response
        assert proof.statement.capacity == (cap_up, cap_down)


def test_concurrent_sessions(rig):
    errors = []

    def one(i):
        try:
            channel = provision_channel(
                rig.service, "echo.test", session_id=f"conc-{i}"
            )
            request = (
                b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 17\r\n\r\n'
                + b'{"message":"c%d"}' % i
            )
            response, _ = run_session(channel, request, claims={"input": f"c{i}"})
            assert b'"echo":"c%d"' % i in response
        except Exception as exc:  # pragma: no cover - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    finalized = [
        rig.service.ledger.get(s).state for s in rig.service.ledger.session_ids()
    ]
    assert finalized.count(STATE_FINALIZED) == 8


def test_simulate_setup_delay_linear():
    model = CostModel(setup_base=0.5, setup_per_byte=0.001)
    assert model.setup_delay(1000, 2000) == pytest.approx(0.5 + 3.0)


def test_tcp_end_to_end(rig):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        assert check_health(host, port)
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-1")
        request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"t"}'
        response, proof = run_session(channel, request, claims={"input": "t"})
        assert b'"echo":"t"' in response
        assert rig.service.ledger.get("tcp-1").state == STATE_FINALIZED
    finally:
        server.shutdown()


def test_tcp_disconnect_aborts_session(rig):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-drop")
        channel._sock.close()  # drop mid-session without CLOSE
        for _ in range(100):
            if rig.service.ledger.get("tcp-drop").state == STATE_ABORTED:
                break
            import time

            time.sleep(0.01)
        entry = rig.service.ledger.get("tcp-drop")
        assert entry.state == STATE_ABORTED
        assert entry.statement_frame is None
    finally:
        server.shutdown()


def test_notary_blindness_instrumentation(rig, relayed_payloads):
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": "T" * 16})
    exchange, proof = prover.call(rig.entry, "blind-check", "tool")
    assert exchange.value == "blind-check"
    observed = b"\x00".join(relayed_payloads)
    assert b"blind-check" not in observed
    assert b"T" * 16 not in observed
    # The proof still verifies, so blindness is not vacuous.
    verify_webproof("blind-check", proof, rig.entry, "tool", rig.registry)


def test_session_cap_counts_only_live_sessions(rig):
    # The default cap, as `vet notary serve` builds the service.
    service = NotaryService(rig.notary_key, {"echo.test": rig.server}.__getitem__)
    request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"c"}'
    for i in range(service.max_sessions + 6):
        channel = provision_channel(service, "echo.test", session_id=f"done-{i}")
        run_session(channel, request, claims={"input": "c"})
    entry = service.ledger.get("done-0")
    assert entry.state == STATE_FINALIZED
    assert entry.statement_frame is None
    for i in range(service.max_sessions):
        service.open_session(_open_frame(f"live-{i}"))
    with pytest.raises(ProtocolError, match="session limit reached"):
        service.open_session(_open_frame("one-too-many"))


def test_reused_session_id_refused_after_close(rig):
    session, _ = rig.service.open_session(_open_frame("once"))
    session.handle(Frame(frames.FIN, b""))
    session.handle(Frame(frames.CLOSE, b""))
    with pytest.raises(ProtocolError, match="already used"):
        rig.service.open_session(_open_frame("once"))
    # A closed session answers with an abort and signs nothing more.
    (reply,) = session.handle(Frame(frames.FIN, b""))
    assert reply.type == frames.ABORT


@pytest.mark.parametrize("payload", [b"not json", b"[]", b'{"session_id": ["x"], "domain": "echo.test"}'])
def test_tcp_malformed_open_gets_abort(rig, payload):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5) as sock:
            frames.write_frame(sock, Frame(frames.OPEN, payload))
            reply = frames.read_frame(sock)
        assert reply.type == frames.ABORT
        assert reply.payload.startswith(b"malformed OPEN payload")
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "hello",
    [
        b"not json",
        b'{"nonce": "00"}',
        canonical_bytes({"client_eph": "00" * 32, "nonce": "00"}),  # low-order key
    ],
)
def test_tcp_malformed_hello_gets_abort(rig, hello):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        session_id = f"bad-hello-{hello.hex()[:16]}"
        with socket.create_connection((host, port), timeout=5) as sock:
            frames.write_frame(sock, _open_frame(session_id))
            assert frames.read_frame(sock).type == frames.OPEN_OK
            frames.write_frame(sock, Frame(frames.HS_UP, hello))
            reply = frames.read_frame(sock)
        assert reply.type == frames.ABORT
        assert reply.payload.startswith(b"protocol error: malformed hello")
        entry = rig.service.ledger.get(session_id)
        assert entry.state == STATE_ABORTED
        assert entry.abort_reason.startswith("protocol error: malformed hello")
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def _real_handshake(channel):
    """A real handshake over ``channel``; returns (up secret, handshake key)."""
    rng = random.Random(0)
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    nonce = rng.randbytes(16)
    hello = canonical_bytes({"client_eph": toytls.pub_hex(eph), "nonce": nonce.hex()})
    (reply,) = channel.exchange(Frame(frames.HS_UP, hello))
    assert reply.type == frames.HS_DOWN
    server_eph = bytes.fromhex(canonical_loads(reply.payload)["server_eph"])
    shared = eph.exchange(X25519PublicKey.from_public_bytes(server_eph))
    return toytls.up_secret(shared), toytls.handshake_key(shared, nonce)


def _key_request(hk, statement_bytes):
    return Frame(frames.POST_UP, toytls.seal_record(toytls.post_key(hk, "up"), statement_bytes))


def _notary_signed(key, statement):
    return canonical_bytes(
        {"statement": statement, "notary_signature": key.sign(canonical_bytes(statement))}
    )


@pytest.mark.parametrize(
    "make_request",
    [
        pytest.param(lambda key, sid: b"garbage", id="not-json"),
        pytest.param(lambda key, sid: b"[]", id="not-an-object"),
        pytest.param(lambda key, sid: canonical_bytes({"notary_signature": "00"}), id="no-statement"),
        pytest.param(lambda key, sid: canonical_bytes({"statement": {}}), id="no-signature"),
        pytest.param(lambda key, sid: _notary_signed(key, "x"), id="statement-not-an-object"),
        pytest.param(lambda key, sid: _notary_signed(key, {"session_id": sid}), id="no-records"),
        pytest.param(
            lambda key, sid: _notary_signed(
                key,
                {
                    "session_id": sid,
                    "server_domain": "echo.test",
                    "channel_capacity": {"up": "1", "down": "1"},
                    "records": "x",
                    "head": "00" * 32,
                },
            ),
            id="length-not-an-integer",
        ),
    ],
)
def test_malformed_key_request_aborts(rig, make_request):
    session_id = "bad-post"
    channel = provision_channel(rig.service, "echo.test", session_id=session_id)
    _, hk = _real_handshake(channel)
    (reply,) = channel.exchange(_key_request(hk, make_request(rig.notary_key, session_id)))
    assert reply.type == frames.ABORT
    assert reply.payload.startswith(b"protocol error: malformed key request")
    assert rig.service.ledger.get(session_id).state == STATE_ABORTED


def test_unreadable_request_aborts(rig):
    channel = provision_channel(rig.service, "echo.test", session_id="bad-request")
    up, _ = _real_handshake(channel)
    record = toytls.seal_record(toytls.derive_record_key("up", up, 0), b"not http")
    assert channel.exchange(Frame(frames.RELAY_UP, record)) == [Frame(frames.ACK, b"")]
    (reply,) = channel.exchange(Frame(frames.END_UP, b""))
    assert reply.type == frames.ABORT
    assert reply.payload.startswith(b"protocol error: server: malformed request")
    assert rig.service.ledger.get("bad-request").state == STATE_ABORTED


def _post(path, body):
    head = f"POST {path} HTTP/1.1\r\nHost: h.test\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


@pytest.mark.parametrize(
    "handler, path, field",
    [
        (make_echo_handler(), "/v1/echo", "message"),
        (mockserver.make_sentiment_handler("0"), "/v1/sentiment", "query"),
        (mockserver.make_core_handler(mockserver.trader_core("0")), "/v1/agent", "history"),
    ],
)
@pytest.mark.parametrize(
    "body", ["[]", '"x"', "null", "5", '{"%s": 5}', '{"%s": ["a"]}', '{"%s": null}', "{"]
)
def test_mock_handler_answers_400_to_a_body_of_the_wrong_shape(handler, path, field, body):
    response = parse_response(handler(_post(path, body.replace("%s", field).encode())))
    assert response.status == 400


@pytest.mark.parametrize(
    "core", [mockserver.trader_core("0"), mockserver.scripted_core("0", 3, ["echo"])],
    ids=["trader", "scripted"],
)
@pytest.mark.parametrize("history", ["00", "0100000005ab"], ids=["short-header", "short-payload"])
def test_core_handler_answers_400_to_a_truncated_history(core, history):
    body = canonical_bytes({"history": history})
    response = parse_response(mockserver.make_core_handler(core)(_post("/v1/agent", body)))
    assert response.status == 400


def test_tcp_truncated_history_gets_response_frames():
    rig = WebProofRig(handler=mockserver.make_core_handler(mockserver.trader_core("0")))
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-short-history")
        up, _ = _real_handshake(channel)
        request = _post("/v1/agent", canonical_bytes({"history": "00"}))
        record = toytls.seal_record(toytls.derive_record_key("up", up, 0), request)
        assert channel.exchange(Frame(frames.RELAY_UP, record)) == [Frame(frames.ACK, b"")]
        replies = channel.exchange(Frame(frames.END_UP, b""))
        channel.close()
        types = [r.type for r in replies]
        assert types == [frames.RELAY_DOWN] * (len(replies) - 1) + [frames.END_DOWN]
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def test_array_body_gets_response_frames(rig):
    channel = provision_channel(rig.service, "echo.test", session_id="array-body")
    up, _ = _real_handshake(channel)
    record = toytls.seal_record(toytls.derive_record_key("up", up, 0), _post("/v1/echo", b"[]"))
    assert channel.exchange(Frame(frames.RELAY_UP, record)) == [Frame(frames.ACK, b"")]
    replies = channel.exchange(Frame(frames.END_UP, b""))
    assert [r.type for r in replies] == [frames.RELAY_DOWN] * (len(replies) - 1) + [frames.END_DOWN]


def test_tcp_malformed_key_request_aborts(rig):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-bad-post")
        _, hk = _real_handshake(channel)
        (reply,) = channel.exchange(_key_request(hk, b"garbage"))
        channel.close()
        assert reply.type == frames.ABORT
        assert reply.payload.startswith(b"protocol error: malformed key request")
        entry = rig.service.ledger.get("tcp-bad-post")
        assert entry.state == STATE_ABORTED
        assert entry.abort_reason.startswith("protocol error: malformed key request")
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_health_answered_mid_session(rig):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-health")
        assert channel.exchange(Frame(frames.HEALTH, b"")) == [Frame(frames.HEALTH_OK, b"")]
        request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"h"}'
        response, _ = run_session(channel, request, claims={"input": "h"})
        assert b'"echo":"h"' in response
        assert rig.service.ledger.get("tcp-health").state == STATE_FINALIZED
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_idle_connection_times_out(rig, monkeypatch):
    monkeypatch.setattr(frames, "IDLE_TIMEOUT", 0.2)
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=5) as sock:
            frames.write_frame(sock, _open_frame("stalled"))
            assert frames.read_frame(sock).type == frames.OPEN_OK
            started = time.monotonic()
            assert sock.recv(1) == b""  # the notary hangs up on the stalled prover
            assert time.monotonic() - started < 4
        entry = rig.service.ledger.get("stalled")
        assert entry.state == STATE_ABORTED
        assert entry.abort_reason == "connection dropped"
    finally:
        server.shutdown()
        server.server_close()


# One frame for the fuzzer: a raw frame of any type byte, or a RELAY_UP
# or POST_UP sealed under the session's keys over random bytes.
_FUZZ_FRAMES = st.one_of(
    st.tuples(st.just("raw"), st.integers(0, 255), st.binary(max_size=64)),
    st.tuples(st.sampled_from(["relay", "post"]), st.just(0), st.binary(max_size=64)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FUZZ_FRAMES, max_size=8))
def test_fuzz_session_only_returns_frames(ops):
    rig = WebProofRig()
    channel = provision_channel(rig.service, "echo.test", session_id="fuzz")
    up, hk = _real_handshake(channel)
    sealed = 0
    for kind, ftype, payload in ops:
        if kind == "relay":
            key = toytls.derive_record_key("up", up, sealed)
            frame = Frame(frames.RELAY_UP, toytls.seal_record(key, payload))
            sealed += 1
        elif kind == "post":
            frame = _key_request(hk, payload)
        else:
            frame = Frame(ftype, payload)
        replies = channel.exchange(frame)
        assert isinstance(replies, list)
        assert all(isinstance(reply, Frame) for reply in replies)


def _post_for(message):
    body = canonical_bytes({"message": message})
    return _post("/v1/echo", body)


def test_session_state_is_constant_in_its_records(rig):
    # A request of 1,000 one-byte records leaves no per-record container
    # in the ledger or the server connection, and a statement as long as
    # that of a session of one up record, but for the digits of the count.
    request = next(r for r in map(_post_for, ("m" * k for k in range(1000))) if len(r) == 1000)
    lengths = {}
    for session_id, cut in (("many-0", [1] * 1000), ("one-00", [1000])):
        channel = provision_channel(rig.service, "echo.test", session_id=session_id)
        up, _ = _real_handshake(channel)
        pos = 0
        batch = []
        for index, n in enumerate(cut):
            batch.append(_sealed_up(up, index, request[pos:pos + n]))
            pos += n
        replies = channel.exchange(*batch)
        assert [r.type for r in replies] == [frames.ACK] * len(cut)
        session = channel._session
        for state in (session.entry, session._server):
            containers = [
                (name, len(value))
                for name, value in vars(state).items()
                if isinstance(value, (list, tuple, dict, set))
            ]
            assert all(size <= 2 for _, size in containers), containers
        *_, end_down = channel.exchange(Frame(frames.END_UP, b""))
        assert end_down.type == frames.END_DOWN
        (statement,) = channel.exchange(Frame(frames.FIN, b""))
        signed = canonical_loads(statement.payload)
        lengths[session_id] = (int(signed["statement"]["records"]), len(statement.payload))
    (many, many_bytes), (one, one_bytes) = lengths["many-0"], lengths["one-00"]
    assert many == one + 999
    assert many_bytes - one_bytes == len(str(many)) - len(str(one))


def _send_header(sock, ftype, length):
    sock.sendall(bytes([ftype]) + length.to_bytes(4, "big"))


@pytest.mark.parametrize("opened", [False, True], ids=["before-open", "after-open"])
def test_tcp_frame_over_its_bound_is_refused_unread(rig, opened):
    # A header declaring 16 MiB - 1 against a 64 KiB session: the notary
    # answers ABORT and hangs up without waiting for the payload.
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        session_id = f"oversize-{opened}"
        with socket.create_connection((host, port), timeout=5) as sock:
            if opened:
                frames.write_frame(sock, _open_frame(session_id, cap_up=1 << 16))
                assert frames.read_frame(sock).type == frames.OPEN_OK
            _send_header(sock, frames.RELAY_UP if opened else frames.OPEN, (1 << 24) - 1)
            reply = frames.read_frame(sock)
            assert reply.type == frames.ABORT
            assert f"frame of {(1 << 24) - 1} bytes exceeds limit".encode() in reply.payload
            assert sock.recv(1) == b""
        if opened:
            entry = rig.service.ledger.get(session_id)
            assert entry.state == STATE_ABORTED
            assert entry.abort_reason.startswith("up capacity 65536 exceeded: frame of")
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_frame_limits_follow_the_session(rig):
    session, _ = rig.service.open_session(_open_frame("limits", cap_up=100))
    assert session.frame_limit(frames.RELAY_UP) == 100 + toytls.TAG_LEN
    assert session.frame_limit(frames.POST_UP) == frames.CONTROL_MAX
    session.entry.used_up = 60
    assert session.frame_limit(frames.RELAY_UP) == 40 + toytls.TAG_LEN


def test_capacity_abort_inside_a_batch_raises(rig):
    # The request's records and END_UP leave in one batch; a record past
    # the capacity ends it with an ABORT, in process and over TCP.
    template = rig.registry.get_inject(rig.inject_uid)
    from vet.templates import render

    request, spans = render(template, "b" * 200, {"token": "T" * 16})
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        for channel in (
            provision_channel(rig.service, "echo.test", cap_up=150, session_id="batch-local"),
            TCPChannel(host, port, "echo.test", 150, 1 << 16, "batch-tcp"),
        ):
            with pytest.raises(CapacityExceeded, match="up capacity 150 exceeded"):
                run_session(
                    channel, request, sorted(spans.values()), claims={"input": "b" * 200}
                )
            assert rig.service.ledger.get(channel.session_id).state == STATE_ABORTED
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_session_takes_five_round_trips(rig, monkeypatch):
    # OPEN, the handshake, the request's records with END_UP in one batch,
    # FIN and the key request; CLOSE expects no reply.
    server = notary_mod.serve(rig.service)
    writes = []
    exchange = TCPChannel.exchange
    monkeypatch.setattr(
        TCPChannel, "exchange", lambda self, *batch: writes.append(batch) or exchange(self, *batch)
    )
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "round-trips")
        template = rig.registry.get_inject(rig.inject_uid)
        from vet.templates import render

        request, spans = render(template, "trips", {"token": "T" * 16})
        run_session(channel, request, sorted(spans.values()), claims={"input": "trips"})
        assert 1 + len(writes) == 5
        assert [f.type for f in writes[1]] == [frames.RELAY_UP] * 3 + [frames.END_UP]
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "claims", [{}, {"input": 5}, {"input": "m", "more": "x"}], ids=["none", "not-a-string", "extra"]
)
def test_session_requires_the_claimed_input(rig, claims):
    channel = provision_channel(rig.service, "echo.test")
    with pytest.raises(ValidationError, match="claims must be exactly|input must be a string"):
        run_session(channel, _post_for("m"), claims=claims)
    with pytest.raises(TypeError):
        run_session(channel, _post_for("m"))
