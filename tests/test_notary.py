import gc
import hashlib
import random
import socket
import threading
import time
import weakref
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from hypothesis import given, settings, strategies as st

from conftest import HandSealer, WebProofRig

from vet import demo, frames, notary as notary_mod, toytls
from vet.canonical import canonical_bytes, canonical_loads
from vet.channel_sim import CostModel
from vet.errors import CapacityExceeded, ProtocolError, ValidationError
from vet.frames import Frame
from vet.keys import SigningKey
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
    NotarizedSession,
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
    channel = provision_channel(rig.service, "echo.test", 4096, 16384, session_id="s1")
    _real_handshake(channel)
    statement_frame, released = channel.exchange(Frame(frames.FIN, b""))
    assert (statement_frame.type, released.type) == (frames.STATEMENT, frames.POST_DOWN)
    signed = canonical_loads(statement_frame.payload)
    statement = signed["statement"]
    assert statement["server_domain"] == "echo.test"
    assert statement["channel_capacity"] == {"up": "4096", "down": "16384"}
    # Exactly the fields a verifier decodes, and the session's times.
    assert set(statement) == {
        "session_id", "server_domain", "channel_capacity", "opened_at", "closed_at",
        "records", "head",
    }
    from vet.keys import verify_signature

    assert verify_signature(
        rig.notary_key.public_string,
        canonical_bytes(statement),
        signed["notary_signature"],
    )


def test_one_signature_per_session(rig, monkeypatch):
    channel = provision_channel(rig.service, "echo.test", session_id="s1")
    _real_handshake(channel)
    signed = []
    sign = SigningKey.sign
    monkeypatch.setattr(SigningKey, "sign", lambda key, msg: signed.append(msg) or sign(key, msg))
    first = channel.exchange(Frame(frames.FIN, b""))
    assert [f.type for f in first] == [frames.STATEMENT, frames.POST_DOWN]
    # FIN ended the session: a second one gets an ABORT and no signature.
    (second,) = channel.exchange(Frame(frames.FIN, b""))
    assert (second.type, second.payload) == (frames.ABORT, b"session ended")
    assert len(signed) == 1
    assert channel._session.state == STATE_FINALIZED


def test_record_after_statement_aborts(rig):
    channel = provision_channel(rig.service, "echo.test", session_id="s1")
    _real_handshake(channel)
    channel.exchange(Frame(frames.FIN, b""))
    (reply,) = channel.exchange(Frame(frames.RELAY_UP, b"x" * 64))
    assert reply.type == frames.ABORT
    session = channel._session
    assert (session.state, session.chain.count) == (STATE_FINALIZED, 0)


def _sealed_up(up, index, plaintext):
    return Frame(frames.RELAY_UP, HandSealer("up", up).seal(index, plaintext))


def test_capacity_enforced(rig):
    channel = provision_channel(rig.service, "echo.test", cap_up=64, session_id="s1")
    up, _ = _real_handshake(channel)
    # A relayed record gets no reply.
    assert channel.exchange(_sealed_up(up, 0, b"x" * 64)) == []
    (reply,) = channel.exchange(_sealed_up(up, 1, b"y"))
    assert reply.type == frames.ABORT
    assert b"capacity" in reply.payload
    # An aborted session answers everything with the abort frame.
    (again,) = channel.exchange(Frame(frames.FIN, b""))
    assert again.type == frames.ABORT


def test_capacity_counts_plaintext_not_tag(rig):
    channel = provision_channel(rig.service, "echo.test", cap_up=64, session_id="s1")
    up, _ = _real_handshake(channel)
    assert channel.exchange(_sealed_up(up, 0, b"x" * 32), _sealed_up(up, 1, b"x" * 32)) == []
    assert channel._session.chain.used == {"up": 64, "down": 0}


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


def test_concurrent_sessions(rig, opened_sessions):
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
    assert [s.state for s in opened_sessions.values()] == [STATE_FINALIZED] * 8
    assert rig.service._live == set()


def test_simulate_setup_delay_linear():
    model = CostModel(setup_base=0.5, setup_per_byte=0.001)
    assert model.setup_delay(1000, 2000) == pytest.approx(0.5 + 3.0)


def test_tcp_end_to_end(rig, opened_sessions):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        assert check_health(host, port)
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-1")
        request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"t"}'
        response, proof = run_session(channel, request, claims={"input": "t"})
        assert b'"echo":"t"' in response
        assert opened_sessions["tcp-1"].state == STATE_FINALIZED
    finally:
        server.shutdown()
        server.server_close()


def test_unknown_domain_is_a_protocol_error_in_process_and_over_tcp(rig):
    with pytest.raises(ProtocolError, match="no server for domain 'nosuch.test'"):
        provision_channel(demo.build_world("0").notary, "nosuch.test")
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "nosuch.test", 1 << 16, 1 << 16, "nosuch")
        with pytest.raises(
            ProtocolError,
            match="notary rejected session: no server for domain 'nosuch.test'",
        ):
            NotarizedSession(channel, random.Random(0))
        assert rig.service._live == set()
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_disconnect_aborts_session(rig, opened_sessions):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-drop")
        # OPEN leaves with the handshake: a channel that sent nothing opens
        # no session.
        _real_handshake(channel)
        channel._sock.close()  # drop mid-session without CLOSE
        session = opened_sessions["tcp-drop"]
        for _ in range(100):
            if session.state == STATE_ABORTED:
                break
            time.sleep(0.01)
        assert (session.state, session.abort_reason) == (STATE_ABORTED, "connection dropped")
        assert rig.service._live == set()
    finally:
        server.shutdown()
        server.server_close()


def test_notary_blindness_instrumentation(rig, relayed_payloads):
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": "T" * 16})
    exchange, proof = prover.call(rig.entry, "blind-check", "tool")
    assert exchange.value == "blind-check"
    observed = b"\x00".join(relayed_payloads)
    assert b"blind-check" not in observed
    assert b"T" * 16 not in observed
    # The proof still verifies, so blindness is not vacuous.
    verify_webproof("blind-check", proof, rig.entry, "tool", rig.registry)


def test_session_cap_counts_only_live_sessions(rig, opened_sessions):
    # The default cap, as `vet notary serve` builds the service.
    service = NotaryService(rig.notary_key, {"echo.test": rig.server}.__getitem__)
    request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"c"}'
    for i in range(service.max_sessions + 6):
        channel = provision_channel(service, "echo.test", session_id=f"done-{i}")
        run_session(channel, request, claims={"input": "c"})
    assert opened_sessions["done-0"].state == STATE_FINALIZED
    assert service._live == set()
    for i in range(service.max_sessions):
        service.open_session(_open_frame(f"live-{i}"))
    with pytest.raises(ProtocolError, match="session limit reached"):
        service.open_session(_open_frame("one-too-many"))


def test_session_id_refused_only_while_live(rig):
    request = _post_for("again")
    live = provision_channel(rig.service, "echo.test", session_id="once")
    with pytest.raises(ProtocolError, match="session 'once' is live"):
        rig.service.open_session(_open_frame("once"))
    _, first = run_session(live, request, rng=random.Random(0), claims={"input": "again"})
    # The session ended at FIN, so its id may open again; the server draws
    # a fresh seed, so the same exchange gets other down keys.
    again = provision_channel(rig.service, "echo.test", session_id="once")
    _, second = run_session(again, request, rng=random.Random(0), claims={"input": "again"})
    # The first key is the first up record's, the last the last down record's.
    assert first.record_keys[0] != second.record_keys[0]
    assert first.record_keys[-1] != second.record_keys[-1]
    # An ended session answers with an abort and signs nothing more.
    (reply,) = live.exchange(Frame(frames.FIN, b""))
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
def test_tcp_malformed_hello_gets_abort(rig, opened_sessions, hello):
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
        entry = opened_sessions[session_id]
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
    # The notary hands its statement to the server connection as a
    # STATEMENT frame; one that does not decode releases no seed.
    session_id = "bad-post"
    connection = rig.server.open_connection(session_id)
    _real_handshake(SimpleNamespace(exchange=connection.handle))
    statement = Frame(frames.STATEMENT, make_request(rig.notary_key, session_id))
    with pytest.raises(ProtocolError, match="malformed statement"):
        connection.handle(statement)


def test_unreadable_request_aborts(rig):
    channel = provision_channel(rig.service, "echo.test", session_id="bad-request")
    up, _ = _real_handshake(channel)
    assert channel.exchange(_sealed_up(up, 0, b"not http")) == []
    (reply,) = channel.exchange(Frame(frames.END_UP, b""))
    assert reply.type == frames.ABORT
    assert reply.payload.startswith(b"protocol error: server: malformed request")
    assert channel._session.state == STATE_ABORTED


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
        assert channel.exchange(_sealed_up(up, 0, request)) == []
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
    assert channel.exchange(_sealed_up(up, 0, _post("/v1/echo", b"[]"))) == []
    replies = channel.exchange(Frame(frames.END_UP, b""))
    assert [r.type for r in replies] == [frames.RELAY_DOWN] * (len(replies) - 1) + [frames.END_DOWN]


def test_tcp_malformed_key_request_aborts(rig, opened_sessions):
    # Only the notary hands a statement to the server: a prover's STATEMENT,
    # or a frame of the retired key-request type (0x0B), aborts the session.
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        for ftype in (0x0B, frames.STATEMENT):
            session_id = f"tcp-bad-post-{ftype}"
            channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, session_id)
            _real_handshake(channel)
            (reply,) = channel.exchange(Frame(ftype, b"garbage"))
            channel.close()
            reason = f"protocol error: notary: unexpected frame type {ftype:#x}"
            assert (reply.type, reply.payload) == (frames.ABORT, reason.encode())
            entry = opened_sessions[session_id]
            assert (entry.state, entry.abort_reason) == (STATE_ABORTED, reason)
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_health_answered_mid_session(rig, opened_sessions):
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "tcp-health")
        assert channel.exchange(Frame(frames.HEALTH, b"")) == [Frame(frames.HEALTH_OK, b"")]
        request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"h"}'
        response, _ = run_session(channel, request, claims={"input": "h"})
        assert b'"echo":"h"' in response
        assert opened_sessions["tcp-health"].state == STATE_FINALIZED
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_idle_connection_times_out(rig, opened_sessions, monkeypatch):
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
        entry = opened_sessions["stalled"]
        assert entry.state == STATE_ABORTED
        assert entry.abort_reason == "connection dropped"
    finally:
        server.shutdown()
        server.server_close()


# One frame for the fuzzer: a raw frame of any type byte, a raw
# STATEMENT, or a RELAY_UP sealed under the session's up keys over
# random bytes.
_FUZZ_FRAMES = st.one_of(
    st.tuples(st.just("raw"), st.integers(0, 255), st.binary(max_size=64)),
    st.tuples(st.just("raw"), st.just(frames.STATEMENT), st.binary(max_size=64)),
    st.tuples(st.just("relay"), st.just(0), st.binary(max_size=64)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FUZZ_FRAMES, max_size=8))
def test_fuzz_session_only_returns_frames(ops):
    rig = WebProofRig()
    channel = provision_channel(rig.service, "echo.test", session_id="fuzz")
    up, _ = _real_handshake(channel)
    sealed = 0
    for kind, ftype, payload in ops:
        if kind == "relay":
            frame = _sealed_up(up, sealed, payload)
            sealed += 1
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
    # in the notary session or the server connection, and a statement as long as
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
        assert replies == []
        session = channel._session
        for state in (session, session._server):
            containers = [
                (name, len(value))
                for name, value in vars(state).items()
                if isinstance(value, (list, tuple, dict, set))
            ]
            assert all(size <= 2 for _, size in containers), containers
        *_, end_down = channel.exchange(Frame(frames.END_UP, b""))
        assert end_down.type == frames.END_DOWN
        statement, _ = channel.exchange(Frame(frames.FIN, b""))
        signed = canonical_loads(statement.payload)
        lengths[session_id] = (int(signed["statement"]["records"]), len(statement.payload))
    (many, many_bytes), (one, one_bytes) = lengths["many-0"], lengths["one-00"]
    assert many == one + 999
    assert many_bytes - one_bytes == len(str(many)) - len(str(one))


@pytest.mark.parametrize("when", ["before-open", "after-open", "in-a-burst"])
def test_tcp_frame_over_its_bound_is_refused_unread(rig, opened_sessions, when):
    # A header declaring 16 MiB - 1 against a 64 KiB session: the notary
    # answers ABORT and hangs up without waiting for the payload. In a
    # burst, the frames before it are answered first.
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        session_id = f"oversize-{when}"
        header = bytes([frames.OPEN if when == "before-open" else frames.RELAY_UP])
        header += ((1 << 24) - 1).to_bytes(4, "big")
        with socket.create_connection((host, port), timeout=5) as sock:
            if when == "after-open":
                frames.write_frame(sock, _open_frame(session_id, cap_up=1 << 16))
                assert frames.read_frame(sock).type == frames.OPEN_OK
            if when == "in-a-burst":
                eph = X25519PrivateKey.from_private_bytes(bytes(range(32)))
                hello = canonical_bytes({"client_eph": toytls.pub_hex(eph), "nonce": "00" * 16})
                burst = _open_frame(session_id).encode() + frames.encode(frames.HS_UP, hello)
                sock.sendall(burst + header + b"x" * 100)
                types = [frames.read_frame(sock).type for _ in range(2)]
                assert types == [frames.OPEN_OK, frames.HS_DOWN]
            else:
                sock.sendall(header)
            reply = frames.read_frame(sock)
            assert reply.type == frames.ABORT
            assert f"frame of {(1 << 24) - 1} bytes exceeds limit".encode() in reply.payload
            assert sock.recv(1) == b""
        if when != "before-open":
            entry = opened_sessions[session_id]
            assert entry.state == STATE_ABORTED
            assert entry.abort_reason.startswith("up capacity 65536 exceeded: frame of")
        assert check_health(host, port)
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_frame_limits_follow_the_session(rig):
    session, _ = rig.service.open_session(_open_frame("limits", cap_up=100))
    assert session.frame_limit(frames.RELAY_UP) == 100 + toytls.TAG_LEN
    assert session.frame_limit(frames.FIN) == frames.CONTROL_MAX
    session.chain.used["up"] = 60
    assert session.frame_limit(frames.RELAY_UP) == 40 + toytls.TAG_LEN


def test_capacity_abort_inside_a_batch_raises(rig, opened_sessions):
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
            assert opened_sessions[channel.session_id].state == STATE_ABORTED
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_session_takes_two_round_trips(rig, monkeypatch):
    # OPEN leaves with the handshake, and FIN with the request's records
    # and END_UP; the server answers each burst in one write, and the
    # prover sends no CLOSE after POST_DOWN.
    server = notary_mod.serve(rig.service)
    writes = []
    write_frame = frames.write_frame

    def spy(sock, *batch):
        writes.append([f.type for f in batch])
        write_frame(sock, *batch)

    monkeypatch.setattr(frames, "write_frame", spy)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "round-trips")
        template = rig.registry.get_inject(rig.inject_uid)
        from vet.templates import render

        request, spans = render(template, "trips", {"token": "T" * 16})
        run_session(channel, request, sorted(spans.values()), claims={"input": "trips"})
        assert len(writes) == 4
        assert writes[0] == [frames.OPEN, frames.HS_UP]
        assert writes[1] == [frames.OPEN_OK, frames.HS_DOWN]
        assert writes[2] == [frames.RELAY_UP] * 3 + [frames.END_UP, frames.FIN]
        down = len(writes[3]) - 3
        assert down >= 1
        assert writes[3] == (
            [frames.RELAY_DOWN] * down + [frames.END_DOWN, frames.STATEMENT, frames.POST_DOWN]
        )
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


def test_relay_view_recovers_no_server_secret(rig, monkeypatch):
    # The relay sees every frame NotarySession.handle takes and returns,
    # and the server's public key. A server whose ephemeral key and down
    # seed followed from that key and the session id, by the derivation
    # below, would give the relay the up keys, and so the secret header,
    # and the seed before the head is signed. Drawn fresh per connection,
    # they follow from nothing the relay sees.
    seen: list[Frame] = []
    handle = notary_mod.NotarySession.handle

    def spy(self, frame):
        replies = handle(self, frame)
        seen.extend([frame, *replies])
        return replies

    monkeypatch.setattr(notary_mod.NotarySession, "handle", spy)
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": "T" * 16})
    prover.call(rig.entry, "relay-view", "tool")
    (opened,) = {f.payload for f in seen if f.type == frames.HS_UP}
    (hs_down,) = {f.payload for f in seen if f.type == frames.HS_DOWN}
    (statement,) = {f.payload for f in seen if f.type == frames.STATEMENT}
    session_id = canonical_loads(statement)["statement"]["session_id"]
    server_secret = hashlib.sha256(
        b"VET/server-secret:" + rig.server_key.public_string.encode()
    ).digest()
    guess = X25519PrivateKey.from_private_bytes(
        hashlib.sha256(b"VET/server-eph:" + server_secret + session_id.encode()).digest()
    )
    seed = hashlib.sha256(b"VET/session-seed:" + server_secret + session_id.encode()).digest()
    assert toytls.pub_hex(guess) != canonical_loads(hs_down)["server_eph"]
    client_eph = bytes.fromhex(canonical_loads(opened)["client_eph"])
    up = toytls.up_secret(guess.exchange(X25519PublicKey.from_public_bytes(client_eph)))
    ups = [f.payload for f in seen if f.type == frames.RELAY_UP]
    downs = [f.payload for f in seen if f.type == frames.RELAY_DOWN]
    assert ups and downs
    recovered = []
    for direction, secret, wires in (("up", up, ups), ("down", seed, downs)):
        for index, wire in enumerate(wires):
            try:
                recovered.append(HandSealer(direction, secret).open(index, wire))
            except ProtocolError:
                pass
    assert recovered == []
    assert b"T" * 16 not in b"".join(f.payload for f in seen)


def _weak_sessions(monkeypatch):
    """Weak references to every session ``NotaryService.open_session`` opens."""
    refs = []
    open_session = NotaryService.open_session

    def spy(self, frame):
        session, ok = open_session(self, frame)
        refs.append(weakref.ref(session))
        return session, ok

    monkeypatch.setattr(NotaryService, "open_session", spy)
    return refs


def test_sessions_leave_nothing_behind(rig, monkeypatch):
    # 1,000 sessions in process (finalized, aborted on capacity, or closed
    # before FIN, over seven reused ids) and 100 over TCP (every fifth
    # dropped mid-session): once they end nothing of them is left, and the
    # cap still counts only live sessions.
    refs = _weak_sessions(monkeypatch)
    service = NotaryService(rig.notary_key, {"echo.test": rig.server}.__getitem__)
    request = _post_for("m" * 40)
    for i in range(1000):
        kind = i % 3
        cap_up = len(request) - 1 if kind == 1 else 1 << 16
        channel = provision_channel(service, "echo.test", cap_up, session_id=f"mem-{i % 7}")
        session = NotarizedSession(channel, random.Random(i))
        if kind == 2:
            channel.close()
            continue
        try:
            session.send(request, [], {"input": "m" * 40})
            session.finish()
            assert kind == 0
        except CapacityExceeded:
            assert kind == 1
    del channel, session
    server = notary_mod.serve(service)
    try:
        host, port = server.server_address
        for i in range(100):
            channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, f"tcp-mem-{i}")
            if i % 5 == 0:
                _real_handshake(channel)  # OPEN leaves with the handshake
                channel._sock.close()  # dropped without CLOSE
            else:
                run_session(channel, request, rng=random.Random(i), claims={"input": "m" * 40})
        del channel
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            gc.collect()
            if not service._live and all(ref() is None for ref in refs):
                break
            time.sleep(0.01)
    finally:
        server.shutdown()
        server.server_close()
    assert len(refs) == 1100
    assert service._live == set()
    assert [ref for ref in refs if ref() is not None] == []
    live = [service.open_session(_open_frame(f"live-{i}"))[0] for i in range(service.max_sessions)]
    with pytest.raises(ProtocolError, match="session limit reached"):
        service.open_session(_open_frame("one-too-many"))
    live[0].handle(Frame(frames.CLOSE, b""))
    service.open_session(_open_frame("one-too-many"))


@pytest.mark.parametrize("end", ["fin", "abort", "close", "drop"])
def test_every_end_path_frees_its_place_once(rig, monkeypatch, end):
    released = []
    release = NotaryService.release
    monkeypatch.setattr(
        NotaryService, "release", lambda self, sid: released.append(sid) or release(self, sid)
    )
    channel = provision_channel(rig.service, "echo.test", cap_up=64, session_id="end")
    up, _ = _real_handshake(channel)
    session = channel._session
    if end == "fin":
        replies = channel.exchange(Frame(frames.FIN, b""))
        assert [r.type for r in replies] == [frames.STATEMENT, frames.POST_DOWN]
    elif end == "abort":
        (reply,) = channel.exchange(_sealed_up(up, 0, b"x" * 65))
        assert reply.type == frames.ABORT
    elif end == "close":
        assert channel.exchange(Frame(frames.CLOSE, b"")) == []
    else:
        session.drop()
    assert session.state == (STATE_FINALIZED if end == "fin" else STATE_ABORTED)
    reason = session.abort_reason
    signed = []
    sign = SigningKey.sign
    monkeypatch.setattr(SigningKey, "sign", lambda key, msg: signed.append(msg) or sign(key, msg))
    # Whatever comes after the end finds the session ended, and signs nothing.
    for frame in (Frame(frames.FIN, b""), _sealed_up(up, 0, b"x"), Frame(frames.CLOSE, b"")):
        (reply,) = channel.exchange(frame)
        assert reply.type == frames.ABORT
    session.drop()
    assert (session.abort_reason, signed, released) == (reason, [], ["end"])
    assert rig.service._live == set()


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
@pytest.mark.parametrize("end", ["fin", "abort"])
def test_tcp_handler_returns_when_its_session_ends(rig, end):
    # The notary hangs up once the session ends, without waiting for
    # CLOSE or IDLE_TIMEOUT, and the prover's close() tolerates that.
    server = notary_mod.serve(rig.service)
    try:
        host, port = server.server_address
        channel = TCPChannel(host, port, "echo.test", 64, 1 << 16, f"tcp-end-{end}")
        up, _ = _real_handshake(channel)
        if end == "fin":
            replies = channel.exchange(Frame(frames.FIN, b""))
            assert [r.type for r in replies] == [frames.STATEMENT, frames.POST_DOWN]
        else:
            # A record gets no reply but an ABORT, read with END_UP's replies.
            (reply,) = channel.exchange(_sealed_up(up, 0, b"x" * 65), Frame(frames.END_UP, b""))
            assert reply.type == frames.ABORT
        channel._sock.settimeout(5)
        assert channel._sock.recv(1) == b""
        channel.close()
        channel.close()
        assert rig.service._live == set()
    finally:
        server.shutdown()
        server.server_close()
    gc.collect()


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_prover_closes_its_socket_on_a_refused_open_or_an_aborted_handshake(rig, monkeypatch):
    sockets = []
    connect = socket.create_connection
    monkeypatch.setattr(socket, "create_connection", lambda *a, **k: sockets.append(connect(*a, **k)) or sockets[-1])
    service = NotaryService(rig.notary_key, {"echo.test": rig.server}.__getitem__, max_sessions=0)
    server = notary_mod.serve(service)
    try:
        host, port = server.server_address
        # OPEN leaves with the handshake, so the session refuses it.
        refused = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "refused")
        with pytest.raises(ProtocolError, match="notary rejected session: session limit reached"):
            NotarizedSession(refused, random.Random(0))
        service.max_sessions = 1

        def no_hello(self, payload):
            raise ProtocolError("no hello")

        monkeypatch.setattr(toytls.ServerConnection, "_on_hello", no_hello)
        channel = TCPChannel(host, port, "echo.test", 1 << 16, 1 << 16, "no-hello")
        with pytest.raises(ProtocolError, match="session aborted: protocol error: no hello"):
            NotarizedSession(channel, random.Random(0))
    finally:
        server.shutdown()
        server.server_close()
    assert len(sockets) == 2
    assert [sock.fileno() for sock in sockets] == [-1, -1]
    del channel, refused, sockets
    gc.collect()
