import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from vet import frames, toytls
from vet.canonical import canonical_bytes, canonical_loads
from vet.errors import ProtocolError
from vet.frames import Frame
from vet.keys import SigningKey, verify_signature
from vet.mockserver import make_echo_handler
from vet.toytls import (
    CHAIN_START,
    RECORD_MAX,
    RecordChain,
    ServerConnection,
    TargetServer,
    derive_record_key,
    handshake_signature_message,
    keystream,
    open_record,
    seal_record,
    split_records,
)


def test_seal_open_round_trip():
    key = b"k" * 32
    for size in [0, 1, 31, 32, 33, 1000]:
        plaintext = random.Random(size).randbytes(size)
        wire = seal_record(key, plaintext)
        assert len(wire) == size + toytls.TAG_LEN
        assert open_record(key, wire) == plaintext


def test_open_rejects_tampering():
    key = b"k" * 32
    wire = seal_record(key, b"hello world bytes")
    bad = bytes([wire[0] ^ 1]) + wire[1:]
    with pytest.raises(ProtocolError):
        open_record(key, bad)
    with pytest.raises(ProtocolError):
        open_record(b"j" * 32, wire)  # wrong key
    with pytest.raises(ProtocolError):
        open_record(key, wire[: toytls.TAG_LEN - 1])  # shorter than tag


def test_seal_record_known_answer():
    # Format 7: the SHAKE-256 keystream XOR the plaintext, then the tag
    # SHA-256("VET/mac:" || key || plaintext), which is the digest the
    # notary signs.
    key, plaintext = b"k" * 32, b"GET / HTTP/1.1\r\n"
    stream = hashlib.shake_256(b"VET/ks:" + key).digest(len(plaintext))
    tag = hashlib.sha256(b"VET/mac:" + key + plaintext).digest()
    wire = seal_record(key, plaintext)
    assert wire == bytes(a ^ b for a, b in zip(plaintext, stream)) + tag
    assert toytls.record_tag(key, plaintext) == tag
    # Format 9: the record chain's head over (direction, length, tag), one
    # byte of direction and eight of length, from an all-zero head.
    chain = RecordChain()
    chain.add("up", wire)
    link = b"VET/rec:" + bytes(32) + b"u" + len(plaintext).to_bytes(8, "big") + tag
    assert (chain.count, chain.head) == (1, hashlib.sha256(link).digest())
    assert CHAIN_START == bytes(32)


def test_open_refuses_a_flipped_ciphertext_or_tag_byte():
    key = b"k" * 32
    wire = seal_record(key, b"hello world bytes")
    ct_len = len(wire) - toytls.TAG_LEN
    for pos in (0, ct_len - 1, ct_len, len(wire) - 1):  # ciphertext, then tag
        flipped = bytearray(wire)
        flipped[pos] ^= 0x80
        with pytest.raises(ProtocolError, match="MAC check failed"):
            open_record(key, bytes(flipped))


def test_keystream_oracle():
    key = b"x" * 32
    stream = hashlib.shake_256(b"VET/ks:" + key).digest(40)
    assert keystream(key, 16) == stream[:16]
    assert keystream(key, 40)[:32] == stream[:32]


def test_keystream_known_answer():
    # SHAKE-256("VET/ks:" || "x" * 32), 40 bytes, as OpenSSL computes it
    # through `cryptography.hazmat.primitives.hashes.SHAKE256(40)`. Any
    # change to the keystream construction changes this vector.
    assert keystream(b"x" * 32, 40).hex() == (
        "902d55a0e5a9b72c88d2e8c037708750169b9ed0f80886e3"
        "bbf5bf948afbc0cf9b62250a8c3c270b"
    )


def test_record_keys_distinct():
    secret = b"s" * 32
    keys = {
        derive_record_key(d, secret, i) for d in ("up", "down") for i in range(10)
    }
    assert len(keys) == 20


def test_split_records_plain():
    assert split_records(10, []) == [(0, 10)]
    assert split_records(RECORD_MAX + 1, []) == [(0, RECORD_MAX), (RECORD_MAX, 1)]
    assert split_records(0, []) == []


def test_split_records_isolates_secrets():
    spans = split_records(100, [(32, 16)])
    assert (32, 16) in spans
    # records tile the whole request without gaps or overlaps
    pos = 0
    for offset, length in spans:
        assert offset == pos
        pos += length
    assert pos == 100


def _drive_handshake(connection, rng, session_id):
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    client_eph = eph.public_key().public_bytes_raw().hex()
    nonce = rng.randbytes(16).hex()
    hello = canonical_bytes({"client_eph": client_eph, "nonce": nonce})
    (reply,) = connection.handle(Frame(frames.HS_UP, hello))
    server_hello = canonical_loads(reply.payload)
    assert verify_signature(
        server_hello["server_pub"],
        handshake_signature_message(
            client_eph, server_hello["server_eph"], nonce, session_id
        ),
        server_hello["signature"],
    )
    shared = eph.exchange(
        X25519PublicKey.from_public_bytes(bytes.fromhex(server_hello["server_eph"]))
    )
    return shared, nonce


def _statement(session_id, records):
    """A statement of the notary's shape over ``records``: (direction,
    sealed wire) each."""
    chain = RecordChain()
    for direction, wire in records:
        chain.add(direction, wire)
    return {
        "session_id": session_id,
        "server_domain": "echo.test",
        "server_key_fingerprint": "sha256:" + "0" * 64,
        "channel_capacity": {"up": "65536", "down": "65536"},
        "records": str(chain.count),
        "head": chain.head.hex(),
    }


def _make_server():
    key = SigningKey.from_seed("tls-server")
    notary = SigningKey.from_seed("tls-notary")
    return TargetServer("echo.test", make_echo_handler(), key, [notary.public_string]), notary


def test_server_round_trip_and_key_release():
    server, notary = _make_server()
    connection = server.open_connection("sess-1")
    rng = random.Random(0)
    shared, nonce = _drive_handshake(connection, rng, "sess-1")
    up = toytls.up_secret(shared)
    hk = toytls.handshake_key(shared, bytes.fromhex(nonce))

    request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
    wire = seal_record(derive_record_key("up", up, 0), request)
    assert connection.handle(Frame(frames.RELAY_UP, wire)) == []
    replies = connection.handle(Frame(frames.END_UP, b""))
    assert replies[-1].type == frames.END_DOWN
    down_wires = [r.payload for r in replies if r.type == frames.RELAY_DOWN]
    assert down_wires

    # Build the statement the notary would sign over this session's chain.
    chain = [("up", wire)] + [("down", w) for w in down_wires]
    statement = _statement("sess-1", chain)
    signed = canonical_bytes(
        {
            "statement": statement,
            "notary_signature": notary.sign(canonical_bytes(statement)),
        }
    )
    (post,) = connection.handle(Frame(frames.STATEMENT, signed))
    seed = open_record(toytls.release_key(hk), post.payload)
    response = b"".join(
        open_record(derive_record_key("down", seed, i), w)
        for i, w in enumerate(down_wires)
    )
    assert response.startswith(b"HTTP/1.1 200 OK")
    assert b'"echo":"m"' in response


def test_server_refuses_an_up_record_whose_tag_names_other_plaintext():
    # The signed tag binds the plaintext the server read: a prover that
    # pairs one request's ciphertext with another's tag is refused.
    server, _ = _make_server()
    connection = server.open_connection("sess-tag")
    shared, _ = _drive_handshake(connection, random.Random(3), "sess-tag")
    key = derive_record_key("up", toytls.up_secret(shared), 0)
    sent = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
    claimed = sent.replace(b'"m"', b'"n"')
    wire = seal_record(key, sent)[: -toytls.TAG_LEN] + toytls.record_tag(key, claimed)
    with pytest.raises(ProtocolError, match="MAC check failed"):
        connection.handle(Frame(frames.RELAY_UP, wire))


def _release_attempt(connection, statement, signature):
    """Hand the server a statement, as the notary does at FIN."""
    signed = canonical_bytes({"statement": statement, "notary_signature": signature})
    return connection.handle(Frame(frames.STATEMENT, signed))


def test_server_withholds_seed_without_valid_statement():
    server, notary = _make_server()
    connection = server.open_connection("sess-2")
    shared, nonce = _drive_handshake(connection, random.Random(1), "sess-2")
    up = toytls.up_secret(shared)
    hk = toytls.handshake_key(shared, bytes.fromhex(nonce))
    request = b"GET / HTTP/1.1\r\nHost: echo.test\r\n\r\n"
    wire = seal_record(derive_record_key("up", up, 0), request)
    connection.handle(Frame(frames.RELAY_UP, wire))
    replies = connection.handle(Frame(frames.END_UP, b""))
    down_wires = [r.payload for r in replies if r.type == frames.RELAY_DOWN]
    chain = [("up", wire)] + [("down", w) for w in down_wires]

    def statement_for(records, session_id="sess-2"):
        return _statement(session_id, records)

    good = statement_for(chain)
    rogue = SigningKey.from_seed("rogue")
    with pytest.raises(ProtocolError):  # not a known relay key
        _release_attempt(connection, good, rogue.sign(canonical_bytes(good)))
    wrong_session = statement_for(chain, session_id="sess-other")
    with pytest.raises(ProtocolError):
        _release_attempt(connection, wrong_session, notary.sign(canonical_bytes(wrong_session)))
    short = statement_for(chain[:-1])
    recounted = dict(good, records=str(len(chain) + 1))  # the honest head, one record more
    for forged in (short, recounted):
        with pytest.raises(ProtocolError, match="signed chain does not match"):
            _release_attempt(connection, forged, notary.sign(canonical_bytes(forged)))
    # The honest statement still works after the failed attempts, and the
    # seed it releases opens the response.
    (post,) = _release_attempt(connection, good, notary.sign(canonical_bytes(good)))
    assert post.type == frames.POST_DOWN
    seed = open_record(toytls.release_key(hk), post.payload)
    assert open_record(derive_record_key("down", seed, 0), down_wires[0]).startswith(b"HTTP/1.1")


def test_server_rejects_out_of_order_frames():
    server, _ = _make_server()
    connection = server.open_connection("sess-3")
    with pytest.raises(ProtocolError):
        connection.handle(Frame(frames.RELAY_UP, b"x" * 40))
    with pytest.raises(ProtocolError, match="statement before handshake"):
        connection.handle(Frame(frames.STATEMENT, b"x" * 40))
    with pytest.raises(ProtocolError):
        connection.handle(Frame(frames.OPEN, b""))
    # One hello per connection: a second would re-key the release.
    _drive_handshake(connection, random.Random(4), "sess-3")
    with pytest.raises(ProtocolError, match="second hello"):
        _drive_handshake(connection, random.Random(5), "sess-3")


def _one_session(server, notary, session_id):
    """(server ephemeral key, released down seed) of a connection that
    carries one echo and is shown the notary's statement over its records."""
    connection = server.open_connection(session_id)
    eph = X25519PrivateKey.from_private_bytes(bytes(31) + b"\x01")
    nonce = bytes(16)
    hello = canonical_bytes({"client_eph": toytls.pub_hex(eph), "nonce": nonce.hex()})
    (reply,) = connection.handle(Frame(frames.HS_UP, hello))
    server_eph = canonical_loads(reply.payload)["server_eph"]
    shared = eph.exchange(X25519PublicKey.from_public_bytes(bytes.fromhex(server_eph)))
    request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
    wire = seal_record(derive_record_key("up", toytls.up_secret(shared), 0), request)
    connection.handle(Frame(frames.RELAY_UP, wire))
    down = [r.payload for r in connection.handle(Frame(frames.END_UP, b"")) if r.payload]
    statement = _statement(session_id, [("up", wire)] + [("down", w) for w in down])
    (post,) = _release_attempt(connection, statement, notary.sign(canonical_bytes(statement)))
    return server_eph, open_record(toytls.release_key(toytls.handshake_key(shared, nonce)), post.payload)


def test_server_secrets_fresh_per_connection():
    # The same session id on two connections gives another ephemeral key
    # and another down seed: nothing the relay sees, the id and the
    # server's public key included, determines either.
    server, notary = _make_server()
    (eph_a, seed_a), (eph_b, seed_b) = (_one_session(server, notary, "sess-x") for _ in range(2))
    assert eph_a != eph_b
    assert seed_a != seed_b
