import hashlib
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from conftest import HandSealer, gctr, record_xor
from vet import frames, toytls
from vet.canonical import canonical_bytes, canonical_loads
from vet.errors import ProtocolError, ValidationError
from vet.frames import Frame
from vet.keys import SigningKey, verify_signature
from vet.mockserver import make_echo_handler
from vet.toytls import (
    CHAIN_START,
    RECORD_MAX,
    RecordChain,
    RecordCipher,
    ServerConnection,
    TargetServer,
    derive_record_key,
    handshake_signature_message,
    open_record,
    seal_record,
    split_records,
)


def _keyed(direction="up", secret=b"k" * 32):
    cipher = RecordCipher(direction, secret)
    return cipher, cipher.key


def test_seal_open_round_trip():
    cipher, key = _keyed()
    for index, size in enumerate([0, 1, 31, 32, 33, 1000]):
        plaintext = random.Random(size).randbytes(size)
        wire = seal_record(cipher, plaintext, index, key(index))
        assert len(wire) == size + toytls.TAG_LEN
        assert open_record(cipher, wire, index, key(index)) == plaintext


def test_open_rejects_tampering():
    cipher, key = _keyed()
    wire = seal_record(cipher, b"hello world bytes", 0, key(0))
    bad = bytes([wire[0] ^ 1]) + wire[1:]
    with pytest.raises(ProtocolError):
        open_record(cipher, bad, 0, key(0))
    with pytest.raises(ProtocolError):
        open_record(cipher, wire, 0, b"j" * 32)  # wrong tag key
    with pytest.raises(ProtocolError):
        open_record(cipher, wire, 1, key(0))  # wrong index, so wrong keystream
    with pytest.raises(ProtocolError):
        open_record(RecordCipher("up", b"j" * 32), wire, 0, key(0))  # wrong cipher
    with pytest.raises(ProtocolError):
        open_record(cipher, wire[: toytls.TAG_LEN - 1], 0, key(0))  # shorter than tag


def test_seal_record_known_answer():
    # Record 0's AES-256 counter-mode keystream XOR the plaintext, then the
    # tag SHA-256("VET/mac:" || key || plaintext), which is the digest the
    # notary signs.
    cipher, derive = _keyed()
    key, plaintext = derive(0), b"GET / HTTP/1.1\r\n"
    tag = hashlib.sha256(b"VET/mac:" + key + plaintext).digest()
    wire = seal_record(cipher, plaintext, 0, key)
    assert wire == record_xor("up", b"k" * 32, 0, plaintext) + tag
    assert wire[:-toytls.TAG_LEN].hex() == "5e50e2fc979cd8d2e97519b3b2e1d72e"
    assert toytls.record_tag(key, plaintext) == tag
    # Format 9: the record chain's head over (direction, length, tag), one
    # byte of direction and eight of length, from an all-zero head.
    chain = RecordChain()
    chain.add("up", wire)
    link = b"VET/rec:" + bytes(32) + b"u" + len(plaintext).to_bytes(8, "big") + tag
    assert (chain.count, chain.head) == (1, hashlib.sha256(link).digest())
    assert CHAIN_START == bytes(32)


def test_open_refuses_a_flipped_ciphertext_or_tag_byte():
    cipher, key = _keyed()
    wire = seal_record(cipher, b"hello world bytes", 3, key(3))
    ct_len = len(wire) - toytls.TAG_LEN
    for pos in (0, ct_len - 1, ct_len, len(wire) - 1):  # ciphertext, then tag
        flipped = bytearray(wire)
        flipped[pos] ^= 0x80
        with pytest.raises(ProtocolError, match="MAC check failed"):
            open_record(cipher, bytes(flipped), 3, key(3))


def test_keystream_oracle():
    # Sizes around one 16-byte AES block, and a full record, in both
    # directions and at several indices: record i of a direction is
    # encrypted under that direction's one AES key and the nonce i.
    for size in (0, 1, 15, 16, 17, RECORD_MAX):
        rng = random.Random(size)
        secret, data = rng.randbytes(32), rng.randbytes(size)
        for direction in ("up", "down"):
            cipher = RecordCipher(direction, secret)
            for index in (0, 1, 7, 2**32 - 1):
                assert cipher.xor(index, data) == record_xor(direction, secret, index, data)
                assert cipher.xor(index, cipher.xor(index, data)) == data
    # One key per direction: the same secret and index give unrelated
    # keystreams in the two directions, and in one direction at two indices.
    streams = {
        RecordCipher(d, b"s" * 32).xor(i, bytes(32)) for d in ("up", "down") for i in (0, 1)
    }
    assert len(streams) == 4


def test_keystream_known_answer():
    # The oracle's counter blocks against a published vector: the GCM
    # specification's test case 14 (McGrew and Viega), a zero 256-bit key,
    # a zero 96-bit IV and one zero block, whose ciphertext is GCTR's.
    assert gctr(bytes(32), bytes(12), bytes(16)).hex() == "cea7403d4d606b6e074ec5d3baf39d18"
    # AES-256 under SHA-256("VET/ks-up:" || "x" * 32), counter blocks from
    # nonce 1 (96 bits, big-endian) || 2: record 1's 40 bytes of keystream
    # (the XOR of 40 zero bytes). Any change to the keystream construction
    # or the nonce layout changes this vector.
    assert RecordCipher("up", b"x" * 32).xor(1, bytes(40)).hex() == (
        "f3e5c8c7fdc8a5b7aaacd2d5ec65598dec1a79c343c1dfb8"
        "ef84174c2a36330992d11573ac41bab8"
    )


def test_record_keys_distinct():
    secret = b"s" * 32
    keys = {
        derive_record_key(d, secret, i) for d in ("up", "down") for i in range(10)
    }
    assert len(keys) == 20


def test_split_records_takes_spans_in_any_order_and_overlap():
    # Unsorted, overlapping and empty spans: every byte inside a span lies
    # in a secret record and every other byte in a public one, and the
    # empty span cuts nothing.
    spans = [(5, 5), (0, 6), (20, 0), (8, 4)]
    records = split_records(30, spans)
    assert records == [
        (0, 5, True), (5, 1, True), (6, 2, True), (8, 2, True), (10, 2, True), (12, 18, False),
    ]
    flags = [secret for _, length, secret in records for _ in range(length)]
    assert flags == [any(o <= i < o + n for o, n in spans) for i in range(30)]


@pytest.mark.parametrize("span", [(0, 11), (-1, 2), (2, -1), (10, 1)])
def test_split_records_refuses_a_span_outside_the_request(span):
    with pytest.raises(ValidationError, match="out of bounds"):
        split_records(10, [span])


def test_split_records_plain():
    assert split_records(10, []) == [(0, 10, False)]
    assert split_records(RECORD_MAX + 1, []) == [(0, RECORD_MAX, False), (RECORD_MAX, 1, False)]
    assert split_records(0, []) == []


def test_split_records_isolates_secrets():
    records = split_records(100, [(32, 16)])
    # The secret span is one record, the only one flagged secret.
    assert [r for r in records if r[2]] == [(32, 16, True)]
    # records tile the whole request without gaps or overlaps
    pos = 0
    for offset, length, _ in records:
        assert offset == pos
        pos += length
    assert pos == 100
    # A secret span longer than RECORD_MAX is cut, and every piece is secret.
    records = split_records(RECORD_MAX + 20, [(5, RECORD_MAX + 1)])
    assert records == [
        (0, 5, False), (5, RECORD_MAX, True), (RECORD_MAX + 5, 1, True),
        (RECORD_MAX + 6, 14, False),
    ]


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
    up = HandSealer("up", toytls.up_secret(shared))
    hk = toytls.handshake_key(shared, bytes.fromhex(nonce))

    request = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
    wire = up.seal(0, request)
    assert connection.handle(Frame(frames.RELAY_UP, wire)) == []
    replies = connection.handle(Frame(frames.END_UP, b""))
    assert replies[-1].type == frames.END_DOWN
    down_wires = [r.payload for r in replies if r.type == frames.RELAY_DOWN]
    assert down_wires

    # Build the statement the notary would sign over this session's chain.
    chain = [("up", wire)] + [("down", w) for w in down_wires]
    statement = _statement("sess-1", chain)
    signed = _signed(statement, notary.sign(canonical_bytes(statement)))
    (post,) = connection.handle(Frame(frames.STATEMENT, signed))
    down = HandSealer("down", toytls.open_seed(hk, signed, post.payload))
    response = b"".join(down.open(i, w) for i, w in enumerate(down_wires))
    assert response.startswith(b"HTTP/1.1 200 OK")
    assert b'"echo":"m"' in response


def test_server_refuses_an_up_record_whose_tag_names_other_plaintext():
    # The signed tag binds the plaintext the server read: a prover that
    # pairs one request's ciphertext with another's tag is refused.
    server, _ = _make_server()
    connection = server.open_connection("sess-tag")
    shared, _ = _drive_handshake(connection, random.Random(3), "sess-tag")
    up = HandSealer("up", toytls.up_secret(shared))
    sent = b'POST / HTTP/1.1\r\nHost: echo.test\r\nContent-Length: 15\r\n\r\n{"message":"m"}'
    claimed = sent.replace(b'"m"', b'"n"')
    wire = up.seal(0, sent)[: -toytls.TAG_LEN] + toytls.record_tag(up.cipher.key(0), claimed)
    with pytest.raises(ProtocolError, match="MAC check failed"):
        connection.handle(Frame(frames.RELAY_UP, wire))


def _signed(statement, signature):
    """The STATEMENT payload of ``statement`` under ``signature``."""
    return canonical_bytes({"statement": statement, "notary_signature": signature})


def _release_attempt(connection, statement, signature):
    """Hand the server a statement, as the notary does at FIN."""
    return connection.handle(Frame(frames.STATEMENT, _signed(statement, signature)))


def test_server_withholds_seed_without_valid_statement():
    server, notary = _make_server()
    connection = server.open_connection("sess-2")
    shared, nonce = _drive_handshake(connection, random.Random(1), "sess-2")
    up = HandSealer("up", toytls.up_secret(shared))
    hk = toytls.handshake_key(shared, bytes.fromhex(nonce))
    request = b"GET / HTTP/1.1\r\nHost: echo.test\r\n\r\n"
    wire = up.seal(0, request)
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
    signature = notary.sign(canonical_bytes(good))
    (post,) = _release_attempt(connection, good, signature)
    assert post.type == frames.POST_DOWN
    seed = toytls.open_seed(hk, _signed(good, signature), post.payload)
    assert HandSealer("down", seed).open(0, down_wires[0]).startswith(b"HTTP/1.1")


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
    wire = HandSealer("up", toytls.up_secret(shared)).seal(0, request)
    connection.handle(Frame(frames.RELAY_UP, wire))
    down = [r.payload for r in connection.handle(Frame(frames.END_UP, b"")) if r.payload]
    statement = _statement(session_id, [("up", wire)] + [("down", w) for w in down])
    signature = notary.sign(canonical_bytes(statement))
    (post,) = _release_attempt(connection, statement, signature)
    hk = toytls.handshake_key(shared, nonce)
    return server_eph, toytls.open_seed(hk, _signed(statement, signature), post.payload)


def test_server_secrets_fresh_per_connection():
    # The same session id on two connections gives another ephemeral key
    # and another down seed: nothing the relay sees, the id and the
    # server's public key included, determines either.
    server, notary = _make_server()
    (eph_a, seed_a), (eph_b, seed_b) = (_one_session(server, notary, "sess-x") for _ in range(2))
    assert eph_a != eph_b
    assert seed_a != seed_b
