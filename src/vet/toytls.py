"""Desk-scale stand-in for MPC-TLS: commit-then-key-release record crypto.

Records are sealed encrypt-and-MAC, as SSH's binary packet protocol
does (RFC 4253 §6.4): the wire is ``ct || tag`` with
``tag = H("VET/mac:" || key || plaintext)`` under the record's own key.
The cipher is the AES-GCM of TLS 1.3 record protection (RFC 8446 §5.2,
§5.3): one AES-256 key per direction and session,
``SHA-256("VET/ks-" || direction || ":" || secret)``, keyed once
(``RecordCipher``), and record ``i`` of that direction encrypted under
the 96-bit big-endian nonce ``i``, as TLS 1.3 uses the record sequence
number, with the GHASH tag dropped. What remains is GCTR (NIST SP
800-38D §7.1): AES-256 in counter mode, record ``i``'s plaintext XOR
``AES(k, i || 2) || AES(k, i || 3) || ...``. That is safe here:

- A direction's records have distinct indices, and a record holds at
  most 1,024 blocks, so no counter block is used twice under one key;
  the two directions and the release have keys of their own.
- No GCM tag is sent. The SHA-256 tag, which the notary chains and
  signs, is the record's MAC, so GHASH would only add a second one.
- The tag keys stay per record (``derive_record_key``), and a proof
  releases only those. A released key opens its record's tag and no
  keystream: the cipher key follows from the direction's secret alone.
- The cipher is not part of the proof format: tags are over the
  plaintext and the verifier never runs the cipher, so no proof byte
  depends on the ciphertext, and the cipher can change without a format
  bump. A prover and a target server must still run the same one, or the
  server's first MAC check ends the session.

A direction's cipher key and record keys come from its own secret.
Up-direction keys come from the X25519 handshake secret, known to prover
and server and never to the relay: the server draws a fresh ephemeral
key for each connection, so nothing the relay sees, the public keys
included, determines it.
Down-direction keys come from a seed the server also draws fresh for
each connection and releases to the prover only after the relay has
signed the head of the record chain, so the prover's pre-signature view
never suffices to forge a response and the relay never learns the seed.
The seed is released as the one record of a ``"release"`` cipher under
``release_key(hk, statement) = H("VET/release:" || hk ||
H(statement))``: the handshake key, which only prover and server hold,
and the STATEMENT payload the server checked. A seed that opens for the
prover therefore vouches that the server accepted the very statement the
prover holds (see ``webproof.NotarizedSession.finish``).

The tag is the record's commitment, opened by releasing its key (DECO's
commit-then-key-release binds released keys through a MAC in the same
way):

- Binding rests on SHA-256 collision resistance. A released key and a
  plaintext of the record's length must hash to its tag. The length
  fixes where the key ends and the plaintext begins, so any other pair
  than the sealed one is a collision. The verifier checks one hash per
  record and never re-encrypts.
- Hiding: a secret record's key is never released, so its tag is a
  hash salted with a 256-bit key that no one else holds. A guess at the
  plaintext cannot be checked against the tag without that key, and two
  records of one plaintext under independent keys have unrelated tags.
- The server refuses an up record whose tag does not match what it
  decrypts, so the plaintext a tag binds is the one the server read.

The notary, the server and the prover each fold a session's records
into one running hash (``RecordChain``), as a proxy log does its
exchanges (``vet.tee_proxy``),
``h_i = H("VET/rec:" || h_{i-1} || direction || length || tag)`` from
``h_0`` all zero, with a one-byte direction and an eight-byte length, so
every input has one parse. The notary signs the head and the number of
records, not a list of them, and keeps O(1) state per session. Short of
a SHA-256 collision, the head binds the order, direction, length and tag
of every record, and the signed count fixes their number. The down seed
is released only after that head is signed, so the prover cannot steer
a response to a tag it already knows.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from . import frames
from .canonical import canonical_bytes, canonical_loads, json_field, refuse_unread
from .errors import ProtocolError, ValidationError
from .frames import Frame
from .keys import SigningKey, verify_signature

RECORD_MAX = 16384
TAG_LEN = 32
_GCM_TAG_LEN = 16


def derive_record_key(direction: str, secret: bytes, index: int) -> bytes:
    h = hashlib.sha256()
    h.update(b"VET/key-" + direction.encode() + b":")
    h.update(secret)
    h.update(index.to_bytes(4, "big"))
    return h.digest()


class RecordCipher:
    """One direction of a session: AES-256 keyed once, under
    ``SHA-256("VET/ks-" || direction || ":" || secret)``, and the record
    keys derived from ``secret``."""

    def __init__(self, direction: str, secret: bytes):
        self.direction = direction
        self.secret = secret
        self._aes = AESGCM(hashlib.sha256(b"VET/ks-" + direction.encode() + b":" + secret).digest())

    def key(self, index: int) -> bytes:
        """The tag key of record ``index``, which a proof may release."""
        return derive_record_key(self.direction, self.secret, index)

    def xor(self, index: int, data: bytes) -> bytes:
        """``data`` XOR the keystream of record ``index``: seals and opens
        alike. AES-256-GCM's ciphertext under the 96-bit big-endian nonce
        ``index``, with its 16-byte GHASH tag dropped."""
        return self._aes.encrypt(index.to_bytes(12, "big"), data, None)[:-_GCM_TAG_LEN]


def record_tag(key: bytes, plaintext: bytes) -> bytes:
    return hashlib.sha256(b"VET/mac:" + key + plaintext).digest()


def seal_record(cipher: RecordCipher, plaintext: bytes, index: int, key: bytes) -> bytes:
    """Record ``index`` of ``cipher``'s direction, tagged under ``key``."""
    return cipher.xor(index, plaintext) + record_tag(key, plaintext)


def open_record(cipher: RecordCipher, wire: bytes, index: int, key: bytes) -> bytes:
    if len(wire) < TAG_LEN:
        raise ProtocolError("record shorter than MAC tag")
    plaintext = cipher.xor(index, wire[:-TAG_LEN])
    if record_tag(key, plaintext) != wire[-TAG_LEN:]:
        raise ProtocolError("record MAC check failed")
    return plaintext


# The head of a chain that holds no record yet.
CHAIN_START = bytes(32)
_DIRECTION_BYTE = {"up": b"u", "down": b"d"}


def chain_link(head: bytes, direction: str, length: int, tag: bytes) -> bytes:
    """The record chain's head after one more record."""
    return hashlib.sha256(
        b"VET/rec:" + head + _DIRECTION_BYTE[direction] + length.to_bytes(8, "big") + tag
    ).digest()


class RecordChain:
    """A session's records folded into the head of their hash chain, their
    count, and the bytes each direction's records carry."""

    def __init__(self):
        self.head = CHAIN_START
        self.count = 0
        self.used = {"up": 0, "down": 0}

    def take(self, direction: str, length: int, tag: bytes) -> None:
        """Chain on one more record of ``length`` bytes under ``tag``."""
        self.head = chain_link(self.head, direction, length, tag)
        self.count += 1
        self.used[direction] += length

    def add(self, direction: str, wire: bytes) -> None:
        """Chain on the sealed record ``wire``, at least ``TAG_LEN`` bytes long."""
        self.take(direction, len(wire) - TAG_LEN, wire[-TAG_LEN:])


def read_chain(obj: dict) -> tuple[int, bytes]:
    """The signed ``records`` count and 32-byte ``head`` of a chain's signer."""
    head = json_field(obj, "head", bytes)
    if len(head) != len(CHAIN_START):
        raise ValidationError(f"head must be {len(CHAIN_START)} bytes, not {len(head)}")
    return json_field(obj, "records", int), head


def up_secret(shared: bytes) -> bytes:
    return hashlib.sha256(b"VET/up:" + shared).digest()


def handshake_key(shared: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(b"VET/hs:" + shared + nonce).digest()


def release_key(hk: bytes, statement: bytes) -> bytes:
    """The key that seals the down seed the server releases, bound to the
    STATEMENT payload it checked."""
    return hashlib.sha256(b"VET/release:" + hk + hashlib.sha256(statement).digest()).digest()


def open_seed(hk: bytes, statement: bytes, wire: bytes) -> bytes:
    """The down seed released for ``statement``, the one record of its
    release cipher; ProtocolError if it does not open."""
    release = RecordCipher("release", release_key(hk, statement))
    return open_record(release, wire, 0, release.key(0))



def split_records(
    total_length: int, secret_spans: list[tuple[int, int]]
) -> list[tuple[int, int, bool]]:
    """Each record's (offset, length, secret): cuts at every secret-span
    edge, then every RECORD_MAX bytes.

    Secret spans end up in records of their own, flagged secret for the
    prover and the verifier alike, so every other record can later have
    its key released without touching a secret. Spans may overlap and
    come in any order; an empty one cuts nothing, and one outside the
    request is a ValidationError.
    """
    cuts = {0, total_length}
    spans = []
    for offset, length in secret_spans:
        if offset < 0 or length < 0 or offset + length > total_length:
            raise ValidationError(f"range ({offset},{length}) out of bounds")
        if length:
            spans.append((offset, length))
            cuts.update((offset, offset + length))
    edges = sorted(cuts)
    records = []
    for start, end in zip(edges, edges[1:]):
        # Every span edge is a cut, so a span holds all of [start, end) or none.
        secret = any(offset <= start < offset + length for offset, length in spans)
        for pos in range(start, end, RECORD_MAX):
            records.append((pos, min(RECORD_MAX, end - pos), secret))
    return records


def shared_secret(private: X25519PrivateKey, public: bytes) -> bytes:
    """X25519 with a peer key read off the wire; ValidationError if it has no shared secret."""
    try:
        return private.exchange(X25519PublicKey.from_public_bytes(public))
    except ValueError as exc:  # a key of the wrong length, or of low order
        raise ValidationError(f"X25519 key: {exc}") from None


def pub_hex(private: X25519PrivateKey) -> str:
    return private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw).hex()


def handshake_signature_message(
    client_eph: str, server_eph: str, nonce: str, session_id: str
) -> bytes:
    return canonical_bytes(
        {
            "client_eph": client_eph,
            "server_eph": server_eph,
            "nonce": nonce,
            "session_id": session_id,
        }
    )


@dataclass(frozen=True)
class SignedStatement:
    """A notary-signed session statement, decoded once; ``statement`` is the
    signed object, over the head and count of the session's record chain."""

    statement: dict
    signature: str
    session_id: str
    server_domain: str
    capacity: tuple[int, int]  # (up, down)
    records: int
    head: bytes

    def verify(self, notary_key: str) -> bool:
        return verify_signature(notary_key, canonical_bytes(self.statement), self.signature)

    def check_session(self, notary_keys: list[str], session_id: str, chain: RecordChain) -> None:
        """ProtocolError unless one of ``notary_keys`` signed this statement for
        ``session_id`` over ``chain``."""
        if not any(self.verify(key) for key in notary_keys):
            raise ProtocolError("statement not signed by a known notary")
        self.check_chain(session_id, chain)

    def check_chain(self, session_id: str, chain: RecordChain) -> None:
        """ProtocolError unless this statement is for ``session_id`` over
        ``chain``; the signature is not checked."""
        if self.session_id != session_id:
            raise ProtocolError("statement is for a different session")
        if (self.records, self.head) != (chain.count, chain.head):
            raise ProtocolError("signed chain does not match the session records")

    def to_obj(self) -> dict:
        return {"statement": self.statement, "notary_signature": self.signature}

    @classmethod
    def from_obj(cls, obj: dict) -> "SignedStatement":
        statement = json_field(obj, "statement", dict)
        capacity = json_field(statement, "channel_capacity", dict)
        records, head = read_chain(statement)
        signed = cls(
            statement=statement,
            signature=json_field(obj, "notary_signature"),
            session_id=json_field(statement, "session_id"),
            server_domain=json_field(statement, "server_domain"),
            capacity=(json_field(capacity, "up", int), json_field(capacity, "down", int)),
            records=records,
            head=head,
        )
        refuse_unread(obj, ("statement", "notary_signature"), "a signed statement")
        return signed


class ServerConnection:
    """Per-connection server-side state machine, driven frame by frame.

    ``handle(frame)`` returns the frames to relay back toward the
    prover. The relay never sees anything here in plaintext except the
    handshake metadata (ephemeral public keys and a signature). A
    session carries any number of exchanges, as a kept-alive connection
    does: each END_UP answers the up records sent since the one before.
    The ephemeral key and the down seed are drawn fresh for each
    connection, so a session id only names a live session. The down
    seed is released once, in answer to the notary's STATEMENT over all
    the records, sealed under the handshake key.
    """

    def __init__(self, server: "TargetServer", session_id: str):
        self.server = server
        self.session_id = session_id
        self._seed = os.urandom(32)
        self._hk: bytes | None = None
        self._ciphers: dict[str, RecordCipher] = {}  # per direction, keyed at the hello
        self._request = bytearray()  # the request in progress, opened record by record
        self._counts = {"up": 0, "down": 0}  # records keyed so far, per direction
        self._chain = RecordChain()

    def handle(self, frame: Frame) -> list[Frame]:
        if frame.type == frames.HS_UP:
            return self._on_hello(frame.payload)
        if frame.type == frames.RELAY_UP:
            self._record_up(frame.payload)
            return []
        if frame.type == frames.END_UP:
            return self._respond()
        if frame.type == frames.STATEMENT:
            return self._release(frame.payload)
        raise ProtocolError(f"server: unexpected frame type {frame.type:#x}")

    def _on_hello(self, payload: bytes) -> list[Frame]:
        if self._hk is not None:
            raise ProtocolError("server: second hello")
        eph = X25519PrivateKey.generate()
        # The hello comes from the prover unchecked by the relay: one that
        # does not decode, or has no shared secret, aborts the session.
        try:
            hello = canonical_loads(payload)
            client_eph = json_field(hello, "client_eph", bytes)
            nonce = json_field(hello, "nonce", bytes)
            shared = shared_secret(eph, client_eph)
        except ValidationError as exc:
            raise ProtocolError(f"malformed hello: {exc}")
        self._hk = handshake_key(shared, nonce)
        self._ciphers = {
            "up": RecordCipher("up", up_secret(shared)),
            "down": RecordCipher("down", self._seed),
        }
        server_eph_hex = pub_hex(eph)
        signature = self.server.signing_key.sign(
            handshake_signature_message(
                client_eph.hex(), server_eph_hex, nonce.hex(), self.session_id
            )
        )
        reply = canonical_bytes(
            {
                "server_eph": server_eph_hex,
                "server_pub": self.server.signing_key.public_string,
                "signature": signature,
            }
        )
        return [Frame(frames.HS_DOWN, reply)]

    def _record_up(self, wire: bytes) -> None:
        if not self._ciphers:
            raise ProtocolError("server: record before handshake")
        self._request += open_record(*self._next("up", wire))
        self._chain.add("up", wire)

    def _next(self, direction: str, data: bytes) -> tuple[RecordCipher, bytes, int, bytes]:
        """The arguments that seal or open ``data`` as the next record in
        ``direction``; indices run on across the exchanges of the session."""
        cipher = self._ciphers[direction]
        index = self._counts[direction]
        self._counts[direction] += 1
        return cipher, data, index, cipher.key(index)

    def _respond(self) -> list[Frame]:
        """Answer the request sent since the last END_UP."""
        request_bytes, self._request = bytes(self._request), bytearray()
        # A request the handler cannot read ends the session, as an HTTP
        # server closes the connection on a malformed request.
        try:
            response_bytes = self.server.handler(request_bytes)
        except (ValidationError, ValueError) as exc:
            raise ProtocolError(f"server: malformed request: {exc}")
        out = []
        chunks = [
            response_bytes[pos:pos + RECORD_MAX]
            for pos in range(0, len(response_bytes), RECORD_MAX)
        ] or [b""]
        for chunk in chunks:
            wire = seal_record(*self._next("down", chunk))
            self._chain.add("down", wire)
            out.append(Frame(frames.RELAY_DOWN, wire))
        out.append(Frame(frames.END_DOWN, b""))
        return out

    def _release(self, statement_bytes: bytes) -> list[Frame]:
        """The down seed, for a statement that a known notary signed over
        this connection's records, sealed under the handshake key and the
        statement's bytes."""
        if self._hk is None:
            raise ProtocolError("server: statement before handshake")
        try:
            signed = SignedStatement.from_obj(canonical_loads(statement_bytes))
        except ValidationError as exc:
            raise ProtocolError(f"malformed statement: {exc}")
        signed.check_session(self.server.notary_keys, self.session_id, self._chain)
        release = RecordCipher("release", release_key(self._hk, statement_bytes))
        return [Frame(frames.POST_DOWN, seal_record(release, self._seed, 0, release.key(0)))]


class TargetServer:
    """A toy-TLS endpoint wrapping a plain HTTP handler function.

    The server is trusted to follow its interface; it withholds the
    down-direction seed until shown the relay-signed head of the record chain.
    """

    def __init__(
        self,
        domain: str,
        handler: Callable[[bytes], bytes],
        signing_key: SigningKey,
        notary_keys: list[str],
    ):
        self.domain = domain
        self.handler = handler
        self.signing_key = signing_key
        self.notary_keys = list(notary_keys)

    def open_connection(self, session_id: str) -> ServerConnection:
        return ServerConnection(self, session_id)
