"""Desk-scale stand-in for MPC-TLS: commit-then-key-release record crypto.

Records are encrypted with a SHA-256 keystream and MAC'd; the key for
record ``i`` is derived from a direction-specific secret. Up-direction
keys come from the X25519 handshake secret (known to prover and server,
never to the relay). Down-direction keys come from a server-held session
seed that is released to the prover only after the relay has signed the
ciphertext chain, so the prover's pre-signature view never suffices to
forge a response. Given a disclosed record key, the plaintext is a
deterministic function of the signed ciphertext, and steering it to a
chosen value requires a SHA-256 preimage.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from . import frames
from .canonical import canonical_bytes, canonical_loads
from .errors import ProtocolError, ValidationError
from .frames import Frame
from .keys import SigningKey, verify_signature

RECORD_MAX = 16384
TAG_LEN = 32


def derive_record_key(direction: str, secret: bytes, index: int) -> bytes:
    h = hashlib.sha256()
    h.update(b"VET/key-" + direction.encode() + b":")
    h.update(secret)
    h.update(index.to_bytes(4, "big"))
    return h.digest()


def keystream(key: bytes, length: int) -> bytes:
    prefix = hashlib.sha256(b"VET/ks:" + key)
    blocks = []
    for counter in range(-(-length // 32)):
        block = prefix.copy()
        block.update(counter.to_bytes(4, "big"))
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


def _xor_keystream(key: bytes, data: bytes) -> bytes:
    stream = keystream(key, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


def seal_record(key: bytes, plaintext: bytes) -> bytes:
    ct = _xor_keystream(key, plaintext)
    tag = hashlib.sha256(b"VET/mac:" + key + ct).digest()
    return ct + tag


def open_record(key: bytes, wire: bytes) -> bytes:
    if len(wire) < TAG_LEN:
        raise ProtocolError("record shorter than MAC tag")
    ct, tag = wire[:-TAG_LEN], wire[-TAG_LEN:]
    if hashlib.sha256(b"VET/mac:" + key + ct).digest() != tag:
        raise ProtocolError("record MAC check failed")
    return _xor_keystream(key, ct)


def record_hash(wire: bytes) -> str:
    return hashlib.sha256(wire).hexdigest()


def up_secret(shared: bytes) -> bytes:
    return hashlib.sha256(b"VET/up:" + shared).digest()


def handshake_key(shared: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(b"VET/hs:" + shared + nonce).digest()


def post_key(hk: bytes, direction: str) -> bytes:
    return hashlib.sha256(b"VET/post-" + direction.encode() + b":" + hk).digest()


def split_records(total_length: int, secret_spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Record boundaries: cuts at every secret-span edge, then RECORD_MAX.

    Secret spans end up in records of their own, so every non-secret
    record can later have its key released without touching a secret.
    """
    cuts = {0, total_length}
    for offset, length in secret_spans:
        cuts.add(offset)
        cuts.add(offset + length)
    edges = sorted(c for c in cuts if 0 <= c <= total_length)
    spans = []
    for start, end in zip(edges, edges[1:]):
        pos = start
        while pos < end:
            take = min(RECORD_MAX, end - pos)
            spans.append((pos, take))
            pos += take
    return spans


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


class ServerConnection:
    """Per-session server-side state machine, driven frame by frame.

    ``handle(frame)`` returns the frames to relay back toward the
    prover. The relay never sees anything here in plaintext except the
    handshake metadata (ephemeral public keys and a signature).
    """

    def __init__(self, server: "TargetServer", session_id: str):
        self.server = server
        self.session_id = session_id
        self._shared: bytes | None = None
        self._hk: bytes | None = None
        self._up_secret: bytes | None = None
        self._seed = hashlib.sha256(
            b"VET/session-seed:" + server.session_secret + session_id.encode()
        ).digest()
        self._up_wires: list[bytes] = []
        self._sent_hashes: list[tuple[str, str, int]] = []  # (direction, hash, pt length)
        self._nonce_hex = ""

    def handle(self, frame: Frame) -> list[Frame]:
        if frame.type == frames.HS_UP:
            return self._on_hello(frame.payload)
        if frame.type == frames.RELAY_UP:
            self._record_up(frame.payload)
            return []
        if frame.type == frames.END_UP:
            return self._respond()
        if frame.type == frames.POST_UP:
            return self._on_key_request(frame.payload)
        if frame.type == frames.CLOSE:
            return []
        raise ProtocolError(f"server: unexpected frame type {frame.type:#x}")

    def _on_hello(self, payload: bytes) -> list[Frame]:
        eph = X25519PrivateKey.from_private_bytes(
            hashlib.sha256(
                b"VET/server-eph:" + self.server.session_secret + self.session_id.encode()
            ).digest()
        )
        # The hello comes from the prover unchecked by the relay: any
        # decode failure, or a key with no shared secret, is a protocol
        # error, which aborts the session.
        try:
            hello = canonical_loads(payload)
            client_eph_hex = hello["client_eph"]
            nonce_hex = hello["nonce"]
            nonce = bytes.fromhex(nonce_hex)
            shared = eph.exchange(X25519PublicKey.from_public_bytes(bytes.fromhex(client_eph_hex)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed hello: {exc!r}")
        self._nonce_hex = nonce_hex
        self._shared = shared
        self._hk = handshake_key(shared, nonce)
        self._up_secret = up_secret(shared)
        server_eph_hex = pub_hex(eph)
        signature = self.server.signing_key.sign(
            handshake_signature_message(
                client_eph_hex, server_eph_hex, self._nonce_hex, self.session_id
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
        if self._up_secret is None:
            raise ProtocolError("server: record before handshake")
        self._up_wires.append(wire)
        self._sent_hashes.append(("up", record_hash(wire), len(wire) - TAG_LEN))

    def _respond(self) -> list[Frame]:
        parts = []
        for i, wire in enumerate(self._up_wires):
            key = derive_record_key("up", self._up_secret, i)
            parts.append(open_record(key, wire))
        request_bytes = b"".join(parts)
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
        for index, chunk in enumerate(chunks):
            key = derive_record_key("down", self._seed, index)
            wire = seal_record(key, chunk)
            self._sent_hashes.append(("down", record_hash(wire), len(chunk)))
            out.append(Frame(frames.RELAY_DOWN, wire))
        out.append(Frame(frames.END_DOWN, b""))
        return out

    def _on_key_request(self, payload: bytes) -> list[Frame]:
        if self._hk is None:
            raise ProtocolError("server: key request before handshake")
        statement_bytes = open_record(post_key(self._hk, "up"), payload)
        # The prover holds the handshake key, so the sealed statement is
        # outside input: any failure to decode it is a protocol error.
        try:
            signed = canonical_loads(statement_bytes)
            statement = signed["statement"]
            message = canonical_bytes(statement)
            if not any(
                verify_signature(pub, message, signed["notary_signature"])
                for pub in self.server.notary_keys
            ):
                raise ProtocolError("server: statement not signed by a known relay")
            if statement.get("session_id") != self.session_id:
                raise ProtocolError("server: statement is for a different session")
            chain = [
                (r["direction"], r["hash"], int(r["length"])) for r in statement["records"]
            ]
        except (ValidationError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ProtocolError(f"malformed key request: {exc!r}")
        if chain != self._sent_hashes:
            raise ProtocolError("server: signed chain does not match session records")
        released = seal_record(post_key(self._hk, "down"), self._seed)
        return [Frame(frames.POST_DOWN, released)]


class TargetServer:
    """A toy-TLS endpoint wrapping a plain HTTP handler function.

    The server is trusted to follow its interface; it withholds the
    down-direction seed until shown the relay-signed ciphertext chain.
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
        self.session_secret = hashlib.sha256(
            b"VET/server-secret:" + signing_key.public_string.encode()
        ).digest()

    def open_connection(self, session_id: str) -> ServerConnection:
        return ServerConnection(self, session_id)
