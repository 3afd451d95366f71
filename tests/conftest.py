"""Shared fixtures: a wired demo world and a small webproof test rig."""

import hashlib
import random
import sys

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from vet import demo as demo_mod, frames, toytls
from vet.aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    VerificationMetadata,
)
from vet.keys import SigningKey
from vet.notary import NotaryService, NotarySession
from vet.templates import TemplateRegistry
from vet.toytls import TargetServer
from vet import mockserver


def grid(total: int, size: int) -> list[int]:
    """The lengths of ``total`` bytes cut every ``size`` bytes: a fixed chunk grid."""
    return [min(size, total - start) for start in range(0, total, size)]


def gctr(aes_key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR AES-256 under ``aes_key`` over the counter blocks
    ``nonce || 2 + i``, built block by block: GCTR (NIST SP 800-38D §7.1)
    for a 96-bit ``nonce``, with no AES-GCM call."""
    encryptor = Cipher(algorithms.AES(aes_key), modes.ECB()).encryptor()
    blocks = b"".join(nonce + (2 + i).to_bytes(4, "big") for i in range((len(data) + 15) // 16))
    stream = encryptor.update(blocks) + encryptor.finalize()
    return bytes(a ^ b for a, b in zip(data, stream))


def record_xor(direction: str, secret: bytes, index: int, data: bytes) -> bytes:
    """``data`` XOR the keystream of record ``index`` of ``direction``
    under ``secret``: AES-256 keyed by ``SHA-256("VET/ks-" || direction
    || ":" || secret)``, the 96-bit big-endian ``index`` as the nonce."""
    aes_key = hashlib.sha256(b"VET/ks-" + direction.encode() + b":" + secret).digest()
    return gctr(aes_key, index.to_bytes(12, "big"), data)


class HandSealer:
    """Records sealed and opened by hand, as one direction of a session
    does under ``secret``: the one place tests key records outside a
    session."""

    def __init__(self, direction: str, secret: bytes):
        self.cipher = toytls.RecordCipher(direction, secret)

    def seal(self, index: int, plaintext: bytes) -> bytes:
        return toytls.seal_record(self.cipher, plaintext, index, self.cipher.key(index))

    def open(self, index: int, wire: bytes) -> bytes:
        return toytls.open_record(self.cipher, wire, index, self.cipher.key(index))


def session_kind(signed: dict) -> str:
    """The proof kind of a bundle's session, from its shape: a notary's
    statement is nested under "statement", a proxy log head is not."""
    return "webproof" if "statement" in signed else "tee_attestation"


def session_field(kind: str) -> str:
    """The payload member in which a proof of ``kind`` names its session."""
    return "signed_statement" if kind == "webproof" else "attestation"


def count_calls(monkeypatch, original):
    """Count calls of ``original`` from every ``vet`` module that holds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "vet" or name.startswith("vet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(scope="session")
def demo_world():
    return demo_mod.build_world("0")


@pytest.fixture(scope="session")
def demo_result():
    return demo_mod.run_demo("0")


class WebProofRig:
    """A notary, an echo-style target server, and matching templates.

    Small enough to build fresh in each test; ``fresh_notary()`` rewires
    a new NotaryService around the same server so capacity and live
    sessions do not leak between tests.
    """

    def __init__(self, seed="rig", handler=None, secret_length="16"):
        self.registry = TemplateRegistry()
        self.inject_uid = self.registry.register(
            {
                "type": "inject",
                "kind": "tool",
                "method": "POST",
                "path": "/v1/echo",
                "headers": [
                    {"name": "Host", "value": "echo.test"},
                    {"name": "X-Api-Key", "secret": "token", "length": secret_length},
                ],
                "body": {"message": ""},
                "input_pointer": "/message",
            }
        )
        self.parse_uid = self.registry.register(
            {"type": "parse", "kind": "tool", "output_pointer": "/echo"}
        )
        self.notary_key = SigningKey.from_seed(f"{seed}:notary")
        self.server_key = SigningKey.from_seed(f"{seed}:server")
        self.server = TargetServer(
            "echo.test",
            handler or mockserver.make_echo_handler(),
            self.server_key,
            [self.notary_key.public_string],
        )
        self.service = NotaryService(
            self.notary_key, {"echo.test": self.server}.__getitem__, max_sessions=10**6
        )
        self.entry = ComponentEntry(
            name="echo",
            endpoint="https://echo.test/v1/echo",
            injection_algorithm_uid=self.inject_uid,
            parsing_algorithm_uid=self.parse_uid,
            verification=VerificationMetadata(
                SCHEME_TLS_NOTARY,
                {
                    "protocol_version": "commit-then-key-release/1",
                    "notary_public_key": self.notary_key.public_string,
                },
            ),
        )

    def fresh_notary(self):
        self.service = NotaryService(
            self.notary_key, {"echo.test": self.server}.__getitem__, max_sessions=10**6
        )
        return self.service


@pytest.fixture
def rig():
    return WebProofRig()


# Frame types whose payloads the notary relays without parsing.
OPAQUE_TYPES = {
    frames.HS_UP,
    frames.HS_DOWN,
    frames.RELAY_UP,
    frames.RELAY_DOWN,
    frames.POST_DOWN,
}


@pytest.fixture
def relayed_payloads(monkeypatch):
    """A spy on the notary's view: the opaque payload of every frame that
    ``NotarySession.handle`` takes or returns, in order."""
    seen: list[bytes] = []
    handle = NotarySession.handle

    def spy(self, frame):
        replies = handle(self, frame)
        seen.extend(f.payload for f in [frame, *replies] if f.type in OPAQUE_TYPES)
        return replies

    monkeypatch.setattr(NotarySession, "handle", spy)
    return seen


@pytest.fixture
def opened_sessions(monkeypatch):
    """A spy on ``NotaryService.open_session``: every session it opens, by
    id (the last one, for an id opened again). The notary itself keeps
    nothing of a session once it ends; this is how a test reads one that
    a TCP handler thread opened."""
    opened: dict[str, NotarySession] = {}
    open_session = NotaryService.open_session

    def spy(self, frame):
        session, ok = open_session(self, frame)
        opened[session.session_id] = session
        return session, ok

    monkeypatch.setattr(NotaryService, "open_session", spy)
    return opened


@pytest.fixture
def rng():
    return random.Random(1234)
