"""Shared fixtures: a wired demo world and a small webproof test rig."""

import random

import pytest

from vet import demo as demo_mod, frames
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
