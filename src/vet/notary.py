"""Content-oblivious notary: relays ciphertext, signs the record chain's head.

The notary sits between the prover and the target server. It forwards
encrypted records in both directions without parsing their payloads,
folds each record's direction, plaintext length and tag into the
running head of the session's hash chain (``toytls.RecordChain``),
enforces the per-direction capacity the session was opened with, and on
request signs a statement over the head and the record count. Whatever
the number of records, a session's state is that head, the count and
the two byte sums. It never holds a decryption key, so the signed
statement attests only to what crossed the wire, not to what it said.

A record's tag is the last 32 bytes of its wire,
``H("VET/mac:" || key || plaintext)`` (see ``vet.toytls``): a commitment
to the plaintext that a released key opens with one hash. The server
refuses an up record whose tag does not match what it decrypts, and it
releases the down seed only once the head is signed.

Over TCP a frame is bounded before its payload is read: a ``RELAY_UP``
by the session's remaining up capacity and a tag, any other frame, and
every frame before OPEN, by ``frames.CONTROL_MAX``.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from . import frames, toytls
from .canonical import canonical_bytes, canonical_loads, json_field
from .errors import CapacityExceeded, ProtocolError, ValidationError
from .frames import Frame
from .keys import SigningKey, key_fingerprint
from .toytls import TargetServer

STATE_OPEN = "open"
STATE_RELAYING = "relaying"
STATE_FINALIZED = "finalized"
STATE_ABORTED = "aborted"

_STATE_ORDER = [STATE_OPEN, STATE_RELAYING, STATE_FINALIZED, STATE_ABORTED]
# States that hold one of the service's ``max_sessions`` places.
_LIVE_STATES = (STATE_OPEN, STATE_RELAYING)


@dataclass
class LedgerEntry:
    domain: str
    cap_up: int
    cap_down: int
    opened_at: int = 0
    state: str = STATE_OPEN
    used_up: int = 0
    used_down: int = 0
    chain: toytls.RecordChain = field(default_factory=toytls.RecordChain)
    statement_frame: Frame | None = None
    abort_reason: str = ""
    closed: bool = False

    def advance(self, state: str) -> None:
        if _STATE_ORDER.index(state) < _STATE_ORDER.index(self.state):
            raise ProtocolError(
                f"session state cannot move from {self.state} to {state}"
            )
        self.state = state

    def close(self) -> None:
        """End the session: drop its statement, keep its state.

        The ledger keeps the entry, so its session id stays taken: the
        server derives its seed and ephemeral key from that id.
        """
        self.closed = True
        self.statement_frame = None


class SessionLedger:
    """Thread-safe map of session_id to its ledger entry."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, LedgerEntry] = {}
        self._live: list[str] = []

    def open(self, session_id: str, entry: LedgerEntry, max_live: int) -> None:
        """Add a session unless ``max_live`` sessions are open or relaying."""
        with self._lock:
            self._live = [s for s in self._live if self._entries[s].state in _LIVE_STATES]
            if len(self._live) >= max_live:
                raise ProtocolError("session limit reached")
            if session_id in self._entries:
                raise ProtocolError(f"session {session_id!r} already used")
            self._entries[session_id] = entry
            self._live.append(session_id)

    def get(self, session_id: str) -> LedgerEntry:
        with self._lock:
            return self._entries[session_id]

    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._entries)


class NotarySession:
    """One prover-facing session: relay, log, enforce capacity, sign once."""

    def __init__(self, service: "NotaryService", session_id: str, entry: LedgerEntry):
        self.service = service
        self.session_id = session_id
        self.entry = entry
        server = service.resolver(entry.domain)
        # The notary is also the TCP relay to the server, so knowing which
        # server key it connected to is transport metadata, not content.
        self._server_fingerprint = key_fingerprint(server.signing_key.public_string)
        self._server = server.open_connection(session_id)

    def handle(self, frame: Frame) -> list[Frame]:
        if self.entry.state == STATE_ABORTED:
            return [self._abort_frame()]
        if self.entry.closed:
            return [Frame(frames.ABORT, b"session closed")]
        try:
            return self._dispatch(frame)
        except CapacityExceeded as exc:
            return self._abort(str(exc))
        except ProtocolError as exc:
            return self._abort(f"protocol error: {exc}")

    def _dispatch(self, frame: Frame) -> list[Frame]:
        if frame.type == frames.HS_UP:
            return self._server.handle(frame)
        if frame.type == frames.RELAY_UP:
            self._log("up", frame.payload)
            self._server.handle(frame)
            return [Frame(frames.ACK, b"")]
        if frame.type == frames.END_UP:
            down = self._server.handle(frame)
            for f in down:
                if f.type == frames.RELAY_DOWN:
                    self._log("down", f.payload)
            return down
        if frame.type == frames.FIN:
            return [self._statement()]
        if frame.type == frames.POST_UP:
            return self._server.handle(frame)
        if frame.type == frames.CLOSE:
            self._server.handle(frame)
            if self.entry.state != STATE_FINALIZED:
                self.entry.advance(STATE_ABORTED)
                self.entry.abort_reason = "closed before statement"
            self.entry.close()
            return []
        raise ProtocolError(f"notary: unexpected frame type {frame.type:#x}")

    def _log(self, direction: str, wire: bytes) -> None:
        if self.entry.statement_frame is not None:
            raise ProtocolError("record after statement was issued")
        self.entry.advance(STATE_RELAYING)
        plaintext_len = len(wire) - toytls.TAG_LEN
        if plaintext_len < 0:
            raise ProtocolError("record shorter than its MAC tag")
        if direction == "up":
            self.entry.used_up += plaintext_len
            if self.entry.used_up > self.entry.cap_up:
                raise CapacityExceeded(
                    f"up capacity {self.entry.cap_up} exceeded at {self.entry.used_up}"
                )
        else:
            self.entry.used_down += plaintext_len
            if self.entry.used_down > self.entry.cap_down:
                raise CapacityExceeded(
                    f"down capacity {self.entry.cap_down} exceeded at {self.entry.used_down}"
                )
        self.entry.chain.add(direction, wire)

    def _statement(self) -> Frame:
        if self.entry.statement_frame is None:
            statement = {
                "session_id": self.session_id,
                "server_domain": self.entry.domain,
                "server_key_fingerprint": self._server_fingerprint,
                "channel_capacity": {
                    "up": str(self.entry.cap_up),
                    "down": str(self.entry.cap_down),
                },
                "opened_at": str(self.entry.opened_at),
                "closed_at": str(self.service.now_ms()),
                "tee_backed": False,
                "records": str(self.entry.chain.count),
                "head": self.entry.chain.head.hex(),
            }
            signature = self.service.signing_key.sign(canonical_bytes(statement))
            body = canonical_bytes(
                {"statement": statement, "notary_signature": signature}
            )
            self.entry.statement_frame = Frame(frames.STATEMENT, body)
            self.entry.advance(STATE_FINALIZED)
        return self.entry.statement_frame

    def _abort(self, reason: str) -> list[Frame]:
        self.entry.advance(STATE_ABORTED)
        self.entry.abort_reason = reason
        self.entry.close()
        return [self._abort_frame()]

    def _abort_frame(self) -> Frame:
        return Frame(frames.ABORT, self.entry.abort_reason.encode("utf-8"))

    def frame_limit(self, ftype: int) -> int:
        """The most payload bytes a frame of ``ftype`` may declare: the
        remaining up capacity and a tag for a RELAY_UP, else CONTROL_MAX."""
        if ftype == frames.RELAY_UP:
            return self.entry.cap_up - self.entry.used_up + toytls.TAG_LEN
        return frames.CONTROL_MAX

    def refuse(self, exc: frames.FrameTooLarge) -> list[Frame]:
        """Abort on a frame over its limit, before its payload is read."""
        if exc.type == frames.RELAY_UP:
            return self._abort(f"up capacity {self.entry.cap_up} exceeded: {exc}")
        return self._abort(f"protocol error: {exc}")

    def drop(self) -> None:
        """End the session when its connection ends; a session still open
        or relaying is aborted as "connection dropped"."""
        if self.entry.state in _LIVE_STATES:
            self.entry.advance(STATE_ABORTED)
            self.entry.abort_reason = "connection dropped"
        self.entry.close()


class NotaryService:
    """The notary's long-lived state: key, ledger, server resolver.

    ``resolver`` maps a domain name to a TargetServer; the notary opens
    one server connection per session and relays between the two sides.
    It keeps no log of the payloads it relays.
    """

    def __init__(
        self,
        signing_key: SigningKey,
        resolver: Callable[[str], TargetServer],
        max_cap_up: int = 1 << 16,
        max_cap_down: int = 1 << 16,
        max_sessions: int = 64,
    ):
        self.signing_key = signing_key
        self.resolver = resolver
        self.max_cap_up = max_cap_up
        self.max_cap_down = max_cap_down
        self.max_sessions = max_sessions
        self.ledger = SessionLedger()

    @property
    def public_key(self) -> str:
        return self.signing_key.public_string

    def now_ms(self) -> int:
        return int(time.time() * 1000)

    def open_session(self, frame: Frame) -> tuple[NotarySession, Frame]:
        if frame.type != frames.OPEN:
            raise ProtocolError("first frame must be OPEN")
        try:
            request = canonical_loads(frame.payload)
            session_id = json_field(request, "session_id")
            domain = json_field(request, "domain")
            cap_up = json_field(request, "cap_up", int, self.max_cap_up)
            cap_down = json_field(request, "cap_down", int, self.max_cap_down)
        except ValidationError as exc:
            raise ProtocolError(f"malformed OPEN payload: {exc}")
        if cap_up <= 0 or cap_down <= 0:
            raise ProtocolError("capacities must be positive")
        if cap_up > self.max_cap_up or cap_down > self.max_cap_down:
            raise ProtocolError(
                f"requested capacity {cap_up}/{cap_down} exceeds session maximum "
                f"{self.max_cap_up}/{self.max_cap_down}"
            )
        entry = LedgerEntry(
            domain=domain, cap_up=cap_up, cap_down=cap_down, opened_at=self.now_ms()
        )
        # Resolve the server first: an unknown domain must not take a place.
        session = NotarySession(self, session_id, entry)
        self.ledger.open(session_id, entry, self.max_sessions)
        ok = Frame(
            frames.OPEN_OK,
            canonical_bytes(
                {"session_id": session_id, "notary_public_key": self.public_key}
            ),
        )
        return session, ok


class NotaryTCPServer(frames.FrameServer):
    def __init__(self, address: tuple[str, int], service: NotaryService):
        super().__init__(address, self._open, first_limit=frames.CONTROL_MAX)
        self.service = service

    def _open(self, frame: Frame) -> tuple[NotarySession | None, list[Frame]]:
        """A refused OPEN gets one ABORT frame and no session."""
        try:
            session, ok = self.service.open_session(frame)
        except (ProtocolError, KeyError) as exc:
            return None, [Frame(frames.ABORT, str(exc).encode("utf-8"))]
        return session, [ok]


def serve(service: NotaryService, host: str = "127.0.0.1", port: int = 0) -> NotaryTCPServer:
    """Start a TCP notary in a daemon thread; returns the bound server."""
    return NotaryTCPServer((host, port), service).start()


def check_health(host: str, port: int, timeout: float = 5.0) -> bool:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        frames.write_frame(sock, Frame(frames.HEALTH, b""))
        reply = frames.read_frame(sock)
        return reply.type == frames.HEALTH_OK
