"""Content-oblivious notary: relays ciphertext, signs the record chain's head.

The notary sits between the prover and the target server. It forwards
encrypted records in both directions without parsing their payloads,
folds each record's direction, plaintext length and tag into the
running head of the session's hash chain (``toytls.RecordChain``),
enforces the per-direction capacity the session was opened with, and at
FIN signs a statement over the head and the record count. Whatever the
number of records, a session's state is that chain: its head, its count
and the bytes relayed each way, which the capacity check reads. It never
holds a decryption key, so the signed statement attests only to what
crossed the wire, not to what it said. The statement is
``{session_id, server_domain, channel_capacity, opened_at, closed_at,
records, head}``: what a verifier decodes, and the session's times.

A record's tag is the last 32 bytes of its wire,
``H("VET/mac:" || key || plaintext)`` (see ``vet.toytls``): a commitment
to the plaintext that a released key opens with one hash. The server
refuses an up record whose tag does not match what it decrypts, and it
releases the down seed only for a signed head that matches its own.

A session lasts as long as its connection. At FIN the notary signs the
head and hands the statement to the server connection, and answers with
``[STATEMENT, POST_DOWN]``: the statement, then the down seed sealed
under the handshake key, which only prover and server hold, and the
statement's bytes. The session
then ends, as it does at an ABORT, a CLOSE or a dropped connection. The
server draws its secrets fresh for each connection, so nothing outlives
a session: the service keeps only the ids of live sessions, and
``max_sessions`` bounds them. Over TCP a session of one exchange is two
round trips: ``[OPEN, HS_UP]``, then the request's ``RELAY_UP`` records
with ``END_UP`` and ``FIN`` (see ``webproof.NotarizedSession``). The
server answers every frame that has arrived before it writes, so each
burst's replies leave in one write: ``[OPEN_OK, HS_DOWN]``, then the
response records, ``END_DOWN``, ``STATEMENT`` and ``POST_DOWN``. A
``RELAY_UP`` gets no reply, unless it ends the session with an ABORT.

Over TCP a frame is bounded before its payload is read: a ``RELAY_UP``
by the session's remaining up capacity and a tag, any other frame, and
every frame before OPEN, by ``frames.CONTROL_MAX``.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable

from . import frames, toytls
from .canonical import canonical_bytes, canonical_loads, json_field
from .errors import CapacityExceeded, ProtocolError, ValidationError
from .frames import Frame
from .keys import SigningKey
from .toytls import TargetServer

STATE_OPEN = "open"
STATE_FINALIZED = "finalized"
STATE_ABORTED = "aborted"


class NotarySession:
    """One prover-facing session: relay, log, enforce capacity, sign once.

    It leaves ``STATE_OPEN`` once: finalized at FIN, or aborted by an
    ABORT, a CLOSE or a dropped connection. It then frees its place among
    the service's live sessions, and answers every later frame with an
    ABORT.
    """

    def __init__(
        self,
        service: "NotaryService",
        session_id: str,
        domain: str,
        cap_up: int,
        cap_down: int,
        server: TargetServer,
    ):
        self.service = service
        self.session_id = session_id
        self.domain = domain
        self.cap_up = cap_up
        self.cap_down = cap_down
        self.chain = toytls.RecordChain()  # with the bytes relayed each way
        self.state = STATE_OPEN
        self.abort_reason = ""
        self.opened_at = service.now_ms()
        self._server = server.open_connection(session_id)

    def handle(self, frame: Frame) -> list[Frame]:
        if self.state != STATE_OPEN:
            return [self._abort_frame()]
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
            return self._server.handle(frame)  # none: a record gets no reply
        if frame.type == frames.END_UP:
            down = self._server.handle(frame)
            for f in down:
                if f.type == frames.RELAY_DOWN:
                    self._log("down", f.payload)
            return down
        if frame.type == frames.FIN:
            # The server answers the signed statement with the down seed,
            # sealed under a handshake key the notary does not hold.
            statement = self._statement()
            released = self._server.handle(statement)
            self._end(STATE_FINALIZED)
            return [statement, *released]
        if frame.type == frames.CLOSE:
            self._end(STATE_ABORTED, "closed before statement")
            return []
        raise ProtocolError(f"notary: unexpected frame type {frame.type:#x}")

    def _log(self, direction: str, wire: bytes) -> None:
        if len(wire) < toytls.TAG_LEN:
            raise ProtocolError("record shorter than its MAC tag")
        self.chain.add(direction, wire)
        cap = self.cap_up if direction == "up" else self.cap_down
        if self.chain.used[direction] > cap:
            # The session aborts, so the record chained on is never signed.
            raise CapacityExceeded(
                f"{direction} capacity {cap} exceeded at {self.chain.used[direction]}"
            )

    def _statement(self) -> Frame:
        statement = {
            "session_id": self.session_id,
            "server_domain": self.domain,
            "channel_capacity": {"up": str(self.cap_up), "down": str(self.cap_down)},
            "opened_at": str(self.opened_at),
            "closed_at": str(self.service.now_ms()),
            "records": str(self.chain.count),
            "head": self.chain.head.hex(),
        }
        signature = self.service.signing_key.sign(canonical_bytes(statement))
        body = canonical_bytes({"statement": statement, "notary_signature": signature})
        return Frame(frames.STATEMENT, body)

    def _end(self, state: str, reason: str = "") -> None:
        """Leave STATE_OPEN for ``state``, once, and free the live place."""
        if self.state == STATE_OPEN:
            self.state, self.abort_reason = state, reason
            self.service.release(self.session_id)

    def _abort(self, reason: str) -> list[Frame]:
        self._end(STATE_ABORTED, reason)
        return [self._abort_frame()]

    def _abort_frame(self) -> Frame:
        return Frame(frames.ABORT, (self.abort_reason or "session ended").encode("utf-8"))

    def frame_limit(self, ftype: int) -> int:
        """The most payload bytes a frame of ``ftype`` may declare: the
        remaining up capacity and a tag for a RELAY_UP, else CONTROL_MAX."""
        if ftype == frames.RELAY_UP:
            return self.cap_up - self.chain.used["up"] + toytls.TAG_LEN
        return frames.CONTROL_MAX

    def refuse(self, exc: frames.FrameTooLarge) -> list[Frame]:
        """Abort on a frame over its limit, before its payload is read."""
        if exc.type == frames.RELAY_UP:
            return self._abort(f"up capacity {self.cap_up} exceeded: {exc}")
        return self._abort(f"protocol error: {exc}")

    def drop(self) -> None:
        """End the session with its connection: one still open is aborted
        as "connection dropped"."""
        self._end(STATE_ABORTED, "connection dropped")


class NotaryService:
    """The notary's long-lived state: key, server resolver, live session ids.

    ``resolver`` maps a domain name to a TargetServer, and raises
    KeyError for a domain it does not serve, which refuses the OPEN as a
    ProtocolError; the notary opens one server connection per session
    and relays between the two sides.
    It keeps no log of the payloads it relays, and nothing of a session
    once it ends: only the ids of live sessions, at most ``max_sessions``.
    """

    def __init__(
        self,
        signing_key: SigningKey,
        resolver: Callable[[str], TargetServer],
        max_cap_up: int = frames.SESSION_CAP,
        max_cap_down: int = frames.SESSION_CAP,
        max_sessions: int = 64,
    ):
        self.signing_key = signing_key
        self.resolver = resolver
        self.max_cap_up = max_cap_up
        self.max_cap_down = max_cap_down
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._live: set[str] = set()

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
        # Resolve the server first: an unknown domain must not take a place.
        try:
            server = self.resolver(domain)
        except KeyError:
            raise ProtocolError(f"no server for domain {domain!r:.80}") from None
        session = NotarySession(self, session_id, domain, cap_up, cap_down, server)
        with self._lock:
            if len(self._live) >= self.max_sessions:
                raise ProtocolError("session limit reached")
            if session_id in self._live:
                raise ProtocolError(f"session {session_id!r} is live")
            self._live.add(session_id)
        return session, Frame(frames.OPEN_OK, canonical_bytes({"session_id": session_id}))

    def release(self, session_id: str) -> None:
        """Free an ended session's place; its id may then open again."""
        with self._lock:
            self._live.discard(session_id)


class NotaryTCPServer(frames.FrameServer):
    def __init__(self, address: tuple[str, int], service: NotaryService):
        super().__init__(address, self._open, first_limit=frames.CONTROL_MAX)
        self.service = service

    def _open(self, frame: Frame) -> tuple[NotarySession | None, list[Frame]]:
        """A refused OPEN gets one ABORT frame and no session."""
        try:
            session, ok = self.service.open_session(frame)
        except ProtocolError as exc:
            return None, [Frame(frames.ABORT, str(exc).encode("utf-8"))]
        return session, [ok]


def serve(service: NotaryService, host: str = "127.0.0.1", port: int = 0) -> NotaryTCPServer:
    """Start a TCP notary on its first worker thread; returns the bound server."""
    return NotaryTCPServer((host, port), service).start()


def check_health(host: str, port: int, timeout: float = 5.0) -> bool:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        frames.write_frame(sock, Frame(frames.HEALTH, b""))
        reply = frames.read_frame(sock)
        return reply.type == frames.HEALTH_OK
