"""Length-prefixed binary frames for the notary wire protocol.

One frame is a type byte, a 4-byte big-endian payload length, and the
payload. The notary relays most frame payloads without parsing them,
which is what keeps it content-oblivious. Agent transcripts use the same
layout, with a role tag in place of the frame type.

Every TCP service (the notary, the TEE proxy and the mock servers) runs
the one connection loop of `FrameServer`, and none keeps a log of what
it relays. The TEE proxy and the mock servers speak the smallest
protocol over these frames: one RELAY_UP request, one RELAY_DOWN reply
(`serve_relay`, `relay`).
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import ProtocolError, ValidationError

OPEN = 0x01
OPEN_OK = 0x02
HS_UP = 0x03
HS_DOWN = 0x04
RELAY_UP = 0x05
END_UP = 0x06
RELAY_DOWN = 0x07
END_DOWN = 0x08
FIN = 0x09
STATEMENT = 0x0A
POST_UP = 0x0B
POST_DOWN = 0x0C
ACK = 0x0D
ABORT = 0x0E
CLOSE = 0x0F
HEALTH = 0x10
HEALTH_OK = 0x11

MAX_FRAME = 1 << 24
# A notary's bound on any frame but a RELAY_UP: every other one is small.
CONTROL_MAX = 1 << 12
# Seconds a socket of the frame server or of its clients waits on a read
# or a write before the connection counts as dropped.
IDLE_TIMEOUT = 30.0

_HEADER = struct.Struct(">BI")


def encode(ftype: int, payload: bytes) -> bytes:
    return _HEADER.pack(ftype, len(payload)) + payload


def _cut_short(data: bytes, pos: int) -> ValidationError:
    """The error for the frame at ``pos``, whose header or payload is truncated."""
    if len(data) - pos < _HEADER.size:
        return ValidationError(f"truncated frame header at byte {pos}")
    length = _HEADER.unpack_from(data, pos)[1]
    return ValidationError(
        f"frame at byte {pos} declares {length} payload bytes, "
        f"{len(data) - pos - _HEADER.size} remain"
    )


def decode_all(data: bytes) -> list[tuple[int, bytes]]:
    """Split concatenated frames back into (type, payload) pairs; a
    truncated header or payload is a ValidationError."""
    out = []
    pos = 0
    while pos < len(data):
        if len(data) - pos < _HEADER.size:
            raise _cut_short(data, pos)
        ftype, length = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if len(data) - pos < length:
            raise _cut_short(data, pos - _HEADER.size)
        out.append((ftype, data[pos:pos + length]))
        pos += length
    return out


def count_type(data: bytes, ftype: int) -> int:
    """How many of the concatenated frames have type ``ftype``, read off
    the headers alone, with the errors of ``decode_all``."""
    count = 0
    pos = 0
    while pos < len(data):
        if len(data) - pos < _HEADER.size:
            raise _cut_short(data, pos)
        found, length = _HEADER.unpack_from(data, pos)
        if len(data) - pos - _HEADER.size < length:
            raise _cut_short(data, pos)
        count += found == ftype
        pos += _HEADER.size + length
    return count


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes

    def encode(self) -> bytes:
        return encode(self.type, self.payload)


class FrameTooLarge(ProtocolError):
    """A frame whose header declares more payload than its reader admits."""

    def __init__(self, ftype: int, length: int, limit: int):
        super().__init__(f"frame of {length} bytes exceeds limit {limit}")
        self.type = ftype


def read_frame(sock: socket.socket, limit: Callable[[int], int] = lambda ftype: MAX_FRAME) -> Frame:
    """The next frame; FrameTooLarge, before the payload is read, if its
    header declares more than ``limit(type)`` bytes."""
    ftype, length = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length > limit(ftype):
        raise FrameTooLarge(ftype, length, limit(ftype))
    return Frame(ftype, _read_exact(sock, length))


def write_frame(sock: socket.socket, *batch: Frame) -> None:
    """Send one or more frames in a single ``sendall``: a reply split over
    several sends can wait on the peer's delayed ACK."""
    sock.sendall(b"".join(frame.encode() for frame in batch))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameServer(socketserver.ThreadingTCPServer):
    """A threaded TCP server running one loop per connection.

    HEALTH gets HEALTH_OK carrying ``health`` at any point. The first
    other frame opens a session, ``open_session(frame) -> (session,
    replies)``, where a refusal is no session and an ABORT reply; each
    later frame gets ``session.handle(frame) -> replies``. A frame's
    replies leave in one write. A frame declaring more than ``first_limit``
    bytes, or ``session.frame_limit(type)`` once a session is open, gets
    an ABORT (``session.refuse(exc)``) before its payload is read. The
    loop ends after CLOSE, an ABORT reply, a read error or
    ``IDLE_TIMEOUT`` seconds of silence, then calls ``session.drop()``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, open_session: Callable, health=b"", first_limit=MAX_FRAME):
        super().__init__(address, _FrameHandler)
        self.open_session = open_session
        self.health = health
        self.first_limit = first_limit

    def start(self) -> "FrameServer":
        """Serve from a daemon thread; returns the bound server."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server: FrameServer = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(IDLE_TIMEOUT)
        session = None
        try:
            while True:
                try:
                    frame = read_frame(
                        sock, session.frame_limit if session else lambda _: server.first_limit
                    )
                except FrameTooLarge as exc:
                    refusal = [Frame(ABORT, str(exc).encode())]
                    write_frame(sock, *(session.refuse(exc) if session else refusal))
                    return
                except (ProtocolError, OSError):
                    return
                if frame.type == HEALTH:
                    replies = [Frame(HEALTH_OK, server.health)]
                elif session is None:
                    session, replies = server.open_session(frame)
                else:
                    replies = session.handle(frame)
                write_frame(sock, *replies)
                if frame.type == CLOSE or any(r.type == ABORT for r in replies):
                    return
        finally:
            if session is not None:
                session.drop()


class _RelaySession:
    """Stateless: each RELAY_UP is answered on its own."""

    def __init__(self, respond: Callable[[bytes], bytes]):
        self.respond = respond

    def handle(self, frame: Frame) -> list[Frame]:
        if frame.type == RELAY_UP:
            # A request the handler cannot read ends the connection with an
            # ABORT, as toy-TLS ends a session on one.
            try:
                return [Frame(RELAY_DOWN, self.respond(frame.payload))]
            except (ValidationError, ValueError) as exc:
                return [Frame(ABORT, f"relay: malformed request: {exc}".encode())]
        if frame.type == CLOSE:
            return []
        return [Frame(ABORT, b"expected RELAY_UP")]

    def frame_limit(self, ftype: int) -> int:
        return MAX_FRAME

    def refuse(self, exc: FrameTooLarge) -> list[Frame]:
        return [Frame(ABORT, str(exc).encode())]

    def drop(self) -> None:
        pass


def serve_relay(
    respond: Callable[[bytes], bytes],
    host: str = "127.0.0.1",
    port: int = 0,
    health: bytes = b"",
) -> FrameServer:
    """Answer each RELAY_UP payload with a RELAY_DOWN of ``respond(payload)``,
    and HEALTH with a HEALTH_OK carrying ``health``."""
    session = _RelaySession(respond)
    server = FrameServer((host, port), lambda frame: (session, session.handle(frame)), health)
    return server.start()


def relay(host: str, port: int, payload: bytes) -> bytes:
    """One RELAY_UP/RELAY_DOWN round trip; any other reply is a ProtocolError."""
    with socket.create_connection((host, port), timeout=IDLE_TIMEOUT) as sock:
        write_frame(sock, Frame(RELAY_UP, payload))
        reply = read_frame(sock)
    if reply.type != RELAY_DOWN:
        raise ProtocolError(f"relay error: {reply.payload.decode('utf-8', 'replace')}")
    return reply.payload
