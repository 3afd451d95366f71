"""Length-prefixed binary frames for the notary wire protocol.

One frame is a type byte, a 4-byte big-endian payload length, and the
payload. The notary relays most frame payloads without parsing them,
which is what keeps it content-oblivious. Agent transcripts use the same
layout, with a role tag in place of the frame type.

The TEE proxy and the mock servers speak the smallest protocol over
these frames: one RELAY_UP request, one RELAY_DOWN reply (`serve_relay`,
`relay`).
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from typing import Callable

from .errors import ProtocolError

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

_HEADER = struct.Struct(">BI")


def encode(ftype: int, payload: bytes) -> bytes:
    return _HEADER.pack(ftype, len(payload)) + payload


def decode_all(data: bytes) -> list[tuple[int, bytes]]:
    """Split concatenated frames back into (type, payload) pairs."""
    out = []
    pos = 0
    while pos < len(data):
        ftype, length = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        out.append((ftype, data[pos:pos + length]))
        pos += length
    return out


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes

    def encode(self) -> bytes:
        return encode(self.type, self.payload)


def read_frame(sock: socket.socket) -> Frame:
    ftype, length = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
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
    """A threaded TCP server for a frame protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def start(self) -> "FrameServer":
        """Serve from a daemon thread; returns the bound server."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self


class _RelayHandler(socketserver.BaseRequestHandler):
    def handle(self):
        respond, health = self.server.respond, self.server.health  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        while True:
            try:
                frame = read_frame(sock)
            except ProtocolError:
                return
            if frame.type == HEALTH:
                write_frame(sock, Frame(HEALTH_OK, health))
                continue
            if frame.type == CLOSE:
                return
            if frame.type != RELAY_UP:
                write_frame(sock, Frame(ABORT, b"expected RELAY_UP"))
                return
            write_frame(sock, Frame(RELAY_DOWN, respond(frame.payload)))


def serve_relay(
    respond: Callable[[bytes], bytes],
    host: str = "127.0.0.1",
    port: int = 0,
    health: bytes = b"",
) -> FrameServer:
    """Answer each RELAY_UP payload with a RELAY_DOWN of ``respond(payload)``,
    and HEALTH with a HEALTH_OK carrying ``health``."""
    server = FrameServer((host, port), _RelayHandler)
    server.respond = respond
    server.health = health
    return server.start()


def relay(host: str, port: int, payload: bytes) -> bytes:
    """One RELAY_UP/RELAY_DOWN round trip; any other reply is a ProtocolError."""
    with socket.create_connection((host, port)) as sock:
        write_frame(sock, Frame(RELAY_UP, payload))
        reply = read_frame(sock)
    if reply.type != RELAY_DOWN:
        raise ProtocolError(f"relay error: {reply.payload.decode('utf-8', 'replace')}")
    return reply.payload
