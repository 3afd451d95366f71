"""Length-prefixed binary frames for the notary wire protocol.

One frame is a type byte, a 4-byte big-endian payload length, and the
payload. The notary relays most frame payloads without parsing them,
which is what keeps it content-oblivious.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes

    def encode(self) -> bytes:
        return struct.pack(">BI", self.type, len(self.payload)) + self.payload


def read_frame(sock: socket.socket) -> Frame:
    header = _read_exact(sock, 5)
    ftype, length = struct.unpack(">BI", header)
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
