"""Length-prefixed binary frames for the notary wire protocol.

One frame is a type byte, a 4-byte big-endian payload length, and the
payload. The notary relays most frame payloads without parsing them,
which is what keeps it content-oblivious. Agent transcripts use the same
layout, with a role tag in place of the frame type.

Every TCP service (the notary, the TEE proxy and the mock servers) runs
the one connection loop of `FrameServer`, and none keeps a log of what
it relays. A pool of at most ``MAX_WORKERS`` threads serves the
connections, each on the thread that accepted it. A connection is read
through one buffer, and the replies to every frame that has arrived
leave in one write, so a client that sends several frames in one write
gets their replies back in one. The TEE proxy and the mock servers speak
the smallest protocol over these frames: one RELAY_UP request, one
RELAY_DOWN reply (`serve_relay`, `relay`).
"""

from __future__ import annotations

import socket
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
POST_DOWN = 0x0C
ABORT = 0x0E
CLOSE = 0x0F
HEALTH = 0x10
HEALTH_OK = 0x11

MAX_FRAME = 1 << 24
# A notarized session's byte capacity per direction, by default: what a
# prover asks for and a notary allows.
SESSION_CAP = 1 << 16
# A notary's bound on any frame but a RELAY_UP: every other one is small.
CONTROL_MAX = 1 << 12
# Seconds a socket of the frame server or of its clients waits on a read
# or a write before the connection counts as dropped.
IDLE_TIMEOUT = 30.0
# Replies that end a session, and with it the connection: an ABORT, or
# the released seed that follows the notary's statement.
ENDING_REPLIES = (ABORT, POST_DOWN)
# Most connections a FrameServer serves at once, one worker thread each:
# the notary's default ``max_sessions``.
MAX_WORKERS = 64
# Bytes a RecvBuffer asks of the socket at once, at least.
_RECV_SIZE = 1 << 16

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


def read_frame(
    sock: socket.socket | RecvBuffer, limit: Callable[[int], int] = lambda ftype: MAX_FRAME
) -> Frame:
    """The next frame from a socket or a ``RecvBuffer``; FrameTooLarge,
    before the payload is read, if its header declares more than
    ``limit(type)`` bytes."""
    ftype, length = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length > limit(ftype):
        raise FrameTooLarge(ftype, length, limit(ftype))
    return Frame(ftype, _read_exact(sock, length))


def write_frame(sock: socket.socket, *batch: Frame) -> None:
    """Send one or more frames in a single ``sendall``: a reply split over
    several sends can wait on the peer's delayed ACK."""
    sock.sendall(b"".join(frame.encode() for frame in batch))


def _read_exact(sock: socket.socket | RecvBuffer, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class RecvBuffer:
    """The reading end of a socket, through one buffer: a read from the
    socket takes every byte that has arrived, so a burst of frames costs
    one system call, and ``has_frame`` tells whether the next frame is
    already here."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._data = b""

    def recv(self, n: int) -> bytes:
        """At most ``n`` bytes: buffered ones, else from one socket read."""
        if not self._data:
            self._data = self.sock.recv(max(n, _RECV_SIZE))
        chunk, self._data = self._data[:n], self._data[n:]
        return chunk

    def has_frame(self) -> bool:
        data = self._data
        return len(data) >= _HEADER.size and (
            len(data) - _HEADER.size >= _HEADER.unpack_from(data)[1]
        )


class FrameServer:
    """A TCP server that serves each connection on the thread that accepted it.

    Worker threads block in ``accept()`` on the one listening socket,
    which on Linux hands over a connection once its first bytes have
    arrived. ``start`` starts one; a worker that accepts while no other is
    idle starts one more, up to ``MAX_WORKERS``, and a connection past
    that waits in the listen backlog until a worker is free.

    HEALTH gets HEALTH_OK carrying ``health`` at any point. The first
    other frame opens a session, ``open_session(frame) -> (session,
    replies)``, where a refusal is no session and an ABORT reply; each
    later frame gets ``session.handle(frame) -> replies``. The frames of a
    connection are read through a ``RecvBuffer``; every complete frame
    already buffered is answered before the replies leave, all in one
    write. A frame declaring more than ``first_limit`` bytes, or
    ``session.frame_limit(type)`` once a session is open, gets an ABORT
    (``session.refuse(exc)``), after the replies to the frames before it
    and before its payload is read. The loop ends after CLOSE, an ABORT
    or POST_DOWN reply, a read or write error or ``IDLE_TIMEOUT`` seconds
    of silence, then calls ``session.drop()``.
    """

    def __init__(self, address, open_session: Callable, health=b"", first_limit=MAX_FRAME):
        self.socket = socket.create_server(address)
        if hasattr(socket, "TCP_DEFER_ACCEPT"):  # Linux
            # accept() returns once a connection's first bytes have arrived
            # (or after 1 s without any), so a worker wakes with frames to
            # answer instead of waiting on the client that is still making
            # them: about half the thread switches of a notary session.
            self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, 1)
        self.server_address = self.socket.getsockname()
        self.open_session = open_session
        self.health = health
        self.first_limit = first_limit
        self._lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._idle = 0  # workers in, or on their way to, accept()
        self._closed = False

    def start(self) -> "FrameServer":
        """Start the first worker; returns the bound server."""
        with self._lock:
            self._add_worker()
        return self

    def shutdown(self) -> None:
        """Stop accepting: wake every ``accept()``, and join each worker once
        its connection, if it has one, has ended."""
        with self._lock:
            self._closed = True
            workers = list(self._workers)
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # not listening
            pass
        for worker in workers:
            worker.join()

    def server_close(self) -> None:
        self._closed = True
        self.socket.close()

    def handle_error(self, request, client_address) -> None:
        """Report an exception that serving a connection raised; the worker
        goes on accepting."""
        import traceback

        traceback.print_exc()

    def _add_worker(self) -> None:
        """Start one more worker; the caller holds the lock."""
        worker = threading.Thread(target=self._work, daemon=True)
        self._workers.append(worker)
        self._idle += 1
        worker.start()

    def _work(self) -> None:
        while True:
            try:
                conn, address = self.socket.accept()
            except OSError:
                if self._closed:
                    return
                continue
            with self._lock:
                self._idle -= 1
                if not self._idle and len(self._workers) < MAX_WORKERS and not self._closed:
                    self._add_worker()
            with conn:
                try:
                    self._serve(conn)
                except Exception:
                    self.handle_error(conn, address)

    def _free(self) -> None:
        with self._lock:
            self._idle += 1

    def _serve(self, sock: socket.socket) -> None:
        """Serve one connection; the worker counts as idle again from its
        last write, or from the end if the peer hung up."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(IDLE_TIMEOUT)
        received = RecvBuffer(sock)
        session = None
        replies: list[Frame] = []
        ending = False
        try:
            while not ending:
                try:
                    frame = read_frame(
                        received, session.frame_limit if session else lambda _: self.first_limit
                    )
                except FrameTooLarge as exc:
                    refusal = [Frame(ABORT, str(exc).encode())]
                    replies += session.refuse(exc) if session else refusal
                    ending = True
                except ProtocolError:  # the peer hung up mid-frame
                    return
                else:
                    if frame.type == HEALTH:
                        answer = [Frame(HEALTH_OK, self.health)]
                    elif session is None:
                        session, answer = self.open_session(frame)
                    else:
                        answer = session.handle(frame)
                    replies += answer
                    ending = frame.type == CLOSE or any(r.type in ENDING_REPLIES for r in answer)
                if ending:
                    # Before the last write: the peer may connect again as
                    # soon as it has read it, and should find a worker.
                    self._free()
                if replies and (ending or not received.has_frame()):
                    write_frame(sock, *replies)
                    replies = []
        except OSError:  # the peer is gone, or silent for IDLE_TIMEOUT seconds
            return
        finally:
            if not ending:
                self._free()
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
    """One RELAY_UP/RELAY_DOWN round trip; any other reply is a ProtocolError.

    CLOSE leaves with the request, so that the server's worker counts
    itself idle before it writes the reply and the next call finds it."""
    with socket.create_connection((host, port), timeout=IDLE_TIMEOUT) as sock:
        write_frame(sock, Frame(RELAY_UP, payload), Frame(CLOSE, b""))
        reply = read_frame(sock)
    if reply.type != RELAY_DOWN:
        raise ProtocolError(f"relay error: {reply.payload.decode('utf-8', 'replace')}")
    return reply.payload
