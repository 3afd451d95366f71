"""Web Proof prover and verifier.

The prover opens a notarized channel, speaks toy-TLS to the target
server through the content-oblivious notary, and assembles a WebProof:
the notary-signed session statement, the keys of the records it may
reveal, the tags of those it keeps secret, the response record lengths,
the response under a salted commitment disclosed in full, and the
claimed input. The request is not shipped. As DECO's verifier checks a
query against a public template, the verifier renders the request from
the inject template and the claimed input, with the secret spans
masked, and cuts it into records as the prover does
(``templates.match_request``). It hashes each public record under its
released key, and each response record likewise over the disclosed
response; a secret record's tag comes from the proof. It chains every
tag onto the session's record chain and, when the session closes,
requires the signed count and head. Acceptance means the claimed value
really crossed the notarized channel, in answer to the request the
template renders. The verifier never runs the cipher.

Soundness. A tag is ``H("VET/mac:" || key || plaintext)``, a salted
commitment that the released key opens, and the server refuses an up
record whose tag does not match what it decrypts; a secret record's key
is never released, so its tag hides it. The notary signs
``h_n = H("VET/rec:" || h_{n-1} || direction || length || tag)`` and
the count ``n`` (``vet.toytls``). The fields have fixed widths, so short
of a SHA-256 collision the head binds the order, direction, length and
tag of every record, and the signed count fixes their number: the
rebuilt chain reaches the signed head only if it is the session's
records, and each keyed tag then binds the bytes the server read or
sent. The verifier cuts the up records from the rendering itself, so
every public byte the server received is the rendered byte at its
position. A public record must have its key released and a secret one
must not, so only a record inside a secret span, whose bytes the
template leaves to the prover, takes its tag from the proof. Every
proof covers at least one up and one down record, so a session's
exchanges are its maximal runs of up records, each followed by its
maximal run of down records: the directions in the chain fix where one
proof's records end and the next one's begin, and the cut is unique.

The response ships under a salted commitment, one chunk per down
record, disclosed whole: ``vet.commitment.verify_disclosure`` refuses
any shape but the range ``[[0, total_length]]`` with one run of every
chunk, and returns the bytes. The commitment adds nothing to soundness, since nothing
signs its root; the down records' tags under their released keys bind
the response, as above. It stays only as the wire shape.

A notarized session carries any number of exchanges, as a kept-alive
TLS connection does, under one signed head. Each web proof covers one
exchange, and record indices in it count from the start of that
exchange. A bundle's verifier opens the statement once (signature,
domain) and chains each proof's records on in the order the trace
invokes the component, so a proof moved, swapped, dropped or added
changes the chain. A standalone proof is a session of one:
``authenticate`` without a session opens the statement, chains the
proof and closes it before it parses the response.

A standalone proof carries ``"format": "11"``, and ``WebProof.from_obj``
reads no other. Its request fields are fixed stubs that the benchmark
still reads, ``{"total_length": "<n>"}`` and ``{"chunks": []}``; its
``withheld_tags`` are the tags of its secret up records, in order, and
its ``down_lengths`` the length of each response record; its ``claims``
are exactly ``{"input": <string>}``, so each proof has one encoding. A
standalone proof's ``signed_statement`` is the statement itself. In a
bundle it is the statement's index in the bundle's sessions table, and
the proof carries no ``format``: the bundle's own covers it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from . import frames, toytls
from .canonical import (
    FORMAT,
    canonical_bytes,
    canonical_loads,
    check_format,
    json_field,
    parse_hex,
    parse_int,
)
from .chain import OpenChain
from .commitment import Disclosure, TranscriptCommitment, commit, disclose, verify_disclosure
from .errors import CapacityExceeded, ProtocolError, Rejected, ValidationError
from .frames import Frame
from .keys import verify_signature
from .notary import NotaryService
from .templates import (  # the roles are re-exported for callers of this module
    ROLE_CORE,
    ROLE_TOOL,
    AuthenticatedExchange,
    InjectTemplate,
    ParseTemplate,
    TemplateRegistry,
    match_request,
    parse_exchange,
)
from .toytls import SignedStatement  # re-exported for callers of this module


@dataclass(frozen=True)
class WebProof:
    statement: SignedStatement
    record_keys: dict[tuple[str, int], bytes]
    request_length: int
    withheld_tags: tuple[bytes, ...]  # of the secret up records, in order
    down_lengths: tuple[int, ...]
    response_commitment: TranscriptCommitment
    response_disclosure: Disclosure
    claims: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "format": FORMAT,
            **self.exchange_obj(),
            "signed_statement": self.statement.to_obj(),
        }

    def exchange_obj(self) -> dict:
        """The proof as a bundle holds it: without its statement, which the
        bundle holds once per session, or a format, which the bundle's covers."""
        return {
            "record_keys": [
                {"direction": d, "index": str(i), "key": k.hex()}
                for (d, i), k in sorted(self.record_keys.items())
            ],
            # Fixed stubs: the verifier renders the request, but the
            # benchmark still reads these two fields.
            "request_commitment": {"total_length": str(self.request_length)},
            "request_disclosure": {"chunks": []},
            "withheld_tags": [tag.hex() for tag in self.withheld_tags],
            "down_lengths": [str(n) for n in self.down_lengths],
            "response_commitment": self.response_commitment.to_obj(),
            "response_disclosure": self.response_disclosure.to_obj(),
            "claims": dict(self.claims),
        }

    @classmethod
    def from_obj(cls, obj: dict, statement: SignedStatement | None = None) -> "WebProof":
        """Decode a web proof; one of the wrong shape is a ValidationError.
        ``statement`` is the session's, for a proof read from a bundle;
        without it the proof stands alone, and must be of the current
        format."""

        def part(key, decode):
            return decode(json_field(obj, key, dict))

        if statement is None:
            check_format(obj, "web proof")
            statement = part("signed_statement", SignedStatement.from_obj)
        return cls(
            statement=statement,
            record_keys=_read_record_keys(json_field(obj, "record_keys", list)),
            request_length=_read_request_length(obj),
            withheld_tags=_read_tags(json_field(obj, "withheld_tags", list)),
            down_lengths=_read_down_lengths(json_field(obj, "down_lengths", list)),
            response_commitment=part("response_commitment", TranscriptCommitment.from_obj),
            response_disclosure=part("response_disclosure", Disclosure.from_obj),
            claims=part("claims", _read_claims),
        )


def _read_request_length(obj: dict) -> int:
    """The request length, from the two request stubs, which admit no other content."""
    stub = json_field(obj, "request_commitment", dict)
    disclosure = json_field(obj, "request_disclosure", dict)
    if set(stub) != {"total_length"} or disclosure != {"chunks": []}:
        raise ValidationError(
            'a web proof\'s request fields must be {"total_length": n} and {"chunks": []}'
        )
    return json_field(stub, "total_length", int)


def _read_tags(entries: list) -> tuple[bytes, ...]:
    tags = tuple(parse_hex(tag, "withheld_tags") for tag in entries)
    if any(len(tag) != toytls.TAG_LEN for tag in tags):
        raise ValidationError(f"a withheld tag must be {toytls.TAG_LEN} bytes")
    return tags


def _read_down_lengths(entries: list) -> tuple[int, ...]:
    lengths = tuple(parse_int(n, "down_lengths") for n in entries)
    if any(not 0 <= n <= toytls.RECORD_MAX for n in lengths):
        raise ValidationError(f"a down record length must lie in 0..{toytls.RECORD_MAX}")
    return lengths


def _read_claims(claims: dict) -> dict:
    if set(claims) != {"input"}:
        raise ValidationError('a web proof\'s claims must be exactly {"input": <string>}')
    json_field(claims, "input")
    return dict(claims)


def _read_record_keys(entries: list) -> dict[tuple[str, int], bytes]:
    """Keys by (direction, index), each naming a distinct up or down record,
    in the one order ``WebProof.exchange_obj`` writes: by direction, then
    index."""
    keys = {}
    for e in entries:
        direction, index = json_field(e, "direction"), json_field(e, "index", int)
        if direction not in ("up", "down") or index < 0 or keys and (
            (direction, index) <= next(reversed(keys))
        ):
            raise ValidationError(
                f"record key ({direction!r:.20}, {index}) is not a distinct up or down "
                "record in order by direction, then index"
            )
        keys[direction, index] = json_field(e, "key", bytes)
    return keys


def _open_frame(session_id: str, domain: str, cap_up: int, cap_down: int) -> Frame:
    return Frame(
        frames.OPEN,
        canonical_bytes(
            {
                "session_id": session_id,
                "domain": domain,
                "cap_up": str(cap_up),
                "cap_down": str(cap_down),
            }
        ),
    )


class ProvisionedChannel:
    """One notarized session against an in-process notary service.

    The TCP embodiment (`TCPChannel`) speaks the same frame sequence
    over a socket; this class drives the service objects directly, which
    is what the prover, tests, and benchmarks use by default.
    """

    def __init__(
        self,
        service: NotaryService,
        domain: str,
        cap_up: int,
        cap_down: int,
        session_id: str,
    ):
        self.session_id = session_id
        self._session, _ = service.open_session(_open_frame(session_id, domain, cap_up, cap_down))

    def exchange(self, *batch: Frame) -> list[Frame]:
        """The replies to each frame of ``batch`` in turn, up to an ABORT."""
        replies = []
        for frame in batch:
            replies += self._session.handle(frame)
            if replies and replies[-1].type == frames.ABORT:
                break
        return replies

    def close(self) -> None:
        self._session.handle(Frame(frames.CLOSE, b""))


# The reply that ends a frame's answer of more than one frame.
_LAST_REPLY = {frames.END_UP: frames.END_DOWN, frames.FIN: frames.POST_DOWN}


class TCPChannel:
    """Same protocol as ProvisionedChannel, over a real socket. Its OPEN
    leaves with its first batch, and the notary's reply to it is read
    ahead of that batch's replies."""

    def __init__(
        self,
        host: str,
        port: int,
        domain: str,
        cap_up: int,
        cap_down: int,
        session_id: str,
    ):
        import socket

        self.session_id = session_id
        self._sock = socket.create_connection((host, port), timeout=frames.IDLE_TIMEOUT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._received = frames.RecvBuffer(self._sock)
        self._opening: Frame | None = _open_frame(session_id, domain, cap_up, cap_down)
        self._open = False  # whether the notary holds a session for this channel

    def exchange(self, *batch: Frame) -> list[Frame]:
        """Send ``batch`` in one write, then read the replies to each frame
        in turn, up to an ABORT: none for a RELAY_UP, every frame up to
        END_DOWN for END_UP and up to POST_DOWN for FIN, else one frame.
        The first batch goes after OPEN; a refusal is a ProtocolError."""
        opening, self._opening = self._opening, None
        try:
            frames.write_frame(self._sock, *((opening, *batch) if opening else batch))
        except ConnectionError:  # the notary may have aborted mid-batch; read its ABORT
            pass
        if opening is not None:
            reply = frames.read_frame(self._received)
            if reply.type == frames.ABORT:
                raise ProtocolError(f"notary rejected session: {reply.payload.decode()}")
            self._open = True
        replies = []
        for frame in batch:
            if frame.type == frames.RELAY_UP:
                continue  # no reply but an ABORT, read with a later frame's replies
            last = _LAST_REPLY.get(frame.type)
            while True:
                replies.append(frames.read_frame(self._received))
                if replies[-1].type in frames.ENDING_REPLIES:
                    self._open = False
                if replies[-1].type == frames.ABORT:
                    return replies
                if last in (None, replies[-1].type):
                    break
        return replies

    def close(self) -> None:
        """Send CLOSE while the notary holds the session, and hang up. After
        POST_DOWN or an ABORT the notary has hung up already; a second
        close does nothing."""
        if self._open:
            self._open = False
            try:
                frames.write_frame(self._sock, Frame(frames.CLOSE, b""))
            except OSError:
                pass
        self._sock.close()


def provision_channel(
    service: NotaryService,
    domain: str,
    cap_up: int = frames.SESSION_CAP,
    cap_down: int = frames.SESSION_CAP,
    session_id: str | None = None,
    rng: random.Random | None = None,
) -> ProvisionedChannel:
    if session_id is None:
        rng = rng or random.Random()
        session_id = rng.randbytes(16).hex()
    return ProvisionedChannel(service, domain, cap_up, cap_down, session_id)


def _raise_on_abort(replies: list[Frame]) -> None:
    for reply in replies:
        if reply.type == frames.ABORT:
            reason = reply.payload.decode("utf-8", "replace")
            if "capacity" in reason:
                raise CapacityExceeded(reason)
            raise ProtocolError(f"session aborted: {reason}")


def _expect(replies: list[Frame], *wanted: int) -> list[Frame]:
    """``replies``, which must be frames of the types ``wanted``, in order."""
    _raise_on_abort(replies)
    if [r.type for r in replies] != list(wanted):
        raise ProtocolError(f"expected frames {wanted}, got {[r.type for r in replies]}")
    return replies


class _Sent(NamedTuple):
    """One exchange of an open session, as the prover sent and received it."""

    request_length: int
    secret: list[bool]  # per up record: does it lie inside a secret span
    up_keys: list[bytes]
    up_wires: list[bytes]
    down_wires: list[bytes]  # filled once the exchange held back is sent
    claims: dict


class NotarizedSession:
    """The prover's side of one notarized toy-TLS session.

    Opening it runs the handshake; ``send`` carries one request/response
    exchange onto ``chain``, whose byte sums count what was sent and
    received so far; ``finish`` sends FIN, takes the notary's statement
    over the record chain of every exchange and the down seed the server
    then releases, and returns each exchange's response and web proof,
    in order.

    ``send`` seals its request's records and holds them back, with END_UP,
    until the next ``send`` or ``finish``, which sends them first in its
    own batch: the last exchange leaves with FIN. So a session of one
    exchange over TCP takes two round trips, ``[OPEN, HS_UP]`` and
    ``[RELAY_UP..., END_UP, FIN]``, and a failure of an exchange, such as
    a response over the down capacity, is raised by the call that sends
    it. The held-back up records are on ``chain`` already. A ``RELAY_UP``
    gets no reply but an ABORT, so an exchange's replies begin with its
    response records.

    Protocol order matters: the notary signs the head of the record chain
    before the server releases the down-direction key seed, so nothing in
    the prover's pre-signature view determines a response plaintext. The
    seed comes sealed under the handshake key and the statement, and the
    server's fresh ephemeral key keeps the handshake key from a notary
    that relays the handshake as it is.
    Not from one that answers it itself: ``server_pub`` comes in the same
    unauthenticated hello as the signature checked under it, so nothing
    pins the server's key. The channel is closed when the
    session finishes, or when an exchange over it fails or aborts.
    """

    def __init__(self, channel, rng: random.Random):
        self.channel = channel
        self.rng = rng
        self._sent: list[_Sent] = []
        self._held: list[Frame] = []  # the last exchange's frames, not yet sent
        self.chain = toytls.RecordChain()  # of every record sent and received
        # Handshake: ephemeral X25519, server signs the transcript binding.
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        client_eph = toytls.pub_hex(eph)
        nonce = rng.randbytes(16).hex()
        hello = canonical_bytes({"client_eph": client_eph, "nonce": nonce})
        try:
            (reply,) = _expect(channel.exchange(Frame(frames.HS_UP, hello)), frames.HS_DOWN)
            server_hello = canonical_loads(reply.payload)
            server_pub = json_field(server_hello, "server_pub")
            server_eph = json_field(server_hello, "server_eph", bytes)
            if not verify_signature(
                server_pub,
                toytls.handshake_signature_message(
                    client_eph, server_eph.hex(), nonce, channel.session_id
                ),
                json_field(server_hello, "signature"),
            ):
                raise ProtocolError("server handshake signature invalid")
            shared = toytls.shared_secret(eph, server_eph)
        except BaseException:
            channel.close()
            raise
        self._up = toytls.RecordCipher("up", toytls.up_secret(shared))
        self._hk = toytls.handshake_key(shared, bytes.fromhex(nonce))

    def send(
        self, request_bytes: bytes, secret_spans: list[tuple[int, int]], claims: dict
    ) -> None:
        """Send the exchange held back, then seal a request as records split
        at secret-span boundaries and hold them back with END_UP; the
        response records stay sealed until ``finish``. ``claims`` must be
        exactly ``{"input": x}``, with ``x`` the input the request renders."""
        claims = _read_claims(claims)
        if not request_bytes:
            raise ValidationError("a request must carry at least one byte")
        records = toytls.split_records(len(request_bytes), secret_spans)
        if self._held:
            try:
                self._flush()
            except BaseException:
                self.channel.close()
                raise
        first = sum(len(sent.up_wires) for sent in self._sent)
        indices = range(first, first + len(records))
        up_keys = [self._up.key(i) for i in indices]
        up_wires = [
            toytls.seal_record(self._up, request_bytes[offset:offset + length], i, key)
            for i, key, (offset, length, _) in zip(indices, up_keys, records)
        ]
        for wire in up_wires:
            self.chain.add("up", wire)
        secret = [flag for *_, flag in records]  # as the verifier's cut flags them
        self._sent.append(_Sent(len(request_bytes), secret, up_keys, up_wires, [], claims))
        self._held = [Frame(frames.RELAY_UP, wire) for wire in up_wires]
        self._held.append(Frame(frames.END_UP, b""))

    def _flush(self, *more: Frame) -> list[Frame]:
        """Send the held-back exchange and ``more`` in one batch, take the
        exchange's response records, and return the replies to ``more``."""
        held, self._held = self._held, []
        replies = self.channel.exchange(*held, *more)
        _raise_on_abort(replies)
        if not held:
            return replies
        end = next((i for i, r in enumerate(replies) if r.type != frames.RELAY_DOWN), len(replies))
        if end == len(replies) or replies[end].type != frames.END_DOWN:
            raise ProtocolError("response did not terminate with END_DOWN")
        for reply in replies[:end]:
            self.chain.add("down", reply.payload)
            self._sent[-1].down_wires.append(reply.payload)
        return replies[end + 1:]

    def finish(self) -> list[tuple[bytes, WebProof]]:
        """FIN, after the exchange held back: the notary signs the chain, and
        the server then releases the seed, sealed under the handshake key
        and the statement it checked; the session is over.

        The prover checks the statement's session id, count and head
        against its own chain, and runs no signature check. The server
        seals the seed under ``release_key(hk, statement)`` only after it
        has checked the statement's signature under a notary key it trusts
        and its chain against the server's own. Only prover and server
        hold ``hk``, so a seed that opens under the statement the prover
        holds means the server accepted those very bytes; a statement
        changed or re-signed on its way to the prover opens nothing. A
        prover that checked the signature itself could only use the key
        the notary announced for itself. What the prover no longer learns
        is that the signer is that announced key; the verifier checks the
        signature under the AID's notary key in any case."""
        try:
            statement, released = _expect(
                self._flush(Frame(frames.FIN, b"")), frames.STATEMENT, frames.POST_DOWN
            )
            signed = SignedStatement.from_obj(canonical_loads(statement.payload))
            signed.check_chain(self.channel.session_id, self.chain)
            try:
                seed = toytls.open_seed(self._hk, statement.payload, released.payload)
            except ProtocolError as exc:
                raise ProtocolError(f"seed release refused for this statement: {exc}") from None
        finally:
            self.channel.close()
        down = toytls.RecordCipher("down", seed)
        out = []
        first = 0
        for sent in self._sent:
            out.append(self._prove(signed, sent, down, first))
            first += len(sent.down_wires)
        return out

    def _prove(
        self, signed: SignedStatement, sent: _Sent, down: toytls.RecordCipher, first: int
    ) -> tuple[bytes, WebProof]:
        """One exchange's response, its down records opened from index
        ``first`` on, and its proof; record indices in the proof count from
        the exchange's start. The request is neither committed to nor
        disclosed: the verifier renders it, so the proof releases the keys
        of the records outside every secret span and the tags of those
        inside."""
        indices = range(first, first + len(sent.down_wires))
        down_keys = [down.key(i) for i in indices]
        records = [
            toytls.open_record(down, wire, i, key)
            for i, key, wire in zip(indices, down_keys, sent.down_wires)
        ]
        response_bytes = b"".join(records)

        # Commit one chunk per record (an empty response is one empty record,
        # and a chunk is never empty), and disclose it all.
        commitment, opening = commit(
            response_bytes, [len(record) for record in records if record], self.rng
        )
        record_keys = {
            ("up", i): key for i, key in enumerate(sent.up_keys) if not sent.secret[i]
        }
        record_keys.update((("down", i), key) for i, key in enumerate(down_keys))

        proof = WebProof(
            statement=signed,
            record_keys=record_keys,
            request_length=sent.request_length,
            withheld_tags=tuple(
                wire[-toytls.TAG_LEN:] for wire, hidden in zip(sent.up_wires, sent.secret) if hidden
            ),
            down_lengths=tuple(len(record) for record in records),
            response_commitment=commitment,
            response_disclosure=disclose(opening),
            claims=sent.claims,
        )
        return response_bytes, proof


def run_session(
    channel,
    request_bytes: bytes,
    secret_spans: list[tuple[int, int]] | None = None,
    rng: random.Random | None = None,
    *,
    claims: dict,
) -> tuple[bytes, WebProof]:
    """Drive a notarized session of one exchange and assemble its proof;
    ``claims`` is ``{"input": x}``, with ``x`` the input the request renders."""
    session = NotarizedSession(channel, rng or random.Random())
    session.send(request_bytes, secret_spans or [], claims)
    ((response_bytes, proof),) = session.finish()
    return response_bytes, proof


def _bind(session: OpenChain, notary_public_key: str, server_domain: str) -> None:
    """Rejected unless a component of this notary key and domain may use the session."""
    if notary_public_key != session.key:
        raise Rejected("bad-signature", "statement not signed by the declared notary")
    if session.signed.server_domain != server_domain:
        raise Rejected(
            "wrong-domain",
            f"statement attests {session.signed.server_domain!r}, "
            f"component endpoint is {server_domain!r}",
        )


def open_statement(
    statement: SignedStatement, notary_public_key: str, server_domain: str
) -> OpenChain:
    """Check a statement's signature, once, and open the record chain it
    signs."""
    if not statement.verify(notary_public_key):
        raise Rejected("bad-signature", "statement not signed by the declared notary")
    session = OpenChain(statement, notary_public_key, "cipher-mismatch")
    _bind(session, notary_public_key, server_domain)
    return session


def _check_records(
    lengths: tuple[int, ...] | list[int],
    record_keys: dict[tuple[str, int], bytes],
    direction: str,
    data: bytes,
    reason: str,
    secret: frozenset[int] = frozenset(),
    withheld: tuple[bytes, ...] = (),
) -> list[bytes]:
    """The tag of each of one direction's records of an exchange, in order.

    The records, of ``lengths`` bytes, must carry exactly ``data``. A
    record whose index is in ``secret`` must have no released key, and
    its tag is the next of ``withheld``, which holds one per secret
    record. Every other record must have a key, and its tag is the hash
    under it of its bytes of ``data``. A violation is ``reason``; a key
    for a record past the exchange is a cipher-mismatch.
    """
    if sum(lengths) != len(data):
        raise Rejected(
            reason, f"{direction} records carry {sum(lengths)} bytes, the proof {len(data)}"
        )
    if len(withheld) != len(secret):
        raise Rejected(
            reason, f"the proof withholds {len(withheld)} tags for {len(secret)} secret records"
        )
    withheld_tags = iter(withheld)
    tags = []
    end = 0
    for index, length in enumerate(lengths):
        offset, end = end, end + length
        key = record_keys.get((direction, index))
        if index in secret:
            if key is not None:
                raise Rejected(reason, f"{direction} record {index} is secret but has a key")
            tags.append(next(withheld_tags))
        elif key is None:
            raise Rejected(reason, f"{direction} record {index} has no key")
        else:
            tags.append(toytls.record_tag(key, data[offset:end]))
    for (d, index) in record_keys:
        if d == direction and index >= len(lengths):
            raise Rejected(
                "cipher-mismatch", f"key for nonexistent {direction} record {index}"
            )
    return tags


def _take_exchange(
    proof: WebProof, inject_template: InjectTemplate, session: OpenChain
) -> tuple[str, bytes, tuple[int, int]]:
    """Chain one proof's records onto ``session``: the up records of the
    request rendered for the claimed input, then the down records of the
    disclosed response. The bytes chained each way may not exceed the
    signed capacity. Returns the input, the response and the (public,
    secret) bytes of the rendering."""
    response_bytes = verify_disclosure(proof.response_commitment, proof.response_disclosure)
    x = proof.claims.get("input")
    if not isinstance(x, str):
        raise Rejected("template-mismatch", "proof does not claim an input value")
    rendered, up_lengths, secret = match_request(inject_template, x, proof.request_length)
    if not up_lengths or not proof.down_lengths:
        raise Rejected("cipher-mismatch", "a proof must cover an up and a down record")
    up_tags = _check_records(
        up_lengths, proof.record_keys, "up", rendered, "template-mismatch", secret,
        proof.withheld_tags,
    )
    down_tags = _check_records(
        proof.down_lengths, proof.record_keys, "down", response_bytes, "cipher-mismatch"
    )
    for direction, lengths, tags, capacity in zip(
        ("up", "down"), (up_lengths, proof.down_lengths), (up_tags, down_tags),
        session.signed.capacity,
    ):
        for length, tag in zip(lengths, tags):
            session.take(direction, length, tag)
            if session.chain.used[direction] > capacity:
                raise Rejected(
                    "cipher-mismatch",
                    f"the proofs carry more {direction} bytes than the signed {capacity}",
                )
    redacted = sum(up_lengths[index] for index in secret)
    return x, response_bytes, (len(rendered) - redacted, redacted)


def authenticate(
    proof: WebProof,
    notary_public_key: str,
    server_domain: str,
    inject_template: InjectTemplate,
    parse_template: ParseTemplate,
    role: str,
    session: OpenChain | None = None,
) -> AuthenticatedExchange:
    """Steps 1 and 2 of the verifier: channel binding, then templates.

    ``session`` is the proof's statement opened once for a bundle, and
    the proof's records are chained onto it as its next exchange; the
    bundle closes it. Without it the proof is a session of one, opened
    here and closed before the response is parsed.
    """
    alone = session is None
    if alone:
        session = open_statement(proof.statement, notary_public_key, server_domain)
    else:
        _bind(session, notary_public_key, server_domain)
    x, response_bytes, request_disclosed = _take_exchange(proof, inject_template, session)
    if alone:
        session.close()
    return AuthenticatedExchange(
        x,
        *parse_exchange(parse_template, response_bytes, role),
        request_disclosed=request_disclosed,
    )


def _authenticate_entry(
    proof: WebProof,
    entry,
    registry: TemplateRegistry,
    role: str,
    session: OpenChain | None = None,
) -> AuthenticatedExchange:
    """``authenticate`` against the notary key, endpoint host and
    templates that an AID entry declares."""
    return authenticate(
        proof,
        notary_public_key=entry.verification.key_string(),
        server_domain=entry.host,
        inject_template=registry.get_inject(entry.injection_algorithm_uid),
        parse_template=registry.get_parse(entry.parsing_algorithm_uid),
        role=role,
        session=session,
    )


def open_session(signed: dict, entry) -> OpenChain:
    """Open a bundle's signed statement for the components of ``entry``'s
    notary and host: the signature is checked here, once."""
    statement = SignedStatement.from_obj(signed)
    return open_statement(statement, entry.verification.key_string(), entry.host)


def verify_exchange(
    payload: dict, entry, registry: TemplateRegistry, role: str, session: OpenChain
) -> AuthenticatedExchange:
    """The TLSNotary verifier of a bundle's proof: the next exchange of ``session``."""
    proof = WebProof.from_obj(payload, statement=session.signed)
    return _authenticate_entry(proof, entry, registry, role, session)


def verify_webproof(
    m: str,
    proof: WebProof,
    entry,
    role: str,
    registry: TemplateRegistry,
) -> str:
    """The full three-step verifier for one component call.

    Returns the authenticated value on acceptance; raises Rejected with
    an enumerated reason otherwise. ``entry`` is the AID ComponentEntry
    whose scheme must be TLSNotary.
    """
    exchange = _authenticate_entry(proof, entry, registry, role)
    # Step 3: the claimed message is the authenticated value.
    if m != exchange.value:
        raise Rejected(
            "value-mismatch",
            f"claimed {m!r}, authenticated value is {exchange.value!r}",
        )
    return exchange.value


class WebProofProver:
    """Prover-side binding of templates to sessions for one component."""

    def __init__(
        self,
        service: NotaryService,
        registry: TemplateRegistry,
        secrets: dict[str, str] | None = None,
        cap_up: int = frames.SESSION_CAP,
        cap_down: int = frames.SESSION_CAP,
        rng: random.Random | None = None,
    ):
        self.service = service
        self.registry = registry
        self.secrets = dict(secrets or {})
        self.cap_up = cap_up
        self.cap_down = cap_down
        self.rng = rng or random.Random()

    def call(self, entry, x: str, role: str) -> tuple[AuthenticatedExchange, WebProof]:
        """Render, run a notarized session of one exchange, parse, and package the proof."""
        request_bytes, spans = self.registry.render_call(entry, x, self.secrets)
        session = self.new_session(entry.host)
        session.send(request_bytes, spans, {"input": x})
        ((response_bytes, proof),) = session.finish()
        return self.registry.read_call(entry, x, response_bytes, role), proof

    def new_session(self, host: str) -> NotarizedSession:
        """A notarized session with ``host``, over a freshly provisioned channel."""
        channel = provision_channel(self.service, host, self.cap_up, self.cap_down, rng=self.rng)
        return NotarizedSession(channel, self.rng)


class NotarizedRun:
    """A prover's exchanges with one host, over as few sessions as hold them.

    ``add`` sends each rendered request in the open session. Before a
    request that would overflow the session's remaining up capacity, the
    session is finished and a fresh one opened. A response that
    overflows the down capacity makes the notary abort the session; the
    exchanges it carried before the overflowing one are then replayed in
    a fresh session, which is finished, and the overflowing one is sent
    in a session of its own. An exchange that does not fit even a fresh
    session raises ``CapacityExceeded``. Replays need components that
    answer a request the same way again, as ``composer.prove_trace``
    already does.

    A session holds each exchange back until the next one or FIN (see
    ``NotarizedSession``), so the exchange that overflowed is always the
    last one the session carried.
    """

    def __init__(self, prover: WebProofProver, host: str):
        self.prover = prover
        self.host = host
        self._finished: list[list[tuple[bytes, WebProof]]] = []
        self._session: NotarizedSession | None = None
        self._carried: list[tuple] = []  # what the open session has sent or holds

    def add(self, request_bytes: bytes, secret_spans: list[tuple[int, int]], x: str) -> None:
        """Send the request rendered for input ``x``, with its secret spans."""
        self._send((request_bytes, secret_spans, {"input": x}))

    def _send(self, exchange: tuple) -> None:
        while True:
            session = self._session
            if session and session.chain.used["up"] + len(exchange[0]) > self.prover.cap_up:
                self._finish_session()
            if self._session is None:
                self._session = self.prover.new_session(self.host)
            try:
                self._session.send(*exchange)
                break
            except CapacityExceeded as exc:
                self._replay(exc)
        self._carried.append(exchange)

    def _finish_session(self) -> None:
        while True:
            try:
                self._finished.append(self._session.finish())
                break
            except CapacityExceeded as exc:
                self._replay(exc)
        self._session, self._carried = None, []

    def _replay(self, exc: CapacityExceeded) -> None:
        """The open session aborted on the last exchange it carried: replay
        the ones before it in a fresh session and finish that, then open a
        session holding the overflowing one alone. If none came before,
        the exchange fits no session: raise ``exc``."""
        *earlier, overflowed = self._carried
        self._session, self._carried = None, []
        if not earlier:
            raise exc
        for exchange in earlier:
            self._send(exchange)
        self._finish_session()
        self._send(overflowed)

    def finish(self) -> list[tuple[dict, list[tuple[bytes, dict]]]]:
        """Finish the open session; per session, its signed statement and
        each exchange's response and proof, as a bundle holds them."""
        if self._session is not None:
            self._finish_session()
        return [
            (proven[0][1].statement.to_obj(), [(r, proof.exchange_obj()) for r, proof in proven])
            for proven in self._finished
        ]
