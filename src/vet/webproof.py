"""Web Proof prover and verifier.

The prover opens a notarized channel, speaks toy-TLS to the target
server through the content-oblivious notary, and assembles a WebProof:
the notary-signed session statement, salted commitments to the request
and response, a selective disclosure (secrets redacted), and the
per-record keys for every disclosed record. The verifier hashes each
disclosed record under its released key and compares the result with
the record tag the notary signed, then re-renders the request template
and re-parses the response. Acceptance means the claimed value really
crossed the notarized channel.

A signed tag is ``H("VET/mac:" || key || plaintext)``, so it is already
a per-record salted commitment that the released key opens. Binding
rests on SHA-256 collision resistance: the plaintext length is signed,
so a released key and disclosed bytes that hash to the signed tag but
differ from the sealed ones are a collision, whatever the key's length.
A secret record's key is never released, and its tag, salted with that
256-bit key, hides it. The down seed is released only after the tags
are signed, and the server refuses an up record whose tag does not
match what it decrypts (``vet.toytls``). The verifier never runs the
cipher.

The prover commits to the request and to the response in chunks of
variable length, one chunk per toy-TLS record: the request records are
cut at every secret-span edge and at ``toytls.RECORD_MAX``, and the
response chunks are the opened down records. A 48 KiB exchange thus has
about ten leaves and salts. An honest prover's chunk lengths are the
record lengths the notary signed, so listing them reveals nothing the
statement does not, and the secret spans are whole chunks that no run
reveals. A disclosure has one entry per run of revealed chunks, carrying
the leaf hashes of the hidden chunks; ``vet.commitment`` describes it and
argues its soundness, including why the root binds the chunk lengths.
The verifier reads disclosed bytes only through that check, then binds
them to the signed chain by the record tags, which does not depend on
where the chunks were cut.

A notarized session carries any number of exchanges, as a kept-alive
TLS connection does, and the notary signs one statement over the record
chain of them all. An exchange is a maximal run of up records followed
by a maximal run of down records, so its boundaries come from the
directions the notary signed, not from anything the prover ships; a
chain that is not a sequence of such pairs is rejected. Each web proof
in a session covers one exchange, and record indices in it count from
the start of that exchange. A bundle's verifier opens the statement
once (signature, domain, capacity) and hands out its exchanges in the
order the trace invokes the component, so a proof moved to another step
or swapped with another is checked against the wrong records. At the
end every exchange must have been consumed: a session holding an
exchange that no proof accounts for is rejected. A standalone proof is
the one-exchange case of the same code.

A serialized proof carries ``"format": "7"``, and ``WebProof.from_obj``
reads no other. In a bundle its ``signed_statement`` is the index of the
statement in the bundle's sessions table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from . import frames, toytls
from .canonical import FORMAT, canonical_bytes, canonical_loads, check_format, json_field
from .commitment import (
    Disclosure,
    TranscriptCommitment,
    commit,
    disclose,
    disclosed_bytes,
    normalize_ranges,
)
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
    render,
)
from .toytls import RecordInfo, SignedStatement  # re-exported for callers of this module


@dataclass(frozen=True)
class WebProof:
    statement: SignedStatement
    record_keys: dict[tuple[str, int], bytes]
    request_commitment: TranscriptCommitment
    request_disclosure: Disclosure
    response_commitment: TranscriptCommitment
    response_disclosure: Disclosure
    claims: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            **self.exchange_obj(),
            "signed_statement": self.statement.to_obj(),
        }

    def exchange_obj(self) -> dict:
        """The proof without its statement, which a bundle holds once per session."""
        return {
            "format": FORMAT,
            "record_keys": [
                {"direction": d, "index": str(i), "key": k.hex()}
                for (d, i), k in sorted(self.record_keys.items())
            ],
            "request_commitment": self.request_commitment.to_obj(),
            "request_disclosure": self.request_disclosure.to_obj(),
            "response_commitment": self.response_commitment.to_obj(),
            "response_disclosure": self.response_disclosure.to_obj(),
            "claims": dict(self.claims),
        }

    @classmethod
    def from_obj(cls, obj: dict, statement: SignedStatement | None = None) -> "WebProof":
        """Decode a web proof of the current format; a proof of another
        format or of the wrong shape is a ValidationError. ``statement``
        is the session's, for a proof read from a bundle."""
        check_format(obj, "web proof")

        def part(key, decode):
            return decode(json_field(obj, key, dict))

        return cls(
            statement=statement or part("signed_statement", SignedStatement.from_obj),
            record_keys=_read_record_keys(json_field(obj, "record_keys", list)),
            request_commitment=part("request_commitment", TranscriptCommitment.from_obj),
            request_disclosure=part("request_disclosure", Disclosure.from_obj),
            response_commitment=part("response_commitment", TranscriptCommitment.from_obj),
            response_disclosure=part("response_disclosure", Disclosure.from_obj),
            claims=dict(json_field(obj, "claims", dict, {})),
        )


def _read_record_keys(entries: list) -> dict[tuple[str, int], bytes]:
    """Keys by (direction, index), each naming a distinct up or down record."""
    keys = {}
    for e in entries:
        direction, index = json_field(e, "direction"), json_field(e, "index", int)
        if direction not in ("up", "down") or index < 0 or (direction, index) in keys:
            raise ValidationError(
                f"record key ({direction!r:.20}, {index}) is not a distinct up or down record"
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
        self._session, ok = service.open_session(
            _open_frame(session_id, domain, cap_up, cap_down)
        )
        self.notary_public_key = json_field(canonical_loads(ok.payload), "notary_public_key")

    def exchange(self, frame: Frame) -> list[Frame]:
        return self._session.handle(frame)

    def close(self) -> None:
        self._session.handle(Frame(frames.CLOSE, b""))


class TCPChannel:
    """Same protocol as ProvisionedChannel, over a real socket."""

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
        frames.write_frame(self._sock, _open_frame(session_id, domain, cap_up, cap_down))
        reply = frames.read_frame(self._sock)
        if reply.type == frames.ABORT:
            raise ProtocolError(f"notary rejected session: {reply.payload.decode()}")
        self.notary_public_key = json_field(canonical_loads(reply.payload), "notary_public_key")

    def exchange(self, frame: Frame) -> list[Frame]:
        frames.write_frame(self._sock, frame)
        replies = []
        if frame.type == frames.END_UP:
            while True:
                reply = frames.read_frame(self._sock)
                replies.append(reply)
                if reply.type in (frames.END_DOWN, frames.ABORT):
                    break
        else:
            replies.append(frames.read_frame(self._sock))
        return replies

    def close(self) -> None:
        frames.write_frame(self._sock, Frame(frames.CLOSE, b""))
        self._sock.close()


def provision_channel(
    service: NotaryService,
    domain: str,
    cap_up: int = 1 << 16,
    cap_down: int = 1 << 16,
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


def _expect(replies: list[Frame], wanted: int) -> Frame:
    _raise_on_abort(replies)
    if len(replies) != 1 or replies[0].type != wanted:
        raise ProtocolError(f"expected frame {wanted:#x}, got {[r.type for r in replies]}")
    return replies[0]


class _Sent(NamedTuple):
    """One exchange of an open session, as the prover sent and received it."""

    request: bytes
    secret_spans: list[tuple[int, int]]
    record_spans: list[tuple[int, int]]
    up_keys: list[bytes]
    up_wires: list[bytes]
    down_wires: list[bytes]
    claims: dict


class NotarizedSession:
    """The prover's side of one notarized toy-TLS session.

    Opening it runs the handshake; ``send`` carries one request/response
    exchange, and ``up_used`` counts the request bytes sent so far;
    ``finish`` has the notary sign the record chain of every exchange,
    takes the down seed the server then releases, and returns each
    exchange's response and web proof, in order.

    Protocol order matters: the notary signs the chain of record tags before
    the server releases the down-direction key seed, so nothing in the
    prover's pre-signature view determines a response plaintext.
    """

    def __init__(self, channel, rng: random.Random):
        self.channel = channel
        self.rng = rng
        self.up_used = 0
        self._sent: list[_Sent] = []
        # Handshake: ephemeral X25519, server signs the transcript binding.
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        client_eph = toytls.pub_hex(eph)
        nonce = rng.randbytes(16).hex()
        hello = canonical_bytes({"client_eph": client_eph, "nonce": nonce})
        reply = _expect(channel.exchange(Frame(frames.HS_UP, hello)), frames.HS_DOWN)
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
            channel.close()
            raise ProtocolError("server handshake signature invalid")
        shared = toytls.shared_secret(eph, server_eph)
        self._up_secret = toytls.up_secret(shared)
        self._hk = toytls.handshake_key(shared, bytes.fromhex(nonce))

    def send(
        self,
        request_bytes: bytes,
        secret_spans: list[tuple[int, int]] | None = None,
        claims: dict | None = None,
    ) -> None:
        """Send a request as records split at secret-span boundaries, and
        take the response records; they stay sealed until ``finish``."""
        secret_spans = normalize_ranges(secret_spans or [], len(request_bytes))
        record_spans = toytls.split_records(len(request_bytes), secret_spans)
        first = sum(len(sent.up_wires) for sent in self._sent)
        up_keys = []
        up_wires = []
        for i, (offset, length) in enumerate(record_spans):
            key = toytls.derive_record_key("up", self._up_secret, first + i)
            wire = toytls.seal_record(key, request_bytes[offset:offset + length])
            up_keys.append(key)
            up_wires.append(wire)
            _expect(self.channel.exchange(Frame(frames.RELAY_UP, wire)), frames.ACK)
        replies = self.channel.exchange(Frame(frames.END_UP, b""))
        _raise_on_abort(replies)
        if not replies or replies[-1].type != frames.END_DOWN:
            raise ProtocolError("response did not terminate with END_DOWN")
        down_wires = [r.payload for r in replies if r.type == frames.RELAY_DOWN]
        self.up_used += len(request_bytes)
        self._sent.append(
            _Sent(
                request_bytes, secret_spans, record_spans, up_keys, up_wires, down_wires,
                dict(claims or {}),
            )
        )

    def finish(self) -> list[tuple[bytes, WebProof]]:
        # The notary signs the chain; only then does the server release the seed.
        statement_frame = _expect(self.channel.exchange(Frame(frames.FIN, b"")), frames.STATEMENT)
        signed = SignedStatement.from_obj(canonical_loads(statement_frame.payload))
        on_wire = [
            (direction, toytls.record_hash(w), len(w) - toytls.TAG_LEN)
            for sent in self._sent
            for direction, wires in (("up", sent.up_wires), ("down", sent.down_wires))
            for w in wires
        ]
        signed.check_session([self.channel.notary_public_key], self.channel.session_id, on_wire)
        release_request = toytls.seal_record(
            toytls.post_key(self._hk, "up"), statement_frame.payload
        )
        post = _expect(
            self.channel.exchange(Frame(frames.POST_UP, release_request)), frames.POST_DOWN
        )
        seed = toytls.open_record(toytls.post_key(self._hk, "down"), post.payload)
        self.channel.close()
        out = []
        first = 0
        for sent in self._sent:
            down_keys = [
                toytls.derive_record_key("down", seed, first + i)
                for i in range(len(sent.down_wires))
            ]
            out.append(self._prove(signed, sent, down_keys))
            first += len(down_keys)
        return out

    def _prove(
        self, signed: SignedStatement, sent: _Sent, down_keys: list[bytes]
    ) -> tuple[bytes, WebProof]:
        """One exchange's response and proof; record indices count from its start."""
        records = [
            toytls.open_record(key, wire) for key, wire in zip(down_keys, sent.down_wires)
        ]
        response_bytes = b"".join(records)

        # Commit one chunk per record (an empty response is one empty record,
        # and a chunk is never empty), then disclose all but the secret spans.
        request_bytes, secret_spans = sent.request, sent.secret_spans
        req_commitment, req_opening = commit(
            request_bytes, [length for _, length in sent.record_spans], self.rng
        )
        res_commitment, res_opening = commit(
            response_bytes, [len(record) for record in records if record], self.rng
        )
        req_disclosure = disclose(req_opening, _complement(secret_spans, len(request_bytes)))
        res_disclosure = disclose(res_opening, [(0, len(response_bytes))])

        record_keys: dict[tuple[str, int], bytes] = {}
        for i, (offset, length) in enumerate(sent.record_spans):
            if not _overlaps_secret(offset, length, secret_spans):
                record_keys[("up", i)] = sent.up_keys[i]
        for i, key in enumerate(down_keys):
            record_keys[("down", i)] = key

        proof = WebProof(
            statement=signed,
            record_keys=record_keys,
            request_commitment=req_commitment,
            request_disclosure=req_disclosure,
            response_commitment=res_commitment,
            response_disclosure=res_disclosure,
            claims=sent.claims,
        )
        return response_bytes, proof


def run_session(
    channel,
    request_bytes: bytes,
    secret_spans: list[tuple[int, int]] | None = None,
    rng: random.Random | None = None,
    claims: dict | None = None,
) -> tuple[bytes, WebProof]:
    """Drive a notarized session of one exchange and assemble its proof."""
    session = NotarizedSession(channel, rng or random.Random())
    session.send(request_bytes, secret_spans, claims)
    ((response_bytes, proof),) = session.finish()
    return response_bytes, proof


def _complement(spans: list[tuple[int, int]], total: int) -> list[tuple[int, int]]:
    out = []
    pos = 0
    for offset, length in spans:
        if offset > pos:
            out.append((pos, offset - pos))
        pos = offset + length
    if pos < total:
        out.append((pos, total - pos))
    return out


def _overlaps_secret(offset: int, length: int, spans: list[tuple[int, int]]) -> bool:
    return any(offset < s + n and s < offset + length for s, n in spans)


def exchanges_of(records: tuple[RecordInfo, ...]) -> list[tuple[tuple[RecordInfo, ...], ...]]:
    """A signed chain cut into exchanges: (up records, down records) for
    each maximal up run and the maximal down run after it. A chain of
    any other shape is a cipher-mismatch."""
    out = []
    i = 0
    while i < len(records):
        j = i
        while j < len(records) and records[j].direction == "up":
            j += 1
        k = j
        while k < len(records) and records[k].direction == "down":
            k += 1
        if i == j or j == k:
            raise Rejected(
                "cipher-mismatch",
                f"signed records from {i} on do not form a request/response exchange",
            )
        out.append((records[i:j], records[j:k]))
        i = k
    return out


class OpenStatement:
    """A signed statement checked once, and the exchanges it holds.

    ``take`` hands the exchanges out in chain order; ``close`` requires
    that every one was taken, so no signed exchange goes unaccounted.
    """

    def __init__(self, statement: SignedStatement, notary_public_key: str, server_domain: str):
        if not statement.verify(notary_public_key):
            raise Rejected("bad-signature", "statement not signed by the declared notary")
        self.statement = statement
        self.notary_public_key = notary_public_key
        self.bind(notary_public_key, server_domain)
        cap_up, cap_down = statement.capacity
        records = statement.records
        if sum(r.length for r in records if r.direction == "up") > cap_up:
            raise Rejected("bad-signature", "statement chain exceeds its own up capacity")
        if sum(r.length for r in records if r.direction == "down") > cap_down:
            raise Rejected("bad-signature", "statement chain exceeds its own down capacity")
        self.exchanges = exchanges_of(records)
        self.taken = 0

    def bind(self, notary_public_key: str, server_domain: str) -> None:
        """Rejected unless a component of this notary key and domain may use the statement."""
        if notary_public_key != self.notary_public_key:
            raise Rejected("bad-signature", "statement not signed by the declared notary")
        if self.statement.server_domain != server_domain:
            raise Rejected(
                "wrong-domain",
                f"statement attests {self.statement.server_domain!r}, "
                f"component endpoint is {server_domain!r}",
            )

    def take(self) -> tuple[tuple[RecordInfo, ...], ...]:
        if self.taken == len(self.exchanges):
            raise Rejected(
                "cipher-mismatch",
                f"the statement holds {len(self.exchanges)} exchanges, and more proofs name it",
            )
        self.taken += 1
        return self.exchanges[self.taken - 1]

    def close(self) -> None:
        if self.taken != len(self.exchanges):
            raise Rejected(
                "cipher-mismatch",
                f"the statement holds {len(self.exchanges)} exchanges, {self.taken} were proven",
            )


def _check_records(
    records: tuple[RecordInfo, ...],
    record_keys: dict[tuple[str, int], bytes],
    direction: str,
    commitment: TranscriptCommitment,
    disclosed: dict[int, bytes],
) -> None:
    """Bind disclosed plaintext to one direction's signed records of an exchange.

    Every disclosed byte must fall in a record whose key was released,
    and every keyed record must be fully disclosed and hash, under its
    key, to the tag the notary signed. Bytes in unkeyed records stay unauthenticated
    and must not be disclosed at all.
    """
    total = sum(record.length for record in records)
    if total != commitment.total_length:
        raise Rejected(
            "cipher-mismatch",
            f"{direction} chain carries {total} bytes but commitment "
            f"covers {commitment.total_length}",
        )
    stream, seen = _overlay(disclosed, total)
    end = 0
    for index, record in enumerate(records):
        offset, end = end, end + record.length
        key = record_keys.get((direction, index))
        if key is None:
            if seen.find(1, offset, end) >= 0:
                raise Rejected(
                    "cipher-mismatch",
                    f"{direction} record {index} disclosed without a key",
                )
            continue
        if seen.find(0, offset, end) >= 0:
            raise Rejected(
                "cipher-mismatch",
                f"{direction} record {index} has a key but partial disclosure",
            )
        if toytls.record_tag(key, bytes(stream[offset:end])).hex() != record.hash:
            raise Rejected(
                "cipher-mismatch",
                f"{direction} record {index} does not match its signed tag",
            )
    for (d, index) in record_keys:
        if d == direction and index >= len(records):
            raise Rejected(
                "cipher-mismatch", f"key for nonexistent {direction} record {index}"
            )


def authenticate(
    proof: WebProof,
    notary_public_key: str,
    server_domain: str,
    inject_template: InjectTemplate,
    parse_template: ParseTemplate,
    role: str,
    session: OpenStatement | None = None,
) -> AuthenticatedExchange:
    """Steps 1 and 2 of the verifier: channel binding, then templates.

    ``session`` is the proof's statement opened once for a bundle, and
    the proof covers its next exchange. Without it the proof stands
    alone, and its statement must hold exactly one exchange.
    """
    # Step 1: the signed statement and the record tags.
    alone = session is None
    if alone:
        session = OpenStatement(proof.statement, notary_public_key, server_domain)
    else:
        session.bind(notary_public_key, server_domain)
    up, down = session.take()
    if alone:
        session.close()
    req_map = disclosed_bytes(proof.request_commitment, proof.request_disclosure)
    res_map = disclosed_bytes(proof.response_commitment, proof.response_disclosure)
    _check_records(up, proof.record_keys, "up", proof.request_commitment, req_map)
    _check_records(down, proof.record_keys, "down", proof.response_commitment, res_map)

    # Step 2: the disclosed request must be the template rendering of the
    # claimed input, and the response must parse under the parse template.
    x = proof.claims.get("input")
    if not isinstance(x, str):
        raise Rejected("template-mismatch", "proof does not claim an input value")
    match_request(inject_template, x, proof.request_commitment.total_length, req_map)

    response_bytes = _assemble(res_map, proof.response_commitment.total_length)
    if response_bytes is None:
        raise Rejected("parse-failure", "response not fully disclosed")
    total = proof.request_commitment.total_length
    disclosed = sum(n for _, n in proof.request_disclosure.ranges)
    return AuthenticatedExchange(
        x,
        *parse_exchange(parse_template, response_bytes, role),
        request_disclosed=(disclosed, total - disclosed),
    )


def _overlay(byte_map: dict[int, bytes], total: int) -> tuple[bytearray, bytearray]:
    """The runs of ``byte_map`` laid out in ``total`` bytes, and a mask
    that is 1 at every byte some run covers and 0 elsewhere."""
    buf = bytearray(total)
    seen = bytearray(total)
    for offset, data in byte_map.items():
        buf[offset:offset + len(data)] = data
        seen[offset:offset + len(data)] = b"\x01" * len(data)
    return buf, seen


def _assemble(byte_map: dict[int, bytes], total: int) -> bytes | None:
    buf, seen = _overlay(byte_map, total)
    if seen.find(0) >= 0:
        return None
    return bytes(buf)


def _authenticate_entry(
    proof: WebProof,
    entry,
    registry: TemplateRegistry,
    role: str,
    session: OpenStatement | None = None,
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


def verify_component(
    payload: dict, entry, registry: TemplateRegistry, role: str
) -> AuthenticatedExchange:
    """The TLSNotary verifier of a standalone proof: decode a serialized
    web proof and authenticate it against the AID entry (steps 1 and 2)."""
    return _authenticate_entry(WebProof.from_obj(payload), entry, registry, role)


def open_session(signed: dict, entry) -> OpenStatement:
    """Open a bundle's signed statement for the components of ``entry``'s
    notary and host: the signature is checked here, once."""
    statement = SignedStatement.from_obj(signed)
    return OpenStatement(statement, entry.verification.key_string(), entry.host)


def verify_exchange(
    payload: dict, entry, registry: TemplateRegistry, role: str, session: OpenStatement
) -> AuthenticatedExchange:
    """The TLSNotary verifier of a bundle's proof: the next exchange of ``session``."""
    proof = WebProof.from_obj(payload, statement=session.statement)
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
        cap_up: int = 1 << 16,
        cap_down: int = 1 << 16,
        rng: random.Random | None = None,
    ):
        self.service = service
        self.registry = registry
        self.secrets = dict(secrets or {})
        self.cap_up = cap_up
        self.cap_down = cap_down
        self.rng = rng or random.Random()

    def sessions(self, host: str) -> "NotarizedRun":
        return NotarizedRun(self, host)

    def call(self, entry, x: str, role: str) -> tuple[AuthenticatedExchange, WebProof]:
        """Render, run a notarized session of one exchange, parse, and package the proof."""
        run = self.sessions(entry.host)
        run.add(entry, x, role)
        ((exchange_and_proof,),) = run.finish()
        return exchange_and_proof


class NotarizedRun:
    """A prover's exchanges with one host, over as few sessions as hold them.

    ``add`` sends each exchange in the open session. Before a request
    that would overflow the session's remaining up capacity, the session
    is finished and a fresh one opened. A response that overflows the
    down capacity makes the notary abort the session; the exchanges it
    carried are then replayed in a fresh session, which is finished, and
    the overflowing one is sent in a session of its own. An exchange that
    does not fit even a fresh session raises ``CapacityExceeded``.
    Replays need components that answer a request the same way again,
    as ``prove_trace`` already does.
    """

    def __init__(self, prover: WebProofProver, host: str):
        self.prover = prover
        self.host = host
        self._calls: list[tuple] = []  # (entry, x, role) of every exchange, in order
        self._finished: list[list[tuple[bytes, WebProof]]] = []
        self._session: NotarizedSession | None = None
        self._carried: list[tuple] = []  # what the open session has sent

    def add(self, entry, x: str, role: str) -> None:
        template = self.prover.registry.get_inject(entry.injection_algorithm_uid)
        secrets = {name: self.prover.secrets[name] for name in template.secret_names()}
        request_bytes, spans = render(template, x, secrets)
        exchange = (request_bytes, sorted(spans.values()), {"input": x})
        if self._session and self._session.up_used + len(request_bytes) > self.prover.cap_up:
            self._finish_session()
        try:
            self._send(exchange)
        except CapacityExceeded:
            carried, self._session, self._carried = self._carried, None, []
            if not carried:
                raise
            for earlier in carried:
                self._send(earlier)
            self._finish_session()
            self._send(exchange)
        self._calls.append((entry, x, role))

    def _send(self, exchange: tuple) -> None:
        if self._session is None:
            channel = provision_channel(
                self.prover.service,
                self.host,
                self.prover.cap_up,
                self.prover.cap_down,
                rng=self.prover.rng,
            )
            self._session = NotarizedSession(channel, self.prover.rng)
        self._session.send(*exchange)
        self._carried.append(exchange)

    def _finish_session(self) -> None:
        self._finished.append(self._session.finish())
        self._session, self._carried = None, []

    def finish(self) -> list[list[tuple[AuthenticatedExchange, WebProof]]]:
        """Finish the open session; per session, each exchange as parsed and its proof."""
        if self._session is not None:
            self._finish_session()
        calls = iter(self._calls)
        out = []
        for session in self._finished:
            proven = []
            for (response_bytes, proof), (entry, x, role) in zip(session, calls):
                parse = self.prover.registry.get_parse(entry.parsing_algorithm_uid)
                exchange = AuthenticatedExchange(x, *parse_exchange(parse, response_bytes, role))
                proven.append((exchange, proof))
            out.append(proven)
        return out
