"""Web Proof prover and verifier.

The prover opens a notarized channel, speaks toy-TLS to the target
server through the content-oblivious notary, and assembles a WebProof:
the notary-signed session statement, salted commitments to the request
and response, a selective disclosure (secrets redacted), and the
per-record keys for every disclosed record. The verifier re-encrypts
each disclosed record under its released key and checks the result
against the ciphertext hash chain the notary signed, then re-renders
the request template and re-parses the response. Acceptance means the
claimed value really crossed the notarized channel.

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
them to the signed chain by re-encryption, which does not depend on where
the chunks were cut.

A serialized proof carries ``"format": "5"``, and ``WebProof.from_obj``
reads no other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
            "format": FORMAT,
            "signed_statement": self.statement.to_obj(),
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
    def from_obj(cls, obj: dict) -> "WebProof":
        """Decode a web proof of the current format; a proof of another
        format or of the wrong shape is a ValidationError."""
        check_format(obj, "web proof")

        def part(key, decode):
            return decode(json_field(obj, key, dict))

        return cls(
            statement=part("signed_statement", SignedStatement.from_obj),
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


def run_session(
    channel,
    request_bytes: bytes,
    secret_spans: list[tuple[int, int]] | None = None,
    rng: random.Random | None = None,
    claims: dict | None = None,
) -> tuple[bytes, WebProof]:
    """Drive one notarized session and assemble the proof.

    Protocol order matters: the notary signs the ciphertext chain before
    the server releases the down-direction key seed, so nothing in the
    prover's pre-signature view determines a response plaintext.
    """
    rng = rng or random.Random()
    secret_spans = normalize_ranges(secret_spans or [], len(request_bytes))

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
    up_secret = toytls.up_secret(shared)
    hk = toytls.handshake_key(shared, bytes.fromhex(nonce))

    # Send the request as records split at secret-span boundaries.
    record_spans = toytls.split_records(len(request_bytes), secret_spans)
    up_keys = []
    up_wires = []
    for i, (offset, length) in enumerate(record_spans):
        key = toytls.derive_record_key("up", up_secret, i)
        wire = toytls.seal_record(key, request_bytes[offset:offset + length])
        up_keys.append(key)
        up_wires.append(wire)
        _expect(channel.exchange(Frame(frames.RELAY_UP, wire)), frames.ACK)

    replies = channel.exchange(Frame(frames.END_UP, b""))
    _raise_on_abort(replies)
    down_wires = [r.payload for r in replies if r.type == frames.RELAY_DOWN]
    if not replies or replies[-1].type != frames.END_DOWN:
        raise ProtocolError("response did not terminate with END_DOWN")

    # Notary signs the chain; only then does the server release the seed.
    statement_frame = _expect(channel.exchange(Frame(frames.FIN, b"")), frames.STATEMENT)
    signed = SignedStatement.from_obj(canonical_loads(statement_frame.payload))
    on_wire = [
        ("up", toytls.record_hash(w), len(w) - toytls.TAG_LEN) for w in up_wires
    ] + [
        ("down", toytls.record_hash(w), len(w) - toytls.TAG_LEN) for w in down_wires
    ]
    signed.check_session([channel.notary_public_key], channel.session_id, on_wire)

    release_request = toytls.seal_record(
        toytls.post_key(hk, "up"), statement_frame.payload
    )
    post = _expect(
        channel.exchange(Frame(frames.POST_UP, release_request)), frames.POST_DOWN
    )
    seed = toytls.open_record(toytls.post_key(hk, "down"), post.payload)
    channel.close()

    records = [
        toytls.open_record(toytls.derive_record_key("down", seed, i), wire)
        for i, wire in enumerate(down_wires)
    ]
    response_bytes = b"".join(records)

    # Commit one chunk per record (an empty response is one empty record,
    # and a chunk is never empty), then disclose all but the secret spans.
    req_commitment, req_opening = commit(
        request_bytes, [length for _, length in record_spans], rng
    )
    res_commitment, res_opening = commit(
        response_bytes, [len(record) for record in records if record], rng
    )
    disclosed_ranges = _complement(secret_spans, len(request_bytes))
    req_disclosure = disclose(req_opening, disclosed_ranges)
    res_disclosure = disclose(res_opening, [(0, len(response_bytes))])

    record_keys: dict[tuple[str, int], bytes] = {}
    for i, (offset, length) in enumerate(record_spans):
        if not _overlaps_secret(offset, length, secret_spans):
            record_keys[("up", i)] = up_keys[i]
    for i in range(len(down_wires)):
        record_keys[("down", i)] = toytls.derive_record_key("down", seed, i)

    proof = WebProof(
        statement=signed,
        record_keys=record_keys,
        request_commitment=req_commitment,
        request_disclosure=req_disclosure,
        response_commitment=res_commitment,
        response_disclosure=res_disclosure,
        claims=dict(claims or {}),
    )
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


def _direction_spans(records: list[RecordInfo], direction: str) -> list[tuple[int, int, int]]:
    """(record_index_in_chain, offset, length) for one direction's stream."""
    out = []
    offset = 0
    index = 0
    for record in records:
        if record.direction == direction:
            out.append((index, offset, record.length))
            offset += record.length
            index += 1
    return out


def _check_records(
    proof: WebProof,
    direction: str,
    commitment: TranscriptCommitment,
    disclosed: dict[int, bytes],
) -> None:
    """Bind disclosed plaintext to the signed ciphertext chain.

    Every disclosed byte must fall in a record whose key was released,
    and every keyed record must be fully disclosed and re-encrypt to the
    hash the notary signed. Bytes in unkeyed records stay unauthenticated
    and must not be disclosed at all.
    """
    records = proof.statement.records
    spans = _direction_spans(records, direction)
    chain = [r for r in records if r.direction == direction]
    total = sum(length for _, _, length in spans)
    if total != commitment.total_length:
        raise Rejected(
            "cipher-mismatch",
            f"{direction} chain carries {total} bytes but commitment "
            f"covers {commitment.total_length}",
        )
    stream, seen = _overlay(disclosed, total)
    for index, offset, length in spans:
        key = proof.record_keys.get((direction, index))
        end = offset + length
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
        wire = toytls.seal_record(key, bytes(stream[offset:end]))
        if toytls.record_hash(wire) != chain[index].hash:
            raise Rejected(
                "cipher-mismatch",
                f"{direction} record {index} does not re-encrypt to the signed hash",
            )
    for (d, index) in proof.record_keys:
        if d == direction and index >= len(chain):
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
) -> AuthenticatedExchange:
    """Steps 1 and 2 of the verifier: channel binding, then templates."""
    # Step 1: the signed statement and the re-encryption binding.
    if not proof.statement.verify(notary_public_key):
        raise Rejected("bad-signature", "statement not signed by the declared notary")
    if proof.statement.server_domain != server_domain:
        raise Rejected(
            "wrong-domain",
            f"statement attests {proof.statement.server_domain!r}, "
            f"component endpoint is {server_domain!r}",
        )
    cap_up, cap_down = proof.statement.capacity
    records = proof.statement.records
    if sum(r.length for r in records if r.direction == "up") > cap_up:
        raise Rejected("bad-signature", "statement chain exceeds its own up capacity")
    if sum(r.length for r in records if r.direction == "down") > cap_down:
        raise Rejected("bad-signature", "statement chain exceeds its own down capacity")

    req_map = disclosed_bytes(proof.request_commitment, proof.request_disclosure)
    res_map = disclosed_bytes(proof.response_commitment, proof.response_disclosure)
    _check_records(proof, "up", proof.request_commitment, req_map)
    _check_records(proof, "down", proof.response_commitment, res_map)

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
    proof: WebProof, entry, registry: TemplateRegistry, role: str
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
    )


def verify_component(
    payload: dict, entry, registry: TemplateRegistry, role: str
) -> AuthenticatedExchange:
    """The TLSNotary scheme verifier: decode a serialized web proof and
    authenticate it against the AID entry (steps 1 and 2)."""
    return _authenticate_entry(WebProof.from_obj(payload), entry, registry, role)


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

    def call(self, entry, x: str, role: str) -> tuple[AuthenticatedExchange, WebProof]:
        """Render, run the notarized session, parse, and package the proof."""
        template = self.registry.get_inject(entry.injection_algorithm_uid)
        parse_template = self.registry.get_parse(entry.parsing_algorithm_uid)
        secrets = {name: self.secrets[name] for name in template.secret_names()}
        request_bytes, spans = render(template, x, secrets)
        channel = provision_channel(
            self.service, entry.host, self.cap_up, self.cap_down, rng=self.rng
        )
        response_bytes, proof = run_session(
            channel,
            request_bytes,
            secret_spans=sorted(spans.values()),
            rng=self.rng,
            claims={"input": x},
        )
        exchange = AuthenticatedExchange(x, *parse_exchange(parse_template, response_bytes, role))
        return exchange, proof
