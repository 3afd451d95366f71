"""Simulated attested HTTPS proxy in the Town Crier style.

The proxy forwards a component request to its upstream in plaintext and
returns the verbatim response. It gives integrity without privacy:
unlike the notarized channel, the proxy process sees every byte (though
it keeps none), which is the documented trade-off of this verification
mode. Real enclave quote generation is stubbed behind the same
interface; the `measurement` field stands in for the enclave code
identity and here hashes the proxy's declared template set.

The proxy attests a log of exchanges, not each one. A log (`ProxyLog`)
keeps a hash chain over (H(request), H(response)) per exchange and
signs its head once, when it closes: a signed tree head in the sense of
RFC 9162, over the hash chain of Crosby and Wallach's tamper-evident
logs. The chain fixes every exchange and their order, and the signed
count fixes how many there are. A bundle's verifier checks the
signature once (`OpenLog`), chains each proof's request and response
onto it in the order the trace invokes the log's components, and at
the end requires that every exchange was consumed and that the chain
reaches the signed head: a proof moved, swapped, dropped or added
changes the chain. `TeeProxy.fetch` is a log of one exchange, and its
`ProxyAttestation` carries the two hashes that log chains.

A standalone component proof is the attested request and response bytes
plus the attestation (`component_payload`); `verify_component` checks it
against the AID entry.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, NamedTuple

from . import frames
from .canonical import canonical_bytes, canonical_loads, json_field
from .errors import Rejected, ValidationError
from .keys import SigningKey, verify_signature
from .templates import (
    ROLE_CORE,
    AuthenticatedExchange,
    TemplateRegistry,
    expected_request,
    extract_input,
    first_difference,
    parse_exchange,
)


def measurement_of(registry: TemplateRegistry) -> str:
    """Stand-in enclave measurement: hash of the declared template uids."""
    h = hashlib.sha256(b"VET/measurement:")
    for uid in registry.uids():
        h.update(uid.encode("utf-8") + b"\n")
    return "sha256:" + h.hexdigest()


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# The head of a log that holds no exchange yet.
LOG_START = "sha256:" + "0" * 64


def log_link(head: str, request_hash: str, response_hash: str) -> str:
    """The log head after one more exchange."""
    return _digest(b"VET/log:" + canonical_bytes([head, request_hash, response_hash]))


def _text_fields(cls, obj: dict, numbers: tuple[str, ...]) -> dict:
    """The fields of ``cls`` read from ``obj``: ``numbers`` as ints, the rest as text."""
    return {name: json_field(obj, name, int if name in numbers else str) for name in cls._fields}


class LogHead(NamedTuple):
    """A proxy log's head, signed once when the log closes."""

    enclave_public_key: str
    tee_type: str
    measurement: str
    exchanges: int
    head: str
    timestamp: int
    signature: str

    def signed_payload(self) -> bytes:
        """Canonical bytes of every field but the signature."""
        obj = self.to_obj()
        del obj["signature"]
        return canonical_bytes(obj)

    def to_obj(self) -> dict:
        return {**self._asdict(), "exchanges": str(self.exchanges), "timestamp": str(self.timestamp)}

    @classmethod
    def from_obj(cls, obj: dict) -> "LogHead":
        return cls(**_text_fields(cls, obj, ("exchanges", "timestamp")))


class ProxyAttestation(NamedTuple):
    """The signed head of a log of one exchange, with that exchange's hashes."""

    enclave_public_key: str
    tee_type: str
    measurement: str
    request_hash: str
    response_hash: str
    timestamp: int
    signature: str

    def log_head(self) -> LogHead:
        return LogHead(
            enclave_public_key=self.enclave_public_key,
            tee_type=self.tee_type,
            measurement=self.measurement,
            exchanges=1,
            head=log_link(LOG_START, self.request_hash, self.response_hash),
            timestamp=self.timestamp,
            signature=self.signature,
        )

    def signed_payload(self) -> bytes:
        return self.log_head().signed_payload()

    def to_obj(self) -> dict:
        return {**self._asdict(), "timestamp": str(self.timestamp)}

    @classmethod
    def from_obj(cls, obj: dict) -> "ProxyAttestation":
        return cls(**_text_fields(cls, obj, ("timestamp",)))


class TeeProxy:
    """Attesting forwarder with no state between logs; signing is serialized by a lock."""

    def __init__(
        self,
        signing_key: SigningKey,
        upstream: Callable[[bytes], bytes],
        tee_type: str = "TDX",
        measurement: str = "sha256:" + "0" * 64,
    ):
        self.signing_key = signing_key
        self.upstream = upstream
        self.tee_type = tee_type
        self.measurement = measurement
        self._sign_lock = threading.Lock()

    @property
    def public_key(self) -> str:
        return self.signing_key.public_string

    def open_log(self) -> "ProxyLog":
        return ProxyLog(self)

    def fetch(self, request_bytes: bytes) -> tuple[bytes, ProxyAttestation]:
        """Forward one request in a log of its own."""
        log = self.open_log()
        response_bytes = log.fetch(request_bytes)
        head = log.close()
        return response_bytes, ProxyAttestation(
            enclave_public_key=head.enclave_public_key,
            tee_type=head.tee_type,
            measurement=head.measurement,
            request_hash=_digest(request_bytes),
            response_hash=_digest(response_bytes),
            timestamp=head.timestamp,
            signature=head.signature,
        )


class ProxyLog:
    """One log of a proxy: ``fetch`` forwards a request and extends the
    chain, ``close`` signs the head."""

    def __init__(self, proxy: TeeProxy):
        self.proxy = proxy
        self.head = LOG_START
        self.exchanges = 0

    def fetch(self, request_bytes: bytes) -> bytes:
        response_bytes = self.proxy.upstream(request_bytes)
        self.head = log_link(self.head, _digest(request_bytes), _digest(response_bytes))
        self.exchanges += 1
        return response_bytes

    def close(self) -> LogHead:
        proxy = self.proxy
        unsigned = LogHead(
            enclave_public_key=proxy.public_key,
            tee_type=proxy.tee_type,
            measurement=proxy.measurement,
            exchanges=self.exchanges,
            head=self.head,
            timestamp=int(time.time() * 1000),
            signature="",
        )
        with proxy._sign_lock:
            signature = proxy.signing_key.sign(unsigned.signed_payload())
        return unsigned._replace(signature=signature)


def component_payload(
    request_bytes: bytes, response_bytes: bytes, attestation: ProxyAttestation
) -> dict:
    """The serialized standalone proof that ``verify_component`` reads."""
    return {
        "request": request_bytes.hex(),
        "response": response_bytes.hex(),
        "attestation": attestation.to_obj(),
    }


def _match_tee_request(template, request_bytes: bytes) -> str:
    """Recover x from an attested plaintext request and pin it to the template.

    Bytes inside secret spans are ignored (the proxy saw the real secret;
    the verifier must not require knowing it), everything else must equal
    the deterministic rendering for the extracted x.
    """
    try:
        x = extract_input(template, request_bytes)
    except ValidationError as exc:
        raise Rejected("parse-failure", str(exc))
    expected, secret = expected_request(template, x)
    if len(expected) != len(request_bytes):
        raise Rejected("template-mismatch", "attested request length differs from template")
    differs = first_difference(expected, secret, 0, request_bytes)
    if differs is not None:
        raise Rejected("template-mismatch", f"attested request byte {differs} differs")
    return x


class OpenLog:
    """A signed log head checked once, and the chain its exchanges rebuild.

    ``take`` chains one exchange's hashes on; ``close`` requires that the
    signed number of exchanges was taken and that they chain to the
    signed head.
    """

    def __init__(self, signed: LogHead, entry):
        key = entry.verification.key_string()
        if signed.enclave_public_key != key or not verify_signature(
            key, signed.signed_payload(), signed.signature
        ):
            raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
        self.signed = signed
        self.bind(entry)
        self.head = LOG_START
        self.taken = 0

    def bind(self, entry) -> None:
        """Rejected unless a component of this enclave key and TEE type may use the log."""
        if self.signed.enclave_public_key != entry.verification.key_string():
            raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
        tee_type = entry.verification.params.get("tee_type")
        if self.signed.tee_type != tee_type:
            raise Rejected(
                "bad-signature",
                f"attestation is from a {self.signed.tee_type!r} enclave, "
                f"the document declares {tee_type!r}",
            )

    def take(self, request_hash: str, response_hash: str) -> None:
        if self.taken == self.signed.exchanges:
            raise Rejected(
                "hash-mismatch",
                f"the log holds {self.signed.exchanges} exchanges, and more proofs name it",
            )
        self.head = log_link(self.head, request_hash, response_hash)
        self.taken += 1

    def close(self) -> None:
        if self.taken != self.signed.exchanges:
            raise Rejected(
                "hash-mismatch",
                f"the log holds {self.signed.exchanges} exchanges, {self.taken} were proven",
            )
        if self.head != self.signed.head:
            raise Rejected("hash-mismatch", "the exchanges do not chain to the signed log head")


def _read_exchange(
    request_bytes: bytes | None,
    response_bytes: bytes,
    entry,
    registry: TemplateRegistry,
    role: str,
) -> AuthenticatedExchange:
    """Match the request to the inject template, which yields x (left
    empty when no request is given), and parse the response once."""
    x = ""
    if request_bytes is not None:
        x = _match_tee_request(
            registry.get_inject(entry.injection_algorithm_uid), request_bytes
        )
    template = registry.get_parse(entry.parsing_algorithm_uid)
    return AuthenticatedExchange(x, *parse_exchange(template, response_bytes, role))


def _authenticate(
    response_bytes: bytes,
    attestation: ProxyAttestation,
    entry,
    registry: TemplateRegistry,
    role: str,
    request_bytes: bytes | None,
) -> AuthenticatedExchange:
    """Check a one-exchange attestation against the AID entry, then read the exchange.

    The signature and the declared TEE type come first, then the hashes
    of the bytes given; the attested request hash stands in for a
    request that is not given.
    """
    log = OpenLog(attestation.log_head(), entry)
    if _digest(response_bytes) != attestation.response_hash:
        raise Rejected("hash-mismatch", "response bytes do not match the attested hash")
    if request_bytes is not None and _digest(request_bytes) != attestation.request_hash:
        raise Rejected("hash-mismatch", "request bytes do not match the attested hash")
    log.take(attestation.request_hash, attestation.response_hash)
    log.close()
    return _read_exchange(request_bytes, response_bytes, entry, registry, role)


def verify_component(
    payload: dict, entry, registry: TemplateRegistry, role: str
) -> AuthenticatedExchange:
    """The ProxyTEE verifier of a standalone proof: decode a
    ``component_payload`` and authenticate it against the AID entry."""
    attestation = ProxyAttestation.from_obj(json_field(payload, "attestation", dict))
    response, request = (json_field(payload, key, bytes) for key in ("response", "request"))
    return _authenticate(response, attestation, entry, registry, role, request)


def open_log(signed: dict, entry) -> OpenLog:
    """Open a bundle's signed log head for the components of ``entry``'s
    enclave: the signature is checked here, once."""
    return OpenLog(LogHead.from_obj(signed), entry)


def verify_exchange(
    payload: dict, entry, registry: TemplateRegistry, role: str, log: OpenLog
) -> AuthenticatedExchange:
    """The ProxyTEE verifier of a bundle's proof: the next exchange of ``log``."""
    log.bind(entry)
    request, response = (json_field(payload, key, bytes) for key in ("request", "response"))
    log.take(_digest(request), _digest(response))
    return _read_exchange(request, response, entry, registry, role)


def verify_attestation(
    m: str,
    response_bytes: bytes,
    attestation: ProxyAttestation,
    entry,
    registry: TemplateRegistry,
    request_bytes: bytes | None = None,
    role: str = "tool",
):
    """Accept iff the attestation binds these bytes and they parse to m.

    Returns the authenticated value (for core role, the (y, calls)
    pair). ``request_bytes`` is optional; when given, its hash is
    checked against the attestation and it must match the inject
    template too.
    """
    exchange = _authenticate(response_bytes, attestation, entry, registry, role, request_bytes)
    if m != exchange.value:
        raise Rejected(
            "value-mismatch", f"claimed {m!r}, attested value is {exchange.value!r}"
        )
    if role == ROLE_CORE:
        return exchange.value, list(exchange.tool_calls)
    return exchange.value


def serve(proxy: TeeProxy, host: str = "127.0.0.1", port: int = 0) -> frames.FrameServer:
    """Serve ``proxy.fetch`` over TCP; a reply carries the response and its attestation."""

    def respond(request_bytes: bytes) -> bytes:
        response_bytes, attestation = proxy.fetch(request_bytes)
        return canonical_bytes(
            {"response": response_bytes.hex(), "attestation": attestation.to_obj()}
        )

    return frames.serve_relay(respond, host, port, health=proxy.public_key.encode())


def fetch_tcp(host: str, port: int, request_bytes: bytes) -> tuple[bytes, ProxyAttestation]:
    obj = canonical_loads(frames.relay(host, port, request_bytes))
    attestation = ProxyAttestation.from_obj(json_field(obj, "attestation", dict))
    return json_field(obj, "response", bytes), attestation
