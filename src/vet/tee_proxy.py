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
changes the chain.

A standalone proof is a log of one exchange, checked by the same code:
`TeeProxy.fetch` opens a log, forwards one request and closes it, and
`verify_attestation` opens the head, takes the one exchange and closes
the log before it reads the exchange. It is its bundle payload with the
head in place of the session index:
``{"request", "response", "attestation": <LogHead>}``.
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
        numbers = ("exchanges", "timestamp")
        return cls(**{k: json_field(obj, k, int if k in numbers else str) for k in cls._fields})


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

    def fetch(self, request_bytes: bytes) -> tuple[bytes, LogHead]:
        """Forward one request in a log of its own."""
        log = self.open_log()
        return log.fetch(request_bytes), log.close()


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
    differs = first_difference(expected, secret, request_bytes)
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
        self.signed = signed
        self.bind(entry)
        key = signed.enclave_public_key
        if not verify_signature(key, signed.signed_payload(), signed.signature):
            raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
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
    request_bytes: bytes,
    response_bytes: bytes,
    entry,
    registry: TemplateRegistry,
    role: str,
) -> AuthenticatedExchange:
    """Match the request to the inject template, which yields x, and
    parse the response once."""
    x = _match_tee_request(registry.get_inject(entry.injection_algorithm_uid), request_bytes)
    template = registry.get_parse(entry.parsing_algorithm_uid)
    return AuthenticatedExchange(x, *parse_exchange(template, response_bytes, role))


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
    request_bytes: bytes,
    response_bytes: bytes,
    head: LogHead,
    entry,
    registry: TemplateRegistry,
    role: str = "tool",
):
    """Accept iff ``head`` signs a log of this one exchange, and its
    bytes match the entry's templates and parse to m.

    Returns the authenticated value (for core role, the (y, calls)
    pair). The log is opened, taken and closed as a bundle's is, and
    closed before the exchange is read, so bytes the head does not chain
    are a hash-mismatch whatever they hold.
    """
    log = OpenLog(head, entry)
    log.take(_digest(request_bytes), _digest(response_bytes))
    log.close()
    exchange = _read_exchange(request_bytes, response_bytes, entry, registry, role)
    if m != exchange.value:
        raise Rejected(
            "value-mismatch", f"claimed {m!r}, attested value is {exchange.value!r}"
        )
    if role == ROLE_CORE:
        return exchange.value, list(exchange.tool_calls)
    return exchange.value


def serve(proxy: TeeProxy, host: str = "127.0.0.1", port: int = 0) -> frames.FrameServer:
    """Serve ``proxy.fetch`` over TCP; a reply is ``{"response", "attestation"}``,
    the response and the head of its one-exchange log."""

    def respond(request_bytes: bytes) -> bytes:
        response_bytes, head = proxy.fetch(request_bytes)
        return canonical_bytes({"response": response_bytes.hex(), "attestation": head.to_obj()})

    return frames.serve_relay(respond, host, port, health=proxy.public_key.encode())


def fetch_tcp(host: str, port: int, request_bytes: bytes) -> tuple[bytes, LogHead]:
    obj = canonical_loads(frames.relay(host, port, request_bytes))
    head = LogHead.from_obj(json_field(obj, "attestation", dict))
    return json_field(obj, "response", bytes), head
