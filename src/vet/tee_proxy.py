"""Simulated attested HTTPS proxy in the Town Crier style.

The proxy forwards a component request to its upstream in plaintext and
returns the verbatim response. It gives integrity without privacy:
unlike the notarized channel, the proxy process sees every byte (though
it keeps none), which is the documented trade-off of this verification
mode. Real enclave quote generation is stubbed behind the same
interface; the `measurement` field stands in for the enclave code
identity and here hashes the proxy's declared template set.

The proxy attests a log of exchanges, not each one. A log (`ProxyLog`)
keeps the hash chain a notary keeps, a `toytls.RecordChain`: each
exchange is an up record of the request and then a down record of the
response, each chained as its length and its SHA-256 in place of a
record tag,
``h_i = H("VET/rec:" || h_{i-1} || direction || length || H(bytes))``.
The log signs the head and the record count once, when it closes: a
signed tree head in the sense of RFC 9162, over the hash chain of
Crosby and Wallach's tamper-evident logs. The fields have fixed widths,
so short of a SHA-256 collision the head fixes every exchange's bytes
and their order, and the signed count fixes how many there are. A
bundle's verifier checks the signature once (`open_log`, a
`vet.chain.OpenChain` as a notary statement's is), chains each proof's
request and response onto it in the order the trace invokes the log's
components, and at the end requires that every record was consumed and
that the chain reaches the signed head: a proof moved, swapped, dropped
or added changes the chain.

A standalone proof is a log of one exchange, checked by the same code:
`TeeProxy.fetch` opens a log, forwards one request and closes it, and
`verify_attestation` opens the head, takes the one exchange and closes
the log before it reads the exchange. It is its bundle payload with the
head in place of the session index:
``{"request", "response", "attestation": <LogHead>}``.

The request a proof ships is public, so the verifier, like the prover,
refuses a template with a secret slot, and requires the attested
request to equal the template's rendering for the input it carries,
byte for byte. Secret-bearing calls go through web proofs.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, NamedTuple

from . import frames
from .canonical import canonical_bytes, canonical_loads, json_field
from .chain import OpenChain
from .errors import Rejected, ValidationError
from .keys import SigningKey, verify_signature
from .templates import AuthenticatedExchange, TemplateRegistry, extract_input, render
from .toytls import RecordChain, read_chain


def measurement_of(registry: TemplateRegistry) -> str:
    """Stand-in enclave measurement: hash of the declared template uids."""
    h = hashlib.sha256(b"VET/measurement:")
    for uid in registry.uids():
        h.update(uid.encode("utf-8") + b"\n")
    return "sha256:" + h.hexdigest()


def _take(chain, request_bytes: bytes, response_bytes: bytes) -> None:
    """Chain one exchange on: an up record of the request, a down record of
    the response, each its length and SHA-256 in place of a record tag."""
    for direction, data in (("up", request_bytes), ("down", response_bytes)):
        chain.take(direction, len(data), hashlib.sha256(data).digest())


class LogHead(NamedTuple):
    """A proxy log's head, signed once when the log closes."""

    enclave_public_key: str
    tee_type: str
    measurement: str
    records: int
    head: bytes
    timestamp: int
    signature: str

    def signed_payload(self) -> bytes:
        """Canonical bytes of every field but the signature."""
        obj = self.to_obj()
        del obj["signature"]
        return canonical_bytes(obj)

    def to_obj(self) -> dict:
        return {
            **self._asdict(),
            "records": str(self.records),
            "head": self.head.hex(),
            "timestamp": str(self.timestamp),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "LogHead":
        records, head = read_chain(obj)
        strings = ("enclave_public_key", "tee_type", "measurement", "signature")
        return cls(
            **{k: json_field(obj, k) for k in strings},
            records=records,
            head=head,
            timestamp=json_field(obj, "timestamp", int),
        )


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
    chain, ``close`` signs the head. ``add`` and ``finish`` do the same for
    ``composer.prove_trace``, as a ``webproof.NotarizedRun`` does, keeping
    each exchange's response and bundle payload."""

    def __init__(self, proxy: TeeProxy):
        self.proxy = proxy
        self.chain = RecordChain()
        self._proven: list[tuple[bytes, dict]] = []

    def fetch(self, request_bytes: bytes) -> bytes:
        response_bytes = self.proxy.upstream(request_bytes)
        _take(self.chain, request_bytes, response_bytes)
        return response_bytes

    def add(self, request_bytes: bytes, secret_spans: list[tuple[int, int]], x: str) -> None:
        response_bytes = self.fetch(request_bytes)
        payload = {"request": request_bytes.hex(), "response": response_bytes.hex()}
        self._proven.append((response_bytes, payload))

    def finish(self) -> list[tuple[dict, list[tuple[bytes, dict]]]]:
        return [(self.close().to_obj(), self._proven)]

    def close(self) -> LogHead:
        proxy = self.proxy
        unsigned = LogHead(
            enclave_public_key=proxy.public_key,
            tee_type=proxy.tee_type,
            measurement=proxy.measurement,
            records=self.chain.count,
            head=self.chain.head,
            timestamp=int(time.time() * 1000),
            signature="",
        )
        with proxy._sign_lock:
            signature = proxy.signing_key.sign(unsigned.signed_payload())
        return unsigned._replace(signature=signature)


def _match_tee_request(template, request_bytes: bytes) -> str:
    """Recover x from an attested plaintext request and pin it to the template.

    The request is public: a template with a secret slot is refused, and
    the request must equal the rendering for the extracted x byte for
    byte.
    """
    secrets = template.secret_names()
    if secrets:
        raise Rejected(
            "template-mismatch",
            f"a ProxyTEE request is public, but its template has secret {secrets[0]!r}",
        )
    try:
        x = extract_input(template, request_bytes)
    except ValidationError as exc:
        raise Rejected("parse-failure", str(exc))
    try:
        expected, _ = render(template, x, {})
    except ValidationError as exc:  # an input the template cannot hold
        raise Rejected("template-mismatch", str(exc))
    if len(expected) != len(request_bytes):
        raise Rejected("template-mismatch", "attested request length differs from template")
    if expected != request_bytes:
        differs = next(i for i, (a, b) in enumerate(zip(request_bytes, expected)) if a != b)
        raise Rejected("template-mismatch", f"attested request byte {differs} differs")
    return x


def _bind(head: LogHead, entry) -> None:
    """Rejected unless a component of this enclave key and TEE type may use the log."""
    if head.enclave_public_key != entry.verification.key_string():
        raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
    tee_type = entry.verification.params.get("tee_type")
    if head.tee_type != tee_type:
        raise Rejected(
            "bad-signature",
            f"attestation is from a {head.tee_type!r} enclave, the document declares {tee_type!r}",
        )


def _open(head: LogHead, entry) -> OpenChain:
    """Check a log head's signature, once, and open the chain it signs."""
    _bind(head, entry)
    key = head.enclave_public_key
    if not verify_signature(key, head.signed_payload(), head.signature):
        raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
    return OpenChain(head, key, "hash-mismatch")


def open_log(signed: dict, entry) -> OpenChain:
    """Open a bundle's signed log head for the components of ``entry``'s
    enclave: the signature is checked here, once."""
    return _open(LogHead.from_obj(signed), entry)


def verify_exchange(
    payload: dict, entry, registry: TemplateRegistry, role: str, log: OpenChain
) -> AuthenticatedExchange:
    """The ProxyTEE verifier of a bundle's proof: the next exchange of ``log``."""
    _bind(log.signed, entry)
    request, response = (json_field(payload, key, bytes) for key in ("request", "response"))
    _take(log, request, response)
    x = _match_tee_request(registry.get_inject(entry.injection_algorithm_uid), request)
    return registry.read_call(entry, x, response, role)


def verify_attestation(
    m: str,
    request_bytes: bytes,
    response_bytes: bytes,
    head: LogHead,
    entry,
    registry: TemplateRegistry,
    role: str = "tool",
) -> str:
    """Accept iff ``head`` signs a log of this one exchange, and its
    bytes match the entry's templates and parse to m.

    Returns the authenticated value, for either role, as
    ``webproof.verify_webproof`` does. The log is opened, taken and
    closed as a bundle's is, and closed before the exchange is read, so
    bytes the head does not chain are a hash-mismatch whatever they hold.
    """
    log = _open(head, entry)
    _take(log, request_bytes, response_bytes)
    log.close()
    x = _match_tee_request(registry.get_inject(entry.injection_algorithm_uid), request_bytes)
    exchange = registry.read_call(entry, x, response_bytes, role)
    if m != exchange.value:
        raise Rejected(
            "value-mismatch", f"claimed {m!r}, attested value is {exchange.value!r}"
        )
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
