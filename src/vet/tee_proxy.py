"""Simulated attested HTTPS proxy in the Town Crier style.

The proxy forwards a component request to its upstream in plaintext and
returns the verbatim response together with a signed attestation over
the hashes of exactly the bytes exchanged. It gives integrity without
privacy: unlike the notarized channel, the proxy process sees every
byte (though it keeps none), which is the documented trade-off of this
verification mode. Real
enclave quote generation is stubbed behind the same interface; the
`measurement` field stands in for the enclave code identity and here
hashes the proxy's declared template set.

A component proof of this scheme is the attested request and response
bytes plus the attestation (`component_payload`); `verify_component`
checks it against the AID entry.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

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


@dataclass(frozen=True)
class ProxyAttestation:
    enclave_public_key: str
    tee_type: str
    measurement: str
    request_hash: str
    response_hash: str
    timestamp: int
    signature: str

    def signed_payload(self) -> bytes:
        """Canonical bytes of every field but the signature."""
        obj = self.to_obj()
        del obj["signature"]
        return canonical_bytes(obj)

    def to_obj(self) -> dict:
        return {**asdict(self), "timestamp": str(self.timestamp)}

    @classmethod
    def from_obj(cls, obj: dict) -> "ProxyAttestation":
        text = {f.name: json_field(obj, f.name) for f in fields(cls) if f.name != "timestamp"}
        return cls(**text, timestamp=json_field(obj, "timestamp", int))


class TeeProxy:
    """Stateless attesting forwarder; signing is serialized by a lock."""

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

    def fetch(self, request_bytes: bytes) -> tuple[bytes, ProxyAttestation]:
        response_bytes = self.upstream(request_bytes)
        unsigned = ProxyAttestation(
            enclave_public_key=self.public_key,
            tee_type=self.tee_type,
            measurement=self.measurement,
            request_hash=_digest(request_bytes),
            response_hash=_digest(response_bytes),
            timestamp=int(time.time() * 1000),
            signature="",
        )
        with self._sign_lock:
            signature = self.signing_key.sign(unsigned.signed_payload())
        return response_bytes, replace(unsigned, signature=signature)


def component_payload(
    request_bytes: bytes, response_bytes: bytes, attestation: ProxyAttestation
) -> dict:
    """The serialized component proof that ``verify_component`` reads."""
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


def _authenticate(
    response_bytes: bytes,
    attestation: ProxyAttestation,
    entry,
    registry: TemplateRegistry,
    role: str,
    request_bytes: bytes | None,
) -> AuthenticatedExchange:
    """Check the attestation against the AID entry, then read the exchange.

    The signature, the declared TEE type and the hashes come first; then
    the request is matched to the inject template, which yields x (left
    empty when no request is given), and the response is parsed once.
    """
    key = entry.verification.key_string()
    if attestation.enclave_public_key != key or not verify_signature(
        key,
        attestation.signed_payload(),
        attestation.signature,
    ):
        raise Rejected("bad-signature", "attestation not signed by the declared enclave key")
    tee_type = entry.verification.params.get("tee_type")
    if attestation.tee_type != tee_type:
        raise Rejected(
            "bad-signature",
            f"attestation is from a {attestation.tee_type!r} enclave, "
            f"the document declares {tee_type!r}",
        )
    if _digest(response_bytes) != attestation.response_hash:
        raise Rejected("hash-mismatch", "response bytes do not match the attested hash")
    x = ""
    if request_bytes is not None:
        if _digest(request_bytes) != attestation.request_hash:
            raise Rejected("hash-mismatch", "request bytes do not match the attested hash")
        x = _match_tee_request(
            registry.get_inject(entry.injection_algorithm_uid), request_bytes
        )
    template = registry.get_parse(entry.parsing_algorithm_uid)
    return AuthenticatedExchange(x, *parse_exchange(template, response_bytes, role))


def verify_component(
    payload: dict, entry, registry: TemplateRegistry, role: str
) -> AuthenticatedExchange:
    """The ProxyTEE scheme verifier: decode a ``component_payload`` and
    authenticate it against the AID entry."""
    attestation = ProxyAttestation.from_obj(json_field(payload, "attestation", dict))
    response, request = (json_field(payload, key, bytes) for key in ("response", "request"))
    return _authenticate(response, attestation, entry, registry, role, request)


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
