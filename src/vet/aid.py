"""Agent Identity Document: schema, canonical form, content-addressed ID.

The document declares the agent's core and tools, the uid of each
component's request/parse template, and per-component verification
metadata (which scheme, which keys). The agent's ID is the SHA-256 of
the canonical serialization with the advisory ``agent_hash`` field
removed, so the ID never depends on itself and verifiers always
recompute it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from urllib.parse import urlparse

from .canonical import canonical_bytes, is_hash_string, json_field, refuse_unread
from .errors import ValidationError
from .keys import parse_public_key
from .templates import ROLE_CORE, ROLE_TOOL, TemplateRegistry

SCHEME_TLS_NOTARY = "TLSNotary"
SCHEME_PROXY_TEE = "ProxyTEE"

# (key field, other required parameter) of each scheme; each has a verifier.
_SCHEME_PARAMS = {
    SCHEME_TLS_NOTARY: ("notary_public_key", "protocol_version"),
    SCHEME_PROXY_TEE: ("enclave_public_key", "tee_type"),
}


@dataclass(frozen=True)
class VerificationMetadata:
    scheme: str
    params: dict

    def key_string(self) -> str:
        return self.params[_SCHEME_PARAMS[self.scheme][0]]


@dataclass(frozen=True)
class ComponentEntry:
    name: str
    endpoint: str
    injection_algorithm_uid: str
    parsing_algorithm_uid: str
    verification: VerificationMetadata
    model: str | None = None

    @property
    def host(self) -> str:
        return urlparse(self.endpoint).netloc

    def to_obj(self) -> dict:
        obj = {
            "name": self.name,
            "endpoint": self.endpoint,
            "injection_algorithm_uid": self.injection_algorithm_uid,
            "parsing_algorithm_uid": self.parsing_algorithm_uid,
            "verification": {self.verification.scheme: dict(self.verification.params)},
        }
        if self.model is not None:
            obj["model"] = self.model
        return obj

    @classmethod
    def from_obj(cls, obj: dict, default_name: str = "") -> "ComponentEntry":
        verification = json_field(obj, "verification", dict, {})
        refuse_unread(
            obj,
            ("name", "endpoint", "injection_algorithm_uid", "parsing_algorithm_uid",
             "verification", "model"),
            "a component entry",
            "an AID",
        )
        if len(verification) != 1:
            raise ValidationError("verification must name exactly one scheme")
        (scheme,) = verification
        return cls(
            name=json_field(obj, "name", str, default_name),
            endpoint=json_field(obj, "endpoint", str, ""),
            injection_algorithm_uid=json_field(obj, "injection_algorithm_uid", str, ""),
            parsing_algorithm_uid=json_field(obj, "parsing_algorithm_uid", str, ""),
            verification=VerificationMetadata(scheme, dict(json_field(verification, scheme, dict))),
            model=json_field(obj, "model", str, None),
        )


@dataclass(frozen=True)
class AgentIdentityDocument:
    agent_name: str
    core: ComponentEntry
    tools: tuple[ComponentEntry, ...]
    agent_hash: str | None = None

    def to_obj(self, include_hash: bool = True) -> dict:
        obj = {
            "agent_name": self.agent_name,
            "core": self.core.to_obj(),
            "tools": [t.to_obj() for t in self.tools],
        }
        if include_hash and self.agent_hash is not None:
            obj["agent_hash"] = self.agent_hash
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "AgentIdentityDocument":
        canonical_bytes(obj)  # a document with no canonical form has no ID
        document = cls(
            agent_name=json_field(obj, "agent_name", str, ""),
            core=ComponentEntry.from_obj(json_field(obj, "core", dict, {}), default_name="core"),
            tools=tuple(ComponentEntry.from_obj(t) for t in json_field(obj, "tools", list, [])),
            agent_hash=json_field(obj, "agent_hash", str, None),
        )
        refuse_unread(obj, ("agent_name", "core", "tools", "agent_hash"), "the AID", "an AID")
        return document

    def tool(self, name: str) -> ComponentEntry:
        for entry in self.tools:
            if entry.name == name:
                return entry
        raise KeyError(f"no tool named {name!r} in AID")

    def with_hash(self) -> "AgentIdentityDocument":
        return AgentIdentityDocument(
            agent_name=self.agent_name,
            core=self.core,
            tools=self.tools,
            agent_hash=compute_id(self),
        )


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


def _validate_entry(
    entry: ComponentEntry, path: str, registry: TemplateRegistry | None, role: str
) -> list[Violation]:
    out = []
    try:
        parsed = urlparse(entry.endpoint)
    except ValueError:  # a malformed IPv6 host, such as "https://["
        parsed = urlparse("")
    if not parsed.scheme or not parsed.netloc:
        out.append(Violation(f"{path}/endpoint", f"not a URL with scheme and host: {entry.endpoint!r}"))
    for uid_field in ("injection_algorithm_uid", "parsing_algorithm_uid"):
        uid = getattr(entry, uid_field)
        if not is_hash_string(uid):
            out.append(Violation(f"{path}/{uid_field}", f"not a sha256:-prefixed hash: {uid!r}"))
        elif registry is not None and uid not in registry:
            out.append(Violation(f"{path}/{uid_field}", f"uid {uid} not in template registry"))
        elif registry is not None and uid_field == "parsing_algorithm_uid":
            try:
                kind = registry.get_parse(uid).kind
                if kind != role:
                    raise ValidationError(f"a {kind} parse template for a {role}")
            except ValidationError as exc:  # also the uid of an inject template
                out.append(Violation(f"{path}/{uid_field}", str(exc)))
    scheme = entry.verification.scheme
    if scheme not in _SCHEME_PARAMS:
        out.append(Violation(f"{path}/verification", f"unknown scheme {scheme!r}"))
    else:
        key_field, required = _SCHEME_PARAMS[scheme]
        if required not in entry.verification.params:
            out.append(Violation(f"{path}/verification", f"{scheme} requires {required}"))
        out.extend(_check_key(entry, path, key_field))
    return out


def _check_key(entry: ComponentEntry, path: str, field_name: str) -> list[Violation]:
    key = entry.verification.params.get(field_name)
    if key is None:
        return [Violation(f"{path}/verification", f"missing {field_name}")]
    try:
        parse_public_key(key)
    except ValidationError as exc:
        return [Violation(f"{path}/verification/{field_name}", str(exc))]
    return []


def validate(
    aid: AgentIdentityDocument, registry: TemplateRegistry | None = None
) -> list[Violation]:
    """Structural validation; empty list means the document is valid."""
    out: list[Violation] = []
    if not aid.agent_name:
        out.append(Violation("/agent_name", "must be non-empty"))
    out.extend(_validate_entry(aid.core, "/core", registry, ROLE_CORE))
    names = [t.name for t in aid.tools]
    if len(set(names)) != len(names):
        out.append(Violation("/tools", "duplicate tool name"))
    for i, tool in enumerate(aid.tools):
        out.extend(_validate_entry(tool, f"/tools/{i}", registry, ROLE_TOOL))
    if aid.agent_hash is not None:
        if not is_hash_string(aid.agent_hash):
            out.append(Violation("/agent_hash", f"not a sha256: hash: {aid.agent_hash!r}"))
        elif not out and aid.agent_hash != _id_of(_canonical_unchecked(aid)):
            out.append(Violation("/agent_hash", "does not match recomputed document ID"))
    return out


def _canonical_unchecked(aid: AgentIdentityDocument) -> bytes:
    return canonical_bytes(aid.to_obj(include_hash=False))


def _id_of(canonical: bytes) -> str:
    return "sha256:" + hashlib.sha256(canonical).hexdigest()


def canonicalize(aid: AgentIdentityDocument) -> bytes:
    """Canonical bytes of the document with agent_hash excluded.

    The advisory hash is no part of them, so it is left unchecked: the
    document is validated without it, and encoded once."""
    violations = validate(replace(aid, agent_hash=None))
    if violations:
        raise ValidationError("; ".join(str(v) for v in violations))
    return _canonical_unchecked(aid)


def compute_id(aid: AgentIdentityDocument) -> str:
    """Content-addressed agent ID: "sha256:" + hex over canonical bytes."""
    return _id_of(canonicalize(aid))


@dataclass(frozen=True)
class TrustStore:
    """Which schemes this verifier supports, plus the template registry.

    Verification keys come from the AID itself; the trust store only
    gates which proof systems the verifier is willing to run and
    resolves template uids to their definitions.
    """

    schemes: frozenset = frozenset({SCHEME_TLS_NOTARY, SCHEME_PROXY_TEE})
    registry: TemplateRegistry = field(default_factory=TemplateRegistry)


def instantiate_verifier(aid: AgentIdentityDocument, trust_store: TrustStore):
    """Build the composed per-component verifier entirely from the AID.

    Pure function of (aid, trust_store): no other configuration source
    is consulted. Raises ValidationError for unsupported schemes or
    unknown template uids.
    """
    violations = validate(replace(aid, agent_hash=None), trust_store.registry)
    if violations:
        raise ValidationError("; ".join(str(v) for v in violations))
    for entry in (aid.core, *aid.tools):
        if entry.verification.scheme not in trust_store.schemes:
            raise ValidationError(
                f"scheme {entry.verification.scheme!r} not supported by this trust store"
            )
    from .composer import ComposedVerifier

    return ComposedVerifier(aid=aid, registry=trust_store.registry)
