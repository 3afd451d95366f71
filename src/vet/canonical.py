"""Canonical JSON serialization and content-addressed hashing.

Every document this package signs or hashes (identity documents, request
templates, session statements, attestations, proof bundles) goes through
the same canonical form:

- UTF-8 bytes, object keys sorted lexicographically by code point,
- no insignificant whitespace,
- scalars restricted to strings, booleans and null.

Numbers are rejected outright: every count, length and timestamp is
encoded as a decimal string. This removes float-formatting divergence
between implementations and keeps the canonical form trivially auditable.

Decoders of outside documents read each field with ``json_field``, each
integer with ``parse_int`` (the one spelling ``str(int(s))``) and bytes
with ``parse_hex`` (lowercase hex), so that a field of the wrong shape or
spelling is a ``ValidationError`` naming it. ``canonical_loads`` refuses
an object that names one member twice, so a document has one reading.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

from .errors import ValidationError

SHA256_PREFIX = "sha256:"
_HASH_STRING = re.compile(SHA256_PREFIX + "[0-9a-f]{64}")
# An escaped surrogate, which must be half of a pair.
_ESCAPED_SURROGATE = re.compile(rb"\\u[dD][89a-fA-F]")

# The wire format of web proofs and bundles. Format 1, the initial one,
# had no "format" field and disclosed each chunk with its own path.
# Format 2 committed in fixed chunks of "chunk_size" bytes; format 3 listed
# each chunk's length in "chunk_lengths" under a Merkle root, and format 4
# hashes those lengths and a flat list of salted leaves into the root.
# 5: SHAKE-256 record keystream, under which format-4 records no longer
# re-encrypt to their signed hashes.
# 6: a bundle's sessions table holds each notary statement or proxy log
# head once, and each proof names its session by index.
# 7: a record is sealed encrypt-and-MAC with its tag over the plaintext,
# and the notary signs that tag, not a hash of the wire, so format-6
# statements no longer match their records.
# 8: a web proof no longer commits to or discloses its request, which the
# verifier renders from the template and the claimed input; the request
# fields are fixed stubs, and a format-7 request disclosure is refused.
FORMAT = "8"


def canonical_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical JSON bytes.

    Raises ValidationError if the object contains ints, floats, or any
    non-JSON type.
    """
    try:
        _check_scalars(obj)
    except _Rejection as exc:
        path = "".join(f"/{segment}" for segment in reversed(exc.segments))
        raise ValidationError(f"{exc.prefix} at {path or '/'}{exc.suffix}") from None
    text = json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )
    return text.encode("utf-8")


class _Rejection(Exception):
    """A rejected value; each enclosing container adds its key or index
    to ``segments`` on the way out, so the JSON path is only built for a
    document that is rejected."""

    def __init__(self, prefix: str, suffix: str = ""):
        self.prefix = prefix
        self.suffix = suffix
        self.segments: list = []


def _check_scalars(obj: Any) -> None:
    # Containers first: callers skip exact str values, so most calls here
    # are dicts and lists. No type is both a container and a str.
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise _Rejection("non-string key")
            if type(value) is not str:
                try:
                    _check_scalars(value)
                except _Rejection as exc:
                    exc.segments.append(key)
                    raise
        return
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            if type(item) is not str:
                try:
                    _check_scalars(item)
                except _Rejection as exc:
                    exc.segments.append(i)
                    raise
        return
    if obj is None or isinstance(obj, (str, bool)):
        return
    if isinstance(obj, (int, float)):
        raise _Rejection("number", ": encode scalars as strings")
    raise _Rejection(f"unserializable type {type(obj).__name__}")


def _unique_members(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"duplicate member name {key!r:.40}")
            seen.add(key)
    return obj


def canonical_loads(data: bytes | str) -> Any:
    """Parse JSON previously produced by canonical_bytes; ValidationError for
    bytes that are not UTF-8 JSON, JSON with half a surrogate pair, or an
    object with a member name twice (RFC 8785 and I-JSON forbid it)."""
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")  # a raw half pair has no encoding
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_members)
        if b"\\" in data and _ESCAPED_SURROGATE.search(data):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValidationError(f"not UTF-8 JSON: {exc}") from None
    return obj


def check_format(obj: Any, what: str) -> None:
    """Raise ValidationError unless ``obj`` declares the current ``FORMAT``."""
    found = obj.get("format", "1 (no format field)") if isinstance(obj, dict) else None
    if found != FORMAT:
        raise ValidationError(
            f"{what} format {found} is not supported; this verifier reads format {FORMAT} only"
        )


_REQUIRED = object()
_JSON_TYPES = {str: "a string", dict: "an object", list: "an array", bool: "a boolean"}


def json_field(obj: Any, key: str, kind: type = str, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` as ``kind``: a JSON ``str``, ``dict``, ``list`` or ``bool``
    (``object`` for any value), or a string read as ``int`` by ``parse_int``
    or as ``bytes`` by ``parse_hex``; ``default`` when the key is absent."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object holding {key}, not {type(obj).__name__}")
    value = obj.get(key, _REQUIRED)
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise ValidationError(f"missing field {key}")
        return default
    if kind is int:
        return parse_int(value, key)
    if kind is bytes:
        return parse_hex(value, key)
    if not isinstance(value, kind):
        raise ValidationError(f"{key} must be {_JSON_TYPES[kind]}, not {type(value).__name__}")
    return value


def parse_int(text: Any, name: str) -> int:
    """The integer ``text`` spells in decimal, refusing "01", "+1", " 1", "1_0" and "-0"."""
    try:
        value = int(text)
        if str(value) == text:
            return value
    except (TypeError, ValueError, OverflowError):  # not a string, not digits, or infinite
        pass
    raise ValidationError(f"{name} must be a decimal integer string, not {text!r:.40}")


def parse_hex(text: Any, name: str) -> bytes:
    """The bytes ``text`` spells in lowercase hex, refusing uppercase and spaces."""
    try:
        value = bytes.fromhex(text)
        if value.hex() == text:
            return value
    except (TypeError, ValueError):  # not a string, or not hex
        pass
    raise ValidationError(f"{name} must be a lowercase hex string, not {text!r:.40}")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def content_hash(obj: Any) -> str:
    """Return "sha256:<hex>" over the canonical bytes of ``obj``."""
    return SHA256_PREFIX + sha256_hex(canonical_bytes(obj))


def is_hash_string(value: str) -> bool:
    return isinstance(value, str) and _HASH_STRING.fullmatch(value) is not None


def json_pointer(doc: Any, pointer: str) -> Any:
    """Resolve an RFC 6901 JSON pointer against ``doc``.

    Raises KeyError naming the pointer when a token does not resolve.
    """
    if pointer == "":
        return doc
    if not pointer.startswith("/"):
        raise KeyError(f"invalid JSON pointer {pointer!r}")
    node = doc
    for raw in pointer.split("/")[1:]:
        token = raw.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if token not in node:
                raise KeyError(f"pointer {pointer!r}: missing key {token!r}")
            node = node[token]
        elif isinstance(node, list):
            try:
                index = int(token)
            except ValueError:
                raise KeyError(f"pointer {pointer!r}: bad index {token!r}")
            if not 0 <= index < len(node):
                raise KeyError(f"pointer {pointer!r}: index {index} out of range")
            node = node[index]
        else:
            raise KeyError(f"pointer {pointer!r}: cannot descend into scalar")
    return node
