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

One spelling of a JSON string, ``json_string``, serves every encoder:
``canonical_bytes`` and the request renderer of ``vet.templates``.

Decoders of outside documents read each field with ``json_field``, each
integer with ``parse_int`` (the one spelling ``str(int(s))``) and bytes
with ``parse_hex`` (lowercase hex), so that a field of the wrong shape or
spelling is a ``ValidationError`` naming it. ``canonical_loads`` refuses
an object that names one member twice, so a document has one reading,
and ``refuse_unread`` an object with a member its decoder does not read,
so it has one encoding.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import re
from json.encoder import c_make_encoder, encode_basestring
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
# 9: the notary signs the head of a hash chain over the session's records
# and their count, not a list of them; a web proof adds the tags of its
# secret up records and its down record lengths, and a format-8 statement,
# which lists every record, is refused.
# 10: a proxy log head signs the same record chain as a notary, as
# "records" and a 32-byte "head" over an up and a down record per
# exchange, where format 9 signed "exchanges" and a "sha256:" head of its
# own chain; the notary statement drops the server key's fingerprint and
# a TEE flag that was always false, which no verifier read. The record
# cipher moved from SHAKE-256 to AES-256-CTR after format 10 with no bump,
# since no proof byte has depended on the ciphertext since format 7, and
# again with no bump from one AES key per record to one per direction and
# session, the record index as its nonce.
# 11: a bundle states each fact once. Its sessions table holds the bare
# signed objects, in the order its proofs first name them, where format 10
# wrapped each as {"kind", "signed"} in any order; its web proofs carry no
# "format" and its trace steps no "step_index", which is their position.
# 12: a web proof ships no record metadata that the verifier recomputes.
# Its record keys are bare {"key"} objects in record order, the public up
# records' and then the down records', where format 11 named each record
# by "direction" and "index"; its response commitment drops
# "chunk_lengths", which are the non-zero "down_lengths", and its
# disclosure the "ranges" and each chunk's "index", which were always
# the whole response and 0.
# 13: a request template has no "chunk_size", and a secret value starts
# right after its header's name, where format 12 padded it with "~" onto
# a grid of "chunk_size" (16) bytes; a secret-bearing request renders
# shorter, so no format-12 web proof with a secret slot matches it.
FORMAT = "13"


# The shortest string that ``json_string`` checks and quotes whole: below
# it the check's fixed cost outweighs the escape pass it saves. Measured
# with CPython 3.11.7 on a 2-vCPU VM, best of 7 over ASCII letters and
# digits, ``encode_basestring`` against check-and-quote: 62 against 300 ns
# at 4 characters, 460 against 439 ns at 192, 591 against 494 ns at 256,
# and 108 against 38 us at 48 KiB (~2.2 against ~0.8 ns a character).
QUOTE_WHOLE_MIN = 256
# The bytes that JSON escapes in an ASCII string.
_ESCAPED = bytes(range(0x20)) + b'"\\'


def json_string(s: str) -> str:
    """``s`` as a JSON string literal, exactly as ``encode_basestring``
    (the ``ensure_ascii=False`` encoder of ``json.dumps``) spells it.

    A string of at least ``QUOTE_WHOLE_MIN`` characters that is ASCII
    and holds no quote, backslash or control character needs no escape,
    and is quoted whole after one pass that checks it, in place of the
    escape pass over each character."""
    if len(s) >= QUOTE_WHOLE_MIN and s.isascii():
        if len(s.encode().translate(None, _ESCAPED)) == len(s):
            return '"' + s + '"'
    return encode_basestring(s)


# The encoder json.dumps builds for sort_keys=True, compact separators,
# ensure_ascii=False and allow_nan=False, with json_string as its string
# encoder and no circular-reference markers: ``_check_scalars`` has
# walked the document first, and a cycle is a RecursionError there.
_encode = c_make_encoder(None, None, json_string, None, ":", ",", True, False, False)


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
    return "".join(_encode(obj, 0)).encode("utf-8")


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


def refuse_unread(obj: dict, read: tuple[str, ...], where: str, schema: str = "") -> None:
    """ValidationError naming a member of ``obj`` outside ``read``, the
    members its decoder reads, so that a document has one encoding;
    ``schema`` names what defines the members, by default this format."""
    if len(obj) != sum(key in obj for key in read):
        unread = min(set(obj) - set(read))
        raise ValidationError(
            f"{where} has a member {unread!r:.40} that {schema or 'format ' + FORMAT} "
            "does not define"
        )


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
    """The bytes ``text`` spells in lowercase hex, refusing uppercase and spaces.

    ``a2b_hex`` refuses whitespace, odd lengths and non-ASCII text, and
    reads both cases, so one scan for each uppercase digit is left."""
    if isinstance(text, str):
        try:
            value = binascii.a2b_hex(text)
        except ValueError:  # binascii.Error is one
            pass
        else:
            if not ("A" in text or "B" in text or "C" in text or "D" in text
                    or "E" in text or "F" in text):
                return value
    raise ValidationError(f"{name} must be a lowercase hex string, not {text!r:.40}")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def content_hash(obj: Any) -> str:
    """Return "sha256:<hex>" over the canonical bytes of ``obj``."""
    return SHA256_PREFIX + sha256_hex(canonical_bytes(obj))


def is_hash_string(value: str) -> bool:
    return isinstance(value, str) and _HASH_STRING.fullmatch(value) is not None


class JsonPointer:
    """An RFC 6901 JSON pointer, split into its unescaped tokens once, so
    that a template resolves it against many documents."""

    __slots__ = ("text", "tokens")

    def __init__(self, text: str):
        self.text = text
        # None marks text that is not a pointer; resolving it is an error.
        self.tokens = (
            tuple(raw.replace("~1", "/").replace("~0", "~") for raw in text.split("/")[1:])
            if text == "" or text.startswith("/")
            else None
        )

    def resolve(self, doc: Any) -> Any:
        """The value the pointer names in ``doc``; KeyError naming the
        pointer when a token does not resolve."""
        pointer = self.text
        if self.tokens is None:
            raise KeyError(f"invalid JSON pointer {pointer!r}")
        node = doc
        for token in self.tokens:
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
