"""Injection and parsing templates for component HTTP exchanges.

An *inject* template pins everything about a component's request except
the input value and the secrets: method, path pattern, header list and
body shape. A *parse* template pins how the response is read back into
the agent's string domain: a JSON-pointer for the output value and, for
cores, the tool-call extraction rule. Each template's uid is the content
hash of its canonical JSON; identity documents reference templates by
uid, so a verifier can re-render the expected request byte-for-byte and
re-run the exact parse the agent declared.

A secret header slot is rendered at a fixed span: the value starts right
after its header's ``Name: `` and is padded with "~" to the header's
declared length, which need only be positive, since a web proof's secret
records are cut at the span's edges, wherever they fall. The value must
be ASCII, so that the span's length in bytes is its length in
characters, and a header name an HTTP token (RFC 9110 §5.6.2), which is
ASCII too. A ProxyTEE request is public, so its template has no secret
slot, and the verifier compares the attested request with the rendering
byte for byte.

A template, each of its header entries included, holds only the members
its decoder reads: one naming any other member, such as ``chunk_size``,
does not register, since its uid would commit to bytes that no
rendering reads.

Both sides render every call, the prover to send it and the verifier to
check it, so each inject template is compiled once, when it is built,
and keeps its compiled form for its lifetime (no module-level cache, so
a long-running verifier's memory is bounded by the templates it holds).
The compiled form is the template's request as fixed bytes around its
slots: the request line, split at the input if the path holds it; the
fixed header lines between secret values; and the canonical body, cut
in two at the input slot. A sentinel string found exactly once in the
body's canonical bytes marks the cut, and a rendering puts the input
there as ``canonical.json_string`` spells it, the string encoder of
``canonical_bytes``, so the bytes equal those of serializing the whole
body with the input set; a long input that needs no escape is quoted
whole, without an escape pass over each character. Per call only the
input, the secret padding, the span offsets and ``Content-Length`` are
formed. An input pointer that does not resolve in the body fails each
rendering, not the template's registration, so a proof naming such a
template is a template mismatch. A parse template splits each of its
JSON pointers into tokens once, and reads only a response of its own
kind: one of the other kind is a template mismatch.
"""

from __future__ import annotations

import copy
import itertools
import pathlib
import re
from dataclasses import dataclass, field
from typing import Mapping

from .canonical import (
    JsonPointer,
    canonical_bytes,
    canonical_loads,
    content_hash,
    json_field,
    json_string,
    refuse_unread,
)
from .errors import Rejected, ValidationError
from .httpmsg import parse_request, parse_response
from .toytls import split_records

PAD_CHAR = "~"
INPUT_SLOT = "{input}"
# The members each kind of template defines.
_INJECT_MEMBERS = ("type", "kind", "method", "path", "headers", "body", "input_pointer")
# A tool response carries no calls, so a tool parse template has no call pointers.
_PARSE_MEMBERS = {
    "tool": ("type", "kind", "output_pointer"),
    "core": ("type", "kind", "output_pointer", "calls_pointer", "call_tool_pointer",
             "call_input_pointer"),
}

# The role a component plays in the agent loop, which decides how its
# response is parsed.
ROLE_TOOL = "tool"
ROLE_CORE = "core"


@dataclass(frozen=True)
class InjectTemplate:
    uid: str
    kind: str  # "tool" or "core"
    method: str
    path: str
    headers: tuple[dict, ...]  # each a name and a value, or a secret and its length
    body: dict | None
    input_pointer: str | None
    _compiled: _Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_compiled", _compile(self))

    @classmethod
    def from_obj(cls, obj: dict) -> "InjectTemplate":
        if json_field(obj, "type", str, None) != "inject":
            raise ValidationError("not an inject template")
        kind = json_field(obj, "kind", str, None)
        if kind not in ("tool", "core"):
            raise ValidationError(f"template kind must be tool or core, got {kind!r}")
        refuse_unread(obj, _INJECT_MEMBERS, "an inject template", "a template")
        path = json_field(obj, "path")
        input_pointer = json_field(obj, "input_pointer", str, None)
        in_path = INPUT_SLOT in path
        if in_path and input_pointer:
            raise ValidationError("input slot declared in both path and body")
        if not in_path and not input_pointer:
            raise ValidationError("template has no input slot")
        if path.count(INPUT_SLOT) > 1:
            raise ValidationError("multiple input slots in path")
        headers = json_field(obj, "headers", list, [])
        secrets = set()
        for header in headers:
            name = json_field(header, "name")
            if not _TOKEN.fullmatch(name):
                raise ValidationError(f"header name {name!r:.40} is not an HTTP token")
            members = ("name", "secret", "length") if "secret" in header else ("name", "value")
            refuse_unread(header, members, "a header entry", "a template")
            if "secret" not in header:
                json_field(header, "value")
                continue
            secret, length = json_field(header, "secret"), json_field(header, "length", int)
            if secret in secrets:
                raise ValidationError(f"secret {secret!r} fills more than one header")
            secrets.add(secret)
            if length <= 0:
                raise ValidationError(f"secret {secret!r} length must be positive")
        return cls(
            uid=content_hash(obj),
            kind=kind,
            method=json_field(obj, "method"),
            path=path,
            headers=tuple(map(dict, headers)),
            body=json_field(obj, "body", dict, None),
            input_pointer=input_pointer,
        )

    def secret_names(self) -> list[str]:
        return [h["secret"] for h in self.headers if "secret" in h]


@dataclass(frozen=True)
class ParseTemplate:
    uid: str
    kind: str
    output_pointer: str
    calls_pointer: str | None
    call_tool_pointer: str
    call_input_pointer: str
    # Each pointer above, split into its tokens once (None for no calls pointer).
    _output: JsonPointer = field(init=False, repr=False, compare=False)
    _calls: JsonPointer | None = field(init=False, repr=False, compare=False)
    _call_tool: JsonPointer = field(init=False, repr=False, compare=False)
    _call_input: JsonPointer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_output", JsonPointer(self.output_pointer))
        calls = None if self.calls_pointer is None else JsonPointer(self.calls_pointer)
        object.__setattr__(self, "_calls", calls)
        object.__setattr__(self, "_call_tool", JsonPointer(self.call_tool_pointer))
        object.__setattr__(self, "_call_input", JsonPointer(self.call_input_pointer))

    @classmethod
    def from_obj(cls, obj: dict) -> "ParseTemplate":
        if json_field(obj, "type", str, None) != "parse":
            raise ValidationError("not a parse template")
        kind = json_field(obj, "kind", str, None)
        if kind not in ("tool", "core"):
            raise ValidationError(f"template kind must be tool or core, got {kind!r}")
        calls_pointer = json_field(obj, "calls_pointer", str, None)
        if kind == "core" and not calls_pointer:
            raise ValidationError("core parse template requires calls_pointer")
        refuse_unread(obj, _PARSE_MEMBERS[kind], "a parse template", "a template")
        return cls(
            uid=content_hash(obj),
            kind=kind,
            output_pointer=json_field(obj, "output_pointer"),
            calls_pointer=calls_pointer,
            call_tool_pointer=json_field(obj, "call_tool_pointer", str, "/tool"),
            call_input_pointer=json_field(obj, "call_input_pointer", str, "/input"),
        )


@dataclass(frozen=True)
class _SecretSlot:
    name: str
    declared: int  # the value's length, in characters, padding included
    lead: bytes  # the fixed head bytes from the previous slot to this value


@dataclass(frozen=True)
class _Compiled:
    """An inject template's request, as fixed bytes around its slots."""

    line_start: bytes  # the request line up to its input slot, or all of it
    line_end: bytes | None  # the rest of the request line, for a path slot
    secrets: tuple[_SecretSlot, ...]
    tail: bytes  # the fixed header lines after the last secret value
    body: tuple[bytes, ...] | None  # the body, or its two halves around the input
    error: str | None  # why the template renders no input, if it cannot


def _compile(template: InjectTemplate) -> _Compiled:
    """Cut the request that ``template`` renders into fixed bytes and slots."""
    method, path = template.method, template.path
    if INPUT_SLOT in path:
        before, after = path.split(INPUT_SLOT)
        line_start, line_end = f"{method} {before}".encode(), f"{after} HTTP/1.1\r\n".encode()
    else:
        line_start, line_end = f"{method} {path} HTTP/1.1\r\n".encode(), None
    secrets = []
    fixed = ""  # header text since the last secret value
    for header in template.headers:
        name = header["name"]
        if "secret" not in header:
            fixed += f"{name}: {header['value']}\r\n"
            continue
        declared = json_field(header, "length", int)
        lead = f"{fixed}{name}: ".encode()
        secrets.append(_SecretSlot(header["secret"], declared, lead))
        fixed = "\r\n"
    body, error = None, None
    if template.body is not None:
        try:
            body = _split_body(template.body, template.input_pointer)
        except ValidationError as exc:
            error = str(exc)
    return _Compiled(line_start, line_end, tuple(secrets), fixed.encode(), body, error)


# RFC 9110 §5.6.2: a header name is a token.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


def _split_body(body: dict, pointer: str | None) -> tuple[bytes, ...]:
    """The canonical body bytes, cut in two around the input slot if it has one.

    A sentinel string stands in for the input; one is drawn that the
    body's canonical bytes hold exactly once, and it is the input's: a
    JSON string there encodes in canonical JSON to the same bytes wherever
    it stands, so only the bytes between the two halves vary."""
    if not pointer:
        return (canonical_bytes(body),)
    doc = copy.deepcopy(body)
    slot = JsonPointer(pointer)
    try:
        slot.resolve(doc)
    except KeyError:
        raise ValidationError(f"input pointer {pointer!r} missing from body template")
    node = JsonPointer(pointer.rpartition("/")[0]).resolve(doc)
    key = int(slot.tokens[-1]) if isinstance(node, list) else slot.tokens[-1]
    for n in itertools.count():
        sentinel = f"\x00input-slot-{n}"
        node[key] = sentinel
        data = canonical_bytes(doc)
        encoded = json_string(sentinel).encode()
        if data.count(encoded) == 1:
            return tuple(data.split(encoded))


def render(
    template: InjectTemplate, x: str, secrets: Mapping[str, str]
) -> tuple[bytes, dict[str, tuple[int, int]]]:
    """Render the request; returns bytes plus each secret's span (offset, length).

    A template names each secret once, so there is one span per secret
    slot, and the spans are disjoint and in increasing order. Secrets may
    be absent from ``secrets``: their span renders as all padding. The
    web-proof verifier renders so and cuts the request's records at the
    spans; the ProxyTEE verifier, whose templates have no secret slot,
    compares an attested request with the rendering byte for byte.
    """
    compiled = template._compiled
    parts = [compiled.line_start]
    if compiled.line_end is not None:
        if any(c in x for c in " {}\r\n"):
            raise ValidationError(f"input {x!r} not encodable in a path slot")
        parts += (x.encode(), compiled.line_end)
    if compiled.error is not None:
        raise ValidationError(compiled.error)
    if compiled.body is not None:
        body = json_string(x).encode().join(compiled.body)

    offset = sum(map(len, parts))
    spans: dict[str, tuple[int, int]] = {}
    for slot in compiled.secrets:
        value = secrets.get(slot.name, "")
        if len(value) > slot.declared:
            raise ValidationError(
                f"secret {slot.name!r} longer than declared length {slot.declared}"
            )
        # The value is padded in characters but its span counts bytes: a
        # character of more than one byte would push the secret's end past
        # the span, into a record whose key a web proof releases.
        if not value.isascii():
            raise ValidationError(f"secret {slot.name!r} is not ASCII")
        offset += len(slot.lead)
        spans[slot.name] = (offset, slot.declared)
        parts += (slot.lead, value.ljust(slot.declared, PAD_CHAR).encode())
        offset += slot.declared
    parts.append(compiled.tail)
    if compiled.body is None:
        parts.append(b"\r\n")
    else:
        parts += (b"Content-Length: %d\r\n\r\n" % len(body), body)
    return b"".join(parts), spans


def extract_input(template: InjectTemplate, request_bytes: bytes) -> str:
    """Recover the input slot value from rendered request bytes."""
    request = parse_request(request_bytes)
    if template.input_pointer:
        doc = _json_body(request.body, "request")
        return _pointer_str(doc, JsonPointer(template.input_pointer))
    before, after = template.path.split(INPUT_SLOT)
    path = request.path
    if not (path.startswith(before) and path.endswith(after)):
        raise ValidationError(f"path {path!r} does not match template pattern")
    return path[len(before):len(path) - len(after)]


def _json_body(body: bytes, what: str):
    try:
        return canonical_loads(body)
    except ValidationError:
        raise Rejected("parse-failure", f"{what} body is not valid JSON")


def _pointer_str(doc, pointer: JsonPointer) -> str:
    try:
        value = pointer.resolve(doc)
    except KeyError as exc:
        raise Rejected("parse-failure", str(exc.args[0]))
    if not isinstance(value, str):
        raise Rejected("parse-failure", f"value at {pointer.text!r} is not a string")
    return value


def _check_status(response_bytes: bytes):
    try:
        response = parse_response(response_bytes)
    except ValidationError as exc:
        raise Rejected("parse-failure", str(exc))
    if response.status != 200:
        raise Rejected("parse-failure", f"non-200 status {response.status}")
    return response


def parse_tool(template: ParseTemplate, response_bytes: bytes) -> str:
    """Extract the tool result string from HTTP response bytes."""
    response = _check_status(response_bytes)
    doc = _json_body(response.body, "response")
    return _pointer_str(doc, template._output)


def parse_core(
    template: ParseTemplate, response_bytes: bytes
) -> tuple[str, list[tuple[str, str]]]:
    """Extract (output, ordered tool calls) from a core response."""
    response = _check_status(response_bytes)
    doc = _json_body(response.body, "response")
    output = _pointer_str(doc, template._output)
    try:
        calls_node = template._calls.resolve(doc)
    except KeyError as exc:
        raise Rejected("parse-failure", str(exc.args[0]))
    if not isinstance(calls_node, list):
        raise Rejected("parse-failure", f"value at {template.calls_pointer!r} is not an array")
    calls = []
    for item in calls_node:
        calls.append(
            (
                _pointer_str(item, template._call_tool),
                _pointer_str(item, template._call_input),
            )
        )
    return output, calls


@dataclass(frozen=True)
class AuthenticatedExchange:
    """What a verified component proof establishes about one call.

    ``request_disclosed`` is (public, secret) bytes of the rendered
    request for a proof that can keep request bytes hidden; it takes no
    part in comparing exchanges.
    """

    x: str
    value: str
    tool_calls: tuple[tuple[str, str], ...]
    request_disclosed: tuple[int, int] | None = field(default=None, compare=False)


def parse_exchange(
    template: ParseTemplate, response_bytes: bytes, role: str
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Read a component response as (value, tool calls): a core's output
    and the calls it emitted, or a tool's result and no calls. A parse
    template of the other kind is a template mismatch."""
    if template.kind != role:
        raise Rejected(
            "template-mismatch", f"a {template.kind} parse template cannot read a {role}'s response"
        )
    if role == ROLE_CORE:
        output, calls = parse_core(template, response_bytes)
        return output, tuple(calls)
    return parse_tool(template, response_bytes), ()


def match_request(
    template: InjectTemplate, x: str, total_length: int
) -> tuple[bytes, list[int], frozenset[int]]:
    """Render the request for input ``x`` and cut it into records as the prover does.

    Returns the rendering, its secret spans masked; the lengths of its
    records, cut by ``toytls.split_records`` at every secret-span edge;
    and the indices of the records it flags secret. Raises
    Rejected("template-mismatch") if the template cannot render ``x``,
    or the rendering is not ``total_length`` bytes long.
    """
    try:
        expected, spans = render(template, x, {})
    except ValidationError as exc:  # an input the template cannot hold
        raise Rejected("template-mismatch", str(exc))
    if len(expected) != total_length:
        raise Rejected(
            "template-mismatch",
            f"rendered length {len(expected)} != declared length {total_length}",
        )
    records = split_records(total_length, list(spans.values()))
    inside = frozenset(index for index, (_, _, secret) in enumerate(records) if secret)
    return expected, [length for _, length, _ in records], inside


class TemplateRegistry:
    """Maps template uids to parsed templates; persisted one file per uid."""

    def __init__(self):
        self._inject: dict[str, InjectTemplate] = {}
        self._parse: dict[str, ParseTemplate] = {}
        self._objs: dict[str, dict] = {}

    def register(self, obj: dict) -> str:
        kind = json_field(obj, "type", str, None)
        if kind == "inject":
            template = InjectTemplate.from_obj(obj)
            self._inject[template.uid] = template
        elif kind == "parse":
            template = ParseTemplate.from_obj(obj)
            self._parse[template.uid] = template
        else:
            raise ValidationError(f"template type must be inject or parse, got {kind!r}")
        self._objs[template.uid] = obj
        return template.uid

    def get_inject(self, uid: str) -> InjectTemplate:
        if uid not in self._inject:
            raise ValidationError(f"unknown inject template uid {uid}")
        return self._inject[uid]

    def get_parse(self, uid: str) -> ParseTemplate:
        if uid not in self._parse:
            raise ValidationError(f"unknown parse template uid {uid}")
        return self._parse[uid]

    def render_call(
        self, entry, x: str, secrets: Mapping[str, str]
    ) -> tuple[bytes, list[tuple[int, int]]]:
        """The request that calls component ``entry`` on ``x``, and its
        secret spans in order. Every secret slot must be bound."""
        template = self.get_inject(entry.injection_algorithm_uid)
        missing = [name for name in template.secret_names() if name not in secrets]
        if missing:
            raise ValidationError(f"no secret {missing[0]!r} is held for {entry.name!r}")
        request_bytes, spans = render(template, x, secrets)
        return request_bytes, list(spans.values())

    def read_call(self, entry, x: str, response_bytes: bytes, role: str) -> AuthenticatedExchange:
        """The exchange that a call of component ``entry`` on ``x`` made."""
        template = self.get_parse(entry.parsing_algorithm_uid)
        return AuthenticatedExchange(x, *parse_exchange(template, response_bytes, role))

    def __contains__(self, uid: str) -> bool:
        return uid in self._objs

    def uids(self) -> list[str]:
        return sorted(self._objs)

    def save_dir(self, path) -> None:
        directory = pathlib.Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for uid, obj in self._objs.items():
            (directory / f"{uid.replace(':', '_')}.json").write_bytes(canonical_bytes(obj))

    @classmethod
    def load_dir(cls, path) -> "TemplateRegistry":
        registry = cls()
        # iterdir, unlike glob, refuses a path that is not a directory.
        for file in sorted(f for f in pathlib.Path(path).iterdir() if f.suffix == ".json"):
            registry.register(canonical_loads(file.read_bytes()))
        return registry
