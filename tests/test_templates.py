import pytest

from vet.canonical import content_hash
from vet.errors import Rejected, ValidationError
from vet.templates import (
    InjectTemplate,
    ParseTemplate,
    TemplateRegistry,
    extract_input,
    match_request,
    parse_core,
    parse_tool,
    render,
)
from vet.aid import ComponentEntry
from vet.httpmsg import parse_request
from vet.toytls import RECORD_MAX

PATH_TEMPLATE = {
    "type": "inject",
    "kind": "tool",
    "method": "GET",
    "path": "/price?ids={input}&cur=usd",
    "headers": [{"name": "Host", "value": "h.test"}],
}

BODY_TEMPLATE = {
    "type": "inject",
    "kind": "tool",
    "method": "POST",
    "path": "/v1/q",
    "headers": [
        {"name": "Host", "value": "h.test"},
        {"name": "Authorization", "secret": "token", "length": "32"},
    ],
    "body": {"query": ""},
    "input_pointer": "/query",
}


def test_uid_is_content_hash():
    template = InjectTemplate.from_obj(PATH_TEMPLATE)
    assert template.uid == content_hash(PATH_TEMPLATE)
    parse = ParseTemplate.from_obj(
        {"type": "parse", "kind": "tool", "output_pointer": "/v"}
    )
    assert parse.uid == content_hash({"type": "parse", "kind": "tool", "output_pointer": "/v"})


def test_render_path_slot():
    template = InjectTemplate.from_obj(PATH_TEMPLATE)
    data, spans = render(template, "bitcoin", {})
    assert data.startswith(b"GET /price?ids=bitcoin&cur=usd HTTP/1.1\r\n")
    assert spans == {}
    assert extract_input(template, data) == "bitcoin"


def test_render_rejects_unencodable_path_input():
    template = InjectTemplate.from_obj(PATH_TEMPLATE)
    for bad in ["a b", "a{b", "a\r\nb"]:
        with pytest.raises(ValidationError):
            render(template, bad, {})


def test_render_body_slot_and_secret_span():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    secret = "s" * 30
    data, spans = render(template, "hello", {"token": secret})
    request = parse_request(data)
    assert request.body == b'{"query":"hello"}'
    (offset, length) = spans["token"]
    assert length == 32
    assert offset % template.chunk_size == 0  # chunk aligned
    span_bytes = data[offset:offset + length]
    assert span_bytes.decode() == secret + "~~"  # padded to declared length
    assert extract_input(template, data) == "hello"


def test_secret_span_stable_without_value():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    # Rendering with and without the secret differs only inside the span.
    with_secret, spans = render(template, "hello", {"token": "s" * 32})
    without, _ = render(template, "hello", {})
    offset, length = spans["token"]
    assert with_secret[:offset] == without[:offset]
    assert with_secret[offset + length:] == without[offset + length:]


def test_render_call_requires_secrets():
    registry = TemplateRegistry()
    uid = registry.register(BODY_TEMPLATE)
    entry = ComponentEntry("q", "https://h.test/v1/q", uid, uid, None)
    with pytest.raises(ValidationError, match="^no secret 'token' is held for 'q'$"):
        registry.render_call(entry, "x", {})
    data, spans = registry.render_call(entry, "x", {"token": "t" * 32})
    assert parse_request(data).body == b'{"query":"x"}'
    assert [data[o:o + n] for o, n in spans] == [b"t" * 32]
    with pytest.raises(ValidationError):
        render(registry.get_inject(uid), "x", {"token": "t" * 33})  # longer than declared


def test_render_gives_one_span_per_secret_slot_in_order():
    headers = [
        {"name": "X-A", "secret": "a", "length": "16"},
        {"name": "Host", "value": "h.test"},
        {"name": "X-B", "secret": "b", "length": "32"},
    ]
    template = InjectTemplate.from_obj({**BODY_TEMPLATE, "headers": headers})
    data, spans = render(template, "hello", {"a": "A" * 16, "b": "B" * 32})
    assert list(spans) == ["a", "b"]
    (a, a_len), (b, b_len) = spans.values()
    assert a + a_len < b and data[a:a + a_len] == b"A" * 16 and data[b:b + b_len] == b"B" * 32


def test_a_secret_may_fill_one_header_only():
    # Two headers of one secret would render two copies but report one
    # span, so a web proof would release the key of the first copy's record.
    headers = [
        {"name": "X-A", "secret": "k", "length": "16"},
        {"name": "X-B", "secret": "k", "length": "16"},
    ]
    with pytest.raises(ValidationError, match="^secret 'k' fills more than one header$"):
        InjectTemplate.from_obj({**BODY_TEMPLATE, "headers": headers})
    with pytest.raises(ValidationError):
        TemplateRegistry().register({**BODY_TEMPLATE, "headers": headers})


def test_template_validation_errors():
    with pytest.raises(ValidationError):
        InjectTemplate.from_obj({**PATH_TEMPLATE, "type": "parse"})
    with pytest.raises(ValidationError):
        InjectTemplate.from_obj({**PATH_TEMPLATE, "kind": "other"})
    with pytest.raises(ValidationError):
        InjectTemplate.from_obj({**PATH_TEMPLATE, "path": "/static"})  # no slot
    with pytest.raises(ValidationError):
        InjectTemplate.from_obj({**PATH_TEMPLATE, "path": "/{input}/{input}"})
    bad_secret = {
        **BODY_TEMPLATE,
        "headers": [{"name": "A", "secret": "t", "length": "30"}],  # not chunk multiple
    }
    with pytest.raises(ValidationError):
        InjectTemplate.from_obj(bad_secret)
    with pytest.raises(ValidationError):
        ParseTemplate.from_obj({"type": "parse", "kind": "core", "output_pointer": "/y"})


def test_match_request_accepts_honest_disclosure():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    data, spans = render(template, "hello", {})
    # The verifier cuts the records itself, as the prover does: the public
    # head, the secret and the rest.
    offset, length = spans["token"]
    assert match_request(template, "hello", len(data)) == (
        data, [offset, length, len(data) - offset - length], frozenset({1})
    )
    # A rendering longer than a record is cut at RECORD_MAX as well.
    long = "h" * (2 * RECORD_MAX)
    data, spans = render(template, long, {})
    _, lengths, secret = match_request(template, long, len(data))
    assert sum(lengths) == len(data) and lengths[2:4] == [RECORD_MAX] * 2 and len(lengths) == 5
    assert secret == {1} and lengths[1] == spans["token"][1]


def test_match_request_rejections():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    data, _ = render(template, "hello", {})

    def reason(*args):
        with pytest.raises(Rejected) as err:
            match_request(template, *args)
        assert err.value.reason == "template-mismatch"
        return err.value.detail

    # A claimed input of another length, or a declared length that differs.
    assert reason("hello!", len(data)).startswith("rendered length")
    assert reason("hello", len(data) + 1).startswith("rendered length")
    assert reason("hello", len(data) - 1) == (
        f"rendered length {len(data)} != declared length {len(data) - 1}"
    )


def test_an_input_pointer_missing_from_the_body_fails_at_render_not_at_register():
    # The template registers, and every rendering of it fails, so a proof
    # naming it is a template mismatch (exit 1), not an unusable
    # template directory (exit 2).
    dangling = {**BODY_TEMPLATE, "input_pointer": "/missing"}
    registry = TemplateRegistry()
    template = registry.get_inject(registry.register(dangling))
    message = "^input pointer '/missing' missing from body template$"
    for _ in range(2):
        with pytest.raises(ValidationError, match=message):
            render(template, "hello", {})
    with pytest.raises(Rejected) as err:
        match_request(template, "hello", 100)
    assert (err.value.reason, err.value.detail) == (
        "template-mismatch", "input pointer '/missing' missing from body template"
    )


def test_parse_tool_and_core():
    tool = ParseTemplate.from_obj({"type": "parse", "kind": "tool", "output_pointer": "/v"})
    ok = b'HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{"v":"out"}'
    assert parse_tool(tool, ok) == "out"
    with pytest.raises(Rejected):
        parse_tool(tool, b'HTTP/1.1 500 Oops\r\nContent-Length: 2\r\n\r\n{}')
    with pytest.raises(Rejected):
        parse_tool(tool, b'HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\nnotjson')
    with pytest.raises(Rejected):
        parse_tool(tool, b'HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{"w":"x"}')
    with pytest.raises(Rejected):  # half a surrogate pair has no UTF-8 encoding
        parse_tool(tool, b'HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n{"v":"\\ud800"}')
    with pytest.raises(Rejected) as err:  # one name twice has no canonical form
        parse_tool(tool, b'HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n{"v":"a","v":"b"}')
    assert err.value.reason == "parse-failure"

    core = ParseTemplate.from_obj(
        {"type": "parse", "kind": "core", "output_pointer": "/y", "calls_pointer": "/c"}
    )
    body = b'{"y":"out","c":[{"tool":"t","input":"q"}]}'
    response = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    assert parse_core(core, response) == ("out", [("t", "q")])


def test_registry_round_trip(tmp_path):
    registry = TemplateRegistry()
    uid_i = registry.register(PATH_TEMPLATE)
    uid_p = registry.register({"type": "parse", "kind": "tool", "output_pointer": "/v"})
    assert uid_i in registry and uid_p in registry
    with pytest.raises(ValidationError):
        registry.get_inject(uid_p)
    with pytest.raises(ValidationError):
        registry.register({"type": "other"})

    registry.save_dir(tmp_path / "t")
    loaded = TemplateRegistry.load_dir(tmp_path / "t")
    assert loaded.uids() == registry.uids()
    assert loaded.get_inject(uid_i).path == PATH_TEMPLATE["path"]
