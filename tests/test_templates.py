import pytest

from vet.canonical import content_hash
from vet.errors import Rejected, ValidationError
from vet.templates import (
    InjectTemplate,
    ParseTemplate,
    TemplateRegistry,
    extract_input,
    inject,
    match_request,
    parse_core,
    parse_tool,
    render,
    secret_spans,
)
from vet.httpmsg import parse_request

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
    assert secret_spans(template, "hello") == {
        name: span for name, span in render(template, "hello", {})[1].items()
    }
    # Rendering with and without the secret differs only inside the span.
    with_secret, spans = render(template, "hello", {"token": "s" * 32})
    without, _ = render(template, "hello", {})
    offset, length = spans["token"]
    assert with_secret[:offset] == without[:offset]
    assert with_secret[offset + length:] == without[offset + length:]


def test_inject_requires_secrets():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    with pytest.raises(ValidationError):
        inject(template, "x")
    inject(template, "x", {"token": "t" * 32})
    with pytest.raises(ValidationError):
        render(template, "x", {"token": "t" * 33})  # longer than declared


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


def _records(data, spans):
    """Record lengths cut at every secret-span edge, as a prover sends them."""
    edges = {edge for offset, length in spans.values() for edge in (offset, offset + length)}
    cuts = sorted({0, len(data), *edges})
    return [end - start for start, end in zip(cuts, cuts[1:])]


def test_match_request_accepts_honest_disclosure():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    data, spans = render(template, "hello", {})
    # The records are the public head, the secret and the rest.
    assert match_request(template, "hello", len(data), _records(data, spans)) == (
        data, frozenset({1})
    )
    # Finer cuts classify the same way: a public record may be any length.
    split = [1] * spans["token"][0] + _records(data, spans)[1:]
    assert match_request(template, "hello", len(data), split)[1] == {spans["token"][0]}


def test_match_request_rejections():
    template = InjectTemplate.from_obj(BODY_TEMPLATE)
    data, spans = render(template, "hello", {})
    records = _records(data, spans)

    def reason(*args):
        with pytest.raises(Rejected) as err:
            match_request(template, *args)
        assert err.value.reason == "template-mismatch"
        return err.value.detail

    # A claimed input of another length, or a declared length that differs.
    assert reason("hello!", len(data), records).startswith("rendered length")
    assert reason("hello", len(data) + 1, records).startswith("rendered length")
    # Records that carry too few or too many bytes.
    assert reason("hello", len(data), records[:-1]).startswith("request records carry")
    assert reason("hello", len(data), records + [1]).startswith("request records carry")
    # A record that runs into the secret, or out of it.
    for moved in ([records[0] + 1, records[1] - 1], [records[0] - 1, records[1] + 1]):
        detail = reason("hello", len(data), moved + records[2:])
        assert detail.endswith("straddles a secret span edge")
    merged = [records[0] + records[1]] + records[2:]
    assert reason("hello", len(data), merged) == "request record 0 straddles a secret span edge"


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
