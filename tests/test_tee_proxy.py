import hashlib

import pytest

from vet import tee_proxy
from vet.chain import OpenChain
from vet.errors import Rejected
from vet.keys import SigningKey
from vet.mockserver import make_echo_handler, make_price_handler
from vet.tee_proxy import (
    LOG_START,
    LogHead,
    TeeProxy,
    log_link,
    measurement_of,
    verify_attestation,
)
from vet.templates import TemplateRegistry, parse_tool, render


def _registry():
    registry = TemplateRegistry()
    inject_uid = registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "GET",
            "path": "/api/v3/simple/price?ids={input}&vs_currencies=usd",
            "headers": [{"name": "Host", "value": "api.coingecko.test"}],
        }
    )
    parse_uid = registry.register(
        {"type": "parse", "kind": "tool", "output_pointer": "/bitcoin/usd"}
    )
    return registry, inject_uid, parse_uid


def _entry(registry, inject_uid, parse_uid, key):
    from vet.aid import SCHEME_PROXY_TEE, ComponentEntry, VerificationMetadata

    return ComponentEntry(
        name="price",
        endpoint="https://api.coingecko.test/api/v3/simple/price",
        injection_algorithm_uid=inject_uid,
        parsing_algorithm_uid=parse_uid,
        verification=VerificationMetadata(
            SCHEME_PROXY_TEE,
            {"tee_type": "TDX", "enclave_public_key": key.public_string},
        ),
    )


@pytest.fixture
def setup():
    registry, inject_uid, parse_uid = _registry()
    key = SigningKey.from_seed("tee-test")
    proxy = TeeProxy(
        key, make_price_handler("0"), measurement=measurement_of(registry)
    )
    entry = _entry(registry, inject_uid, parse_uid, key)
    template = registry.get_inject(inject_uid)
    return registry, proxy, entry, template


def test_fetch_and_verify(setup):
    registry, proxy, entry, template = setup

    request = render(template, "bitcoin", {})[0]
    response, head = proxy.fetch(request)
    value = parse_tool(registry.get_parse(entry.parsing_algorithm_uid), response)
    assert verify_attestation(value, request, response, head, entry, registry) == value
    digest = lambda data: "sha256:" + hashlib.sha256(data).hexdigest()
    assert head.exchanges == 1
    assert head.head == log_link(LOG_START, digest(request), digest(response))


def test_verify_rejections(setup):
    registry, proxy, entry, template = setup

    request = render(template, "bitcoin", {})[0]
    response, head = proxy.fetch(request)
    value = parse_tool(registry.get_parse(entry.parsing_algorithm_uid), response)

    with pytest.raises(Rejected) as err:
        verify_attestation("wrong", request, response, head, entry, registry)
    assert err.value.reason == "value-mismatch"

    tampered = response.replace(b'"usd"', b'"eur"')
    with pytest.raises(Rejected) as err:
        verify_attestation(value, request, tampered, head, entry, registry)
    assert err.value.reason == "hash-mismatch"

    with pytest.raises(Rejected) as err:
        verify_attestation(value, request + b" ", response, head, entry, registry)
    assert err.value.reason == "hash-mismatch"

    forged = head._replace(timestamp=head.timestamp + 1)  # signed payload changes
    with pytest.raises(Rejected) as err:
        verify_attestation(value, request, response, forged, entry, registry)
    assert err.value.reason == "bad-signature"

    rogue = SigningKey.from_seed("rogue-enclave")
    impostor = LogHead.from_obj({**head.to_obj(), "enclave_public_key": rogue.public_string})
    with pytest.raises(Rejected) as err:
        verify_attestation(value, request, response, impostor, entry, registry)
    assert err.value.reason == "bad-signature"


def test_verify_attestation_closes_its_log_of_one_once(setup, monkeypatch):
    registry, proxy, entry, template = setup

    closed = []
    close = OpenChain.close
    monkeypatch.setattr(OpenChain, "close", lambda log: closed.append(log) or close(log))
    request = render(template, "bitcoin", {})[0]
    response, head = proxy.fetch(request)
    value = parse_tool(registry.get_parse(entry.parsing_algorithm_uid), response)
    assert verify_attestation(value, request, response, head, entry, registry) == value
    assert len(closed) == 1 and closed[0].signed == head


def test_parse_failure_reason(setup):
    registry, _, entry, template = setup

    key = SigningKey.from_seed("tee-test")
    junk_proxy = TeeProxy(key, lambda req: b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\njunk")
    request = render(template, "bitcoin", {})[0]
    response, head = junk_proxy.fetch(request)
    with pytest.raises(Rejected) as err:
        verify_attestation("x", request, response, head, entry, registry)
    assert err.value.reason == "parse-failure"


def test_proxy_sees_plaintext(setup, monkeypatch):
    registry, proxy, entry, template = setup

    seen = []
    upstream = proxy.upstream
    monkeypatch.setattr(proxy, "upstream", lambda request: seen.append(request) or upstream(request))
    request = render(template, "bitcoin", {})[0]
    proxy.fetch(request)
    assert request in seen


def test_attestation_obj_round_trip(setup):
    _, proxy, _, template = setup

    _, head = proxy.fetch(render(template, "bitcoin", {})[0])
    assert LogHead.from_obj(head.to_obj()) == head


def test_measurement_deterministic():
    registry, _, _ = _registry()
    other, _, _ = _registry()
    assert measurement_of(registry) == measurement_of(other)
    assert measurement_of(TemplateRegistry()) != measurement_of(registry)


def test_tcp_serve_and_fetch(setup):
    registry, proxy, entry, template = setup

    server = tee_proxy.serve(proxy)
    try:
        host, port = server.server_address
        request = render(template, "bitcoin", {})[0]
        response, head = tee_proxy.fetch_tcp(host, port, request)
        local_response, _ = proxy.fetch(request)
        assert response == local_response
        value = parse_tool(registry.get_parse(entry.parsing_algorithm_uid), response)
        assert verify_attestation(value, request, response, head, entry, registry) == value
    finally:
        server.shutdown()
        server.server_close()


def test_attested_request_that_is_not_utf8_is_a_parse_failure(setup):
    # The prover chooses the request, so an honest proxy attests any bytes.
    registry, _, entry, _ = setup
    response = b'HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\n{"bitcoin":{"usd":"1.00"}}'
    proxy = TeeProxy(SigningKey.from_seed("tee-test"), lambda request: response)
    request = b"GET /api/v3/simple/price?ids=\xff&vs_currencies=usd HTTP/1.1\r\n\r\n"
    _, head = proxy.fetch(request)
    with pytest.raises(Rejected) as err:
        verify_attestation("1.00", request, response, head, entry, registry)
    assert err.value.reason == "parse-failure"


def test_log_signs_one_head_over_its_exchanges(setup):
    registry, proxy, entry, template = setup

    log = proxy.open_log()
    requests = [render(template, coin, {})[0] for coin in ("bitcoin", "bitcoin", "bitcoin")]
    payloads = [{"request": r.hex(), "response": log.fetch(r).hex()} for r in requests]
    head = log.close()
    assert head.exchanges == 3 and head.enclave_public_key == proxy.public_key

    def verify(order, signed=head.to_obj()):
        opened = tee_proxy.open_log(signed, entry)
        for k in order:
            tee_proxy.verify_exchange(payloads[k], entry, registry, "tool", opened)
        opened.close()

    verify([0, 1, 2])
    # The chain fixes the number of exchanges and their bytes.
    for order, detail in (
        ([0, 1], "the session holds 3 exchanges, 2 were proven"),
        ([0, 1, 2, 2], "the session holds 3 exchanges, and the proofs carry more"),
    ):
        with pytest.raises(Rejected) as err:
            verify(order)
        assert (err.value.reason, err.value.detail) == ("hash-mismatch", detail)
    payloads[1] = dict(payloads[1], response=payloads[2]["response"][:-2] + "00")
    with pytest.raises(Rejected) as err:
        verify([0, 1, 2])
    assert err.value.reason in ("hash-mismatch", "parse-failure")
    with pytest.raises(Rejected) as err:
        verify([0, 1, 2], dict(head.to_obj(), exchanges="4"))
    assert err.value.reason == "bad-signature"


def test_first_byte_that_differs_is_named(setup):
    registry, proxy, entry, template = setup
    request = render(template, "bitcoin", {})[0]
    host = request.index(b"api.coingecko.test")
    for tampered, detail in (
        (request.replace(b"api.coingecko", b"api.coingeckO"), f"byte {host + 12} differs"),
        (request + b"\r\n", "length differs from template"),
    ):
        response, head = proxy.fetch(tampered)
        with pytest.raises(Rejected) as err:
            verify_attestation("1.00", tampered, response, head, entry, registry)
        assert (err.value.reason, err.value.detail) == (
            "template-mismatch", f"attested request {detail}"
        )


def test_input_the_template_cannot_render_is_a_template_mismatch(setup):
    # The attested request carries "{x}" where the path slot holds the
    # input: the template cannot render that input, so the request is not
    # the template's.
    registry, proxy, entry, template = setup
    request = render(template, "bitcoin", {})[0].replace(b"bitcoin", b"{x}")
    response, head = proxy.fetch(request)
    with pytest.raises(Rejected) as err:
        verify_attestation("1.00", request, response, head, entry, registry)
    assert (err.value.reason, err.value.detail) == (
        "template-mismatch", "input '{x}' not encodable in a path slot"
    )


def test_template_with_a_secret_slot_is_rejected():
    # A TEE proof ships its request, so a secret rendered into it is
    # public: the verifier refuses the template, as the prover does.
    registry = TemplateRegistry()
    inject_uid = registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/echo",
            "headers": [
                {"name": "Host", "value": "echo.test"},
                {"name": "X-Api-Key", "secret": "api_key", "length": "16"},
            ],
            "body": {"message": ""},
            "input_pointer": "/message",
        }
    )
    parse_uid = registry.register({"type": "parse", "kind": "tool", "output_pointer": "/echo"})
    key = SigningKey.from_seed("tee-test")
    entry = _entry(registry, inject_uid, parse_uid, key)
    request, _ = render(registry.get_inject(inject_uid), "hi", {"api_key": "TOPSECRET"})
    response, head = TeeProxy(key, make_echo_handler()).fetch(request)
    assert b"TOPSECRET" in request
    with pytest.raises(Rejected) as err:
        verify_attestation("hi", request, response, head, entry, registry)
    assert (err.value.reason, err.value.detail) == (
        "template-mismatch", "a ProxyTEE request is public, but its template has secret 'api_key'"
    )
