import pytest

from vet.errors import ValidationError
from vet.httpmsg import (
    HttpRequest,
    HttpResponse,
    parse_request,
    parse_response,
    render_request,
    render_response,
)


def test_request_round_trip():
    request = HttpRequest(
        method="POST",
        path="/v1/x?q=1",
        headers=(("Host", "h.test"), ("Content-Length", "4")),
        body=b"body",
    )
    parsed = parse_request(render_request(request))
    assert parsed == request
    assert parsed.header("host") == "h.test"
    assert parsed.header("Missing") is None


def test_request_auto_content_length():
    request = HttpRequest("POST", "/", (("Host", "h"),), b"abc")
    data = render_request(request)
    assert b"Content-Length: 3\r\n" in data
    assert parse_request(data).body == b"abc"


def test_response_round_trip():
    response = HttpResponse(404, "Not Found", (("X-A", "1"),), b"nope")
    parsed = parse_response(render_response(response))
    assert parsed.status == 404
    assert parsed.reason == "Not Found"
    assert parsed.body == b"nope"


@pytest.mark.parametrize(
    "data",
    [
        b"no header terminator",
        b"GET /\r\n\r\n",  # missing version
        b"GET / HTTP/1.0\r\n\r\n",
        b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
        b"GET /\xff HTTP/1.1\r\n\r\n",  # a head that is not UTF-8
        b"GET / HTTP/1.1\r\nX-A: \xff\r\n\r\n",
    ],
)
def test_parse_request_errors(data):
    with pytest.raises(ValidationError):
        parse_request(data)


@pytest.mark.parametrize(
    "data",
    [
        b"HTTP/1.1 abc OK\r\n\r\n",
        b"HTTP/1.1 +200 OK\r\n\r\n",
        b"HTTP/2 200 OK\r\n\r\n",
        b"junk",
        b"HTTP/1.1 200 \xff\r\n\r\n",
    ],
)
def test_parse_response_errors(data):
    with pytest.raises(ValidationError):
        parse_response(data)
