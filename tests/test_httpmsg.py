import pytest

from vet.errors import ValidationError
from vet.httpmsg import (
    HttpRequest,
    HttpResponse,
    parse_request,
    parse_response,
    render_response,
)


def test_parse_request():
    data = b"POST /v1/x?q=1 HTTP/1.1\r\nHost: h.test\r\nContent-Length: 4\r\n\r\nbody"
    assert parse_request(data) == HttpRequest(
        method="POST",
        path="/v1/x?q=1",
        headers=(("Host", "h.test"), ("Content-Length", "4")),
        body=b"body",
    )


def test_response_auto_content_length():
    data = render_response(HttpResponse(200, "OK", (("X-A", "1"),), b"abc"))
    assert data == b"HTTP/1.1 200 OK\r\nX-A: 1\r\nContent-Length: 3\r\n\r\nabc"
    assert parse_response(data).body == b"abc"


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
