"""Structure-aware fuzzing of the wire decoders: HTTP messages and frames.

``httpmsg.parse_request`` and ``httpmsg.parse_response`` read the bytes a
prover or a server sends, and ``frames.decode_all`` reads the agent
transcripts a core is handed. Each input is either random bytes or a
concatenation of the tokens these formats are made of: request and
status lines, CRLFs, ``Content-Length`` headers with huge, negative or
non-decimal values, colons, non-UTF-8 bytes, and frames whose declared
length overruns or falls short. Every input must decode to a value or
raise ``ValidationError``, and nothing else.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vet import frames
from vet.errors import ValidationError
from vet.httpmsg import HttpRequest, HttpResponse, parse_request, parse_response

SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

START_LINES = [
    b"GET / HTTP/1.1", b"POST /v1/echo HTTP/1.1", b"POST  HTTP/1.1", b"GET / HTTP/1.0",
    b"GET /\xff HTTP/1.1", b"HTTP/1.1 200 OK", b"HTTP/1.1 400 Bad Request", b"HTTP/1.1 200",
    b"HTTP/1.1 -1 X", b"HTTP/1.1 01 X", b"HTTP/1.1 2_0 X", b"HTTP/1.1 " + b"9" * 5000,
    b"HTTP/1.1", b"",
]
HEADER_LINES = [
    b"Host: h.test", b"Content-Length: 0", b"Content-Length: 15",
    b"Content-Length: 99999999999999999999", b"Content-Length: -1", b"Content-Length: 0x10",
    b"Content-Length: 1e3", b"Content-Length:", b"content-length: 1_0", b":", b"X: \xc3\xa9",
    b"X: \xff\xfe", b"X: \xed\xa0\x80", b"no colon",
]
HTTP_TOKENS = START_LINES + HEADER_LINES + [
    b"\r\n", b"\r\n\r\n", b"\r", b"\n", b" ", b"\xc3", b"\x00", b'{"message":"r"}',
]


@st.composite
def http_messages(draw):
    """Random bytes, a run of tokens, or a start line, header lines and a
    body laid out as a message."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.binary(max_size=64))
    if kind == 1:
        tokens = st.sampled_from(HTTP_TOKENS) | st.binary(max_size=4)
        return b"".join(draw(st.lists(tokens, max_size=12)))
    start = draw(st.sampled_from(START_LINES))
    headers = draw(st.lists(st.sampled_from(HEADER_LINES), max_size=4))
    body = draw(st.sampled_from([b"", b'{"message":"r"}', b"\r\n\r\n"]) | st.binary(max_size=8))
    return b"\r\n".join([start, *headers]) + b"\r\n\r\n" + body


# Whole frames, bare headers whose length overruns what follows, and
# stray bytes; the joined stream may then lose its tail.
frame_parts = st.one_of(
    st.builds(frames.encode, st.integers(0, 255), st.binary(max_size=8)),
    st.builds(
        lambda ftype, length: bytes([ftype]) + length.to_bytes(4, "big"),
        st.integers(0, 255),
        st.sampled_from([0, 1, 5, 64, frames.MAX_FRAME, 2**32 - 1]),
    ),
    st.binary(max_size=6),
)


@st.composite
def frame_streams(draw):
    data = b"".join(draw(st.lists(frame_parts, max_size=6)))
    return data[: len(data) - draw(st.integers(0, min(len(data), 8)))]


@SETTINGS
@given(data=http_messages())
def test_parse_request_returns_or_rejects(data):
    try:
        request = parse_request(data)
    except ValidationError:
        return
    assert isinstance(request, HttpRequest)
    assert data.endswith(request.body)


@SETTINGS
@given(data=http_messages())
def test_parse_response_returns_or_rejects(data):
    try:
        response = parse_response(data)
    except ValidationError:
        return
    assert isinstance(response, HttpResponse) and isinstance(response.status, int)
    assert data.endswith(response.body)


@SETTINGS
@given(data=frame_streams())
def test_decode_all_returns_or_rejects(data):
    try:
        decoded = frames.decode_all(data)
    except ValidationError:
        return
    # What decodes is the whole input, frame by frame.
    assert b"".join(frames.encode(ftype, payload) for ftype, payload in decoded) == data
