"""Minimal HTTP/1.1 message rendering and parsing.

This package never speaks to a real web server; requests and responses
are byte strings carried inside toy-TLS records or proxy envelopes. The
subset here is deliberately small: request line / status line, headers,
and a Content-Length body. No chunked transfer, no HTTP/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import parse_int
from .errors import ValidationError

CRLF = b"\r\n"


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    headers: tuple[tuple[str, str], ...]
    body: bytes


@dataclass(frozen=True)
class HttpResponse:
    status: int
    reason: str
    headers: tuple[tuple[str, str], ...]
    body: bytes


def render_response(response: HttpResponse) -> bytes:
    lines = [f"HTTP/1.1 {response.status} {response.reason}".encode()]
    has_length = False
    for name, value in response.headers:
        if name.lower() == "content-length":
            has_length = True
        lines.append(f"{name}: {value}".encode())
    if not has_length:
        lines.append(f"Content-Length: {len(response.body)}".encode())
    return CRLF.join(lines) + CRLF + CRLF + response.body


def _split_head(data: bytes) -> tuple[list[str], bytes]:
    head, terminator, body = data.partition(CRLF + CRLF)
    if not terminator:
        raise ValidationError("malformed HTTP message: missing header terminator")
    try:
        return head.decode("utf-8").split("\r\n"), body
    except UnicodeDecodeError:
        raise ValidationError("malformed HTTP message: head is not UTF-8") from None


def _parse_headers(lines: list[str]) -> tuple[tuple[str, str], ...]:
    headers = []
    for line in lines:
        if ":" not in line:
            raise ValidationError(f"malformed header line {line!r}")
        name, value = line.split(":", 1)
        headers.append((name, value.strip()))
    return tuple(headers)


def parse_request(data: bytes) -> HttpRequest:
    lines, body = _split_head(data)
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[2] != "HTTP/1.1":
        raise ValidationError(f"malformed request line {lines[0]!r}")
    headers = _parse_headers(lines[1:])
    return HttpRequest(method=parts[0], path=parts[1], headers=headers, body=body)


def parse_response(data: bytes) -> HttpResponse:
    lines, body = _split_head(data)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or parts[0] != "HTTP/1.1":
        raise ValidationError(f"malformed status line {lines[0]!r}")
    status = parse_int(parts[1], "status code")
    reason = parts[2] if len(parts) == 3 else ""
    headers = _parse_headers(lines[1:])
    return HttpResponse(status=status, reason=reason, headers=headers, body=body)
