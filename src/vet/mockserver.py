"""Deterministic mock services: price feed, sentiment, and a scripted LLM.

Every handler is a pure function of (seed, request bytes), so re-running
a recorded call reproduces the recorded answer exactly. That determinism
is what lets prove_trace regenerate proofs for a finished trace: the
components really are re-invoked, and their answers must still match.

Handlers have the signature ``bytes -> bytes`` (full HTTP request in,
full HTTP response out), the same interface TargetServer and TeeProxy
forward to.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Sequence
from urllib.parse import parse_qs, urlparse

from . import frames
from .agent_model import ROLE_CORE, ROLE_TOOL_RESULT, CoreFunction
from .canonical import canonical_loads, json_field, parse_hex
from .errors import ValidationError
from .httpmsg import HttpResponse, parse_request, render_response

JSON_HEADERS = (("Content-Type", "application/json"),)


def _json_response(obj) -> bytes:
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return render_response(HttpResponse(200, "OK", JSON_HEADERS, body))


def _error_response(status: int, reason: str, message: str) -> bytes:
    body = json.dumps({"error": message}).encode("utf-8")
    return render_response(HttpResponse(status, reason, JSON_HEADERS, body))


def _string_field(body: bytes, name: str) -> str | None:
    """Field ``name`` of a JSON object body if it is a string, else None."""
    try:
        return json_field(canonical_loads(body), name)
    except ValidationError:
        return None


def _digest_int(*parts: str) -> int:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") + b"\x00")
    return int.from_bytes(h.digest()[:8], "big")


def make_price_handler(seed: str) -> Callable[[bytes], bytes]:
    """CoinGecko-shaped price endpoint.

    GET /api/v3/simple/price?ids=<coin>&vs_currencies=usd returns
    {"<coin>": {"usd": "<price>"}} with a deterministic price per
    (seed, coin).
    """

    def handler(request_bytes: bytes) -> bytes:
        request = parse_request(request_bytes)
        parsed = urlparse(request.path)
        query = parse_qs(parsed.query)
        coins = query.get("ids", [""])[0]
        if parsed.path != "/api/v3/simple/price" or not coins:
            return _error_response(404, "Not Found", "unknown endpoint")
        out = {}
        for coin in coins.split(","):
            value = _digest_int(seed, "price", coin)
            dollars = 10000 + value % 80000
            cents = (value // 80000) % 100
            out[coin] = {"usd": f"{dollars}.{cents:02d}"}
        return _json_response(out)

    return handler


def make_sentiment_handler(seed: str) -> Callable[[bytes], bytes]:
    """POST /v1/sentiment with body {"query": x} -> {"score": "-1.00".."1.00"}."""

    def handler(request_bytes: bytes) -> bytes:
        request = parse_request(request_bytes)
        if urlparse(request.path).path != "/v1/sentiment":
            return _error_response(404, "Not Found", "unknown endpoint")
        query = _string_field(request.body, "query")
        if query is None:
            return _error_response(400, "Bad Request", "body must be {\"query\": <string>}")
        value = _digest_int(seed, "sentiment", query)
        score = (value % 201 - 100) / 100
        return _json_response({"score": f"{score:.2f}"})

    return handler


def make_echo_handler() -> Callable[[bytes], bytes]:
    """POST body {"message": x} -> {"echo": x}; the smallest useful tool."""

    def handler(request_bytes: bytes) -> bytes:
        request = parse_request(request_bytes)
        message = _string_field(request.body, "message")
        if message is None:
            return _error_response(400, "Bad Request", "body must be {\"message\": <string>}")
        return _json_response({"echo": message})

    return handler


def make_core_handler(core: CoreFunction) -> Callable[[bytes], bytes]:
    """Expose a CoreFunction as the mock LLM endpoint.

    POST /v1/agent with body {"history": "<transcript hex>"} returns
    {"output": y, "calls": [{"tool": t, "input": x}, ...]}.
    """

    def handler(request_bytes: bytes) -> bytes:
        request = parse_request(request_bytes)
        # No string field, not lowercase hex, or frames cut short.
        try:
            output, calls = core(parse_hex(_string_field(request.body, "history"), "history"))
        except ValidationError:
            return _error_response(400, "Bad Request", "body must be {\"history\": <hex>}")
        return _json_response(
            {
                "output": output,
                "calls": [{"tool": t, "input": x} for t, x in calls],
            }
        )

    return handler


def core_via_handler(handler: Callable[[bytes], bytes], template, parse_template) -> CoreFunction:
    """A CoreFunction that round-trips through the HTTP encoding.

    Used by the agent loop so the trace records exactly what the core
    endpoint would say when invoked through a proof system later.
    """
    from .templates import ROLE_CORE as CORE, parse_exchange, render

    def core(transcript: bytes) -> tuple[str, tuple[tuple[str, str], ...]]:
        request_bytes, _ = render(template, transcript.hex(), {})
        return parse_exchange(parse_template, handler(request_bytes), CORE)

    return core


def tool_via_handler(handler: Callable[[bytes], bytes], template, parse_template):
    """A ToolFunction that round-trips through the HTTP encoding."""
    from .templates import parse_tool, render

    def tool(x: str) -> str:
        request_bytes, _ = render(template, x, {})
        return parse_tool(parse_template, handler(request_bytes))

    return tool


def trader_core(seed: str, coin: str = "bitcoin") -> CoreFunction:
    """The trading-demo decision script, as a deterministic core.

    First invocation asks for the coin price and the market sentiment;
    once both results are in the transcript, it emits a serialized trade
    decision and stops. Decision rule: buy on positive sentiment when
    the price is below the seed-determined anchor, sell on negative
    sentiment above it, hold otherwise. The final output is the decision
    object as canonical JSON, which is what the agent's caller treats as
    the claimable message.
    """

    def core(transcript: bytes) -> tuple[str, list[tuple[str, str]]]:
        results = [p for role, p in frames.decode_all(transcript) if role == ROLE_TOOL_RESULT]
        if len(results) < 2:
            return "requesting market data", [("price_feed", coin), ("sentiment", coin)]
        price = float(results[-2].decode("utf-8"))
        sentiment = float(results[-1].decode("utf-8"))
        anchor = 10000 + _digest_int(seed, "mid", coin) % 80000
        if sentiment > 0.1 and price < anchor:
            action, size = "buy", "0.50"
        elif sentiment < -0.1 and price > anchor:
            action, size = "sell", "0.50"
        else:
            action, size = "hold", "0"
        decision = {
            "action": action,
            "asset": coin,
            "size": size,
            "rationale": f"price {price:.2f} vs anchor {anchor}, sentiment {sentiment:.2f}",
        }
        return json.dumps(decision, sort_keys=True, separators=(",", ":")), []

    return core


def scripted_core(
    seed: str, n_steps: int, tool_ids: Sequence[str]
) -> CoreFunction:
    """A randomized-but-deterministic core for completeness tests.

    Behavior depends only on (seed, transcript): for the first
    ``n_steps - 1`` invocations it emits one or two tool calls with
    inputs derived from the transcript hash, then a final output with
    no calls.
    """

    def core(transcript: bytes) -> tuple[str, list[tuple[str, str]]]:
        done = frames.count_type(transcript, ROLE_CORE)
        value = _digest_int(seed, "step", transcript.hex())
        if done >= n_steps - 1:
            return f"final answer {value % 10**6}", []
        n_calls = 1 + value % min(2, len(tool_ids))
        calls = []
        for k in range(n_calls):
            tool = tool_ids[(value >> (8 * k)) % len(tool_ids)]
            calls.append((tool, f"q{(value >> (16 * k)) % 10**6}"))
        return f"thinking {value % 10**6}", calls

    return core
