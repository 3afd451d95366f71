"""Per-layer spans and counts, recorded by wrappers around ``vet`` calls.

``Tracer.install`` replaces each traced function or method with a wrapper
that times the call and updates counts; ``uninstall`` puts the originals
back, so untraced rounds run the program untouched. A function bound by
``from ... import`` in another module is a separate name for the same
object: every ``vet`` module attribute that *is* the traced function is
replaced, which covers both ``vet.webproof.render`` and
``vet.composer.render``.

Wrappers record only while ``active`` is set, which the harness does
for the timed operation alone, so building worlds and checking outputs
in a traced round add nothing. Calls on other threads (the TCP notary
serves from threads of its own) record whenever the tracer is
installed: they only ever answer the operation's client.

A span's inclusive time is its duration; its self time is that duration
minus the time of the traced calls made inside it on the same thread.
Each thread keeps its own stack.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

from vet import canonical

# (module, function, span name): module-level functions to trace.
FUNCTIONS = (
    ("vet.toytls", "seal_record", "toytls.seal_record"),
    ("vet.toytls", "open_record", "toytls.open_record"),
    ("vet.commitment", "commit", "commitment.commit"),
    ("vet.commitment", "disclose", "commitment.disclose"),
    ("vet.commitment", "verify_disclosure", "commitment.verify_disclosure"),
    ("vet.webproof", "run_session", "webproof.run_session"),
    ("vet.webproof", "authenticate", "webproof.authenticate"),
    ("vet.templates", "render", "templates.render"),
    ("vet.templates", "match_request", "templates.match_request"),
    ("vet.templates", "parse_core", "templates.parse"),
    ("vet.templates", "parse_tool", "templates.parse"),
    ("vet.composer", "prove_trace", "composer.prove_trace"),
    ("vet.composer", "verify_trace", "composer.verify_trace"),
    ("vet.agent_model", "rebuild_transcript", "agent_model.rebuild_transcript"),
    ("vet.agent_model", "run_agent", "agent_model.run_agent"),
    ("vet.tee_proxy", "verify_attestation", "tee_proxy.verify_attestation"),
    ("vet.frames", "write_frame", "frames.write_frame"),
    ("vet.frames", "read_frame", "frames.read_frame"),
    ("vet.keys", "verify_signature", "keys.verify_signature"),
    ("vet.canonical", "canonical_bytes", "canonical.canonical_bytes"),
    ("vet.aid", "compute_id", "aid.compute_id"),
    ("workloads", "encode", "bundle.encode"),
    ("workloads", "decode", "bundle.decode"),
)

# (module, class, method, span name): methods to trace.
METHODS = (
    ("vet.tee_proxy", "TeeProxy", "fetch", "tee_proxy.fetch"),
    ("vet.notary", "NotarySession", "handle", "notary.handle"),
    ("vet.notary", "NotaryService", "open_session", "notary.open_session"),
    ("vet.toytls", "ServerConnection", "handle", "toytls.server"),
    ("vet.keys", "SigningKey", "sign", "keys.sign"),
)

# Factories whose returned bytes -> bytes handler is the stand-in API.
HANDLER_FACTORIES = (
    "make_price_handler",
    "make_sentiment_handler",
    "make_echo_handler",
    "make_core_handler",
)


def _record_bytes(args, result) -> int:
    return len(args[1])


def _opened_bytes(args, result) -> int:
    return len(result)


def _relayed_bytes(args, result) -> int:
    return len(args[1].payload) + sum(len(reply.payload) for reply in result)


# Span name -> (count name, bytes counted per successful call).
BYTE_COUNTS = {
    "toytls.seal_record": ("toytls.record_bytes", _record_bytes),
    "toytls.open_record": ("toytls.record_bytes", _opened_bytes),
    "notary.handle": ("notary.relayed_bytes", _relayed_bytes),
}

# Metric name, unit, and the aggregate it reads: ("ms", span) is
# inclusive time, ("self_ms", span) self time, ("calls", span) the
# number of calls and ("count", name) a counter, all per operation.
LAYER_METRICS = (
    ("toytls.seal_record.ms", "ms", "ms", "toytls.seal_record"),
    ("toytls.open_record.ms", "ms", "ms", "toytls.open_record"),
    ("toytls.record_bytes", "B", "count", "toytls.record_bytes"),
    ("toytls.server.self_ms", "ms", "self_ms", "toytls.server"),
    ("commitment.commit.ms", "ms", "ms", "commitment.commit"),
    ("commitment.disclose.ms", "ms", "ms", "commitment.disclose"),
    ("commitment.verify_disclosure.ms", "ms", "ms", "commitment.verify_disclosure"),
    ("webproof.run_session.self_ms", "ms", "self_ms", "webproof.run_session"),
    ("webproof.authenticate.self_ms", "ms", "self_ms", "webproof.authenticate"),
    ("templates.render.ms", "ms", "ms", "templates.render"),
    ("templates.match_request.ms", "ms", "ms", "templates.match_request"),
    ("templates.parse.ms", "ms", "ms", "templates.parse"),
    ("composer.prove_trace.self_ms", "ms", "self_ms", "composer.prove_trace"),
    ("composer.verify_trace.self_ms", "ms", "self_ms", "composer.verify_trace"),
    ("agent_model.rebuild_transcript.ms", "ms", "ms", "agent_model.rebuild_transcript"),
    ("agent_model.run_agent.ms", "ms", "ms", "agent_model.run_agent"),
    ("tee_proxy.fetch.ms", "ms", "ms", "tee_proxy.fetch"),
    ("tee_proxy.verify_attestation.ms", "ms", "ms", "tee_proxy.verify_attestation"),
    ("notary.handle.self_ms", "ms", "self_ms", "notary.handle"),
    ("notary.sessions", "count", "count", "notary.sessions"),
    ("notary.sessions_refused", "count", "count", "notary.sessions_refused"),
    ("notary.relayed_bytes", "B", "count", "notary.relayed_bytes"),
    ("frames.write_frame.ms", "ms", "ms", "frames.write_frame"),
    ("frames.read_frame.wait_ms", "ms", "ms", "frames.read_frame.client"),
    ("frames.count", "count", "calls", "frames.write_frame"),
    ("keys.sign.ms", "ms", "ms", "keys.sign"),
    ("keys.sign.calls", "count", "calls", "keys.sign"),
    ("keys.verify_signature.ms", "ms", "ms", "keys.verify_signature"),
    ("keys.verify_signature.calls", "count", "calls", "keys.verify_signature"),
    ("canonical.canonical_bytes.ms", "ms", "ms", "canonical.canonical_bytes"),
    ("aid.compute_id.ms", "ms", "ms", "aid.compute_id"),
    ("bundle.encode.ms", "ms", "ms", "bundle.encode"),
    ("bundle.decode.ms", "ms", "ms", "bundle.decode"),
    ("mockserver.handler.ms", "ms", "ms", "mockserver.handler"),
)


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self.active = False
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Spans of the operations being dumped, or None when not recording:
        # (span id, parent id, name, thread, start, end).
        self.spans: list[tuple] | None = None
        self._ids = itertools.count(1)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items() if m and (name == "vet" or name.startswith("vet."))
        ]
        modules.append(sys.modules["workloads"])
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), span))
        mockserver = sys.modules["vet.mockserver"]
        for attr in HANDLER_FACTORIES:
            self._patch(mockserver, attr, self._wrap_factory(getattr(mockserver, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), "mockserver.handler")

        return make

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, span: str):
        tracer = self
        byte_count = BYTE_COUNTS.get(span)
        per_thread = span == "frames.read_frame"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            client = threading.get_ident() == tracer._main
            if client and not tracer.active:
                return fn(*args, **kwargs)
            name = f"{span}.{'client' if client else 'server'}" if per_thread else span
            stack = tracer._stack()
            frame = [name, 0.0, next(tracer._ids)]
            stack.append(frame)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                nested = any(f[0] == name for f in stack)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_time[name] += elapsed - frame[1]
                    if not nested:
                        tracer.inclusive[name] += elapsed
                    if span == "notary.open_session":
                        tracer.counts["notary.sessions_refused" if exc else "notary.sessions"] += 1
                    elif byte_count and exc is None:
                        tracer.counts[byte_count[0]] += byte_count[1](args, result)
                    if tracer.spans is not None:
                        parent = stack[-1][2] if stack else None
                        tracer.spans.append(
                            (frame[2], parent, name, threading.current_thread().name, start, end)
                        )

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reporting --------------------------------------------------------

    def layer_metrics(self, ops: int, component_calls: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per operation, as (value, unit)."""
        out = {}
        for metric, unit, kind, key in LAYER_METRICS:
            if kind == "ms":
                value = self.inclusive[key] * 1e3
            elif kind == "self_ms":
                value = self.self_time[key] * 1e3
            elif kind == "calls":
                value = self.calls[key]
            else:
                value = self.counts[key]
            out[metric] = (value / ops, unit)
        out["mockserver.invocations_per_call"] = (
            self.calls["mockserver.handler"] / component_calls,
            "ratio",
        )
        return out


# Serialized proof fields counted by ``proof_breakdown``, as metric names.
PROOF_PARTS = (
    "proof.path_bytes",
    "proof.salt_bytes",
    "proof.data_bytes",
    "proof.record_key_bytes",
    "proof.statement_bytes",
    "proof.tee_bytes",
)


def proof_breakdown(doc: dict) -> dict[str, int]:
    """Bytes of each proof part in a decoded proof or bundle.

    Hex fields are counted by their serialized length; the statement and
    TEE payloads by their canonical JSON size. What is left of the
    encoded size is JSON structure, the trace and the claims.
    """
    parts = dict.fromkeys(PROOF_PARTS, 0)

    def canonical_size(obj) -> int:
        return len(canonical.canonical_bytes(obj))

    def webproof(proof: dict) -> None:
        for side in ("request_disclosure", "response_disclosure"):
            for chunk in proof[side]["chunks"]:
                parts["proof.path_bytes"] += sum(len(node) for node in chunk["path"])
                parts["proof.salt_bytes"] += len(chunk["salt"])
                parts["proof.data_bytes"] += len(chunk["data"])
        parts["proof.record_key_bytes"] += sum(len(e["key"]) for e in proof["record_keys"])
        parts["proof.statement_bytes"] += canonical_size(proof["signed_statement"])

    if "proofs" not in doc:
        webproof(doc)
        return parts
    for proof in doc["proofs"]:
        if proof["kind"] == "webproof":
            webproof(proof["payload"])
        else:
            parts["proof.tee_bytes"] += canonical_size(proof["payload"])
    return parts
