"""The four workloads: world builders, the timed operation and its checks.

One operation is prove (ending with the canonical-JSON bytes of the proof
or bundle), then verify (starting from those bytes). Worlds are built
outside the timed region. Every call into ``vet`` goes through a module
attribute at call time (``composer.prove_trace(...)``), so the wrappers
that ``tracing`` installs see it.

The correctness checks compare against values computed here, apart from
the program (hashlib, struct, json and the ``cryptography`` Ed25519 API),
or against properties the method must have (a tampered proof is
rejected, a secret never appears in a proof).
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import threading
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from vet import (
    agent_model,
    aid,
    canonical,
    composer,
    demo,
    errors,
    keys,
    mockserver,
    notary,
    tee_proxy,
    templates,
    toytls,
    webproof,
)

NOTARY_PROTOCOL = "commit-then-key-release/1"
SECRET_NAME = "api_key"
# Printable ASCII that JSON encodes as itself, so a message of n
# characters is n bytes in the request and in the echoed response.
MESSAGE_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,:;-_+=*!?()[]"
)
# The reason a notary gives when it refuses a session at its session cap.
SESSION_LIMIT_REFUSAL = "notary rejected session: session limit reached"


class CheckFailed(Exception):
    """A program output disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def encode(obj) -> bytes:
    """The bundle or proof as canonical JSON: the last step of prove."""
    return canonical.canonical_bytes(obj.to_obj())


def decode(data: bytes) -> dict:
    """Canonical JSON back to a document: the first step of verify."""
    return canonical.canonical_loads(data)


def rejects(verify, *args) -> str | None:
    """The reject reason ``verify(*args)`` raises, or None if it accepts."""
    try:
        verify(*args)
    except errors.Rejected as exc:
        return exc.reason
    return None


def make_message(seed: str, length: int) -> str:
    rng = random.Random(f"message:{seed}")
    return "".join(rng.choice(MESSAGE_ALPHABET) for _ in range(length))


def make_secret(seed: str) -> str:
    return "sk-" + hashlib.sha256(f"secret:{seed}".encode()).hexdigest()[:40]


def check_secret_absent(secret: str, encoded: bytes, where: str) -> None:
    raw = secret.encode()
    require(
        raw not in encoded and raw.hex().encode() not in encoded,
        f"{where}: the secret appears in the proof, raw or hex-encoded",
    )


def notarized_entry(name, endpoint, inject_uid, parse_uid, notary_key) -> aid.ComponentEntry:
    return aid.ComponentEntry(
        name=name,
        endpoint=endpoint,
        injection_algorithm_uid=inject_uid,
        parsing_algorithm_uid=parse_uid,
        verification=aid.VerificationMetadata(
            aid.SCHEME_TLS_NOTARY,
            {
                "protocol_version": NOTARY_PROTOCOL,
                "notary_public_key": notary_key.public_string,
            },
        ),
    )


def echo_templates(registry, secret_length: int | None) -> tuple[str, str]:
    """Register an echo tool's inject and parse templates."""
    headers = [{"name": "Host", "value": "echo.test"}]
    if secret_length:
        headers.append({"name": "X-Api-Key", "secret": SECRET_NAME, "length": str(secret_length)})
    inject_uid = registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/echo",
            "headers": headers,
            "body": {"message": ""},
            "input_pointer": "/message",
        }
    )
    parse_uid = registry.register({"type": "parse", "kind": "tool", "output_pointer": "/echo"})
    return inject_uid, parse_uid


def plaintext_bytes(doc: dict) -> int:
    """Request plus response bytes of the exchanges a proof or bundle covers."""
    if "proofs" not in doc:
        return sum(
            int(doc[part]["total_length"])
            for part in ("request_commitment", "response_commitment")
        )
    total = 0
    for proof in doc["proofs"]:
        if proof["kind"] == composer.KIND_WEBPROOF:
            total += plaintext_bytes(proof["payload"])
        else:
            total += (len(proof["payload"]["request"]) + len(proof["payload"]["response"])) // 2
    return total


class Workload:
    """A workload's inputs from its seed, and defaults for its rounds.

    Subclasses set ``name``, ``ops_per_round`` and ``modules`` (what the
    set-up imports) and define ``build``, ``prove``, ``verify`` and
    ``check``.
    """

    name: str
    ops_per_round: int

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> list[str]:
        """One seed string per operation of a round."""
        return [f"{self.name}:{self.seed}:{i}" for i in range(self.ops_per_round)]

    def start_round(self):
        return None

    def end_round(self, context) -> None:
        pass

    def expected_failure(self, exc: BaseException) -> bool:
        return False


@dataclass
class Outcome:
    """What one operation leaves for its checks and its metrics."""

    encoded: bytes
    doc: dict
    component_calls: int
    value: str


# ---------------------------------------------------------------------------
# veritrade: the paper's trading agent, one world per decision.


def trading_rule(seed: str, coin: str) -> dict:
    """The decision, from the mock price, sentiment and anchor formulas.

    Each formula hashes the NUL-terminated parts with SHA-256 and reads
    the first 8 bytes big-endian: price = 10000 + v % 80000 dollars and
    (v // 80000) % 100 cents; sentiment = (v % 201 - 100) / 100 with two
    decimals; anchor = 10000 + v % 80000. Buy on sentiment > 0.1 below
    the anchor, sell on sentiment < -0.1 above it, hold otherwise.
    """

    def value(*parts: str) -> int:
        data = b"".join(p.encode() + b"\x00" for p in parts)
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    v = value(seed, "price", coin)
    price = float(f"{10000 + v % 80000}.{(v // 80000) % 100:02d}")
    sentiment = float(f"{(value(seed, 'sentiment', coin) % 201 - 100) / 100:.2f}")
    anchor = 10000 + value(seed, "mid", coin) % 80000
    if sentiment > 0.1 and price < anchor:
        action, size = "buy", "0.50"
    elif sentiment < -0.1 and price > anchor:
        action, size = "sell", "0.50"
    else:
        action, size = "hold", "0"
    return {
        "action": action,
        "asset": coin,
        "size": size,
        "rationale": f"price {price:.2f} vs anchor {anchor}, sentiment {sentiment:.2f}",
    }


class VeriTrade(Workload):
    name = "veritrade"
    modules = ("vet", "vet.demo")
    ops_per_round = 16

    def build(self, context, world_seed: str):
        world = demo.build_world(world_seed)
        provers = {
            aid.SCHEME_TLS_NOTARY: composer.WebProofComponentProver(
                webproof.WebProofProver(
                    world.notary,
                    world.registry,
                    secrets={demo.DEMO_SECRET_NAME: world.secret},
                    rng=random.Random(f"demo:{world_seed}"),
                )
            ),
            aid.SCHEME_PROXY_TEE: composer.TeeComponentProver(
                {"price_feed": world.proxy, "sentiment": world.proxy}, world.registry
            ),
        }
        return world, provers

    def prove(self, built):
        world, provers = built
        trace = agent_model.run_agent(
            world.core_fn, world.tools, f"trade tick for {demo.DEMO_ASSET}", max_steps=4
        )
        return encode(composer.prove_trace(trace, world.aid, provers)), trace

    def verify(self, built, encoded: bytes, trace) -> Outcome:
        world, _ = built
        doc = decode(encoded)
        bundle = composer.VerifiableExecutionTrace.from_obj(doc)
        claim = trace.steps[-1].core_output
        value = composer.verify_trace(claim, bundle, world.aid, world.registry)
        calls = sum(1 + len(step.tool_calls) for step in trace.steps)
        return Outcome(encoded, doc, calls, value)

    def check(self, built, outcome: Outcome, trace, full: bool) -> None:
        world, _ = built
        expected = trading_rule(world.seed, demo.DEMO_ASSET)
        require(
            json.loads(outcome.value) == expected,
            f"{world.seed}: decision {outcome.value} != {expected}",
        )
        check_secret_absent(world.secret, outcome.encoded, world.seed)
        if full:
            flipped = dict(expected, action="sell" if expected["action"] == "buy" else "buy")
            bundle = composer.VerifiableExecutionTrace.from_obj(outcome.doc)
            reason = rejects(
                composer.verify_trace,
                canonical.canonical_bytes(flipped).decode(),
                bundle,
                world.aid,
                world.registry,
            )
            require(reason == "output-not-found", f"{world.seed}: flipped claim gave {reason}")


# ---------------------------------------------------------------------------
# webproof-large: one notarized 48 KiB echo with a secret header.


@dataclass
class EchoWorld:
    registry: templates.TemplateRegistry
    entry: aid.ComponentEntry
    service: notary.NotaryService
    secret: str
    message: str
    rng: random.Random


def echo_world(world_seed: str, message_length: int) -> EchoWorld:
    registry = templates.TemplateRegistry()
    inject_uid, parse_uid = echo_templates(registry, secret_length=48)
    notary_key = keys.SigningKey.from_seed(f"notary:{world_seed}")
    server_key = keys.SigningKey.from_seed(f"echo-server:{world_seed}")
    server = toytls.TargetServer(
        "echo.test", mockserver.make_echo_handler(), server_key, [notary_key.public_string]
    )
    return EchoWorld(
        registry=registry,
        entry=notarized_entry("echo", "https://echo.test/v1/echo", inject_uid, parse_uid, notary_key),
        service=notary.NotaryService(notary_key, {"echo.test": server}.__getitem__),
        secret=make_secret(world_seed),
        message=make_message(world_seed, message_length),
        rng=random.Random(f"prover:{world_seed}"),
    )


def render_echo(world: EchoWorld) -> tuple[bytes, list[tuple[int, int]]]:
    template = world.registry.get_inject(world.entry.injection_algorithm_uid)
    request, spans = templates.render(template, world.message, {SECRET_NAME: world.secret})
    return request, sorted(spans.values())


def verify_echo(world: EchoWorld, encoded: bytes) -> Outcome:
    doc = decode(encoded)
    value = webproof.verify_webproof(
        world.message, webproof.WebProof.from_obj(doc), world.entry, webproof.ROLE_TOOL, world.registry
    )
    return Outcome(encoded, doc, 1, value)


def check_echo(world: EchoWorld, outcome: Outcome) -> None:
    require(outcome.value == world.message, "the authenticated value is not the message")
    check_secret_absent(world.secret, outcome.encoded, "echo")


class WebProofLarge(Workload):
    name = "webproof-large"
    modules = ("vet",)
    ops_per_round = 4
    message_length = 48 * 1024

    def build(self, context, world_seed: str) -> EchoWorld:
        return echo_world(world_seed, self.message_length)

    def prove(self, world: EchoWorld):
        request, spans = render_echo(world)
        channel = webproof.provision_channel(world.service, "echo.test", rng=world.rng)
        _, proof = webproof.run_session(
            channel, request, secret_spans=spans, rng=world.rng, claims={"input": world.message}
        )
        return encode(proof), None

    def verify(self, world: EchoWorld, encoded: bytes, state) -> Outcome:
        return verify_echo(world, encoded)

    def check(self, world: EchoWorld, outcome: Outcome, state, full: bool) -> None:
        check_echo(world, outcome)
        if not full:
            return
        for what, mutate in (("disclosed byte", flip_disclosed_byte), ("record key", flip_record_key)):
            doc = decode(outcome.encoded)
            mutate(doc)
            reason = rejects(
                webproof.verify_webproof,
                world.message,
                webproof.WebProof.from_obj(doc),
                world.entry,
                webproof.ROLE_TOOL,
                world.registry,
            )
            require(reason is not None, f"a flipped {what} was accepted")


def _flip_hex(text: str, index: int) -> str:
    raw = bytearray(bytes.fromhex(text))
    raw[index] ^= 0x01
    return raw.hex()


def flip_disclosed_byte(doc: dict) -> None:
    chunks = doc["response_disclosure"]["chunks"]
    chunk = chunks[len(chunks) // 2]
    chunk["data"] = _flip_hex(chunk["data"], 0)


def flip_record_key(doc: dict) -> None:
    entry = doc["record_keys"][0]
    entry["key"] = _flip_hex(entry["key"], 0)


# ---------------------------------------------------------------------------
# trace-deep: a scripted core over 32 steps, one world per trace.


def framed_transcript(trace: dict, upto_step: int) -> bytes:
    """The core's input at a step, framed with ``>BI`` role/length headers."""

    def frame(role: int, text: str) -> bytes:
        payload = text.encode("utf-8")
        return struct.pack(">BI", role, len(payload)) + payload

    parts = [frame(1, trace["initial_input"])]
    for step in trace["steps"][:upto_step]:
        parts.append(frame(2, step["core_output"]))
        for call in step["tool_calls"]:
            parts += [frame(3, call["tool"]), frame(4, call["input"]), frame(5, call["result"])]
    return b"".join(parts)


@dataclass
class ScriptedWorld:
    seed: str
    registry: templates.TemplateRegistry
    aid: aid.AgentIdentityDocument
    core_fn: object
    tools: dict
    provers: dict
    secret: str


class TraceDeep(Workload):
    name = "trace-deep"
    modules = ("vet", "vet.mockserver", "vet.tee_proxy")
    ops_per_round = 4
    steps = 32

    def build(self, context, world_seed: str) -> ScriptedWorld:
        registry = templates.TemplateRegistry()
        core_inject = registry.register(
            {
                "type": "inject",
                "kind": "core",
                "method": "POST",
                "path": "/v1/agent",
                "headers": [
                    {"name": "Host", "value": "llm.test"},
                    {"name": "Authorization", "secret": SECRET_NAME, "length": "48"},
                ],
                "body": {"history": ""},
                "input_pointer": "/history",
            }
        )
        core_parse = registry.register(
            {"type": "parse", "kind": "core", "output_pointer": "/output", "calls_pointer": "/calls"}
        )
        tool_inject, tool_parse = echo_templates(registry, secret_length=None)
        notary_key = keys.SigningKey.from_seed(f"notary:{world_seed}")
        server_key = keys.SigningKey.from_seed(f"llm-server:{world_seed}")
        enclave_key = keys.SigningKey.from_seed(f"enclave:{world_seed}")
        core_handler = mockserver.make_core_handler(
            mockserver.scripted_core(world_seed, self.steps, ["echo"])
        )
        echo_handler = mockserver.make_echo_handler()
        llm_server = toytls.TargetServer(
            "llm.test", core_handler, server_key, [notary_key.public_string]
        )
        service = notary.NotaryService(notary_key, {"llm.test": llm_server}.__getitem__)
        proxy = tee_proxy.TeeProxy(
            enclave_key, echo_handler, measurement=tee_proxy.measurement_of(registry)
        )
        document = aid.AgentIdentityDocument(
            agent_name=f"trace-deep-{world_seed}",
            core=notarized_entry("core", "https://llm.test/v1/agent", core_inject, core_parse, notary_key),
            tools=(
                aid.ComponentEntry(
                    name="echo",
                    endpoint="https://echo.test/v1/echo",
                    injection_algorithm_uid=tool_inject,
                    parsing_algorithm_uid=tool_parse,
                    verification=aid.VerificationMetadata(
                        aid.SCHEME_PROXY_TEE,
                        {"tee_type": "TDX", "enclave_public_key": enclave_key.public_string},
                    ),
                ),
            ),
        ).with_hash()
        secret = make_secret(world_seed)
        return ScriptedWorld(
            seed=world_seed,
            registry=registry,
            aid=document,
            core_fn=mockserver.core_via_handler(
                core_handler, registry.get_inject(core_inject), registry.get_parse(core_parse)
            ),
            tools={
                "echo": mockserver.tool_via_handler(
                    echo_handler, registry.get_inject(tool_inject), registry.get_parse(tool_parse)
                )
            },
            provers={
                aid.SCHEME_TLS_NOTARY: composer.WebProofComponentProver(
                    webproof.WebProofProver(
                        service,
                        registry,
                        secrets={SECRET_NAME: secret},
                        rng=random.Random(f"prover:{world_seed}"),
                    )
                ),
                aid.SCHEME_PROXY_TEE: composer.TeeComponentProver({"echo": proxy}, registry),
            },
            secret=secret,
        )

    def prove(self, world: ScriptedWorld):
        trace = agent_model.run_agent(world.core_fn, world.tools, "begin", max_steps=self.steps)
        return encode(composer.prove_trace(trace, world.aid, world.provers)), trace

    def verify(self, world: ScriptedWorld, encoded: bytes, trace) -> Outcome:
        doc = decode(encoded)
        bundle = composer.VerifiableExecutionTrace.from_obj(doc)
        claim = trace.steps[-1].core_output
        value = composer.verify_trace(claim, bundle, world.aid, world.registry)
        return Outcome(encoded, doc, len(bundle.proofs), value)

    def check(self, world: ScriptedWorld, outcome: Outcome, trace, full: bool) -> None:
        doc = outcome.doc
        steps = doc["trace"]["steps"]
        require(len(steps) == self.steps, f"{world.seed}: {len(steps)} steps, want {self.steps}")
        tool_calls = sum(len(step["tool_calls"]) for step in steps)
        require(
            len(doc["proofs"]) == len(steps) + tool_calls,
            f"{world.seed}: {len(doc['proofs'])} proofs for {len(steps)} steps "
            f"and {tool_calls} tool calls",
        )
        for proof in doc["proofs"]:
            if proof["position"] != composer.POSITION_CORE:
                continue
            j = int(proof["step_index"])
            claimed = proof["payload"]["claims"]["input"]
            require(
                claimed == framed_transcript(doc["trace"], j).hex(),
                f"{world.seed}: core input at step {j} is not the framed transcript",
            )
        check_secret_absent(world.secret, outcome.encoded, world.seed)
        if full:
            tampered = decode(outcome.encoded)
            middle = next(
                step for step in tampered["trace"]["steps"][len(steps) // 2:] if step["tool_calls"]
            )
            middle["tool_calls"][0]["result"] += "!"
            reason = rejects(
                composer.verify_trace,
                trace.steps[-1].core_output,
                composer.VerifiableExecutionTrace.from_obj(tampered),
                world.aid,
                world.registry,
            )
            require(reason is not None, f"{world.seed}: a tampered tool result was accepted")


# ---------------------------------------------------------------------------
# notary-tcp: a notary served on loopback, ~1 KB sessions one after another.


@dataclass
class NotaryRound:
    server: notary.NotaryTCPServer
    world: EchoWorld


class NotaryTcp(Workload):
    """A round starts a notary built as ``vet notary serve`` builds it.

    The notary keeps the defaults of that command (64 KiB capacities,
    at most 64 sessions) and relays to an echo server. A round runs more
    sessions than the session cap, so while the cap counts every session
    ever opened, the same sessions of every round are refused.
    """

    name = "notary-tcp"
    modules = ("vet",)
    ops_per_round = 80
    message_length = 1024

    def start_round(self) -> NotaryRound:
        # One notary and server key per round; each session brings its
        # own message, secret and prover randomness (see build).
        world = echo_world(f"notary-tcp:{self.seed}", self.message_length)
        server = notary.serve(world.service)
        return NotaryRound(server, world)

    def end_round(self, context: NotaryRound) -> None:
        context.server.shutdown()
        context.server.server_close()
        # Handler threads finish their last frame after the client has
        # moved on; wait for them so no work spills into the next round.
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(timeout=10)

    def build(self, context: NotaryRound, session_seed: str) -> tuple[NotaryRound, EchoWorld]:
        base = context.world
        world = EchoWorld(
            registry=base.registry,
            entry=base.entry,
            service=base.service,
            secret=make_secret(session_seed),
            message=make_message(session_seed, self.message_length),
            rng=random.Random(f"prover:{session_seed}"),
        )
        return context, world

    def prove(self, built):
        context, world = built
        host, port = context.server.server_address
        request, spans = render_echo(world)
        channel = webproof.TCPChannel(
            host, port, "echo.test", 1 << 16, 1 << 16, world.rng.randbytes(16).hex()
        )
        _, proof = webproof.run_session(
            channel, request, secret_spans=spans, rng=world.rng, claims={"input": world.message}
        )
        return encode(proof), None

    def verify(self, built, encoded: bytes, state) -> Outcome:
        _, world = built
        return verify_echo(world, encoded)

    def check(self, built, outcome: Outcome, state, full: bool) -> None:
        _, world = built
        check_echo(world, outcome)
        signed = outcome.doc["signed_statement"]
        notary_key = world.entry.verification.key_string()
        message = json.dumps(
            signed["statement"], sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        public = Ed25519PublicKey.from_public_bytes(bytes.fromhex(notary_key.split(":", 1)[1]))
        try:
            public.verify(bytes.fromhex(signed["notary_signature"]), message)
        except InvalidSignature:
            raise CheckFailed("statement signature does not verify under the notary key")

    def expected_failure(self, exc: BaseException) -> bool:
        """A refused session is the one failure this workload may show."""
        return isinstance(exc, errors.ProtocolError) and str(exc) == SESSION_LIMIT_REFUSAL


WORKLOADS = {w.name: w for w in (VeriTrade, WebProofLarge, TraceDeep, NotaryTcp)}
