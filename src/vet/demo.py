"""End-to-end trading demo: two attested data tools plus a notarized core.

One run builds the whole world from a seed: mock price and sentiment
services fronted by a simulated TEE proxy, a scripted LLM core reached
over a notarized channel, an identity document naming all three, the
agent loop, proof generation, and offline verification of the resulting
bundle. The claimable message is the serialized trade decision the core
emitted in its final step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import channel_sim, mockserver
from .agent_model import run_agent
from .aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    VerificationMetadata,
)
from .canonical import canonical_bytes, canonical_loads, json_field
from .composer import (
    TeeComponentProver,
    VerifiableExecutionTrace,
    WebProofComponentProver,
    prove_trace,
    verify_trace,
)
from .errors import ValidationError
from .keys import SigningKey
from .notary import NotaryService
from .templates import TemplateRegistry
from .tee_proxy import TeeProxy, measurement_of
from .toytls import TargetServer
from .webproof import WebProofProver

DEMO_ASSET = "bitcoin"
DEMO_SECRET_NAME = "api_key"


@dataclass(frozen=True)
class TradeDecision:
    action: str
    asset: str
    size: str
    rationale: str

    def __post_init__(self):
        if self.action not in ("buy", "sell", "hold"):
            raise ValidationError(f"unknown action {self.action!r}")

    def to_obj(self) -> dict:
        return {
            "action": self.action,
            "asset": self.asset,
            "size": self.size,
            "rationale": self.rationale,
        }

    def serialized(self) -> str:
        return canonical_bytes(self.to_obj()).decode("utf-8")

    @classmethod
    def from_serialized(cls, text: str) -> "TradeDecision":
        obj = canonical_loads(text)
        return cls(*(json_field(obj, name) for name in ("action", "asset", "size", "rationale")))


def demo_templates() -> tuple[TemplateRegistry, dict[str, str]]:
    """Register the demo's four templates; returns (registry, uids by name)."""
    registry = TemplateRegistry()
    uids = {}
    uids["price_inject"] = registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "GET",
            "path": "/api/v3/simple/price?ids={input}&vs_currencies=usd",
            "headers": [{"name": "Host", "value": "api.coingecko.test"}],
        }
    )
    uids["price_parse"] = registry.register(
        {"type": "parse", "kind": "tool", "output_pointer": "/bitcoin/usd"}
    )
    uids["sentiment_inject"] = registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/sentiment",
            "headers": [{"name": "Host", "value": "sentiment.test"}],
            "body": {"query": ""},
            "input_pointer": "/query",
        }
    )
    uids["sentiment_parse"] = registry.register(
        {"type": "parse", "kind": "tool", "output_pointer": "/score"}
    )
    uids["core_inject"] = registry.register(
        {
            "type": "inject",
            "kind": "core",
            "method": "POST",
            "path": "/v1/agent",
            "headers": [
                {"name": "Host", "value": "llm.test"},
                {"name": "Authorization", "secret": DEMO_SECRET_NAME, "length": "48"},
            ],
            "body": {"history": ""},
            "input_pointer": "/history",
        }
    )
    uids["core_parse"] = registry.register(
        {
            "type": "parse",
            "kind": "core",
            "output_pointer": "/output",
            "calls_pointer": "/calls",
        }
    )
    return registry, uids


@dataclass
class DemoWorld:
    """Everything one seeded demo run needs, wired together in-process."""

    seed: str
    registry: TemplateRegistry
    aid: AgentIdentityDocument
    notary: NotaryService
    proxy: TeeProxy
    core_fn: object
    tools: dict
    secret: str


def build_world(seed: str) -> DemoWorld:
    registry, uids = demo_templates()
    notary_key = SigningKey.from_seed(f"notary:{seed}".encode())
    server_key = SigningKey.from_seed(f"llm-server:{seed}".encode())
    enclave_key = SigningKey.from_seed(f"enclave:{seed}".encode())
    secret = "sk-" + SigningKey.from_seed(f"apikey:{seed}".encode()).public_string[8:48]

    price_handler = mockserver.make_price_handler(seed)
    sentiment_handler = mockserver.make_sentiment_handler(seed)
    core_fn = mockserver.trader_core(seed, DEMO_ASSET)
    core_handler = mockserver.make_core_handler(core_fn)

    llm_server = TargetServer(
        "llm.test", core_handler, server_key, [notary_key.public_string]
    )
    notary_service = NotaryService(notary_key, {"llm.test": llm_server}.__getitem__)

    def upstream(request_bytes: bytes) -> bytes:
        from .httpmsg import parse_request
        from urllib.parse import urlparse

        path = urlparse(parse_request(request_bytes).path).path
        if path.startswith("/api/v3"):
            return price_handler(request_bytes)
        return sentiment_handler(request_bytes)

    proxy = TeeProxy(
        enclave_key,
        upstream,
        tee_type="TDX",
        measurement=measurement_of(registry),
    )

    tee_params = {
        "tee_type": "TDX",
        "enclave_public_key": enclave_key.public_string,
    }
    aid = AgentIdentityDocument(
        agent_name="veritrade-demo",
        core=ComponentEntry(
            name="core",
            endpoint="https://llm.test/v1/agent",
            injection_algorithm_uid=uids["core_inject"],
            parsing_algorithm_uid=uids["core_parse"],
            verification=VerificationMetadata(
                SCHEME_TLS_NOTARY,
                {
                    "protocol_version": "commit-then-key-release/1",
                    "notary_public_key": notary_key.public_string,
                },
            ),
            model="mock-trader-1",
        ),
        tools=(
            ComponentEntry(
                name="price_feed",
                endpoint="https://api.coingecko.test/api/v3/simple/price",
                injection_algorithm_uid=uids["price_inject"],
                parsing_algorithm_uid=uids["price_parse"],
                verification=VerificationMetadata(SCHEME_PROXY_TEE, dict(tee_params)),
            ),
            ComponentEntry(
                name="sentiment",
                endpoint="https://sentiment.test/v1/sentiment",
                injection_algorithm_uid=uids["sentiment_inject"],
                parsing_algorithm_uid=uids["sentiment_parse"],
                verification=VerificationMetadata(SCHEME_PROXY_TEE, dict(tee_params)),
            ),
        ),
    ).with_hash()

    core_template = registry.get_inject(uids["core_inject"])
    core_parse = registry.get_parse(uids["core_parse"])
    price_inject = registry.get_inject(uids["price_inject"])
    price_parse = registry.get_parse(uids["price_parse"])
    sentiment_inject = registry.get_inject(uids["sentiment_inject"])
    sentiment_parse = registry.get_parse(uids["sentiment_parse"])
    tools = {
        "price_feed": mockserver.tool_via_handler(price_handler, price_inject, price_parse),
        "sentiment": mockserver.tool_via_handler(
            sentiment_handler, sentiment_inject, sentiment_parse
        ),
    }
    agent_core = mockserver.core_via_handler(core_handler, core_template, core_parse)
    return DemoWorld(
        seed=seed,
        registry=registry,
        aid=aid,
        notary=notary_service,
        proxy=proxy,
        core_fn=agent_core,
        tools=tools,
        secret=secret,
    )


@dataclass(frozen=True)
class LatencyReport:
    """Modeled end-to-end latency of one authenticated decision."""

    direct: float
    proxied_tools: float
    notarized_core: float
    total_webproof_core: float
    total_tee_core: float


def latency_report(model: channel_sim.CostModel, steps: int, tool_calls: int) -> LatencyReport:
    workload = channel_sim.SessionWorkload(rounds=max(steps, 1))
    direct = channel_sim.direct_latency(workload, model)
    proxied = channel_sim.proxied_latency(workload, model)
    notarized = channel_sim.first_round_latency(workload, model)
    return LatencyReport(
        direct=direct,
        proxied_tools=proxied,
        notarized_core=notarized,
        total_webproof_core=steps * notarized + tool_calls * proxied,
        total_tee_core=steps * proxied + tool_calls * proxied,
    )


@dataclass(frozen=True)
class DemoResult:
    decision: TradeDecision
    bundle: VerifiableExecutionTrace
    aid: AgentIdentityDocument
    registry: TemplateRegistry

    @property
    def latency(self) -> LatencyReport:
        """The modeled latency of this decision. It runs the paper
        calibration (SciPy), so only a caller that prints it pays."""
        model, _ = channel_sim.paper_calibration()
        steps = self.bundle.trace.steps
        return latency_report(model, len(steps), sum(len(s.tool_calls) for s in steps))


def run_demo(seed: str = "0") -> DemoResult:
    """Run the agent, prove the trace and verify the bundle."""
    world = build_world(seed)
    trace = run_agent(world.core_fn, world.tools, f"trade tick for {DEMO_ASSET}", max_steps=4)
    provers = {
        SCHEME_TLS_NOTARY: WebProofComponentProver(
            WebProofProver(
                world.notary,
                world.registry,
                secrets={DEMO_SECRET_NAME: world.secret},
                rng=random.Random(f"demo:{seed}"),
            )
        ),
        SCHEME_PROXY_TEE: TeeComponentProver(
            {"price_feed": world.proxy, "sentiment": world.proxy},
            world.registry,
        ),
    }
    bundle = prove_trace(trace, world.aid, provers)
    decision_text = trace.steps[-1].core_output
    verify_trace(decision_text, bundle, world.aid, world.registry)
    decision = TradeDecision.from_serialized(decision_text)
    return DemoResult(decision=decision, bundle=bundle, aid=world.aid, registry=world.registry)
