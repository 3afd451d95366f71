"""Compositional prover and verifier over whole execution traces.

A trace is authentic when every core invocation and every tool call
carries a valid component proof and the proofs link up: the core's
request embeds the rebuilt transcript prefix byte-for-byte, the core's
parsed output equals the recorded (y, tool calls), and each tool proof
authenticates exactly the (x, r) pair the trace records. A claimed
message is accepted when it appears among the authenticated outputs
(a core output of some step, or a tool input the core emitted).
"""

from __future__ import annotations

from dataclasses import dataclass

from .agent_model import ExecutionTrace, rebuild_transcript
from .aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    compute_id,
)
from .errors import Rejected, ValidationError
from .templates import (
    TemplateRegistry,
    expected_request,
    extract_input,
    first_difference,
    render,
)
from .tee_proxy import ProxyAttestation, TeeProxy, verify_attestation
from .webproof import (
    ROLE_CORE,
    ROLE_TOOL,
    AuthenticatedExchange,
    WebProof,
    WebProofProver,
    authenticate,
)

KIND_WEBPROOF = "webproof"
KIND_TEE = "tee_attestation"

_KIND_FOR_SCHEME = {
    SCHEME_TLS_NOTARY: KIND_WEBPROOF,
    SCHEME_PROXY_TEE: KIND_TEE,
}

POSITION_CORE = "core"


def tool_position(index: int) -> str:
    return f"tool:{index}"


@dataclass(frozen=True)
class ComponentProof:
    kind: str
    step_index: int
    position: str
    payload: dict

    @property
    def locator(self) -> str:
        return f"step:{self.step_index}/{self.position}"

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "step_index": str(self.step_index),
            "position": self.position,
            "payload": self.payload,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ComponentProof":
        return cls(
            kind=obj["kind"],
            step_index=int(obj["step_index"]),
            position=obj["position"],
            payload=obj["payload"],
        )


@dataclass(frozen=True)
class VerifiableExecutionTrace:
    aid_id: str
    trace: ExecutionTrace
    proofs: tuple[ComponentProof, ...]
    claims: tuple[tuple[str, str], ...] = ()  # (value, locator)

    def to_obj(self) -> dict:
        return {
            "aid_id": self.aid_id,
            "trace": self.trace.to_obj(),
            "proofs": [p.to_obj() for p in self.proofs],
            "claims": [{"value": v, "locator": l} for v, l in self.claims],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "VerifiableExecutionTrace":
        return cls(
            aid_id=obj["aid_id"],
            trace=ExecutionTrace.from_obj(obj["trace"]),
            proofs=tuple(ComponentProof.from_obj(p) for p in obj["proofs"]),
            claims=tuple((c["value"], c["locator"]) for c in obj.get("claims", [])),
        )


def core_input(trace: ExecutionTrace, step_index: int) -> str:
    """The core's input string at a step: the transcript prefix, hex-encoded."""
    return rebuild_transcript(trace, step_index).hex()


class TeeComponentProver:
    """Per-scheme prover adapter for ProxyTEE entries.

    ``proxies`` maps component names to the TeeProxy fronting that
    component's upstream.
    """

    def __init__(
        self,
        proxies: dict[str, TeeProxy],
        registry: TemplateRegistry,
        secrets: dict[str, str] | None = None,
    ):
        self.proxies = dict(proxies)
        self.registry = registry
        self.secrets = dict(secrets or {})

    def call(self, entry: ComponentEntry, x: str, role: str) -> tuple[AuthenticatedExchange, dict]:
        template = self.registry.get_inject(entry.injection_algorithm_uid)
        secrets = {name: self.secrets[name] for name in template.secret_names()}
        request_bytes, _ = render(template, x, secrets)
        proxy = self.proxies[entry.name]
        response_bytes, attestation = proxy.fetch(request_bytes)
        payload = {
            "request": request_bytes.hex(),
            "response": response_bytes.hex(),
            "attestation": attestation.to_obj(),
        }
        parse = self.registry.get_parse(entry.parsing_algorithm_uid)
        from .templates import parse_core, parse_tool

        if role == ROLE_CORE:
            y, calls = parse_core(parse, response_bytes)
            return AuthenticatedExchange(x=x, value=y, tool_calls=tuple(calls)), payload
        value = parse_tool(parse, response_bytes)
        return AuthenticatedExchange(x=x, value=value, tool_calls=()), payload


class WebProofComponentProver:
    """Per-scheme prover adapter for TLSNotary entries."""

    def __init__(self, prover: WebProofProver):
        self.prover = prover

    def call(self, entry: ComponentEntry, x: str, role: str) -> tuple[AuthenticatedExchange, dict]:
        exchange, proof = self.prover.call(entry, x, role)
        return exchange, proof.to_obj()


def prove_trace(
    trace: ExecutionTrace,
    aid: AgentIdentityDocument,
    provers: dict[str, object],
) -> VerifiableExecutionTrace:
    """Generate one component proof per invocation by re-running each call.

    Requires the components to be deterministic for the recorded inputs
    (the mock servers are); a live value differing from the trace is a
    proof-generation failure naming the invocation.
    """
    proofs = []
    claims = []
    for step in trace.steps:
        j = step.step_index
        entry = aid.core
        prover = _prover_for(provers, entry)
        exchange, payload = prover.call(entry, core_input(trace, j), ROLE_CORE)
        recorded_calls = tuple((tc.tool_id, tc.input) for tc in step.tool_calls)
        if exchange.value != step.core_output or exchange.tool_calls != recorded_calls:
            raise ValidationError(
                f"core at step {j} no longer reproduces the recorded output"
            )
        proofs.append(
            ComponentProof(
                kind=_KIND_FOR_SCHEME[entry.verification.scheme],
                step_index=j,
                position=POSITION_CORE,
                payload=payload,
            )
        )
        claims.append((step.core_output, f"step:{j}/{POSITION_CORE}"))
        for k, tool_call in enumerate(step.tool_calls):
            entry = aid.tool(tool_call.tool_id)
            prover = _prover_for(provers, entry)
            exchange, payload = prover.call(entry, tool_call.input, ROLE_TOOL)
            if exchange.value != tool_call.result:
                raise ValidationError(
                    f"tool {tool_call.tool_id!r} at step {j} call {k} no longer "
                    f"reproduces the recorded result"
                )
            proofs.append(
                ComponentProof(
                    kind=_KIND_FOR_SCHEME[entry.verification.scheme],
                    step_index=j,
                    position=tool_position(k),
                    payload=payload,
                )
            )
            claims.append((tool_call.input, f"step:{j}/{tool_position(k)}"))
    return VerifiableExecutionTrace(
        aid_id=compute_id(aid),
        trace=trace,
        proofs=tuple(proofs),
        claims=tuple(claims),
    )


def _prover_for(provers: dict[str, object], entry: ComponentEntry):
    scheme = entry.verification.scheme
    if scheme not in provers:
        raise ValidationError(f"no prover available for scheme {scheme!r}")
    return provers[scheme]


@dataclass(frozen=True)
class StepData:
    """Authenticated exchanges for one step, extracted from sub-proofs."""

    core: AuthenticatedExchange
    tools: tuple[AuthenticatedExchange, ...]


def valid_trace(trace: ExecutionTrace, step_data: list[StepData]) -> bool:
    """The ValidTrace predicate over proof-extracted step data."""
    if len(step_data) != len(trace.steps):
        return False
    for step, data in zip(trace.steps, step_data):
        if data.core.x != core_input(trace, step.step_index):
            return False
        if data.core.value != step.core_output:
            return False
        emitted = tuple((tc.tool_id, tc.input) for tc in step.tool_calls)
        if data.core.tool_calls != emitted:
            return False
        if len(data.tools) != len(step.tool_calls):
            return False
        for tool_call, tool_data in zip(step.tool_calls, data.tools):
            if tool_data.x != tool_call.input or tool_data.value != tool_call.result:
                return False
    return True


def _match_tee_request(
    template, request_bytes: bytes
) -> str:
    """Recover x from an attested plaintext request and pin it to the template.

    Bytes inside secret spans are ignored (the proxy saw the real secret;
    the verifier must not require knowing it), everything else must equal
    the deterministic rendering for the extracted x.
    """
    try:
        x = extract_input(template, request_bytes)
    except ValidationError as exc:
        raise Rejected("parse-failure", str(exc))
    expected, secret = expected_request(template, x)
    if len(expected) != len(request_bytes):
        raise Rejected("template-mismatch", "attested request length differs from template")
    differs = first_difference(expected, secret, 0, request_bytes)
    if differs is not None:
        raise Rejected("template-mismatch", f"attested request byte {differs} differs")
    return x


class ComposedVerifier:
    """The verifier instantiated from an AID: offline, anchors from the AID."""

    def __init__(self, aid: AgentIdentityDocument, registry: TemplateRegistry):
        self.aid = aid
        self.registry = registry

    def verify(self, m: str, bundle: VerifiableExecutionTrace) -> str:
        return verify_trace(m, bundle, self.aid, self.registry)


def verify_trace(
    m: str,
    bundle: VerifiableExecutionTrace,
    aid: AgentIdentityDocument,
    registry: TemplateRegistry,
) -> str:
    """Accept m iff it is an authentic output of the traced execution.

    Returns m on acceptance; raises Rejected with one of the reasons
    aid-mismatch, subproof-invalid, transcript-inconsistent,
    output-not-found.
    """
    if bundle.aid_id != compute_id(aid):
        raise Rejected(
            "aid-mismatch",
            f"bundle built for {bundle.aid_id}, document is {compute_id(aid)}",
        )
    trace = bundle.trace

    by_locator: dict[tuple[int, str], ComponentProof] = {}
    for proof in bundle.proofs:
        key = (proof.step_index, proof.position)
        if key in by_locator:
            raise Rejected("subproof-invalid", f"duplicate proof at {proof.locator}")
        by_locator[key] = proof

    step_data: list[StepData] = []
    for step in trace.steps:
        j = step.step_index
        core_proof = by_locator.pop((j, POSITION_CORE), None)
        if core_proof is None:
            raise Rejected("subproof-invalid", f"missing proof at step:{j}/core")
        core_exchange = _verify_subproof(core_proof, aid.core, registry, ROLE_CORE)
        tool_exchanges = []
        for k, tool_call in enumerate(step.tool_calls):
            tool_proof = by_locator.pop((j, tool_position(k)), None)
            if tool_proof is None:
                raise Rejected(
                    "subproof-invalid", f"missing proof at step:{j}/{tool_position(k)}"
                )
            try:
                entry = aid.tool(tool_call.tool_id)
            except KeyError:
                raise Rejected(
                    "transcript-inconsistent",
                    f"step {j}: tool {tool_call.tool_id!r} not in the AID",
                )
            tool_exchanges.append(_verify_subproof(tool_proof, entry, registry, ROLE_TOOL))
        step_data.append(StepData(core=core_exchange, tools=tuple(tool_exchanges)))
    if by_locator:
        extra = next(iter(by_locator.values()))
        raise Rejected("subproof-invalid", f"proof at {extra.locator} matches no invocation")

    if not valid_trace(trace, step_data):
        failing = _first_inconsistent_step(trace, step_data)
        raise Rejected("transcript-inconsistent", f"step {failing}")

    outputs = {data.core.value for data in step_data}
    for data in step_data:
        outputs.update(x for _, x in data.core.tool_calls)
    if m not in outputs:
        raise Rejected("output-not-found", f"{m!r} is not an authenticated output")
    return m


def _verify_subproof(
    proof: ComponentProof,
    entry: ComponentEntry,
    registry: TemplateRegistry,
    role: str,
) -> AuthenticatedExchange:
    try:
        return _authenticate_component(proof, entry, registry, role)
    except Rejected as exc:
        if exc.reason in ("subproof-invalid",):
            raise
        raise Rejected(
            "subproof-invalid", f"{proof.locator}: {exc.reason}: {exc.detail}"
        )
    except (ValidationError, ValueError, KeyError) as exc:
        raise Rejected("subproof-invalid", f"{proof.locator}: {exc}")


def _authenticate_component(
    proof: ComponentProof,
    entry: ComponentEntry,
    registry: TemplateRegistry,
    role: str,
) -> AuthenticatedExchange:
    expected_kind = _KIND_FOR_SCHEME.get(entry.verification.scheme)
    if proof.kind != expected_kind:
        raise Rejected(
            "subproof-invalid",
            f"{proof.locator}: proof kind {proof.kind!r} does not match "
            f"scheme {entry.verification.scheme!r}",
        )
    if proof.kind == KIND_WEBPROOF:
        wp = WebProof.from_obj(proof.payload)
        return authenticate(
            wp,
            notary_public_key=entry.verification.key_string(),
            server_domain=entry.host,
            inject_template=registry.get_inject(entry.injection_algorithm_uid),
            parse_template=registry.get_parse(entry.parsing_algorithm_uid),
            role=role,
        )
    request_bytes = bytes.fromhex(proof.payload["request"])
    response_bytes = bytes.fromhex(proof.payload["response"])
    attestation = ProxyAttestation.from_obj(proof.payload["attestation"])
    template = registry.get_inject(entry.injection_algorithm_uid)
    x = _match_tee_request(template, request_bytes)
    from .templates import parse_core, parse_tool

    parse = registry.get_parse(entry.parsing_algorithm_uid)
    if role == ROLE_CORE:
        y, calls = parse_core(parse, response_bytes)
        verify_attestation(
            y, response_bytes, attestation, entry, registry,
            request_bytes=request_bytes, role=ROLE_CORE,
        )
        return AuthenticatedExchange(x=x, value=y, tool_calls=tuple(calls))
    value = parse_tool(parse, response_bytes)
    verify_attestation(
        value, response_bytes, attestation, entry, registry,
        request_bytes=request_bytes, role=ROLE_TOOL,
    )
    return AuthenticatedExchange(x=x, value=value, tool_calls=())


def _first_inconsistent_step(trace: ExecutionTrace, step_data: list[StepData]) -> int:
    for i, step in enumerate(trace.steps):
        prefix = ExecutionTrace(
            initial_input=trace.initial_input,
            steps=trace.steps[: i + 1],
            truncated=False,
        )
        if not valid_trace(prefix, step_data[: i + 1]):
            return step.step_index
    return len(trace.steps)
