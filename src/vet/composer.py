"""Compositional prover and verifier over whole execution traces.

A trace is authentic when every core invocation and every tool call
carries a valid component proof and the proofs link up: the core's
request embeds the rebuilt transcript prefix byte-for-byte, the core's
parsed output equals the recorded (y, tool calls), and each tool proof
authenticates exactly the (x, r) pair the trace records. A claimed
message is accepted when it appears among the authenticated outputs
(a core output of some step, or a tool input the core emitted).

``SCHEMES`` is the one place that knows the proof systems: it maps each
AID verification scheme to the ``kind`` its component proofs carry on
the wire and to its verifier, a function ``(payload, entry, registry,
role) -> AuthenticatedExchange`` that raises ``Rejected`` with the
scheme's own reason. Adding a scheme means adding one entry. Proving
and verifying walk a trace's invocations in one order (``invocations``),
and ``verify_trace`` records what it checked in a ``VerificationReport``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator

from . import tee_proxy, webproof
from .agent_model import ExecutionTrace, StepRecord, ToolCall, rebuild_transcript
from .aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    compute_id,
)
from .canonical import FORMAT, check_format, json_field
from .errors import Rejected, ValidationError
from .templates import (
    ROLE_CORE,
    ROLE_TOOL,
    AuthenticatedExchange,
    TemplateRegistry,
    parse_exchange,
    render,
)
from .tee_proxy import TeeProxy
from .webproof import WebProofProver

KIND_WEBPROOF = "webproof"
KIND_TEE = "tee_attestation"


@dataclass(frozen=True)
class Scheme:
    kind: str
    verify: Callable[[dict, ComponentEntry, TemplateRegistry, str], AuthenticatedExchange]


SCHEMES = {
    SCHEME_TLS_NOTARY: Scheme(KIND_WEBPROOF, webproof.verify_component),
    SCHEME_PROXY_TEE: Scheme(KIND_TEE, tee_proxy.verify_component),
}

POSITION_CORE = "core"


def tool_position(index: int) -> str:
    return f"tool:{index}"


def _locator(step_index: int, position: str) -> str:
    return f"step:{step_index}/{position}"


@dataclass(frozen=True)
class ComponentProof:
    kind: str
    step_index: int
    position: str
    payload: dict

    @property
    def locator(self) -> str:
        return _locator(self.step_index, self.position)

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
            kind=json_field(obj, "kind"),
            step_index=json_field(obj, "step_index", int),
            position=json_field(obj, "position"),
            payload=json_field(obj, "payload", object),  # the scheme verifier decodes it
        )


@dataclass(frozen=True)
class VerifiableExecutionTrace:
    aid_id: str
    trace: ExecutionTrace
    proofs: tuple[ComponentProof, ...]
    claims: tuple[tuple[str, str], ...] = ()  # (value, locator)

    def to_obj(self) -> dict:
        return {
            "format": FORMAT,
            "aid_id": self.aid_id,
            "trace": self.trace.to_obj(),
            "proofs": [p.to_obj() for p in self.proofs],
            "claims": [{"value": v, "locator": l} for v, l in self.claims],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "VerifiableExecutionTrace":
        """Decode a bundle of the current format; a bundle of another
        format or of the wrong shape is a ValidationError."""
        check_format(obj, "bundle")
        return cls(
            aid_id=json_field(obj, "aid_id"),
            trace=ExecutionTrace.from_obj(json_field(obj, "trace", dict)),
            proofs=tuple(ComponentProof.from_obj(p) for p in json_field(obj, "proofs", list)),
            claims=tuple(
                (json_field(c, "value"), json_field(c, "locator"))
                for c in json_field(obj, "claims", list, [])
            ),
        )


def core_input(trace: ExecutionTrace, step_index: int) -> str:
    """The core's input string at a step: the transcript prefix, hex-encoded."""
    return rebuild_transcript(trace, step_index).hex()


@dataclass(frozen=True)
class Invocation:
    """One component call in a trace: a step's core, or one of its tool calls."""

    trace: ExecutionTrace
    step: StepRecord
    position: str
    call: ToolCall | None = None  # None for the core

    @property
    def role(self) -> str:
        return ROLE_CORE if self.call is None else ROLE_TOOL

    @property
    def locator(self) -> str:
        return _locator(self.step.step_index, self.position)

    def entry(self, aid: AgentIdentityDocument) -> ComponentEntry:
        """The AID entry of the called component; KeyError for an unknown tool."""
        return aid.core if self.call is None else aid.tool(self.call.tool_id)

    def recorded(self) -> AuthenticatedExchange:
        """The exchange the trace records for this call."""
        if self.call is None:
            emitted = tuple((c.tool_id, c.input) for c in self.step.tool_calls)
            return AuthenticatedExchange(
                core_input(self.trace, self.step.step_index), self.step.core_output, emitted
            )
        return AuthenticatedExchange(self.call.input, self.call.result, ())

    def claim(self, exchange: AuthenticatedExchange) -> str:
        """A core's output, or the input the core gave a tool."""
        return exchange.value if self.call is None else exchange.x


def invocations(trace: ExecutionTrace) -> Iterator[Invocation]:
    """Every component call of the trace: per step, the core, then each tool call."""
    for step in trace.steps:
        yield Invocation(trace, step, POSITION_CORE)
        for k, call in enumerate(step.tool_calls):
            yield Invocation(trace, step, tool_position(k), call)


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
        response_bytes, attestation = self.proxies[entry.name].fetch(request_bytes)
        payload = tee_proxy.component_payload(request_bytes, response_bytes, attestation)
        parse = self.registry.get_parse(entry.parsing_algorithm_uid)
        return AuthenticatedExchange(x, *parse_exchange(parse, response_bytes, role)), payload


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
    for invocation in invocations(trace):
        entry = invocation.entry(aid)
        scheme = entry.verification.scheme
        if scheme not in provers:
            raise ValidationError(f"no prover available for scheme {scheme!r}")
        recorded = invocation.recorded()
        exchange, payload = provers[scheme].call(entry, recorded.x, invocation.role)
        if exchange != recorded:
            raise ValidationError(
                f"{invocation.locator} no longer reproduces the recorded exchange"
            )
        proofs.append(
            ComponentProof(
                kind=SCHEMES[scheme].kind,
                step_index=invocation.step.step_index,
                position=invocation.position,
                payload=payload,
            )
        )
        claims.append((invocation.claim(recorded), invocation.locator))
    return VerifiableExecutionTrace(
        aid_id=compute_id(aid),
        trace=trace,
        proofs=tuple(proofs),
        claims=tuple(claims),
    )


@dataclass(frozen=True)
class StepData:
    """Authenticated exchanges for one step, extracted from sub-proofs."""

    core: AuthenticatedExchange
    tools: tuple[AuthenticatedExchange, ...]


def valid_trace(trace: ExecutionTrace, step_data: list[StepData]) -> bool:
    """The ValidTrace predicate over proof-extracted step data."""
    if len(step_data) != len(trace.steps):
        return False
    exchanges = []
    for step, data in zip(trace.steps, step_data):
        if len(data.tools) != len(step.tool_calls):
            return False
        # A tool exchange is compared by its input and result alone.
        exchanges += (data.core, *(replace(t, tool_calls=()) for t in data.tools))
    return all(
        exchange == invocation.recorded()
        for invocation, exchange in zip(invocations(trace), exchanges)
    )


@dataclass
class ComponentCheck:
    """One component proof as ``verify_trace`` checked it.

    ``verdict`` is "ok" or the reason the proof was rejected: the
    scheme's own reason, or "subproof-invalid" for a proof of the wrong
    kind or one that does not decode. ``request_disclosed`` is
    (disclosed, redacted) request bytes, for schemes that can redact.
    """

    step_index: int
    position: str
    kind: str
    verdict: str = ""
    detail: str = ""
    request_disclosed: tuple[int, int] | None = None

    def to_obj(self) -> dict:
        return {"locator": _locator(self.step_index, self.position), **asdict(self)}


@dataclass
class VerificationReport:
    """What ``verify_trace`` checked, in order, up to its verdict.

    ``reason`` and ``detail`` are those of the ``Rejected`` it raised,
    and ``reason`` stays None on acceptance. Components after the first
    rejected one are not checked and not listed.
    """

    aid_match: bool = False
    components: list[ComponentCheck] = field(default_factory=list)
    reason: str | None = None
    detail: str = ""


class ComposedVerifier:
    """The verifier instantiated from an AID: offline, anchors from the AID."""

    def __init__(self, aid: AgentIdentityDocument, registry: TemplateRegistry):
        self.aid = aid
        self.registry = registry

    def verify(
        self,
        m: str,
        bundle: VerifiableExecutionTrace,
        report: VerificationReport | None = None,
    ) -> str:
        return verify_trace(m, bundle, self.aid, self.registry, report)


def verify_trace(
    m: str,
    bundle: VerifiableExecutionTrace,
    aid: AgentIdentityDocument,
    registry: TemplateRegistry,
    report: VerificationReport | None = None,
) -> str:
    """Accept m iff it is an authentic output of the traced execution.

    Returns m on acceptance; raises Rejected with one of the reasons
    aid-mismatch, subproof-invalid, transcript-inconsistent,
    output-not-found. When ``report`` is given, it is filled with what
    was checked and the verdict.
    """
    if report is None:
        report = VerificationReport()
    try:
        return _verify_trace(m, bundle, aid, registry, report)
    except Rejected as exc:
        report.reason, report.detail = exc.reason, exc.detail
        raise


def _verify_trace(
    m: str,
    bundle: VerifiableExecutionTrace,
    aid: AgentIdentityDocument,
    registry: TemplateRegistry,
    report: VerificationReport,
) -> str:
    aid_id = compute_id(aid)
    report.aid_match = bundle.aid_id == aid_id
    if not report.aid_match:
        raise Rejected(
            "aid-mismatch", f"bundle built for {bundle.aid_id}, document is {aid_id}"
        )

    by_locator: dict[tuple[int, str], ComponentProof] = {}
    for proof in bundle.proofs:
        key = (proof.step_index, proof.position)
        if key in by_locator:
            raise Rejected("subproof-invalid", f"duplicate proof at {proof.locator}")
        by_locator[key] = proof

    checked: list[tuple[Invocation, AuthenticatedExchange]] = []
    for invocation in invocations(bundle.trace):
        j = invocation.step.step_index
        proof = by_locator.pop((j, invocation.position), None)
        if proof is None:
            raise Rejected("subproof-invalid", f"missing proof at {invocation.locator}")
        if invocation.call and invocation.call.tool_id not in {t.name for t in aid.tools}:
            raise Rejected(
                "transcript-inconsistent",
                f"step {j}: tool {invocation.call.tool_id!r} not in the AID",
            )
        entry = invocation.entry(aid)
        check = ComponentCheck(j, invocation.position, proof.kind)
        report.components.append(check)
        exchange = _verify_component(proof, entry, registry, invocation.role, check)
        checked.append((invocation, exchange))
    if by_locator:
        extra = next(iter(by_locator.values()))
        raise Rejected("subproof-invalid", f"proof at {extra.locator} matches no invocation")

    # ValidTrace, in one pass: the first call whose authenticated exchange
    # differs from the recorded one names the inconsistent step.
    for invocation, exchange in checked:
        if exchange != invocation.recorded():
            raise Rejected("transcript-inconsistent", f"step {invocation.step.step_index}")

    if m not in {invocation.claim(exchange) for invocation, exchange in checked}:
        raise Rejected("output-not-found", f"{m!r} is not an authenticated output")
    return m


def _verify_component(
    proof: ComponentProof,
    entry: ComponentEntry,
    registry: TemplateRegistry,
    role: str,
    check: ComponentCheck,
) -> AuthenticatedExchange:
    """Run the entry's scheme verifier on one proof and record its verdict.

    Any failure is a subproof-invalid reject naming the locator and the
    scheme's own reason.
    """
    scheme = SCHEMES.get(entry.verification.scheme)
    try:
        if scheme is None or proof.kind != scheme.kind:
            raise Rejected(
                "subproof-invalid",
                f"proof kind {proof.kind!r} does not match "
                f"scheme {entry.verification.scheme!r}",
            )
        exchange = scheme.verify(proof.payload, entry, registry, role)
    except Rejected as exc:
        check.verdict, check.detail = exc.reason, exc.detail
    except ValidationError as exc:
        check.verdict, check.detail = "subproof-invalid", str(exc)
    else:
        check.verdict, check.request_disclosed = "ok", exchange.request_disclosed
        return exchange
    inner = "" if check.verdict == "subproof-invalid" else f"{check.verdict}: "
    raise Rejected("subproof-invalid", f"{proof.locator}: {inner}{check.detail}")
