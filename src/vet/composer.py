"""Compositional prover and verifier over whole execution traces.

A trace is authentic when every core invocation and every tool call
carries a valid component proof and the proofs link up: the core's
request embeds the rebuilt transcript prefix byte-for-byte, the core's
parsed output equals the recorded (y, tool calls), and each tool proof
authenticates exactly the (x, r) pair the trace records. A claimed
message is accepted when it appears among the authenticated outputs
(a core output of some step, or a tool input the core emitted).

Calls go through signed sessions: a notarized toy-TLS session or a TEE
proxy log carries many exchanges under one signature. A bundle holds
each session's signed statement or log head once, bare, in its
``sessions`` table, and each component proof names its session by
index. The table has one order, that in which the proofs first name its
sessions; a proof that names a session past the next unopened one is
subproof-invalid. A session's scheme is that of the proof that opens
it, and a proof of another scheme may not name it. The exchange a proof
covers is its place among the session's proofs in invocation order,
which the verifier recomputes, so no position ships.

``SCHEMES`` is the one place that knows the proof systems: it maps each
AID verification scheme to the ``kind`` its proofs carry on the wire,
the payload field naming their session, and two functions. ``open``
checks a session's signature once and returns a ``vet.chain.OpenChain``
over the hash chain it signs, and ``verify`` authenticates the
session's next exchange and chains it on; the chain's ``close``
requires that every signed exchange was consumed. Each raises
``Rejected`` with the scheme's own reason. Adding a scheme means adding
one entry.

Proving (``prove_trace``) re-runs each call of the trace. The composer
renders every request, from the entry's inject template and the
prover's secrets, and parses every response, once per call. A scheme's
prover only groups calls into sessions (``session_key``) and carries
bytes through them: ``open`` starts a run, whose ``add`` sends a
rendered request and whose ``finish`` gives each signed object with
every call's response and payload. A TEE proof ships its raw request,
so the ProxyTEE prover holds no secret. Proving and verifying walk a
trace's invocations in one order (``invocations``), the order of a
bundle's proofs: the i-th proof is the i-th invocation's, and any other
order is subproof-invalid. ``verify_trace`` records what it checked in a
``VerificationReport``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple

from . import tee_proxy, webproof
from .agent_model import (
    ExecutionTrace,
    StepRecord,
    ToolCall,
    transcript_prefixes,
)
from .aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    compute_id,
)
from .canonical import FORMAT, check_format, json_field, refuse_unread
from .chain import OpenChain
from .errors import Rejected, ValidationError
from .templates import (
    ROLE_CORE,
    ROLE_TOOL,
    AuthenticatedExchange,
    TemplateRegistry,
)
from .tee_proxy import TeeProxy
from .webproof import WebProofProver

KIND_WEBPROOF = "webproof"
KIND_TEE = "tee_attestation"


class Scheme(NamedTuple):
    kind: str
    session_field: str
    open: Callable[[dict, ComponentEntry], OpenChain]
    verify: Callable[
        [dict, ComponentEntry, TemplateRegistry, str, OpenChain], AuthenticatedExchange
    ]


SCHEMES = {
    SCHEME_TLS_NOTARY: Scheme(
        KIND_WEBPROOF,
        "signed_statement",
        webproof.open_session,
        webproof.verify_exchange,
    ),
    SCHEME_PROXY_TEE: Scheme(
        KIND_TEE,
        "attestation",
        tee_proxy.open_log,
        tee_proxy.verify_exchange,
    ),
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
        proof = cls(
            kind=json_field(obj, "kind"),
            step_index=json_field(obj, "step_index", int),
            position=json_field(obj, "position"),
            payload=json_field(obj, "payload", object),  # the scheme verifier decodes it
        )
        refuse_unread(obj, ("kind", "step_index", "position", "payload"), "a proof")
        return proof


@dataclass(frozen=True)
class VerifiableExecutionTrace:
    aid_id: str
    trace: ExecutionTrace
    proofs: tuple[ComponentProof, ...]
    sessions: tuple[dict, ...] = ()  # each signed object, in the order proofs first name them

    def to_obj(self) -> dict:
        return {
            "format": FORMAT,
            "aid_id": self.aid_id,
            "trace": self.trace.to_obj(),
            "sessions": list(self.sessions),
            "proofs": [p.to_obj() for p in self.proofs],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "VerifiableExecutionTrace":
        """Decode a bundle of the current format; a bundle of another
        format or of the wrong shape is a ValidationError."""
        check_format(obj, "bundle")
        bundle = cls(
            aid_id=json_field(obj, "aid_id"),
            trace=ExecutionTrace.from_obj(json_field(obj, "trace", dict)),
            proofs=tuple(ComponentProof.from_obj(p) for p in json_field(obj, "proofs", list)),
            sessions=tuple(json_field(obj, "sessions", list)),  # each scheme decodes its own
        )
        refuse_unread(obj, ("format", "aid_id", "trace", "sessions", "proofs"), "the bundle")
        return bundle


@dataclass(frozen=True)
class Invocation:
    """One component call in a trace: a step's core, or one of its tool calls."""

    step: StepRecord
    position: str
    x: str  # the input the call was given
    call: ToolCall | None = None  # None for the core

    @property
    def role(self) -> str:
        return ROLE_CORE if self.call is None else ROLE_TOOL

    @property
    def locator(self) -> str:
        return _locator(self.step.step_index, self.position)

    def entry(self, aid: AgentIdentityDocument) -> ComponentEntry:
        """The AID entry of the called component; ValidationError for a tool the AID lacks."""
        if self.call is not None and self.call.tool_id not in {t.name for t in aid.tools}:
            raise ValidationError(f"tool {self.call.tool_id!r} not in the AID")
        return aid.core if self.call is None else aid.tool(self.call.tool_id)

    def recorded(self) -> AuthenticatedExchange:
        """The exchange the trace records for this call."""
        if self.call is None:
            emitted = tuple((c.tool_id, c.input) for c in self.step.tool_calls)
            return AuthenticatedExchange(self.x, self.step.core_output, emitted)
        return AuthenticatedExchange(self.x, self.call.result, ())

    def claim(self, exchange: AuthenticatedExchange) -> str:
        """A core's output, or the input the core gave a tool."""
        return exchange.value if self.call is None else exchange.x


def invocations(trace: ExecutionTrace) -> Iterator[Invocation]:
    """Every component call of the trace: per step, the core, then each tool call.

    The core's input at each step extends one running transcript prefix."""
    prefixes = transcript_prefixes(trace.initial_input, trace.steps)
    for step, prefix in zip(trace.steps, prefixes):
        yield Invocation(step, POSITION_CORE, prefix.hex())
        for k, call in enumerate(step.tool_calls):
            yield Invocation(step, tool_position(k), call.input, call)


class TeeComponentProver:
    """The prover of ProxyTEE entries: ``proxies`` maps component names to
    the TeeProxy fronting each one's upstream, and the calls to one proxy
    share one log.

    A TEE proof ships its raw request, so this prover holds no secret: a
    ProxyTEE entry whose inject template has a secret slot is refused, as
    the verifier refuses it, and secret-bearing calls go through web
    proofs.
    """

    secrets: dict[str, str] = {}  # always empty, as above

    def __init__(self, proxies: dict[str, TeeProxy], registry: TemplateRegistry):
        self.proxies = dict(proxies)
        self.registry = registry

    def session_key(self, entry: ComponentEntry) -> TeeProxy:
        if entry.name not in self.proxies:
            raise ValidationError(f"no TEE proxy fronts {entry.name!r}")
        return self.proxies[entry.name]

    def open(self, entry: ComponentEntry) -> tee_proxy.ProxyLog:
        return self.proxies[entry.name].open_log()


class WebProofComponentProver:
    """The prover of TLSNotary entries: the calls to one host under one
    notary key share notarized sessions."""

    def __init__(self, prover: WebProofProver):
        self.prover = prover
        self.registry = prover.registry
        self.secrets = prover.secrets

    def session_key(self, entry: ComponentEntry) -> tuple[str, str]:
        return entry.verification.key_string(), entry.host

    def open(self, entry: ComponentEntry) -> webproof.NotarizedRun:
        return webproof.NotarizedRun(self.prover, entry.host)


def prove_trace(
    trace: ExecutionTrace,
    aid: AgentIdentityDocument,
    provers: dict[str, object],
) -> VerifiableExecutionTrace:
    """Generate one component proof per invocation by re-running each call.

    Each call is rendered, and its response parsed, here; the runs that
    provers open carry the bytes (see the module docstring). The parsed
    exchange must be the recorded one, so the components must be
    deterministic for the recorded inputs (the mock servers are). A call
    whose live response does not parse or gives another value, or that
    no prover can make, is a ValidationError naming the invocation.
    """
    runs: dict[tuple, tuple[object, object, list]] = {}
    slots: list[tuple | None] = []  # one per invocation, in invocation order
    for invocation in invocations(trace):
        try:
            entry = invocation.entry(aid)
            scheme = entry.verification.scheme
            if scheme not in provers:
                raise ValidationError(f"no prover available for scheme {scheme!r}")
            prover = provers[scheme]
            key = (scheme, prover.session_key(entry))
            request_bytes, spans = prover.registry.render_call(entry, invocation.x, prover.secrets)
        except ValidationError as exc:
            raise ValidationError(f"{invocation.locator}: {exc}") from None
        if key not in runs:
            runs[key] = (prover, prover.open(entry), [])
        _, run, calls = runs[key]
        run.add(request_bytes, spans, invocation.x)
        calls.append((len(slots), invocation, entry))
        slots.append(None)

    finished: list[dict] = []  # every signed object, in the order the runs give them
    for (scheme, _), (prover, run, calls) in runs.items():
        pending = iter(calls)
        for signed, proven in run.finish():
            finished.append(signed)
            for (response_bytes, payload), (slot, invocation, entry) in zip(proven, pending):
                try:
                    exchange = prover.registry.read_call(
                        entry, invocation.x, response_bytes, invocation.role
                    )
                except (Rejected, ValidationError) as exc:  # the response cannot be read
                    raise ValidationError(f"{invocation.locator}: {exc}") from None
                if exchange != invocation.recorded():
                    raise ValidationError(
                        f"{invocation.locator} no longer reproduces the recorded exchange"
                    )
                slots[slot] = (invocation, SCHEMES[scheme], len(finished) - 1, payload)

    numbers: dict[int, str] = {}  # place in ``finished`` -> index in the bundle, by first use
    proofs = tuple(
        ComponentProof(
            spec.kind,
            invocation.step.step_index,
            invocation.position,
            {**payload, spec.session_field: numbers.setdefault(n, str(len(numbers)))},
        )
        for invocation, spec, n, payload in slots
    )
    return VerifiableExecutionTrace(
        aid_id=compute_id(aid),
        trace=trace,
        proofs=proofs,
        sessions=tuple(finished[n] for n in numbers),
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
    return _first_mismatch(zip(invocations(trace), exchanges)) is None


def _first_mismatch(
    checked: Iterable[tuple[Invocation, AuthenticatedExchange]],
) -> Invocation | None:
    """ValidTrace, in one pass: the first call whose authenticated exchange
    is not the recorded one, or None."""
    return next((inv for inv, exchange in checked if exchange != inv.recorded()), None)


@dataclass
class ComponentCheck:
    """One component proof as ``verify_trace`` checked it.

    ``verdict`` is "ok" or the reason the proof was rejected: the
    scheme's own reason, or "subproof-invalid" for a proof of the wrong
    kind or one that does not decode. ``session`` is the index of the
    session the proof names, once read. ``request_disclosed`` is
    (disclosed, redacted) request bytes, for schemes that can redact.
    """

    step_index: int
    position: str
    kind: str
    verdict: str = ""
    detail: str = ""
    session: int | None = None
    request_disclosed: tuple[int, int] | None = None

    def to_obj(self) -> dict:
        return {"locator": _locator(self.step_index, self.position), **asdict(self)}


@dataclass
class SessionCheck:
    """One session of a bundle as ``verify_trace`` checked it.

    ``signature`` is the verdict of opening it: "ok" once its signature
    and what it binds (key, domain or TEE type) check out, or the reason
    they did not. ``verdict`` is that of closing it: "ok" once its proofs
    chained the signed number of items to the signed head, or the reason.
    ``exchanges`` counts the exchanges its proofs consumed, and
    ``components`` names those proofs.
    """

    index: int
    kind: str
    signature: str = ""
    verdict: str = ""
    exchanges: int = 0
    components: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    """What ``verify_trace`` checked, in order, up to its verdict.

    ``reason`` and ``detail`` are those of the ``Rejected`` it raised,
    and ``reason`` stays None on acceptance; a caller that cannot build
    the verifier sets "malformed" and the error. ``aid_match`` stays False
    until checked. Components after the first rejected one are not
    checked and not listed; sessions are listed as their first component
    opens them.
    """

    aid_match: bool = False
    components: list[ComponentCheck] = field(default_factory=list)
    sessions: list[SessionCheck] = field(default_factory=list)
    reason: str | None = None
    detail: str = ""

    def to_obj(self, claim: str) -> dict:
        """The report on ``claim``: the object ``vet verify/inspect --json`` print."""
        if self.reason is None:
            verdict = {"result": "accept", "claim": claim}
        else:
            verdict = {"result": "reject", "reason": self.reason, "detail": self.detail}
        return {
            **verdict,
            "aid_match": self.aid_match,
            "components": [check.to_obj() for check in self.components],
            "sessions": [check.to_obj() for check in self.sessions],
        }


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

    opened = _OpenSessions(bundle.sessions, report)
    checked: list[tuple[Invocation, AuthenticatedExchange]] = []
    for invocation, proof in zip_longest(invocations(bundle.trace), bundle.proofs):
        if invocation is None:
            raise Rejected("subproof-invalid", f"proof at {proof.locator} matches no invocation")
        if proof is None:
            raise Rejected("subproof-invalid", f"missing proof at {invocation.locator}")
        if proof.locator != invocation.locator:  # one spelling per (step_index, position)
            detail = f"proof at {proof.locator} is out of invocation order"
            raise Rejected("subproof-invalid", f"{detail}: {invocation.locator} comes first")
        j = invocation.step.step_index
        try:
            entry = invocation.entry(aid)
        except ValidationError as exc:
            raise Rejected("transcript-inconsistent", f"step {j}: {exc}") from None
        check = ComponentCheck(j, invocation.position, proof.kind)
        report.components.append(check)
        exchange = _verify_component(proof, entry, registry, invocation.role, check, opened)
        checked.append((invocation, exchange))
    opened.close_all()

    mismatch = _first_mismatch(checked)
    if mismatch is not None:
        raise Rejected("transcript-inconsistent", f"step {mismatch.step.step_index}")

    if m not in {invocation.claim(exchange) for invocation, exchange in checked}:
        raise Rejected("output-not-found", f"{m!r} is not an authenticated output")
    return m


class _OpenSessions:
    """A bundle's sessions, opened in order, each by the first proof that
    names it, under that proof's scheme."""

    def __init__(self, sessions: tuple[dict, ...], report: VerificationReport):
        self.sessions = sessions
        self.report = report
        self.opened: list[tuple[Scheme, OpenChain, SessionCheck]] = []

    def state(self, index: int, scheme: Scheme, entry: ComponentEntry, locator: str) -> OpenChain:
        """The state of session ``index`` for the next proof of ``scheme``,
        opening the session first if no proof has named it yet."""
        if not 0 <= index < len(self.sessions):
            raise Rejected("subproof-invalid", f"session {index} is not in the bundle")
        if index > len(self.opened):
            raise Rejected(
                "subproof-invalid", f"session {index} is named before session {len(self.opened)}"
            )
        if index == len(self.opened):
            check = SessionCheck(index, scheme.kind)
            self.report.sessions.append(check)
            try:
                state = scheme.open(self.sessions[index], entry)
            except Rejected as exc:
                check.signature = exc.reason
                raise
            except ValidationError:
                check.signature = "subproof-invalid"
                raise
            check.signature = "ok"
            self.opened.append((scheme, state, check))
        opener, state, check = self.opened[index]
        if opener is not scheme:
            raise Rejected(
                "subproof-invalid", f"session {index} holds a {opener.kind}, not a {scheme.kind}"
            )
        check.exchanges += 1
        check.components.append(locator)
        return state

    def close_all(self) -> None:
        """Every session must be named by some proof and every exchange consumed."""
        if len(self.opened) < len(self.sessions):
            raise Rejected("subproof-invalid", f"session {len(self.opened)} is named by no proof")
        for index, (_, state, check) in enumerate(self.opened):
            try:
                state.close()
            except Rejected as exc:
                check.verdict = exc.reason
                raise Rejected("subproof-invalid", f"session {index}: {exc.reason}: {exc.detail}")
            check.verdict = "ok"


def _verify_component(
    proof: ComponentProof,
    entry: ComponentEntry,
    registry: TemplateRegistry,
    role: str,
    check: ComponentCheck,
    opened: _OpenSessions,
) -> AuthenticatedExchange:
    """Run the entry's scheme verifier on one proof, as the next exchange
    of the session it names, and record its verdict.

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
        check.session = json_field(proof.payload, scheme.session_field, int)
        state = opened.state(check.session, scheme, entry, proof.locator)
        exchange = scheme.verify(proof.payload, entry, registry, role, state)
    except Rejected as exc:
        check.verdict, check.detail = exc.reason, exc.detail
    except ValidationError as exc:
        check.verdict, check.detail = "subproof-invalid", str(exc)
    else:
        check.verdict, check.request_disclosed = "ok", exchange.request_disclosed
        return exchange
    inner = "" if check.verdict == "subproof-invalid" else f"{check.verdict}: "
    raise Rejected("subproof-invalid", f"{proof.locator}: {inner}{check.detail}")
