import random

import pytest

from conftest import count_calls, session_field, session_kind
from vet import demo, keys, mockserver, templates
from vet.agent_model import ExecutionTrace, StepRecord, ToolCall, rebuild_transcript, run_agent
from vet.aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    ComponentEntry,
    VerificationMetadata,
    compute_id,
)
from vet.composer import (
    KIND_TEE,
    ComponentProof,
    ComposedVerifier,
    StepData,
    TeeComponentProver,
    VerifiableExecutionTrace,
    VerificationReport,
    WebProofComponentProver,
    invocations,
    prove_trace,
    valid_trace,
    verify_trace,
)
from vet.errors import Rejected, ValidationError
from vet.keys import SigningKey
from vet.notary import NotaryService
from vet.tee_proxy import TeeProxy, measurement_of
from vet.templates import TemplateRegistry
from vet.toytls import TargetServer
from vet.webproof import AuthenticatedExchange, WebProofProver


class ScriptedWorld:
    """Notarized scripted core plus one TEE-attested echo tool."""

    def __init__(self, seed, n_steps=2, cap_up=1 << 16, cap_down=1 << 16):
        self.registry = TemplateRegistry()
        core_inject = self.registry.register(
            {
                "type": "inject",
                "kind": "core",
                "method": "POST",
                "path": "/v1/agent",
                "headers": [{"name": "Host", "value": "llm.test"}],
                "body": {"history": ""},
                "input_pointer": "/history",
            }
        )
        core_parse = self.registry.register(
            {
                "type": "parse",
                "kind": "core",
                "output_pointer": "/output",
                "calls_pointer": "/calls",
            }
        )
        tool_inject = self.registry.register(
            {
                "type": "inject",
                "kind": "tool",
                "method": "POST",
                "path": "/v1/echo",
                "headers": [{"name": "Host", "value": "echo.test"}],
                "body": {"message": ""},
                "input_pointer": "/message",
            }
        )
        tool_parse = self.registry.register(
            {"type": "parse", "kind": "tool", "output_pointer": "/echo"}
        )
        notary_key = SigningKey.from_seed(f"cw-notary:{seed}")
        server_key = SigningKey.from_seed(f"cw-server:{seed}")
        enclave_key = SigningKey.from_seed(f"cw-enclave:{seed}")
        core_fn = mockserver.scripted_core(seed, n_steps, ["echo"])
        core_handler = mockserver.make_core_handler(core_fn)
        echo_handler = mockserver.make_echo_handler()
        llm_server = TargetServer(
            "llm.test", core_handler, server_key, [notary_key.public_string]
        )
        self.notary = NotaryService(
            notary_key, {"llm.test": llm_server}.__getitem__, max_sessions=10**6
        )
        self.proxy = TeeProxy(
            enclave_key, echo_handler, measurement=measurement_of(self.registry)
        )
        self.aid = AgentIdentityDocument(
            agent_name=f"scripted-{seed}",
            core=ComponentEntry(
                name="core",
                endpoint="https://llm.test/v1/agent",
                injection_algorithm_uid=core_inject,
                parsing_algorithm_uid=core_parse,
                verification=VerificationMetadata(
                    SCHEME_TLS_NOTARY,
                    {
                        "protocol_version": "commit-then-key-release/1",
                        "notary_public_key": notary_key.public_string,
                    },
                ),
            ),
            tools=(
                ComponentEntry(
                    name="echo",
                    endpoint="https://echo.test/v1/echo",
                    injection_algorithm_uid=tool_inject,
                    parsing_algorithm_uid=tool_parse,
                    verification=VerificationMetadata(
                        SCHEME_PROXY_TEE,
                        {
                            "tee_type": "TDX",
                            "enclave_public_key": enclave_key.public_string,
                        },
                    ),
                ),
            ),
        ).with_hash()
        core_template = self.registry.get_inject(core_inject)
        core_parse_t = self.registry.get_parse(core_parse)
        self.core_fn = mockserver.core_via_handler(
            core_handler, core_template, core_parse_t
        )
        self.tools = {"echo": lambda x: f"echo:{x}"[:0] + _echo_value(echo_handler, x)}
        self.provers = {
            SCHEME_TLS_NOTARY: WebProofComponentProver(
                WebProofProver(
                    self.notary,
                    self.registry,
                    cap_up=cap_up,
                    cap_down=cap_down,
                    rng=random.Random(seed),
                )
            ),
            SCHEME_PROXY_TEE: TeeComponentProver({"echo": self.proxy}, self.registry),
        }

    def run(self, max_steps=4):
        trace = run_agent(self.core_fn, self.tools, "begin", max_steps=max_steps)
        bundle = prove_trace(trace, self.aid, self.provers)
        return trace, bundle


def _echo_value(handler, x):
    import json

    from vet.httpmsg import parse_response

    body = json.dumps({"message": x}).encode()
    request = b"POST /v1/echo HTTP/1.1\r\nHost: echo.test\r\nContent-Length: %d\r\n\r\n" % len(body)
    request += body
    return json.loads(parse_response(handler(request)).body)["echo"]


@pytest.fixture(scope="module")
def scripted():
    world = ScriptedWorld("composer", n_steps=2)
    trace, bundle = world.run()
    return world, trace, bundle


def test_completeness_over_seeds():
    for i in range(5):
        world = ScriptedWorld(f"seed-{i}", n_steps=2)
        trace, bundle = world.run()
        m = trace.steps[-1].core_output
        assert verify_trace(m, bundle, world.aid, world.registry) == m


def test_all_claimable_outputs_accepted(scripted):
    world, trace, bundle = scripted
    for step in trace.steps:
        verify_trace(step.core_output, bundle, world.aid, world.registry)
        for call in step.tool_calls:
            verify_trace(call.input, bundle, world.aid, world.registry)
    # Tool results are not claimable; they are inputs to the core, not
    # outputs the agent produced.
    claimable = {s.core_output for s in trace.steps}
    claimable.update(c.input for s in trace.steps for c in s.tool_calls)
    for unclaimed in ("never said this", trace.initial_input):
        if unclaimed in claimable:
            continue
        with pytest.raises(Rejected) as err:
            verify_trace(unclaimed, bundle, world.aid, world.registry)
        assert err.value.reason == "output-not-found"


def test_composed_verifier_wrapper(scripted):
    world, trace, bundle = scripted
    verifier = ComposedVerifier(world.aid, world.registry)
    assert verifier.verify(trace.steps[-1].core_output, bundle)


def test_bundle_obj_round_trip(scripted):
    world, trace, bundle = scripted
    clone = VerifiableExecutionTrace.from_obj(bundle.to_obj())
    verify_trace(trace.steps[-1].core_output, clone, world.aid, world.registry)


def test_core_input_is_transcript_hex(scripted):
    # Each step's core invocation takes the transcript prefix, hex-encoded.
    _, trace, _ = scripted
    cores = [i.x for i in invocations(trace) if i.call is None]
    assert cores == [rebuild_transcript(trace, j).hex() for j in range(len(trace.steps))]


def test_aid_mismatch(scripted):
    world, trace, bundle = scripted
    other = ScriptedWorld("other-world", n_steps=2)
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, bundle, other.aid, other.registry)
    assert err.value.reason == "aid-mismatch"


def _rebuild(bundle, trace=None, proofs=None):
    return VerifiableExecutionTrace(
        aid_id=bundle.aid_id,
        trace=trace or bundle.trace,
        proofs=tuple(proofs if proofs is not None else bundle.proofs),
        sessions=bundle.sessions,
    )


def test_missing_and_extra_proofs(scripted):
    world, trace, bundle = scripted
    m = trace.steps[-1].core_output
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=bundle.proofs[1:]), world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=bundle.proofs[:-1]), world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == f"missing proof at {bundle.proofs[-1].locator}"

    extra = ComponentProof(
        kind=bundle.proofs[0].kind,
        step_index=99,
        position="core",
        payload=bundle.proofs[0].payload,
    )
    with pytest.raises(Rejected) as err:
        verify_trace(
            m, _rebuild(bundle, proofs=bundle.proofs + (extra,)), world.aid, world.registry
        )
    assert err.value.reason == "subproof-invalid"

    duplicated = bundle.proofs + (bundle.proofs[0],)
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=duplicated), world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == f"proof at {bundle.proofs[0].locator} matches no invocation"

    # A duplicate before the end is simply out of place.
    duplicated = bundle.proofs[:1] * 2 + bundle.proofs[1:]
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=duplicated), world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == (
        f"proof at {bundle.proofs[0].locator} is out of invocation order: "
        f"{bundle.proofs[1].locator} comes first"
    )


@pytest.mark.parametrize(
    "order",
    [[0, 2, 1, 3], [3, 2, 1, 0]],
    ids=["two-swapped", "reversed"],
)
def test_proofs_out_of_invocation_order_are_rejected(demo_result, order):
    # Each proof is moved intact, its locator with it: a bundle has one
    # order of proofs, and the first proof out of place is named.
    bundle = demo_result.bundle
    locators = [p.locator for p in bundle.proofs]
    assert locators == ["step:0/core", "step:0/tool:0", "step:0/tool:1", "step:1/core"]
    m = bundle.trace.steps[-1].core_output
    first = next(i for i, k in enumerate(order) if k != i)
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(
            m, _rebuild(bundle, proofs=[bundle.proofs[k] for k in order]),
            demo_result.aid, demo_result.registry, report,
        )
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == (
        f"proof at {locators[order[first]]} is out of invocation order: "
        f"{locators[first]} comes first"
    )
    # The proofs in place before it were checked; the one out of place was not.
    assert [c.to_obj()["locator"] for c in report.components] == locators[:first]


def _swap_cores(bundle):
    """The bundle with the first two core proofs swapped between steps. If
    they name two sessions, those swap places too, so that the sessions
    stay in the order the proofs first name them."""
    proofs = list(bundle.proofs)
    cores = [i for i, p in enumerate(proofs) if p.position == "core"]
    assert len(cores) >= 2
    i, j = cores[0], cores[1]
    a, b = (proofs[k].payload["signed_statement"] for k in (i, j))
    proofs[i], proofs[j] = (
        ComponentProof(
            proofs[j].kind, proofs[i].step_index, "core", dict(proofs[j].payload, signed_statement=a)
        ),
        ComponentProof(
            proofs[i].kind, proofs[j].step_index, "core", dict(proofs[i].payload, signed_statement=b)
        ),
    )
    sessions = list(bundle.sessions)
    sessions[int(a)], sessions[int(b)] = sessions[int(b)], sessions[int(a)]
    return VerifiableExecutionTrace(bundle.aid_id, bundle.trace, tuple(proofs), tuple(sessions))


def _core_request_lengths(bundle):
    return [
        int(p.payload["request_commitment"]["total_length"])
        for p in bundle.proofs
        if p.position == "core"
    ]


def test_subproof_substitution(scripted):
    world, trace, bundle = scripted
    m = trace.steps[-1].core_output
    # Both core calls went through one notarized session, so the swapped
    # proofs chain their records in the wrong order, and the session's
    # chain misses the signed head.
    with pytest.raises(Rejected) as err:
        verify_trace(m, _swap_cores(bundle), world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == (
        "session 0: cipher-mismatch: the records do not chain to the signed head"
    )

    # With sessions of one core call each, each swapped proof is valid in
    # isolation but authenticates the wrong transcript prefix.
    alone = ScriptedWorld("composer", n_steps=2, cap_up=max(_core_request_lengths(bundle)))
    trace, bundle = alone.run()
    assert [session_kind(s) for s in bundle.sessions].count("webproof") == 2
    with pytest.raises(Rejected) as err:
        verify_trace(m, _swap_cores(bundle), alone.aid, alone.registry)
    assert err.value.reason == "transcript-inconsistent"


def test_trace_field_mutation(scripted):
    world, trace, bundle = scripted
    m = trace.steps[-1].core_output
    # Change a recorded tool result; proofs no longer match the trace.
    step0 = trace.steps[0]
    call = step0.tool_calls[0]
    mutated_steps = (
        StepRecord(
            0,
            step0.core_output,
            (ToolCall(call.tool_id, call.input, call.result + "!"),)
            + step0.tool_calls[1:],
        ),
    ) + trace.steps[1:]
    mutated = ExecutionTrace(trace.initial_input, mutated_steps)
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, trace=mutated), world.aid, world.registry)
    assert err.value.reason in ("transcript-inconsistent", "subproof-invalid")


def test_unknown_tool_in_trace(scripted):
    world, trace, bundle = scripted
    step0 = trace.steps[0]
    call = step0.tool_calls[0]
    mutated_steps = (
        StepRecord(
            0,
            step0.core_output,
            (ToolCall("ghost", call.input, call.result),) + step0.tool_calls[1:],
        ),
    ) + trace.steps[1:]
    mutated = ExecutionTrace(trace.initial_input, mutated_steps)
    with pytest.raises(Rejected) as err:
        verify_trace(
            trace.steps[-1].core_output,
            _rebuild(bundle, trace=mutated),
            world.aid,
            world.registry,
        )
    assert err.value.reason == "transcript-inconsistent"


def test_valid_trace_predicate(scripted):
    _, trace, _ = scripted
    honest = []
    for step in trace.steps:
        honest.append(
            StepData(
                core=AuthenticatedExchange(
                    x=rebuild_transcript(trace, step.step_index).hex(),
                    value=step.core_output,
                    tool_calls=tuple((c.tool_id, c.input) for c in step.tool_calls),
                ),
                tools=tuple(
                    AuthenticatedExchange(x=c.input, value=c.result, tool_calls=())
                    for c in step.tool_calls
                ),
            )
        )
    assert valid_trace(trace, honest)
    wrong_x = [
        StepData(
            core=AuthenticatedExchange("deadbeef", d.core.value, d.core.tool_calls),
            tools=d.tools,
        )
        for d in honest
    ]
    assert not valid_trace(trace, wrong_x)
    assert not valid_trace(trace, honest[:-1])


def test_prove_trace_detects_nondeterminism(scripted):
    world, trace, _ = scripted
    step0 = trace.steps[0]
    lied = ExecutionTrace(
        trace.initial_input,
        (StepRecord(0, step0.core_output + " (edited)", step0.tool_calls),)
        + trace.steps[1:],
    )
    with pytest.raises(ValidationError):
        prove_trace(lied, world.aid, world.provers)


def test_prove_trace_names_a_live_response_that_does_not_parse(scripted):
    world, trace, _ = scripted
    busy = TeeProxy(world.proxy.signing_key, lambda request: b"HTTP/1.1 503 Busy\r\n\r\n")
    provers = {**world.provers, SCHEME_PROXY_TEE: TeeComponentProver({"echo": busy}, world.registry)}
    with pytest.raises(
        ValidationError, match="^step:0/tool:0: parse-failure: non-200 status 503$"
    ):
        prove_trace(trace, world.aid, provers)


def test_prove_trace_requires_prover(scripted):
    world, trace, _ = scripted
    with pytest.raises(ValidationError, match="^step:0/core: no prover available"):
        prove_trace(trace, world.aid, {})


def test_prove_trace_names_a_tool_the_aid_lacks(scripted):
    world, trace, _ = scripted
    step0 = trace.steps[0]
    call = step0.tool_calls[0]
    ghost = ExecutionTrace(
        trace.initial_input,
        (StepRecord(0, step0.core_output, (ToolCall("ghost", call.input, call.result),)),)
        + trace.steps[1:],
    )
    with pytest.raises(ValidationError, match="^step:0/tool:0: tool 'ghost' not in the AID$"):
        prove_trace(ghost, world.aid, world.provers)


def _demo_provers(world, secrets, proxies):
    return {
        SCHEME_TLS_NOTARY: WebProofComponentProver(
            WebProofProver(world.notary, world.registry, secrets=secrets)
        ),
        SCHEME_PROXY_TEE: TeeComponentProver(
            {name: world.proxy for name in proxies}, world.registry
        ),
    }


@pytest.fixture(scope="module")
def demo_run():
    world = demo.build_world("0")
    trace = run_agent(world.core_fn, world.tools, "trade tick for bitcoin", max_steps=4)
    return world, trace


def _locator_of(trace, tool_id):
    return next(
        f"step:{s.step_index}/tool:{k}"
        for s in trace.steps
        for k, c in enumerate(s.tool_calls)
        if c.tool_id == tool_id
    )


def test_prove_trace_names_a_secret_the_prover_lacks(demo_run):
    world, trace = demo_run
    provers = _demo_provers(world, {}, ["price_feed", "sentiment"])
    with pytest.raises(ValidationError, match="^step:0/core: no secret 'api_key' is held"):
        prove_trace(trace, world.aid, provers)


def test_prove_trace_names_a_tee_tool_without_a_proxy(demo_run):
    world, trace = demo_run
    provers = _demo_provers(world, {demo.DEMO_SECRET_NAME: world.secret}, ["price_feed"])
    locator = _locator_of(trace, "sentiment")
    with pytest.raises(ValidationError, match=f"^{locator}: no TEE proxy fronts 'sentiment'$"):
        prove_trace(trace, world.aid, provers)


def test_tee_template_with_a_secret_slot_is_refused(demo_run):
    # A TEE proof ships its raw request, so a secret rendered into it
    # would be published: the call is refused before the proxy sees it.
    from dataclasses import replace

    world, trace = demo_run
    price = world.registry.get_inject(world.aid.tool("price_feed").injection_algorithm_uid)
    uid = world.registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": price.method,
            "path": price.path,
            "headers": [*price.headers, {"name": "X-Key", "secret": "api_key", "length": "48"}],
        }
    )
    tools = tuple(
        replace(t, injection_algorithm_uid=uid) if t.name == "price_feed" else t
        for t in world.aid.tools
    )
    aid = replace(world.aid, tools=tools).with_hash()
    provers = _demo_provers(
        world, {demo.DEMO_SECRET_NAME: world.secret}, ["price_feed", "sentiment"]
    )
    forwarded = []
    proxy = TeeProxy(world.proxy.signing_key, lambda r: forwarded.append(r) or b"")
    provers[SCHEME_PROXY_TEE].proxies["price_feed"] = proxy
    locator = _locator_of(trace, "price_feed")
    # The TEE prover holds no secret to render into it.
    with pytest.raises(ValidationError, match=f"^{locator}: no secret 'api_key' is held for "):
        prove_trace(trace, aid, provers)
    assert forwarded == []


def test_tee_proof_of_a_secret_slot_is_rejected_in_a_bundle():
    # The prover refuses such a call, so the bundle is built by hand: the
    # echo tool's template gains a secret header, and the tool calls go
    # through a log of the proxy with the secret rendered into them.
    from dataclasses import replace

    world = ScriptedWorld("tee-secret", n_steps=2)
    trace, bundle = world.run()
    echo = world.aid.tool("echo")
    uid = world.registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "POST",
            "path": "/v1/echo",
            "headers": [
                {"name": "Host", "value": "echo.test"},
                {"name": "X-Api-Key", "secret": "api_key", "length": "16"},
            ],
            "body": {"message": ""},
            "input_pointer": "/message",
        }
    )
    aid = replace(world.aid, tools=(replace(echo, injection_algorithm_uid=uid),)).with_hash()
    log = world.proxy.open_log()
    for invocation in invocations(trace):
        if invocation.call is not None:
            request, spans = world.registry.render_call(
                aid.tool("echo"), invocation.x, {"api_key": "TOPSECRET"}
            )
            log.add(request, spans, invocation.x)
    [(signed, proven)] = log.finish()
    assert all(b"TOPSECRET" in bytes.fromhex(payload["request"]) for _, payload in proven)
    index = next(i for i, s in enumerate(bundle.sessions) if session_kind(s) == KIND_TEE)
    payloads = iter({**payload, "attestation": str(index)} for _, payload in proven)
    proofs = [replace(p, payload=next(payloads)) if p.kind == KIND_TEE else p for p in bundle.proofs]
    sessions = list(bundle.sessions)
    sessions[index] = signed
    forged = VerifiableExecutionTrace(
        aid_id=compute_id(aid), trace=trace, proofs=tuple(proofs), sessions=tuple(sessions)
    )
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, forged, aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == (
        "step:0/tool:0: template-mismatch: a ProxyTEE request is public, "
        "but its template has secret 'api_key'"
    )


def test_tee_request_the_template_cannot_render_is_rejected_in_a_bundle():
    # The echo tool's template takes its input in a path slot, and the
    # attested requests, built by hand, put "{x}" there: the verifier
    # names the template mismatch inside the bundle's verdict.
    from dataclasses import replace

    world = ScriptedWorld("tee-path", n_steps=2)
    trace, bundle = world.run()
    echo = world.aid.tool("echo")
    uid = world.registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "GET",
            "path": "/v1/echo?message={input}",
            "headers": [{"name": "Host", "value": "echo.test"}],
        }
    )
    aid = replace(world.aid, tools=(replace(echo, injection_algorithm_uid=uid),)).with_hash()
    log = world.proxy.open_log()
    request = b"GET /v1/echo?message={x} HTTP/1.1\r\nHost: echo.test\r\n\r\n"
    for invocation in invocations(trace):
        if invocation.call is not None:
            log.add(request, [], invocation.x)
    [(signed, proven)] = log.finish()
    index = next(i for i, s in enumerate(bundle.sessions) if session_kind(s) == KIND_TEE)
    payloads = iter({**payload, "attestation": str(index)} for _, payload in proven)
    proofs = [replace(p, payload=next(payloads)) if p.kind == KIND_TEE else p for p in bundle.proofs]
    sessions = list(bundle.sessions)
    sessions[index] = signed
    forged = VerifiableExecutionTrace(
        aid_id=compute_id(aid), trace=trace, proofs=tuple(proofs), sessions=tuple(sessions)
    )
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, forged, aid, world.registry)
    assert (err.value.reason, err.value.detail) == (
        "subproof-invalid",
        "step:0/tool:0: template-mismatch: input '{x}' not encodable in a path slot",
    )


def test_prove_trace_renders_and_parses_each_call_once(monkeypatch, scripted):
    world, trace, bundle = scripted
    renders = count_calls(monkeypatch, templates.render)
    parses = count_calls(monkeypatch, templates.parse_exchange)
    again = prove_trace(trace, world.aid, world.provers)
    calls = sum(1 + len(step.tool_calls) for step in trace.steps)
    assert len(renders) == len(parses) == len(again.proofs) == calls
    # Each proof kind keeps its payload members.
    assert {(p.kind, frozenset(p.payload)) for p in again.proofs} == {
        (
            "webproof",
            frozenset({
                "record_keys", "request_commitment", "request_disclosure",
                "withheld_tags", "down_lengths", "response_commitment",
                "response_disclosure", "claims", "signed_statement",
            }),
        ),
        ("tee_attestation", frozenset({"request", "response", "attestation"})),
    }


def test_attestation_from_other_tee_type_rejected():
    # The enclave key is the one the AID names, but the proxy declares
    # no TEE at all and an arbitrary measurement.
    world = ScriptedWorld("tee-type", n_steps=2)
    rogue = TeeProxy(
        world.proxy.signing_key,
        world.proxy.upstream,
        tee_type="NONE",
        measurement="sha256:" + "ab" * 32,
    )
    world.provers[SCHEME_PROXY_TEE] = TeeComponentProver({"echo": rogue}, world.registry)
    trace, bundle = world.run()
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, bundle, world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert "bad-signature" in err.value.detail and "'NONE'" in err.value.detail


def test_report_lists_checked_components(scripted):
    world, trace, bundle = scripted
    report = VerificationReport()
    m = trace.steps[-1].core_output
    assert verify_trace(m, bundle, world.aid, world.registry, report) == m
    assert report.aid_match and report.reason is None
    checked = [(c.step_index, c.position) for c in report.components]
    assert checked == [(p.step_index, p.position) for p in bundle.proofs]
    assert {c.verdict for c in report.components} == {"ok"}
    for check in report.components:
        if check.kind == "webproof":
            disclosed, redacted = check.request_disclosed
            assert disclosed > 0 and redacted == 0
        else:
            assert check.request_disclosed is None

    # A rejected component is the last one listed, with the scheme's
    # reason: here a proof that withholds a public request record's key.
    proofs = list(bundle.proofs)
    k = [i for i, p in enumerate(proofs) if p.kind == "webproof"][1]
    keys = [entry for entry in proofs[k].payload["record_keys"] if entry["direction"] != "up"]
    payload = dict(proofs[k].payload, record_keys=keys)
    proofs[k] = ComponentProof(proofs[k].kind, proofs[k].step_index, proofs[k].position, payload)
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=proofs), world.aid, world.registry, report)
    assert (report.reason, report.detail) == (err.value.reason, err.value.detail)
    checked = [(c.step_index, c.position) for c in report.components]
    assert checked == [(p.step_index, p.position) for p in proofs[: k + 1]]
    assert report.components[-1].verdict == "template-mismatch"

    # A flipped response key gives its record another tag, which is caught
    # when the notarized session closes: the records no longer chain to
    # the signed head. Every component is listed, and the session carries
    # the scheme's reason.
    proofs = list(bundle.proofs)
    keys = [dict(entry) for entry in proofs[k].payload["record_keys"]]
    assert keys[0]["direction"] == "down"
    keys[0]["key"] = ("0" if keys[0]["key"][0] != "0" else "1") + keys[0]["key"][1:]
    payload = dict(proofs[k].payload, record_keys=keys)
    proofs[k] = ComponentProof(proofs[k].kind, proofs[k].step_index, proofs[k].position, payload)
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=proofs), world.aid, world.registry, report)
    assert {c.verdict for c in report.components} == {"ok"}
    (notarized,) = [s for s in report.sessions if s.kind == "webproof"]
    assert (notarized.signature, notarized.verdict) == ("ok", "cipher-mismatch")
    assert err.value.detail == (
        f"session {notarized.index}: cipher-mismatch: the records do not chain to the signed head"
    )

    # A TEE response that still parses is caught when its log closes: the
    # exchanges no longer chain to the signed head. Every component is
    # listed, and the session carries the scheme's reason.
    proofs = list(bundle.proofs)
    k = next(i for i, p in enumerate(proofs) if p.kind == "tee_attestation")
    response = bytes.fromhex(proofs[k].payload["response"])
    at = response.index(b'"echo":"') + len(b'"echo":"')
    forged = response[:at] + b"Y" + response[at + 1:]
    assert forged != response
    payload = dict(proofs[k].payload, response=forged.hex())
    proofs[k] = ComponentProof(proofs[k].kind, proofs[k].step_index, proofs[k].position, payload)
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(bundle, proofs=proofs), world.aid, world.registry, report)
    assert (report.reason, report.detail) == (err.value.reason, err.value.detail)
    assert len(report.components) == len(proofs)
    assert {c.verdict for c in report.components} == {"ok"}
    (tee,) = [s for s in report.sessions if s.kind == "tee_attestation"]
    assert (tee.signature, tee.verdict) == ("ok", "hash-mismatch")
    assert err.value.detail.startswith(f"session {tee.index}: hash-mismatch: ")


def test_calls_share_one_session_per_component_scheme(scripted):
    world, trace, bundle = scripted
    assert [session_kind(s) for s in bundle.sessions] == ["webproof", "tee_attestation"]
    report = VerificationReport()
    verify_trace(trace.steps[-1].core_output, bundle, world.aid, world.registry, report)
    by_kind = {s.kind: s for s in report.sessions}
    assert set(by_kind) == {"webproof", "tee_attestation"}
    for check in report.components:
        session = by_kind[check.kind]
        assert check.session == session.index
        assert f"step:{check.step_index}/{check.position}" in session.components
    for session in report.sessions:
        assert (session.signature, session.verdict) == ("ok", "ok")
        assert session.exchanges == len(session.components)
    assert sum(s.exchanges for s in report.sessions) == len(bundle.proofs)


@pytest.mark.parametrize("n_steps", [2, 16])
def test_signature_checks_are_one_per_session(monkeypatch, n_steps):
    world = ScriptedWorld(f"flat-{n_steps}", n_steps=n_steps)
    trace = run_agent(world.core_fn, world.tools, "begin", max_steps=n_steps)
    assert len(trace.steps) == n_steps
    bundle = prove_trace(trace, world.aid, world.provers)
    calls = count_calls(monkeypatch, keys.verify_signature)
    verify_trace(trace.steps[-1].core_output, bundle, world.aid, world.registry)
    assert len(bundle.sessions) == 2
    assert len(calls) == len(bundle.sessions)


def test_run_outgrowing_a_session_rolls_to_a_fresh_one(scripted):
    world, trace, bundle = scripted
    # Room for any one core request, never for two: each core call
    # rolls to a fresh notarized session.
    small = ScriptedWorld("composer", n_steps=2, cap_up=max(_core_request_lengths(bundle)))
    trace, rolled = small.run()
    kinds = [session_kind(s) for s in rolled.sessions]
    assert kinds.count("webproof") == len(trace.steps) and kinds.count("tee_attestation") == 1
    m = trace.steps[-1].core_output
    assert verify_trace(m, rolled, small.aid, small.registry) == m

    # Dropping the proof of the last session's one exchange is rejected.
    last = max(i for i, p in enumerate(rolled.proofs) if p.kind == "webproof")
    proofs = rolled.proofs[:last] + rolled.proofs[last + 1:]
    with pytest.raises(Rejected) as err:
        verify_trace(m, _rebuild(rolled, proofs=proofs), small.aid, small.registry)
    assert err.value.reason == "subproof-invalid"


def test_session_that_no_proof_names_is_rejected(scripted):
    world, trace, bundle = scripted
    spare = VerifiableExecutionTrace(
        bundle.aid_id, bundle.trace, bundle.proofs, bundle.sessions * 2
    )
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, spare, world.aid, world.registry)
    assert err.value.reason == "subproof-invalid"
    assert err.value.detail == "session 2 is named by no proof"


def _renaming(bundle, k, index):
    """``bundle`` with its k-th proof naming session ``index``."""
    proofs = list(bundle.proofs)
    field = session_field(proofs[k].kind)
    proofs[k] = ComponentProof(
        proofs[k].kind, proofs[k].step_index, proofs[k].position,
        dict(proofs[k].payload, **{field: str(index)}),
    )
    return _rebuild(bundle, proofs=proofs)


def test_proof_naming_a_session_of_the_other_kind_is_rejected(scripted):
    # The second core proof names the proxy log, which the first tool
    # proof opened: a session's scheme is that of the proof opening it.
    world, trace, bundle = scripted
    tee = bundle.proofs[1]
    assert (tee.kind, tee.payload["attestation"]) == (KIND_TEE, "1")
    k = next(k for k, p in enumerate(bundle.proofs) if p.kind == "webproof" and k > 1)
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(
            trace.steps[-1].core_output, _renaming(bundle, k, 1), world.aid, world.registry, report
        )
    assert err.value.detail == (
        f"{bundle.proofs[k].locator}: session 1 holds a tee_attestation, not a webproof"
    )
    # Refused before the session's state is used: it counts no exchange.
    assert [s.exchanges for s in report.sessions] == [1, 1]


def test_tee_proof_naming_the_notary_session_is_rejected(scripted):
    world, trace, bundle = scripted
    assert bundle.proofs[1].kind == KIND_TEE
    with pytest.raises(Rejected) as err:
        verify_trace(
            trace.steps[-1].core_output, _renaming(bundle, 1, 0), world.aid, world.registry
        )
    assert (err.value.reason, err.value.detail) == (
        "subproof-invalid", "step:0/tool:0: session 0 holds a webproof, not a tee_attestation"
    )


def test_sessions_have_one_order(scripted):
    # The sessions table swapped, with every proof's index remapped, is
    # the same set of facts in a second order: the first proof then names
    # session 1 before session 0 is open.
    world, trace, bundle = scripted
    assert len(bundle.sessions) == 2
    proofs = [
        ComponentProof(
            p.kind, p.step_index, p.position,
            dict(p.payload, **{
                session_field(p.kind): str(1 - int(p.payload[session_field(p.kind)]))
            }),
        )
        for p in bundle.proofs
    ]
    swapped = VerifiableExecutionTrace(
        bundle.aid_id, bundle.trace, tuple(proofs), bundle.sessions[::-1]
    )
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, swapped, world.aid, world.registry)
    assert (err.value.reason, err.value.detail) == (
        "subproof-invalid", "step:0/core: session 1 is named before session 0"
    )


def test_proof_naming_a_session_past_the_next_unopened_one_is_rejected(scripted):
    # The rolled bundle's third web proof opens session 2; naming session
    # 3 instead, two past the last one opened, skips a session.
    world, trace, bundle = scripted
    small = ScriptedWorld("composer", n_steps=2, cap_up=max(_core_request_lengths(bundle)))
    trace, rolled = small.run()
    spare = VerifiableExecutionTrace(
        rolled.aid_id, rolled.trace, rolled.proofs, rolled.sessions + rolled.sessions[:1]
    )
    named = [int(p.payload[session_field(p.kind)]) for p in rolled.proofs]
    k = named.index(max(named))
    opened = max(named[:k])
    with pytest.raises(Rejected) as err:
        verify_trace(
            trace.steps[-1].core_output, _renaming(spare, k, opened + 2), small.aid, small.registry
        )
    assert (err.value.reason, err.value.detail) == (
        "subproof-invalid",
        f"{rolled.proofs[k].locator}: session {opened + 2} is named before session {opened + 1}",
    )


def test_prover_numbers_sessions_by_first_use(scripted):
    world, trace, bundle = scripted
    small = ScriptedWorld("composer", n_steps=2, cap_up=max(_core_request_lengths(bundle)))
    for proved in (bundle, small.run()[1]):
        named = [int(p.payload[session_field(p.kind)]) for p in proved.proofs]
        first_use = list(dict.fromkeys(named))
        assert first_use == list(range(len(proved.sessions))), named


def test_components_sharing_a_log_must_each_declare_its_enclave_key():
    # The demo's two tools share one proxy log. Here the document declares
    # another enclave key for the sentiment tool than the proxy signs with.
    from dataclasses import replace

    from vet import demo

    world = demo.build_world("0")
    rogue = SigningKey.from_seed("rogue-enclave").public_string
    tools = tuple(
        replace(t, verification=VerificationMetadata(
            t.verification.scheme, {**t.verification.params, "enclave_public_key": rogue}
        ))
        if t.name == "sentiment" else t
        for t in world.aid.tools
    )
    aid = replace(world.aid, tools=tools).with_hash()
    trace = run_agent(world.core_fn, world.tools, "trade tick for bitcoin", max_steps=4)
    provers = {
        SCHEME_TLS_NOTARY: WebProofComponentProver(
            WebProofProver(
                world.notary, world.registry, secrets={demo.DEMO_SECRET_NAME: world.secret}
            )
        ),
        SCHEME_PROXY_TEE: TeeComponentProver(
            {"price_feed": world.proxy, "sentiment": world.proxy}, world.registry
        ),
    }
    bundle = prove_trace(trace, aid, provers)
    assert [session_kind(s) for s in bundle.sessions].count("tee_attestation") == 1
    report = VerificationReport()
    with pytest.raises(Rejected) as err:
        verify_trace(trace.steps[-1].core_output, bundle, aid, world.registry, report)
    (j, k), = [
        (s.step_index, k)
        for s in trace.steps
        for k, c in enumerate(s.tool_calls)
        if c.tool_id == "sentiment"
    ]
    assert err.value.detail.startswith(f"step:{j}/tool:{k}: bad-signature: ")
    assert report.components[-1].verdict == "bad-signature"
