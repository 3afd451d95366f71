"""Structure-aware fuzzing of the decoders of outside documents.

Each example starts from a valid web proof, proxy log head, bundle, AID
or template, then replaces or drops one field at any depth with any JSON
value, or adds a member to any object of a web proof or bundle, which
must not be accepted.
Verification must end in a ``Rejected`` reason or a ``ValidationError``;
decoding an AID or registering a template in a ``ValidationError``; and
``vet verify --json`` and ``vet aid validate`` in an exit code, never in
a traceback.
"""

import copy
import functools
import hashlib
import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import WebProofRig, session_field, session_kind
from vet import demo as demo_mod, tee_proxy, webproof
from vet.aid import AgentIdentityDocument, compute_id, validate
from vet.canonical import FORMAT, canonical_bytes
from vet.cli import main
from vet.composer import VerifiableExecutionTrace, verify_trace
from vet.errors import Rejected, ValidationError
from vet.keys import SigningKey
from vet.templates import ROLE_TOOL, TemplateRegistry, parse_tool, render

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# Strings that reach past the first decode step: numbers, hex of several
# lengths (odd, one salt, one hash), an index past any transcript, and
# the AID's and templates' own vocabulary.
TOKENS = [
    "", "0", "1", "-1", "16", "99999999999999999999", "abc", "00" * 16, "ab" * 32, "2",
    "/", "/x", "{input}", "inject", "parse", "core", "tool", "https://[", "TLSNotary",
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(TOKENS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every field and list item below ``node``, as key/index paths."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def one_field_mutation(draw, seed_doc, under=()):
    """``seed_doc()`` with one field replaced by any JSON value, or dropped;
    with ``under``, a field below that path."""
    doc = seed_doc()
    mutated = copy.deepcopy(doc)
    paths = [path for path in _paths(doc) if path[: len(under)] == under]
    path = draw(st.sampled_from(sorted(paths, key=repr)))
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return mutated


@functools.lru_cache(maxsize=None)
def _webproof_case():
    rig = WebProofRig("fuzz")
    prover = webproof.WebProofProver(rig.service, rig.registry, secrets={"token": "S" * 16})
    _, proof = prover.call(rig.entry, "fuzz me", ROLE_TOOL)
    return rig, proof.to_obj()


@functools.lru_cache(maxsize=None)
def _bundle_case():
    result = demo_mod.run_demo("0")
    claim = result.bundle.trace.steps[-1].core_output
    return result, claim, result.bundle.to_obj()


@functools.lru_cache(maxsize=None)
def _log_head_case():
    """A one-exchange proxy log head of the demo's price tool, with the
    exchange it signs and the value that exchange carries."""
    world = demo_mod.build_world("fuzz")
    entry = world.aid.tools[0]
    request, _ = render(world.registry.get_inject(entry.injection_algorithm_uid), "bitcoin", {})
    response, head = world.proxy.fetch(request)
    value = parse_tool(world.registry.get_parse(entry.parsing_algorithm_uid), response)
    return world, entry, request, response, value, head.to_obj()


def webproof_doc():
    return _webproof_case()[1]


def log_head_doc():
    return _log_head_case()[5]


def _verify_log_head(doc):
    world, entry, request, response, value, _ = _log_head_case()
    head = tee_proxy.LogHead.from_obj(doc)
    return tee_proxy.verify_attestation(value, request, response, head, entry, world.registry)


def aid_doc():
    return _bundle_case()[0].aid.to_obj()


@functools.lru_cache(maxsize=None)
def _template_objs():
    registry, _ = demo_mod.demo_templates()
    return tuple(registry._objs[uid] for uid in registry.uids())


# One of the demo's four templates, with one field replaced or dropped.
template_mutations = st.sampled_from(range(4)).flatmap(
    lambda i: one_field_mutation(lambda: _template_objs()[i])
)


def bundle_doc():
    return _bundle_case()[2]


def _session_index(doc, kind):
    """The index of the first session of a bundle document that proofs of
    ``kind`` name."""
    return next(
        int(p["payload"][session_field(kind)]) for p in doc["proofs"] if p["kind"] == kind
    )


def test_seeds_are_valid_documents_of_the_current_format():
    rig, doc = _webproof_case()
    assert doc["format"] == FORMAT
    proof = webproof.WebProof.from_obj(doc)
    assert webproof.verify_webproof("fuzz me", proof, rig.entry, ROLE_TOOL, rig.registry) == "fuzz me"
    *_, value, doc = _log_head_case()
    assert doc["records"] == "2" and len(bytes.fromhex(doc["head"])) == 32
    assert _verify_log_head(doc) == value
    result, claim, doc = _bundle_case()
    assert doc["format"] == FORMAT
    bundle = VerifiableExecutionTrace.from_obj(doc)
    assert verify_trace(claim, bundle, result.aid, result.registry) == claim
    # One notarized session of several exchanges, one proxy log of several links.
    signed = {session_kind(session): session for session in doc["sessions"]}
    assert len(signed) == len(doc["sessions"]) == 2
    statement = webproof.SignedStatement.from_obj(signed["webproof"])
    core_proofs = [p for p in doc["proofs"] if p["kind"] == "webproof"]
    assert len(core_proofs) >= 2 and statement.records >= 4
    assert int(signed["tee_attestation"]["records"]) >= 4


@SETTINGS
@given(one_field_mutation(webproof_doc))
def test_webproof_decoder_only_rejects(mutated):
    # The honest value is claimed, so only a proof left as it was may pass:
    # every field is bound, and each proof has one encoding.
    rig, _ = _webproof_case()
    try:
        proof = webproof.WebProof.from_obj(mutated)
        webproof.verify_webproof("fuzz me", proof, rig.entry, ROLE_TOOL, rig.registry)
    except (Rejected, ValidationError):
        return
    assert mutated == webproof_doc()


@SETTINGS
@given(one_field_mutation(log_head_doc))
def test_log_head_decoder_only_rejects(mutated):
    # The honest value is claimed, so only a head left as it was may pass.
    try:
        _verify_log_head(mutated)
    except (Rejected, ValidationError):
        return
    assert mutated == log_head_doc()


def _verify_bundle_doc(mutated):
    result, claim, _ = _bundle_case()
    try:
        bundle = VerifiableExecutionTrace.from_obj(mutated)
        verify_trace(claim, bundle, result.aid, result.registry)
    except (Rejected, ValidationError):
        pass


@SETTINGS
@given(one_field_mutation(bundle_doc))
def test_bundle_decoder_only_rejects(mutated):
    _verify_bundle_doc(mutated)


@SETTINGS
@given(one_field_mutation(bundle_doc, under=("sessions",)))
def test_sessions_table_decoder_only_rejects(mutated):
    _verify_bundle_doc(mutated)


# The members format 11 reshaped: the bare sessions, the trace steps with
# no index, and a bundled web proof with no format of its own.
FORMAT_11_MEMBERS = [("sessions",), ("trace",), ("proofs", 0, "payload")]
format_11_mutations = st.sampled_from(FORMAT_11_MEMBERS).flatmap(
    lambda under: one_field_mutation(bundle_doc, under=under)
)


@SETTINGS
@given(format_11_mutations)
def test_format_11_members_only_reject(mutated):
    # The honest claim, so only the bundle left as it was may pass.
    result, claim, doc = _bundle_case()
    assert doc["proofs"][0]["kind"] == "webproof" and "format" not in doc["proofs"][0]["payload"]
    try:
        bundle = VerifiableExecutionTrace.from_obj(mutated)
        verify_trace(claim, bundle, result.aid, result.registry)
    except (Rejected, ValidationError):
        return
    assert mutated == doc


# The members format 12 reshaped: positional record keys, a commitment
# of a root and a total, and a disclosure of bare chunks; in a bundled
# web proof and in a standalone one.
FORMAT_12_MEMBERS = [
    ("proofs", 0, "payload", member)
    for member in ("record_keys", "response_commitment", "response_disclosure")
]
format_12_mutations = st.sampled_from(FORMAT_12_MEMBERS).flatmap(
    lambda under: one_field_mutation(bundle_doc, under=under)
)
format_12_webproof_mutations = st.sampled_from(
    [under[-1:] for under in FORMAT_12_MEMBERS]
).flatmap(lambda under: one_field_mutation(webproof_doc, under=under))


@SETTINGS
@given(format_12_mutations)
def test_format_12_members_only_reject(mutated):
    # The honest claim, so only the bundle left as it was may pass.
    result, claim, doc = _bundle_case()
    payload = doc["proofs"][0]["payload"]
    assert all(set(key) == {"key"} for key in payload["record_keys"])
    assert set(payload["response_commitment"]) == {"root", "total_length"}
    assert set(payload["response_disclosure"]) == {"chunks"}
    try:
        bundle = VerifiableExecutionTrace.from_obj(mutated)
        verify_trace(claim, bundle, result.aid, result.registry)
    except (Rejected, ValidationError):
        return
    assert mutated == doc


@SETTINGS
@given(format_12_webproof_mutations)
def test_format_12_webproof_members_only_reject(mutated):
    rig, _ = _webproof_case()
    try:
        proof = webproof.WebProof.from_obj(mutated)
        webproof.verify_webproof("fuzz me", proof, rig.entry, ROLE_TOOL, rig.registry)
    except (Rejected, ValidationError):
        return
    assert mutated == webproof_doc()


def _objects(node, path=()):
    """The path of every object at or below ``node``."""
    if isinstance(node, dict):
        yield path
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _objects(child, path + (key,))


@st.composite
def added_member(draw, seed_doc):
    """``seed_doc()`` with a member of any name and value added to any
    object, the document itself included."""
    mutated = copy.deepcopy(seed_doc())
    path = draw(st.sampled_from(sorted(_objects(mutated), key=repr)))
    node = mutated
    for key in path:
        node = node[key]
    name = draw(st.text(max_size=8).filter(lambda name: name not in node))
    node[name] = draw(json_values)
    return mutated


@SETTINGS
@given(added_member(bundle_doc))
def test_a_member_added_anywhere_in_a_bundle_is_refused(mutated):
    # Where no signature covers it, no decoder reads it; where one does,
    # the signature fails. Either way the honest claim is not accepted.
    result, claim, _ = _bundle_case()
    with pytest.raises((Rejected, ValidationError)):
        verify_trace(
            claim, VerifiableExecutionTrace.from_obj(mutated), result.aid, result.registry
        )


@SETTINGS
@given(added_member(webproof_doc))
def test_a_member_added_anywhere_in_a_web_proof_is_refused(mutated):
    rig, _ = _webproof_case()
    with pytest.raises((Rejected, ValidationError)):
        proof = webproof.WebProof.from_obj(mutated)
        webproof.verify_webproof("fuzz me", proof, rig.entry, ROLE_TOOL, rig.registry)


def _format_9_head(doc, exchanges, seed):
    """The format-9 proxy log head over ``exchanges``, (request, response)
    hex pairs, with the fields of the format-10 ``doc``: "exchanges" and
    a "sha256:" head of the old log chain in place of "records" and
    "head", signed by the enclave key of ``seed``."""
    head = "sha256:" + "0" * 64
    for pair in exchanges:
        digests = ["sha256:" + hashlib.sha256(bytes.fromhex(data)).hexdigest() for data in pair]
        link = b"VET/log:" + canonical_bytes([head, *digests])
        head = "sha256:" + hashlib.sha256(link).hexdigest()
    old = {k: v for k, v in doc.items() if k not in ("records", "signature")}
    old.update(exchanges=str(len(exchanges)), head=head)
    key = SigningKey.from_seed(f"enclave:{seed}".encode())
    return dict(old, signature=key.sign(canonical_bytes(old)))


def test_format_9_log_head_is_refused():
    _, _, request, response, _, doc = _log_head_case()
    with pytest.raises(ValidationError):
        _verify_log_head(_format_9_head(doc, [(request.hex(), response.hex())], "fuzz"))
    # The same inside a bundle of the current format, as its proxy session.
    result, claim, bundle = _bundle_case()
    mutated = copy.deepcopy(bundle)
    index = _session_index(bundle, "tee_attestation")
    exchanges = [
        (p["payload"]["request"], p["payload"]["response"])
        for p in bundle["proofs"] if p["payload"].get("attestation") == str(index)
    ]
    assert len(exchanges) >= 2
    mutated["sessions"][index] = _format_9_head(mutated["sessions"][index], exchanges, "0")
    with pytest.raises((Rejected, ValidationError)):
        verify_trace(
            claim, VerifiableExecutionTrace.from_obj(mutated), result.aid, result.registry
        )


# A signed chain of any length and head: the honest count moved by any
# amount, and the honest head, another session's, or random bytes.
chain_picks = st.tuples(
    st.integers(-8, 8),
    st.sampled_from(["honest", "other", "random"]),
    st.binary(min_size=32, max_size=32),
)


@settings(SETTINGS, max_examples=150)
@given(chain_picks)
def test_signed_chain_of_any_shape_is_a_reason(picks):
    shift, which, noise = picks
    result, claim, doc = _bundle_case()
    mutated = copy.deepcopy(doc)
    index = _session_index(doc, "webproof")
    statement = mutated["sessions"][index]["statement"]
    honest = dict(statement)
    statement["records"] = str(max(int(honest["records"]) + shift, 0))
    statement["head"] = {
        "honest": honest["head"],
        "other": _webproof_case()[1]["signed_statement"]["statement"]["head"],
        "random": noise.hex(),
    }[which]
    # Signed by the demo's notary key, so only the chain is wrong.
    notary = SigningKey.from_seed(b"notary:0")
    mutated["sessions"][index]["notary_signature"] = notary.sign(
        canonical_bytes(statement)
    )
    try:
        verify_trace(claim, VerifiableExecutionTrace.from_obj(mutated), result.aid, result.registry)
    except Rejected as exc:
        assert exc.reason == "subproof-invalid"
        # Too few records fails where a proof carries more; too many, or
        # another head, where the session closes.
        assert re.match(r"(step:\S+|session \d+): cipher-mismatch: ", exc.detail), exc.detail
    else:
        assert statement == honest


@settings(SETTINGS, max_examples=150)
@given(chain_picks)
def test_signed_log_head_of_any_shape_is_a_reason(picks):
    # The proxy log head signs the notary's chain: the same picks, signed
    # by the demo's enclave key, are a hash-mismatch where they differ.
    shift, which, noise = picks
    result, claim, doc = _bundle_case()
    mutated = copy.deepcopy(doc)
    index = _session_index(doc, "tee_attestation")
    head = mutated["sessions"][index]
    honest = dict(head)
    head["records"] = str(max(int(honest["records"]) + shift, 0))
    head["head"] = {
        "honest": honest["head"],
        "other": log_head_doc()["head"],
        "random": noise.hex(),
    }[which]
    unsigned = {k: v for k, v in head.items() if k != "signature"}
    head["signature"] = SigningKey.from_seed(b"enclave:0").sign(canonical_bytes(unsigned))
    try:
        verify_trace(claim, VerifiableExecutionTrace.from_obj(mutated), result.aid, result.registry)
    except Rejected as exc:
        assert exc.reason == "subproof-invalid"
        assert re.match(r"(step:\S+|session \d+): hash-mismatch: ", exc.detail), exc.detail
    else:
        assert head == honest


@SETTINGS
@given(one_field_mutation(aid_doc))
def test_aid_decoder_only_rejects(mutated):
    try:
        document = AgentIdentityDocument.from_obj(mutated)
        validate(document)
        compute_id(document)
    except ValidationError:
        pass


@SETTINGS
@given(template_mutations)
def test_template_decoder_only_rejects(mutated):
    registry = TemplateRegistry()
    try:
        uid = registry.register(mutated)
        if mutated["type"] == "inject":
            render(registry.get_inject(uid), "fuzz", {})
    except ValidationError:
        pass


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "demo-out"
    result = CliRunner().invoke(main, ["prove", "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def _cli_verify_exits_with_a_report(cli_dir, mutated):
    (cli_dir / "bundle.json").write_text(json.dumps(mutated))
    _, claim, _ = _bundle_case()
    result = CliRunner().invoke(
        main,
        [
            "verify", "--json", "--claim", claim,
            "--aid", str(cli_dir / "aid.json"),
            "--bundle", str(cli_dir / "bundle.json"),
            "--templates", str(cli_dir / "templates"),
        ],
    )
    # Click reports exit 0 as no exception; any other exit is a SystemExit.
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    if result.exit_code != 2:
        report = json.loads(result.output)
        assert report["result"] == ("accept" if result.exit_code == 0 else "reject")


@settings(SETTINGS, max_examples=60)
@given(mutated=one_field_mutation(bundle_doc))
def test_cli_verify_json_exits_with_a_report(cli_dir, mutated):
    _cli_verify_exits_with_a_report(cli_dir, mutated)


@settings(SETTINGS, max_examples=60)
@given(mutated=format_11_mutations)
def test_cli_verify_json_exits_with_a_report_on_format_11_members(cli_dir, mutated):
    _cli_verify_exits_with_a_report(cli_dir, mutated)


@settings(SETTINGS, max_examples=60)
@given(mutated=format_12_mutations)
def test_cli_verify_json_exits_with_a_report_on_format_12_members(cli_dir, mutated):
    _cli_verify_exits_with_a_report(cli_dir, mutated)


@settings(SETTINGS, max_examples=60)
@given(mutated=added_member(bundle_doc))
def test_cli_verify_json_exits_with_a_report_on_an_added_member(cli_dir, mutated):
    _cli_verify_exits_with_a_report(cli_dir, mutated)


@settings(SETTINGS, max_examples=60)
@given(mutated=one_field_mutation(aid_doc))
def test_cli_aid_validate_exits_with_a_code(tmp_path_factory, mutated):
    aid_file = tmp_path_factory.mktemp("aid") / "aid.json"
    aid_file.write_text(json.dumps(mutated))
    result = CliRunner().invoke(main, ["aid", "validate", str(aid_file)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
