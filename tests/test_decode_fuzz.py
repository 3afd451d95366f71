"""Structure-aware fuzzing of the decoders of outside documents.

Each example starts from a valid web proof, bundle, AID or template,
then replaces or drops one field at any depth with any JSON value.
Verification must end in a ``Rejected`` reason or a ``ValidationError``;
decoding an AID or registering a template in a ``ValidationError``; and
``vet verify --json`` and ``vet aid validate`` in an exit code, never in
a traceback.
"""

import copy
import functools
import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import WebProofRig
from vet import demo as demo_mod, webproof
from vet.aid import AgentIdentityDocument, compute_id, validate
from vet.canonical import FORMAT, canonical_bytes
from vet.cli import main
from vet.composer import VerifiableExecutionTrace, verify_trace
from vet.errors import Rejected, ValidationError
from vet.keys import SigningKey
from vet.templates import ROLE_TOOL, TemplateRegistry, expected_request

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


def webproof_doc():
    return _webproof_case()[1]


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


def test_seeds_are_valid_documents_of_the_current_format():
    rig, doc = _webproof_case()
    assert doc["format"] == FORMAT
    webproof.verify_component(doc, rig.entry, rig.registry, ROLE_TOOL)
    result, claim, doc = _bundle_case()
    assert doc["format"] == FORMAT
    bundle = VerifiableExecutionTrace.from_obj(doc)
    assert verify_trace(claim, bundle, result.aid, result.registry) == claim
    # One notarized session of several exchanges, one proxy log of several links.
    signed = {session["kind"]: session["signed"] for session in doc["sessions"]}
    assert len(signed) == len(doc["sessions"]) == 2
    statement = webproof.SignedStatement.from_obj(signed["webproof"])
    assert len(webproof.exchanges_of(statement.records)) >= 2
    assert int(signed["tee_attestation"]["exchanges"]) >= 2


@SETTINGS
@given(one_field_mutation(webproof_doc))
def test_webproof_decoder_only_rejects(mutated):
    rig, _ = _webproof_case()
    try:
        webproof.verify_component(mutated, rig.entry, rig.registry, ROLE_TOOL)
    except (Rejected, ValidationError):
        pass


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


# A signed chain drawn from the demo statement's own records: any number
# of them, in any order, some turned to the other direction.
record_picks = st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=8)
FLIP = {"up": "down", "down": "up"}


@settings(SETTINGS, max_examples=150)
@given(record_picks)
def test_signed_chain_of_any_shape_is_a_reason(picks):
    result, claim, doc = _bundle_case()
    mutated = copy.deepcopy(doc)
    index = next(i for i, s in enumerate(doc["sessions"]) if s["kind"] == "webproof")
    statement = mutated["sessions"][index]["signed"]["statement"]
    honest = statement["records"]
    statement["records"] = [
        dict(honest[i % len(honest)], direction=FLIP[honest[i % len(honest)]["direction"]])
        if flip
        else honest[i % len(honest)]
        for i, flip in picks
    ]
    # Signed by the demo's notary key, so only the chain's shape is wrong.
    notary = SigningKey.from_seed(b"notary:0")
    mutated["sessions"][index]["signed"]["notary_signature"] = notary.sign(
        canonical_bytes(statement)
    )
    shaped = [r["direction"] for r in statement["records"]]
    runs = "".join("u" if d == "up" else "d" for d in shaped)
    try:
        verify_trace(claim, VerifiableExecutionTrace.from_obj(mutated), result.aid, result.registry)
    except Rejected as exc:
        assert exc.reason == "subproof-invalid"
        if not re.fullmatch("(u+d+)*", runs):
            assert "cipher-mismatch: signed records from " in exc.detail
    else:
        assert statement["records"] == honest


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
            expected_request(registry.get_inject(uid), "fuzz")
    except ValidationError:
        pass


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "demo-out"
    result = CliRunner().invoke(main, ["prove", "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@settings(SETTINGS, max_examples=60)
@given(mutated=one_field_mutation(bundle_doc))
def test_cli_verify_json_exits_with_a_report(cli_dir, mutated):
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
@given(mutated=one_field_mutation(aid_doc))
def test_cli_aid_validate_exits_with_a_code(tmp_path_factory, mutated):
    aid_file = tmp_path_factory.mktemp("aid") / "aid.json"
    aid_file.write_text(json.dumps(mutated))
    result = CliRunner().invoke(main, ["aid", "validate", str(aid_file)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
