import copy
import hashlib
import json
import random
from dataclasses import replace

import pytest

from vet.aid import (
    SCHEME_PROXY_TEE,
    SCHEME_TLS_NOTARY,
    AgentIdentityDocument,
    TrustStore,
    canonicalize,
    compute_id,
    instantiate_verifier,
    validate,
)
from vet.errors import ValidationError
from vet.keys import SigningKey
from vet.templates import TemplateRegistry

UID_A = "sha256:" + "1" * 64
UID_B = "sha256:" + "2" * 64
KEY_N = SigningKey.from_seed("aid-notary").public_string
KEY_E = SigningKey.from_seed("aid-enclave").public_string


def _doc_obj():
    return {
        "agent_name": "test-agent",
        "core": {
            "name": "core",
            "endpoint": "https://llm.test/v1/agent",
            "injection_algorithm_uid": UID_A,
            "parsing_algorithm_uid": UID_B,
            "model": "m-1",
            "verification": {
                SCHEME_TLS_NOTARY: {
                    "protocol_version": "commit-then-key-release/1",
                    "notary_public_key": KEY_N,
                }
            },
        },
        "tools": [
            {
                "name": "search",
                "endpoint": "https://search.test/q",
                "injection_algorithm_uid": UID_A,
                "parsing_algorithm_uid": UID_B,
                "verification": {
                    SCHEME_PROXY_TEE: {"tee_type": "TDX", "enclave_public_key": KEY_E}
                },
            }
        ],
    }


def _oracle_id(obj):
    """Independent ID computation: stdlib json only, no package code."""
    stripped = copy.deepcopy(obj)
    stripped.pop("agent_hash", None)
    blob = json.dumps(
        stripped, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def test_golden_canonical_and_id():
    obj = _doc_obj()
    document = AgentIdentityDocument.from_obj(obj)
    oracle_bytes = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    assert canonicalize(document) == oracle_bytes
    assert compute_id(document) == _oracle_id(obj)


def test_id_excludes_agent_hash_field():
    document = AgentIdentityDocument.from_obj(_doc_obj())
    hashed = document.with_hash()
    assert hashed.agent_hash == compute_id(document)
    assert compute_id(hashed) == compute_id(document)
    assert validate(hashed) == []
    wrong = AgentIdentityDocument(
        agent_name=hashed.agent_name,
        core=hashed.core,
        tools=hashed.tools,
        agent_hash="sha256:" + "0" * 64,
    )
    assert any(v.path == "/agent_hash" for v in validate(wrong))


_MUTATABLE_PATHS = [
    ("agent_name",),
    ("core", "endpoint"),
    ("core", "injection_algorithm_uid"),
    ("core", "parsing_algorithm_uid"),
    ("core", "model"),
    ("core", "verification", SCHEME_TLS_NOTARY, "protocol_version"),
    ("core", "verification", SCHEME_TLS_NOTARY, "notary_public_key"),
    ("tools", 0, "name"),
    ("tools", 0, "endpoint"),
    ("tools", 0, "injection_algorithm_uid"),
    ("tools", 0, "verification", SCHEME_PROXY_TEE, "tee_type"),
    ("tools", 0, "verification", SCHEME_PROXY_TEE, "enclave_public_key"),
]


def mutate_one_field(obj, rng):
    """Flip one character of one string field; returns the mutated object."""
    mutated = copy.deepcopy(obj)
    path = rng.choice(_MUTATABLE_PATHS)
    node = mutated
    for token in path[:-1]:
        node = node[token]
    value = node[path[-1]]
    pos = rng.randrange(len(value))
    replacement = chr((ord(value[pos]) - 32 + 1 + rng.randrange(94)) % 95 + 32)
    node[path[-1]] = value[:pos] + replacement + value[pos + 1:]
    return mutated, node[path[-1]] != value


def test_single_field_mutations_flip_id():
    rng = random.Random(99)
    obj = _doc_obj()
    base = _oracle_id(obj)
    flips = 0
    trials = 500
    for _ in range(trials):
        mutated, changed = mutate_one_field(obj, rng)
        if not changed:
            continue
        document = AgentIdentityDocument.from_obj(mutated)
        from vet.aid import _canonical_unchecked, _id_of

        assert _id_of(_canonical_unchecked(document)) != base
        flips += 1
    assert flips > trials * 0.9


def test_validate_violations():
    bad = _doc_obj()
    bad["agent_name"] = ""
    bad["core"]["endpoint"] = "not-a-url"
    bad["core"]["injection_algorithm_uid"] = "bogus"
    bad["tools"].append(copy.deepcopy(bad["tools"][0]))  # duplicate name
    bad["tools"][0]["verification"] = {"Magic": {}}
    document = AgentIdentityDocument.from_obj(bad)
    paths = {v.path for v in validate(document)}
    assert "/agent_name" in paths
    assert "/core/endpoint" in paths
    assert "/core/injection_algorithm_uid" in paths
    assert "/tools" in paths
    assert "/tools/0/verification" in paths


def test_validate_key_checks():
    bad = _doc_obj()
    bad["core"]["verification"][SCHEME_TLS_NOTARY]["notary_public_key"] = "ed25519:zz"
    del bad["tools"][0]["verification"][SCHEME_PROXY_TEE]["enclave_public_key"]
    document = AgentIdentityDocument.from_obj(bad)
    messages = [str(v) for v in validate(document)]
    assert any("notary_public_key" in m for m in messages)
    assert any("enclave_public_key" in m for m in messages)


def test_validate_registry_membership():
    document = AgentIdentityDocument.from_obj(_doc_obj())
    empty = TemplateRegistry()
    assert any("not in template registry" in v.message for v in validate(document, empty))


def test_compute_id_rejects_invalid_document():
    bad = _doc_obj()
    bad["core"]["endpoint"] = "nope"
    with pytest.raises(ValidationError):
        compute_id(AgentIdentityDocument.from_obj(bad))


def test_compute_id_ignores_a_wrong_agent_hash_and_encodes_once(monkeypatch):
    import vet.aid

    obj = _doc_obj()
    wrong = AgentIdentityDocument.from_obj({**obj, "agent_hash": "sha256:" + "0" * 64})
    encoded = []
    real = vet.aid.canonical_bytes
    monkeypatch.setattr(vet.aid, "canonical_bytes", lambda doc: encoded.append(doc) or real(doc))
    assert compute_id(wrong) == _oracle_id(obj)
    assert len(encoded) == 1
    # The hash is still checked where a document is validated.
    assert [v.path for v in validate(wrong)] == ["/agent_hash"]
    bad = AgentIdentityDocument.from_obj(
        {**obj, "agent_hash": "sha256:" + "0" * 64, "agent_name": ""}
    )
    with pytest.raises(ValidationError, match="^/agent_name: must be non-empty$"):
        compute_id(bad)


def test_verification_scheme_count():
    bad = _doc_obj()
    bad["core"]["verification"]["Extra"] = {}
    with pytest.raises(ValidationError):
        AgentIdentityDocument.from_obj(bad)


def test_instantiate_verifier_gating(demo_world):
    verifier = instantiate_verifier(
        demo_world.aid, TrustStore(registry=demo_world.registry)
    )
    assert verifier.aid is demo_world.aid
    narrow = TrustStore(schemes=frozenset({SCHEME_PROXY_TEE}), registry=demo_world.registry)
    with pytest.raises(ValidationError):
        instantiate_verifier(demo_world.aid, narrow)
    with pytest.raises(ValidationError):
        instantiate_verifier(demo_world.aid, TrustStore())  # empty registry


def test_a_parse_template_of_the_other_role_is_a_violation(demo_world):
    # The core and the first tool swap parse templates; the ID is computed
    # without the registry, so it does not see the swap.
    core, tool = demo_world.aid.core, demo_world.aid.tools[0]
    swapped = replace(
        demo_world.aid,
        core=replace(core, parsing_algorithm_uid=tool.parsing_algorithm_uid),
        tools=(
            replace(tool, parsing_algorithm_uid=core.parsing_algorithm_uid),
            *demo_world.aid.tools[1:],
        ),
        agent_hash=None,
    )
    compute_id(swapped)
    assert [str(v) for v in validate(swapped, demo_world.registry)] == [
        "/core/parsing_algorithm_uid: a tool parse template for a core",
        "/tools/0/parsing_algorithm_uid: a core parse template for a tool",
    ]
    with pytest.raises(ValidationError, match="a tool parse template for a core"):
        instantiate_verifier(swapped, TrustStore(registry=demo_world.registry))
    # An inject template's uid in the parse field is a violation, not a crash.
    inject = replace(core, parsing_algorithm_uid=core.injection_algorithm_uid)
    (violation,) = validate(replace(demo_world.aid, core=inject), demo_world.registry)
    assert violation.path == "/core/parsing_algorithm_uid"
    assert "unknown parse template uid" in violation.message


def test_tool_lookup(demo_world):
    assert demo_world.aid.tool("price_feed").name == "price_feed"
    with pytest.raises(KeyError):
        demo_world.aid.tool("nope")


def test_endpoint_that_urlparse_refuses_is_a_violation():
    bad = _doc_obj()
    bad["core"]["endpoint"] = "https://["
    violations = validate(AgentIdentityDocument.from_obj(bad))
    assert [v.path for v in violations] == ["/core/endpoint"]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda doc: doc["core"]["verification"]["TLSNotary"].update(protocol_version=1),
        lambda doc: doc.update(tools="x"),
        lambda doc: doc["tools"].append(["not", "an", "entry"]),
        lambda doc: doc["core"].update(verification={"TLSNotary": "key"}),
        lambda doc: doc["core"].update(model=None),
    ],
)
def test_document_of_the_wrong_shape_does_not_decode(mangle):
    bad = _doc_obj()
    mangle(bad)
    with pytest.raises(ValidationError):
        AgentIdentityDocument.from_obj(bad)


@pytest.mark.parametrize("where", ["document", "core", "tool"])
def test_member_an_aid_does_not_define_does_not_decode(where):
    # The ID would not commit to it: to_obj drops what from_obj does not read.
    doc = _doc_obj()
    {"document": doc, "core": doc["core"], "tool": doc["tools"][0]}[where]["extra"] = "x"
    with pytest.raises(ValidationError, match="member 'extra' that an AID does not define"):
        AgentIdentityDocument.from_obj(doc)


def test_scheme_params_stay_free():
    doc = _doc_obj()
    doc["core"]["verification"][SCHEME_TLS_NOTARY]["extra"] = "x"
    assert AgentIdentityDocument.from_obj(doc).core.verification.params["extra"] == "x"
