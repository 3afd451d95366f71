import copy
import random
import string
from dataclasses import replace

import pytest

from conftest import count_calls, grid
from vet import commitment, frames, keys, toytls
from vet.canonical import canonical_bytes, canonical_loads
from vet.commitment import SALT_LEN, Disclosure, RevealedRun, commit, disclose, leaf_hash
from vet.errors import CapacityExceeded, ProtocolError, Rejected, ValidationError
from vet.keys import SigningKey
from vet.templates import render
from vet.chain import OpenChain
from vet.frames import Frame
from vet.notary import NotarySession
from vet.webproof import (
    NotarizedRun,
    NotarizedSession,
    SignedStatement,
    WebProof,
    WebProofProver,
    authenticate,
    open_statement,
    provision_channel,
    run_session,
    verify_webproof,
)

SECRET = "S3CR3T-" + "x" * 9  # 16 bytes, one full chunk


def _prove(rig, x, seed=0):
    prover = WebProofProver(
        rig.service, rig.registry, secrets={"token": SECRET}, rng=random.Random(seed)
    )
    return prover.call(rig.entry, x, "tool")


def test_honest_sessions_accept(rig):
    for i in range(20):
        exchange, proof = _prove(rig, f"msg-{i}", seed=i)
        assert exchange.value == f"msg-{i}"
        assert verify_webproof(f"msg-{i}", proof, rig.entry, "tool", rig.registry) == f"msg-{i}"


def test_proof_obj_round_trip(rig):
    _, proof = _prove(rig, "roundtrip")
    clone = WebProof.from_obj(proof.to_obj())
    verify_webproof("roundtrip", clone, rig.entry, "tool", rig.registry)


def test_value_mismatch_rejected(rig):
    _, proof = _prove(rig, "honest")
    with pytest.raises(Rejected) as err:
        verify_webproof("forged", proof, rig.entry, "tool", rig.registry)
    assert err.value.reason == "value-mismatch"


def test_wrong_notary_key_rejected(rig):
    _, proof = _prove(rig, "x")
    rogue_entry = type(rig.entry)(
        name=rig.entry.name,
        endpoint=rig.entry.endpoint,
        injection_algorithm_uid=rig.entry.injection_algorithm_uid,
        parsing_algorithm_uid=rig.entry.parsing_algorithm_uid,
        verification=type(rig.entry.verification)(
            rig.entry.verification.scheme,
            {
                "protocol_version": "commit-then-key-release/1",
                "notary_public_key": SigningKey.from_seed("rogue").public_string,
            },
        ),
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("x", proof, rogue_entry, "tool", rig.registry)
    assert err.value.reason == "bad-signature"


def test_statement_tampering_rejected(rig):
    _, proof = _prove(rig, "x")
    obj = proof.to_obj()
    obj["signed_statement"]["statement"]["server_domain"] = "evil.test"
    with pytest.raises(Rejected) as err:
        verify_webproof("x", WebProof.from_obj(obj), rig.entry, "tool", rig.registry)
    assert err.value.reason == "bad-signature"


def test_statement_of_the_wrong_shape_does_not_decode(rig):
    # Signed by the rig's own notary, so only decoding can refuse it.
    _, proof = _prove(rig, "x")
    for field, value, message in (
        ("records", "x", "records must be a decimal integer string"),
        ("head", "00" * 31, "head must be 32 bytes, not 31"),
    ):
        obj = proof.to_obj()
        statement = obj["signed_statement"]["statement"]
        statement[field] = value
        signature = rig.notary_key.sign(canonical_bytes(statement))
        obj["signed_statement"]["notary_signature"] = signature
        with pytest.raises(ValidationError, match=message):
            WebProof.from_obj(obj)


def test_wrong_domain_rejected(rig):
    _, proof = _prove(rig, "x")
    entry = type(rig.entry)(
        name=rig.entry.name,
        endpoint="https://other.test/v1/echo",
        injection_algorithm_uid=rig.entry.injection_algorithm_uid,
        parsing_algorithm_uid=rig.entry.parsing_algorithm_uid,
        verification=rig.entry.verification,
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("x", proof, entry, "tool", rig.registry)
    assert err.value.reason == "wrong-domain"


def test_claimed_input_the_template_cannot_render_is_a_template_mismatch(rig):
    # A proof claims "a b", which the entry's path-slot template cannot
    # render: the proof does not match the template.
    _, proof = _prove(rig, "a b")
    path_uid = rig.registry.register(
        {
            "type": "inject",
            "kind": "tool",
            "method": "GET",
            "path": "/v1/echo?message={input}",
            "headers": [{"name": "Host", "value": "echo.test"}],
        }
    )
    entry = replace(rig.entry, injection_algorithm_uid=path_uid)
    with pytest.raises(Rejected) as err:
        verify_webproof("a b", proof, entry, "tool", rig.registry)
    assert (err.value.reason, err.value.detail) == (
        "template-mismatch", "input 'a b' not encodable in a path slot"
    )


def test_template_whose_input_pointer_is_missing_from_its_body_is_a_template_mismatch(rig):
    _, proof = _prove(rig, "dangling")
    uid = rig.registry.register({**rig.registry._objs[rig.inject_uid], "input_pointer": "/nope"})
    entry = replace(rig.entry, injection_algorithm_uid=uid)
    with pytest.raises(Rejected) as err:
        verify_webproof("dangling", proof, entry, "tool", rig.registry)
    assert (err.value.reason, err.value.detail) == (
        "template-mismatch", "input pointer '/nope' missing from body template"
    )


def test_recommitment_to_other_plaintext_rejected(rig):
    # Forge: keep the signed statement but commit to a different response.
    _, proof = _prove(rig, "x")
    fake_response = (
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n'
        b'Content-Length: 16\r\n\r\n{"echo":"forged"}'
    )
    rng = random.Random(9)
    fake_commitment, fake_opening = commit(fake_response, grid(len(fake_response), 16), rng)
    forged = replace(
        proof,
        response_commitment=fake_commitment,
        response_disclosure=disclose(fake_opening),
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("forged", forged, rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"


def test_large_proof_is_at_most_three_times_its_exchange(rig):
    message = "".join(random.Random(48).choices(string.ascii_letters, k=48 * 1024))
    _, proof = _prove(rig, message)
    assert verify_webproof(message, proof, rig.entry, "tool", rig.registry) == message
    exchange = proof.request_length + proof.response_commitment.total_length
    assert exchange > 2 * 48 * 1024
    assert len(canonical_bytes(proof.to_obj())) <= 3 * exchange
    # One chunk, and so one salt, per response record; the request has none.
    down = list(proof.down_lengths)
    assert len(down) > 1 and list(proof.response_commitment.chunk_lengths) == down
    salts = sum(len(run.salt) for run in proof.response_disclosure.chunks) // SALT_LEN
    assert salts == len(down)


def test_verify_webproof_runs_no_keystream(rig, monkeypatch):
    message = "".join(random.Random(49).choices(string.ascii_letters, k=48 * 1024))
    _, proof = _prove(rig, message)

    def refuse(cipher, index, data):
        raise AssertionError("ran the record keystream")

    monkeypatch.setattr(toytls.RecordCipher, "xor", refuse)
    # The patch is live: proving, which seals records, runs into it.
    with pytest.raises(AssertionError, match="ran the record keystream"):
        _prove(rig, message)
    assert verify_webproof(message, proof, rig.entry, "tool", rig.registry) == message


def test_verify_webproof_closes_its_session_of_one_once(rig, monkeypatch):
    _, proof = _prove(rig, "once")
    closed = []
    close = OpenChain.close
    monkeypatch.setattr(OpenChain, "close", lambda s: closed.append(s) or close(s))
    assert verify_webproof("once", proof, rig.entry, "tool", rig.registry) == "once"
    assert len(closed) == 1 and closed[0].signed is proof.statement


def test_cross_session_splicing_rejected(rig):
    _, proof_a = _prove(rig, "aaaa", seed=1)
    _, proof_b = _prove(rig, "bbbb", seed=2)
    # The signed chain from the other session.
    spliced = replace(proof_a, statement=proof_b.statement)
    with pytest.raises(Rejected) as err:
        verify_webproof("aaaa", spliced, rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"


UNCHAINED = ("cipher-mismatch", "the records do not chain to the signed head")


def test_mutated_record_key_rejected(rig):
    # A response record's tag is hashed over the disclosed response, a
    # request record's over the rendering of the claimed input; a wrong
    # key gives another tag, and the chain another head.
    _, proof = _prove(rig, "x")
    for (direction, index), key in proof.record_keys.items():
        keys = {**proof.record_keys, (direction, index): bytes([key[0] ^ 1]) + key[1:]}
        assert _reason(rig, "x", replace(proof, record_keys=keys)) == UNCHAINED


def test_claimed_input_must_match_disclosure(rig):
    # An input of the same length renders as many bytes, in records of
    # the same lengths, whose tags do not chain to the signed head.
    _, proof = _prove(rig, "x")
    lied = replace(proof, claims={"input": "y"})
    assert _reason(rig, "x", lied) == UNCHAINED


def test_secret_never_in_serialized_proof(rig):
    from vet.canonical import canonical_bytes

    _, proof = _prove(rig, "privacy")
    blob = canonical_bytes(proof.to_obj())
    secret_bytes = SECRET.encode()
    for start in range(len(secret_bytes) - 15):
        window = secret_bytes[start:start + 16]
        assert window not in blob
        assert window.hex().encode() not in blob


def test_a_non_ascii_secret_is_refused_before_any_session_opens(rig, opened_sessions):
    # "é" is two bytes: padded to 16 characters, the secret would fill 32
    # bytes, 16 of them past its span, in a record whose key is released.
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": "é" * 16})
    with pytest.raises(ValidationError, match="secret 'token' is not ASCII"):
        prover.call(rig.entry, "hi", "tool")
    assert opened_sessions == {}


def test_a_secret_header_whose_name_is_not_a_token_is_refused(rig):
    # Named "X-Ключ", whose "name: " prefix is 4 bytes longer than it is
    # characters long, the secret's span was once placed 4 bytes early:
    # its last 4 bytes fell into the next up record, whose key the proof
    # released to the notary, which holds that record's tag.
    obj = copy.deepcopy(rig.registry._objs[rig.inject_uid])
    assert obj["headers"][1]["secret"] == "token"
    obj["headers"][1]["name"] = "X-Ключ"
    with pytest.raises(ValidationError, match="header name 'X-Ключ' is not an HTTP token"):
        rig.registry.register(obj)
    # Under a token name the secret fills its span, which is its own record.
    request, spans = render(rig.registry.get_inject(rig.inject_uid), "tail", {"token": SECRET})
    (offset, length) = spans["token"]
    assert request[offset:offset + length] == SECRET.encode()
    records = toytls.split_records(len(request), [spans["token"]])
    assert [r for r in records if r[2]] == [(offset, length, True)]


def test_a_core_entry_naming_a_tool_parse_template_is_a_template_mismatch(rig):
    _, proof = _prove(rig, "core?")
    with pytest.raises(Rejected) as err:
        verify_webproof("core?", proof, rig.entry, "core", rig.registry)
    assert err.value.reason == "template-mismatch"
    assert "tool parse template" in err.value.detail


def test_minimal_disclosure_excludes_secret_chunks(rig):
    template = rig.registry.get_inject(rig.inject_uid)
    _, proof = _prove(rig, "mindisc")
    request, spans = render(template, "mindisc", {"token": SECRET})
    (offset, length) = spans["token"]
    # The secret is an up record of its own, the one whose key is withheld
    # and whose tag is shipped; nothing of the request is disclosed.
    up = toytls.split_records(len(request), [spans["token"]])
    secret_record = up.index((offset, length, True))
    assert proof.request_length == len(request)
    released = {i for d, i in proof.record_keys if d == "up"}
    assert released == set(range(len(up))) - {secret_record}
    assert len(proof.withheld_tags) == 1
    assert proof.to_obj()["request_disclosure"] == {"chunks": []}


def test_unkeyed_record_disclosure_rejected(rig):
    # A request disclosed as format 7 did, the secret record's bytes
    # included, no longer decodes: the request stubs admit no content.
    template = rig.registry.get_inject(rig.inject_uid)
    _, proof = _prove(rig, "leakattempt")
    request, spans = render(template, "leakattempt", {"token": SECRET})
    up = [n for _, n, _ in toytls.split_records(len(request), [spans["token"]])]
    request_commitment, opening = commit(request, up, random.Random(79))
    obj = proof.to_obj()
    obj["request_commitment"] = request_commitment.to_obj()
    obj["request_disclosure"] = disclose(opening).to_obj()
    with pytest.raises(ValidationError, match="request fields must be"):
        WebProof.from_obj(obj)


def _session_proof(rig, x, spans=None, seed=0):
    """A proof of echoing ``x`` with its request cut at ``spans`` (the
    template's secret spans by default), and the key of every up record,
    as only the prover holds them."""
    template = rig.registry.get_inject(rig.inject_uid)
    request, secret = render(template, x, {"token": SECRET})
    session = NotarizedSession(
        provision_channel(rig.service, "echo.test", rng=random.Random(seed)), random.Random(seed)
    )
    session.send(request, sorted(secret.values()) if spans is None else spans, {"input": x})
    up_keys = session._sent[0].up_keys
    ((_, proof),) = session.finish()
    return proof, up_keys


def _reason(rig, x, proof):
    with pytest.raises(Rejected) as err:
        verify_webproof(x, proof, rig.entry, "tool", rig.registry)
    return err.value.reason, err.value.detail


def test_key_released_for_a_secret_record_is_rejected(rig):
    proof, up_keys = _session_proof(rig, "reveal")
    assert verify_webproof("reveal", proof, rig.entry, "tool", rig.registry) == "reveal"
    ((secret_record,),) = [
        set(range(len(up_keys))) - {i for d, i in proof.record_keys if d == "up"}
    ]
    keys = {**proof.record_keys, ("up", secret_record): up_keys[secret_record]}
    assert _reason(rig, "reveal", replace(proof, record_keys=keys)) == (
        "template-mismatch", f"up record {secret_record} is secret but has a key"
    )


def test_withheld_public_record_key_is_rejected(rig):
    proof, _ = _session_proof(rig, "withhold")
    for slot in [slot for slot in proof.record_keys if slot[0] == "up"]:
        keys = {s: k for s, k in proof.record_keys.items() if s != slot}
        assert _reason(rig, "withhold", replace(proof, record_keys=keys)) == (
            "template-mismatch", f"up record {slot[1]} has no key"
        )


@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("release", [False, True], ids=["withheld", "released"])
def test_record_straddling_a_secret_span_edge_is_rejected(rig, side, release):
    # The secret is sent in one record with its public neighbour, as a
    # prover that reveals the neighbour's bytes without a record of their
    # own would. The verifier cuts the rendering at the span's edges, so
    # the proof's keys fall on records of other roles: a public record
    # has no key, or a secret one has the merged record's key.
    template = rig.registry.get_inject(rig.inject_uid)
    request, spans = render(template, "straddle", {"token": SECRET})
    offset, length = spans["token"]
    merged = [(0, offset + length)] if side == "before" else [(offset, len(request) - offset)]
    proof, up_keys = _session_proof(rig, "straddle", spans=merged)
    merged_record = 0 if side == "before" else 1
    assert ("up", merged_record) not in proof.record_keys
    if release:
        proof = replace(
            proof, record_keys={**proof.record_keys, ("up", merged_record): up_keys[merged_record]}
        )
    failure = {
        ("before", False): "up record 0 has no key",
        ("before", True): "up record 1 is secret but has a key",
        ("after", False): "up record 2 has no key",
        ("after", True): "up record 1 is secret but has a key",
    }[side, release]
    assert _reason(rig, "straddle", proof) == ("template-mismatch", failure)


def test_key_for_an_up_record_past_the_chain_is_a_cipher_mismatch(rig):
    _, proof = _prove(rig, "past")
    keys = {**proof.record_keys, ("up", 3): bytes(32)}
    assert _reason(rig, "past", replace(proof, record_keys=keys)) == (
        "cipher-mismatch", "key for nonexistent up record 3"
    )


def test_request_stub_with_a_wrong_total_length_is_rejected(rig):
    _, proof = _prove(rig, "length")
    for wrong in (proof.request_length - 1, proof.request_length + 1, 0):
        obj = proof.to_obj()
        obj["request_commitment"]["total_length"] = str(wrong)
        reason, detail = _reason(rig, "length", WebProof.from_obj(obj))
        assert reason == "template-mismatch" and f"declared length {wrong}" in detail


@pytest.mark.parametrize(
    "field, stub",
    [
        ("request_disclosure", {"chunks": [{"index": "0"}]}),
        ("request_disclosure", {"chunks": [], "ranges": []}),
        ("request_disclosure", {}),
        ("request_commitment", {"total_length": "1", "root": "00" * 32}),
        ("request_commitment", {}),
        ("claims", {"input": "stub", "more": "x"}),
        ("claims", {}),
    ],
    ids=[
        "nonempty-chunks", "extra-disclosure-key", "no-chunks", "extra-commitment-key",
        "no-total-length", "extra-claim", "no-input",
    ],
)
def test_request_stubs_and_claims_admit_one_shape(rig, field, stub):
    _, proof = _prove(rig, "stub")
    obj = proof.to_obj()
    obj[field] = stub
    with pytest.raises(ValidationError):
        WebProof.from_obj(obj)


@pytest.mark.parametrize(
    "ranges",
    [[], [["0", "1"]], [["1", "N"]], [["0", "N"], ["0", "N"]], [["0", "N+1"]]],
    ids=["none", "short", "shifted", "twice", "past-end"],
)
def test_response_ranges_must_be_the_whole_response(rig, ranges):
    _, proof = _prove(rig, "ranges")
    total = proof.response_commitment.total_length
    obj = proof.to_obj()
    obj["response_disclosure"]["ranges"] = [
        [o, n.replace("N+1", str(total + 1)).replace("N", str(total))] for o, n in ranges
    ]
    assert _reason(rig, "ranges", WebProof.from_obj(obj))[0] == "chunk-range-inconsistency"


def test_an_empty_response_is_refused_by_its_parser(rig):
    # An empty response has no chunk: its whole disclosure is the range
    # (0, 0) and no run, and the verdict comes from parsing it.
    empty = type(rig)(seed="empty", handler=lambda request: b"")
    request, spans = empty.registry.render_call(empty.entry, "nothing", {"token": SECRET})
    channel = provision_channel(empty.service, "echo.test", rng=random.Random(1))
    response, proof = run_session(
        channel, request, spans, random.Random(2), claims={"input": "nothing"}
    )
    assert response == b"" and proof.down_lengths == (0,)
    assert proof.response_disclosure.to_obj() == {"ranges": [["0", "0"]], "chunks": []}
    with pytest.raises(Rejected) as err:
        verify_webproof("nothing", proof, empty.entry, "tool", empty.registry)
    assert err.value.reason == "parse-failure"


def _split_around(run, lengths, k):
    """``run`` cut into chunks before ``k`` and after it, the second run
    carrying chunk ``k``'s correct leaf."""
    start, end = sum(lengths[:k]), sum(lengths[:k + 1])
    salt = lambda i, j: run.salt[i * SALT_LEN:j * SALT_LEN]
    leaf = leaf_hash(salt(k, k + 1), run.data[start:end])
    return (
        RevealedRun(0, salt(0, k), run.data[:start], ()),
        RevealedRun(k + 1, salt(k + 1, len(lengths)), run.data[end:], (leaf,)),
    )


def _flip_at(blob, index):
    return blob[:index] + bytes([blob[index] ^ 1]) + blob[index + 1:]


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda run, lengths: (replace(run, data=_flip_at(run.data, 100)),), "bad-path"),
        (lambda run, lengths: (replace(run, salt=_flip_at(run.salt, 20)),), "bad-path"),
        (lambda run, lengths: (replace(run, index=1),), "chunk-range-inconsistency"),
        (lambda run, lengths: (replace(run, path=(bytes(32),)),), "bad-path"),
        (lambda run, lengths: _split_around(run, lengths, 1), "chunk-range-inconsistency"),
        (lambda run, lengths: (replace(run, salt=run.salt[:15]),), "length-mismatch"),
    ],
    ids=["data-byte", "salt-byte", "run-index-1", "extra-leaf", "split-around-a-gap",
         "salt-of-15-bytes"],
)
def test_each_mutation_of_the_disclosed_response_has_its_reason(rig, mutate, reason):
    message = "".join(random.Random(51).choices(string.ascii_letters, k=40 * 1024))
    _, proof = _prove(rig, message)
    lengths = proof.response_commitment.chunk_lengths
    assert len(lengths) >= 3
    (run,) = proof.response_disclosure.chunks
    forged = replace(
        proof,
        response_disclosure=Disclosure(proof.response_disclosure.ranges, mutate(run, lengths)),
    )
    assert _reason(rig, message, forged)[0] == reason


def test_proof_of_format_7_is_rejected_naming_its_version(rig):
    _, proof = _prove(rig, "old")
    obj = proof.to_obj()
    obj["format"] = "7"
    with pytest.raises(ValidationError, match="web proof format 7 is not supported"):
        WebProof.from_obj(obj)


def test_proof_of_format_8_is_rejected_naming_its_version(rig):
    # Format 8 listed every record in the statement; its proofs name the
    # version they were written in.
    _, proof = _prove(rig, "old")
    obj = proof.to_obj()
    obj["format"] = "8"
    with pytest.raises(ValidationError, match="web proof format 8 is not supported"):
        WebProof.from_obj(obj)


def test_proof_size_carries_no_copy_of_the_request(rig):
    # Growing x by 7 KiB grows the proof by the input claim and the
    # response echo alone: no hex copy of the request comes back.
    letters = random.Random(50).choices(string.ascii_letters, k=8 * 1024)
    small_x, large_x = "".join(letters[:1024]), "".join(letters)
    (_, small), (_, large) = _prove(rig, small_x, seed=1), _prove(rig, large_x, seed=2)
    grown = len(canonical_bytes(large.to_obj())) - len(canonical_bytes(small.to_obj()))
    response_growth = (
        large.response_commitment.total_length - small.response_commitment.total_length
    )
    assert 0 < grown < 2 * (7 * 1024 + response_growth)


def test_verify_webproof_checks_one_disclosure(rig, monkeypatch):
    _, proof = _prove(rig, "one disclosure")
    calls = []
    check = commitment.verify_disclosure

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(commitment, "verify_disclosure", counted)
    monkeypatch.setattr("vet.webproof.verify_disclosure", counted)
    assert verify_webproof("one disclosure", proof, rig.entry, "tool", rig.registry)
    assert calls == [proof.response_commitment]


def test_capacity_exhaustion_raises(rig):
    service = rig.fresh_notary()
    prover = WebProofProver(
        service, rig.registry, secrets={"token": SECRET}, cap_up=64, cap_down=1 << 16
    )
    with pytest.raises(CapacityExceeded):
        prover.call(rig.entry, "too-big-for-64-bytes", "tool")


def test_statement_chain_must_match_observation(rig):
    # A channel that tampers with one relayed record is caught by the
    # prover before any proof is assembled.
    class TamperingChannel:
        def __init__(self, inner):
            self.inner = inner
            self.session_id = inner.session_id

        def exchange(self, *batch):
            from vet import frames as f

            replies = self.inner.exchange(*batch)
            out = []
            for reply in replies:
                if reply.type == f.RELAY_DOWN:
                    payload = bytes([reply.payload[0] ^ 1]) + reply.payload[1:]
                    reply = type(reply)(f.RELAY_DOWN, payload)
                out.append(reply)
            return out

        def close(self):
            self.inner.close()

    channel = TamperingChannel(
        provision_channel(rig.service, "echo.test", rng=random.Random(5))
    )
    template = rig.registry.get_inject(rig.inject_uid)
    request, spans = render(template, "tamper", {"token": SECRET})
    with pytest.raises(ProtocolError):
        run_session(
            channel, request, secret_spans=sorted(spans.values()), claims={"input": "tamper"}
        )


class StatementSwap:
    """A channel that hands the prover ``rewrite(payload)`` in place of the
    STATEMENT the server was shown, and counts its closes."""

    def __init__(self, inner, rewrite):
        self.inner = inner
        self.session_id = inner.session_id
        self.rewrite = rewrite
        self.closes = 0

    def exchange(self, *batch):
        return [
            Frame(frames.STATEMENT, self.rewrite(r.payload)) if r.type == frames.STATEMENT else r
            for r in self.inner.exchange(*batch)
        ]

    def close(self):
        self.closes += 1
        self.inner.close()


def _flip_signature(obj, rig):
    signature = bytearray.fromhex(obj["notary_signature"])
    signature[0] ^= 1
    return dict(obj, notary_signature=signature.hex())


def _signed_by(key, statement):
    return {"statement": statement, "notary_signature": key.sign(canonical_bytes(statement))}


@pytest.mark.parametrize(
    "rewrite, refusal",
    [
        pytest.param(_flip_signature, "seed release refused", id="flipped-signature"),
        pytest.param(
            lambda obj, rig: _signed_by(SigningKey.from_seed("rogue"), obj["statement"]),
            "seed release refused",
            id="rogue-signed",
        ),
        pytest.param(
            lambda obj, rig: _signed_by(rig.notary_key, dict(obj["statement"], head="00" * 32)),
            "signed chain does not match",
            id="notary-signed-wrong-chain",
        ),
    ],
)
def test_prover_refuses_a_statement_other_than_the_servers(rig, rewrite, refusal):
    # The server checked and released the seed for the notary's honest
    # statement; the prover is handed another one. A changed signature, a
    # rogue signer, or a notary's second signature over a wrong chain
    # each leaves no proof, and the channel is closed.
    channel = StatementSwap(
        provision_channel(rig.service, "echo.test", rng=random.Random(6)),
        lambda payload: canonical_bytes(rewrite(canonical_loads(payload), rig)),
    )
    template = rig.registry.get_inject(rig.inject_uid)
    request, spans = render(template, "swap", {"token": SECRET})
    with pytest.raises(ProtocolError, match=refusal):
        run_session(channel, request, secret_spans=sorted(spans.values()), claims={"input": "swap"})
    assert channel.closes == 1


def test_notary_signing_a_wrong_chain_leaves_no_proof(rig, monkeypatch):
    # The notary signs a head that is not the session's: the server
    # releases no seed, and the prover gets the abort, not a proof.
    statement = NotarySession._statement

    def wrong_head(session):
        session.chain.head = bytes(32)
        return statement(session)

    monkeypatch.setattr(NotarySession, "_statement", wrong_head)
    channel = StatementSwap(
        provision_channel(rig.service, "echo.test", rng=random.Random(7)), lambda p: p
    )
    with pytest.raises(ProtocolError, match="aborted: .*signed chain does not match"):
        run_session(channel, b"GET / HTTP/1.1\r\n\r\n", claims={"input": "x"})
    assert channel.closes == 1


def test_run_session_checks_two_signatures(rig, monkeypatch):
    # The prover checks the server's handshake signature and the server
    # checks the notary's statement before it releases the seed; the
    # prover does not check the statement's signature a second time.
    calls = count_calls(monkeypatch, keys.verify_signature)
    channel = provision_channel(rig.service, "echo.test", rng=random.Random(8))
    template = rig.registry.get_inject(rig.inject_uid)
    request, spans = render(template, "count", {"token": SECRET})
    response, _ = run_session(
        channel, request, secret_spans=sorted(spans.values()), claims={"input": "count"}
    )
    assert b'"echo":"count"' in response
    assert len(calls) == 2


def _run(rig, messages, **caps):
    """Per session, each exchange and proof of echoing ``messages`` in one
    run of notarized sessions, decoded from what a bundle holds."""
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": SECRET}, **caps)
    run = NotarizedRun(prover, "echo.test")
    for message in messages:
        run.add(*rig.registry.render_call(rig.entry, message, prover.secrets), message)
    pending = iter(messages)
    sessions = []
    for signed, proven in run.finish():
        statement = SignedStatement.from_obj(signed)
        sessions.append([
            (
                rig.registry.read_call(rig.entry, next(pending), response, "tool"),
                WebProof.from_obj(payload, statement),
            )
            for response, payload in proven
        ])
    return sessions


def _verify_sessions(rig, sessions):
    """Check each session's proofs in order against its statement, opened
    once, as a bundle's verifier does; return the authenticated values."""
    values = []
    for proven in sessions:
        session = open_statement(
            proven[0][1].statement, rig.notary_key.public_string, "echo.test"
        )
        for exchange, proof in proven:
            assert proof.statement is session.signed
            checked = authenticate(
                proof,
                rig.notary_key.public_string,
                "echo.test",
                rig.registry.get_inject(rig.inject_uid),
                rig.registry.get_parse(rig.parse_uid),
                "tool",
                session,
            )
            assert checked == exchange
            values.append(checked.value)
        session.close()
    return values


def _sizes(rig, message):
    """(request, response) bytes of one echo of ``message``."""
    _, proof = _prove(rig, message)
    return proof.request_length, proof.response_commitment.total_length


def _aborted(opened):
    """The abort reasons of the sessions a test opened."""
    return [s.abort_reason for s in opened.values() if s.state == "aborted"]


def test_exchanges_share_one_session_and_each_must_be_proven(rig):
    messages = [f"{i}" * 20 for i in range(4)]
    (proven,) = _run(rig, messages)
    assert len(proven) == 4 and len({id(p.statement) for _, p in proven}) == 1
    assert _verify_sessions(rig, [proven]) == messages
    # Alone, a proof of a four-exchange statement leaves three unproven.
    with pytest.raises(Rejected) as err:
        verify_webproof(messages[0], proven[0][1], rig.entry, "tool", rig.registry)
    # Each exchange is three up records (the secret in one of its own) and one down.
    assert (err.value.reason, err.value.detail) == (
        "cipher-mismatch", "the session holds 16 records, 4 were proven"
    )


def test_request_that_would_overflow_rolls_to_a_fresh_session(rig, opened_sessions):
    request, _ = _sizes(rig, "a" * 30)
    opened_sessions.clear()
    sessions = _run(rig, [c * 30 for c in "abc"], cap_up=2 * request + 1)
    assert [len(s) for s in sessions] == [2, 1]
    assert _verify_sessions(rig, sessions) == [c * 30 for c in "abc"]
    assert _aborted(opened_sessions) == []


def test_response_overflow_replays_the_shared_session(rig, opened_sessions):
    _, response = _sizes(rig, "a" * 30)
    opened_sessions.clear()
    sessions = _run(rig, [c * 30 for c in "abc"], cap_down=2 * response)
    # The third response aborted the session of all three; the first two
    # were replayed into a session of their own, and no proof was lost.
    assert [len(s) for s in sessions] == [2, 1]
    assert _verify_sessions(rig, sessions) == [c * 30 for c in "abc"]
    (reason,) = _aborted(opened_sessions)
    assert "down capacity" in reason


@pytest.mark.parametrize("before", [0, 2], ids=["alone", "after-two"])
def test_exchange_too_big_for_a_fresh_session_fails(rig, before):
    _, response = _sizes(rig, "a" * 30)
    messages = ["a" * 30] * before + ["b" * 2000]
    with pytest.raises(CapacityExceeded):
        _run(rig, messages, cap_down=before * response + 100)


def test_chain_cuts_into_maximal_request_response_runs(rig):
    # Each proof chains its exchange's up run, then its down run, and no
    # record of the next exchange: a short and a long echo, in one session.
    (proven,) = _run(rig, ["a", "b" * 40000])
    session = open_statement(proven[0][1].statement, rig.notary_key.public_string, "echo.test")
    taken = []
    for exchange, proof in proven:
        template = rig.registry.get_inject(rig.inject_uid)
        authenticate(
            proof, rig.notary_key.public_string, "echo.test", template,
            rig.registry.get_parse(rig.parse_uid), "tool", session,
        )
        taken.append(session.chain.count)
    short, long = (len(proof.down_lengths) for _, proof in proven)
    assert (short, long) == (1, 3)
    assert taken == [3 + short, 3 + short + 5 + long] and taken[-1] == session.signed.records
    session.close()


def test_proof_must_cover_an_up_and_a_down_record(rig):
    _, proof = _prove(rig, "shape")
    assert _reason(rig, "shape", replace(proof, down_lengths=())) == (
        "cipher-mismatch", "a proof must cover an up and a down record"
    )
    # The response's bytes regrouped into records of other lengths.
    (n,) = proof.down_lengths
    regrouped = replace(
        proof,
        down_lengths=(1, n - 1),
        record_keys={**proof.record_keys, ("down", 1): proof.record_keys["down", 0]},
    )
    assert _reason(rig, "shape", regrouped) == (
        "cipher-mismatch", "the session holds 4 records, and the proofs carry more"
    )


def test_withheld_tag_must_be_the_signed_one(rig):
    # The prover holds the secret record's key, so it can tag other bytes
    # under it; that tag does not chain to the signed head.
    proof, up_keys = _session_proof(rig, "retag")
    ((secret_record,),) = [
        set(range(len(up_keys))) - {i for d, i in proof.record_keys if d == "up"}
    ]
    other = toytls.record_tag(up_keys[secret_record], b"~" * len(SECRET))
    assert _reason(rig, "retag", replace(proof, withheld_tags=(other,))) == UNCHAINED
    assert _reason(rig, "retag", replace(proof, withheld_tags=())) == (
        "template-mismatch", "the proof withholds 0 tags for 1 secret records"
    )


def test_chain_past_its_signed_capacity_is_rejected(rig):
    # A statement signed by the notary, but with less capacity than its
    # records carry: the verifier sums the bytes as it chains them.
    _, proof = _prove(rig, "capacity")
    statement = dict(proof.statement.statement, channel_capacity={"up": "10", "down": "65536"})
    signed = SignedStatement.from_obj(
        {
            "statement": statement,
            "notary_signature": rig.notary_key.sign(canonical_bytes(statement)),
        }
    )
    assert _reason(rig, "capacity", replace(proof, statement=signed)) == (
        "cipher-mismatch", "the proofs carry more up bytes than the signed 10"
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("withheld_tags", ["00" * 31]),
        ("withheld_tags", "00" * 32),
        ("withheld_tags", ["AB" * 32]),
        ("down_lengths", ["-1"]),
        ("down_lengths", [str(toytls.RECORD_MAX + 1)]),
        ("down_lengths", ["01"]),
    ],
    ids=["short-tag", "tags-not-a-list", "uppercase-tag", "negative", "past-record-max", "spelled"],
)
def test_withheld_tags_and_down_lengths_admit_one_shape(rig, field, value):
    _, proof = _prove(rig, "shape")
    obj = proof.to_obj()
    obj[field] = value
    with pytest.raises(ValidationError):
        WebProof.from_obj(obj)


@pytest.mark.parametrize(
    "reorder",
    [
        lambda keys: keys[::-1],
        lambda keys: [keys[1], keys[0], *keys[2:]],
        lambda keys: [k for k in keys if k["direction"] == "up"]
        + [k for k in keys if k["direction"] == "down"],
    ],
    ids=["reversed", "first-two-swapped", "up-before-down"],
)
def test_record_keys_admit_one_order(rig, reorder):
    # Keys go by direction, then index, as the prover writes them; any
    # other order of the same keys does not decode.
    _, proof = _prove(rig, "x" * 20000)
    obj = proof.to_obj()
    keys = obj["record_keys"]
    assert len({k["direction"] for k in keys}) == 2 and len(keys) >= 3
    obj["record_keys"] = reorder(keys)
    assert obj["record_keys"] != keys
    with pytest.raises(ValidationError, match="in order by direction, then index"):
        WebProof.from_obj(obj)


@pytest.mark.parametrize("message", ["", "m", "x" * 20000], ids=["empty", "short", "two-records"])
@pytest.mark.parametrize("secret", [False, True], ids=["public", "secret-header"])
def test_every_run_session_proof_round_trips(rig, message, secret):
    template = rig.registry.get_inject(rig.inject_uid)
    request, spans = render(template, message, {"token": SECRET})
    channel = provision_channel(rig.service, "echo.test", rng=random.Random(7))
    _, proof = run_session(
        channel, request, sorted(spans.values()) if secret else None, claims={"input": message}
    )
    obj = proof.to_obj()
    assert WebProof.from_obj(obj).to_obj() == obj
    assert len(proof.withheld_tags) == int(secret)


def test_session_opened_for_one_notary_key_serves_no_other(rig):
    (proven,) = _run(rig, ["a" * 8, "b" * 8])
    session = open_statement(proven[0][1].statement, rig.notary_key.public_string, "echo.test")
    rogue = SigningKey.from_seed("rogue-notary").public_string
    with pytest.raises(Rejected) as err:
        authenticate(
            proven[0][1], rogue, "echo.test",
            rig.registry.get_inject(rig.inject_uid), rig.registry.get_parse(rig.parse_uid),
            "tool", session,
        )
    assert err.value.reason == "bad-signature"
