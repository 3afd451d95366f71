import random
import string
from itertools import accumulate

import pytest

from conftest import grid
from vet import toytls
from vet.canonical import canonical_bytes
from vet.commitment import SALT_LEN, Disclosure, commit, disclose
from vet.errors import CapacityExceeded, ProtocolError, Rejected, ValidationError
from vet.keys import SigningKey
from vet.templates import render
from vet.webproof import (
    OpenStatement,
    RecordInfo,
    SignedStatement,
    WebProof,
    WebProofProver,
    authenticate,
    exchanges_of,
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
    obj = proof.to_obj()
    statement = obj["signed_statement"]["statement"]
    statement["records"][0]["length"] = "x"
    obj["signed_statement"]["notary_signature"] = rig.notary_key.sign(canonical_bytes(statement))
    with pytest.raises(ValidationError, match="length must be a decimal integer string"):
        WebProof.from_obj(obj)
    with pytest.raises(ValidationError):
        verify_webproof("x", WebProof.from_obj(obj), rig.entry, "tool", rig.registry)


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


def test_recommitment_to_other_plaintext_rejected(rig):
    # Forge: keep the signed statement but commit to a different response.
    _, proof = _prove(rig, "x")
    fake_response = (
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n'
        b'Content-Length: 16\r\n\r\n{"echo":"forged"}'
    )
    rng = random.Random(9)
    fake_commitment, fake_opening = commit(fake_response, grid(len(fake_response), 16), rng)
    forged = WebProof(
        statement=proof.statement,
        record_keys=proof.record_keys,
        request_commitment=proof.request_commitment,
        request_disclosure=proof.request_disclosure,
        response_commitment=fake_commitment,
        response_disclosure=disclose(fake_opening, [(0, len(fake_response))]),
        claims=proof.claims,
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("forged", forged, rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"


def test_large_proof_is_at_most_three_times_its_exchange(rig):
    message = "".join(random.Random(48).choices(string.ascii_letters, k=48 * 1024))
    _, proof = _prove(rig, message)
    assert verify_webproof(message, proof, rig.entry, "tool", rig.registry) == message
    exchange = proof.request_commitment.total_length + proof.response_commitment.total_length
    assert exchange > 2 * 48 * 1024
    assert len(canonical_bytes(proof.to_obj())) <= 3 * exchange
    # One chunk, and so one salt, per record; only the secret's stays hidden.
    records = proof.statement.records
    for direction, commitment in (
        ("up", proof.request_commitment), ("down", proof.response_commitment)
    ):
        lengths = [r.length for r in records if r.direction == direction]
        assert list(commitment.chunk_lengths) == lengths
    disclosures = (proof.request_disclosure, proof.response_disclosure)
    salts = sum(len(run.salt) for d in disclosures for run in d.chunks) // SALT_LEN
    assert salts == len(records) - 1


def test_verify_webproof_runs_no_keystream(rig, monkeypatch):
    message = "".join(random.Random(49).choices(string.ascii_letters, k=48 * 1024))
    _, proof = _prove(rig, message)

    def refuse(key, length):
        raise AssertionError("the verifier ran the record keystream")

    monkeypatch.setattr(toytls, "keystream", refuse)
    assert verify_webproof(message, proof, rig.entry, "tool", rig.registry) == message


def test_verify_webproof_closes_its_session_of_one_once(rig, monkeypatch):
    _, proof = _prove(rig, "once")
    closed = []
    close = OpenStatement.close
    monkeypatch.setattr(OpenStatement, "close", lambda s: closed.append(s) or close(s))
    assert verify_webproof("once", proof, rig.entry, "tool", rig.registry) == "once"
    assert len(closed) == 1 and closed[0].statement is proof.statement


def test_cross_session_splicing_rejected(rig):
    _, proof_a = _prove(rig, "aaaa", seed=1)
    _, proof_b = _prove(rig, "bbbb", seed=2)
    spliced = WebProof(
        statement=proof_b.statement,  # signed chain from the other session
        record_keys=proof_a.record_keys,
        request_commitment=proof_a.request_commitment,
        request_disclosure=proof_a.request_disclosure,
        response_commitment=proof_a.response_commitment,
        response_disclosure=proof_a.response_disclosure,
        claims=proof_a.claims,
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("aaaa", spliced, rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"


def test_mutated_record_key_rejected(rig):
    _, proof = _prove(rig, "x")
    keys = dict(proof.record_keys)
    (slot, key) = next(iter(keys.items()))
    keys[slot] = bytes([key[0] ^ 1]) + key[1:]
    mutated = WebProof(
        statement=proof.statement,
        record_keys=keys,
        request_commitment=proof.request_commitment,
        request_disclosure=proof.request_disclosure,
        response_commitment=proof.response_commitment,
        response_disclosure=proof.response_disclosure,
        claims=proof.claims,
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("x", mutated, rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"


def test_claimed_input_must_match_disclosure(rig):
    _, proof = _prove(rig, "x")
    lied = WebProof(
        statement=proof.statement,
        record_keys=proof.record_keys,
        request_commitment=proof.request_commitment,
        request_disclosure=proof.request_disclosure,
        response_commitment=proof.response_commitment,
        response_disclosure=proof.response_disclosure,
        claims={"input": "y"},
    )
    with pytest.raises(Rejected) as err:
        verify_webproof("x", lied, rig.entry, "tool", rig.registry)
    assert err.value.reason == "template-mismatch"


def test_secret_never_in_serialized_proof(rig):
    from vet.canonical import canonical_bytes

    _, proof = _prove(rig, "privacy")
    blob = canonical_bytes(proof.to_obj())
    secret_bytes = SECRET.encode()
    for start in range(len(secret_bytes) - 15):
        window = secret_bytes[start:start + 16]
        assert window not in blob
        assert window.hex().encode() not in blob


def test_minimal_disclosure_excludes_secret_chunks(rig):
    template = rig.registry.get_inject(rig.inject_uid)
    _, proof = _prove(rig, "mindisc")
    request, spans = render(template, "mindisc", {"token": SECRET})
    (offset, length) = spans["token"]
    # The secret is a record of its own, so it is one chunk of its own.
    offsets = list(accumulate(proof.request_commitment.chunk_lengths, initial=0))
    secret_chunk = offsets.index(offset)
    assert offsets[secret_chunk + 1] == offset + length
    revealed = {i for run in proof.request_disclosure.chunks for i in range(run.index, run.end)}
    assert offsets[-1] == len(request)
    assert revealed == set(range(len(offsets) - 1)) - {secret_chunk}


def test_unkeyed_record_disclosure_rejected(rig):
    # Disclose the secret chunk without a key for its record.
    template = rig.registry.get_inject(rig.inject_uid)
    prover = WebProofProver(
        rig.service, rig.registry, secrets={"token": SECRET}, rng=random.Random(77)
    )
    request, spans = render(template, "leakattempt", {"token": SECRET})
    channel = provision_channel(rig.service, "echo.test", rng=random.Random(78))
    rng = random.Random(79)
    # Re-run the session manually but disclose everything, including the
    # secret span, while the secret record's key stays unreleased.
    response, proof = run_session(
        channel,
        request,
        secret_spans=sorted(spans.values()),
        rng=rng,
        claims={"input": "leakattempt"},
    )
    full_commitment, full_opening = None, None
    # Rebuild a disclosure of the full request under the same commitment
    # is impossible without the opening; instead widen the honest one by
    # lying about the ranges.
    widened = Disclosure(
        ranges=((0, proof.request_commitment.total_length),),
        chunks=proof.request_disclosure.chunks,
    )
    forged = WebProof(
        statement=proof.statement,
        record_keys=proof.record_keys,
        request_commitment=proof.request_commitment,
        request_disclosure=widened,
        response_commitment=proof.response_commitment,
        response_disclosure=proof.response_disclosure,
        claims=proof.claims,
    )
    with pytest.raises(Rejected):
        verify_webproof("leakattempt", forged, rig.entry, "tool", rig.registry)


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
            self.notary_public_key = inner.notary_public_key

        def exchange(self, frame):
            from vet import frames as f

            replies = self.inner.exchange(frame)
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
        run_session(channel, request, secret_spans=sorted(spans.values()))


def _run(rig, messages, **caps):
    """The proofs of echoing ``messages`` in one run of notarized sessions."""
    prover = WebProofProver(rig.service, rig.registry, secrets={"token": SECRET}, **caps)
    run = prover.sessions("echo.test")
    for message in messages:
        run.add(rig.entry, message, "tool")
    return run.finish()


def _verify_sessions(rig, sessions):
    """Check each session's proofs in order against its statement, opened
    once, as a bundle's verifier does; return the authenticated values."""
    values = []
    for proven in sessions:
        session = OpenStatement(proven[0][1].statement, rig.notary_key.public_string, "echo.test")
        for exchange, proof in proven:
            assert proof.statement is session.statement
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
    return proof.request_commitment.total_length, proof.response_commitment.total_length


def _aborted(service):
    entries = [service.ledger.get(sid) for sid in service.ledger.session_ids()]
    return [e.abort_reason for e in entries if e.state == "aborted"]


def test_exchanges_share_one_session_and_each_must_be_proven(rig):
    messages = [f"{i}" * 20 for i in range(4)]
    (proven,) = _run(rig, messages)
    assert len(proven) == 4 and len({id(p.statement) for _, p in proven}) == 1
    assert _verify_sessions(rig, [proven]) == messages
    # Alone, a proof of a four-exchange statement leaves three unproven.
    with pytest.raises(Rejected) as err:
        verify_webproof(messages[0], proven[0][1], rig.entry, "tool", rig.registry)
    assert err.value.reason == "cipher-mismatch"
    assert "holds 4 exchanges, 1 were proven" in err.value.detail


def test_request_that_would_overflow_rolls_to_a_fresh_session(rig):
    service = rig.fresh_notary()
    request, _ = _sizes(rig, "a" * 30)
    sessions = _run(rig, [c * 30 for c in "abc"], cap_up=2 * request + 1)
    assert [len(s) for s in sessions] == [2, 1]
    assert _verify_sessions(rig, sessions) == [c * 30 for c in "abc"]
    assert _aborted(service) == []


def test_response_overflow_replays_the_shared_session(rig):
    service = rig.fresh_notary()
    _, response = _sizes(rig, "a" * 30)
    sessions = _run(rig, [c * 30 for c in "abc"], cap_down=2 * response)
    # The third response aborted the session of all three; the first two
    # were replayed into a session of their own, and no proof was lost.
    assert [len(s) for s in sessions] == [2, 1]
    assert _verify_sessions(rig, sessions) == [c * 30 for c in "abc"]
    (reason,) = _aborted(service)
    assert "down capacity" in reason


@pytest.mark.parametrize("before", [0, 2], ids=["alone", "after-two"])
def test_exchange_too_big_for_a_fresh_session_fails(rig, before):
    _, response = _sizes(rig, "a" * 30)
    messages = ["a" * 30] * before + ["b" * 2000]
    with pytest.raises(CapacityExceeded):
        _run(rig, messages, cap_down=before * response + 100)


def _records(shape):
    directions = {"u": "up", "d": "down", "x": "sideways"}
    return tuple(RecordInfo(directions[c], "00" * 32, 1) for c in shape)


def test_chain_cuts_into_maximal_request_response_runs():
    assert [
        (len(up), len(down)) for up, down in exchanges_of(_records("udduduuud"))
    ] == [(1, 2), (1, 1), (3, 1)]
    assert exchanges_of(()) == []


@pytest.mark.parametrize(
    "shape, at",
    [("u", 0), ("d", 0), ("udu", 2), ("udduu", 3), ("uxd", 0)],
    ids=[
        "request-only", "response-only", "trailing-request", "trailing-requests", "other-direction"
    ],
)
def test_chain_that_is_not_request_response_pairs_is_rejected(shape, at):
    with pytest.raises(Rejected) as err:
        exchanges_of(_records(shape))
    assert (err.value.reason, err.value.detail) == (
        "cipher-mismatch", f"signed records from {at} on do not form a request/response exchange"
    )


def test_session_opened_for_one_notary_key_serves_no_other(rig):
    (proven,) = _run(rig, ["a" * 8, "b" * 8])
    session = OpenStatement(proven[0][1].statement, rig.notary_key.public_string, "echo.test")
    rogue = SigningKey.from_seed("rogue-notary").public_string
    with pytest.raises(Rejected) as err:
        authenticate(
            proven[0][1], rogue, "echo.test",
            rig.registry.get_inject(rig.inject_uid), rig.registry.get_parse(rig.parse_uid),
            "tool", session,
        )
    assert err.value.reason == "bad-signature"
