"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Each test here is an end-to-end property of the whole package rather
than a unit test of one module; tolerances are pinned inline.
"""

import copy
import random
import re
import string
import time
from dataclasses import replace

import pytest

from test_aid import _doc_obj, _oracle_id, mutate_one_field
from test_composer import ScriptedWorld
from conftest import WebProofRig, grid

from vet import toytls
from vet.aid import AgentIdentityDocument
from vet.canonical import canonical_bytes
from vet.channel_sim import (
    SessionWorkload,
    direct_latency,
    first_round_latency,
    paper_calibration,
    plan,
    proxied_latency,
    simulate,
)
from vet.commitment import commit, disclose
from vet.composer import ComponentProof, VerifiableExecutionTrace, verify_trace
from vet.errors import Rejected
from vet.keys import SigningKey
from vet.templates import render
from vet.webproof import (
    NotarizedSession,
    SignedStatement,
    WebProof,
    WebProofProver,
    provision_channel,
    verify_webproof,
)


def _string_leaves(node, path=()):
    if isinstance(node, str):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _string_leaves(value, path + (key,))
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            yield from _string_leaves(value, path + (i,))


def _flip_char(value, rng):
    pos = rng.randrange(len(value))
    replacement = chr((ord(value[pos]) - 32 + 1 + rng.randrange(94)) % 95 + 32)
    return value[:pos] + replacement + value[pos + 1:]


def _mutate_obj(obj, rng, skip=(), skip_token=None):
    """Deep-copy ``obj`` and flip one character of one string leaf."""
    mutated = copy.deepcopy(obj)
    leaves = [
        (p, v)
        for p, v in _string_leaves(mutated)
        if v and p not in skip and (skip_token is None or skip_token not in p)
    ]
    path, value = leaves[rng.randrange(len(leaves))]
    node = mutated
    for token in path[:-1]:
        node = node[token]
    # A case-only flip of a hex string decodes to the same bytes and so is
    # not a real mutation; keep flipping until the value changes for real.
    def null_flip(changed):
        if changed == value:
            return True
        if len(value) % 2 == 0 and changed.lower() == value.lower():
            try:
                bytes.fromhex(value)
                return True
            except ValueError:
                pass
        return False

    changed = _flip_char(value, rng)
    while null_flip(changed):
        changed = _flip_char(value, rng)
    node[path[-1]] = changed
    return mutated


def test_criterion_1_completeness_100_seeded_runs():
    """100 seeded honest runs (agent -> prove_trace -> verify_trace) accept, < 60 s."""
    started = time.monotonic()
    for i in range(100):
        world = ScriptedWorld(f"acc-{i}", n_steps=2)
        trace, bundle = world.run()
        claim = trace.steps[-1].core_output
        assert verify_trace(claim, bundle, world.aid, world.registry) == claim
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"completeness suite took {elapsed:.1f}s"


def test_criterion_2_soundness_no_forgery_accepted():
    """>= 10^4 randomized forgery attempts across ten attack families, 0 accepted."""
    rng = random.Random(20260826)
    rig = WebProofRig(seed="forge-rig")
    secret = "S" * 16
    prover = WebProofProver(
        rig.service, rig.registry, secrets={"token": secret}, rng=random.Random(8)
    )
    pool = [prover.call(rig.entry, f"honest-{i}", "tool") for i in range(6)]
    pool = [(exchange.value, proof) for exchange, proof in pool]

    world = ScriptedWorld("forge-world", n_steps=2)
    trace, bundle = world.run()
    claim = trace.steps[-1].core_output
    bundle_obj = bundle.to_obj()

    accepted = []
    trials = 0

    def attempt_webproof(label, x, proof, entry=None):
        nonlocal trials
        trials += 1
        try:
            verify_webproof(x, proof, entry or rig.entry, "tool", rig.registry)
        except Exception:
            return
        accepted.append(label)

    def attempt_trace(label, x, forged_bundle, aid=None):
        nonlocal trials
        trials += 1
        try:
            verify_trace(x, forged_bundle, aid or world.aid, world.registry)
        except Exception:
            return
        accepted.append(label)

    # (a) ciphertext mutation post-signature: flip one character anywhere
    # in a serialized proof (record keys, disclosed chunks, commitments,
    # the request stub, signed statement fields, claims).
    # Mutations that decode back to the identical proof (hex case flips)
    # are skipped, as a benign re-encoding of the same proof.
    for i in range(2500):
        x, proof = pool[rng.randrange(len(pool))]
        obj = proof.to_obj()
        forged_obj = _mutate_obj(obj, rng)
        try:
            forged = WebProof.from_obj(forged_obj)
        except Exception:
            trials += 1
            continue
        if canonical_bytes(forged.to_obj()) == canonical_bytes(obj):
            continue
        attempt_webproof(f"ciphertext-mutation-{i}", x, forged)

    # (a') disclosure widening: reveal a request record the template
    # keeps secret, or leave a public one unchecked. Each forgery is made
    # by the prover, who holds every up record's key: release the secret
    # record's key, withhold a public record's key, send the secret in
    # one record with its public neighbour before or after it, with that
    # record's key released or withheld, or ship in place of the secret
    # record's signed tag a tag over other bytes under its key.
    template = rig.registry.get_inject(rig.inject_uid)

    def session_proof(x, merge):
        request, spans = render(template, x, {"token": secret})
        offset, length = spans["token"]
        cut = {
            None: [(offset, length)],
            "before": [(0, offset + length)],
            "after": [(offset, len(request) - offset)],
        }[merge]
        channel = provision_channel(rig.service, "echo.test", rng=rng)
        session = NotarizedSession(channel, rng)
        session.send(request, cut, {"input": x})
        up_keys = session._sent[0].up_keys
        ((_, proof),) = session.finish()
        (hidden,) = [k for k, key in enumerate(up_keys) if key not in proof.record_keys]
        return x, proof, up_keys, hidden

    split = [session_proof(f"widen-{i}", None) for i in range(4)]
    merged = [session_proof(f"merge-{i}", side) for i in range(4) for side in ("before", "after")]
    for i in range(500):
        family = rng.randrange(4)
        # ``hidden`` is the one up record whose key is withheld: the
        # secret's, or the merged one. Keys go to records by place, the
        # public up records' first.
        x, proof, up_keys, hidden = rng.choice(merged if family == 2 else split)
        keys = list(proof.record_keys)
        tags = proof.withheld_tags
        if family == 1:
            del keys[rng.randrange(len(up_keys) - 1)]
        elif family == 3:
            tags = (toytls.record_tag(up_keys[hidden], rng.randbytes(len(secret))),)
        elif family == 0 or rng.random() < 0.5:
            keys.insert(hidden, up_keys[hidden])
        forged = replace(proof, record_keys=tuple(keys), withheld_tags=tags)
        attempt_webproof(f"disclosure-widening-{i}", x, forged)

    # (b) plaintext/commitment recomputation: keep the signed statement
    # and released keys but commit to a fabricated response, in 16-byte
    # records whose lengths the proof then lists, so that the disclosure
    # verifies and the down tags must catch it.
    for i in range(1500):
        x, proof = pool[rng.randrange(len(pool))]
        fake_value = "forged-" + "".join(rng.choices(string.ascii_lowercase, k=8))
        body = ('{"echo":"%s"}' % fake_value).encode()
        fake_response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        lengths = grid(len(fake_response), 16)
        fake_commitment, fake_opening = commit(fake_response, lengths, rng)
        forged = replace(
            proof,
            down_lengths=tuple(lengths),
            response_commitment=fake_commitment,
            response_disclosure=disclose(fake_opening),
        )
        attempt_webproof(f"recommitment-{i}", fake_value, forged)

    # (c) cross-session record splicing: mix components of two honest
    # sessions into one proof.
    fields = (
        "statement",
        "record_keys",
        "request_length",
        "withheld_tags",
        "down_lengths",
        "response_commitment",
        "response_disclosure",
        "claims",
    )
    for i in range(2000):
        ia, ib = rng.sample(range(len(pool)), 2)
        (xa, pa), (_, pb) = pool[ia], pool[ib]
        picks = {name: rng.choice((pa, pb)) for name in fields}
        # Fields equal in both proofs (the request length of inputs of one
        # length) splice nothing, so at least one that differs comes from pb.
        if all(p is pa or getattr(pa, name) == getattr(pb, name) for name, p in picks.items()):
            picks["statement"] = pb
        spliced = WebProof(**{name: getattr(p, name) for name, p in picks.items()})
        attempt_webproof(f"splice-{i}", xa, spliced)

    # (d) trace-field mutation: flip one character somewhere in the
    # recorded execution trace and keep the honest proofs.
    for i in range(1500):
        forged_obj = dict(bundle_obj)
        forged_obj["trace"] = _mutate_obj(bundle_obj["trace"], rng)
        try:
            forged = VerifiableExecutionTrace.from_obj(forged_obj)
        except Exception:
            trials += 1
            continue
        attempt_trace(f"trace-mutation-{i}", claim, forged)

    # (e) sub-proof substitution: drop, duplicate, cross-wire, relocate,
    # or move component proofs.
    for i in range(1500):
        proofs = list(bundle.proofs)
        op = rng.randrange(5)
        if op == 0:
            proofs.pop(rng.randrange(len(proofs)))
        elif op == 1:
            proofs.append(proofs[rng.randrange(len(proofs))])
        elif op == 2:
            a, b = rng.sample(range(len(proofs)), 2)
            pa, pb = proofs[a], proofs[b]
            proofs[a] = ComponentProof(pb.kind, pa.step_index, pa.position, pb.payload)
            proofs[b] = ComponentProof(pa.kind, pb.step_index, pb.position, pa.payload)
        elif op == 3:
            j = rng.randrange(len(proofs))
            p = proofs[j]
            position = "core" if p.position != "core" else "tool:0"
            proofs[j] = ComponentProof(p.kind, rng.randrange(4), position, p.payload)
        else:
            # One proof moved intact, its locator with it, to another place.
            j, k = rng.sample(range(len(proofs)), 2)
            proofs.insert(k, proofs.pop(j))
        forged = VerifiableExecutionTrace(
            aid_id=bundle.aid_id,
            trace=bundle.trace,
            proofs=tuple(proofs),
            sessions=bundle.sessions,
        )
        attempt_trace(f"subproof-substitution-{i}", claim, forged)

    # (f) AID substitution: verify the honest bundle against a document
    # that differs in a single field (re-hashed so it is self-consistent).
    aid_obj = world.aid.to_obj()
    for i in range(500):
        trials += 1
        mutated = _mutate_obj(aid_obj, rng, skip=(("agent_hash",),))
        try:
            other = AgentIdentityDocument.from_obj(mutated).with_hash()
            verify_trace(claim, bundle, other, world.registry)
        except Exception:
            continue
        accepted.append(f"aid-substitution-{i}")

    # (g) notary-key substitution: honest proof checked against an entry
    # naming a different notary.
    for i in range(500):
        rogue = SigningKey.from_seed(f"rogue-notary-{i}")
        entry = type(rig.entry)(
            name=rig.entry.name,
            endpoint=rig.entry.endpoint,
            injection_algorithm_uid=rig.entry.injection_algorithm_uid,
            parsing_algorithm_uid=rig.entry.parsing_algorithm_uid,
            verification=type(rig.entry.verification)(
                rig.entry.verification.scheme,
                {
                    "protocol_version": "commit-then-key-release/1",
                    "notary_public_key": rogue.public_string,
                },
            ),
        )
        x, proof = pool[rng.randrange(len(pool))]
        attempt_webproof(f"notary-substitution-{i}", x, proof, entry=entry)

    # (h)-(j) act within signed sessions, which carry many exchanges
    # each: a world of six steps gives a notarized session of six core
    # calls and a proxy log of every tool call.
    deep = ScriptedWorld("forge-sessions", n_steps=6)
    deep_trace, deep_bundle = deep.run(max_steps=6)
    assert len(deep_trace.steps) == 6
    deep_claim = deep_trace.steps[0].core_output
    members = {}  # session index -> positions of the proofs naming it
    for k, proof in enumerate(deep_bundle.proofs):
        field = "signed_statement" if proof.kind == "webproof" else "attestation"
        members.setdefault(int(proof.payload[field]), []).append(k)
    shared = [ks for ks in members.values() if len(ks) >= 2]
    assert len(shared) == 2, members
    family_trials = {"h": 0, "i": 0, "j": 0}
    reasons = set()  # (trace reason, the scheme's reason inside its detail)

    def attempt_session(label, family, forged):
        nonlocal trials
        trials += 1
        family_trials[family] += 1
        try:
            verify_trace(deep_claim, forged, deep.aid, deep.registry)
        except Rejected as exc:
            inner = re.match(r"(?:step:\S+|session \d+): ([a-z-]+): ", exc.detail)
            reasons.add((exc.reason, inner and inner.group(1)))
            return
        accepted.append(label)

    def with_proofs(proofs, **changes):
        parts = dict(
            aid_id=deep_bundle.aid_id,
            trace=deep_bundle.trace,
            proofs=tuple(proofs),
            sessions=deep_bundle.sessions,
        )
        return VerifiableExecutionTrace(**{**parts, **changes})

    def moved(proof, payload):
        return ComponentProof(proof.kind, proof.step_index, proof.position, payload)

    # (h) splice: one exchange's payload also stands at another step of
    # the same session, in place of that step's own.
    for i in range(500):
        a, b = rng.sample(rng.choice(shared), 2)
        proofs = list(deep_bundle.proofs)
        proofs[b] = moved(proofs[b], proofs[a].payload)
        attempt_session(f"session-splice-{i}", "h", with_proofs(proofs))

    # (i) swap: two exchanges of one session trade payloads.
    for i in range(500):
        a, b = rng.sample(rng.choice(shared), 2)
        proofs = list(deep_bundle.proofs)
        proofs[a], proofs[b] = (
            moved(proofs[a], proofs[b].payload),
            moved(proofs[b], proofs[a].payload),
        )
        attempt_session(f"session-swap-{i}", "i", with_proofs(proofs))

    # (j) drop the proof of a session's last exchange, drop the last step
    # with every proof of it, or add an unused exchange: a proof at no
    # invocation, a spare copy of a session, or a signed session grown by
    # one exchange or record (a higher count, or another chain head) that
    # its signature does not cover.
    last_step = deep_trace.steps[-1].step_index
    truncated_trace = type(deep_trace)(deep_trace.initial_input, deep_trace.steps[:-1])
    for i in range(500):
        ks = rng.choice(list(members.values()))
        proofs = list(deep_bundle.proofs)
        op = i % 5
        if op == 0:
            del proofs[ks[-1]]
            forged = with_proofs(proofs)
        elif op == 1:
            proofs = [p for p in proofs if p.step_index != last_step]
            forged = with_proofs(proofs, trace=truncated_trace)
        elif op == 2:
            extra = proofs[rng.choice(ks)]
            step = last_step + 1 + rng.randrange(3)
            proofs.append(ComponentProof(extra.kind, step, "core", extra.payload))
            forged = with_proofs(proofs)
        elif op == 3:
            spare = deep_bundle.sessions[rng.randrange(len(deep_bundle.sessions))]
            forged = with_proofs(proofs, sessions=deep_bundle.sessions + (spare,))
        else:
            sessions = list(deep_bundle.sessions)
            index = rng.randrange(len(sessions))
            signed = copy.deepcopy(sessions[index])
            # A notary nests its signed fields under "statement", a proxy
            # log head does not; both sign "records" and "head".
            fields = signed.get("statement", signed)
            if rng.random() < 0.5:
                fields["records"] = str(int(fields["records"]) + 1)
            else:
                head = bytes.fromhex(fields["head"])
                fields["head"] = toytls.chain_link(head, "up", 1, bytes(32)).hex()
            sessions[index] = signed
            forged = with_proofs(proofs, sessions=tuple(sessions))
        attempt_session(f"session-drop-or-extra-{i}", "j", forged)

    assert min(family_trials.values()) >= 500, family_trials
    assert {reason for reason, _ in reasons} <= {"subproof-invalid", "transcript-inconsistent"}
    assert {inner for _, inner in reasons} <= {
        None, "bad-signature", "cipher-mismatch", "hash-mismatch", "template-mismatch",
        "parse-failure",
    }, reasons
    assert trials >= 10_000, trials
    assert accepted == [], f"{len(accepted)} forgeries accepted: {accepted[:5]}"


def test_criterion_3_privacy_no_secret_window_leaks(relayed_payloads):
    """Over 100 random secrets, no 16-byte window of the secret appears in
    the serialized proof or in the notary's observed opaque byte stream."""
    rig = WebProofRig(seed="privacy-rig", secret_length="32")
    rng = random.Random(3)
    alphabet = string.ascii_letters + string.digits
    secrets = []
    for i in range(100):
        secret = "".join(rng.choices(alphabet, k=24))
        secrets.append(secret.encode())
        prover = WebProofProver(
            rig.service,
            rig.registry,
            secrets={"token": secret},
            rng=random.Random(1000 + i),
        )
        exchange, proof = prover.call(rig.entry, f"query-{i}", "tool")
        assert exchange.value == f"query-{i}"
        blob = canonical_bytes(proof.to_obj())
        for start in range(len(secret) - 15):
            window = secrets[-1][start:start + 16]
            assert window not in blob
            assert window.hex().encode() not in blob

    observed = b"\x00".join(relayed_payloads)
    for secret in secrets:
        for start in range(len(secret) - 15):
            window = secret[start:start + 16]
            assert window not in observed
            assert window.hex().encode() not in observed


def test_criterion_4_channel_scaling_reproduction():
    """Calibrated simulator reproduces the published channel numbers within
    +/- 20% and the feasibility boundaries exactly, in under 5 s."""
    started = time.monotonic()
    model, workload = paper_calibration()
    naive = simulate(plan("naive", workload, 4096), model)
    optimized = simulate(plan("optimized", workload, 4096), model)

    assert abs(naive.setup_total - 9.8) / 9.8 <= 0.20
    assert abs(optimized.setup_total - 1.5) / 1.5 <= 0.20
    assert abs(naive.per_message_overhead - 2.1) / 2.1 <= 0.20
    assert abs(optimized.per_message_overhead - 2.5) / 2.5 <= 0.20

    assert plan("naive", SessionWorkload(rounds=6), 4096).feasible
    assert plan("naive", SessionWorkload(rounds=7), 4096).failing_round == 7
    assert plan("optimized", SessionWorkload(rounds=32), 4096).feasible

    first = first_round_latency(SessionWorkload(rounds=1), model)
    ratio = first / model.api_latency
    assert abs(ratio - 1.37) / 1.37 <= 0.20

    assert time.monotonic() - started < 5.0


def test_criterion_5_overhead_ordering_and_proxy_band(demo_result):
    """Modeled latencies order direct < TEE proxy < web proof; proxy
    overhead sits in the 1-20% band, checked to +/- 5 percentage points."""
    model, workload = paper_calibration()
    direct = direct_latency(workload, model)
    proxied = proxied_latency(workload, model)
    notarized = first_round_latency(workload, model)
    assert direct < proxied < notarized
    fraction = (proxied - direct) / direct
    assert 0.01 - 0.05 <= fraction <= 0.20 + 0.05

    latency = demo_result.latency
    assert latency.direct < latency.proxied_tools < latency.notarized_core


# [DERIVED] Golden IDs computed once by the stdlib json + hashlib oracle
# in _oracle_id and frozen here.
GOLDEN_ID_SMALL = "sha256:9ebee9658198745921e45e9ade5dc2394d5495500902bf1880756baac4623940"
GOLDEN_ID_DEMO = "sha256:12dc761b15e5463981e679c687c127ca4de5c19267d01ebc11b211a58f7b7238"


def test_criterion_6_aid_goldens_and_mutation_sensitivity(demo_world):
    """Canonical AID IDs match frozen goldens and the independent oracle;
    every effective single-field mutation flips the ID (10^4 trials)."""
    small = _doc_obj()
    assert _oracle_id(small) == GOLDEN_ID_SMALL
    from vet.aid import compute_id

    assert compute_id(AgentIdentityDocument.from_obj(small)) == GOLDEN_ID_SMALL

    demo_obj = demo_world.aid.to_obj()
    assert _oracle_id(demo_obj) == GOLDEN_ID_DEMO
    assert demo_world.aid.agent_hash == GOLDEN_ID_DEMO

    from vet.aid import _canonical_unchecked, _id_of

    rng = random.Random(6)
    flips = 0
    for _ in range(10_000):
        mutated, changed = mutate_one_field(small, rng)
        if not changed:
            continue
        document = AgentIdentityDocument.from_obj(mutated)
        assert _id_of(_canonical_unchecked(document)) != GOLDEN_ID_SMALL
        flips += 1
    assert flips >= 9_000


def test_criterion_7_commitment_binding_hiding_minimality():
    """Record tags under released keys, the commitments that bind a web
    proof. Binding: 0 of 10^4 single mutations accepted, over a disclosed
    response byte, a released key, a key's record index, and a withheld or
    signed tag. Hiding: one plaintext's tags under independent keys
    differ. Minimality: in 500 cases the released up keys are exactly the
    records outside every secret span, against a per-byte oracle."""
    rng = random.Random(7)
    rig = WebProofRig(seed="binding-rig")
    secret = "K" * 16
    prover = WebProofProver(
        rig.service, rig.registry, secrets={"token": secret}, rng=random.Random(70)
    )
    # Responses of one down record and of three.
    messages = ["short", "m" * 700, "".join(rng.choices(string.ascii_letters, k=40 * 1024))]
    pool = [(m, prover.call(rig.entry, m, "tool")[1]) for m in messages]
    assert {len(proof.down_lengths) for _, proof in pool} == {1, 3}

    accepted = []
    reasons = {family: set() for family in "abcd"}
    trials = 0

    def flip_bit(blob):
        pos = rng.randrange(8 * len(blob))
        return blob[:pos // 8] + bytes([blob[pos // 8] ^ 1 << pos % 8]) + blob[pos // 8 + 1:]

    for i in range(10_000):
        family = "abcd"[i % 4]
        x, proof = rng.choice(pool)
        if family == "a":
            # A response byte changed, under a fresh commitment at the same
            # chunk lengths: the commitment binds nothing, the down tags must.
            response = flip_bit(proof.response_disclosure.chunks[0].data)
            commitment, opening = commit(response, proof.down_lengths, rng)
            forged = replace(
                proof, response_commitment=commitment, response_disclosure=disclose(opening)
            )
        elif family == "b":
            keys = list(proof.record_keys)
            slot = rng.randrange(len(keys))
            keys[slot] = flip_bit(keys[slot])
            forged = replace(proof, record_keys=tuple(keys))
        elif family == "c":
            # One key moved to another place, which is another record (or
            # one past the last), shifting the keys between; or two keys
            # trading places.
            keys = list(proof.record_keys)
            index, other = rng.sample(range(len(keys) + 1), 2)
            if rng.random() < 0.5 and max(index, other) < len(keys):
                keys[index], keys[other] = keys[other], keys[index]
            else:
                index = min(index, len(keys) - 1)
                keys.insert(other, keys.pop(index))
            if keys == list(proof.record_keys):  # moved back onto its own place
                keys.append(keys.pop(0))
            forged = replace(proof, record_keys=tuple(keys))
        elif rng.random() < 0.5:
            (tag,) = proof.withheld_tags
            forged = replace(proof, withheld_tags=(flip_bit(tag),))
        else:
            # The signed head, which folds in every record's tag.
            signed = copy.deepcopy(proof.statement.to_obj())
            head = flip_bit(bytes.fromhex(signed["statement"]["head"]))
            signed["statement"]["head"] = head.hex()
            forged = replace(proof, statement=SignedStatement.from_obj(signed))
        trials += 1
        try:
            verify_webproof(x, forged, rig.entry, "tool", rig.registry)
        except Rejected as exc:
            reasons[family].add(exc.reason)
            continue
        accepted.append((family, i))
    assert trials == 10_000
    assert accepted == [], f"{len(accepted)} forgeries accepted: {accepted[:5]}"
    assert reasons["a"] == {"cipher-mismatch"}, reasons
    assert set().union(*reasons.values()) <= {
        "cipher-mismatch", "template-mismatch", "bad-signature"
    }, reasons

    # Hiding: a tag is a hash salted with its record's key, so one
    # plaintext under independent keys gives unrelated tags, and the same
    # secret sent in two sessions is withheld under two different tags.
    plaintext = secret.encode()
    assert len({toytls.record_tag(rng.randbytes(32), plaintext) for _ in range(1000)}) == 1000
    (_, first), (_, second) = (prover.call(rig.entry, "same", "tool") for _ in range(2))
    assert first.withheld_tags != second.withheld_tags

    # Minimality against a per-byte oracle: a record's key is released iff
    # none of its bytes lies in a secret span, and no record mixes secret
    # and public bytes.
    blank = WebProofRig(seed="minimality-rig", handler=lambda request: b"HTTP/1.1 204 OK\r\n\r\n")
    for _ in range(500):
        length = rng.choice([rng.randrange(1, 200), rng.randrange(1, 2 * toytls.RECORD_MAX + 99)])
        spans = []
        for _ in range(rng.randrange(0, 5)):
            offset = rng.randrange(length)
            spans.append((offset, rng.randrange(length - offset + 1)))
        session = NotarizedSession(provision_channel(blank.service, "echo.test", rng=rng), rng)
        session.send(rng.randbytes(length), spans, {"input": "m"})
        up_lengths = [len(wire) - toytls.TAG_LEN for wire in session._sent[0].up_wires]
        up_keys = session._sent[0].up_keys
        ((_, proof),) = session.finish()
        secret_bytes = {p for offset, n in spans for p in range(offset, offset + n)}
        outside, start = set(), 0
        for index, n in enumerate(up_lengths):
            inside = [p in secret_bytes for p in range(start, start + n)]
            assert all(inside) or not any(inside)
            if not any(inside):
                outside.add(index)
            start += n
        assert start == length
        released = tuple(up_keys[i] for i in sorted(outside))
        assert proof.record_keys == released + proof.record_keys[len(released):]
        assert len(proof.record_keys) == len(released) + len(proof.down_lengths)
        assert len(proof.withheld_tags) == len(up_lengths) - len(outside)


def test_criterion_8_wall_clock_substituted_by_model():
    """Absolute wall-clock latencies of live-API runs are out of reach at
    desk scale, so they are substituted by the calibrated cost model that
    criteria 4 and 5 check; this test pins the substitution itself: the
    model is deterministic and pure, and the full scaling sweep is cheap.
    The ZKML comparison has no analog here and is out of scope."""
    started = time.monotonic()
    model_a, workload_a = paper_calibration()
    model_b, workload_b = paper_calibration()
    for name in ("setup_base", "setup_per_byte", "transfer_per_byte", "api_latency"):
        assert getattr(model_a, name) == getattr(model_b, name)
    assert workload_a.rounds == workload_b.rounds

    for rounds in range(1, 33):
        w = SessionWorkload(rounds=rounds)
        first = simulate(plan("optimized", w, 4096), model_a)
        second = simulate(plan("optimized", w, 4096), model_a)
        assert first.total == second.total
        assert first.per_round == second.per_round
    assert time.monotonic() - started < 5.0
