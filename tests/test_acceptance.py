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
from vet.commitment import (
    Disclosure,
    RevealedRun,
    chunk_cover,
    commit,
    disclose,
    leaf_hash,
    verify_disclosure,
)
from vet.composer import ComponentProof, VerifiableExecutionTrace, verify_trace
from vet.errors import Rejected
from vet.keys import SigningKey
from vet.templates import render
from vet.webproof import (
    NotarizedSession,
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
    # in a serialized proof (record keys, disclosed chunks and ranges,
    # commitments, the request stub, signed statement fields, claims).
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
    # record's key, withhold a public record's key, or send the secret in
    # one record with its public neighbour before or after it, with that
    # record's key released or withheld.
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
        return x, proof, up_keys

    split = [session_proof(f"widen-{i}", None) for i in range(4)]
    merged = [session_proof(f"merge-{i}", side) for i in range(4) for side in ("before", "after")]
    for i in range(500):
        family = rng.randrange(3)
        x, proof, up_keys = rng.choice(merged if family == 2 else split)
        keys = dict(proof.record_keys)
        # The one withheld key: the secret's record, or the merged one.
        (hidden,) = [k for k in range(len(up_keys)) if ("up", k) not in keys]
        if family == 1:
            del keys[rng.choice([slot for slot in keys if slot[0] == "up"])]
        elif family == 0 or rng.random() < 0.5:
            keys["up", hidden] = up_keys[hidden]
        attempt_webproof(f"disclosure-widening-{i}", x, replace(proof, record_keys=keys))

    # (b) plaintext/commitment recomputation: keep the signed statement
    # and released keys but commit to a fabricated response.
    for i in range(1500):
        x, proof = pool[rng.randrange(len(pool))]
        fake_value = "forged-" + "".join(rng.choices(string.ascii_lowercase, k=8))
        body = ('{"echo":"%s"}' % fake_value).encode()
        fake_response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        fake_commitment, fake_opening = commit(fake_response, grid(len(fake_response), 16), rng)
        forged = replace(
            proof,
            response_commitment=fake_commitment,
            response_disclosure=disclose(fake_opening, [(0, len(fake_response))]),
        )
        attempt_webproof(f"recommitment-{i}", fake_value, forged)

    # (c) cross-session record splicing: mix components of two honest
    # sessions into one proof.
    fields = (
        "statement",
        "record_keys",
        "request_length",
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

    # (e) sub-proof substitution: drop, duplicate, cross-wire, or
    # relocate component proofs.
    for i in range(1500):
        proofs = list(bundle.proofs)
        op = rng.randrange(4)
        if op == 0:
            proofs.pop(rng.randrange(len(proofs)))
        elif op == 1:
            proofs.append(proofs[rng.randrange(len(proofs))])
        elif op == 2:
            a, b = rng.sample(range(len(proofs)), 2)
            pa, pb = proofs[a], proofs[b]
            proofs[a] = ComponentProof(pb.kind, pa.step_index, pa.position, pb.payload)
            proofs[b] = ComponentProof(pa.kind, pb.step_index, pb.position, pa.payload)
        else:
            j = rng.randrange(len(proofs))
            p = proofs[j]
            position = "core" if p.position != "core" else "tool:0"
            proofs[j] = ComponentProof(p.kind, rng.randrange(4), position, p.payload)
        forged = VerifiableExecutionTrace(
            aid_id=bundle.aid_id,
            trace=bundle.trace,
            proofs=tuple(proofs),
            claims=bundle.claims,
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
            claims=deep_bundle.claims,
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
    # one exchange (a higher count, or more records) that its signature
    # does not cover.
    last_step = deep_trace.steps[-1].step_index
    truncated_trace = type(deep_trace)(
        deep_trace.initial_input, deep_trace.steps[:-1], deep_trace.truncated
    )
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
            signed = copy.deepcopy(sessions[index].signed)
            if "exchanges" in signed:
                signed["exchanges"] = str(int(signed["exchanges"]) + 1)
            else:
                signed["statement"]["records"] += signed["statement"]["records"][-2:]
            sessions[index] = type(sessions[index])(sessions[index].kind, signed)
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
    """Binding (0 forged disclosures in 10^4 trials), hiding (salted
    leaves), and chunk-cover minimality against a brute-force oracle."""
    rng = random.Random(7)
    data = rng.randbytes(256)
    commitment, opening = commit(data, grid(256, 16), rng)
    # Runs at chunks 0-2, 5, 9-12 and 15; all but the first carry
    # hidden leaves.
    disclosure = disclose(opening, [(0, 48), (80, 16), (144, 64), (240, 16)])
    verify_disclosure(commitment, disclosure)

    rejected = 0
    trials = 10_000
    for _ in range(trials):
        runs = list(disclosure.chunks)
        mode = rng.randrange(4)
        i = rng.randrange(len(runs)) if mode < 3 else 1 + rng.randrange(len(runs) - 1)
        c = runs[i]
        if mode == 0:
            pos = rng.randrange(len(c.data))
            data2 = bytes(
                b ^ (1 << rng.randrange(8)) if k == pos else b
                for k, b in enumerate(c.data)
            )
            runs[i] = RevealedRun(c.index, c.salt, data2, c.path)
        elif mode == 1:
            pos = rng.randrange(len(c.salt))
            salt2 = bytes(b ^ 1 if k == pos else b for k, b in enumerate(c.salt))
            runs[i] = RevealedRun(c.index, salt2, c.data, c.path)
        elif mode == 2:
            runs[i] = RevealedRun(
                (c.index + 1 + rng.randrange(15)) % 16, c.salt, c.data, c.path
            )
        else:
            j = rng.randrange(len(c.path))
            path2 = tuple(
                bytes(b ^ (1 << rng.randrange(8)) for b in p) if k == j else p
                for k, p in enumerate(c.path)
            )
            runs[i] = RevealedRun(c.index, c.salt, c.data, path2)
        mutated = Disclosure(ranges=disclosure.ranges, chunks=tuple(runs))
        try:
            out = verify_disclosure(commitment, mutated)
        except Exception:
            rejected += 1
            continue
        # Acceptance is only sound if the revealed bytes still equal the
        # committed plaintext everywhere.
        assert all(out[(o, n)] == data[o:o + n] for o, n in mutated.ranges)
    assert rejected == trials

    # Hiding: independent salts make undisclosed chunks unconfirmable.
    same = b"A" * 64
    c1, o1 = commit(same, grid(64, 16), random.Random(1))
    c2, o2 = commit(same, grid(64, 16), random.Random(2))
    assert c1.root != c2.root
    assert leaf_hash(o1.salts[0], same[:16]) != leaf_hash(o2.salts[0], same[:16])
    assert leaf_hash(o1.salts[0], same[:16]) != leaf_hash(o1.salts[1], same[16:32])

    # Cover minimality against the brute-force oracle.
    for _ in range(500):
        total = rng.randrange(1, 300)
        chunk_size = rng.choice([1, 4, 16, 32])
        ranges = []
        for _ in range(rng.randrange(0, 4)):
            offset = rng.randrange(0, total)
            ranges.append((offset, rng.randrange(0, total - offset + 1)))
        needed = sorted(
            {
                pos // chunk_size
                for offset, length in ranges
                for pos in range(offset, offset + length)
            }
        )
        assert chunk_cover(ranges, grid(total, chunk_size)) == needed


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
