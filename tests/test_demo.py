import os
import pathlib
import subprocess
import sys

import pytest

import vet
from vet import toytls
from vet.canonical import canonical_bytes
from vet.composer import verify_trace
from vet.demo import TradeDecision, build_world, run_demo
from vet.errors import Rejected, ValidationError


def test_trade_decision_validation():
    TradeDecision("buy", "bitcoin", "0.50", "why not")
    with pytest.raises(ValidationError):
        TradeDecision("yolo", "bitcoin", "1", "r")
    with pytest.raises(ValidationError):
        TradeDecision.from_serialized("not json")
    with pytest.raises(ValidationError):
        TradeDecision.from_serialized('{"action":"buy"}')


def test_trade_decision_serialization_round_trip():
    decision = TradeDecision("sell", "bitcoin", "0.50", "r")
    assert TradeDecision.from_serialized(decision.serialized()) == decision


def test_demo_seed_zero(demo_result):
    assert demo_result.decision.action == "hold"
    assert demo_result.decision.asset == "bitcoin"
    m = demo_result.decision.serialized()
    assert verify_trace(m, demo_result.bundle, demo_result.aid, demo_result.registry) == m


def test_verify_trace_runs_no_keystream(demo_result, monkeypatch):
    # The verifier checks each released record key with one tag hash; it
    # never decrypts or re-encrypts a record.
    def refuse(cipher, index, data):
        raise AssertionError("ran the record keystream")

    monkeypatch.setattr(toytls.RecordCipher, "xor", refuse)
    # The patch is live: proving, which seals records, runs into it.
    with pytest.raises(AssertionError, match="ran the record keystream"):
        run_demo("0")
    m = demo_result.decision.serialized()
    assert verify_trace(m, demo_result.bundle, demo_result.aid, demo_result.registry) == m


def test_demo_bundle_mixes_proof_kinds(demo_result):
    kinds = {p.kind for p in demo_result.bundle.proofs}
    assert kinds == {"webproof", "tee_attestation"}
    positions = {(p.step_index, p.position) for p in demo_result.bundle.proofs}
    assert (0, "core") in positions and (0, "tool:0") in positions


def test_demo_secret_redacted(demo_result):
    world = build_world("0")
    secret = world.secret.encode()
    blob = canonical_bytes(demo_result.bundle.to_obj())
    for start in range(len(secret) - 15):
        window = secret[start:start + 16]
        assert window not in blob
        assert window.hex().encode() not in blob


def test_demo_latency_report(demo_result):
    latency = demo_result.latency
    assert latency.direct < latency.proxied_tools < latency.notarized_core
    assert latency.total_tee_core < latency.total_webproof_core


def test_run_demo_leaves_scipy_unimported():
    # Only the latency report runs the paper calibration (SciPy NNLS);
    # proving and verifying the demo must not pay for importing it.
    src = str(pathlib.Path(vet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from vet import demo; demo.run_demo('0'); sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_demo_seeds_vary():
    other = run_demo("7")
    assert other.decision.action in ("buy", "sell", "hold")
    m = other.decision.serialized()
    verify_trace(m, other.bundle, other.aid, other.registry)


def test_forged_decision_rejected(demo_result):
    forged = TradeDecision("buy", "bitcoin", "99", "forged").serialized()
    with pytest.raises(Rejected) as err:
        verify_trace(forged, demo_result.bundle, demo_result.aid, demo_result.registry)
    assert err.value.reason == "output-not-found"
