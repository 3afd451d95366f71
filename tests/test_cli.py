import json
import socket

import pytest
from click.testing import CliRunner

from conftest import session_field, session_kind
from vet import cli, demo
from vet.canonical import FORMAT, canonical_bytes
from vet.cli import main
from vet.keys import SigningKey
from vet.composer import VerifiableExecutionTrace
from vet.webproof import SignedStatement, WebProof


@pytest.fixture(scope="module")
def proved(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "demo-out"
    runner = CliRunner()
    result = runner.invoke(main, ["prove", "--seed", "0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def _claim(proved):
    bundle = json.loads((proved / "bundle.json").read_text())
    return bundle["trace"]["steps"][-1]["core_output"]


def test_prove_writes_artifacts(proved):
    assert (proved / "aid.json").exists()
    assert (proved / "bundle.json").exists()
    assert list((proved / "templates").glob("*.json"))


def test_aid_hash_and_validate(proved):
    runner = CliRunner()
    result = runner.invoke(main, ["aid", "hash", str(proved / "aid.json")])
    assert result.exit_code == 0
    aid_id = result.output.strip()
    assert aid_id == json.loads((proved / "aid.json").read_text())["agent_hash"]
    result = runner.invoke(
        main,
        ["aid", "validate", str(proved / "aid.json"), "--templates", str(proved / "templates")],
    )
    assert result.exit_code == 0
    assert "ok" in result.output


def test_aid_validate_failure(proved, tmp_path):
    doc = json.loads((proved / "aid.json").read_text())
    doc["core"]["endpoint"] = "not-a-url"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["aid", "validate", str(bad)])
    assert result.exit_code == 1


def test_verify_accept_and_reject(proved):
    runner = CliRunner()
    args = [
        "verify",
        "--aid", str(proved / "aid.json"),
        "--bundle", str(proved / "bundle.json"),
        "--templates", str(proved / "templates"),
    ]
    accept = runner.invoke(main, args + ["--claim", _claim(proved)])
    assert accept.exit_code == 0
    assert "accept" in accept.output

    reject = runner.invoke(main, args + ["--claim", "forged claim", "--json"])
    assert reject.exit_code == 1
    report = json.loads(reject.output)
    assert report["result"] == "reject"
    assert report["reason"] == "output-not-found"


def test_verify_claim_from_file(proved, tmp_path):
    claim_file = tmp_path / "claim.txt"
    claim_file.write_text(_claim(proved))
    result = CliRunner().invoke(
        main,
        [
            "verify",
            "--aid", str(proved / "aid.json"),
            "--bundle", str(proved / "bundle.json"),
            "--templates", str(proved / "templates"),
            "--claim", f"@{claim_file}",
        ],
    )
    assert result.exit_code == 0


def test_verify_claim_file_is_read_byte_for_byte(proved, tmp_path):
    claim_file = tmp_path / "claim.txt"
    claim_file.write_bytes(b"a\r\nb")
    result = CliRunner().invoke(
        main, _verify_args(proved) + ["--claim", f"@{claim_file}", "--json"]
    )
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["detail"] == "'a\\r\\nb' is not an authenticated output"


def test_verify_missing_file_is_usage_error(proved):
    result = CliRunner().invoke(
        main,
        [
            "verify",
            "--aid", "/nonexistent/aid.json",
            "--bundle", str(proved / "bundle.json"),
            "--templates", str(proved / "templates"),
            "--claim", "x",
        ],
    )
    assert result.exit_code == 2


def test_inspect(proved):
    runner = CliRunner()
    args = [
        "inspect",
        "--aid", str(proved / "aid.json"),
        "--bundle", str(proved / "bundle.json"),
        "--templates", str(proved / "templates"),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "trace consistency: ok" in result.output
    as_json = runner.invoke(main, args + ["--json"])
    assert as_json.exit_code == 0
    assert json.loads(as_json.output)["result"] == "accept"


def test_inspect_matches_the_aid_and_lists_both_proof_kinds(proved):
    result = CliRunner().invoke(main, ["inspect", *_verify_args(proved)[1:]])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0].endswith("[match]")
    assert "webproof" in result.output and "tee_attestation" in result.output


def test_inspect_flags_another_seeds_aid_as_mismatch(proved, tmp_path):
    result = CliRunner().invoke(
        main, ["inspect", *_verify_args(proved, _other_seed_aid(proved, tmp_path))[1:]]
    )
    assert result.exit_code == 1, result.output
    assert result.output.splitlines()[0].endswith("[MISMATCH]")
    assert "trace consistency: FAIL (aid-mismatch: " in result.output


def test_bench_channels(tmp_path):
    csv = tmp_path / "bench.csv"
    result = CliRunner().invoke(
        main, ["bench", "channels", "--rounds", "6", "--csv", str(csv)]
    )
    assert result.exit_code == 0
    assert "naive:" in result.output and "optimized:" in result.output
    lines = csv.read_text().splitlines()
    assert lines[0] == "strategy,round,latency_s,cumulative_s"
    assert len(lines) == 1 + 12  # both strategies, six rounds each


# The cost model's printed figures for the paper fit, rounded as printed
# (6 places at most), so that NNLS's last bits do not show.
PINNED_CHANNELS = {
    "6": (
        "naive: setup 8.09s  total 22.98s  per-message overhead 2.03s\n"
        "optimized: setup 1.68s  total 16.57s  per-message overhead 2.75s\n",
        "naive,1,2.232615,10.322092\n"
        "naive,2,2.332450,12.654542\n"
        "naive,3,2.432284,15.086826\n"
        "naive,4,2.532118,17.618944\n"
        "naive,5,2.631953,20.250897\n"
        "naive,6,2.731787,22.982684\n"
        "optimized,1,3.848932,3.848932\n"
        "optimized,2,2.332450,6.181382\n"
        "optimized,3,2.432284,8.613666\n"
        "optimized,4,2.532118,11.145784\n"
        "optimized,5,2.631953,13.777737\n"
        "optimized,6,2.793696,16.571433\n",
    ),
    "9": (
        "naive: infeasible at round 7\n"
        "optimized: setup 1.98s  total 25.67s  per-message overhead 3.17s\n",
        "optimized,1,3.848932,3.848932\n"
        "optimized,2,2.332450,6.181382\n"
        "optimized,3,2.432284,8.613666\n"
        "optimized,4,2.532118,11.145784\n"
        "optimized,5,2.631953,13.777737\n"
        "optimized,6,2.793696,16.571433\n"
        "optimized,7,2.831621,19.403054\n"
        "optimized,8,2.931455,22.334509\n"
        "optimized,9,3.332468,25.666978\n",
    ),
}


@pytest.mark.parametrize("rounds", sorted(PINNED_CHANNELS))
def test_bench_channels_output_is_pinned(tmp_path, rounds):
    csv = tmp_path / "bench.csv"
    result = CliRunner().invoke(
        main, ["bench", "channels", "--strategy", "both", "--rounds", rounds, "--csv", str(csv)]
    )
    assert result.exit_code == 0, result.output
    stdout, rows = PINNED_CHANNELS[rounds]
    assert result.output == stdout + f"wrote {csv}\n"
    assert csv.read_text() == "strategy,round,latency_s,cumulative_s\n" + rows


def test_bench_infeasible_strategy_reported():
    result = CliRunner().invoke(
        main, ["bench", "channels", "--strategy", "naive", "--rounds", "7"]
    )
    assert result.exit_code == 0
    assert "infeasible at round 7" in result.output


def test_demo_veritrade_json():
    result = CliRunner().invoke(main, ["demo", "veritrade", "--seed", "0", "--json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["decision"]["action"] == "hold"
    assert report["verified"] is True
    assert report["latency"]["direct_s"] < report["latency"]["notarized_core_s"]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda bundle: bundle.update(proofs="x"),
        lambda bundle: bundle["trace"].pop("steps"),
        lambda bundle: bundle["trace"].update(steps=[["not", "a", "step"]]),
    ],
)
def test_malformed_bundle_is_rejected_not_a_traceback(proved, tmp_path, mangle):
    bundle = json.loads((proved / "bundle.json").read_text())
    mangle(bundle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    args = [
        "--aid", str(proved / "aid.json"),
        "--bundle", str(bad),
        "--templates", str(proved / "templates"),
    ]
    runner = CliRunner()
    verify = runner.invoke(main, ["verify", *args, "--claim", _claim(proved), "--json"])
    assert verify.exit_code == 1, verify.output
    assert json.loads(verify.output)["reason"] == "malformed"
    inspect = runner.invoke(main, ["inspect", *args])
    assert inspect.exit_code == 2
    assert isinstance(inspect.exception, SystemExit)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda bundle: bundle["proofs"][1].update(payload="x"),
        lambda bundle: bundle["proofs"][0]["payload"].update(record_keys="x"),
        lambda bundle: bundle["sessions"][0].update(notary_signature=5),
    ],
)
def test_component_payload_of_wrong_shape_is_subproof_invalid(proved, tmp_path, mangle):
    bundle = json.loads((proved / "bundle.json").read_text())
    mangle(bundle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    args = [
        "--aid", str(proved / "aid.json"),
        "--bundle", str(bad),
        "--templates", str(proved / "templates"),
    ]
    runner = CliRunner()
    verify = runner.invoke(main, ["verify", *args, "--claim", _claim(proved), "--json"])
    assert verify.exit_code == 1, verify.output
    assert json.loads(verify.output)["reason"] == "subproof-invalid"
    inspect = runner.invoke(main, ["inspect", *args])
    assert inspect.exit_code == 1, inspect.output


@pytest.mark.parametrize("document", ["aid", "bundle"])
def test_inspect_names_the_document_that_does_not_decode(proved, tmp_path, document):
    bad = tmp_path / f"{document}.json"
    bad.write_text('{"core": 5}')
    args = {"aid": proved / "aid.json", "bundle": proved / "bundle.json", document: bad}
    result = CliRunner().invoke(
        main,
        [
            "inspect",
            "--aid", str(args["aid"]),
            "--bundle", str(args["bundle"]),
            "--templates", str(proved / "templates"),
        ],
    )
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: malformed {'AID' if document == 'aid' else 'bundle'}: ")


@pytest.mark.parametrize(
    "mangle, named",
    [
        (lambda bundle: bundle.pop("format"), "bundle format 1"),
        (lambda bundle: bundle.update(format="2"), "bundle format 2"),
        (lambda bundle: bundle.update(format="3"), "bundle format 3"),
        (lambda bundle: bundle.update(format="4"), "bundle format 4"),
        (lambda bundle: bundle.update(format="5"), "bundle format 5"),
        (lambda bundle: bundle.update(format="6"), "bundle format 6"),
        (lambda bundle: bundle.update(format="7"), "bundle format 7"),
        (lambda bundle: bundle.update(format="8"), "bundle format 8"),
        (lambda bundle: bundle.update(format="9"), "bundle format 9"),
        (lambda bundle: bundle.update(format="10"), "bundle format 10"),
    ],
)
def test_other_format_is_rejected_naming_its_version(proved, tmp_path, mangle, named):
    bundle = json.loads((proved / "bundle.json").read_text())
    mangle(bundle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    args = [
        "--aid", str(proved / "aid.json"),
        "--bundle", str(bad),
        "--templates", str(proved / "templates"),
    ]
    verify = CliRunner().invoke(main, ["verify", *args, "--claim", _claim(proved), "--json"])
    assert verify.exit_code == 1, verify.output
    report = json.loads(verify.output)
    # The bundle's own version is a decode error; its proofs carry none.
    # The trailing space keeps "format 1" from matching "format 10".
    assert report["reason"] == "malformed"
    assert f"{named} " in report["detail"] and f"reads format {FORMAT} only" in report["detail"]


def test_bundle_with_a_duplicate_member_name_is_a_usage_error(proved, tmp_path):
    text = (proved / "bundle.json").read_text()
    assert text.count('"aid_id":') == 1
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"aid_id":', '"aid_id":"bogus","aid_id":', 1))
    args = [
        "--aid", str(proved / "aid.json"),
        "--bundle", str(bad),
        "--templates", str(proved / "templates"),
    ]
    verify = CliRunner().invoke(main, ["verify", *args, "--claim", _claim(proved), "--json"])
    assert verify.exit_code == 2, verify.output
    assert "duplicate member name 'aid_id'" in verify.output


def _verify_args(proved, aid_file=None):
    return [
        "verify",
        "--aid", str(aid_file or proved / "aid.json"),
        "--bundle", str(proved / "bundle.json"),
        "--templates", str(proved / "templates"),
    ]


def test_verify_json_lists_components(proved):
    runner = CliRunner()
    accept = runner.invoke(main, _verify_args(proved) + ["--claim", _claim(proved), "--json"])
    assert accept.exit_code == 0, accept.output
    report = json.loads(accept.output)
    bundle = json.loads((proved / "bundle.json").read_text())
    assert [c["locator"] for c in report["components"]] == [
        f"step:{p['step_index']}/{p['position']}" for p in bundle["proofs"]
    ]
    assert {c["verdict"] for c in report["components"]} == {"ok"}
    core = report["components"][0]
    assert core["kind"] == "webproof" and core["request_disclosed"][1] > 0


def test_verify_json_and_inspect_list_sessions(proved):
    runner = CliRunner()
    accept = runner.invoke(main, _verify_args(proved) + ["--claim", _claim(proved), "--json"])
    report = json.loads(accept.output)
    bundle = json.loads((proved / "bundle.json").read_text())
    sessions = report["sessions"]
    assert sorted(s["index"] for s in sessions) == list(range(len(bundle["sessions"])))
    assert [s["index"] for s in sessions] == list(range(len(sessions)))  # in first-use order
    for session in sessions:
        assert session["kind"] == session_kind(bundle["sessions"][session["index"]])
        assert (session["signature"], session["verdict"]) == ("ok", "ok")
        assert session["exchanges"] == len(session["components"]) >= 2
    named = {c["locator"]: c["session"] for c in report["components"]}
    assert named == {
        locator: s["index"] for s in sessions for locator in s["components"]
    }
    inspect = runner.invoke(main, ["inspect", *_verify_args(proved)[1:]])
    for session in sessions:
        assert (
            f"session {session['index']}: {session['kind']}, {session['exchanges']} exchanges"
            "  signature ok, chain closed ok"
        ) in inspect.output
    assert "  core (session 0): webproof  [ok]" in inspect.output


def test_verify_refuses_scheme_outside_trust_store(proved, tmp_path):
    doc = json.loads((proved / "aid.json").read_text())
    doc["tools"][0]["verification"] = {"Consensus": {"quorum": "2"}}
    aid_file = tmp_path / "aid.json"
    aid_file.write_text(json.dumps(doc))
    result = CliRunner().invoke(
        main, _verify_args(proved, aid_file) + ["--claim", _claim(proved), "--json"]
    )
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["reason"] == "malformed"
    assert "Consensus" in report["detail"]


def test_verify_refuses_a_core_that_names_a_tool_parse_template(proved, tmp_path):
    doc = json.loads((proved / "aid.json").read_text())
    doc["core"]["parsing_algorithm_uid"] = doc["tools"][0]["parsing_algorithm_uid"]
    aid_file = tmp_path / "aid.json"
    aid_file.write_text(json.dumps(doc))
    result = CliRunner().invoke(
        main, _verify_args(proved, aid_file) + ["--claim", _claim(proved), "--json"]
    )
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["reason"] == "malformed"
    assert "/core/parsing_algorithm_uid: a tool parse template for a core" in report["detail"]


def _other_seed_aid(proved, tmp_path):
    aid_file = tmp_path / "aid-seed-7.json"
    aid_file.write_bytes(canonical_bytes(demo.build_world("7").aid.to_obj()))
    return aid_file


def _stamp_tee_head(bundle):
    """Change the signed timestamp of the first TEE proof's log head;
    returns that proof's index."""
    tee = next(i for i, p in enumerate(bundle["proofs"]) if p["kind"] == "tee_attestation")
    session = int(bundle["proofs"][tee]["payload"]["attestation"])
    bundle["sessions"][session]["timestamp"] = "1"
    return tee


def _flip_record_key(bundle):
    """Flip the first hex digit of the first web proof's first record key."""
    key = bundle["proofs"][0]["payload"]["record_keys"][0]
    key["key"] = ("0" if key["key"][0] != "0" else "1") + key["key"][1:]


def test_inspect_stops_at_first_rejection(proved, tmp_path):
    bundle = json.loads((proved / "bundle.json").read_text())
    tee = _stamp_tee_head(bundle)
    bad = tmp_path / "bundle.json"
    bad.write_text(json.dumps(bundle))
    result = CliRunner().invoke(
        main,
        [
            "inspect",
            "--aid", str(proved / "aid.json"),
            "--bundle", str(bad),
            "--templates", str(proved / "templates"),
        ],
    )
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0].endswith("[match]")
    assert lines[-2].endswith("tee_attestation  [FAIL: bad-signature]")
    assert lines[-1].startswith("trace consistency: FAIL (subproof-invalid: ")
    assert sum("[ok]" in line or "[FAIL" in line for line in lines) == tee + 1


def test_inspect_marks_the_components_of_a_session_that_fails_to_chain(proved, tmp_path):
    # A flipped record key is caught only when its session closes, so each
    # of that session's components passed its own check.
    bundle = json.loads((proved / "bundle.json").read_text())
    _flip_record_key(bundle)
    bad = tmp_path / "bundle.json"
    bad.write_text(json.dumps(bundle))
    result = CliRunner().invoke(
        main,
        [
            "inspect",
            "--aid", str(proved / "aid.json"),
            "--bundle", str(bad),
            "--templates", str(proved / "templates"),
        ],
    )
    assert result.exit_code == 1
    session = bundle["proofs"][0]["payload"]["signed_statement"]
    assert f"session {session}: webproof, 2 exchanges" in result.output
    marked = [line for line in result.output.splitlines() if f"(session {session})" in line]
    assert len(marked) == 2
    assert all("[ok; session FAIL: cipher-mismatch]" in line for line in marked)
    assert result.output.count("[ok]") == len(bundle["proofs"]) - 2


def _aid_with_scheme(scheme):
    """A writer of the demo AID with its first tool under ``scheme``."""
    def write(proved, tmp_path):
        doc = json.loads((proved / "aid.json").read_text())
        doc["tools"][0]["verification"] = {scheme: {"quorum": "2"}}
        aid_file = tmp_path / "aid.json"
        aid_file.write_text(json.dumps(doc))
        return aid_file
    return write


# Each reject the CLI reaches by changing the demo bundle or its AID.
PARITY_CASES = {
    "accept": (None, None, None),
    "other-seed-aid": (None, _other_seed_aid, "aid-mismatch"),
    "tee-head-timestamp": (_stamp_tee_head, None, "subproof-invalid"),
    "flipped-record-key": (_flip_record_key, None, "subproof-invalid"),
    "consensus-aid": (None, _aid_with_scheme("Consensus"), "malformed"),
    "scheme-outside-trust-store": (None, _aid_with_scheme("Quorum"), "malformed"),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_verify_json_and_inspect_json_print_one_report(proved, tmp_path, case):
    mangle_bundle, write_aid, reason = PARITY_CASES[case]
    bundle_file = proved / "bundle.json"
    if mangle_bundle:
        bundle = json.loads(bundle_file.read_text())
        mangle_bundle(bundle)
        bundle_file = tmp_path / "bundle.json"
        bundle_file.write_text(json.dumps(bundle))
    aid_file = write_aid(proved, tmp_path) if write_aid else proved / "aid.json"
    args = [
        "--aid", str(aid_file),
        "--bundle", str(bundle_file),
        "--templates", str(proved / "templates"),
        "--json",
    ]
    runner = CliRunner()
    verify = runner.invoke(main, ["verify", *args, "--claim", _claim(proved)])
    inspect = runner.invoke(main, ["inspect", *args])
    assert verify.exit_code == inspect.exit_code == (0 if reason is None else 1), inspect.output
    report = json.loads(verify.output)
    assert json.loads(inspect.output) == report
    assert report["result"] == ("accept" if reason is None else "reject")
    assert report.get("reason") == reason
    assert report["aid_match"] is (write_aid is None)


def test_inspect_of_an_aid_the_verifier_refuses_is_malformed(proved, tmp_path):
    aid_file = _aid_with_scheme("Consensus")(proved, tmp_path)
    result = CliRunner().invoke(main, ["inspect", *_verify_args(proved, aid_file)[1:]])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0].endswith("[not checked]")
    assert lines[-1].startswith("trace consistency: FAIL (malformed: /tools/0/verification: ")


def test_aid_validate_refuses_the_consensus_scheme(proved, tmp_path):
    aid_file = _aid_with_scheme("Consensus")(proved, tmp_path)
    result = CliRunner().invoke(
        main, ["aid", "validate", str(aid_file), "--templates", str(proved / "templates")]
    )
    assert result.exit_code == 1, result.output
    assert "/tools/0/verification: unknown scheme 'Consensus'" in result.output


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


# Inputs that cannot be read or used: each is a usage error (exit 2).
BAD_INPUTS = {
    "verify-claim-not-utf8": lambda proved, tmp: [
        *_verify_args(proved), "--claim", "@" + str(_write(tmp, "claim", b"\xff\xfe"))
    ],
    "verify-templates-missing": lambda proved, tmp: [
        *_verify_args(proved)[:-1], "/nonexistent", "--claim", _claim(proved)
    ],
    "inspect-templates-missing": lambda proved, tmp: [
        "inspect", *_verify_args(proved)[1:-1], "/nonexistent"
    ],
    "inspect-templates-a-file": lambda proved, tmp: [
        "inspect", *_verify_args(proved)[1:-1], str(_write(tmp, "afile", b""))
    ],
    "validate-templates-missing": lambda proved, tmp: [
        "aid", "validate", str(proved / "aid.json"), "--templates", "/nonexistent"
    ],
    "prove-out-under-a-file": lambda proved, tmp: [
        "prove", "--out", str(_write(tmp, "afile", b"") / "x")
    ],
    "demo-out-under-a-file": lambda proved, tmp: [
        "demo", "veritrade", "--out", str(_write(tmp, "afile", b"") / "x")
    ],
    "bench-model-missing": lambda proved, tmp: [
        "bench", "channels", "--model", "/nonexistent/model.json"
    ],
    "bench-model-unknown-field": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"x": 1}'))
    ],
    "bench-model-not-a-number": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"rtt": "x"}'))
    ],
    "bench-model-nan": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"rtt": "nan"}'))
    ],
    "bench-model-inf": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"rtt": "inf"}'))
    ],
    "bench-model-boolean": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"rtt": true}'))
    ],
    "bench-model-number-not-string": lambda proved, tmp: [
        "bench", "channels", "--model", str(_write(tmp, "model.json", b'{"rtt": 1}'))
    ],
    "bench-rounds-0": lambda proved, tmp: ["bench", "channels", "--rounds", "0"],
    "bench-rounds-negative": lambda proved, tmp: ["bench", "channels", "--rounds", "-1"],
    "bench-base-capacity-0": lambda proved, tmp: ["bench", "channels", "--base-capacity", "0"],
    # With a model file no calibration runs, so the naive plan alone
    # must refuse the base capacity.
    "bench-naive-base-capacity-0": lambda proved, tmp: [
        "bench", "channels", "--strategy", "naive", "--base-capacity", "0",
        "--model", str(_write(tmp, "model.json", b"{}")),
    ],
    "bench-naive-base-capacity-negative": lambda proved, tmp: [
        "bench", "channels", "--strategy", "naive", "--base-capacity", "-5",
        "--model", str(_write(tmp, "model.json", b"{}")),
    ],
    "bench-csv-missing-dir": lambda proved, tmp: [
        "bench", "channels", "--csv", "/nonexistent/x.csv"
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_input_that_cannot_be_used_is_a_usage_error(proved, tmp_path, case):
    result = CliRunner().invoke(main, BAD_INPUTS[case](proved, tmp_path))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")


@pytest.mark.parametrize(
    "doc", [[], {"core": 5}, {"tools": "x"}], ids=["array", "core-5", "tools-x"]
)
@pytest.mark.parametrize(
    "command", [["aid", "hash"], ["aid", "validate"]], ids=["hash", "validate"]
)
def test_aid_file_that_does_not_decode_is_a_usage_error(tmp_path, doc, command):
    bad = tmp_path / "aid.json"
    bad.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [*command, str(bad)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")


@pytest.mark.parametrize("where", ["document", "core"])
def test_aid_hash_refuses_a_member_an_aid_does_not_define(proved, tmp_path, where):
    doc = json.loads((proved / "aid.json").read_text())
    (doc if where == "document" else doc["core"])["extra"] = "x"
    bad = tmp_path / "aid.json"
    bad.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["aid", "hash", str(bad)])
    assert result.exit_code == 2, result.output
    assert "member 'extra' that an AID does not define" in result.output


def _mangled_templates(proved, tmp_path, field, value):
    """A copy of the demo templates with ``field`` of one inject template set to ``value``."""
    directory = tmp_path / "templates"
    directory.mkdir()
    mangled = False
    for file in sorted((proved / "templates").glob("*.json")):
        template = json.loads(file.read_text())
        if not mangled and template["type"] == "inject":
            template[field] = value
            mangled = True
        (directory / file.name).write_text(json.dumps(template))
    return directory


@pytest.mark.parametrize(
    "field, value",
    [
        ("headers", ["x"]),
        ("chunk_size", ["1"]),
        ("path", 5),
        ("headers", [{"name": "X-Ключ", "value": "v"}]),  # not an HTTP token
    ],
)
@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_malformed_template_file_is_a_usage_error(proved, tmp_path, field, value, command):
    templates = _mangled_templates(proved, tmp_path, field, value)
    args = [
        command,
        "--aid", str(proved / "aid.json"),
        "--bundle", str(proved / "bundle.json"),
        "--templates", str(templates),
    ]
    if command == "verify":
        args += ["--claim", _claim(proved)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: cannot load templates from {templates}")


def _core_proof(bundle):
    return next(p for p in bundle["proofs"] if p["kind"] == "webproof")["payload"]


# Where a field sits in the demo bundle, and the reason a bad spelling of
# it gets: the bundle's own fields are malformed, a proof's are that
# proof's reject.
NUMBER_FIELDS = {
    "step_index": (lambda b: b["proofs"][1], "step_index", "malformed"),
    "record-key-index": (lambda b: _core_proof(b)["record_keys"][-1], "index", "subproof-invalid"),
    "run-index": (
        lambda b: _core_proof(b)["response_disclosure"]["chunks"][0], "index", "subproof-invalid"
    ),
}

# Other spellings of the decimal integer ``v`` that int() reads as the same
# value, and the bare Infinity that Python's JSON reader accepts.
SPELLINGS = {
    "space-plus-underscore": lambda v: " +0_" + v,
    "underscore": lambda v: "0_" + v,
    "leading-zero": lambda v: "0" + v,
    "plus": lambda v: "+" + v,
    "infinity": lambda v: float("inf"),
}


def _verify_mangled(proved, tmp_path, bundle):
    bad = tmp_path / "bundle.json"
    bad.write_text(json.dumps(bundle))
    result = CliRunner().invoke(
        main,
        [
            "verify", "--json", "--claim", _claim(proved),
            "--aid", str(proved / "aid.json"),
            "--bundle", str(bad),
            "--templates", str(proved / "templates"),
        ],
    )
    assert result.exit_code == 1, result.output
    return json.loads(result.output)


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("where", sorted(NUMBER_FIELDS))
def test_only_the_plain_decimal_spelling_is_read(proved, tmp_path, where, spelling):
    bundle = json.loads((proved / "bundle.json").read_text())
    locate, key, reason = NUMBER_FIELDS[where]
    node = locate(bundle)
    node[key] = SPELLINGS[spelling](node[key])
    report = _verify_mangled(proved, tmp_path, bundle)
    assert report["reason"] == reason
    assert f"{key} must be a decimal integer string" in report["detail"]


@pytest.mark.parametrize(
    "spell",
    [
        pytest.param(lambda d: d[:2] + " " + d[2:], id="space"),
        pytest.param(str.upper, id="uppercase"),
        pytest.param(lambda d: d[:2] + " " + d[2:].upper(), id="space-and-uppercase"),
    ],
)
def test_only_the_lowercase_hex_spelling_is_read(proved, tmp_path, spell):
    bundle = json.loads((proved / "bundle.json").read_text())
    run = _core_proof(bundle)["response_disclosure"]["chunks"][0]
    run["data"] = spell(run["data"])
    report = _verify_mangled(proved, tmp_path, bundle)
    assert report["reason"] == "subproof-invalid"
    assert "data must be a lowercase hex string" in report["detail"]


def test_negative_run_index_still_decodes(proved, tmp_path):
    # "-1" is the plain spelling of -1, so the disclosure check sees it.
    bundle = json.loads((proved / "bundle.json").read_text())
    _core_proof(bundle)["response_disclosure"]["chunks"][0]["index"] = "-1"
    report = _verify_mangled(proved, tmp_path, bundle)
    assert report["reason"] == "subproof-invalid"
    assert "chunk-range-inconsistency" in report["detail"]


@pytest.mark.parametrize(
    "direction, index",
    [("up", "-1"), ("sideways", "0"), ("down", "0")],
    ids=["negative-index", "unknown-direction", "repeated"],
)
def test_record_key_out_of_place_is_subproof_invalid(proved, tmp_path, direction, index):
    bundle = json.loads((proved / "bundle.json").read_text())
    keys = _core_proof(bundle)["record_keys"]
    keys.append({"direction": direction, "index": index, "key": keys[-1]["key"]})
    report = _verify_mangled(proved, tmp_path, bundle)
    assert report["reason"] == "subproof-invalid"
    assert "is not a distinct up or down record" in report["detail"]


def _swap_sessions(bundle):
    """Swap the demo bundle's two sessions and remap every proof's index."""
    bundle["sessions"].reverse()
    for proof in bundle["proofs"]:
        field = session_field(proof["kind"])
        proof["payload"][field] = str(1 - int(proof["payload"][field]))
    return "step:0/core: session 1 is named before session 0"


def _tee_names_the_notary_session(bundle):
    """Point the first TEE proof at the notary's session, which the core
    proof before it opened."""
    proof = next(p for p in bundle["proofs"] if p["kind"] == "tee_attestation")
    assert bundle["proofs"][0]["payload"]["signed_statement"] == "0"
    proof["payload"]["attestation"] = "0"
    locator = f"step:{proof['step_index']}/{proof['position']}"
    return f"{locator}: session 0 holds a webproof, not a tee_attestation"


@pytest.mark.parametrize("mangle", [_swap_sessions, _tee_names_the_notary_session])
def test_sessions_have_one_order_and_one_scheme(proved, tmp_path, mangle):
    bundle = json.loads((proved / "bundle.json").read_text())
    assert len(bundle["sessions"]) == 2
    detail = mangle(bundle)
    report = _verify_mangled(proved, tmp_path, bundle)
    assert (report["reason"], report["detail"]) == ("subproof-invalid", detail)


def test_honest_bundle_decodes_to_the_same_document(proved):
    bundle = json.loads((proved / "bundle.json").read_text())
    assert VerifiableExecutionTrace.from_obj(bundle).to_obj() == bundle
    for proof in bundle["proofs"]:
        if proof["kind"] == "webproof":
            payload = proof["payload"]
            signed = bundle["sessions"][int(payload["signed_statement"])]
            decoded = WebProof.from_obj(payload, SignedStatement.from_obj(signed))
            assert decoded.statement.to_obj() == signed
            assert decoded.exchange_obj() == {
                k: v for k, v in payload.items() if k != "signed_statement"
            }


def _serve_args(tmp_path, command, listen):
    key = tmp_path / "k.hex"
    key.write_text(SigningKey.from_seed("serve").private_hex())
    keyed = ["--key", str(key)]
    return {
        "proxy": ["proxy", "serve", *keyed],
        "notary": ["notary", "serve", *keyed, "--server-key", str(key)],
        "mock": ["mock", "serve", "--kind", "echo"],
    }[command] + ["--listen", listen]


def _serve(tmp_path, monkeypatch, command, listen):
    # A serve that binds by mistake returns instead of blocking.
    monkeypatch.setattr(cli, "_block", lambda: None)
    return CliRunner().invoke(main, _serve_args(tmp_path, command, listen))


@pytest.mark.parametrize("command", ["proxy", "notary", "mock"])
def test_serve_on_a_port_out_of_range_is_a_usage_error(tmp_path, monkeypatch, command):
    result = _serve(tmp_path, monkeypatch, command, "127.0.0.1:99999")
    assert result.exit_code == 2, result.output
    assert "invalid listen address '127.0.0.1:99999'" in result.output


@pytest.mark.parametrize("command", ["proxy", "notary", "mock"])
def test_serve_on_an_address_in_use_is_a_usage_error(tmp_path, monkeypatch, command):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        result = _serve(tmp_path, monkeypatch, command, f"127.0.0.1:{port}")
    assert result.exit_code == 2, result.output
    assert f"cannot listen on 127.0.0.1:{port}" in result.output
