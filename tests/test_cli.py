import json
import socket

import pytest
from click.testing import CliRunner

from vet import cli
from vet.canonical import FORMAT
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
    assert json.loads(as_json.output)["ok"] is True


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
        lambda bundle: bundle["sessions"][0]["signed"].update(notary_signature=5),
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
        (lambda bundle: bundle["proofs"][0]["payload"].pop("format"), "web proof format 1"),
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
    # The bundle's own version is a decode error; a component's is that
    # component's reject.
    assert report["reason"] == ("malformed" if named.startswith("bundle") else "subproof-invalid")
    assert named in report["detail"] and f"reads format {FORMAT} only" in report["detail"]


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
    for session in sessions:
        assert session["kind"] == bundle["sessions"][session["index"]]["kind"]
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
            "  signature ok, every exchange consumed ok"
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


def test_inspect_stops_at_first_rejection(proved, tmp_path):
    bundle = json.loads((proved / "bundle.json").read_text())
    tee = next(i for i, p in enumerate(bundle["proofs"]) if p["kind"] == "tee_attestation")
    session = int(bundle["proofs"][tee]["payload"]["attestation"])
    bundle["sessions"][session]["signed"]["timestamp"] = "1"
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
    "field, value", [("headers", ["x"]), ("chunk_size", ["1"]), ("path", 5)]
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
    "step_index": (lambda b: b["trace"]["steps"][1], "step_index", "malformed"),
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


def test_honest_bundle_decodes_to_the_same_document(proved):
    bundle = json.loads((proved / "bundle.json").read_text())
    assert VerifiableExecutionTrace.from_obj(bundle).to_obj() == bundle
    for proof in bundle["proofs"]:
        if proof["kind"] == "webproof":
            payload = proof["payload"]
            signed = bundle["sessions"][int(payload["signed_statement"])]["signed"]
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
