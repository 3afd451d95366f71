"""Command-line interface.

Exit codes: 0 success/accept, 1 verification reject, 2 usage or I/O
error. Keys are hex-encoded Ed25519 private keys in files; relative key
paths are resolved against $VET_KEY_DIR when it is set.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading

import click

from . import channel_sim, demo as demo_mod, frames, mockserver, notary as notary_mod, tee_proxy
from .aid import AgentIdentityDocument, TrustStore, compute_id, instantiate_verifier, validate
from .canonical import canonical_bytes, canonical_loads
from .composer import VerifiableExecutionTrace, VerificationReport
from .errors import Rejected, ValidationError, VetError
from .keys import SigningKey
from .templates import TemplateRegistry
from .toytls import TargetServer


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str, decode=lambda obj: obj):
    """The JSON document in ``path``, decoded by ``decode``; a file that
    cannot be read or decoded is a usage error (exit 2)."""
    try:
        return decode(canonical_loads(pathlib.Path(path).read_bytes()))
    except (OSError, ValidationError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _write_out(result: demo_mod.DemoResult, out_dir: str) -> pathlib.Path:
    """Write a demo run's AID, bundle and templates into ``out_dir``."""
    directory = pathlib.Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "aid.json").write_bytes(canonical_bytes(result.aid.to_obj()))
        (directory / "bundle.json").write_bytes(canonical_bytes(result.bundle.to_obj()))
        result.registry.save_dir(directory / "templates")
    except OSError as exc:
        _fail(f"cannot write to {out_dir}: {exc}")
    return directory


def _key_path(path: str) -> pathlib.Path:
    p = pathlib.Path(path)
    key_dir = os.environ.get("VET_KEY_DIR")
    if key_dir and not p.is_absolute():
        p = pathlib.Path(key_dir) / p
    return p


def _load_key(path: str) -> SigningKey:
    try:
        return SigningKey.from_private_hex(_key_path(path).read_text().strip())
    except (OSError, ValueError, ValidationError) as exc:
        _fail(f"cannot load key {path}: {exc}")


def _load_registry(path: str) -> TemplateRegistry:
    try:
        return TemplateRegistry.load_dir(path)
    except (OSError, VetError) as exc:
        _fail(f"cannot load templates from {path}: {exc}")


def _block():
    # The serve helpers run in daemon threads; keep the process alive.
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    try:
        if 0 <= int(port) <= 65535:
            return host or "127.0.0.1", int(port)
    except ValueError:
        pass
    _fail(f"invalid listen address {value!r}")


def _bind(serve, target, host: str, port: int):
    """``serve(target, host, port)``; an address that cannot be bound is
    a usage error (exit 2)."""
    try:
        return serve(target, host, port)
    except OSError as exc:
        _fail(f"cannot listen on {host}:{port}: {exc}")


_MOCK_KINDS = {
    "price_feed": lambda seed: mockserver.make_price_handler(seed),
    "sentiment": lambda seed: mockserver.make_sentiment_handler(seed),
    "llm": lambda seed: mockserver.make_core_handler(mockserver.trader_core(seed)),
    "echo": lambda seed: mockserver.make_echo_handler(),
}


@click.group()
def main():
    """Verifiable execution traces: prove and verify agent outputs."""


@main.group()
def aid():
    """Agent identity document utilities."""


@aid.command("hash")
@click.argument("aid_file")
def aid_hash(aid_file):
    """Print the content-addressed ID of an identity document."""
    document = _load_json(aid_file, AgentIdentityDocument.from_obj)
    try:
        click.echo(compute_id(document))
    except ValidationError as exc:
        _fail(str(exc), code=1)


@aid.command("validate")
@click.argument("aid_file")
@click.option("--templates", "templates_dir", default=None, help="Template registry directory.")
def aid_validate(aid_file, templates_dir):
    """Validate a document; exit 0 iff it has no violations."""
    document = _load_json(aid_file, AgentIdentityDocument.from_obj)
    registry = _load_registry(templates_dir) if templates_dir else None
    violations = validate(document, registry)
    for violation in violations:
        click.echo(str(violation))
    if violations:
        sys.exit(1)
    click.echo("ok")


@main.group()
def notary():
    """Notary service."""


@notary.command("serve")
@click.option("--listen", default="127.0.0.1:9440", show_default=True)
@click.option("--key", "key_file", required=True, help="Hex Ed25519 private key file.")
@click.option("--max-up", default=frames.SESSION_CAP, show_default=True, type=int)
@click.option("--max-down", default=frames.SESSION_CAP, show_default=True, type=int)
@click.option("--upstream-kind", type=click.Choice(sorted(_MOCK_KINDS)), default="llm",
              show_default=True, help="Mock server kind the notary relays to.")
@click.option("--upstream-domain", default="llm.test", show_default=True)
@click.option("--server-key", "server_key_file", required=True,
              help="Hex Ed25519 private key file for the relayed target server: "
                   "its long-term key, which no handshake reads.")
@click.option("--seed", default="0", show_default=True)
def notary_serve(listen, key_file, max_up, max_down, upstream_kind, upstream_domain,
                 server_key_file, seed):
    """Serve the notary wire protocol over TCP (blocks)."""
    host, port = _parse_listen(listen)
    signing_key = _load_key(key_file)
    server_key = _load_key(server_key_file)
    handler = _MOCK_KINDS[upstream_kind](seed)
    target = TargetServer(
        upstream_domain, handler, server_key, [signing_key.public_string]
    )
    service = notary_mod.NotaryService(
        signing_key,
        {upstream_domain: target}.__getitem__,
        max_cap_up=max_up,
        max_cap_down=max_down,
    )
    server = _bind(notary_mod.serve, service, host, port)
    click.echo(f"notary {signing_key.public_string}")
    click.echo(f"listening on {server.server_address[0]}:{server.server_address[1]}")
    _block()


@main.group()
def proxy():
    """Simulated TEE proxy."""


@proxy.command("serve")
@click.option("--listen", default="127.0.0.1:9441", show_default=True)
@click.option("--key", "key_file", required=True)
@click.option("--upstream-kind", type=click.Choice(sorted(_MOCK_KINDS)), default="price_feed",
              show_default=True)
@click.option("--seed", default="0", show_default=True)
def proxy_serve(listen, key_file, upstream_kind, seed):
    """Serve the attesting proxy over TCP (blocks)."""
    host, port = _parse_listen(listen)
    signing_key = _load_key(key_file)
    handler = _MOCK_KINDS[upstream_kind](seed)
    instance = tee_proxy.TeeProxy(signing_key, handler)
    server = _bind(tee_proxy.serve, instance, host, port)
    click.echo(f"enclave {signing_key.public_string}")
    click.echo(f"listening on {server.server_address[0]}:{server.server_address[1]}")
    _block()


@main.group()
def mock():
    """Deterministic mock component servers."""


@mock.command("serve")
@click.option("--kind", type=click.Choice(sorted(_MOCK_KINDS)), required=True)
@click.option("--listen", default="127.0.0.1:9442", show_default=True)
@click.option("--seed", default="0", show_default=True)
def mock_serve(kind, listen, seed):
    """Serve one mock component over the framed TCP protocol (blocks)."""
    host, port = _parse_listen(listen)
    handler = _MOCK_KINDS[kind](seed)
    server = _bind(frames.serve_relay, handler, host, port)
    click.echo(f"mock {kind} listening on {server.server_address[0]}:{server.server_address[1]}")
    _block()


@main.command()
@click.option("--seed", default="0", show_default=True)
@click.option("--out", "out_dir", default="demo-out", show_default=True,
              help="Directory for bundle, AID and templates.")
def prove(seed, out_dir):
    """Run the demo agent and write an AID plus a verifiable bundle."""
    try:
        result = demo_mod.run_demo(seed)
    except VetError as exc:
        _fail(str(exc), code=1)
    directory = _write_out(result, out_dir)
    click.echo(f"decision: {result.decision.serialized()}")
    click.echo(f"wrote {directory}/aid.json, bundle.json, templates/")


def _status(verdict: str) -> str:
    return "ok" if verdict == "ok" else f"FAIL: {verdict}"


def _verdict_text(report: VerificationReport, bundle) -> str:
    return "accept" if report.reason is None else f"reject: {report.reason} ({report.detail})"


def _report_text(report: VerificationReport, bundle: VerifiableExecutionTrace) -> str:
    """The report as text: the bundle's AID id and counts, a line per session and
    per component checked (marked too if its session failed to close), the verdict."""
    # A malformed reject comes before the verifier, so before the AID id check.
    match = "not checked" if report.reason == "malformed" else "MISMATCH"
    lines = [
        f"agent id: {bundle.aid_id}  [{'match' if report.aid_match else match}]",
        f"steps: {len(bundle.trace.steps)}  proofs: {len(bundle.proofs)}"
        f"  sessions: {len(bundle.sessions)}",
    ]
    for session in report.sessions:
        closed = f", chain closed {_status(session.verdict)}" if session.verdict else ""
        lines.append(
            f"session {session.index}: {session.kind}, {session.exchanges} exchanges"
            f"  signature {_status(session.signature)}{closed}"
        )
    unchained = {s.index: s.verdict for s in report.sessions if s.verdict not in ("", "ok")}
    step = None
    for check in report.components:
        if check.step_index != step:
            step = check.step_index
            lines.append(f"step {step}:")
        where = "" if check.session is None else f" (session {check.session})"
        detail = ""
        if check.request_disclosed is not None:
            public, secret = check.request_disclosed
            detail = f"  request {public}/{public + secret} bytes public, rest secret"
        status = _status(check.verdict)
        if check.session in unchained:
            status += f"; session FAIL: {unchained[check.session]}"
        lines.append(f"  {check.position}{where}: {check.kind}  [{status}]{detail}")
    verdict = "ok" if report.reason is None else f"FAIL ({report.reason}: {report.detail})"
    return "\n".join([*lines, f"trace consistency: {verdict}"])


def _verify(aid_file, bundle_file, templates_dir, claim, as_json, render):
    """Verify ``claim`` with the AID's verifier and print the report, as
    JSON or as ``render(report, bundle)``; exit 0 on acceptance, else 1.

    A VetError once the files are read is a malformed reject. A claim of
    None is the bundle's final core output, so a document that does not
    decode leaves nothing to verify: a usage error (exit 2).
    """
    aid_obj, bundle_obj = _load_json(aid_file), _load_json(bundle_file)
    registry = _load_registry(templates_dir)
    report, document, bundle = VerificationReport(), None, None
    try:
        document = AgentIdentityDocument.from_obj(aid_obj)
        bundle = VerifiableExecutionTrace.from_obj(bundle_obj)
        if claim is None:
            claim = bundle.trace.steps[-1].core_output
        instantiate_verifier(document, TrustStore(registry=registry)).verify(claim, bundle, report)
    except Rejected:
        pass  # the verifier filled in the reason
    except VetError as exc:
        if claim is None:
            _fail(f"malformed {'AID' if document is None else 'bundle'}: {exc}")
        report.reason, report.detail = "malformed", str(exc)
    click.echo(json.dumps(report.to_obj(claim)) if as_json else render(report, bundle))
    sys.exit(0 if report.reason is None else 1)


@main.command()
@click.option("--aid", "aid_file", required=True)
@click.option("--bundle", "bundle_file", required=True)
@click.option("--claim", required=True, help="Claimed message, or @file to read it.")
@click.option("--templates", "templates_dir", required=True)
@click.option("--json", "as_json", is_flag=True)
def verify(aid_file, bundle_file, claim, templates_dir, as_json):
    """Verify a claimed message against a bundle; exit 0 iff accepted."""
    if claim.startswith("@"):
        try:
            claim = pathlib.Path(claim[1:]).read_bytes().decode("utf-8")  # keeps "\r\n"
        except (OSError, UnicodeDecodeError) as exc:
            _fail(f"cannot read {claim[1:]}: {exc}")
    _verify(aid_file, bundle_file, templates_dir, claim, as_json, _verdict_text)


@main.command()
@click.option("--aid", "aid_file", required=True)
@click.option("--bundle", "bundle_file", required=True)
@click.option("--templates", "templates_dir", required=True)
@click.option("--json", "as_json", is_flag=True)
def inspect(aid_file, bundle_file, templates_dir, as_json):
    """Verify a bundle's final core output and print the per-step report."""
    _verify(aid_file, bundle_file, templates_dir, None, as_json, _report_text)


@main.group()
def bench():
    """Benchmarks on the calibrated cost model."""


@bench.command("channels")
@click.option("--strategy", type=click.Choice(["naive", "optimized", "both"]), default="both",
              show_default=True)
@click.option("--rounds", default=6, show_default=True, type=int)
@click.option("--model", "model_file", default=None, help="Cost-model JSON; default: paper fit.")
@click.option("--base-capacity", default=4096, show_default=True, type=int)
@click.option("--csv", "csv_file", default=None, help="Write per-round rows to this file.")
def bench_channels(strategy, rounds, model_file, base_capacity, csv_file):
    """Simulate channel provisioning strategies for an N-round session."""
    strategies = ["naive", "optimized"] if strategy == "both" else [strategy]
    try:
        if model_file:
            model = channel_sim.CostModel.load(model_file)
        else:
            model, _ = channel_sim.paper_calibration(base_capacity=base_capacity)
        workload = channel_sim.SessionWorkload(rounds=rounds)
        plans = [channel_sim.plan(name, workload, base_capacity) for name in strategies]
        csv = open(csv_file, "w") if csv_file else None
    except (OSError, ValidationError) as exc:
        _fail(str(exc))
    rows = []
    for name, channel_plan in zip(strategies, plans):
        if not channel_plan.feasible:
            click.echo(f"{name}: infeasible at round {channel_plan.failing_round}")
            continue
        result = channel_sim.simulate(channel_plan, model)
        click.echo(
            f"{name}: setup {result.setup_total:.2f}s  total {result.total:.2f}s  "
            f"per-message overhead {result.per_message_overhead:.2f}s"
        )
        for k, (latency, cumulative) in enumerate(zip(result.per_round, result.cumulative), 1):
            rows.append((name, k, latency, cumulative))
    if csv:
        with csv:
            csv.write("strategy,round,latency_s,cumulative_s\n")
            for name, k, latency, cumulative in rows:
                csv.write(f"{name},{k},{latency:.6f},{cumulative:.6f}\n")
        click.echo(f"wrote {csv_file}")


@main.group()
def demo():
    """End-to-end demos."""


@demo.command("veritrade")
@click.option("--seed", default="0", show_default=True)
@click.option("--out", "out_dir", default=None, help="Also write aid/bundle/templates here.")
@click.option("--json", "as_json", is_flag=True)
def demo_veritrade(seed, out_dir, as_json):
    """Authenticated trading decision: run, prove, verify, report latency."""
    try:
        result = demo_mod.run_demo(seed)
    except VetError as exc:
        _fail(str(exc), code=1)
    if out_dir:
        _write_out(result, out_dir)
    latency = result.latency
    if as_json:
        click.echo(
            json.dumps(
                {
                    "decision": result.decision.to_obj(),
                    "agent_id": result.bundle.aid_id,
                    "verified": True,
                    "latency": {
                        "direct_s": latency.direct,
                        "proxied_tool_s": latency.proxied_tools,
                        "notarized_core_s": latency.notarized_core,
                        "decision_webproof_core_s": latency.total_webproof_core,
                        "decision_tee_core_s": latency.total_tee_core,
                    },
                }
            )
        )
    else:
        click.echo(f"decision: {result.decision.serialized()}")
        click.echo(f"agent id: {result.bundle.aid_id}")
        click.echo("bundle verified: yes")
        click.echo(
            f"modeled latency: direct {latency.direct:.2f}s, "
            f"TEE-proxied tool {latency.proxied_tools:.2f}s, "
            f"notarized core {latency.notarized_core:.2f}s"
        )
        click.echo(
            f"authenticated decision: {latency.total_webproof_core:.2f}s "
            f"(web-proof core) vs {latency.total_tee_core:.2f}s (TEE core)"
        )


if __name__ == "__main__":
    main()
