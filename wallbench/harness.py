"""The measurement loop: set-up, rounds of operations, metrics, output.

A run is one workload in this process, closed loop with one client: the
next operation starts when the previous one has been checked. An
operation is prove (ending with the canonical-JSON bytes of the proof or
bundle), then verify (starting from those bytes). A run repeats whole
rounds of the same operations, all made from ``--seed``, until
``--seconds`` have passed, so every count per operation repeats exactly.

Times are wall-clock times of this Python code with their CPU part
rescaled to the host's full speed (see ``calibration``). Untraced runs
report the end-to-end metrics. Traced runs alternate untraced and traced
rounds and report the per-layer metrics of the traced rounds, plus the
tracing overhead: the traced minus the untraced median of prove plus
verify time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy, with the
sample count, the raw wall-clock times, the calibration loop times and
(traced) the spans of the first traced operation, is written under
``wallbench/out/``. The virtual clock of ``vet.channel_sim`` is never
used.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import calibration
import tracing
import vet
import workloads

OUT = pathlib.Path(__file__).resolve().parent / "out"
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 5

IMPORT_PROBE = """
import importlib, sys, time
start = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""


def import_seconds(modules, src: pathlib.Path) -> float:
    """Time to import the workload's vet modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *modules],
        cwd=src.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def elapsed(start, end) -> tuple[float, float]:
    """(wall, cpu) seconds between two ``clock()`` readings."""
    return end[0] - start[0], end[1] - start[1]


def setup_once(wl, src: pathlib.Path) -> tuple[float, float]:
    """Import, build a world, make the inputs and run one warm-up operation.

    Returns the set-up time at full speed and as measured. The import
    runs in a child interpreter and counts as CPU time.
    """
    loop_before = calibration.measure()
    import_s = import_seconds(wl.modules, src)
    start = clock()
    wl.inputs()
    context = wl.start_round()
    try:
        built = wl.build(context, f"{wl.name}:warm-up:{wl.seed}")
        encoded, state = wl.prove(built)
        wl.verify(built, encoded, state)
        wall, cpu = elapsed(start, clock())
    finally:
        wl.end_round(context)
    loop_s = (loop_before + calibration.measure()) / 2
    return calibration.at_full_speed(import_s + wall, import_s + cpu, loop_s), import_s + wall


class Run:
    """Timings, sizes and counts gathered over the measured rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # prove + verify time of every attempt
        # Untraced operations only: prove and verify times.
        self.prove_s: list[float] = []
        self.verify_s: list[float] = []
        self.raw_prove_s: list[float] = []
        self.raw_verify_s: list[float] = []
        self.loop_s: list[float] = []
        self.sizes: list[int] = []
        self.overheads: list[float] = []
        self.op_s = {False: [], True: []}  # prove + verify, by traced or not
        # Traced rounds only: operations attempted, for per-op layer figures.
        self.traced_ops = 0
        self.traced_calls = 0
        self.traced_loop_s: list[float] = []
        self.proof_parts: dict[str, int] = {}
        self.spans: list[tuple] = []

    def round(self, inputs, traced: bool, full_checks: bool) -> None:
        wl = self.workload
        if traced:
            self.tracer.install()
        try:
            context = wl.start_round()
            try:
                for op_input in inputs:
                    self.operation(context, op_input, traced, full_checks)
            finally:
                wl.end_round(context)
        finally:
            self.tracer.uninstall()

    def operation(self, context, op_input, traced: bool, full_checks: bool) -> None:
        wl = self.workload
        tracer = self.tracer
        built = wl.build(context, op_input)
        if traced and not self.spans:
            tracer.spans = []
        self.attempted += 1
        self.traced_ops += traced
        # Calibrate before prove, between prove and verify, and after verify,
        # so that each phase is rescaled by the host speed around it.
        loops = [calibration.measure()]
        tracer.active = traced
        start = clock()
        try:
            encoded, state = wl.prove(built)
        except Exception as exc:
            tracer.active = False
            loop_s = (loops[0] + calibration.measure()) / 2
            self.timed_s += calibration.at_full_speed(*elapsed(start, clock()), loop_s)
            if not wl.expected_failure(exc):
                raise
            self.failed += 1
            return
        prove = elapsed(start, clock())
        tracer.active = False
        loops.append(calibration.measure())
        tracer.active = traced
        start = clock()
        try:
            outcome = wl.verify(built, encoded, state)
        finally:
            tracer.active = False
        verify = elapsed(start, clock())
        loops.append(calibration.measure())
        if tracer.spans:
            self.spans, tracer.spans = tracer.spans, None
        prove_s = calibration.at_full_speed(*prove, (loops[0] + loops[1]) / 2)
        verify_s = calibration.at_full_speed(*verify, (loops[1] + loops[2]) / 2)
        self.timed_s += prove_s + verify_s
        self.op_s[traced].append(prove_s + verify_s)
        if not traced:
            self.prove_s.append(prove_s)
            self.verify_s.append(verify_s)
            self.raw_prove_s.append(prove[0])
            self.raw_verify_s.append(verify[0])
            self.loop_s.append(statistics.mean(loops))
        wl.check(built, outcome, state, full_checks)
        self.sizes.append(len(outcome.encoded))
        self.overheads.append(len(outcome.encoded) / workloads.plaintext_bytes(outcome.doc))
        if traced:
            self.traced_calls += outcome.component_calls
            self.traced_loop_s.append(statistics.mean(loops))
            if not self.proof_parts:
                self.proof_parts = tracing.proof_breakdown(outcome.doc)

    def end_to_end(self, setups: list[float]) -> dict:
        completed = len(self.prove_s)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (statistics.median(setups), "s"),
            "prove_ms.p50": (statistics.median(self.prove_s) * 1e3, "ms"),
            "verify_ms.p50": (statistics.median(self.verify_s) * 1e3, "ms"),
            "ops_per_s": (completed / self.timed_s, "1/s"),
            "proof_bytes": (statistics.median(self.sizes), "B"),
            "proof_overhead": (statistics.median(self.overheads), "ratio"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }

    def per_layer(self) -> dict:
        metrics = self.tracer.layer_metrics(self.traced_ops, self.traced_calls)
        for name, value in self.proof_parts.items():
            metrics[name] = (value, "B")
        traced = statistics.median(self.op_s[True])
        untraced = statistics.median(self.op_s[False])
        metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        metrics["calibration.loop_ms"] = (statistics.median(self.traced_loop_s) * 1e3, "ms")
        # The p90s do not repeat within any bound this benchmark could set,
        # so they are reported here, unbounded, from the untraced rounds.
        metrics["prove_ms.p90"] = (statistics.quantiles(self.prove_s, n=10)[-1] * 1e3, "ms")
        metrics["verify_ms.p90"] = (statistics.quantiles(self.verify_s, n=10)[-1] * 1e3, "ms")
        metrics["p90.samples"] = (len(self.prove_s), "count")
        return metrics

    def record(self) -> dict:
        """What the per-run file keeps beyond the printed result."""
        return {
            "samples": len(self.prove_s),
            "raw_prove_ms.p50": statistics.median(self.raw_prove_s) * 1e3 if self.raw_prove_s else None,
            "raw_verify_ms.p50": statistics.median(self.raw_verify_s) * 1e3 if self.raw_verify_s else None,
            "calibration_loop_ms": [s * 1e3 for s in self.loop_s],
            "prove_ms": [s * 1e3 for s in self.prove_s],
            "verify_ms": [s * 1e3 for s in self.verify_s],
            "spans": self.spans,
        }


def main(args, src: pathlib.Path) -> int:
    if pathlib.Path(vet.__file__).resolve().parent != src / "vet":
        print(f"wallbench: imported vet from {vet.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"wallbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    setups, raw_setups = zip(*(setup_once(wl, src) for _ in range(SETUP_REPEATS)))
    inputs = wl.inputs()
    run = Run(wl)
    error = None
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            # Traced runs alternate untraced and traced rounds, ending on a
            # traced one; the first round of every run also runs the
            # checks that re-verify tampered proofs.
            traced = bool(args.trace) and rounds % 2 == 1
            run.round(inputs, traced, full_checks=rounds == 0)
            rounds += 1
            if time.perf_counter() - start >= args.seconds and not (args.trace and rounds % 2):
                break
    except workloads.CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception as exc:
        error = f"operation failed: {type(exc).__name__}: {exc}"

    correct = error is None
    metrics = {}
    if correct:
        metrics = run.per_layer() if args.trace else run.end_to_end(list(setups))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        rounds=rounds,
        error=error,
        setup_s=setups,
        raw_setup_s=raw_setups,
        **run.record(),
    )
    dump = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps(record, indent=1))
    if error:
        print(f"wallbench: {error}", file=sys.stderr)
    print(
        f"# {args.workload} seed {args.seed}: {rounds} rounds, {run.attempted} attempted, "
        f"{run.failed} failed; timings over {len(run.prove_s)} untraced operations"
    )
    print(json.dumps(result))
    return 0 if correct else 1
