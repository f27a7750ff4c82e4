"""Run one workload of the ospsim benchmark and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ospsim from src/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 times a closed loop of whole batches until S seconds of batch
time have passed, and reports the end-to-end metrics: the throughput
(operations over batch time, or for workloads marked `best_batch` the
rate of the fastest batch), the median set-up time of SETUP_PROBES fresh
processes, and the peak RSS of the benchmark's processes.

--trace 1 runs a fixed number of operations, set by S and the workload,
twice on the same inputs: untraced, then with the tracer installed in
every process.  It reports the per-layer metrics of the traced pass and
the tracing overhead (traced minus untraced wall time), and writes the
spans under perfbench/out/.  End-to-end metrics never come from it.

Output checks run after each batch and each pass with the clock stopped;
each checked operation and each pass check counts as attempted, and
counts as failed when it raised or a check rejected it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

END_TO_END = (("ops_per_s", "op/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

GATES = ("H", "X", "Z", "P", "PDG", "T", "TDG", "SQRTX", "CNOT", "matrix")

# Per-layer metrics of the traced run.  `<name>.calls` and `<name>.self_s`
# sum over every traced name that equals <name> or starts with "<name>.";
# the other entries are counters kept by the tracer or the run.
PER_LAYER = (
    ("gf2.calls", "count"), ("gf2.self_s", "s"),
    ("tcf.gen.calls", "count"), ("tcf.gen.self_s", "s"),
    ("tcf.eval.self_s", "s"), ("tcf.decode.self_s", "s"), ("tcf.self_s", "s"),
    ("osp.two_round_receiver.calls", "count"),
    ("osp.two_round_receiver.self_s", "s"),
    ("osp.two_round_decode.self_s", "s"),
    ("osp.ideal_stub_source.calls", "count"), ("osp.self_s", "s"),
    ("qsim.collapse_two_branch.self_s", "s"),
    ("qsim.measure_descriptor.self_s", "s"),
    ("qsim.DenseState.calls", "count"), ("qsim.DenseState.self_s", "s"),
    ("qsim.apply_gate.calls", "count"), ("qsim.apply_gate.self_s", "s"),
    ("qsim.apply_gate.bytes", "B-computed"),
) + tuple(("qsim.apply_gate.%s.calls" % g, "count") for g in GATES) + (
    ("qsim.measure.calls", "count"), ("qsim.measure.self_s", "s"),
    ("qsim.measure.bytes", "B-computed"),
    ("qsim.drop_qubits.self_s", "s"), ("qsim.peak_dense_qubits", "qubits"),
    ("qsim.apply_1q.calls", "count"), ("qsim.apply_1q.self_s", "s"),
    ("qsim.dense_to_two_branch.self_s", "s"), ("qsim.self_s", "s"),
    ("gadgets.encrypted_phase.calls", "count"),
    ("gadgets.encrypted_phase.self_s", "s"),
    ("gadgets.ecnot_run.calls", "count"), ("gadgets.ecnot_run.self_s", "s"),
    ("gadgets.self_s", "s"),
    ("delegation.delegate_on_state.calls", "count"),
    ("delegation.delegate_on_state.self_s", "s"),
    ("delegation.classical_output_round.self_s", "s"),
    ("delegation.self_s", "s"),
    ("cvqc.honest_round.calls", "count"), ("cvqc.honest_round.self_s", "s"),
    ("cvqc.sample_question.self_s", "s"), ("cvqc.verify.self_s", "s"),
    ("cvqc.self_s", "s"),
    ("apps.poq_run.self_s", "s"),
    ("apps.on_message.calls", "count"), ("apps.on_message.self_s", "s"),
    ("apps.self_s", "s"),
    ("harness.frame_encode.calls", "count"),
    ("harness.frame_encode.self_s", "s"),
    ("harness.frame_decode.self_s", "s"),
    ("harness.canonical_json.self_s", "s"),
    ("harness.frame_bytes", "B"), ("harness.self_s", "s"),
    ("wire.client_cpu_s", "s"), ("wire.server_cpu_s", "s"),
    ("wire.wait_s", "s"),
    ("trace.overhead_s", "s"),
)


def _traced_total(table: dict, name: str):
    """Sum a per-name table over `name` and the names nested under it.

    `apps.on_message` gathers the four party classes' on_message."""
    if name == "apps.on_message":
        return sum(v for k, v in table.items() if k.endswith(".on_message"))
    return sum(v for k, v in table.items()
               if k == name or k.startswith(name + "."))


COUNTERS = {"qsim.apply_gate.bytes", "qsim.measure.bytes",
            "harness.frame_bytes"} | {"qsim.apply_gate.%s.calls" % g
                                      for g in GATES}


def layer_metrics(snap: dict, extra: dict) -> dict:
    """The PER_LAYER metrics from a tracer snapshot plus run-level figures."""
    out = {}
    for name, unit in PER_LAYER:
        if name in extra:
            value = extra[name]
        elif name == "qsim.peak_dense_qubits":
            value = snap["peak_dense_qubits"]
        elif name in COUNTERS:
            value = snap["counts"].get(name, 0)
        else:
            base, kind = name.rsplit(".", 1)
            value = _traced_total(snap[kind], base)
        out[name] = {"value": value, "unit": unit}
    return out


# ----------------------------------------------------------------- passes


class Tally:
    """Operations and check outcomes of one pass."""

    def __init__(self):
        self.ops = 0
        self.raised = 0
        self.rejected = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rates = []
        self.digest = hashlib.sha256()


def run_batch(w, tally, tracer=None):
    """Time one batch of operations, then check it with the clock stopped."""
    from workloads import FAILED

    outs = []
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(w.batch):
        if tracer is not None:
            tracer.op_id = tally.ops + len(outs)
        try:
            outs.append(w.run_op())
        except Exception:  # one failed operation must not end the run
            if tally.raised < 3:
                traceback.print_exc(file=sys.stderr)
            tally.raised += 1
            outs.append(FAILED)
    wall = time.perf_counter() - wall
    tally.cpu_s += time.process_time() - cpu
    tally.wall_s += wall
    tally.rates.append(w.batch / wall)
    tally.ops += w.batch
    if tracer is not None:
        tracer.paused = True
    tally.rejected += w.check_batch(outs)
    for out in outs:
        tally.digest.update(b"-" if out is FAILED else w.digest(out))
    if tracer is not None:
        tracer.paused = False


class Verdict:
    """Attempted and failed operations and checks over a whole run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def add_pass(self, tally: Tally, pass_checks):
        self.attempted += tally.ops
        self.failed += tally.raised + tally.rejected
        self.correct = self.correct and not (tally.raised or tally.rejected)
        for check in pass_checks:
            self.add_check(*check)

    def add_check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            print("check failed: %s (%s)" % (name, detail), file=sys.stderr)


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first operation."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdin.close()
        proc.wait(timeout=PROBE_TIMEOUT_S)
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe of %s failed" % name)
    return elapsed


def timed_run(w, seconds: float, verdict: Verdict) -> float:
    """Whole batches until `seconds` of batch time; returns the throughput."""
    w.begin(0)
    tally = Tally()
    while tally.wall_s < seconds:
        run_batch(w, tally)
    verdict.add_pass(tally, w.pass_checks())
    if w.best_batch:
        return max(tally.rates)
    return tally.ops / tally.wall_s


def traced_run(w, seconds: float, verdict: Verdict) -> dict:
    import tracer as tracing

    batches = max(1, round(seconds * w.traced_ops_per_s / w.batch))
    plain = Tally()
    w.begin(0)
    for _ in range(batches):
        run_batch(w, plain)
    verdict.add_pass(plain, w.pass_checks())

    OUT.mkdir(exist_ok=True)
    stem = OUT / ("spans-%s-%d" % (w.name, w.seed))
    tracer = tracing.Tracer()
    w.trace(True)
    tracer.install()
    traced = Tally()
    try:
        w.begin(0)
        for _ in range(batches):
            run_batch(w, traced, tracer)
    finally:
        tracer.uninstall()
        remote = w.trace(False, stem.with_name(stem.name + "-server.npz"))
    verdict.add_pass(traced, w.pass_checks())
    verdict.add_check("traced pass reproduces the untraced pass",
                      traced.digest.digest() == plain.digest.digest())
    tracer.save_spans(stem.with_name(stem.name + "-client.npz"))

    snap = tracer.snapshot()
    extra = {"trace.overhead_s": traced.wall_s - plain.wall_s,
             "wire.client_cpu_s": 0.0, "wire.server_cpu_s": 0.0,
             "wire.wait_s": 0.0}
    if remote is not None:
        snap = tracing.merge(snap, remote["trace"])
        extra.update({"wire.client_cpu_s": traced.cpu_s,
                      "wire.server_cpu_s": remote["cpu_s"],
                      "wire.wait_s": traced.wall_s - traced.cpu_s})
    return layer_metrics(snap, extra)


def run(name: str, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES) -> dict:
    """One run of one workload; returns the result object.

    `probes` is lowered only by the tests, to keep tiny runs short."""
    from workloads import WORKLOADS

    verdict = Verdict()
    if not trace:
        setup_s = statistics.median(probe_setup(name, seed)
                                    for _ in range(probes))
    w = WORKLOADS[name](seed)
    w.setup()
    try:
        if trace:
            metrics = traced_run(w, seconds, verdict)
        else:
            rate = timed_run(w, seconds, verdict)
    finally:
        other_rss_kb = w.close()
    if not trace:
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"ops_per_s": rate, "setup_s": setup_s,
                  "peak_rss_mb": (own_rss_kb + other_rss_kb) / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": verdict.correct, "attempted": verdict.attempted,
            "failed": verdict.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ospsim" / "__init__.py").is_file():
        print("error: %s holds no src/ospsim; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
