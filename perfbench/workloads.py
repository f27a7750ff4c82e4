"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Its inputs come from numpy generators
seeded with (seed, workload, stream), so one seed gives one input sequence;
the program only ever sees those generators and the session seeds drawn
from them.

A workload object is driven by run.py:

  setup()            everything before the first timed operation
  begin(stream)      start a pass over the input stream with that number
  run_op()           one operation (a round or a session), timed
  check_batch(outs)  per-operation checks after a batch, clock stopped;
                     returns how many operations failed them
  pass_checks()      checks over the whole pass: [(name, ok, detail)]
  digest(out)        bytes identifying an operation's result, so a traced
                     pass can be compared with an untraced one
  trace(on, spans)   switch tracing in the workload's other processes
  close()            stop anything setup() started; returns extra peak
                     RSS in KiB held by other processes
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

from ospsim import apps, cvqc, harness

import checks

HERE = Path(__file__).resolve().parent

KAPPA = 0.2
POQ_N = 3
OT_LAMBDA = 8
WIRE_POQ_ROUNDS = 200  # a tenth of `ospsim poq --connect`; see README
WIRE_TIMEOUT_S = 20.0

# (axis, i, j, weight) terms.  XX_ZZ is criterion 12's Hamiltonian; CHAIN
# is the largest whose delegated rounds run at present (see CHANGES.md).
XX_ZZ = (2, (("X", 0, 1, 0.5), ("Z", 0, 1, 0.5)))
CHAIN = (3, (("X", 0, 1, 0.25), ("X", 1, 2, 0.25),
             ("Z", 0, 1, 0.25), ("Z", 1, 2, 0.25)))

FAILED = object()  # stands for an operation that raised


class Workload:
    name = ""
    batch = 1  # operations timed together; a multiple of any input cycle
    traced_ops_per_s = 1.0  # traced-run operations per second of --seconds
    # Report the fastest batch's rate instead of operations over total
    # batch time.  Only for workloads whose batches all do the same work
    # and whose speed on a shared host flips between a fast and a slow
    # mode within a run; see README, "Throughput".
    best_batch = False

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, index: int) -> np.random.Generator:
        tag = zlib.crc32(self.name.encode())
        return np.random.default_rng([self.seed, tag, index])

    def setup(self):
        pass

    def begin(self, index: int):
        raise NotImplementedError

    def run_op(self):
        raise NotImplementedError

    def check_batch(self, outs) -> int:
        return 0

    def pass_checks(self):
        return []

    def digest(self, out) -> bytes:
        return repr(out).encode()

    def trace(self, on: bool, spans=None):
        """Switch tracing in other processes; off returns their totals."""
        return None

    def close(self) -> int:
        return 0


# ------------------------------------------------------------------- poq


class Poq(Workload):
    """Honest quantumness-test rounds, `apps.poq_run` at n = 3."""

    name = "poq"
    batch = 200
    traced_ops_per_s = 1600.0
    best_batch = True

    def begin(self, index):
        self.rng = self.stream(index)
        self.rounds = self.accepted = 0

    def run_op(self):
        return apps.poq_run(self.rng, n=POQ_N)

    def check_batch(self, outs):
        bad = 0
        for rnd in outs:
            if rnd is FAILED:
                continue
            self.rounds += 1
            self.accepted += bool(rnd.accept)
            bad += not checks.poq_round_ok(rnd)
        return bad

    def pass_checks(self):
        ok = checks.rate_within(self.accepted, self.rounds, checks.HONEST_POQ)
        return [("poq rate near cos^2(pi/8)", ok,
                 "%d/%d" % (self.accepted, self.rounds))]


# ------------------------------------------------------------------ cvqc


class _Cvqc(Workload):
    hamiltonian = XX_ZZ
    delegated = False

    def setup(self):
        num_qubits, terms = self.hamiltonian
        self.ham = cvqc.Hamiltonian(num_qubits, terms)
        self.alpha = checks.ground_energy(num_qubits, terms)
        self.params = cvqc.GameParams(KAPPA, self.alpha, self.alpha + 1.0)
        self.expected = checks.energy_game_rate(KAPPA, self.alpha)
        self.base = cvqc.prepared_state(self.ham)
        if self.delegated:
            # Build the circuit of every question kind before timing, from
            # one fixed stream so that every seed does the same set-up work.
            rng = np.random.default_rng(0)
            seen = set()
            while len(seen) < 3:
                question, _, _ = cvqc.honest_round(
                    self.ham, self.params, rng, delegated=True, base=self.base)
                seen.add(question.kind)

    def begin(self, index):
        self.rng = self.stream(index)
        self.rounds = self.accepted = 0

    def run_op(self):
        question, answers, accept = cvqc.honest_round(
            self.ham, self.params, self.rng, delegated=self.delegated,
            base=self.base)
        return question.kind, answers, bool(accept)

    def check_batch(self, outs):
        for out in outs:
            if out is not FAILED:
                self.rounds += 1
                self.accepted += out[2]
        return 0

    def pass_checks(self):
        ok = checks.rate_within(self.accepted, self.rounds, self.expected)
        return [("%s rate near %.5f (alpha %.5f)"
                 % (self.name, self.expected, self.alpha), ok,
                 "%d/%d" % (self.accepted, self.rounds))]


class CvqcDirect(_Cvqc):
    """Energy-game rounds on (XX+ZZ)/2 with direct measurements."""

    name = "cvqc-direct"
    batch = 100
    traced_ops_per_s = 1000.0
    best_batch = True


class CvqcDelegated(_Cvqc):
    """Energy-game rounds on (XX+ZZ)/2 with delegated measurements."""

    name = "cvqc-delegated"
    delegated = True
    batch = 5
    traced_ops_per_s = 25.0


class CvqcChain(_Cvqc):
    """Delegated energy-game rounds on the 3-qubit chain."""

    name = "cvqc-chain"
    hamiltonian = CHAIN
    delegated = True
    batch = 2
    traced_ops_per_s = 8.0


# ------------------------------------------------------------------ wire


class WireServer:
    """The one server process a wire run talks to, over pipes and TCP."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "wire_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self.read()["port"]
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ConnectionError("wire server exited")
        return json.loads(line)

    def stop(self) -> int:
        """Stop the server; returns its peak RSS in KiB (0 if it died)."""
        try:
            self.send({"cmd": "stop"})
            peak = self.read()["maxrss_kb"]
        except (OSError, ConnectionError, ValueError, KeyError):
            peak = 0
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WIRE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return peak


class _Wire(Workload):
    protocol = ""

    def setup(self):
        # Both ends share one CPU.  Spread over the two CPUs of a 2-vCPU VM,
        # each turn waited for the peer's CPU to wake: a 25-round session
        # took 29-66 ms (medians of 30-session windows), against a steady
        # 18-27 ms on one CPU.  The server inherits the affinity.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        try:
            self.server = WireServer()
        except BaseException:
            os.sched_setaffinity(0, self.affinity)
            raise

    def session_config(self, index: int) -> dict:
        raise NotImplementedError

    def begin(self, index):
        self.rng = self.stream(index)
        self.sessions = 0
        self.sent = []

    def run_op(self):
        config = self.session_config(self.sessions)
        seed = int(self.rng.integers(0, 1 << 63))
        self.sent.append((seed, config))
        self.server.send({"cmd": "session", "protocol": self.protocol,
                          "seed": seed, "config": config, "op": self.sessions,
                          "timeout": WIRE_TIMEOUT_S})
        self.sessions += 1
        return harness.connect_and_run(self.protocol, seed, "127.0.0.1",
                                       self.server.port, config,
                                       timeout=WIRE_TIMEOUT_S)

    def check_batch(self, outs):
        """Compare both ends with each other and with `harness.run_local`."""
        bad = 0
        sent, self.sent = self.sent, []
        for (seed, config), client in zip(sent, outs):
            try:
                server = self.server.read()
            except ConnectionError:  # the server died; count, do not crash
                bad += client is not FAILED
                continue
            if client is FAILED:
                continue
            local = harness.run_local(self.protocol, seed, config)
            sha = checks.sha256_hex
            ok = (client.outcome["status"] == "complete"
                  and server["status"] == "complete"
                  and sha(client.message_bytes()) == server["messages"]
                  and client.to_bytes() == local["client"].to_bytes()
                  and server["transcript"] == sha(local["server"].to_bytes())
                  and self.check_result(client.outcome["result"],
                                        server["result"]))
            bad += not ok
        return bad

    def check_result(self, client: dict, server: dict) -> bool:
        return True

    def digest(self, out):
        return out.to_bytes()

    def trace(self, on: bool, spans=None):
        self.server.send({"cmd": "trace", "on": on, "spans": str(spans)})
        return self.server.read()

    def close(self):
        peak = self.server.stop()
        os.sched_setaffinity(0, self.affinity)
        return peak


class WirePoq(_Wire):
    """Honest poq sessions over loopback TCP."""

    name = "wire-poq"
    protocol = "poq"
    batch = 1
    traced_ops_per_s = 1.5

    def begin(self, index):
        super().begin(index)
        self.rounds = self.accepted = 0

    def session_config(self, index):
        return {"rounds": WIRE_POQ_ROUNDS, "n": POQ_N}

    def check_result(self, client, server):
        self.rounds += client["rounds"]
        self.accepted += client["accepted"]
        return (client["rounds"] == WIRE_POQ_ROUNDS
                and server["rounds"] == WIRE_POQ_ROUNDS)

    def pass_checks(self):
        ok = checks.rate_within(self.accepted, self.rounds, checks.HONEST_POQ)
        return [("pooled wire poq rate near cos^2(pi/8)", ok,
                 "%d/%d" % (self.accepted, self.rounds))]


class WireOt(_Wire):
    """OT sessions at lambda = 8 over loopback TCP, cycling through both
    variants and both choice bits."""

    name = "wire-ot"
    protocol = "ot"
    batch = 4
    traced_ops_per_s = 24.0

    def session_config(self, index):
        variant = ("search", "indistinguishability")[index % 2]
        return {"lam": OT_LAMBDA, "variant": variant, "b": (index // 2) % 2}

    def check_result(self, client, server):
        return checks.ot_value_ok(client, server)


WORKLOADS = {cls.name: cls for cls in
             (Poq, CvqcDirect, CvqcDelegated, CvqcChain, WirePoq, WireOt)}
