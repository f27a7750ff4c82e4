"""Protocols built on top of oblivious preparation.

The pieces here stay at desk scale but run the real message flows:

- an interactive quantumness test (honest quantum prover vs scripted
  classical ones), with the rewinding extractor that recovers the hidden
  basis bit from any good classical prover
- non-interactive one-of-two puzzles with two verification profiles
- a weakly binding bit commitment plus an exhaustive binding probe
- one-out-of-two oblivious transfer in both variants, with cut-and-choose
  checking of the claw states
- a public-key bit encryption scheme riding on the switchable-CNOT gadget

Message-passing protocols (the quantumness test and oblivious transfer)
are written as party objects with an ``on_message`` method; this module
holds no driver for them.  harness.run_local runs a session in process
and the socket drivers run it over TCP, with the same seeds and the same
transcript.  poq_run stays a direct loop for speed, so each rule of the
quantumness test (the family draw, decode-or-refuse, the accepted answer
s xor r*a and the honest X+Z/X-Z readout) lives in one private helper
that it, the extractor, the puzzles and the parties share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import gadgets, gf2, osp, qsim, tcf


# --------------------------------------------------------------- utilities


def descriptor_to_json(d: qsim.TwoBranchState) -> dict:
    return {
        "width": d.width,
        "u": gf2.bits_to_text(d.u),
        "v": gf2.bits_to_text(d.v),
        "phase": qsim.phase_index(d.phase),
    }


def descriptor_from_json(obj) -> qsim.TwoBranchState:
    return qsim.TwoBranchState(
        int(obj["width"]),
        gf2.text_to_bits(obj["u"]),
        gf2.text_to_bits(obj["v"]),
        qsim.PHASE_GRID[int(obj["phase"]) % 8],
    )


def _expect(party, msg):
    """Refuse, before any draw, a message the party does not expect next;
    else move the party on to the kinds that may follow this one."""
    if msg["kind"] not in party.expected:
        raise ValueError("unexpected message kind %r" % msg["kind"])
    party.expected = party.FOLLOWS[msg["kind"]]


def _wire_params(pp) -> dict:
    """Public function parameters plus the full table, json-ready."""
    payload = pp.serialize()
    payload["table"] = [list(row) for row in pp.table]
    return payload


def _params_from_wire(payload) -> tcf.TcfPublic:
    """The dual family a round-params payload describes.  The peer's n sizes
    the prover's work, so a malformed payload raises ValueError first.  A
    row must hold 2^n distinct m-bit values, as every family's rows do, so
    an image has at most one preimage per branch."""
    mode, n, m = payload["mode"], int(payload["n"]), int(payload["m"])
    if (mode not in ("disjoint", "lossy") or not 1 <= n <= tcf.MAX_N
            or m != n + 2):
        raise ValueError("round-params need a dual family, 1 <= n <= %d, "
                         "m = n + 2" % tcf.MAX_N)
    table = tuple(tuple(row) for row in payload["table"])
    if len(table) != 2 or any(len(row) != 1 << n or any(type(v) is not int for v in row)
                              for row in table):
        raise ValueError("round-params table must be two rows of 2^n ints")
    if any(min(row) < 0 or max(row) >= 1 << m or len(set(row)) != len(row)
           for row in table):
        raise ValueError("round-params rows must hold distinct values in [0, 2^m)")
    return tcf.TcfPublic(n=n, m=m, mode=mode, k=int(payload["k"]), table=table)


# ---------------------------------------------------------- quantumness test


def _decode(sp, r: int, y, d) -> int:
    """The round's target bit s; a y outside the family is refused."""
    s = osp.two_round_decode(sp, r, y, d)
    if s is None:  # honest and classical evaluations always decode
        raise ValueError("y is not an image of the round's family")
    return s


def _accepted(s, r, a):
    """The answer accepted at question a; also elementwise on arrays."""
    return s ^ (r & a)


def _honest_answer(kept, a: int, rng) -> int:
    """Measure the kept qubit in the X+Z (a = 0) or X-Z (a = 1) basis."""
    basis = qsim.Basis.XPLUSZ if a == 0 else qsim.Basis.XMINUSZ
    return qsim.measure_descriptor(kept, basis, rng)


@dataclass
class PoqRound:
    """One round of the quantumness test, with the verifier's private view."""

    r: int
    s: int
    challenge: int
    answer: int
    accept: bool


class ScriptedProver:
    """Classical prover stand-ins for the quantumness test.

    rule "branch"   answers the branch bit it committed to (the optimal
                    classical strategy, acceptance 3/4)
    rule "zero"     answers 0 regardless
    rule "uniform"  answers a fresh coin per question
    rule "perfect"  answers s xor r*a
    rule "accuracy" answers correctly with probability p0 (at a=0) or p1
                    (at a=1)

    The last two model provers of a given quality so the extractor bound
    can be exercised.  The verifier hands every prover the round secrets
    (s, r) after decoding, which stands in for a prover that happens to
    know the right answers; the other rules ignore them.
    """

    def __init__(self, rule: str, p0: float = 1.0, p1: float = 1.0):
        if rule not in ("branch", "zero", "uniform", "perfect", "accuracy"):
            raise ValueError("unknown prover rule %r" % rule)
        self.rule = rule
        self.p0 = float(p0)
        self.p1 = float(p1)
        self.branch = None
        self.secrets = None

    def obligate(self, pp, rng):
        """Classical evaluation: pick one input, report its image."""
        self.branch = int(rng.integers(0, 2))
        x = tuple(int(t) for t in rng.integers(0, 2, pp.n))
        y = tcf.eval(pp, self.branch, x)
        d = tuple(int(t) for t in rng.integers(0, 2, pp.n))
        return y, d

    def receive_secrets(self, s: int, r: int):
        self.secrets = (s, r)

    def answer(self, a: int, rng) -> int:
        if self.rule == "zero":
            return 0
        if self.rule == "uniform":
            return int(rng.integers(0, 2))
        if self.rule == "branch":
            return self.branch
        correct = _accepted(*self.secrets, a)
        if self.rule == "perfect":
            return correct
        p = self.p0 if a == 0 else self.p1
        return correct if rng.random() < p else correct ^ 1


def poq_run(rng, prover=None, n: int = 3) -> PoqRound:
    """One round: hidden basis r, two-round preparation, one question.

    With prover None the honest quantum prover plays: it keeps the branch
    qubit and measures it in the diagonal basis picked by the question.
    Accepts iff the answer equals s xor r*a.
    """
    r = int(rng.integers(0, 2))
    pp, sp = osp._dual_family(r, n, rng)
    if prover is None:
        y, d, residual = osp.two_round_receiver(pp, rng)
    else:
        y, d = prover.obligate(pp, rng)
    s = _decode(sp, r, y, d)
    a = int(rng.integers(0, 2))
    if prover is None:
        b = _honest_answer(residual, a, rng)
    else:
        prover.receive_secrets(s, r)
        b = prover.answer(a, rng)
    return PoqRound(r, s, a, b, b == _accepted(s, r, a))


def poq_rate(trials: int, rng, prover_factory=None, n: int = 3):
    """Acceptance rate over independent rounds; factory may be None (honest)."""
    hits = 0
    for _ in range(trials):
        prover = prover_factory() if prover_factory is not None else None
        hits += poq_run(rng, prover, n).accept
    return hits / trials


@dataclass
class RewindResult:
    guess: int
    truth: int
    b0: int
    b1: int
    s: int


def rewind_extract(prover, rng, n: int = 3) -> RewindResult:
    """Run one obligation, then query the prover at both questions.

    A classical prover's answer map a -> b(a) can be evaluated twice on
    the same committed state, and b(0) xor b(1) is the guess for the
    hidden basis bit.  A prover correct with probability p0 and p1 on the
    two questions yields a guess correct with probability >= p0 + p1 - 1.
    """
    r = int(rng.integers(0, 2))
    pp, sp = osp._dual_family(r, n, rng)
    s = _decode(sp, r, *prover.obligate(pp, rng))
    prover.receive_secrets(s, r)
    b0 = prover.answer(0, rng)
    b1 = prover.answer(1, rng)
    return RewindResult(b0 ^ b1, r, b0, b1, s)


# ----------------------------------------------------------- 1-of-2 puzzles


@dataclass(frozen=True)
class PuzzleKeys:
    """Verification-side material for a batch of puzzle instances."""

    lam: int
    r: int
    threshold: float
    source_kind: str
    publics: tuple = field(repr=False, default=None)
    secrets: tuple = field(repr=False, default=None)


@dataclass
class PuzzleObligation:
    lam: int
    source_kind: str
    reports: tuple = None      # per-index (y, d)
    descriptors: list = None   # kept qubits, consumed on solving
    s_bits: np.ndarray = None  # ideal source: the decoded targets
    r_hint: int = None         # ideal source only
    solved: bool = False


def puzzle_keygen(lam: int, rng, threshold: float = 0.85,
                  source: str = "tcf", n: int = 2) -> PuzzleKeys:
    """Sample the shared basis bit and one family instance per index."""
    r = int(rng.integers(0, 2))
    if source == "ideal":
        return PuzzleKeys(lam, r, float(threshold), "ideal")
    if source != "tcf":
        raise ValueError("source must be 'tcf' or 'ideal'")
    pps, sps = zip(*(osp._dual_family(r, n, rng) for _ in range(lam)))
    return PuzzleKeys(lam, r, float(threshold), "tcf", pps, sps)


def puzzle_obligate(keys: PuzzleKeys, rng) -> PuzzleObligation:
    """Receiver pass: evaluate every instance, keep the branch qubits."""
    if keys.source_kind == "ideal":
        s_bits = rng.integers(0, 2, keys.lam).astype(np.int64)
        return PuzzleObligation(keys.lam, "ideal", s_bits=s_bits,
                                r_hint=keys.r)
    reports, descriptors = [], []
    for pp in keys.publics:
        y, d, residual = osp.two_round_receiver(pp, rng)
        reports.append((y, d))
        descriptors.append(residual)
    return PuzzleObligation(keys.lam, "tcf", reports=tuple(reports),
                            descriptors=descriptors)


def puzzle_solve(obligation: PuzzleObligation, challenge: int, rng) -> np.ndarray:
    """Measure every kept qubit in the basis named by the challenge.

    The qubits are consumed; solving the same obligation twice raises.
    The ideal source samples the honest answer distribution directly
    (success cos^2(pi/8) per index, independent).
    """
    if obligation.solved:
        raise ValueError("obligation already consumed")
    obligation.solved = True
    if obligation.source_kind == "ideal":
        target = _accepted(obligation.s_bits, obligation.r_hint, challenge)
        flips = (rng.random(obligation.lam) >= qsim.COS2_PI_8).astype(np.int64)
        return target ^ flips
    answers = np.array([_honest_answer(kept, challenge, rng)
                        for kept in obligation.descriptors], dtype=np.int64)
    obligation.descriptors = None
    return answers


def puzzle_verify(keys: PuzzleKeys, obligation: PuzzleObligation,
                  answers, challenge: int):
    """Decode the targets and compare at the threshold.

    Returns (verdict, matching fraction); the fraction counts indices
    where the answer equals s_i xor r*challenge.
    """
    answers = np.asarray(answers, dtype=np.int64)
    if answers.shape != (keys.lam,):
        raise ValueError("answer vector has wrong length")
    if keys.source_kind == "ideal":
        s_bits = obligation.s_bits
    else:
        s_bits = np.array([_decode(sp, keys.r, y, d) for sp, (y, d)
                           in zip(keys.secrets, obligation.reports)])
    targets = _accepted(s_bits, keys.r, challenge)
    fraction = float(np.mean(answers == targets))
    return fraction >= keys.threshold, fraction


def puzzle_roundtrip(lam: int, threshold: float, challenge: int, rng,
                     source: str = "tcf", n: int = 2) -> dict:
    keys = puzzle_keygen(lam, rng, threshold, source, n)
    obligation = puzzle_obligate(keys, rng)
    answers = puzzle_solve(obligation, challenge, rng)
    verdict, fraction = puzzle_verify(keys, obligation, answers, challenge)
    return {"keys": keys, "obligation": obligation, "answers": answers,
            "verdict": verdict, "fraction": fraction}


# ------------------------------------------------------- weak bit commitment


@dataclass
class CommitResult:
    bit: int
    s_bits: tuple
    descriptors: list
    verdict: bool


def commit_run(bit: int, lam: int, rng, source: str = "ideal",
               n: int = 2) -> CommitResult:
    """Commit by handing over lam prepared qubits; open with (bit, s).

    The receiver verifies by measuring every qubit in the computational
    basis (bit 0) or the diagonal basis (bit 1) and comparing outcomes to
    the opened s-vector.
    """
    if bit not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    s_bits, descriptors = [], []
    for _ in range(lam):
        if source == "ideal":
            s, desc = osp.ideal_stub_source(bit, rng)
        else:
            out = osp.two_round_osp(bit, rng, n)
            s, desc = out.s, out.receiver_state
        s_bits.append(s)
        descriptors.append(desc)
    basis = qsim.Basis.Z if bit == 0 else qsim.Basis.X
    verdict = all(
        qsim.measure_descriptor(desc, basis, rng) == s
        for desc, s in zip(descriptors, s_bits)
    )
    return CommitResult(bit, tuple(s_bits), descriptors, verdict)


BINDING_PROBE_MAX_QUBITS = 16  # the probe scans 2^width amplitudes twice


def binding_probe(state) -> tuple:
    """Best opening probabilities of an arbitrary receiver-side state.

    pr0 scans amplitudes in the computational basis, pr1 after a Hadamard
    on every qubit; their sum is bounded by 1 + 2^-lam for any state.
    """
    dense = qsim.densify(state)
    if dense.num_qubits > BINDING_PROBE_MAX_QUBITS:
        raise ValueError("binding probe limited to %d qubits"
                         % BINDING_PROBE_MAX_QUBITS)
    pr0 = float(np.max(np.abs(dense.amplitudes) ** 2))
    rotated = dense
    for q in range(dense.num_qubits):
        rotated = qsim.apply_gate(rotated, "H", [q])
    pr1 = float(np.max(np.abs(rotated.amplitudes) ** 2))
    return pr0, pr1


# ------------------------------------------------------ toy commitment (OT)

_PRG_SEED_BITS = 12
_PRG_TAG_BYTES = 4


def _prg_stream(seed: int, nbytes: int) -> bytes:
    out = b""
    block = 0
    while len(out) < nbytes:
        out += hashlib.sha256(b"toy-prg:%d:%d" % (seed, block)).digest()
        block += 1
    return out[:nbytes]


def toy_commit(bits, rng):
    """Commit to a few bits under a 12-bit seed; returns (com, opening)."""
    bits = tuple(int(b) & 1 for b in bits)
    seed = int(rng.integers(0, 1 << _PRG_SEED_BITS))
    stream = _prg_stream(seed, _PRG_TAG_BYTES + len(bits))
    tag = stream[:_PRG_TAG_BYTES].hex()
    mask = stream[_PRG_TAG_BYTES:]
    masked = [b ^ (m & 1) for b, m in zip(bits, mask)]
    com = {"tag": tag, "masked": masked}
    return com, {"seed": seed, "bits": list(bits)}


def toy_verify(com, opening) -> bool:
    recomputed, _ = _open_with_seed(com, int(opening["seed"]))
    return recomputed is not None and recomputed == tuple(
        int(b) & 1 for b in opening["bits"]
    )


def _open_with_seed(com, seed):
    stream = _prg_stream(seed, _PRG_TAG_BYTES + len(com["masked"]))
    if stream[:_PRG_TAG_BYTES].hex() != com["tag"]:
        return None, seed
    mask = stream[_PRG_TAG_BYTES:]
    return tuple(m ^ (s & 1) for m, s in zip(com["masked"], mask)), seed


# ------------------------------------------------- 1-of-2 oblivious transfer


def _transfer_output(variant: str, bits):
    """A transferred value: the bits themselves, or in the
    indistinguishability variant their XOR."""
    if variant == "indistinguishability":
        return sum(bits) & 1
    return tuple(bits)


class OtReceiverParty:
    """Chooser side: builds the claw states and keeps the claw values.

    A cheating flavour ("zero-states") ships |00> everywhere with made-up
    claw declarations; the cut-and-choose checks catch it.
    """

    role = "client"
    # The kinds a party accepts next, and the kinds that may follow each.
    expected = ()
    FOLLOWS = {"check-set": ("outcome",), "outcome": ()}

    def __init__(self, b, lam: int, variant: str, rng, cheat: str = None):
        if variant not in ("search", "indistinguishability"):
            raise ValueError("unknown variant %r" % variant)
        if cheat not in (None, "zero-states"):
            raise ValueError("unknown cheat flavour %r" % cheat)
        if cheat is None and b not in (0, 1):
            raise ValueError("choice bit must be 0 or 1")
        self.b = b
        self.lam = lam
        self.variant = variant
        self.rng = rng
        self.cheat = cheat
        self.claws = []
        self.states = []
        self.openings = []
        self.unchecked = None
        self.result = None

    def _build_instances(self):
        for _ in range(2 * self.lam):
            if self.cheat == "zero-states":
                x0 = int(self.rng.integers(0, 2))
                claw = (x0, x0 ^ 1, int(self.rng.integers(0, 2)))
                state = qsim.basis_descriptor((0, 0))
            else:
                out = gadgets.csg_from_ecnot(1, self.rng)
                claw = (out.x0[0], out.x1[0], out.z)
                state = out.receiver_state
            self.claws.append(claw)
            self.states.append(state)

    def on_message(self, msg):
        if msg is None:
            self._build_instances()
            instances = []
            for claw, state in zip(self.claws, self.states):
                entry = {"state": descriptor_to_json(state)}
                if self.variant == "indistinguishability":
                    com, opening = toy_commit(claw, self.rng)
                    entry["com"] = com
                    self.openings.append(opening)
                instances.append(entry)
            self.expected = ("check-set",)
            return [{"kind": "obligations",
                     "payload": {"lam": self.lam, "variant": self.variant,
                                 "instances": instances}}]
        _expect(self, msg)
        if msg["kind"] == "check-set":
            check = sorted(int(i) for i in msg["payload"]["T"])
            picked = set(check)
            # An index both opened and revealed would give b = b_i ^ x0 ^ x1.
            if (len(check) != self.lam or len(picked) != self.lam
                    or not all(0 <= i < 2 * self.lam for i in check)):
                raise ValueError("check set must be %d distinct indices in "
                                 "[0, %d)" % (self.lam, 2 * self.lam))
            checked = []
            for i in check:
                x0, x1, z = self.claws[i]
                entry = {"i": i, "x0": x0, "x1": x1, "z": z}
                if self.variant == "indistinguishability":
                    entry["opening"] = self.openings[i]
                checked.append(entry)
            self.unchecked = [i for i in range(2 * self.lam) if i not in picked]
            reveal = []
            for i in self.unchecked:
                x0, x1, z = self.claws[i]
                if self.cheat is None:
                    b_i = self.b ^ x0 ^ x1
                else:
                    b_i = int(self.rng.integers(0, 2))
                reveal.append({"i": i, "b": b_i})
            return [{"kind": "openings",
                     "payload": {"checked": checked, "unchecked": reveal}}]
        if msg["kind"] == "outcome":
            value = None
            if self.cheat is None:
                bits = [self.claws[i][0] for i in self.unchecked]
                value = _transfer_output(self.variant, bits)
            self.result = {"b": self.b, "value": value,
                           "caught": bool(msg["payload"]["caught"])}
            return []


class OtSenderParty:
    """Checker side: samples the check set, projects, measures the rest."""

    role = "server"
    expected = ("obligations",)
    FOLLOWS = {"obligations": ("openings",), "openings": ()}

    def __init__(self, lam: int, variant: str, rng):
        self.lam = lam
        self.variant = variant
        self.rng = rng
        self.states = None
        self.coms = None
        self.check_set = None
        self.per_index = []
        self.result = None

    def on_message(self, msg):
        _expect(self, msg)
        if msg["kind"] == "obligations":
            payload = msg["payload"]
            if payload["variant"] != self.variant or payload["lam"] != self.lam:
                raise ValueError("obligation header mismatch")
            instances = payload["instances"]
            if len(instances) != 2 * self.lam:
                raise ValueError("expected %d instances, got %d"
                                 % (2 * self.lam, len(instances)))
            self.states = [descriptor_from_json(e["state"]) for e in instances]
            if any(state.width != 2 for state in self.states):
                raise ValueError("every instance state must have width 2")
            self.coms = [e.get("com") for e in instances]
            picked = self.rng.permutation(2 * self.lam)[: self.lam]
            self.check_set = tuple(sorted(int(i) for i in picked))
            return [{"kind": "check-set", "payload": {"T": list(self.check_set)}}]
        if msg["kind"] == "openings":
            checked = msg["payload"]["checked"]
            unchecked = msg["payload"]["unchecked"]
            rest = [i for i in range(2 * self.lam) if i not in self.check_set]
            # Open exactly the check set, reveal b_i once for every other i.
            caught = (sorted(int(e["i"]) for e in checked) != list(self.check_set)
                      or sorted(int(e["i"]) for e in unchecked) != rest)
            if caught:
                checked = unchecked = []
            for entry in checked:
                i = int(entry["i"])
                declared = qsim.TwoBranchState(
                    2,
                    (0, int(entry["x0"])),
                    (1, int(entry["x1"])),
                    -1 if int(entry["z"]) else 1,
                )
                if self.variant == "indistinguishability":
                    opening = entry.get("opening")
                    bits = (int(entry["x0"]), int(entry["x1"]), int(entry["z"]))
                    if (opening is None or not toy_verify(self.coms[i], opening)
                            or tuple(opening["bits"]) != bits):
                        caught = True
                        continue
                overlap = qsim.fidelity(self.states[i], declared)
                if not self.rng.random() < overlap:
                    caught = True
            r0_bits, r1_bits = [], []
            for entry in unchecked:
                i = int(entry["i"])
                b_i = int(entry["b"])
                state = self.states[i]
                if state.is_basis:
                    c, y = state.u
                else:
                    pick = int(self.rng.integers(0, 2))
                    c, y = state.u if pick == 0 else state.v
                self.per_index.append({"i": i, "b_i": b_i, "c": c, "y": y})
                r0_bits.append(y ^ (b_i & c))
                r1_bits.append(y ^ ((1 ^ b_i) & c))
            if caught:
                r0_bits = [int(t) for t in self.rng.integers(0, 2, self.lam)]
                r1_bits = [int(t) for t in self.rng.integers(0, 2, self.lam)]
            self.result = {"caught": caught,
                           "r0": _transfer_output(self.variant, r0_bits),
                           "r1": _transfer_output(self.variant, r1_bits)}
            return [{"kind": "outcome", "payload": {"caught": caught}}]


# ------------------------------------------------ quantumness-test parties


class PoqVerifierParty:
    """Drives a fixed number of test rounds and scores them."""

    role = "client"
    expected = ()
    FOLLOWS = {"evaluation": ("answer",), "answer": ()}

    def __init__(self, rounds: int, rng, n: int = 3):
        self.rounds = rounds
        self.rng = rng
        self.n = n
        self.index = 0
        self.accepted = 0
        self.current = None  # (r, sp, s)
        self.result = None

    def _round_params(self):
        r = int(self.rng.integers(0, 2))
        pp, sp = osp._dual_family(r, self.n, self.rng)
        self.current = {"r": r, "sp": sp, "s": None, "a": None}
        self.expected = ("evaluation",)
        payload = _wire_params(pp)
        payload["round"] = self.index
        return {"kind": "round-params", "payload": payload}

    def on_message(self, msg):
        if msg is None:
            return [self._round_params()]
        _expect(self, msg)
        if msg["kind"] == "evaluation":
            y = gf2.text_to_bits(msg["payload"]["y"])
            d = gf2.text_to_bits(msg["payload"]["d"])
            cur = self.current
            cur["s"] = _decode(cur["sp"], cur["r"], y, d)
            cur["a"] = int(self.rng.integers(0, 2))
            return [{"kind": "challenge",
                     "payload": {"round": self.index, "a": cur["a"]}}]
        if msg["kind"] == "answer":
            r = msg["payload"]["round"]
            if type(r) is not int or r != self.index:
                raise ValueError("answer for round %r, not %d" % (r, self.index))
            cur = self.current
            b = int(msg["payload"]["b"])
            accept = b == _accepted(cur["s"], cur["r"], cur["a"])
            self.accepted += accept
            verdict = {"kind": "verdict",
                       "payload": {"round": self.index, "accept": bool(accept)}}
            self.index += 1
            if self.index < self.rounds:
                return [verdict, self._round_params()]
            self.result = {"rounds": self.rounds, "accepted": self.accepted,
                           "rate": self.accepted / self.rounds}
            return [verdict]


class PoqProverParty:
    """Honest quantum prover: evaluates, keeps the qubit, measures on cue.

    The prover cannot tell the last round from the others, so it counts
    as finished whenever its latest round has closed: result is set by
    each verdict and cleared by the next round-params.
    """

    role = "server"
    expected = ("round-params",)
    FOLLOWS = {"round-params": ("challenge",), "challenge": ("verdict",),
               "verdict": ("round-params",)}

    def __init__(self, rng):
        self.rng = rng
        self.residual = None
        self.rounds = 0
        self.result = None

    def on_message(self, msg):
        _expect(self, msg)
        if msg["kind"] == "round-params":
            self.result = None
            pp = _params_from_wire(msg["payload"])
            y, d, self.residual = osp.two_round_receiver(pp, self.rng)
            return [{"kind": "evaluation",
                     "payload": {"round": msg["payload"]["round"],
                                 "y": gf2.bits_to_text(y),
                                 "d": gf2.bits_to_text(d)}}]
        if msg["kind"] == "challenge":
            b = _honest_answer(self.residual, int(msg["payload"]["a"]),
                               self.rng)
            return [{"kind": "answer",
                     "payload": {"round": msg["payload"]["round"], "b": b}}]
        if msg["kind"] == "verdict":
            self.rounds += 1
            self.result = {"rounds": self.rounds}
            return []


# ---------------------------------------------------- public-key encryption


@dataclass(frozen=True)
class PkeKeys:
    """Key pair: the helper qubits are the public key, secrets stay home."""

    public: dict
    secret: gadgets.EcnotClient


def pke_keygen(rng) -> PkeKeys:
    client, helpers = gadgets.ecnot_gen(1, rng)
    pk = {"helpers": [descriptor_to_json(h) for h in helpers]}
    return PkeKeys(pk, client)


def pke_encrypt(pk: dict, message: int, rng) -> dict:
    """Run the switchable-CNOT server side on |+>|0>, then read out.

    The measured pair (branch, payload) sits on a fresh claw; the payload
    masks the message and the report lets the key holder recompute it.
    """
    if message not in (0, 1):
        raise ValueError("message must be a single bit")
    helpers = tuple(descriptor_from_json(h) for h in pk["helpers"])
    control = qsim.plane_descriptor(1).densify()
    target = qsim.basis_descriptor((0,)).densify()
    state = control.tensor(target)
    state, (m0, m1) = gadgets.ecnot_apply(state, 0, 1, helpers, rng)
    (c, y), _ = qsim.measure(state, [0, 1], qsim.Basis.Z, rng)
    return {"report": (m0, m1), "branch": int(c), "masked": message ^ int(y)}


def pke_decrypt(keys: PkeKeys, ct: dict) -> int:
    cl = keys.secret
    m0, m1 = ct["report"]
    x_keys, _ = gadgets.ecnot_dec(cl.b, cl.t0, cl.t1, m0, m1)
    x0 = x_keys[1]  # claw value on branch 0
    return ct["masked"] ^ (x0 if ct["branch"] == 0 else x0 ^ 1)


def pke_roundtrip(message: int, rng) -> dict:
    keys = pke_keygen(rng)
    ct = pke_encrypt(keys.public, message, rng)
    decrypted = pke_decrypt(keys, ct)
    return {"keys": keys, "ct": ct, "message": message, "decrypted": decrypted}
