"""Pin the seeded random stream of the dense engine's main users.

One sha256 covers seeded energy-game rounds, direct and delegated, plus
the in-process OT and quantumness-test transcripts.  Those runs measure
dense states in every basis the protocols use and run the switched-CNOT
and phase gadgets, which draw their uniform helper readouts without
putting the helpers on the state.  A change that alters an outcome, or
the count or order of random draws, changes the digest.  A second
sha256 pins what the switched-CNOT gadget feeds: public-key ciphertexts,
claw states and OT results.  A third sha256 pins the two-round
quantumness test: rounds against the honest and the scripted provers,
rewinding, family-backed puzzles and two-round preparations.  A count
pins how many dense gate applies the delegated rounds make: the
delegation pass applies one operator per run of gates on at most three
dense wires, not one per gate.
"""

import hashlib

import numpy as np

from ospsim import apps, cvqc, gadgets, harness, osp, qsim

PINNED = "7bd382528977b8a049972d6af8236ff398b4bb08a261fc0f90c1827c09c1c09c"
APPLY_GATE_PINNED = 93
POQ_PINNED = "999b3322cca2247bfedc9ae4e5716f4798a9ed06977734505ba84b74409fd7c8"
GADGET_PINNED = "e7cb8cbd3236658aef18f974996d492397c469d3e552037811c582448137ad59"

_PAIR = "QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n"
_CHAIN = "QUBITS 3\nX 0 1 0.25\nX 1 2 0.25\nZ 0 1 0.25\nZ 1 2 0.25\n"


def _energy_rounds(text, delegated, rounds):
    """Seeded honest energy-game rounds as (question, answers, accept)."""
    ham = cvqc.parse_hamiltonian(text)
    alpha = cvqc.min_eigenvalue(ham)
    params = cvqc.GameParams(0.2, alpha, alpha + 1.0)
    base = cvqc.prepared_state(ham)
    rng = np.random.default_rng([ham.num_qubits, int(delegated)])
    for _ in range(rounds):
        yield cvqc.honest_round(ham, params, rng, delegated=delegated,
                                base=base)


def _stream_digest() -> str:
    digest = hashlib.sha256()
    for text, delegated, rounds in ((_PAIR, False, 400), (_CHAIN, False, 200),
                                    (_PAIR, True, 30)):
        for played in _energy_rounds(text, delegated, rounds):
            digest.update(repr(played).encode())
    for protocol, config in (
            ("poq", {"rounds": 6}),
            ("ot", {"lam": 4, "b": 1, "variant": "search"}),
            ("ot", {"lam": 4, "b": 0, "variant": "indistinguishability"})):
        for seed in (3, 4):
            transcripts = harness.run_local(protocol, seed, config)
            for role in sorted(transcripts):
                digest.update(transcripts[role].to_bytes())
    return digest.hexdigest()


def test_seeded_stream_matches_the_pinned_digest():
    assert _stream_digest() == PINNED


def test_delegated_rounds_make_the_pinned_number_of_dense_applies(monkeypatch):
    """The 30 delegated rounds above, with the prepared base state, make
    about three dense applies a round: one per fused run of gates."""
    calls = []
    apply_gate = qsim.apply_gate

    def counting_apply_gate(*args):
        calls.append(args[1])
        return apply_gate(*args)

    monkeypatch.setattr(qsim, "apply_gate", counting_apply_gate)
    for _ in _energy_rounds(_PAIR, True, 30):
        pass
    assert len(calls) == APPLY_GATE_PINNED


def _gadget_digest() -> str:
    """Seeded outputs of everything the switched-CNOT gadget feeds:
    public-key ciphertexts, claw states and both OT variants."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(71)
    for i in range(200):
        ct = apps.pke_roundtrip(i & 1, rng)["ct"]
        digest.update(repr((ct["report"], ct["branch"], ct["masked"])).encode())
    rng = np.random.default_rng(72)
    for _ in range(100):
        out = gadgets.csg_from_ecnot(3, rng)
        digest.update(repr((out.x0, out.x1, out.z,
                            apps.descriptor_to_json(out.receiver_state)))
                      .encode())
    rng = np.random.default_rng(73)
    for variant in ("search", "indistinguishability"):
        for b in (0, 1):
            for _ in range(10):
                recv_rng = np.random.default_rng(int(rng.integers(0, 1 << 63)))
                send_rng = np.random.default_rng(int(rng.integers(0, 1 << 63)))
                receiver = apps.OtReceiverParty(b, 4, variant, recv_rng)
                sender = apps.OtSenderParty(4, variant, send_rng)
                harness._drive(receiver, sender, "gadget-digest")
                digest.update(repr((receiver.result["value"],
                                    sender.result["r0"], sender.result["r1"],
                                    sender.result["caught"],
                                    sender.per_index)).encode())
    return digest.hexdigest()


def test_switched_cnot_stream_matches_the_pinned_digest():
    assert _gadget_digest() == GADGET_PINNED


def _poq_digest() -> str:
    """Seeded outputs of the two-round quantumness test and its neighbours:
    rounds against the honest prover and every scripted rule, rewinding,
    puzzle roundtrips backed by the family, and two-round preparations.
    Each block ends with the caller's next draw, so a changed draw count
    shows too."""
    digest = hashlib.sha256()

    def close(rng):
        digest.update(repr(rng.random()).encode())

    rng = np.random.default_rng(81)
    for prover in (None, ("branch",), ("zero",), ("uniform",), ("perfect",),
                   ("accuracy", 0.9, 0.7)):
        for _ in range(150):
            played = apps.poq_run(rng, prover and apps.ScriptedProver(*prover))
            digest.update(repr(played).encode())
        close(rng)
    rng = np.random.default_rng(82)
    for prover in (("branch",), ("uniform",), ("perfect",),
                   ("accuracy", 0.8, 0.6)):
        for _ in range(100):
            res = apps.rewind_extract(apps.ScriptedProver(*prover), rng)
            digest.update(repr(res).encode())
        close(rng)
    rng = np.random.default_rng(83)
    for challenge in (0, 1):
        for n in (2, 3):
            out = apps.puzzle_roundtrip(24, 0.6, challenge, rng, "tcf", n)
            digest.update(repr((out["keys"].r, out["obligation"].reports,
                                out["answers"].tolist(), out["verdict"],
                                out["fraction"])).encode())
        close(rng)
    rng = np.random.default_rng(84)
    for b in (0, 1):
        for n in (2, 4):
            for _ in range(40):
                out = osp.two_round_osp(b, rng, n)
                digest.update(repr((out.b, out.s, out.aborted,
                                    apps.descriptor_to_json(out.receiver_state),
                                    out.transcript)).encode())
        close(rng)
    return digest.hexdigest()


def test_quantumness_test_stream_matches_the_pinned_digest():
    assert _poq_digest() == POQ_PINNED
