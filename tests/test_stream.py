"""Pin the seeded random stream of the dense engine's main users.

One sha256 covers seeded energy-game rounds, direct and delegated, plus
the in-process OT and quantumness-test transcripts.  Those runs measure
dense states in every basis the protocols use and run the switched-CNOT
gadget, which drops measured wires, and the phase gadget, which draws
its uniform readout without one.  A change that alters an outcome, or the
count or order of random draws, changes the digest.
"""

import hashlib

import numpy as np

from ospsim import cvqc, harness

PINNED = "3975d82b36d7a7401031a174573c1a986c4e567f39fe5e449d2f85bc7acfefb9"

_PAIR = "QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n"
_CHAIN = "QUBITS 3\nX 0 1 0.25\nX 1 2 0.25\nZ 0 1 0.25\nZ 1 2 0.25\n"


def _stream_digest() -> str:
    digest = hashlib.sha256()
    for text, delegated, rounds in ((_PAIR, False, 400), (_CHAIN, False, 200),
                                    (_PAIR, True, 30)):
        ham = cvqc.parse_hamiltonian(text)
        alpha = cvqc.min_eigenvalue(ham)
        params = cvqc.GameParams(0.2, alpha, alpha + 1.0)
        base = cvqc.prepared_state(ham)
        rng = np.random.default_rng([ham.num_qubits, int(delegated)])
        for _ in range(rounds):
            question, answers, accept = cvqc.honest_round(
                ham, params, rng, delegated=delegated, base=base)
            digest.update(repr((question, answers, accept)).encode())
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
