"""Release checklist, one test per numbered criterion.

Every criterion must pass; a failure message carries the measured
numbers.  Criterion 12 takes alpha as the ground energy of the normalised
Hamiltonian sum w_l P_l, an eigenvalue in [-1, 1].

Each detail string must also match DETAIL_PINNED byte for byte once its
wall-clock "time=" field is removed.  The checklist draws from one fixed
seed, so a change that alters any outcome or the order of random draws
shows here; a change that alters the stream on purpose updates the table.
"""

import re

from ospsim import acceptance

DETAIL_PINNED = {
    1: "rate=0.85369 target=0.85355 |gap|=0.00014 (cap 60s)",
    2: "branch=0.7505 zero=0.4940 uniform=0.4963 (cap 0.76); rewind 100/100",
    3: ("all norms 1 within 1e-9; aborts: lossy=60/1000 amplified=66/1000 "
        "epsilon-starved=67/2000"),
    4: "chi-square p: b=0 0.7642, b=1 0.5093 (floor 0.001)",
    5: ("TVD=0.0130/0.0134/0.0053 (cap 0.02), worst residual fidelity "
        "2.22e-16, 42 support scans"),
    6: ("136 inputs per power: cnot fidelity >= 1.000000000000, "
        "phase >= 1.000000000000, key table consistent"),
    7: ("100 circuits, min fidelity 1.000000000; classical round exact; "
        "(cap 120s)"),
    8: ("lam=1024: 100/100 and 100/100 per challenge (floor 99); "
        "lam=65536: 20/20 both challenges (floor 19); measured pipeline ok"),
    9: "50 states: max pr0+pr1 = 0.062369, cap 1.003906",
    10: ("honest r_b: [500, 500, 500, 500] of 500 each; "
         "cheater caught 100/100 (floor 99)"),
    11: "2000/2000 roundtrips, branch counts [985, 1015], chi-square p=0.5023",
    12: ("direct=0.94100 benchmark=0.94142 (|gap|=0.00042 vs 0.01: ok); "
         "delegated=0.93490 (|gap|=0.00610 vs 0.01: ok)"),
    13: "poq byte-identical, ot byte-identical",
}


def _run(k):
    res = acceptance.CRITERIA[k - 1]()
    assert res.index == k
    assert res.passed, res.detail
    assert re.sub(r" time=[0-9.]+s", "", res.detail) == DETAIL_PINNED[k]
    return res


def test_criterion_01_quantumness_honest_rate():
    _run(1)


def test_criterion_02_classical_prover_ceiling():
    _run(2)


def test_criterion_03_preparation_paths_exact():
    _run(3)


def test_criterion_04_sender_bit_uniformity():
    _run(4)


def test_criterion_05_structured_vs_dense_oracle():
    _run(5)


def test_criterion_06_gadget_identities():
    _run(6)


def test_criterion_07_blind_delegation():
    _run(7)


def test_criterion_08_puzzle_completeness():
    _run(8)


def test_criterion_09_commitment_binding():
    _run(9)


def test_criterion_10_oblivious_transfer():
    _run(10)


def test_criterion_11_encryption_roundtrip():
    _run(11)


def test_criterion_12_energy_game_completeness():
    _run(12)


def test_criterion_13_transcript_determinism():
    _run(13)
