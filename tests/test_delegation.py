"""Tests for circuit handling, pad tracking, and blind delegation."""

import itertools
import json

import numpy as np
import pytest

from oracles import dense_delegate_on_state
from ospsim import cvqc, delegation, osp, qsim


def rng_for(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------- circuit format


def test_parse_and_format_roundtrip():
    text = """
# teleport-ish fragment
QUBITS 3
H 0
CNOT 0 1
TDG 2
P 1
"""
    circ = delegation.parse_circuit(text)
    assert circ.num_qubits == 3
    assert circ.gates == (
        ("H", (0,)), ("CNOT", (0, 1)), ("TDG", (2,)), ("P", (1,))
    )


def test_equal_circuits_hash_equal_and_share_the_memo():
    text = "QUBITS 3\nH 0\nT 0\nCNOT 0 1\nTDG 1\n"
    first = delegation.parse_circuit(text)
    again = delegation.parse_circuit(text.lower())
    assert again is not first and again == first
    assert hash(again) == hash(first) == hash((3, first.gates))
    assert first != delegation.parse_circuit(text + "X 2\n")
    delegation._key_forms(first, 1)
    hits = delegation._key_forms.cache_info().hits
    delegation._key_forms(again, 1)
    assert delegation._key_forms.cache_info().hits == hits + 1


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        delegation.parse_circuit("H 0\n")  # gate before header
    with pytest.raises(ValueError):
        delegation.parse_circuit("QUBITS 2\nQUBITS 2\n")
    with pytest.raises(ValueError):
        delegation.parse_circuit("QUBITS 2\nRX 0\n")
    with pytest.raises(ValueError):
        delegation.parse_circuit("QUBITS 2\nCNOT 0 0\n")
    with pytest.raises(ValueError):
        delegation.parse_circuit("QUBITS 2\nH 5\n")
    with pytest.raises(ValueError):
        delegation.parse_circuit("# only a comment\n")


def test_t_count_property():
    circ = delegation.Circuit(2, (("T", (0,)), ("TDG", (1,)), ("H", (0,))))
    assert circ.t_count == 2


def test_classical_eval():
    circ = delegation.Circuit(
        3, (("X", (0,)), ("CNOT", (0, 2)), ("Z", (1,)), ("P", (2,)))
    )
    assert delegation.classical_eval(circ, (0, 1, 0)) == (1, 1, 1)
    with pytest.raises(ValueError):
        delegation.classical_eval(delegation.Circuit(1, (("H", (0,)),)), (0,))


# -------------------------------------------------------------- pad algebra


def test_frame_rules():
    f = delegation.PauliFrame([1, 0], [0, 1])
    f.apply_clifford("H", (0,))
    assert (f.r, f.s) == ([0, 0], [1, 1])
    f.apply_clifford("P", (1,))
    assert (f.r, f.s) == ([0, 0], [1, 1])
    f = delegation.PauliFrame([1, 1], [1, 0])
    f.apply_clifford("P", (0,))
    assert (f.r, f.s) == ([1, 1], [0, 0])
    f.apply_clifford("CNOT", (0, 1))
    assert (f.r, f.s) == ([1, 0], [0, 0])
    f = delegation.PauliFrame([1], [1])
    f.apply_clifford("X", (0,))
    f.apply_clifford("Z", (0,))
    assert (f.r, f.s) == ([1], [1])
    with pytest.raises(ValueError):
        f.apply_clifford("T", (0,))


def test_frame_matches_dense_conjugation():
    """C X^r Z^s == X^r' Z^s' C up to global phase, for every tracked gate."""
    rng = rng_for(3)
    cases = [("H", (0,)), ("P", (0,)), ("PDG", (0,)), ("X", (0,)),
             ("Z", (0,)), ("CNOT", (0, 1))]
    for name, qubits in cases:
        n = 2
        for _ in range(8):
            r = [int(b) for b in rng.integers(0, 2, n)]
            s = [int(b) for b in rng.integers(0, 2, n)]
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi = qsim.DenseState(vec / np.linalg.norm(vec))

            def pad(state, rr, ss):
                for q in range(n):
                    if ss[q]:
                        state = qsim.apply_gate(state, "Z", [q])
                for q in range(n):
                    if rr[q]:
                        state = qsim.apply_gate(state, "X", [q])
                return state

            left = qsim.apply_gate(pad(psi, r, s), name, qubits)
            frame = delegation.PauliFrame(r, s)
            frame.apply_clifford(name, qubits)
            right = pad(qsim.apply_gate(psi, name, qubits), frame.r, frame.s)
            assert qsim.fidelity(left, right) >= 1 - 1e-9


# ------------------------------------------------------------- delegation


def test_delegate_matches_direct_execution():
    rng = rng_for(7)
    for _ in range(30):
        circ = delegation.random_circuit(rng, max_qubits=3, max_gates=12, max_t=6)
        bits = tuple(int(b) for b in rng.integers(0, 2, circ.num_qubits))
        res = delegation.delegate(circ, bits, rng)
        got = delegation.unpad_state(res)
        want = delegation.apply_circuit(qsim.DenseState.from_bits(bits), circ)
        assert qsim.fidelity(got, want) >= 1 - 1e-9


def test_delegate_with_protocol_source():
    rng = rng_for(8)
    src = osp.tcf_two_round_source(n=3)
    circ = delegation.parse_circuit(
        "QUBITS 2\nH 0\nT 0\nCNOT 0 1\nTDG 1\nH 1\n"
    )
    for _ in range(3):
        bits = tuple(int(b) for b in rng.integers(0, 2, 2))
        res = delegation.delegate(circ, bits, rng, source=src)
        got = delegation.unpad_state(res)
        want = delegation.apply_circuit(qsim.DenseState.from_bits(bits), circ)
        assert qsim.fidelity(got, want) >= 1 - 1e-9


def test_delegate_transcript_shape():
    circ = delegation.parse_circuit("QUBITS 1\nT 0\nTDG 0\n")
    res = delegation.delegate(circ, (1,), rng_for(9))
    kinds = [m["kind"] for m in res.transcript]
    assert kinds == ["padded-input", "phase-outcome", "phase-outcome"]


def test_classical_round_exact_on_reversible_circuits():
    rng = rng_for(10)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(1, 10))):
            if n >= 2 and rng.integers(0, 2):
                c, t = rng.choice(n, size=2, replace=False)
                gates.append(("CNOT", (int(c), int(t))))
            else:
                gates.append(("X", (int(rng.integers(0, n)),)))
        circ = delegation.Circuit(n, tuple(gates))
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        res = delegation.delegate(circ, bits, rng)
        got = delegation.classical_output_round(res, rng)
        assert got == delegation.classical_eval(circ, bits)


def test_blindness_coupling_identical_views():
    """Pads coupled across two inputs give byte-identical server views."""
    circ = delegation.parse_circuit(
        "QUBITS 3\nH 0\nT 1\nCNOT 0 2\nTDG 0\nP 2\nT 2\n"
    )
    x0, x1 = (0, 1, 1), (1, 0, 1)
    rng = rng_for(11)
    pad = tuple(int(t) for t in rng.integers(0, 2, 3))
    coupled = tuple(p ^ a ^ b for p, a, b in zip(pad, x0, x1))
    run0 = delegation.delegate(circ, x0, rng_for(77), pad_override=pad)
    run1 = delegation.delegate(circ, x1, rng_for(77), pad_override=coupled)
    view0 = json.dumps(run0.transcript, sort_keys=True)
    view1 = json.dumps(run1.transcript, sort_keys=True)
    assert view0 == view1


def test_delegate_input_validation():
    circ = delegation.parse_circuit("QUBITS 2\nH 0\n")
    with pytest.raises(ValueError):
        delegation.delegate(circ, (0,), rng_for(0))
    with pytest.raises(ValueError):
        delegation.delegate(circ, (0, 1), rng_for(0), pad_override=(1,))


def test_random_circuit_budgets():
    rng = rng_for(12)
    for _ in range(40):
        circ = delegation.random_circuit(rng, max_qubits=4, max_gates=24, max_t=12)
        assert 1 <= circ.num_qubits <= 4
        assert 1 <= len(circ.gates) <= 24
        assert circ.t_count <= 12


# ------------------------------------------------- delegation on a register


def _register(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qsim.DenseState(vec / np.linalg.norm(vec))


def test_delegate_on_state_matches_direct_evaluation():
    """Unpadded output equals running the circuit on register + input."""
    rng = rng_for(30)
    for _ in range(25):
        reg_width = int(rng.integers(1, 3))
        extra = int(rng.integers(0, 3))
        circ = delegation.random_circuit(rng, max_qubits=reg_width + extra,
                                         max_gates=16, max_t=6)
        n_in = circ.num_qubits - reg_width
        if n_in < 0:
            continue
        reg = _register(rng, reg_width)
        bits = tuple(int(b) for b in rng.integers(0, 2, n_in))
        res = delegation.delegate_on_state(circ, reg, bits, rng)
        got = delegation.unpad_state(res)
        ref = reg
        if bits:
            ref = ref.tensor(qsim.DenseState.from_bits(bits))
        want = delegation.apply_circuit(ref, circ)
        overlap = abs(np.vdot(want.amplitudes, got.amplitudes))
        assert overlap > 1 - 1e-9


def test_delegate_on_state_keeps_untouched_wires_unpadded():
    circ = delegation.Circuit(3, (("T", (1,)), ("CNOT", (2, 1)), ("H", (1,))))
    reg = _register(rng_for(31), 2)
    res = delegation.delegate_on_state(circ, reg, (1,), rng_for(32))
    assert res.frame.r[0] == 0 and res.frame.s[0] == 0


def test_delegate_on_state_classical_round_subset():
    # register |1>, input bit 1, CNOT folds the input onto the register wire
    circ = delegation.Circuit(2, (("CNOT", (1, 0)), ("T", (0,)), ("TDG", (1,))))
    reg = qsim.DenseState.from_bits((1,))
    for seed in range(6):
        res = delegation.delegate_on_state(circ, reg, (1,), rng_for(40 + seed))
        out = delegation.classical_output_round(res, rng_for(50 + seed),
                                                wires=[0])
        assert out == (0,)


def test_delegate_on_state_factored_equals_dense():
    """Classical wires kept as bits: same transcript, frame, readout, state.

    Appending H q; H q on a classical wire changes neither the unitary,
    the frame nor the random draws, but sends the run down the dense path.
    """
    gates = (
        ("T", (2,)), ("CNOT", (2, 0)), ("CNOT", (3, 1)), ("T", (0,)),
        ("TDG", (1,)), ("CNOT", (2, 3)), ("P", (2,)), ("Z", (3,)),
        ("CNOT", (3, 0)),
    )
    circ = delegation.Circuit(4, gates)
    forced = delegation.Circuit(4, gates + (("H", (3,)), ("H", (3,))))
    reg = _register(rng_for(33), 2)
    for seed in range(12):
        fact = delegation.delegate_on_state(circ, reg, (1, 0),
                                            rng_for(60 + seed))
        dense = delegation.delegate_on_state(forced, reg, (1, 0),
                                             rng_for(60 + seed))
        assert fact.state.num_qubits == 2 and len(fact.bits) == 2
        assert dense.state.num_qubits == 4 and dense.bits == ()
        assert json.dumps(dense.transcript) == json.dumps(fact.transcript)
        assert dense.frame.r == fact.frame.r
        assert dense.frame.s == fact.frame.s
        overlap = abs(np.vdot(delegation.unpad_state(dense).amplitudes,
                              delegation.unpad_state(fact).amplitudes))
        assert overlap > 1 - 1e-9
        d_bits = delegation.classical_output_round(
            dense, rng_for(70 + seed), wires=[0, 3, 1])
        f_bits = delegation.classical_output_round(
            fact, rng_for(70 + seed), wires=[0, 3, 1])
        assert d_bits == f_bits
        assert json.dumps(dense.transcript) == json.dumps(fact.transcript)


def test_delegate_on_state_runs_entangling_classical_wires_dense():
    """Gates that move a classical wire off the basis put it on the state."""
    rng = rng_for(34)
    for gates in ((("H", (1,)),), (("CNOT", (0, 1)),),
                  (("CNOT", (1, 0)), ("T", (1,)), ("H", (1,)))):
        circ = delegation.Circuit(2, gates)
        reg = _register(rng, 1)
        for bit in (0, 1):
            res = delegation.delegate_on_state(circ, reg, (bit,), rng)
            assert res.state.num_qubits == 2 and res.bits == ()
            want = delegation.apply_circuit(
                reg.tensor(qsim.DenseState.from_bits((bit,))), circ)
            got = delegation.unpad_state(res)
            assert abs(np.vdot(want.amplitudes, got.amplitudes)) > 1 - 1e-9


def test_classical_readout_draws_no_randomness():
    """A readout of classical wires only is read off the bits."""
    circ = delegation.Circuit(3, (("CNOT", (1, 2)), ("X", (1,)), ("T", (2,))))
    reg = qsim.DenseState.from_bits((1,))
    res = delegation.delegate_on_state(circ, reg, (1, 0), rng_for(35))
    assert res.state.num_qubits == 1 and len(res.bits) == 2
    rng = rng_for(36)
    before = rng.bit_generator.state
    assert delegation.classical_output_round(res, rng, wires=[2, 1]) == (1, 0)
    assert rng.bit_generator.state == before
    assert res.transcript[-1]["payload"]["wires"] == [2, 1]
    with pytest.raises(ValueError):
        delegation.classical_output_round(res, rng, wires=[1, 1])
    with pytest.raises(ValueError):
        delegation.classical_output_round(res, rng, wires=[3])


def _count_applies(monkeypatch):
    calls = []
    apply_gate = qsim.apply_gate

    def counting_apply_gate(*args):
        calls.append(args[2])
        return apply_gate(*args)

    monkeypatch.setattr(qsim, "apply_gate", counting_apply_gate)
    return calls


def test_phases_on_bit_wires_touch_no_state(monkeypatch):
    """A phase on a classical wire only moves keys: no gate is applied."""
    circ = delegation.parse_circuit("QUBITS 2\nT 0\nCNOT 0 1\nTDG 1\n")
    calls = _count_applies(monkeypatch)
    rng = rng_for(37)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        res = delegation.delegate(circ, bits, rng)
        assert res.state.num_qubits == 0
        assert sum(m["kind"] == "phase-outcome" for m in res.transcript) > 0
        assert (delegation.classical_output_round(res, rng)
                == delegation.classical_eval(circ, bits))
    assert calls == []


def test_a_run_on_three_dense_wires_is_one_dense_apply(monkeypatch):
    """Gates and phase gadgets on at most three dense wires, with a
    bit-controlled X among them, are one apply at the end of the pass."""
    circ = delegation.parse_circuit(
        "QUBITS 4\nH 0\nT 0\nCNOT 0 1\nTDG 1\nH 2\nCNOT 3 2\nT 2\n"
        "CNOT 2 0\nP 1\n")
    reg = _register(rng_for(38), 3)
    calls = _count_applies(monkeypatch)
    res = delegation.delegate_on_state(circ, reg, (1,), rng_for(39))
    assert calls == [(0, 1, 2)]
    monkeypatch.undo()
    want = delegation.apply_circuit(
        reg.tensor(qsim.DenseState.from_bits((1,))), circ)
    assert qsim.fidelity(delegation.unpad_state(res), want) >= 1 - 1e-9


def test_a_fourth_dense_wire_flushes_the_pending_run(monkeypatch):
    """A gate that would widen the pending operator to four wires applies
    it first and starts a new run from its own wires."""
    circ = delegation.parse_circuit(
        "QUBITS 4\nH 0\nCNOT 0 1\nT 2\nH 3\nCNOT 3 0\nTDG 3\nH 1\n")
    reg = _register(rng_for(40), 4)
    calls = _count_applies(monkeypatch)
    res = delegation.delegate_on_state(circ, reg, (), rng_for(41))
    assert calls == [(0, 1, 2), (3, 0, 1)]
    monkeypatch.undo()
    want = delegation.apply_circuit(reg, circ)
    assert qsim.fidelity(delegation.unpad_state(res), want) >= 1 - 1e-9


def _assert_fused_matches_oracle(circuit, register, bits, seed, pad=None):
    rng_fused, rng_dense = rng_for(seed), rng_for(seed)
    fused = delegation.delegate_on_state(circuit, register, bits, rng_fused,
                                         pad_override=pad)
    dense = dense_delegate_on_state(circuit, register, bits, rng_dense,
                                    pad_override=pad)
    assert json.dumps(fused.transcript) == json.dumps(dense.transcript)
    assert (fused.frame.r, fused.frame.s) == (dense.frame.r, dense.frame.s)
    assert fused.bits == dense.bits
    assert fused.state.num_qubits == dense.state.num_qubits
    assert rng_fused.bit_generator.state == rng_dense.bit_generator.state
    assert qsim.fidelity(delegation.unpad_state(fused),
                         delegation.unpad_state(dense)) >= 1 - 1e-9


def test_fused_pass_matches_the_gate_by_gate_oracle():
    """Same draws, keys, transcript and bits as the per-gate pass, and the
    same output state, on random circuits over registers of 0-3 wires."""
    rng = rng_for(42)
    for trial in range(60):
        reg_width = trial % 4
        circ = delegation.random_circuit(rng, max_qubits=reg_width + 3,
                                         max_gates=30, max_t=10)
        n_in = circ.num_qubits - reg_width
        if n_in < 0:
            continue
        bits = tuple(int(b) for b in rng.integers(0, 2, n_in))
        _assert_fused_matches_oracle(circ, _register(rng, reg_width), bits,
                                     100 + trial)


@pytest.mark.parametrize("text,bits,dense_width", [
    # Inputs stay bits; the CNOT from bit 3 puts an X on dense wire 1.
    ("QUBITS 5\nH 0\nCNOT 0 1\nT 1\nCNOT 3 1\nCNOT 3 4\nX 4\nT 3\n"
     "TDG 1\nH 2\nCNOT 2 0\nCNOT 4 2\n", (1, 0), 3),
    # An H on an input wire puts every input on the dense state.
    ("QUBITS 5\nH 0\nT 3\nH 3\nCNOT 3 1\nTDG 4\nCNOT 1 4\nT 1\nH 2\n",
     (1, 1), 5),
], ids=["bits-stay-bits", "inputs-join-the-state"])
def test_fused_pass_matches_the_oracle_on_classical_inputs(text, bits,
                                                           dense_width):
    circ = delegation.parse_circuit(text)
    reg = _register(rng_for(43), 3)
    for seed in range(8):
        res = delegation.delegate_on_state(circ, reg, bits, rng_for(seed))
        assert res.state.num_qubits == dense_width
        _assert_fused_matches_oracle(circ, reg, bits, seed)


@pytest.mark.parametrize("lam", [2, 3])
@pytest.mark.parametrize("kind", ["chsh", "commutation", "teleport"])
def test_fused_pass_matches_the_oracle_on_collection_circuits(kind, lam):
    circ, _, input_width = cvqc._collection_circuit(lam, kind)
    rng = rng_for(44 + lam)
    reg_width = circ.num_qubits - input_width
    for seed in range(3):
        bits = tuple(int(b) for b in rng.integers(0, 2, input_width))
        _assert_fused_matches_oracle(circ, _register(rng, reg_width), bits,
                                     200 + seed)


@pytest.mark.parametrize("kind", ["chsh", "commutation", "teleport"])
def test_every_padded_input_of_the_pair_circuits_matches_the_oracle(
        kind, monkeypatch):
    """All 32 chsh and 16 commutation padded inputs at lambda = 2, and the
    one teleport run.  A second run on the same padded bits, from other
    input bits, builds no plan and embeds no operator."""
    circ, _, input_width = cvqc._collection_circuit(2, kind)
    rng = rng_for(46)
    reg = _register(rng, circ.num_qubits - input_width)
    embeds = []
    for seed, padded in enumerate(itertools.product((0, 1),
                                                    repeat=input_width)):
        runs = []
        for _ in range(2):
            bits = tuple(int(b) for b in rng.integers(0, 2, input_width))
            runs.append((bits, tuple(p ^ b for p, b in zip(padded, bits))))
        (bits, pad), (other_bits, other_pad) = runs
        _assert_fused_matches_oracle(circ, reg, bits, 300 + seed, pad)
        built = (delegation._plan.cache_info().misses,
                 delegation._key_forms.cache_info().misses)
        monkeypatch.setattr(delegation, "_embed",
                            lambda *args: embeds.append(args))
        delegation.delegate_on_state(circ, reg, other_bits, rng_for(seed),
                                     pad_override=other_pad)
        monkeypatch.undo()
        assert built == (delegation._plan.cache_info().misses,
                         delegation._key_forms.cache_info().misses)
    assert embeds == []


def _refuses_before_any_draw(call):
    rng = rng_for(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="0/1"):
        call(rng)
    assert rng.bit_generator.state == before


def test_delegate_refuses_an_input_that_is_not_a_bit():
    """(2, 0) used to be delegated as read, and read out as (2, 2)."""
    circ = delegation.parse_circuit("QUBITS 2\nCNOT 0 1\n")
    _refuses_before_any_draw(lambda rng: delegation.delegate(circ, (2, 0), rng))
    reg = qsim.DenseState.from_bits((0,))
    _refuses_before_any_draw(
        lambda rng: delegation.delegate_on_state(circ, reg, (-1,), rng))


def test_pad_override_refuses_a_pad_that_is_not_a_bit():
    circ = delegation.parse_circuit("QUBITS 2\nCNOT 0 1\n")
    _refuses_before_any_draw(lambda rng: delegation.delegate(
        circ, (1, 0), rng, pad_override=(3, 0)))


def test_classical_eval_refuses_an_input_that_is_not_a_bit():
    """X on the input 5 used to give (4,)."""
    circ = delegation.parse_circuit("QUBITS 1\nX 0\n")
    with pytest.raises(ValueError, match="0/1"):
        delegation.classical_eval(circ, (5,))


def test_delegate_on_state_validation():
    reg = qsim.DenseState.from_bits((0,))
    circ = delegation.Circuit(3, (("H", (0,)),))
    with pytest.raises(ValueError):
        delegation.delegate_on_state(circ, reg, (0,), rng_for(0))
    with pytest.raises(ValueError):
        delegation.delegate_on_state(circ, reg, (0, 1), rng_for(0),
                                     pad_override=(1,))
    with pytest.raises(ValueError, match="wider"):
        delegation.delegate_on_state(circ, _register(rng_for(1), 4), (),
                                     rng_for(0))
