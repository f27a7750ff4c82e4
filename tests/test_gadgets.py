"""Tests for the teleported phase and switchable-CNOT gadgets."""

import numpy as np
import pytest

from oracles import dense_csg_from_ecnot, drop_qubits
from ospsim import acceptance, apps, gadgets, gf2, osp, qsim


def rng_for(seed):
    return np.random.default_rng(seed)


def random_state(num_qubits, rng):
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return qsim.DenseState(vec / np.linalg.norm(vec))


SINGLE_QUBIT_PROBES = (
    qsim.DenseState.from_bits((0,)),
    qsim.DenseState.from_bits((1,)),
    qsim.DenseState(np.array([1, 1]) / np.sqrt(2)),
    qsim.DenseState(np.array([1, -1]) / np.sqrt(2)),
    qsim.DenseState(np.array([1, 1j]) / np.sqrt(2)),
    qsim.DenseState(np.array([1, -1j]) / np.sqrt(2)),
)


def expected_phase_result(state, target, b, z_key):
    out = state
    if b:
        out = qsim.apply_gate(out, "P", [target])
    if z_key:
        out = qsim.apply_gate(out, "Z", [target])
    return out


# ------------------------------------------------------------- phase gadget


def test_phase_gadget_single_qubit_probes():
    rng = rng_for(1)
    for b in (0, 1):
        for probe in SINGLE_QUBIT_PROBES:
            phase, z_key, _ = gadgets.phase_readout(b, rng)
            got = qsim.apply_gate(probe, phase, [0])
            want = expected_phase_result(probe, 0, b, z_key)
            assert qsim.fidelity(got, want) >= 1 - 1e-9


def test_phase_gadget_entangled_targets():
    rng = rng_for(2)
    for b in (0, 1):
        for _ in range(20):
            probe = random_state(3, rng)
            target = int(rng.integers(0, 3))
            phase, z_key, _ = gadgets.phase_readout(b, rng)
            got = qsim.apply_gate(probe, phase, [target])
            want = expected_phase_result(probe, target, b, z_key)
            assert qsim.fidelity(got, want) >= 1 - 1e-9


def test_phase_gadget_with_protocol_source():
    rng = rng_for(3)
    src = osp.tcf_two_round_source(n=3)
    for b in (0, 1):
        for _ in range(5):
            probe = random_state(2, rng)
            phase, z_key, _ = gadgets.phase_readout(b, rng, source=src)
            got = qsim.apply_gate(probe, phase, [1])
            want = expected_phase_result(probe, 1, b, z_key)
            assert qsim.fidelity(got, want) >= 1 - 1e-9


def test_phase_gadget_key_rule():
    # With b=0 the measured bit never touches the key; with b=1 it does.
    class Recorder:
        def __init__(self, s):
            self.s = s

        def __call__(self, b, rng):
            return self.s, (qsim.basis_descriptor((self.s,)) if b == 0
                            else qsim.plane_descriptor(-1 if self.s else 1))

    for s in (0, 1):
        for seed in range(8):
            rng = rng_for(40 + seed)
            _, z_key, _ = gadgets.phase_readout(0, rng, source=Recorder(s))
            assert z_key == s
            rng = rng_for(40 + seed)
            _, z_key, m = gadgets.phase_readout(1, rng, source=Recorder(s))
            assert z_key == s ^ m


def test_phase_gadget_rejects_bad_power():
    with pytest.raises(ValueError):
        gadgets.phase_readout(2, rng_for(0))


def literal_phase_gadget(state, target, b, rng, source):
    """The teleport circuit phase_readout stands for: append the helper,
    CNOT the data qubit into it, read it out in the Z basis, drop it.
    Returns (state, z_key, outcome bit)."""
    s, descr = source(b, rng)
    helper = qsim.apply_1q(qsim.apply_1q(descr, "H"), "SQRTX")
    n = state.num_qubits
    work = state.tensor(helper.densify())
    work = qsim.apply_gate(work, "CNOT", [target, n])
    (m,), work = qsim.measure(work, [n], qsim.Basis.Z, rng)
    return drop_qubits(work, [n], (m,)), s ^ (m & b), m


def criterion_6_inputs():
    """The 136 two-qubit inputs of acceptance criterion 6."""
    rng = acceptance._rng("c6")
    return ([acceptance._probe_pair(i, j) for i in range(6) for j in range(6)]
            + [acceptance._random_state(rng, 2) for _ in range(100)])


@pytest.mark.parametrize("source", [osp.ideal_stub_source,
                                    osp.tcf_two_round_source(3)],
                         ids=["ideal-stub", "tcf-two-round"])
def test_phase_gadget_matches_the_literal_circuit(source):
    for k, inp in enumerate(criterion_6_inputs()):
        for b in (0, 1):
            for target in (0, 1):
                seed = [k, b, target]
                oracle_rng, rng = rng_for(seed), rng_for(seed)
                want, z_key, m = literal_phase_gadget(inp, target, b,
                                                      oracle_rng, source)
                phase, got_z_key, got_m = gadgets.phase_readout(b, rng, source)
                got = qsim.apply_gate(inp, phase, [target])
                assert (got_m, got_z_key) == (m, z_key)
                np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                           rtol=0, atol=1e-12)
                # same draws as the circuit: the streams continue alike
                assert rng.random() == oracle_rng.random()


def test_phase_gadget_never_widens_the_state(monkeypatch):
    widths = []
    init = qsim.DenseState.__init__

    def recording_init(self, amplitudes):
        init(self, amplitudes)
        widths.append(self.num_qubits)

    probe = random_state(3, rng_for(20))
    monkeypatch.setattr(qsim.DenseState, "__init__", recording_init)
    rng = rng_for(21)
    for b in (0, 1):
        for target in range(3):
            phase, _, _ = gadgets.phase_readout(b, rng)
            qsim.apply_gate(probe, phase, [target])
    assert max(widths) == probe.num_qubits


def test_phase_gadget_rejects_a_basis_state_helper():
    # H then SQRTX takes (|0> - i|1>)/sqrt2 to a basis state, whose
    # readout would not be uniform
    def source(b, rng):
        return 0, qsim.plane_descriptor(-1j)

    assert qsim.apply_1q(qsim.apply_1q(source(0, None)[1], "H"),
                         "SQRTX").is_basis
    with pytest.raises(ValueError, match="H\\^b\\|s>"):
        gadgets.phase_readout(1, rng_for(0), source)


def test_phase_gadget_accepts_an_equal_copy_of_the_canonical_helper():
    # the canonical helpers are shared instances, checked by identity
    # first; an equal but separately built one still passes, with the
    # same draws
    def source(b, rng):
        s, helper = osp.ideal_stub_source(b, rng)
        return s, qsim.TwoBranchState(1, helper.u, helper.v, helper.phase)

    for b in (0, 1):
        rng, oracle_rng = rng_for(5), rng_for(5)
        for _ in range(8):
            got = gadgets.phase_readout(b, rng, source)
            want = gadgets.phase_readout(b, oracle_rng)
            assert got[1:] == want[1:] and np.array_equal(got[0], want[0])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ------------------------------------------------------------- CNOT gadget


def undo_pauli_keys(state, qubits, x_keys, z_keys):
    out = state
    for q, z in zip(qubits, z_keys):
        if z:
            out = qsim.apply_gate(out, "Z", [q])
    for q, x in zip(qubits, x_keys):
        if x:
            out = qsim.apply_gate(out, "X", [q])
    return out


def test_ecnot_identity_and_cnot_branches():
    rng = rng_for(5)
    for b in (0, 1):
        for _ in range(25):
            probe = random_state(2, rng)
            res = gadgets.ecnot_run(probe, 0, 1, b, rng)
            plain = undo_pauli_keys(res.state, (0, 1), res.x_keys, res.z_keys)
            want = qsim.apply_gate(probe, "CNOT", [0, 1]) if b else probe
            assert qsim.fidelity(plain, want) >= 1 - 1e-9


def test_ecnot_on_larger_register():
    rng = rng_for(6)
    for b in (0, 1):
        probe = random_state(3, rng)
        res = gadgets.ecnot_run(probe, 2, 0, b, rng)
        plain = undo_pauli_keys(res.state, (2, 0), res.x_keys, res.z_keys)
        want = qsim.apply_gate(probe, "CNOT", [2, 0]) if b else probe
        assert qsim.fidelity(plain, want) >= 1 - 1e-9


def test_ecnot_with_protocol_source():
    rng = rng_for(7)
    src = osp.tcf_two_round_source(n=3)
    for b in (0, 1):
        probe = random_state(2, rng)
        res = gadgets.ecnot_run(probe, 0, 1, b, rng, source=src)
        plain = undo_pauli_keys(res.state, (0, 1), res.x_keys, res.z_keys)
        want = qsim.apply_gate(probe, "CNOT", [0, 1]) if b else probe
        assert qsim.fidelity(plain, want) >= 1 - 1e-9


def literal_ecnot_apply(state, v0, v1, helpers, rng):
    """The circuit ecnot_apply stands for: append both helpers, CNOT
    v0 -> h1, h0 -> h1 and h0 -> v1, read h0 in the X basis and h1 in the
    Z basis, and drop both.  Returns (state, (m0, m1))."""
    h0, h1 = helpers
    n = state.num_qubits
    work = state.tensor(h0.densify()).tensor(h1.densify())
    q0, q1 = n, n + 1
    work = qsim.apply_gate(work, "CNOT", [v0, q1])
    work = qsim.apply_gate(work, "CNOT", [q0, q1])
    work = qsim.apply_gate(work, "CNOT", [q0, v1])
    (m0,), work = qsim.measure(work, [q0], qsim.Basis.X, rng)
    work = qsim.apply_gate(work, "H", [q0])
    work = drop_qubits(work, [q0], (m0,))
    (m1,), work = qsim.measure(work, [q1 - 1], qsim.Basis.Z, rng)
    work = drop_qubits(work, [q1 - 1], (m1,))
    return work, (m0, m1)


def ecnot_cases(kind):
    """(state, v0, v1, helpers, seed) for the oracle test."""
    if kind in ("ideal-stub", "tcf-two-round"):
        inputs = criterion_6_inputs()
        if kind == "ideal-stub":
            source = osp.ideal_stub_source
        else:
            source = osp.tcf_two_round_source(3)
            inputs = inputs[:40]
        for k, inp in enumerate(inputs):
            for b in (0, 1):
                for v0, v1 in ((0, 1), (1, 0)):
                    seed = [k, b, v0]
                    _, helpers = gadgets.ecnot_gen(b, rng_for(seed + [9]),
                                                   source)
                    yield inp, v0, v1, helpers, seed
    elif kind == "three-qubit":
        rng = rng_for(30)
        for k in range(100):
            _, helpers = gadgets.ecnot_gen(k & 1, rng)
            yield random_state(3, rng), 2, 0, helpers, [k]
    else:  # every eighth-root phase on the plane helper, in either slot
        rng = rng_for(31)
        for k in range(200):
            plane = qsim.plane_descriptor(qsim.PHASE_GRID[(k >> 1) % 8])
            basis = qsim.basis_descriptor(((k >> 4) & 1,))
            helpers = (plane, basis) if k & 1 else (basis, plane)
            yield random_state(2, rng), 0, 1, helpers, [k]


@pytest.mark.parametrize("kind", ["ideal-stub", "tcf-two-round",
                                  "three-qubit", "eighth-root-helpers"])
def test_ecnot_matches_the_literal_circuit(kind):
    for state, v0, v1, helpers, seed in ecnot_cases(kind):
        oracle_rng, rng = rng_for(seed), rng_for(seed)
        want, want_bits = literal_ecnot_apply(state, v0, v1, helpers,
                                              oracle_rng)
        got, bits = gadgets.ecnot_apply(state, v0, v1, helpers, rng)
        assert bits == want_bits
        np.testing.assert_allclose(got.amplitudes, want.amplitudes,
                                   rtol=0, atol=1e-12)
        # same draws as the circuit: the streams continue alike
        assert rng.random() == oracle_rng.random()


def test_ecnot_never_widens_the_state(monkeypatch):
    widths = []
    init = qsim.DenseState.__init__

    def recording_init(self, amplitudes):
        init(self, amplitudes)
        widths.append(self.num_qubits)

    probe = random_state(3, rng_for(22))
    monkeypatch.setattr(qsim.DenseState, "__init__", recording_init)
    rng = rng_for(23)
    for b in (0, 1):
        for v0, v1 in ((0, 1), (2, 0)):
            gadgets.ecnot_run(probe, v0, v1, b, rng)
    assert max(widths) == probe.num_qubits


@pytest.mark.parametrize("helpers", [
    (qsim.basis_descriptor((0,)), qsim.basis_descriptor((1,))),
    (qsim.plane_descriptor(1), qsim.plane_descriptor(-1j)),
], ids=["two-basis", "two-plane"])
def test_ecnot_rejects_a_helper_pair_of_one_kind(helpers):
    with pytest.raises(ValueError, match="helpers"):
        gadgets.ecnot_apply(random_state(2, rng_for(24)), 0, 1, helpers,
                            rng_for(25))


def test_ecnot_decode_table():
    for t0 in (0, 1):
        for t1 in (0, 1):
            for m0 in (0, 1):
                for m1 in (0, 1):
                    assert gadgets.ecnot_dec(0, t0, t1, m0, m1) == ((0, t0), (t1, 0))
                    assert gadgets.ecnot_dec(1, t0, t1, m0, m1) == (
                        (0, m1 ^ t1),
                        (m0 ^ t0, 0),
                    )


def test_ecnot_one_message_each_way():
    res = gadgets.ecnot_run(random_state(2, rng_for(8)), 0, 1, 1, rng_for(9))
    assert [m["role"] for m in res.transcript] == ["client", "server"]


def test_ecnot_key_marginals():
    # Over many runs both X and Z keys should take both values.
    rng = rng_for(10)
    seen = {("x", 0): 0, ("x", 1): 0, ("z", 0): 0, ("z", 1): 0}
    probe = random_state(2, rng)
    for _ in range(80):
        res = gadgets.ecnot_run(probe, 0, 1, 1, rng)
        seen[("x", res.x_keys[1])] += 1
        seen[("z", res.z_keys[0])] += 1
    assert all(v > 0 for v in seen.values())


# -------------------------------------------------- claw states from gadgets


def test_csg_from_ecnot_structure():
    rng = rng_for(11)
    for _ in range(25):
        out = gadgets.csg_from_ecnot(3, rng)
        assert out.differentiated and not out.aborted
        assert out.x0 != out.x1
        state = out.receiver_state
        assert state.width == 4
        assert state.u[0] == 0 and state.v[0] == 1
        assert (qsim.fidelity(out.receiver_state, out.target)
                == pytest.approx(1.0, abs=1e-9))


def test_csg_from_ecnot_difference_never_zero():
    rng = rng_for(12)
    for _ in range(40):
        out = gadgets.csg_from_ecnot(2, rng)
        assert any(gf2.xor_vec(out.x0, out.x1))


def test_csg_from_ecnot_feeds_osp():
    rng = rng_for(13)
    for want in (0, 1):
        out = osp.osp_from_csg(gadgets.csg_from_ecnot(3, rng), want, rng)
        assert out.b == want
        assert (qsim.fidelity(out.receiver_state, out.target)
                == pytest.approx(1.0, abs=1e-9))


def test_csg_from_ecnot_validation():
    with pytest.raises(ValueError):
        gadgets.csg_from_ecnot(0, rng_for(0))
    with pytest.raises(ValueError):
        gadgets.csg_from_ecnot(20, rng_for(0))


def assert_csg_matches_the_dense_circuit(n, seed, source=None):
    oracle_rng, rng = rng_for(seed), rng_for(seed)
    want = dense_csg_from_ecnot(n, oracle_rng, source)
    got = gadgets.csg_from_ecnot(n, rng, source)
    assert (got.x0, got.x1, got.z) == (want.x0, want.x1, want.z)
    assert got.receiver_state == want.receiver_state
    assert got.transcript == want.transcript
    # same draws as the circuit: the generators end in one state
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_csg_from_ecnot_matches_the_dense_circuit(n):
    for seed in range(500):
        assert_csg_matches_the_dense_circuit(n, [n, seed])


def test_csg_from_ecnot_matches_the_dense_circuit_with_protocol_source():
    source = osp.tcf_two_round_source(2)
    for seed in range(6):
        assert_csg_matches_the_dense_circuit(1 + seed % 3, [40, seed], source)


def off_plane_source(b, rng):
    """Reports s, but hands (|0> -+ i|1>)/sqrt2 for b = 1, not H|s>."""
    s = int(rng.integers(0, 2))
    if b == 0:
        return s, qsim.basis_descriptor((s,))
    return s, qsim.plane_descriptor(-1j if s else 1j)


def flipped_bit_source(b, rng):
    """Hands H^b|s> but reports the other bit."""
    s, helper = osp.ideal_stub_source(b, rng)
    return s ^ 1, helper


@pytest.mark.parametrize("source", [off_plane_source, flipped_bit_source],
                         ids=["off-plane", "flipped-bit"])
def test_a_helper_that_breaks_the_source_contract_is_refused(source):
    # such a helper used to give a claw that does not describe its own
    # state: off-plane, csg_from_ecnot(1, rng_for(3)) had a DBCSG
    # projection norm of 0.7071
    with pytest.raises(ValueError, match="H\\^b\\|s>"):
        gadgets.csg_from_ecnot(1, rng_for(3), source)
    for b in (0, 1):
        with pytest.raises(ValueError, match="H\\^b\\|s>"):
            gadgets.ecnot_gen(b, rng_for(3), source)


@pytest.mark.parametrize("b", (0, 1))
def test_the_phase_gadget_refuses_a_helper_that_breaks_the_source_contract(b):
    # its Z key s ^ (m & b) would be off by one: delegating H; T; H on
    # input 0 with pad 0 through such a source used to unpad with
    # fidelity 0.0, with no error
    with pytest.raises(ValueError, match="H\\^b\\|s>"):
        gadgets.phase_readout(b, rng_for(3), flipped_bit_source)


def test_claw_generation_builds_no_dense_state(monkeypatch):
    """csg_from_ecnot and the honest OT receiver that calls it for all
    2 lambda instances neither build a dense state nor apply a gate."""
    calls = []
    init = qsim.DenseState.__init__
    apply_gate = qsim.apply_gate

    def counting_init(self, amplitudes):
        calls.append("DenseState")
        init(self, amplitudes)

    def counting_apply_gate(*args):
        calls.append("apply_gate")
        return apply_gate(*args)

    monkeypatch.setattr(qsim.DenseState, "__init__", counting_init)
    monkeypatch.setattr(qsim, "apply_gate", counting_apply_gate)
    rng = rng_for(50)
    for _ in range(50):
        gadgets.csg_from_ecnot(3, rng)
    assert calls == []
    receiver = apps.OtReceiverParty(0, 8, "search", rng)
    receiver.on_message(None)
    assert len(receiver.states) == 16
    assert calls == []
