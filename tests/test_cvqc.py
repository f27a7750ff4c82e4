"""Tests for the single-round Hamiltonian energy game."""

import gc
import math
import weakref

import numpy as np
import pytest

from oracles import anticommutator_norm, dense_direct_answers
from ospsim import cvqc, qsim


def rng_for(seed):
    return np.random.default_rng(seed)


BENCH = cvqc.parse_hamiltonian("QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n")

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def _oracle_matrix(ham):
    """Independent dense build: straight kron per term, summed."""
    out = np.zeros((1 << ham.num_qubits,) * 2, dtype=complex)
    for axis, i, j, w in ham.terms:
        single = _X if axis == "X" else _Z
        factors = [single if q in (i, j) else _I
                   for q in range(ham.num_qubits)]
        term = factors[0]
        for fac in factors[1:]:
            term = np.kron(term, fac)
        out += w * term
    return out


# ------------------------------------------------------------- file format


def test_parse_and_format_roundtrip():
    text = """
# heavier X side
QUBITS 3
X 0 1 0.4
X 1 2 0.1
Z 0 1 0.25
Z 1 2 0.25
"""
    ham = cvqc.parse_hamiltonian(text)
    assert ham.num_qubits == 3
    assert ham.terms[0] == ("X", 0, 1, 0.4)
    assert ham.x_weight == pytest.approx(0.5)


def test_parse_rejects_malformed_input():
    bad = [
        "X 0 1 1.0\n",                       # term before header
        "QUBITS 2\nQUBITS 2\nX 0 1 1.0\n",   # duplicate header
        "QUBITS 2\nY 0 1 1.0\n",             # unsupported axis
        "QUBITS 2\nX 0 0 1.0\n",             # repeated index
        "QUBITS 2\nX 0 3 1.0\n",             # out of range
        "QUBITS 2\nX 0 1 0.9\n",             # weights do not sum to one
        "QUBITS 2\nX 0 1 1.5\nZ 0 1 -0.5\n",  # negative weight
        "QUBITS 2\nX 0 1 nan\n",             # weight not a number
        "QUBITS 2\nX 0 1 inf\n",             # infinite weight
        "QUBITS 2\nX 0 1 nan\nZ 0 1 1.0\n",  # NaN beside a valid weight
        "QUBITS 2\nX 0 1\n",                 # wrong arity
        "# nothing here\n",
    ]
    for text in bad:
        with pytest.raises(ValueError):
            cvqc.parse_hamiltonian(text)


def test_hamiltonian_needs_two_qubits():
    with pytest.raises(ValueError):
        cvqc.Hamiltonian(1, (("X", 0, 1, 1.0),))


# ----------------------------------------------------------- spectral facts


def test_min_eigenvalue_against_oracle():
    cases = [
        "QUBITS 2\nX 0 1 1.0\n",
        "QUBITS 2\nZ 0 1 1.0\n",
        "QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n",
        "QUBITS 3\nX 0 1 0.4\nX 1 2 0.1\nZ 0 1 0.25\nZ 1 2 0.25\n",
        "QUBITS 4\nX 0 3 0.5\nZ 1 2 0.5\n",
    ]
    for text in cases:
        ham = cvqc.parse_hamiltonian(text)
        want = float(np.linalg.eigvalsh(_oracle_matrix(ham))[0])
        assert cvqc.min_eigenvalue(ham) == pytest.approx(want, abs=1e-12)


def test_single_term_minimum_is_minus_one():
    for text in ["QUBITS 2\nX 0 1 1.0\n", "QUBITS 2\nZ 0 1 1.0\n"]:
        ham = cvqc.parse_hamiltonian(text)
        assert cvqc.min_eigenvalue(ham) == pytest.approx(-1.0, abs=1e-12)
    assert cvqc.min_eigenvalue(BENCH) == pytest.approx(-1.0, abs=1e-12)


def test_width_cap_on_dense_diagonalization():
    ham = cvqc.Hamiltonian(5, (("X", 0, 4, 1.0),))
    with pytest.raises(ValueError):
        cvqc.min_eigenvalue(ham)
    with pytest.raises(ValueError):
        cvqc.ground_state(ham)


def test_ground_state_of_benchmark_is_singlet():
    vec = cvqc.ground_state(BENCH)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert abs(np.vdot(singlet, vec)) == pytest.approx(1.0, abs=1e-12)
    energy = np.real(np.vdot(vec, _oracle_matrix(BENCH) @ vec))
    assert energy == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------------ params and sampling


def test_game_params_validation():
    cvqc.GameParams(0.0, -1.0)
    cvqc.GameParams(1.0, -1.0)
    with pytest.raises(ValueError):
        cvqc.GameParams(-0.1, -1.0)
    with pytest.raises(ValueError):
        cvqc.GameParams(1.1, -1.0)
    with pytest.raises(ValueError):
        cvqc.GameParams(0.5, 0.5, 0.5)
    cvqc.GameParams(0.2, 1.0, 2.0)
    for alpha in (-1.5, 1.5, 5.0, float("nan")):
        with pytest.raises(ValueError):
            cvqc.GameParams(1.0, alpha, 6.0)


def test_question_kind_mix():
    rng = rng_for(1)
    only_tp = cvqc.GameParams(1.0, -1.0)
    assert all(cvqc.sample_question(BENCH, only_tp, rng).kind == "teleport"
               for _ in range(60))
    no_tp = cvqc.GameParams(0.0, -1.0)
    kinds = [cvqc.sample_question(BENCH, no_tp, rng).kind for _ in range(400)]
    assert "teleport" not in kinds
    assert set(kinds) == {"chsh", "commutation"}

    mixed = cvqc.GameParams(0.4, -1.0)
    n = 20000
    counts = {"chsh": 0, "commutation": 0, "teleport": 0}
    for _ in range(n):
        counts[cvqc.sample_question(BENCH, mixed, rng).kind] += 1
    for kind, p in [("chsh", 0.3), ("commutation", 0.3), ("teleport", 0.4)]:
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[kind] / n - p) < 4 * sigma


def test_question_parity_constraints():
    rng = rng_for(2)
    params = cvqc.GameParams(0.0, -1.0)
    for _ in range(500):
        q = cvqc.sample_question(BENCH, params, rng)
        assert q.b == (1, 1)
        assert q.y in (0, 1)
        overlap = sum(u & v for u, v in zip(q.a, q.b)) % 2
        if q.kind == "chsh":
            assert overlap == 1
            assert q.x in (0, 1)
        else:
            assert overlap == 0
            assert q.x is None


def test_chsh_a_marginal_uniform_on_admissible_set():
    # only a in {(1,0), (0,1)} has odd overlap with b=(1,1)
    rng = rng_for(3)
    params = cvqc.GameParams(0.0, -1.0)
    counts = {(1, 0): 0, (0, 1): 0}
    seen = 0
    while seen < 4000:
        q = cvqc.sample_question(BENCH, params, rng)
        if q.kind != "chsh":
            continue
        counts[q.a] += 1
        seen += 1
    assert counts[(1, 0)] + counts[(0, 1)] == 4000
    assert abs(counts[(1, 0)] - 2000) < 4 * math.sqrt(1000)


def test_weighted_x_pair_frequencies():
    text = "QUBITS 3\nX 0 1 0.4\nX 1 2 0.1\nZ 0 1 0.25\nZ 1 2 0.25\n"
    ham = cvqc.parse_hamiltonian(text)
    rng = rng_for(4)
    params = cvqc.GameParams(0.0, -1.0)
    counts = {(1, 1, 0): 0, (0, 1, 1): 0}
    n = 3000
    for _ in range(n):
        q = cvqc.sample_question(ham, params, rng)
        counts[q.b] += 1
        assert sum(u & v for u, v in zip(q.a, q.b)) % 2 == \
            (1 if q.kind == "chsh" else 0)
    frac = counts[(1, 1, 0)] / n
    assert abs(frac - 0.8) < 4 * math.sqrt(0.8 * 0.2 / n)


def test_correlation_rounds_need_x_terms():
    zz = cvqc.parse_hamiltonian("QUBITS 2\nZ 0 1 1.0\n")
    with pytest.raises(ValueError):
        cvqc.sample_question(zz, cvqc.GameParams(0.0, -1.0), rng_for(5))
    q = cvqc.sample_question(zz, cvqc.GameParams(1.0, -1.0), rng_for(5))
    assert q.kind == "teleport"


class _StuckRng:
    """Always draws zero: forces the CHSH parity condition to fail."""

    def random(self):
        return 0.0

    def integers(self, low, high, size=None):
        if size is None:
            return 0
        return np.zeros(size, dtype=np.int64)

    def choice(self, n, p=None):
        return 0


def test_question_rejection_limit():
    with pytest.raises(RuntimeError):
        cvqc.sample_question(BENCH, cvqc.GameParams(0.0, -1.0), _StuckRng())


# ---------------------------------------------------------------- verifier


def test_verify_chsh_cells():
    a, b = (1, 0), (1, 1)
    # y=1 compares against the b-side parity of the helper's bits
    q = cvqc.Question("chsh", 1, a, b, 0)
    assert cvqc.verify(q, ((1,), (1, 0)), BENCH, rng_for(0)) is True
    assert cvqc.verify(q, ((0,), (1, 0)), BENCH, rng_for(0)) is False
    # x=1, y=1 wants disagreement
    q = cvqc.Question("chsh", 1, a, b, 1)
    assert cvqc.verify(q, ((0,), (1, 0)), BENCH, rng_for(0)) is True
    # y=0 compares against the a-side parity
    q = cvqc.Question("chsh", 0, a, b, 1)
    assert cvqc.verify(q, ((1,), (1, 0)), BENCH, rng_for(0)) is True
    assert cvqc.verify(q, ((0,), (1, 0)), BENCH, rng_for(0)) is False


def test_verify_commutation_exhaustive():
    a, b = (1, 1), (1, 1)
    for y in (0, 1):
        q = cvqc.Question("commutation", y, a, b)
        for s0 in (0, 1):
            for s1 in (0, 1):
                for sb in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                    got = cvqc.verify(q, ((s0, s1), sb), BENCH, rng_for(0))
                    z = (sb[0] ^ sb[1])
                    assert got == ((s0, s1)[y] == z)


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def choice(self, n, p=None):
        return 0


def test_verify_teleport_display():
    q = cvqc.Question("teleport", 0)
    # draw 0.9 >= x_weight = 0.5 picks the Z side, matching y=0
    odd = ((1, 0, 0, 0), (0, 0))
    even = ((0, 0, 0, 0), (0, 0))
    assert cvqc.verify(q, odd, BENCH, _FixedRng(0.9)) is True
    assert cvqc.verify(q, even, BENCH, _FixedRng(0.9)) is False
    # draw 0.1 picks the X side, mismatching y=0: automatic accept
    assert cvqc.verify(q, even, BENCH, _FixedRng(0.1)) is True
    # X side display reads the second half of the corrections
    q1 = cvqc.Question("teleport", 1)
    assert cvqc.verify(q1, ((0, 0, 1, 0), (0, 0)), BENCH, _FixedRng(0.1)) is True
    assert cvqc.verify(q1, ((1, 0, 0, 0), (0, 0)), BENCH, _FixedRng(0.1)) is False


def test_verify_answer_shapes():
    q = cvqc.Question("chsh", 0, (1, 0), (1, 1), 0)
    with pytest.raises(ValueError):
        cvqc.verify(q, ((0, 0), (0, 0)), BENCH, rng_for(0))
    with pytest.raises(ValueError):
        cvqc.verify(q, ((0,), (0, 0, 0)), BENCH, rng_for(0))
    qc = cvqc.Question("commutation", 0, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        cvqc.verify(qc, ((0,), (0, 0)), BENCH, rng_for(0))
    qt = cvqc.Question("teleport", 0)
    with pytest.raises(ValueError):
        cvqc.verify(qt, ((0, 0), (0, 0)), BENCH, rng_for(0))
    with pytest.raises(ValueError):
        cvqc.verify(cvqc.Question("parity", 0), ((0,), (0, 0)), BENCH,
                    rng_for(0))


def _verify_oracle(question, answers, ham, rng):
    """Straight-line restatement of the referee predicate."""
    s_a, s_b = answers
    lam = ham.num_qubits
    if question.kind == "teleport":
        xw = sum(w for ax, _, _, w in ham.terms if ax == "X")
        axis = "X" if rng.random() < xw else "Z"
        if (axis == "X") != (question.y == 1):
            return True
        side = [t for t in ham.terms if t[0] == axis]
        if len(side) == 1:
            _, i, j, _ = side[0]
        else:
            ws = np.array([t[3] for t in side])
            _, i, j, _ = side[int(rng.choice(len(side), p=ws / ws.sum()))]
        off = lam if axis == "X" else 0
        return (s_b[i] ^ s_b[j] ^ s_a[off + i] ^ s_a[off + j]) == 1
    side = question.a if question.y == 0 else question.b
    z = sum(u & v for u, v in zip(side, s_b)) % 2
    if question.kind == "chsh":
        return (s_a[0] ^ z) == (question.x & question.y)
    return s_a[question.y] == z


def test_verify_against_reimplementation():
    text = "QUBITS 3\nX 0 1 0.4\nX 1 2 0.1\nZ 0 1 0.25\nZ 1 2 0.25\n"
    for ham in (BENCH, cvqc.parse_hamiltonian(text)):
        lam = ham.num_qubits
        rng = rng_for(6)
        for trial in range(1500):
            kind = ("chsh", "commutation", "teleport")[int(rng.integers(0, 3))]
            y = int(rng.integers(0, 2))
            if kind == "teleport":
                q = cvqc.Question(kind, y)
                s_a = tuple(int(t) for t in rng.integers(0, 2, 2 * lam))
            else:
                a = tuple(int(t) for t in rng.integers(0, 2, lam))
                b = tuple(int(t) for t in rng.integers(0, 2, lam))
                x = int(rng.integers(0, 2)) if kind == "chsh" else None
                q = cvqc.Question(kind, y, a, b, x)
                s_a = tuple(int(t)
                            for t in rng.integers(0, 2, 1 if kind == "chsh"
                                                  else 2))
            s_b = tuple(int(t) for t in rng.integers(0, 2, lam))
            got = cvqc.verify(q, (s_a, s_b), ham, rng_for(9000 + trial))
            want = _verify_oracle(q, (s_a, s_b), ham, rng_for(9000 + trial))
            assert got == want


def test_anticommutator_norm():
    assert anticommutator_norm((1, 0), (1, 1)) == pytest.approx(0.0)
    assert anticommutator_norm((1, 1), (1, 1)) == pytest.approx(2.0)
    assert anticommutator_norm((0, 0), (1, 1)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        anticommutator_norm((1,), (1, 1))
    rng = rng_for(7)
    params = cvqc.GameParams(0.0, -1.0)
    for _ in range(60):
        q = cvqc.sample_question(BENCH, params, rng)
        norm = anticommutator_norm(q.a, q.b)
        assert norm == pytest.approx(0.0 if q.kind == "chsh" else 2.0)


# ----------------------------------------------------- honest play, direct


def test_prepared_state_layout():
    state = cvqc.prepared_state(BENCH)
    assert state.num_qubits == 6
    arr = state.amplitudes.reshape(4, 4, 4)
    ground = cvqc.ground_state(BENCH)
    for i in range(4):
        for j in range(4):
            if i == j:
                assert np.allclose(arr[i, j], ground / 2)
            else:
                assert np.allclose(arr[i, j], 0)


def test_prepare_override_dimension_check():
    with pytest.raises(ValueError):
        cvqc.prepared_state(BENCH, prepare=lambda ham: np.ones(8) / math.sqrt(8))


def test_commutation_rounds_obey_parity_law():
    """On shared EPR pairs the two parity reports agree every single time."""
    rng = rng_for(8)
    params = cvqc.GameParams(0.0, -1.0)
    base = cvqc.prepared_state(BENCH)
    seen = 0
    while seen < 250:
        q, (s_a, s_b), ok = cvqc.honest_round(BENCH, params, rng, base=base)
        if q.kind != "commutation":
            continue
        assert ok
        side = q.a if q.y == 0 else q.b
        assert s_a[q.y] == sum(u & v for u, v in zip(side, s_b)) % 2
        seen += 1


def test_teleport_rounds_accept_on_exact_ground_state():
    rng = rng_for(9)
    params = cvqc.GameParams(1.0, -1.0)
    base = cvqc.prepared_state(BENCH)
    for _ in range(300):
        _, _, ok = cvqc.honest_round(BENCH, params, rng, base=base)
        assert ok


def test_chsh_rate_matches_cosine():
    rng = rng_for(10)
    params = cvqc.GameParams(0.0, -1.0)
    base = cvqc.prepared_state(BENCH)
    wins = trials = 0
    for _ in range(2400):
        q, _, ok = cvqc.honest_round(BENCH, params, rng, base=base)
        if q.kind == "chsh":
            wins += int(ok)
            trials += 1
    assert trials > 1000
    assert abs(wins / trials - qsim.COS2_PI_8) < 0.035


def test_estimate_value_tracks_physical_rate():
    params = cvqc.GameParams(0.2, -1.0)
    est = cvqc.estimate_value(BENCH, params, 20000, rng_for(11))
    assert abs(est["value"] - cvqc.physical_rate(params)) < 0.01
    # alpha in [-1, 1] keeps the teleport term a probability
    for alpha in (-1.0, 1.0):
        assert 0.5 <= cvqc.teleport_rate(alpha) <= 1.0
    assert est["low"] <= est["value"] <= est["high"]
    assert est["high"] - est["low"] < 0.02


CHAIN = cvqc.parse_hamiltonian(
    "QUBITS 3\nX 0 1 0.25\nX 1 2 0.25\nZ 0 1 0.25\nZ 1 2 0.25\n")


def _dense_round(ham, params, rng, base):
    """honest_round with the dense walk of the oracle for the answers."""
    question = cvqc.sample_question(ham, params, rng)
    answers = dense_direct_answers(ham, question, base, rng)
    return question, answers, cvqc.verify(question, answers, ham, rng)


@pytest.mark.parametrize("ham", [BENCH, CHAIN], ids=["xx-zz", "chain"])
def test_memoised_direct_rounds_draw_what_the_dense_walk_draws(ham):
    """Same questions, answers and verdicts round by round, and the same
    generator state at the end, from one seed."""
    alpha = cvqc.min_eigenvalue(ham)
    params = cvqc.GameParams(0.2, alpha, alpha + 1.0)
    base = cvqc.prepared_state(ham)
    ours, theirs = rng_for(ham.num_qubits), rng_for(ham.num_qubits)
    kinds = set()
    for _ in range(20_000):
        played = cvqc.honest_round(ham, params, ours, base=base)
        assert played == _dense_round(ham, params, theirs, base)
        kinds.add(played[0].kind)
    assert kinds == {"chsh", "commutation", "teleport"}
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_a_warm_memo_builds_no_dense_state_and_goes_with_its_base(
        monkeypatch):
    gc.collect()
    tables = len(cvqc._DIRECT_LAWS)
    params = cvqc.GameParams(0.2, -1.0)
    base = cvqc.prepared_state(BENCH)
    rng = rng_for(18)
    for _ in range(1000):
        cvqc.honest_round(BENCH, params, rng, base=base)
    calls = []
    init = qsim.DenseState.__init__

    def counting_init(self, amplitudes):
        calls.append("DenseState")
        init(self, amplitudes)

    monkeypatch.setattr(qsim.DenseState, "__init__", counting_init)
    for _ in range(1000):
        cvqc.honest_round(BENCH, params, rng, base=base)
    assert calls == []
    assert len(cvqc._DIRECT_LAWS) == tables + 1
    assert cvqc._DIRECT_LAWS[base]
    gone = weakref.ref(base)
    del base
    gc.collect()
    assert gone() is None
    assert len(cvqc._DIRECT_LAWS) == tables


def test_energy_dependence_of_teleport_rounds():
    # |00> has energy 1/2 against the benchmark, so accepts drop to 0.625
    params = cvqc.GameParams(1.0, -1.0)
    prepare = lambda ham: np.array([1, 0, 0, 0], dtype=complex)
    est = cvqc.estimate_value(BENCH, params, 4000, rng_for(12),
                              prepare=prepare)
    assert abs(est["value"] - 0.625) < 0.025


def test_wilson_interval_endpoints():
    low, high = cvqc.wilson_interval(0, 10)
    assert low == pytest.approx(0.0, abs=1e-12)
    assert high == pytest.approx(0.2775, abs=0.001)
    low, high = cvqc.wilson_interval(10, 10)
    assert low == pytest.approx(1 - 0.2775, abs=0.001)
    assert high == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        cvqc.wilson_interval(0, 0)


def test_estimate_value_needs_rounds():
    with pytest.raises(ValueError):
        cvqc.estimate_value(BENCH, cvqc.GameParams(0.2, -1.0), 0, rng_for(0))


# ------------------------------------------------- delegated implementation


def _gate_matrix(gates, width):
    cols = []
    for b in range(1 << width):
        bits = tuple((b >> (width - 1 - i)) & 1 for i in range(width))
        state = qsim.DenseState.from_bits(bits)
        for name, qubits in gates:
            state = qsim.apply_gate(state, name, qubits)
        cols.append(state.amplitudes)
    return np.array(cols).T


def test_toffoli_decomposition_is_exact():
    got = _gate_matrix(cvqc._toffoli(0, 1, 2), 3)
    want = np.eye(8, dtype=complex)
    want[[6, 7]] = want[[7, 6]]
    assert np.allclose(got, want, atol=1e-12)


def test_rotation_strings():
    got = _gate_matrix(cvqc._on(0, cvqc._RY_MINUS), 1)
    theta = -math.pi / 4
    ry = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                   [math.sin(theta / 2), math.cos(theta / 2)]], dtype=complex)
    phase = got[0, 0] / ry[0, 0]
    assert np.allclose(got, phase * ry, atol=1e-12)
    conj = got.conj().T @ _Z @ got
    assert np.allclose(conj, (_Z + _X) / math.sqrt(2), atol=1e-12)
    inv = _gate_matrix(cvqc._on(0, cvqc._RY_PLUS), 1)
    assert np.allclose(inv @ got, np.eye(2), atol=1e-12)


def test_controlled_h_composite():
    got = _gate_matrix(cvqc._controlled_h(0, 1), 2)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(got, want, atol=1e-12)


def test_collection_circuit_shapes():
    circ, wires, width = cvqc._collection_circuit(2, "chsh")
    assert circ.num_qubits == 13 and wires == (6,) and width == 5
    circ, wires, width = cvqc._collection_circuit(2, "commutation")
    assert circ.num_qubits == 12 and wires == (6, 7) and width == 4
    circ, wires, width = cvqc._collection_circuit(2, "teleport")
    assert circ.num_qubits == 6 and width == 0
    assert wires == (2, 3, 4, 5)
    with pytest.raises(ValueError):
        cvqc._collection_circuit(2, "parity")


def test_delegated_teleport_rounds_accept():
    rng = rng_for(13)
    params = cvqc.GameParams(1.0, -1.0)
    base = cvqc.prepared_state(BENCH)
    for _ in range(80):
        q, _, ok = cvqc.honest_round(BENCH, params, rng, delegated=True,
                                     base=base)
        assert q.kind == "teleport" and ok


def test_delegated_correlation_rounds():
    rng = rng_for(14)
    params = cvqc.GameParams(0.0, -1.0)
    base = cvqc.prepared_state(BENCH)
    chsh_wins = chsh_trials = 0
    for _ in range(700):
        q, _, ok = cvqc.honest_round(BENCH, params, rng, delegated=True,
                                     base=base)
        if q.kind == "commutation":
            assert ok
        else:
            chsh_wins += int(ok)
            chsh_trials += 1
    assert chsh_trials > 250
    assert abs(chsh_wins / chsh_trials - qsim.COS2_PI_8) < 0.07


def test_delegated_value_matches_direct():
    params = cvqc.GameParams(0.3, -1.0)
    direct = cvqc.estimate_value(BENCH, params, 4000, rng_for(15))
    deleg = cvqc.estimate_value(BENCH, params, 900, rng_for(16),
                                delegated=True)
    assert abs(direct["value"] - deleg["value"]) < 0.05


def test_delegated_rounds_on_four_qubit_ring(monkeypatch):
    """Every question kind runs on the ring with no state above 15 qubits.

    The 14-wire register plus one gadget helper is the widest state an
    honest round needs; the classical question wires stay bits.
    """
    terms = []
    for i in range(4):
        terms += [("X", i, (i + 1) % 4, 0.125), ("Z", i, (i + 1) % 4, 0.125)]
    ring = cvqc.Hamiltonian(4, tuple(terms))
    alpha = cvqc.min_eigenvalue(ring)
    params = cvqc.GameParams(0.4, alpha, alpha + 1.0)
    base = cvqc.prepared_state(ring)
    monkeypatch.setattr(qsim, "MAX_DENSE_QUBITS", 15)
    rng = rng_for(17)
    seen = set()
    for _ in range(40):
        q, _, ok = cvqc.honest_round(ring, params, rng, delegated=True,
                                     base=base)
        seen.add(q.kind)
        if q.kind == "commutation":
            assert ok
        if len(seen) == 3:
            break
    assert seen == {"chsh", "commutation", "teleport"}
