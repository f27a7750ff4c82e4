import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import apply_bit_function, basis_vector, drop_qubits, trace_distance
from ospsim import gf2, osp, qsim
from ospsim.qsim import (
    AffineBranchState,
    Basis,
    DenseState,
    TwoBranchState,
    collapse_affine,
    collapse_two_branch,
    fidelity,
    measure,
)

RS = math.sqrt(0.5)


def test_h_on_zero():
    out = DenseState.from_bits((0,)).apply("H", 0)
    assert np.allclose(out.amplitudes, [RS, RS])


def test_cnot_on_bell_precursor():
    state = DenseState([RS, 0, RS, 0])  # (|00> + |10>)/sqrt2
    out = state.apply("CNOT", 0, 1)
    assert np.allclose(out.amplitudes, [RS, 0, 0, RS])


def test_p_on_plus():
    plus = DenseState([RS, RS])
    out = plus.apply("P", 0)
    assert np.allclose(out.amplitudes, [RS, RS * 1j])


def test_sqrtx_squares_to_x():
    m = qsim.GATES["SQRTX"]
    assert np.allclose(m @ m, qsim.GATES["X"])


def test_gate_errors():
    state = DenseState.from_bits((0, 0))
    with pytest.raises(ValueError):
        state.apply("H", 5)
    with pytest.raises(ValueError):
        state.apply("CNOT", 1, 1)
    with pytest.raises(ValueError):
        state.apply("NOPE", 0)


def test_dense_limit_is_hard():
    with pytest.raises(ValueError):
        DenseState(np.ones(1 << 21) / math.sqrt(1 << 21))


@pytest.mark.parametrize("build", [
    lambda: DenseState.from_bits((0,) * 21),
    lambda: DenseState.uniform(21),
], ids=["from_bits", "uniform"])
def test_dense_constructors_refuse_a_wide_state_before_allocating(build):
    """2^21 amplitudes would be 32 MiB; the refusal allocates none."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="21 qubits exceeds the 20"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("amplitudes", [[math.nan, 0], [math.inf, 0]],
                         ids=["nan", "inf"])
def test_dense_state_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="not normalized"):
        DenseState(amplitudes)


def test_measure_plus_in_z_frequencies():
    rng = np.random.default_rng(11)
    plus = DenseState([RS, RS])
    zeros = 0
    shots = 100_000
    for _ in range(shots):
        bits, _ = measure(plus, (0,), Basis.Z, rng)
        zeros += bits[0] == 0
    assert abs(zeros / shots - 0.5) < 0.01


def test_measure_zero_in_xplusz():
    # Exact Born probability first, then a sampled sanity check.
    v0 = basis_vector(Basis.XPLUSZ, 0)
    assert abs(abs(v0[0]) ** 2 - math.cos(math.pi / 8) ** 2) < 1e-12
    rng = np.random.default_rng(5)
    hits = 0
    shots = 20_000
    state = DenseState.from_bits((0,))
    for _ in range(shots):
        bits, _ = measure(state, (0,), Basis.XPLUSZ, rng)
        hits += bits[0] == 0
    p = math.cos(math.pi / 8) ** 2
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hits / shots - p) < 4 * sigma


def test_measure_one_in_z_is_deterministic():
    rng = np.random.default_rng(0)
    state = DenseState.from_bits((1,))
    bits, post = measure(state, (0,), Basis.Z, rng)
    assert bits == (1,)
    assert np.allclose(post.amplitudes, [0, 1])


def test_basis_consistency():
    # Measuring H^b|s> in basis b returns s with probability 1.
    rng = np.random.default_rng(3)
    for b in (0, 1):
        for s in (0, 1):
            state = DenseState.from_bits((s,))
            if b:
                state = state.apply("H", 0)
            basis = Basis.X if b else Basis.Z
            for _ in range(20):
                bits, _ = measure(state, (0,), basis, rng)
                assert bits == (s,)


def test_xpz_statistics_on_h_r_s():
    # Measuring H^r|s> in XplusZ returns s with frequency cos^2(pi/8).
    rng = np.random.default_rng(17)
    p = math.cos(math.pi / 8) ** 2
    shots = 100_000
    hits = 0
    for i in range(shots):
        r, s = i & 1, (i >> 1) & 1
        state = DenseState.from_bits((s,))
        if r:
            state = state.apply("H", 0)
        vec = qsim._basis_rotation(Basis.XPLUSZ) @ state.amplitudes
        hits += rng.random() < abs(vec[s]) ** 2
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hits / shots - p) < 3 * sigma


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(set(qsim.GATES) - {"CNOT"})), st.integers(0, 2)
        ),
        max_size=12,
    )
)
def test_unitarity(word):
    state = DenseState.uniform(3)
    for gate, q in word:
        state = state.apply(gate, q)
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12


# ---------------------------------------------------------------- two-branch


def test_two_branch_basics():
    tb = TwoBranchState(2, (0, 1), (1, 0), -1)
    dense = tb.densify()
    assert abs(np.linalg.norm(dense.amplitudes) - 1) < 1e-12
    assert np.allclose(dense.amplitudes, [0, RS, -RS, 0])
    collapsed = TwoBranchState(2, (1, 1), (1, 1), 1j)
    assert collapsed.is_basis and collapsed.phase == 1


def test_two_branch_rejects_offgrid_phase():
    with pytest.raises(ValueError):
        TwoBranchState(1, (0,), (1,), complex(0.6, 0.8))


def test_two_branch_accepts_numpy_ints_and_bools_as_bits():
    tb = TwoBranchState(3, np.array([0, 1, 1]), (True, False, np.int8(1)), -1)
    assert tb.u == (0, 1, 1) and tb.v == (1, 0, 1)
    assert all(type(b) is int for b in tb.u + tb.v)
    assert tb == TwoBranchState(3, (0, 1, 1), (1, 0, 1), -1)


@pytest.mark.parametrize("v", [(0, 2), (0, -1), (0,), (0, 1, 0)],
                         ids=["two", "minus-one", "short", "long"])
def test_two_branch_rejects_a_bad_bit_or_width(v):
    with pytest.raises(ValueError):
        TwoBranchState(2, (0, 0), v)


def test_plane_descriptor_returns_the_shared_grid_instance():
    for k, phase in enumerate(qsim.PHASE_GRID):
        plane = qsim.plane_descriptor(phase)
        assert plane == TwoBranchState(1, (0,), (1,), phase)
        assert plane is qsim.plane_descriptor(phase * (1 + 1e-9))
        assert qsim.phase_index(plane.phase) == k
    assert qsim.plane_descriptor(1) is qsim.plane_descriptor(np.float64(1.0))
    with pytest.raises(ValueError):
        qsim.plane_descriptor(complex(0.6, 0.8))


def test_collapse_differing_keep_matches_contract():
    # u=(0,0,0), v=(1,1,1), keep last: residual Z^{d.(1,1)}|+>, d uniform.
    rng = np.random.default_rng(123)
    state = TwoBranchState(3, (0, 0, 0), (1, 1, 1), 1)
    seen = set()
    for _ in range(200):
        d, residual = collapse_two_branch(state, 2, rng)
        seen.add(d)
        expected_phase = (-1) ** gf2.dot(d, (1, 1))
        assert residual == qsim.plane_descriptor(expected_phase)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_collapse_agreeing_keep_factors_out():
    # u=(0,0,1), v=(1,1,1), keep last: residual |1>, d with d.(1,1)=0.
    rng = np.random.default_rng(77)
    state = TwoBranchState(3, (0, 0, 1), (1, 1, 1), 1)
    seen = set()
    for _ in range(100):
        d, residual = collapse_two_branch(state, 2, rng)
        seen.add(d)
        assert residual == qsim.basis_descriptor((1,))
        assert gf2.dot(d, (1, 1)) == 0
    assert seen == {(0, 0), (1, 1)}


def test_collapse_negative_phase_flips_parity():
    rng = np.random.default_rng(78)
    state = TwoBranchState(3, (0, 0, 1), (1, 1, 1), -1)
    for _ in range(50):
        d, _ = collapse_two_branch(state, 2, rng)
        assert gf2.dot(d, (1, 1)) == 1


def test_collapse_basis_state_uniform():
    rng = np.random.default_rng(9)
    state = TwoBranchState(3, (0, 1, 0), (0, 1, 0), 1)
    seen = set()
    for _ in range(200):
        d, residual = collapse_two_branch(state, 0, rng)
        seen.add(d)
        assert residual == qsim.basis_descriptor((0,))
    assert len(seen) == 4


def test_collapse_width_error():
    with pytest.raises(ValueError):
        collapse_two_branch(TwoBranchState(1, (0,), (1,), 1), 0, np.random.default_rng(0))


@settings(max_examples=40)
@given(
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, -1, 1j, -1j]),
)
def test_collapse_two_branch_matches_dense(width, seed, phase):
    rng = np.random.default_rng(seed)
    u = tuple(rng.integers(0, 2, width))
    v = tuple(rng.integers(0, 2, width))
    keep = int(rng.integers(0, width))
    state = TwoBranchState(width, u, v, phase if u != v else 1)
    # Structured sample.
    d, residual = collapse_two_branch(state, keep, np.random.default_rng(seed + 1))
    # The dense reference must assign the observed (d, residual) a positive
    # probability with exactly the claimed residual.
    others = [i for i in range(width) if i != keep]
    dense = state.densify()
    # Project others onto the X-basis outcome d by hand and compare.
    vec = dense.amplitudes.reshape((2,) * width)
    proj = np.zeros(2, dtype=complex)
    for idx in range(1 << width):
        bits = gf2.int_to_bits(idx, width)
        amp = vec[bits]
        if abs(amp) < 1e-12:
            continue
        other_bits = tuple(bits[i] for i in others)
        sign = (-1) ** gf2.dot(other_bits, d)
        proj[bits[keep]] += amp * sign
    norm = np.linalg.norm(proj)
    assert norm > 1e-9, "structured sampler produced a zero-probability d"
    assert fidelity(DenseState(proj / norm), residual) > 1 - 1e-9


# ------------------------------------------------------------------- affine


def test_affine_product_case():
    state = AffineBranchState(2, (), (1, 0), (1, 0))
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(100):
        d, bit = collapse_affine(state, rng)
        seen.add(d)
        assert bit == 0
    assert len(seen) == 4  # uniform over all strings


def test_affine_span_example():
    state = AffineBranchState(2, ((1, 1),), (0, 0), (1, 0))
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(100):
        d, bit = collapse_affine(state, rng)
        seen.add(d)
        assert bit == gf2.dot(d, (1, 0))
    assert seen == {(0, 0), (1, 1)}


def test_affine_three_bit_example():
    state = AffineBranchState(3, ((1, 0, 0), (0, 1, 0)), (0, 0, 0), (0, 0, 1))
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(100):
        d, bit = collapse_affine(state, rng)
        seen.add(d)
        assert bit == d[2]
    assert seen == {(0, 0, 0), (0, 0, 1)}


def test_affine_dependent_rows_normalized():
    state = AffineBranchState(3, ((1, 1, 0), (1, 1, 0)), (0,) * 3, (1, 1, 1))
    assert state.dimension == 1


def test_affine_densify_matches_definition():
    state = AffineBranchState(2, ((0, 1),), (1, 0), (0, 0))
    dense = state.densify()
    # branch 0: |1,10>,|1,11> ... branch qubit first then 2-bit register
    expected = np.zeros(8)
    for bits in [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]:
        expected[gf2.bits_to_int(bits)] = 0.5
    assert np.allclose(dense.amplitudes, expected)


def test_affine_matches_dense_oracle():
    rng = np.random.default_rng(10)
    state = AffineBranchState(3, ((1, 1, 0),), (0, 0, 1), (1, 0, 0))
    # Exact outcome set from dense Hadamard measurement of the register part.
    dense = state.densify()  # 4 qubits, branch first
    counts = {}
    for _ in range(400):
        d, bit = collapse_affine(state, rng)
        counts[(d, bit)] = counts.get((d, bit), 0) + 1
        # residual claim: register measurement of densified state in X basis
        # can produce d, and the branch qubit is then Z^bit|+>.
        vec = dense.amplitudes.reshape((2,) * 4)
        proj = np.zeros(2, dtype=complex)
        for idx in range(16):
            bits = gf2.int_to_bits(idx, 4)
            amp = vec[bits]
            if abs(amp) < 1e-12:
                continue
            sign = (-1) ** gf2.dot(bits[1:], d)
            proj[bits[0]] += amp * sign
        norm = np.linalg.norm(proj)
        assert norm > 1e-9
        target = qsim.plane_descriptor(-1 if bit else 1)
        assert fidelity(DenseState(proj / norm), target) > 1 - 1e-9
    # d uniform over the dual set {d : d.(1,1,0)=0}, 4 elements
    assert len({d for d, _ in counts}) == 4


# ---------------------------------------------------------------- distances


def test_trace_distance_identical():
    z = DenseState.from_bits((0,))
    assert trace_distance(z, z) < 1e-12


def test_trace_distance_orthogonal():
    a = DenseState.from_bits((0,))
    b = DenseState.from_bits((1,))
    assert abs(trace_distance(a, b) - 1) < 1e-12


def test_trace_distance_zero_plus():
    a = DenseState.from_bits((0,))
    b = DenseState([RS, RS])
    assert abs(trace_distance(a, b) - RS) < 1e-12
    # closed form sqrt(1 - |<a|b>|^2)
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    assert abs(trace_distance(a, b) - math.sqrt(1 - overlap)) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(DenseState.from_bits((0,)), DenseState.from_bits((0, 0)))


# ------------------------------------------------------- outcome targets


@pytest.mark.parametrize("b,s", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_osp_target_is_h_to_the_b_on_s(b, s):
    vec = basis_vector(Basis.Z, s)
    if b:
        vec = qsim.GATES["H"] @ vec
    target = osp.OspOutcome(b, s, None).target
    assert np.allclose(target.densify().amplitudes, vec)
    assert fidelity(target, DenseState(vec)) == pytest.approx(1.0, abs=1e-12)
    # |s> itself projects onto H|s> with norm sqrt(1/2)
    assert fidelity(target, DenseState.from_bits((s,))) == pytest.approx(
        0.5 if b else 1.0, abs=1e-12)


def test_csg_target_is_the_claw_pair():
    out = osp.CsgOutcome((0, 1, 0), (1, 1, 1), 0, None)
    assert out.target == TwoBranchState(3, (0, 1, 0), (1, 1, 1), 1)
    assert fidelity(out.target, DenseState.from_bits((0, 1, 0))) == (
        pytest.approx(0.5, abs=1e-12))


def test_csg_target_carries_the_minus_phase_when_z_is_one():
    out = osp.CsgOutcome((0, 1, 0), (1, 1, 1), 1, None)
    assert out.target == TwoBranchState(3, (0, 1, 0), (1, 1, 1), -1)
    plus = osp.CsgOutcome((0, 1, 0), (1, 1, 1), 0, None).target
    assert fidelity(out.target, plus) == pytest.approx(0.0, abs=1e-12)


def test_differentiated_csg_target_has_the_tag_wire():
    out = osp.CsgOutcome((0, 1), (1, 0), 1, None, differentiated=True)
    assert out.target == TwoBranchState(3, (0, 0, 1), (1, 1, 0), -1)


def test_degenerate_claw_has_no_target():
    out = osp.CsgOutcome((0, 1), (0, 1), 0, None)
    with pytest.raises(ValueError, match="degenerate claw"):
        out.target


# ------------------------------------------------------------------ helpers


def test_apply_bit_function():
    state = DenseState.uniform(2)
    out = apply_bit_function(state, (0, 1), lambda bits: bits[0] ^ bits[1], 1)
    for idx in range(8):
        b = gf2.int_to_bits(idx, 3)
        expected = 0.5 if b[2] == b[0] ^ b[1] else 0.0
        assert abs(abs(out.amplitudes[idx]) - expected) < 1e-12


def test_drop_qubits():
    state = DenseState.from_bits((1, 0, 1))
    out = drop_qubits(state, (0, 2), (1, 1))
    assert out.num_qubits == 1
    assert np.allclose(out.amplitudes, [1, 0])
    with pytest.raises(ValueError):
        drop_qubits(DenseState.uniform(2), (0,), (0,))


# ------------------------------------------- dense kernels vs kron projectors

_C8, _S8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
# Eigenvector of each outcome bit, written out from the basis definitions.
_EIGEN = {
    Basis.Z: ([1, 0], [0, 1]),
    Basis.X: ([RS, RS], [RS, -RS]),
    Basis.Y: ([RS, 1j * RS], [RS, -1j * RS]),
    Basis.XPLUSZ: ([_C8, _S8], [-_S8, _C8]),
    Basis.XMINUSZ: ([_C8, -_S8], [_S8, _C8]),
}
_PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
          "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
_WIRE_LISTS = [(2,), (0,), (3, 1), (0, 2), (1, 3, 0), (2, 0, 3)]


def _random_state(seed, n=4):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return DenseState(vec / np.linalg.norm(vec))


def _embed(ops, n=4):
    """kron over all n wires of ops[wire], the identity elsewhere."""
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def _embed_operator(mat, wires, n=4):
    """mat on the listed wires as a sum of kron products of |a><b| terms."""
    k = len(wires)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for a in range(1 << k):
        for b in range(1 << k):
            ket, bra = gf2.int_to_bits(a, k), gf2.int_to_bits(b, k)
            out += mat[a, b] * _embed({q: np.outer(np.eye(2)[i], np.eye(2)[j])
                                       for q, i, j in zip(wires, ket, bra)}, n)
    return out


@pytest.mark.parametrize("wires", _WIRE_LISTS)
def test_apply_gate_matches_kron_operators(wires):
    k = len(wires)
    rng = np.random.default_rng(100 + sum(wires) * 7 + k)
    raw = rng.normal(size=(1 << k,) * 2) + 1j * rng.normal(size=(1 << k,) * 2)
    unitary = np.linalg.qr(raw)[0]
    state = _random_state(20 + k)
    want = _embed_operator(unitary, wires) @ state.amplitudes
    got = qsim.apply_gate(state, unitary, wires)
    assert np.allclose(got.amplitudes, want, rtol=0, atol=1e-12)


class _Midpoint:
    """Stand-in generator: random() returns the midpoint of outcome's cdf
    interval under the exact law, so only that outcome can be drawn."""

    def __init__(self, law, outcome):
        self.u = (sum(law[:outcome]) + sum(law[:outcome + 1])) / 2
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("wires", _WIRE_LISTS)
def test_measure_matches_kron_projectors(basis, wires):
    state = _random_state(len(wires) * 10 + list(Basis).index(basis))
    k = len(wires)
    projectors, law = [], []
    for outcome in range(1 << k):
        bits = gf2.int_to_bits(outcome, k)
        proj = _embed({q: np.outer(_EIGEN[basis][b], np.conj(_EIGEN[basis][b]))
                       for q, b in zip(wires, bits)})
        hit = proj @ state.amplitudes
        projectors.append(hit)
        law.append(float(np.vdot(hit, hit).real))
    for outcome, hit in enumerate(projectors):
        bits = gf2.int_to_bits(outcome, k)
        rng = _Midpoint(law, outcome)
        got, post = measure(state, wires, basis, rng)
        assert got == bits
        assert rng.calls == 1
        prob = law[outcome]
        assert np.allclose(post.amplitudes, hit / math.sqrt(prob), atol=1e-12)


def test_draw_index_matches_choice():
    """Same index as Generator.choice(len(p), p=p), and the same stream."""
    source = np.random.default_rng(20261019)
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for trial in range(6000):
        p = source.random(int(source.integers(2, 9)))
        if trial % 3 == 0:  # some outcomes impossible, the last one too
            p[source.random(p.size) < 0.4] = 0.0
            if not p.any():
                p[int(source.integers(0, p.size))] = 1.0
        p = p / p.sum()
        assert qsim.draw_index(p.tolist(), ours) == int(
            theirs.choice(p.size, p=p))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("basis", list(Basis))
def test_readout_draws_what_measure_draws(basis):
    state = _random_state(40 + list(Basis).index(basis))
    for seed in range(40):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        for wires in _WIRE_LISTS:
            bits, _ = measure(state, wires, basis, theirs)
            assert qsim.readout(state, wires, basis, ours) == bits
        assert ours.random() == theirs.random()


class _Coin:
    """Stand-in generator whose random() always returns value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("wires,strings", [
    ((1,), [(1.0, "Z")]),
    ((3,), [(RS, "Z"), (RS, "X")]),
    ((2, 0), [(1.0, "XY")]),
    ((0, 3), [(RS, "ZI"), (-RS, "XX")]),
    ((3, 1, 2), [(RS, "ZZI"), (RS, "XIX")]),
])
def test_measure_observable_matches_kron_projectors(wires, strings):
    """Observables are sums of anticommuting Pauli strings, so involutions."""
    state = _random_state(sum(wires) + len(strings))
    local = sum(c * _embed({j: _PAULI[p] for j, p in enumerate(word)},
                           len(word)) for c, word in strings)
    full = sum(c * _embed({q: _PAULI[p] for q, p in zip(wires, word)})
               for c, word in strings)
    assert np.allclose(full @ full, np.eye(16))
    plus = 0.5 * (state.amplitudes + full @ state.amplitudes)
    p_plus = float(np.vdot(plus, plus).real)
    assert 1e-3 < p_plus < 1 - 1e-3
    for bit, coin, hit in ((0, 0.0, plus), (1, 1.0, state.amplitudes - plus)):
        got, post = qsim.measure_observable(state, local, wires, _Coin(coin))
        assert got == bit
        assert np.allclose(post.amplitudes, hit / np.linalg.norm(hit),
                           atol=1e-12)


@pytest.mark.parametrize("wires,bits", [
    ((0,), (1,)), ((3,), (0,)), ((2, 0), (0, 1)), ((1, 3, 2), (1, 1, 0)),
])
def test_drop_qubits_matches_kron_projectors(wires, bits):
    rest = _random_state(7, 4 - len(wires))
    # Put the kept state on the other wires and the given bits on wires.
    others = [q for q in range(4) if q not in wires]
    full = np.zeros(16, dtype=complex)
    for index in range(16):
        word = gf2.int_to_bits(index, 4)
        if all(word[q] == b for q, b in zip(wires, bits)):
            full[index] = rest.amplitudes[
                gf2.bits_to_int([word[q] for q in others])]
    proj = _embed({q: np.diag([1 - b, b]) for q, b in zip(wires, bits)})
    assert np.allclose(proj @ full, full)
    out = drop_qubits(DenseState(full), wires, bits)
    assert out.num_qubits == len(others)
    assert np.allclose(out.amplitudes, rest.amplitudes, atol=1e-12)


@pytest.mark.parametrize("wires", [(-1,), (4,), (0, 4), (1, 1), (2, 0, 2)],
                         ids=["negative", "past-end", "one-past-end",
                              "duplicate", "duplicate-of-three"])
def test_every_dense_entry_point_checks_its_wires(wires):
    state = _random_state(3)
    k = len(wires)
    eye = np.eye(1 << k)
    with pytest.raises(ValueError):
        qsim.apply_gate(state, eye, wires)
    for basis in (Basis.Z, Basis.X):
        with pytest.raises(ValueError):
            measure(state, wires, basis, np.random.default_rng(0))
    with pytest.raises(ValueError):
        qsim.measure_observable(state, eye, wires, np.random.default_rng(0))
    with pytest.raises(ValueError):
        drop_qubits(DenseState.from_bits((0,) * 4), wires, (0,) * k)


def test_bit_and_operator_sizes_must_fit_the_wires():
    basis_state = DenseState.from_bits((0, 1, 0))
    with pytest.raises(ValueError):
        drop_qubits(basis_state, [0], (0, 1))
    with pytest.raises(ValueError):
        drop_qubits(basis_state, [0, 1], (0,))
    with pytest.raises(ValueError):
        drop_qubits(basis_state, [0], (2,))
    with pytest.raises(ValueError):
        qsim.apply_gate(basis_state, "CNOT", [0])
    with pytest.raises(ValueError):
        qsim.measure_observable(basis_state, qsim.GATES["Z"], [0, 1],
                                np.random.default_rng(0))


def test_dense_to_two_branch_roundtrip():
    tb = TwoBranchState(3, (0, 0, 1), (1, 1, 0), 1j)
    back = qsim.dense_to_two_branch(tb.densify())
    assert back == tb
    with pytest.raises(ValueError):
        qsim.dense_to_two_branch(DenseState.uniform(2))


def test_apply_1q_descriptor():
    assert qsim.apply_1q(qsim.basis_descriptor((0,)), "H") == qsim.plane_descriptor(1)
    assert qsim.apply_1q(qsim.basis_descriptor((1,)), "H") == qsim.plane_descriptor(-1)
    assert qsim.apply_1q(qsim.plane_descriptor(1), "H") == qsim.basis_descriptor((0,))
    # sqrtX fixes the X-plane and maps |0>,|1> to the Y-plane
    assert qsim.apply_1q(qsim.basis_descriptor((0,)), "SQRTX") == qsim.plane_descriptor(1j)
    assert qsim.apply_1q(qsim.basis_descriptor((1,)), "SQRTX") == qsim.plane_descriptor(-1j)
    assert qsim.apply_1q(qsim.plane_descriptor(1), "SQRTX") == qsim.plane_descriptor(1)


_ONE_QUBIT_GATES = [name for name, mat in qsim.GATES.items()
                    if mat.shape == (2, 2)]
_DESCRIPTORS_1Q = [qsim.basis_descriptor((u,)) for u in (0, 1)] + [
    TwoBranchState(1, (u,), (1 - u,), phase)
    for u in (0, 1) for phase in qsim.PHASE_GRID]


def test_apply_1q_memo_matches_dense_for_every_descriptor():
    assert len(set(_DESCRIPTORS_1Q)) == 18
    qsim._apply_named_1q.cache_clear()
    exact = 0
    for descriptor in _DESCRIPTORS_1Q:
        for name in _ONE_QUBIT_GATES:
            vec = qsim.GATES[name] @ descriptor.densify().amplitudes
            try:
                want = qsim.dense_to_two_branch(DenseState(vec))
            except ValueError:  # e.g. H on a pi/4 phase: not a branch pair
                want = None
            exact += want is not None
            for spelled in (name, name.lower(), name):  # later calls hit
                if want is None:
                    with pytest.raises(ValueError):
                        qsim.apply_1q(descriptor, spelled)
                else:
                    assert qsim.apply_1q(descriptor, spelled) == want
    assert exact > 100
    assert qsim._apply_named_1q.cache_info().currsize == exact


def test_apply_1q_errors_are_not_memoised():
    plus = qsim.plane_descriptor(1)
    pair = TwoBranchState(2, (0, 0), (1, 1))
    size = qsim._apply_named_1q.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            qsim.apply_1q(plus, "CNOT")
        with pytest.raises(ValueError):
            qsim.apply_1q(pair, "H")
    assert qsim._apply_named_1q.cache_info().currsize == size


def test_measure_descriptor():
    rng = np.random.default_rng(4)
    assert qsim.measure_descriptor(qsim.basis_descriptor((1,)), Basis.Z, rng) == 1
    assert qsim.measure_descriptor(qsim.plane_descriptor(-1), Basis.X, rng) == 1
    assert qsim.measure_descriptor(qsim.plane_descriptor(1j), Basis.Y, rng) == 0


@pytest.mark.parametrize("basis", list(Basis))
def test_measure_descriptor_matches_the_dense_law(basis):
    """On every one-qubit descriptor, the fast path reads 1 exactly when
    the generator's u falls below the dense law's probability of 1."""
    for descriptor in _DESCRIPTORS_1Q:
        p1 = qsim.BasisLaw(descriptor.densify(), [0], basis).probs[1]
        assert qsim.measure_descriptor(descriptor, basis, _Coin(p1 - 1e-12)) == 1
        assert qsim.measure_descriptor(descriptor, basis, _Coin(p1 + 1e-12)) == 0


def _grid_descriptors(width):
    strings = [gf2.int_to_bits(i, width) for i in range(1 << width)]
    out = [TwoBranchState(width, u, u) for u in strings]
    out += [TwoBranchState(width, u, v, p) for u in strings for v in strings
            if u != v for p in qsim.PHASE_GRID]
    return out


def test_two_branch_fidelity_closed_form_matches_dense():
    """Every pair of width-1 and width-2 descriptors on the phase grid:
    the closed form equals the overlap of the densified vectors."""
    for width in (1, 2):
        states = _grid_descriptors(width)
        vectors = [s.densify().amplitudes for s in states]
        for a, va in zip(states, vectors):
            for b, vb in zip(states, vectors):
                want = abs(np.vdot(va, vb)) ** 2
                assert abs(fidelity(a, b) - want) <= 1e-12
    with pytest.raises(ValueError):
        fidelity(TwoBranchState(1, (0,), (1,)), TwoBranchState(2, (0, 0), (1, 1)))
