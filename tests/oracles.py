"""Reference functions that only the tests use.

Each one is a plain computation (dense, brute force or tuple-based) that
a test compares the simulator against, or a constructor only tests call;
none of them is on a protocol path.
"""

from fractions import Fraction

import numpy as np

from ospsim import cvqc, delegation, gadgets, gf2, osp, qsim, tcf


def basis_vector(basis, outcome: int) -> np.ndarray:
    """The eigenvector of the given basis labelled by outcome bit."""
    rot = qsim._basis_rotation(basis)
    return rot.conj().T[:, outcome].copy()


def uniform_state(num_qubits: int) -> qsim.DenseState:
    """The equal superposition of every basis string.  Like from_bits, it
    refuses a state past the dense limit before it allocates it."""
    qsim._check_width(num_qubits)
    amp = 2 ** (-num_qubits / 2)
    return qsim.DenseState(np.full(1 << num_qubits, amp, dtype=complex))


def rank(rows) -> int:
    """GF(2) rank of an iterable of bit tuples."""
    return len(gf2.row_reduce([gf2.bits_to_int(r) for r in rows]))


def span_contains(basis_rows, v) -> bool:
    """Whether bit tuple v lies in the span of the given bit-tuple rows."""
    value = gf2.bits_to_int(v)
    for piv in gf2.row_reduce([gf2.bits_to_int(r) for r in basis_rows]):
        value = min(value, value ^ piv)
    return value == 0


def nullspace(rows, width: int):
    """Basis (list of bit tuples) of {d : d.r = 0 for every row r}; the
    bit-tuple reference for gf2.nullspace."""
    packed = gf2.row_reduce([gf2.bits_to_int(r) for r in rows])
    # Identify pivot columns of the echelon rows, then back-fill free columns.
    pivot_of_col = {}
    for row in packed:
        col = width - row.bit_length()
        pivot_of_col[col] = row
    free_cols = [c for c in range(width) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        vec = [0] * width
        vec[fc] = 1
        # Solve pivot values so every constraint row has even overlap.
        for col in sorted(pivot_of_col, reverse=True):
            row = pivot_of_col[col]
            row_bits = gf2.int_to_bits(row, width)
            acc = 0
            for c in range(width):
                if c != col:
                    acc ^= row_bits[c] & vec[c]
            vec[col] = acc
        basis.append(tuple(vec))
    return basis


def sample_span(basis_rows, rng):
    """Uniform element of the span of the given (bit tuple) rows; the
    bit-tuple reference for gf2.sample_span."""
    rows = [tuple(r) for r in basis_rows]
    if not rows:
        raise ValueError("empty basis has no width information")
    w = len(rows[0])
    out = (0,) * w
    indep = gf2.row_reduce([gf2.bits_to_int(r) for r in rows])
    for piv in indep:
        if rng.integers(0, 2):
            out = gf2.xor_vec(out, gf2.int_to_bits(piv, w))
    return out


def solve_affine(constraints, width: int):
    """Particular solution v with v.a_i = b_i for (a_i, b_i) bit-tuple
    pairs, or None; the bit-tuple reference for gf2.solve_affine.

    Returns (particular, homogeneous_basis) where the basis spans all
    solutions of the associated homogeneous system.
    """
    # Augmented int rows: constraint vector shifted left once, parity bit last.
    aug = []
    for vec, bit in constraints:
        if len(vec) != width:
            raise ValueError("constraint width mismatch")
        aug.append((gf2.bits_to_int(vec) << 1) | (bit & 1))
    reduced = gf2.row_reduce(aug)
    for row in reduced:
        if row == 1:
            return None  # 0 = 1, inconsistent
    # Back substitution on echelon rows.
    particular = [0] * width
    for row in sorted(reduced):
        col = width + 1 - row.bit_length()
        bits = gf2.int_to_bits(row, width + 1)
        acc = bits[width]
        for c in range(col + 1, width):
            acc ^= bits[c] & particular[c]
        particular[col] = acc
    homogeneous = nullspace([gf2.int_to_bits(r >> 1, width) for r in reduced],
                            width)
    return tuple(particular), homogeneous


def sample_solution(constraints, width: int, rng):
    """Uniform v satisfying all (vector, parity) bit-tuple constraints, or
    None; the bit-tuple reference for gf2.sample_solution."""
    solved = solve_affine(constraints, width)
    if solved is None:
        return None
    particular, homogeneous = solved
    out = particular
    for hvec in homogeneous:
        if rng.integers(0, 2):
            out = gf2.xor_vec(out, hvec)
    return out


def claw_oracle(pp) -> dict:
    """Brute-force map from image int to the tuple of its preimages.

    Preimages are x tuples for the plain family and (b, x) pairs for the
    dual family. Ground truth for all decode tests; n <= 12 only.
    """
    if pp.n > 12:
        raise ValueError("claw_oracle limited to n <= 12")
    out: dict = {}
    for b, row in enumerate(pp.table):
        for xi, y in enumerate(row):
            x = gf2.int_to_bits(xi, pp.n)
            out.setdefault(y, []).append(x if pp.mode == "plain" else (b, x))
    return {y: tuple(v) for y, v in out.items()}


def same_stream(fn, oracle, seed, *args):
    """Run fn and oracle on twin generators seeded alike; return their
    common output, or fail when the outputs or the final generator states
    differ."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = fn(*args, ours), oracle(*args, theirs)
    assert got == want, (got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    return got


def two_round_receiver(pp, rng):
    """The two-round receiver through the general branch-pair collapse;
    the reference for osp.two_round_receiver."""
    n = pp.n
    if pp.mode == "plain":
        raise ValueError("two-round receiver needs the dual-mode family")
    b_in = int(rng.integers(0, 2))
    x = rng.integers(0, 2, n).tolist()
    y = tcf.eval(pp, b_in, x)
    y_int = gf2.bits_to_int(y)
    pre = [(b, row.index(y_int)) for b, row in enumerate(pp.table)
           if y_int in row]
    if len(pre) == 2:
        (b0, x0), (b1, x1) = pre
        joint = qsim.TwoBranchState(
            n + 1,
            (b0,) + gf2.int_to_bits(x0, n),
            (b1,) + gf2.int_to_bits(x1, n),
            1,
        )
        d, residual = qsim.collapse_two_branch(joint, 0, rng)
    else:
        d = tuple(int(t) for t in rng.integers(0, 2, n))
        residual = qsim.basis_descriptor((b_in,))
    return y, d, residual


def standard_epsilon_config(epsilon, lam: int) -> osp.EpsilonOspConfig:
    """The epsilon-OSP config with lam * 8^(layers - j) claws at layer j."""
    eps = Fraction(epsilon)
    layers = eps.denominator.bit_length() - 1
    budget = tuple(lam * 8 ** (layers - j) for j in range(layers + 1))
    return osp.EpsilonOspConfig(eps, budget)


def measure_observable(state, observable, wires, rng):
    """Two-outcome measurement of an involution on the listed wires.

    Returns (bit, post-measurement DenseState); bit 0 means outcome +1.
    """
    law = qsim.ObservableLaw(state, observable, wires)
    bit = law.draw(rng)
    return bit, law.branch(bit)


def trace_distance(a, b) -> float:
    """Trace distance between two pure states given as vectors."""
    va = qsim.densify(a).amplitudes
    vb = qsim.densify(b).amplitudes
    if va.size != vb.size:
        raise ValueError("state sizes differ")
    rho = np.outer(va, va.conj()) - np.outer(vb, vb.conj())
    eigs = np.linalg.eigvalsh(rho)
    return float(0.5 * np.sum(np.abs(eigs)))


def apply_bit_function(state, input_qubits, fn, out_width: int):
    """|x>|0^k> -> |x>|f(x)>: append out_width qubits holding fn of the bits.

    fn receives the bit tuple of the listed input qubits and returns either
    an int below 2^out_width or a bit tuple.
    """
    n = state.num_qubits
    input_qubits = tuple(int(q) for q in input_qubits)
    if n + out_width > qsim.MAX_DENSE_QUBITS:
        raise ValueError("bit function output exceeds the dense qubit limit")
    new = np.zeros(1 << (n + out_width), dtype=complex)
    amps = state.amplitudes
    for idx in np.flatnonzero(np.abs(amps) > 0):
        bits = gf2.int_to_bits(int(idx), n)
        val = fn(tuple(bits[q] for q in input_qubits))
        if not isinstance(val, int):
            val = gf2.bits_to_int(val)
        if not 0 <= val < (1 << out_width):
            raise ValueError("bit function value out of range")
        new[(int(idx) << out_width) | val] = amps[idx]
    return qsim.DenseState(new)


def drop_qubits(state, qubits, expected_bits):
    """Remove qubits known to sit in a basis state (e.g. after measurement)."""
    wires, block = qsim._block(state, qubits)
    sub = block[gf2.bits_to_int(qsim._check_bits(expected_bits, len(wires)))]
    norm = np.linalg.norm(sub)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("dropped qubits were not classical (mass %g)" % norm**2)
    return qsim.DenseState(sub)


def anticommutator_norm(a, b) -> float:
    """Spectral norm of {Z-parity(a), X-parity(b)}: 0 when the overlap is
    odd, 2 when it is even."""
    a = tuple(int(t) for t in a)
    b = tuple(int(t) for t in b)
    if len(a) != len(b):
        raise ValueError("support vectors must have equal length")
    za = cvqc.pauli_string("Z", a)
    xb = cvqc.pauli_string("X", b)
    return float(np.linalg.norm(za @ xb + xb @ za, 2))


def dense_csg_from_ecnot(n: int, rng, source=None) -> osp.CsgOutcome:
    """The literal circuit gadgets.csg_from_ecnot stands for: n switched
    CNOTs from a |+> control on an (n+1)-qubit dense state, read back as
    a branch pair."""
    if n < 1:
        raise ValueError("need at least one target qubit")
    if n + 1 > qsim.MAX_DENSE_QUBITS:
        raise ValueError("claw width exceeds the dense simulation budget")
    delta = tuple(int(t) for t in rng.integers(0, 2, n))
    while not any(delta):
        delta = tuple(int(t) for t in rng.integers(0, 2, n))

    state = qsim.DenseState.from_bits((0,) * (n + 1))
    state = qsim.apply_gate(state, "H", [0])
    x_acc = [0] * (n + 1)
    z_acc = [0] * (n + 1)
    transcript = []
    for i in range(n):
        res = gadgets.ecnot_run(state, 0, 1 + i, delta[i], rng, source)
        state = res.state
        x_acc[0] ^= res.x_keys[0]
        x_acc[1 + i] ^= res.x_keys[1]
        z_acc[0] ^= res.z_keys[0]
        z_acc[1 + i] ^= res.z_keys[1]
        transcript.extend(res.transcript)

    r0 = x_acc[0]
    r = tuple(x_acc[1:])
    x0 = tuple(r[i] ^ (r0 & delta[i]) for i in range(n))
    x1 = tuple(r[i] ^ ((1 ^ r0) & delta[i]) for i in range(n))
    z = z_acc[0]
    for i in range(n):
        z ^= z_acc[1 + i] & delta[i]
    receiver = qsim.dense_to_two_branch(state)
    return osp.CsgOutcome(x0, x1, z, receiver, transcript, differentiated=True)


def dense_direct_answers(ham, question, state, rng):
    """The direct energy-game walk that cvqc._direct_answers memoises: every
    round measures a fresh dense state from the base, step by step."""
    lam = ham.num_qubits
    alice = list(range(lam, 2 * lam))
    if question.kind == "chsh":
        mat = cvqc._chsh_observable(question.a, question.b, question.x)
        bit, state = measure_observable(state, mat, alice, rng)
        s_a = (bit,)
    elif question.kind == "commutation":
        za, state = measure_observable(
            state, cvqc.pauli_string("Z", question.a), alice, rng)
        xb, state = measure_observable(
            state, cvqc.pauli_string("X", question.b), alice, rng)
        s_a = (za, xb)
    else:
        for i in range(lam):
            state = state.apply("CNOT", 2 * lam + i, lam + i)
            state = state.apply("H", 2 * lam + i)
        xkeys, state = qsim.measure(state, alice, qsim.Basis.Z, rng)
        zkeys, state = qsim.measure(
            state, [2 * lam + i for i in range(lam)], qsim.Basis.Z, rng)
        s_a = tuple(xkeys) + tuple(zkeys)
    basis = qsim.Basis.Z if question.y == 0 else qsim.Basis.X
    return s_a, qsim.readout(state, list(range(lam)), basis, rng)


def dense_delegate_on_state(circuit, state, input_bits, rng, source=None,
                            pad_override=None):
    """The gate-by-gate pass that delegation.delegate_on_state plans: every
    gate that lands on the dense state is one qsim.apply_gate, and each T
    or TDG there is one diagonal, the gate and its gadget's together."""
    if source is None:
        source = osp.ideal_stub_source
    n = circuit.num_qubits
    k = state.num_qubits
    bits = tuple(int(b) for b in input_bits)
    if k + len(bits) != n:
        raise ValueError("register plus classical input must fill the circuit")
    if pad_override is None:
        pad = tuple(int(t) for t in rng.integers(0, 2, len(bits)))
    else:
        pad = tuple(pad_override)
    frame = delegation.PauliFrame([0] * k + list(pad), [0] * n)
    padded = [b ^ p for b, p in zip(bits, pad)]
    transcript = [
        {"role": "client", "kind": "padded-input",
         "payload": {"bits": list(padded), "register": k}},
    ]
    split = k
    if not delegation._stays_classical(circuit, k):
        state = state.tensor(qsim.DenseState.from_bits(padded))
        split, padded = n, []

    for name, qubits in circuit.gates:
        if name in delegation.NON_CLIFFORD_GATES:
            q = qubits[0]
            phase, z_key, m = gadgets.phase_readout(frame.r[q], rng, source)
            if q < split:
                state = qsim.apply_gate(state, phase @ qsim.GATES[name],
                                        qubits)
            frame.s[q] ^= z_key
            if name == "T":
                frame.apply_clifford("P", qubits)
            transcript.append({"role": "server", "kind": "phase-outcome",
                               "payload": {"m": m}})
            continue
        if all(q < split for q in qubits):
            state = qsim.apply_gate(state, name, qubits)
        elif name == "X":
            padded[qubits[0] - split] ^= 1
        elif name == "CNOT":
            c, t = qubits
            if t >= split:
                padded[t - split] ^= padded[c - split]
            elif padded[c - split]:
                state = qsim.apply_gate(state, "X", [t])
        frame.apply_clifford(name, qubits)
    return delegation.DelegationResult(circuit, state, frame, transcript,
                                       tuple(padded))
