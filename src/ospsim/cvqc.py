"""Single-round energy test for two-local XZ Hamiltonians.

A classical referee plays one round against two isolated provers who share
EPR pairs plus a low-energy state of the Hamiltonian.  Three question
types are mixed: a CHSH round and a commutation round certify that the
provers really measure anticommuting (resp. commuting) Pauli parities,
and a teleport round extracts an energy estimate by having one prover
teleport the data register through the shared pairs while the other reads
it out in a random Pauli basis.  The honest strategy is implemented both
with direct projective measurements and as a padded delegated circuit,
so the two can be compared round for round.

The direct strategy keeps a memo per base state.  Its outcome laws depend
only on the base, the question fields and the outcomes drawn so far, so
each law is computed once and each post-state built when its outcome is
first drawn; the draws are unchanged.  The memo is keyed by the base
object under a weak reference and goes when the base does.  The dense walk
that measures a fresh state every round is kept as the test oracle
dense_direct_answers in tests/oracles.py.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import delegation, gf2, qsim

REJECTION_LIMIT = 10 ** 4
# Widest Hamiltonian that min_eigenvalue and ground_state diagonalize.
MAX_DIAGONALIZED_QUBITS = 4
_SQRT2 = math.sqrt(2.0)

_AXES = ("X", "Z")


@dataclass(frozen=True)
class Hamiltonian:
    """Normalized two-local Hamiltonian: terms are (axis, i, j, weight)."""

    num_qubits: int
    terms: tuple

    def __post_init__(self):
        if self.num_qubits < 2:
            raise ValueError("need at least two qubits")
        checked = []
        total = 0.0
        for axis, i, j, weight in self.terms:
            axis = str(axis).upper()
            i, j, weight = int(i), int(j), float(weight)
            if axis not in _AXES:
                raise ValueError("axis must be X or Z, got %r" % axis)
            if i == j:
                raise ValueError("term acts on two distinct qubits")
            if not (0 <= i < self.num_qubits and 0 <= j < self.num_qubits):
                raise ValueError("qubit index out of range")
            if not math.isfinite(weight):
                raise ValueError("weights must be finite, got %r" % weight)
            if weight < 0:
                raise ValueError("weights must be nonnegative")
            total += weight
            checked.append((axis, i, j, weight))
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to one, got %r" % total)
        object.__setattr__(self, "terms", tuple(checked))

    @cached_property
    def x_terms(self):
        return tuple(t for t in self.terms if t[0] == "X")

    @cached_property
    def z_terms(self):
        return tuple(t for t in self.terms if t[0] == "Z")

    @cached_property
    def x_weight(self) -> float:
        return sum(t[3] for t in self.x_terms)


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Read the line format: a QUBITS header, then one term per line."""
    num_qubits, rows = delegation.read_line_format(text, "term")
    terms = []
    for lineno, parts in rows:
        if len(parts) != 4:
            raise ValueError("line %d: want AXIS i j weight" % lineno)
        terms.append((parts[0], int(parts[1]), int(parts[2]), float(parts[3])))
    return Hamiltonian(num_qubits, tuple(terms))


@lru_cache(maxsize=4096)
def _pauli_string_cached(axis: str, support: tuple) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    single, eye = qsim.GATES[axis], np.eye(2, dtype=complex)
    for bit in support:
        out = np.kron(out, single if bit else eye)
    out.setflags(write=False)
    return out


def pauli_string(axis: str, support) -> np.ndarray:
    """Tensor product with the named Pauli on every set bit of support.

    The returned array is cached and read only.
    """
    if axis not in _AXES:
        raise ValueError("axis must be X or Z")
    return _pauli_string_cached(axis, tuple(int(b) for b in support))


@lru_cache(maxsize=4096)
def _chsh_observable(a: tuple, b: tuple, x: int) -> np.ndarray:
    """(Z_a + X_b)/sqrt(2), or (Z_a - X_b)/sqrt(2) when x is 1; read only."""
    sign = -1.0 if x else 1.0
    out = (pauli_string("Z", a) + sign * pauli_string("X", b)) / _SQRT2
    out.setflags(write=False)
    return out


def _indicator(i: int, j: int, width: int) -> tuple:
    return tuple(1 if q in (i, j) else 0 for q in range(width))


def hamiltonian_matrix(ham: Hamiltonian) -> np.ndarray:
    dim = 1 << ham.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for axis, i, j, weight in ham.terms:
        out += weight * pauli_string(axis, _indicator(i, j, ham.num_qubits))
    return out


def _check_diagonalizable(ham: Hamiltonian):
    if ham.num_qubits > MAX_DIAGONALIZED_QUBITS:
        raise ValueError("dense diagonalization is capped at %d qubits, got %d"
                         % (MAX_DIAGONALIZED_QUBITS, ham.num_qubits))


def min_eigenvalue(ham: Hamiltonian) -> float:
    _check_diagonalizable(ham)
    return float(np.linalg.eigvalsh(hamiltonian_matrix(ham))[0])


def ground_state(ham: Hamiltonian) -> np.ndarray:
    """Lowest-index eigenvector of the smallest eigenvalue (deterministic)."""
    _check_diagonalizable(ham)
    _, vecs = np.linalg.eigh(hamiltonian_matrix(ham))
    return np.array(vecs[:, 0], dtype=complex)


@dataclass(frozen=True)
class GameParams:
    """Round mix and the energy window (alpha, beta); beta defaults to inf."""

    kappa: float
    alpha: float
    beta: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must lie in [0, 1]")
        # alpha is an energy of sum w_l P_l; the slack absorbs the rounding
        # of a computed ground energy at -1 or 1
        if not abs(self.alpha) <= 1.0 + 1e-9:
            raise ValueError("alpha must lie in [-1, 1]")
        if not self.beta > self.alpha:
            raise ValueError("the energy window needs beta > alpha")


@dataclass(frozen=True)
class Question:
    kind: str
    y: int
    a: tuple = None
    b: tuple = None
    x: int = None


@lru_cache(maxsize=256)
def _pair_law(terms: tuple) -> tuple:
    """The terms' weights, normalised to sum to one."""
    weights = np.array([t[3] for t in terms])
    return tuple((weights / weights.sum()).tolist())


def _weighted_pair(terms, rng):
    if len(terms) == 1:
        return terms[0]
    return terms[qsim.draw_index(_pair_law(terms), rng)]


def sample_question(ham: Hamiltonian, params: GameParams, rng) -> Question:
    """Draw a question: CHSH and commutation rounds split 1 - kappa evenly."""
    u = float(rng.random())
    if u < (1.0 - params.kappa) / 2.0:
        kind = "chsh"
    elif u < 1.0 - params.kappa:
        kind = "commutation"
    else:
        kind = "teleport"
    y = int(rng.integers(0, 2))
    if kind == "teleport":
        return Question("teleport", y)
    if not ham.x_terms:
        raise ValueError("correlation rounds need at least one X term")
    need = 1 if kind == "chsh" else 0
    for _ in range(REJECTION_LIMIT):
        a = tuple(rng.integers(0, 2, ham.num_qubits).tolist())
        _, i, j, _ = _weighted_pair(ham.x_terms, rng)
        if (a[i] ^ a[j]) == need:
            break
    else:
        raise RuntimeError(
            "no admissible question after %d rejections" % REJECTION_LIMIT
        )
    b = _indicator(i, j, ham.num_qubits)
    if kind == "chsh":
        return Question("chsh", y, a, b, int(rng.integers(0, 2)))
    return Question("commutation", y, a, b)


def verify(question: Question, answers, ham: Hamiltonian, rng) -> bool:
    """Referee predicate.  Teleport rounds sample a display term here."""
    s_a, s_b = answers
    s_a = tuple(int(t) for t in s_a)
    s_b = tuple(int(t) for t in s_b)
    lam = ham.num_qubits
    if len(s_b) != lam:
        raise ValueError("second answer must carry one bit per qubit")
    if question.kind in ("chsh", "commutation"):
        side = question.a if question.y == 0 else question.b
        z = gf2.dot(side, s_b)
        if question.kind == "chsh":
            if len(s_a) != 1:
                raise ValueError("CHSH answer is a single bit")
            return (s_a[0] ^ z) == (question.x & question.y)
        if len(s_a) != 2:
            raise ValueError("commutation answer is two bits")
        return s_a[question.y] == z
    if question.kind != "teleport":
        raise ValueError("unknown question kind %r" % question.kind)
    if len(s_a) != 2 * lam:
        raise ValueError("teleport answer is two bits per qubit")
    axis = "X" if float(rng.random()) < ham.x_weight else "Z"
    if axis != ("X" if question.y == 1 else "Z"):
        return True
    terms = ham.x_terms if axis == "X" else ham.z_terms
    _, i, j, _ = _weighted_pair(terms, rng)
    if axis == "Z":
        parity = s_b[i] ^ s_b[j] ^ s_a[i] ^ s_a[j]
    else:
        parity = s_b[i] ^ s_b[j] ^ s_a[lam + i] ^ s_a[lam + j]
    return parity == 1


def prepared_state(ham: Hamiltonian, prepare=None) -> qsim.DenseState:
    """Shared state: EPR pairs on [helper | prover] wires, then the data.

    Wire layout: the co-prover holds [0, n), the measuring prover holds
    [n, 2n), and the data register sits on [2n, 3n).  The data state comes
    from prepare(ham) when given, otherwise the exact ground state.
    """
    lam = ham.num_qubits
    vec = np.asarray(prepare(ham) if prepare else ground_state(ham),
                     dtype=complex)
    if vec.size != 1 << lam:
        raise ValueError("prepared register has the wrong dimension")
    epr = qsim.DenseState.from_bits((0,) * (2 * lam))
    for i in range(lam):
        epr = epr.apply("H", lam + i).apply("CNOT", lam + i, i)
    return epr.tensor(qsim.DenseState(vec))


# The direct walk's outcome laws, one table per base state; see
# _direct_answers.  A table is dropped with its base.
_DIRECT_LAWS = weakref.WeakKeyDictionary()


class _Step:
    """One measurement of the direct walk: its qsim law, and the
    post-state of each outcome drawn so far."""

    __slots__ = ("law", "posts")

    def __init__(self, law):
        self.law = law
        self.posts = {}

    def draw(self, rng):
        """An outcome from the law's draw, and the state after it."""
        outcome = self.law.draw(rng)
        post = self.posts.get(outcome)
        if post is None:
            post = self.posts[outcome] = self.law.branch(outcome)
        return outcome, post


def _cached_step(laws, key, make, *args):
    """The step at key, computed as make(*args) on its first use."""
    found = laws.get(key)
    if found is None:
        found = laws[key] = _Step(make(*args))
    return found


def _teleport_law(state, lam):
    """The law of the prover's first teleport readout, after its ladder."""
    for i in range(lam):
        state = state.apply("CNOT", 2 * lam + i, lam + i)
        state = state.apply("H", 2 * lam + i)
    return qsim.BasisLaw(state, list(range(lam, 2 * lam)), qsim.Basis.Z)


def _direct_answers(ham, question, base, rng):
    """The honest provers' answers, measured directly on base.

    Each draw is one rng.random() against a law that only base, the
    question fields and the outcomes drawn so far fix.  So the laws are
    kept in a table for base, keyed by those fields and outcomes: a law is
    computed by qsim.ObservableLaw or qsim.BasisLaw on its first use, and
    the state after an outcome is built when that outcome is first drawn
    (an outcome never drawn may have zero weight).  Draws go through the
    laws' own draw, so answers and the generator's state are those of the
    dense walk that measures a fresh copy every round, which
    tests/oracles.py keeps as dense_direct_answers.  The table is held
    under a weak reference to base and goes when base does.
    """
    laws = _DIRECT_LAWS.get(base)
    if laws is None:
        laws = _DIRECT_LAWS[base] = {}
    lam = ham.num_qubits
    alice = list(range(lam, 2 * lam))
    kind = question.kind
    if kind == "chsh":
        key = (kind, question.a, question.b, question.x)
        bit, state = _cached_step(
            laws, key, qsim.ObservableLaw, base,
            _chsh_observable(question.a, question.b, question.x),
            alice).draw(rng)
        key += (bit,)
        s_a = (bit,)
    elif kind == "commutation":
        key = (kind, question.a)
        za, state = _cached_step(laws, key, qsim.ObservableLaw, base,
                          pauli_string("Z", question.a), alice).draw(rng)
        key += (za, question.b)
        xb, state = _cached_step(laws, key, qsim.ObservableLaw, state,
                          pauli_string("X", question.b), alice).draw(rng)
        key += (xb,)
        s_a = (za, xb)
    else:
        key = (kind, lam)
        first = _cached_step(laws, key, _teleport_law, base, lam)
        xkeys, state = first.draw(rng)
        key += (xkeys,)
        second = _cached_step(laws, key, qsim.BasisLaw, state,
                       [2 * lam + i for i in range(lam)], qsim.Basis.Z)
        zkeys, state = second.draw(rng)
        key += (zkeys,)
        s_a = first.law.bits(xkeys) + second.law.bits(zkeys)
    basis = qsim.Basis.Z if question.y == 0 else qsim.Basis.X
    readout = _cached_step(laws, key + (question.y,), qsim.BasisLaw, state,
                    list(range(lam)), basis).law
    return s_a, readout.bits(readout.draw(rng))


# Clifford+T gate strings, applied left to right.  _RY_MINUS is the y-axis
# rotation by -pi/4 up to global phase; it maps Z to (Z + X)/sqrt(2) under
# conjugation.  _RY_PLUS is its inverse.
_RY_MINUS = ("PDG", "H", "TDG", "H", "P")
_RY_PLUS = ("PDG", "H", "T", "H", "P")


def _on(wire, names):
    return [(name, (wire,)) for name in names]


def _toffoli(c1, c2, t):
    """Doubly controlled X over the Clifford+T set (T-count seven)."""
    return [
        ("H", (t,)), ("CNOT", (c2, t)), ("TDG", (t,)), ("CNOT", (c1, t)),
        ("T", (t,)), ("CNOT", (c2, t)), ("TDG", (t,)), ("CNOT", (c1, t)),
        ("T", (c2,)), ("T", (t,)), ("H", (t,)), ("CNOT", (c1, c2)),
        ("T", (c1,)), ("TDG", (c2,)), ("CNOT", (c1, c2)),
    ]


def _controlled_h(c, t):
    return _on(t, _RY_PLUS) + [("CNOT", (c, t))] + _on(t, _RY_MINUS)


@lru_cache(maxsize=None)
def _collection_circuit(lam: int, kind: str):
    """Delegatable circuit for one question type.

    Wires [0, 3*lam) mirror prepared_state; answer parities are folded
    onto fresh ancillas by question-controlled Toffolis, so one circuit
    per kind serves every concrete question.  Returns the circuit, the
    wires carrying the answer, and the classical input width.
    """
    alice = lam
    data = 2 * lam
    if kind == "teleport":
        gates = []
        for i in range(lam):
            gates.append(("CNOT", (data + i, alice + i)))
            gates.append(("H", (data + i,)))
        wires = tuple(range(alice, alice + lam)) + tuple(range(data, data + lam))
        return delegation.Circuit(3 * lam, tuple(gates)), wires, 0
    e = 3 * lam
    f = 3 * lam + 1
    a0 = 3 * lam + 2
    b0 = a0 + lam
    gates = [("H", (f,))]
    for i in range(lam):
        gates += _toffoli(a0 + i, alice + i, e)
    for i in range(lam):
        gates += _toffoli(b0 + i, f, alice + i)
    if kind == "commutation":
        gates.append(("H", (f,)))
        return delegation.Circuit(b0 + lam, tuple(gates)), (e, f), 2 * lam
    if kind != "chsh":
        raise ValueError("unknown question kind %r" % kind)
    xw = b0 + lam
    gates.append(("CNOT", (e, f)))
    gates += _on(e, _RY_MINUS)
    gates += [("H", (e,)), ("CNOT", (xw, e)), ("H", (e,))]
    gates += _controlled_h(xw, e)
    return delegation.Circuit(xw + 1, tuple(gates)), (e,), 2 * lam + 1


def _delegated_answers(ham, question, state, rng):
    lam = ham.num_qubits
    circuit, answer_wires, input_width = _collection_circuit(
        lam, question.kind)
    if question.kind == "chsh":
        bits = question.a + question.b + (question.x,)
    elif question.kind == "commutation":
        bits = question.a + question.b
    else:
        bits = ()
    if input_width != len(bits):
        raise RuntimeError("question width mismatch")
    register = state
    if question.kind != "teleport":
        register = register.tensor(qsim.DenseState.from_bits((0, 0)))
    result = delegation.delegate_on_state(circuit, register, bits, rng)
    if any(result.frame.r[i] or result.frame.s[i] for i in range(lam)):
        raise RuntimeError("helper wires picked up pad keys")
    s_a = delegation.classical_output_round(result, rng, wires=answer_wires)
    basis = qsim.Basis.Z if question.y == 0 else qsim.Basis.X
    s_b = qsim.readout(result.state, list(range(lam)), basis, rng)
    return tuple(s_a), s_b


def honest_round(ham: Hamiltonian, params: GameParams, rng, delegated=False,
                 *, base):
    """Play one round honestly on the prepared state base; returns
    (question, answers, accept)."""
    question = sample_question(ham, params, rng)
    if delegated:
        answers = _delegated_answers(ham, question, base, rng)
    else:
        answers = _direct_answers(ham, question, base, rng)
    return question, answers, verify(question, answers, ham, rng)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return center - half / denom, center + half / denom


def estimate_value(ham: Hamiltonian, params: GameParams, rounds: int, rng,
                   delegated=False, prepare=None) -> dict:
    """Monte-Carlo acceptance estimate with a 95 percent Wilson interval."""
    if rounds < 1:
        raise ValueError("need at least one round")
    base = prepared_state(ham, prepare)
    accepted = 0
    for _ in range(rounds):
        _, _, ok = honest_round(ham, params, rng, delegated=delegated,
                                base=base)
        accepted += int(ok)
    low, high = wilson_interval(accepted, rounds)
    return {"rounds": rounds, "accepted": accepted,
            "value": accepted / rounds, "low": low, "high": high}


def teleport_rate(alpha: float) -> float:
    """Honest acceptance of a teleport round on a register of energy alpha.

    alpha is an eigenvalue (or expectation) of H = sum w_l P_l, so it lies
    in [-1, 1].  verify accepts a basis mismatch (probability one half)
    outright; on a match it displays a sampled term P_l and accepts with
    probability (1 - <P_l>)/2, which averages to (1 - alpha)/2.  The total
    is (3 - alpha)/4, in [1/2, 1].
    """
    return (3.0 - alpha) / 4.0


def physical_rate(params: GameParams) -> float:
    """Exact honest acceptance when the data register has energy alpha.

    This is the promised completeness rate.  alpha is an energy of
    H = sum w_l P_l, in [-1, 1].  CHSH and commutation rounds (probability
    1 - kappa, split evenly) are won at cos^2(pi/8) and 1; teleport rounds
    at teleport_rate(alpha).
    """
    kappa = params.kappa
    return (0.5 * (1.0 - kappa) * (1.0 + qsim.COS2_PI_8)
            + kappa * teleport_rate(params.alpha))

