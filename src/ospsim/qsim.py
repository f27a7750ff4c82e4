"""Exact simulation of small qubit registers.

Dense state vectors are the ground truth representation.  Two structured
representations cover the protocol-critical special cases without paying the
exponential cost: an equal superposition of two basis strings, and an affine
coset pair hanging off a single branch qubit.  Structured collapse rules are
checked against dense simulation in the test-suite; the dense path is the
oracle, the structured path is what the protocols run on.

Conventions
-----------
* Qubit 0 is the leftmost ket symbol; bit strings read MSB first, so the
  amplitude index of |b_0 b_1 ... b_{n-1}> is int(bits, 2).
* States are value objects.  Operations return new states.
* Dense states refuse to exceed 20 qubits; from_bits and uniform refuse
  before they allocate any amplitude.  Only _block and _unblock know
  how amplitudes are laid out by wire; gates and measurements all go
  through them, and _block rejects negative, out-of-range and
  repeated wires.  The axis permutation for each (register width, wire
  list) is computed and checked once and then cached.
* A dense measurement is a law and a post-state.  BasisLaw and
  ObservableLaw compute the outcome law of a state; their draw takes an
  outcome from one rng.random(), and their branch builds the state after
  a given outcome.  measure, readout and measure_observable are those
  three steps in a row (readout skips the branch), so a caller that
  keeps a law and its branches draws exactly what those functions draw.
* There is one outcome sampler, draw_index: it draws the index
  Generator.choice would draw, from the same one double.  BasisLaw draws
  through it; ObservableLaw's two outcomes are the comparison
  rng.random() < p_plus.
* fidelity of two TwoBranchStates is a closed form over their supports
  and phases; it builds no dense state.  It is also how a preparation
  outcome is checked against the target state the outcome names.
* Named gates on a one-qubit descriptor are memoised: there are 18 such
  descriptors, so apply_1q computes each (descriptor, gate name) pair
  through a dense state once.
* Structured phases live on the 8th roots of unity.  Anything richer must be
  densified first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import gf2

MAX_DENSE_QUBITS = 20
ATOL = 1e-9

_SQ2 = math.sqrt(0.5)

GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "P": np.array([[1, 0], [0, 1j]], dtype=complex),
    "PDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    # The root of X that sends |0> to |+i> and |1> to |-i|.  The other root
    # flips the Y orientation and breaks the phase-teleportation bookkeeping
    # downstream, so the choice is load-bearing.
    "SQRTX": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

# Eighth roots of unity, the only phases structured states may carry.  The
# four cardinal roots are exact literals so phase comparisons stay clean.
_HALF_ROOT = math.sqrt(0.5)
PHASE_GRID = (
    complex(1),
    complex(_HALF_ROOT, _HALF_ROOT),
    1j,
    complex(-_HALF_ROOT, _HALF_ROOT),
    complex(-1),
    complex(-_HALF_ROOT, -_HALF_ROOT),
    -1j,
    complex(_HALF_ROOT, -_HALF_ROOT),
)
_PHASE_NAMES = ("1", "e^{ipi/4}", "i", "e^{i3pi/4}",
                "-1", "e^{-i3pi/4}", "-i", "e^{-ipi/4}")


# The chance that the X+Z (or X-Z) basis reads H^r|s> as s xor r*a: the
# honest rate of the quantumness test and of a CHSH round.
COS2_PI_8 = math.cos(math.pi / 8) ** 2


class Basis(str, Enum):
    """Single-qubit measurement bases."""

    Z = "Z"
    X = "X"
    Y = "Y"
    XPLUSZ = "X+Z"
    XMINUSZ = "X-Z"


_ROTATION_CACHE = {}


def _basis_rotation(basis) -> np.ndarray:
    """Unitary sending the basis eigenvectors to |0>, |1>."""
    basis = Basis(basis)
    cached = _ROTATION_CACHE.get(basis)
    if cached is not None:
        return cached
    if basis == Basis.Z:
        rot = np.eye(2, dtype=complex)
    elif basis == Basis.X:
        rot = GATES["H"]
    elif basis == Basis.Y:
        rot = np.array([[1, -1j], [1, 1j]], dtype=complex) * _SQ2
    else:
        theta = math.pi / 8 if basis == Basis.XPLUSZ else -math.pi / 8
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, s], [-s, c]], dtype=complex)
    rot.flags.writeable = False
    _ROTATION_CACHE[basis] = rot
    return rot


def phase_index(value: complex) -> int:
    """Index on PHASE_GRID of the 8th root of unity within 1e-7, or raise."""
    for k, p in enumerate(PHASE_GRID):
        if abs(value - p) <= 1e-7:
            return k
    raise ValueError("phase %r is not an 8th root of unity" % (value,))


_BITS = frozenset({0, 1})


def _check_bits(bits, width):
    bits = tuple(map(int, bits))
    if len(bits) != width:
        raise ValueError("expected %d bits, got %d" % (width, len(bits)))
    if not _BITS.issuperset(bits):
        raise ValueError("bits must be 0/1")
    return bits


def _check_width(n: int):
    """Refuse a dense state of more than MAX_DENSE_QUBITS qubits."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError("dense state of %d qubits exceeds the %d-qubit limit"
                         % (n, MAX_DENSE_QUBITS))


class DenseState:
    """Immutable dense state vector over num_qubits qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __init__(self, amplitudes):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(vec.size).bit_length() - 1
        if 1 << n != vec.size:
            raise ValueError("amplitude vector length must be a power of two")
        _check_width(n)
        # np.linalg.norm's own sum for a complex vector, without its dispatch.
        re, im = vec.real, vec.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
            raise ValueError("state vector is not normalized (norm %g)" % norm)
        vec = vec / norm
        vec.flags.writeable = False
        self.num_qubits = n
        self.amplitudes = vec

    @classmethod
    def from_bits(cls, bits) -> "DenseState":
        bits = tuple(int(b) for b in bits)
        _check_width(len(bits))
        vec = np.zeros(1 << len(bits), dtype=complex)
        vec[gf2.bits_to_int(bits)] = 1.0
        return cls(vec)

    @classmethod
    def uniform(cls, num_qubits: int) -> "DenseState":
        _check_width(num_qubits)
        vec = np.full(1 << num_qubits, 2 ** (-num_qubits / 2), dtype=complex)
        return cls(vec)

    def tensor(self, other: "DenseState") -> "DenseState":
        return DenseState(np.kron(self.amplitudes, other.amplitudes))

    def apply(self, gate, *qubits) -> "DenseState":
        return apply_gate(self, gate, qubits)

    def __repr__(self):
        return "DenseState(%d qubits)" % self.num_qubits


@lru_cache(maxsize=4096)
def _wire_perms(n: int, wires: tuple):
    """Check wires against n qubits; axis orders to and from wires-first.

    The first order moves the listed wires to the front, in their listed
    order, and keeps the other wires in order behind them; the second
    undoes it.
    """
    if len(set(wires)) != len(wires):
        raise ValueError("duplicate wire in %r" % (wires,))
    if any(not 0 <= q < n for q in wires):
        raise ValueError("wire out of range for %d qubits in %r" % (n, wires))
    order = wires + tuple(q for q in range(n) if q not in wires)
    inverse = [0] * n
    for axis, q in enumerate(order):
        inverse[q] = axis
    return order, tuple(inverse)


def _block(state: DenseState, wires):
    """Check the wires and view the amplitudes as a (2^k, rest) block.

    Row i holds the amplitudes whose listed wires read the bits of i, the
    first listed wire as the most significant bit; the other wires keep
    their order along each row.  Returns the checked wires and the block.
    """
    wires = tuple(int(q) for q in wires)
    n = state.num_qubits
    order = _wire_perms(n, wires)[0]
    arr = state.amplitudes.reshape((2,) * n).transpose(order)
    return wires, arr.reshape(1 << len(wires), -1)


def _unblock(block: np.ndarray, wires) -> DenseState:
    """The state whose _block over the same wires is block."""
    n = block.size.bit_length() - 1
    arr = block.reshape((2,) * n).transpose(_wire_perms(n, wires)[1])
    return DenseState(arr.reshape(-1))


def _operator(mat, wires) -> np.ndarray:
    """mat as a complex array, checked to act on exactly the listed wires."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (1 << len(wires),) * 2:
        raise ValueError("operator shape %s does not fit %d wires"
                         % (mat.shape, len(wires)))
    return mat


def apply_gate(state: DenseState, gate, qubits) -> DenseState:
    """Apply a named gate or explicit unitary to the listed qubits."""
    mat = GATES.get(gate.upper()) if isinstance(gate, str) else gate
    if mat is None:
        raise ValueError("unknown gate %r" % gate)
    wires, block = _block(state, qubits)
    return _unblock(_operator(mat, wires) @ block, wires)


def _rotate_rows(block: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Apply the one-qubit rot to each wire that indexes the block rows."""
    rows = block.shape[0]
    for j in range(rows.bit_length() - 1):
        block = (rot @ block.reshape(1 << j, 2, -1)).reshape(rows, -1)
    return block


def draw_index(p, rng) -> int:
    """Index i drawn with probability p[i] from one rng.random().

    This is the arithmetic of Generator.choice(len(p), p=p): the running
    sums of p, in order, are the cdf; each is divided by the last; the
    index is the number of cdf entries at or below one double u.  So the
    index, and the generator's state after it, are those choice gives, at
    a fraction of its cost.  p is a sequence of floats that are
    nonnegative and sum to about one; it is not validated.

    The uniform bit int(rng.random() >= 0.5) is the case p = [1/2, 1/2]:
    its cdf is [0.5, 1.0] and u < 1, so the index is 1 exactly when
    u >= 0.5.  Code that draws such a bit writes that comparison inline.
    """
    cdf = list(accumulate(p))
    total = cdf[-1]
    u = rng.random()
    return sum(c / total <= u for c in cdf)


class BasisLaw:
    """The outcome law of measuring the listed wires in one basis.

    probs lists the normalised probability of each outcome, the first
    listed wire as the most significant bit; draw takes an outcome from
    one rng.random() through draw_index, and branch builds the
    post-measurement state of an outcome.
    """

    __slots__ = ("wires", "basis", "block", "probs")

    def __init__(self, state: DenseState, qubits, basis):
        wires, block = _block(state, qubits)
        if basis != Basis.Z:
            block = _rotate_rows(block, _basis_rotation(basis))
        probs = (np.abs(block) ** 2).sum(axis=1)
        self.wires, self.basis, self.block = wires, basis, block
        self.probs = (probs / probs.sum()).tolist()

    def draw(self, rng) -> int:
        return draw_index(self.probs, rng)

    def bits(self, outcome: int) -> tuple:
        return gf2.int_to_bits(outcome, len(self.wires))

    def branch(self, outcome: int) -> DenseState:
        """The state after outcome, collapsed wires in its basis eigenvector."""
        post = np.zeros_like(self.block)
        post[outcome] = self.block[outcome] / math.sqrt(self.probs[outcome])
        if self.basis != Basis.Z:
            post = _rotate_rows(post, _basis_rotation(self.basis).conj().T)
        return _unblock(post, self.wires)


def measure(state: DenseState, qubits, basis, rng):
    """Projectively measure each listed qubit in the given basis.

    Returns (outcome bits, post-measurement DenseState).  The collapsed
    qubits are left in the corresponding basis eigenvector.
    """
    law = BasisLaw(state, qubits, basis)
    outcome = law.draw(rng)
    return law.bits(outcome), law.branch(outcome)


def readout(state: DenseState, qubits, basis, rng) -> tuple:
    """The outcome bits of measure, from the same draw, with no post-state."""
    law = BasisLaw(state, qubits, basis)
    return law.bits(law.draw(rng))


class ObservableLaw:
    """The two-outcome law of an involution on the listed wires.

    p_plus is the weight of outcome +1, reported as bit 0; draw compares
    one rng.random() with it, and branch builds the post-measurement
    state of a bit.
    """

    __slots__ = ("wires", "block", "plus", "p_plus")

    def __init__(self, state: DenseState, observable, wires):
        self.wires, self.block = _block(state, wires)
        self.plus = 0.5 * (self.block
                           + _operator(observable, self.wires) @ self.block)
        self.p_plus = float(np.vdot(self.plus, self.plus).real)

    def draw(self, rng) -> int:
        return 0 if rng.random() < self.p_plus else 1

    def branch(self, bit: int) -> DenseState:
        chosen = (self.plus if bit == 0 else self.block - self.plus).reshape(-1)
        # np.linalg.norm's own sum for a complex array, without its dispatch.
        re, im = chosen.real, chosen.imag
        return _unblock(chosen / math.sqrt(re.dot(re) + im.dot(im)),
                        self.wires)


def measure_observable(state: DenseState, observable, wires, rng):
    """Two-outcome measurement of an involution on the listed wires.

    Returns (bit, post-measurement DenseState); bit 0 means outcome +1.
    """
    law = ObservableLaw(state, observable, wires)
    bit = law.draw(rng)
    return bit, law.branch(bit)


@dataclass(frozen=True)
class TwoBranchState:
    """(|u> + phase |v>)/sqrt(2), or |u> when the branches coincide."""

    width: int
    u: tuple
    v: tuple
    phase: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "u", _check_bits(self.u, self.width))
        object.__setattr__(self, "v", _check_bits(self.v, self.width))
        if self.u == self.v:
            object.__setattr__(self, "phase", 1.0 + 0j)
        else:
            object.__setattr__(self, "phase", PHASE_GRID[phase_index(complex(self.phase))])

    @property
    def is_basis(self) -> bool:
        return self.u == self.v

    def densify(self) -> DenseState:
        vec = np.zeros(1 << self.width, dtype=complex)
        if self.is_basis:
            vec[gf2.bits_to_int(self.u)] = 1.0
        else:
            vec[gf2.bits_to_int(self.u)] = _SQ2
            vec[gf2.bits_to_int(self.v)] += self.phase * _SQ2
        return DenseState(vec)

    def __repr__(self):
        if self.is_basis:
            return "TwoBranchState(|%s>)" % "".join(map(str, self.u))
        return "TwoBranchState((|%s> + (%s)|%s>)/sqrt2)" % (
            "".join(map(str, self.u)),
            _PHASE_NAMES[phase_index(self.phase)],
            "".join(map(str, self.v)),
        )


def basis_descriptor(bits) -> TwoBranchState:
    bits = tuple(int(b) for b in bits)
    return TwoBranchState(len(bits), bits, bits)


def plane_descriptor(phase) -> TwoBranchState:
    """Single-qubit (|0> + phase|1>)/sqrt(2), one shared instance per phase."""
    return _PLANES[phase_index(complex(phase))]


_PLANES = tuple(TwoBranchState(1, (0,), (1,), p) for p in PHASE_GRID)


@dataclass(frozen=True)
class AffineBranchState:
    """(|0>|shift0 + A> + |1>|shift1 + A>)/norm over 1 + width qubits.

    A is the span of basis rows; the branch qubit comes first.  Dependent
    basis rows are normalized away on construction.
    """

    width: int
    basis: tuple
    shift0: tuple
    shift1: tuple

    def __post_init__(self):
        rows = [_check_bits(r, self.width) for r in self.basis]
        packed = gf2.row_reduce([gf2.bits_to_int(r) for r in rows], self.width)
        norm_rows = tuple(gf2.int_to_bits(p, self.width) for p in packed)
        object.__setattr__(self, "basis", norm_rows)
        object.__setattr__(self, "shift0", _check_bits(self.shift0, self.width))
        object.__setattr__(self, "shift1", _check_bits(self.shift1, self.width))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def span(self):
        """All 2^dim elements of A, in index order of coefficient vectors."""
        out = []
        for coeffs in range(1 << self.dimension):
            acc = (0,) * self.width
            for i, row in enumerate(self.basis):
                if (coeffs >> (self.dimension - 1 - i)) & 1:
                    acc = gf2.xor_vec(acc, row)
            out.append(acc)
        return out

    def branch_support(self, branch: int):
        shift = self.shift1 if branch else self.shift0
        return sorted(gf2.xor_vec(shift, a) for a in self.span())

    def densify(self) -> DenseState:
        vec = np.zeros(1 << (self.width + 1), dtype=complex)
        amp = 1.0 / math.sqrt(2 * (1 << self.dimension))
        for branch in (0, 1):
            for bits in self.branch_support(branch):
                vec[(branch << self.width) | gf2.bits_to_int(bits)] += amp
        return DenseState(vec)


def densify(state) -> DenseState:
    if isinstance(state, DenseState):
        return state
    return state.densify()


def collapse_two_branch(state: TwoBranchState, keep: int, rng):
    """Hadamard-measure every qubit except `keep`.

    Returns (outcome bits d over the measured qubits in order, residual
    single-qubit TwoBranchState).  Exact sampling from the structured form;
    equivalent to densify + measure, which the tests check.
    """
    if state.width < 2:
        raise ValueError("collapse needs at least one qubit besides keep")
    if not 0 <= keep < state.width:
        raise ValueError("keep index out of range")
    others = [i for i in range(state.width) if i != keep]
    u_rest = tuple(state.u[i] for i in others)
    v_rest = tuple(state.v[i] for i in others)
    diff = gf2.xor_vec(u_rest, v_rest)
    w = len(others)

    if state.is_basis:
        d = tuple(int(rng.integers(0, 2)) for _ in range(w))
        return d, basis_descriptor((state.u[keep],))

    if state.u[keep] == state.v[keep]:
        # Branches agree on the kept qubit: it comes out classical and the
        # measured pattern is biased by |1 + phase*(-1)^{d.diff}|^2.
        w_even = abs(1 + state.phase) ** 2
        w_odd = abs(1 - state.phase) ** 2
        if w_even <= ATOL:
            parity = 1
        elif w_odd <= ATOL:
            parity = 0
        else:
            parity = int(rng.random() < w_odd / (w_even + w_odd))
        d = gf2.sample_solution([(diff, parity)], w, rng)
        if d is None:  # diff == 0 with parity 1 cannot happen for u != v
            raise AssertionError("unsatisfiable collapse constraint")
        return d, basis_descriptor((state.u[keep],))

    # Branches differ on the kept qubit: every d is equally likely and the
    # kept qubit keeps a (possibly phase-twisted) superposition.
    d = tuple(int(rng.integers(0, 2)) for _ in range(w))
    q = state.phase * (-1) ** gf2.dot(d, diff)
    if state.u[keep] == 0:
        residual = plane_descriptor(q)
    else:
        residual = plane_descriptor(1 / q)
    return d, residual


def collapse_affine(state: AffineBranchState, rng):
    """Hadamard-measure the width-register of an affine branch pair.

    Returns (outcome bits d, residual phase bit).  The residual branch qubit
    is Z^bit |+>.
    """
    dual = gf2.nullspace(state.basis, state.width)
    if dual:
        d = gf2.sample_span(dual, rng)
    else:
        d = (0,) * state.width
    bit = gf2.dot(d, gf2.xor_vec(state.shift0, state.shift1))
    return d, bit


def _branch_amplitudes(state: TwoBranchState) -> dict:
    """The nonzero amplitudes of a branch pair, by basis string."""
    if state.is_basis:
        return {state.u: 1.0}
    return {state.u: _SQ2, state.v: state.phase * _SQ2}


def fidelity(a, b) -> float:
    """|<a|b>|^2 for pure states (global-phase invariant).

    Two TwoBranchStates take a closed form over their supports, with no
    dense state; the tests pin it against the densified overlap.
    """
    if isinstance(a, TwoBranchState) and isinstance(b, TwoBranchState):
        if a.width != b.width:
            raise ValueError("state sizes differ")
        left = _branch_amplitudes(a)
        inner = sum(left[x].conjugate() * amp
                    for x, amp in _branch_amplitudes(b).items() if x in left)
        return float(abs(inner) ** 2)
    va = densify(a).amplitudes
    vb = densify(b).amplitudes
    if va.size != vb.size:
        raise ValueError("state sizes differ")
    return float(abs(np.vdot(va, vb)) ** 2)


def dense_to_two_branch(state: DenseState) -> TwoBranchState:
    """Recognize a dense state as a TwoBranchState; error if it is not one."""
    vec = state.amplitudes
    hot = np.flatnonzero(np.abs(vec) > 1e-7)
    if hot.size == 1:
        return basis_descriptor(gf2.int_to_bits(int(hot[0]), state.num_qubits))
    if hot.size == 2:
        a, b = (int(h) for h in hot)
        amp_a, amp_b = vec[a], vec[b]
        if abs(abs(amp_a) - _SQ2) > 1e-7 or abs(abs(amp_b) - _SQ2) > 1e-7:
            raise ValueError("branch weights are not 1/2")
        return TwoBranchState(
            state.num_qubits,
            gf2.int_to_bits(a, state.num_qubits),
            gf2.int_to_bits(b, state.num_qubits),
            amp_b / amp_a,
        )
    raise ValueError("state has %d-point support, not a branch pair" % hot.size)


@lru_cache(maxsize=256)  # 18 one-qubit descriptors times 8 gate names
def _apply_named_1q(descriptor: TwoBranchState, name: str) -> TwoBranchState:
    vec = GATES[name] @ descriptor.densify().amplitudes
    # Normalize global phase so the first significant amplitude is positive.
    ref = vec[0] if abs(vec[0]) > 1e-7 else vec[1]
    vec = vec * (abs(ref) / ref)
    return dense_to_two_branch(DenseState(vec))


def apply_1q(descriptor: TwoBranchState, gate: str) -> TwoBranchState:
    """Apply a named single-qubit gate to a 1-qubit descriptor exactly."""
    if descriptor.width != 1:
        raise ValueError("descriptor must be a single qubit")
    return _apply_named_1q(descriptor, gate.upper())


def measure_descriptor(descriptor: TwoBranchState, basis, rng) -> int:
    """Measure a 1-qubit descriptor in the given basis, returning the bit."""
    if descriptor.width != 1:
        raise ValueError("descriptor must be a single qubit")
    amps = [0j, 0j]
    if descriptor.is_basis:
        amps[descriptor.u[0]] = 1.0
    else:
        amps[descriptor.u[0]] = _SQ2
        amps[descriptor.v[0]] += descriptor.phase * _SQ2
    rot = _basis_rotation(basis)
    p1 = float(abs(rot[1, 0] * amps[0] + rot[1, 1] * amps[1]) ** 2)
    return int(rng.random() < p1)
