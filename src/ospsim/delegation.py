"""Blind delegation of Clifford-plus-T circuits over one-time Pauli pads.

The client hides its input under a random X pad and tracks how the pad
propagates through the circuit, in one pass over the gates.  Clifford
gates update the pad keys by simple rules.  A T or TDG gate leaves a
phase-gate correction whose power equals the current X key, which the
client fixes up remotely with one draw of the teleported phase gadget.
On a dense wire the gate and the gadget's diagonal act together as one
diagonal; on a bit wire the phase is global and nothing is applied.  The
server only ever sees padded bits and uniformly random measurement
outcomes.

No draw depends on the state, so the pass does not apply the dense
gates one by one.  It multiplies each into one pending operator on at
most three dense wires, and applies that operator to the state only when
the next gate would take it past three wires, and once at the end.  Each
gate's operator, embedded in the pending wires, is memoised by gate, its
positions among those wires and their number.  tests/oracles.py keeps
the gate-by-gate pass as the oracle.

A run may start from an existing register, which fills the leading wires;
the classical input fills the trailing ones.  Those input wires are kept
as bits, never as amplitudes, when every gate touching them keeps them
basis states: X, the phase gates Z/P/PDG/T/TDG, a CNOT between two of
them, or a CNOT they control.  Otherwise they join the dense state before
the first gate.  A DelegationResult therefore holds a dense state over
the leading wires and the padded bits of the rest; unpad_state joins the
two into the full output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gadgets, osp, qsim

CLIFFORD_GATES = ("H", "X", "Z", "P", "PDG", "CNOT")
NON_CLIFFORD_GATES = ("T", "TDG")
TWO_QUBIT_GATES = ("CNOT",)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        checked = []
        for name, qubits in self.gates:
            name = name.upper()
            qubits = tuple(int(q) for q in qubits)
            if name not in CLIFFORD_GATES + NON_CLIFFORD_GATES:
                raise ValueError("unsupported gate %r" % name)
            want = 2 if name in TWO_QUBIT_GATES else 1
            if len(qubits) != want:
                raise ValueError("%s takes %d qubit(s)" % (name, want))
            if len(set(qubits)) != len(qubits):
                raise ValueError("%s qubits must be distinct" % name)
            if any(not 0 <= q < self.num_qubits for q in qubits):
                raise ValueError("qubit index out of range in %s" % name)
            checked.append((name, qubits))
        object.__setattr__(self, "gates", tuple(checked))

    @property
    def t_count(self) -> int:
        return sum(1 for name, _ in self.gates if name in NON_CLIFFORD_GATES)


def read_line_format(text: str, item: str):
    """Split a QUBITS-headed line file into (num_qubits, [(lineno, fields)]).

    Circuit and Hamiltonian files share this shape: '#' starts a comment,
    and one QUBITS n header precedes every item line.
    """
    num_qubits = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0].upper() == "QUBITS":
            if num_qubits is not None:
                raise ValueError("line %d: duplicate QUBITS header" % lineno)
            if len(parts) != 2:
                raise ValueError("line %d: QUBITS takes one count" % lineno)
            num_qubits = int(parts[1])
        elif num_qubits is None:
            raise ValueError("line %d: %s before QUBITS header"
                             % (lineno, item))
        else:
            rows.append((lineno, parts))
    if num_qubits is None:
        raise ValueError("missing QUBITS header")
    return num_qubits, rows


def parse_circuit(text: str) -> Circuit:
    """Read the line format: a QUBITS header, then one gate per line."""
    num_qubits, rows = read_line_format(text, "gate")
    gates = [(parts[0], tuple(int(p) for p in parts[1:])) for _, parts in rows]
    return Circuit(num_qubits, tuple(gates))


def apply_circuit(state: qsim.DenseState, circuit: Circuit) -> qsim.DenseState:
    """Reference execution: apply every gate directly."""
    for name, qubits in circuit.gates:
        state = qsim.apply_gate(state, name, qubits)
    return state


def classical_eval(circuit: Circuit, bits) -> tuple:
    """Evaluate a measurement-stable circuit on a bit string.

    Every gate must keep its wires basis states (see _BIT_GATES); H has
    no classical meaning here.
    """
    out = [int(b) for b in bits]
    if len(out) != circuit.num_qubits:
        raise ValueError("input width mismatch")
    if not _stays_classical(circuit, 0):
        raise ValueError("circuit has no classical evaluation")
    for name, qubits in circuit.gates:
        _gate(name, qubits, 0, out)
    return tuple(out)


class PauliFrame:
    """Client-side X and Z pad keys, one pair per qubit."""

    def __init__(self, r, s):
        self.r = [int(b) for b in r]
        self.s = [int(b) for b in s]
        if len(self.r) != len(self.s):
            raise ValueError("key vectors must have equal length")

    def apply_clifford(self, name, qubits):
        name = name.upper()
        if name == "H":
            q = qubits[0]
            self.r[q], self.s[q] = self.s[q], self.r[q]
        elif name in ("P", "PDG"):
            q = qubits[0]
            self.s[q] ^= self.r[q]
        elif name == "CNOT":
            c, t = qubits
            self.r[t] ^= self.r[c]
            self.s[c] ^= self.s[t]
        elif name in ("X", "Z"):
            pass
        else:
            raise ValueError("%s is not a tracked Clifford gate" % name)


@dataclass
class DelegationResult:
    """state covers the dense wires [0, k); bits the classical ones [k, n)."""

    circuit: Circuit
    state: qsim.DenseState
    frame: PauliFrame
    transcript: list = field(default_factory=list)
    bits: tuple = ()


# Gates that keep a basis-state wire a basis state.  Phase gates only add
# a global phase there, which is dropped.
_BIT_GATES = ("X", "Z", "P", "PDG", "T", "TDG", "CNOT")


@lru_cache(maxsize=256)
def _stays_classical(circuit: Circuit, split: int) -> bool:
    """Whether every gate keeps the wires at or above split basis states.

    Memoised: a circuit is frozen, and the energy game delegates the same
    few circuits every round.
    """
    for name, qubits in circuit.gates:
        if all(q < split for q in qubits):
            continue
        if all(q >= split for q in qubits):
            if name not in _BIT_GATES:
                return False
        elif name != "CNOT" or qubits[0] < split:
            return False
    return True


def _gate(name, qubits, split, bits):
    """One Clifford gate on dense wires below split and bits above it.

    Updates the bits in place.  Returns the gate it leaves on the dense
    wires as (name, qubits), or None.
    """
    if all(q < split for q in qubits):
        return name, qubits
    if name == "X":
        bits[qubits[0] - split] ^= 1
    elif name == "CNOT":
        c, t = qubits
        if t >= split:
            bits[t - split] ^= bits[c - split]
        elif bits[c - split]:
            return "X", (t,)
    return None


# The most dense wires one pending operator covers: an 8x8 product per
# gate costs far less than a pass over the amplitudes.
_FUSE_WIRES = 3

# Embedded gate operators by (gate key, positions, width).  A gate key is
# a gate name, or (name, b, z_key, m) for T and TDG: the gadget's diagonal
# is fixed by b and its draws, and (z_key, m) fixes them.  Within three
# wires, 21 one-wire gate keys each take 6 (positions, width) pairs and
# CNOT takes 8, so the memo holds at most 134 matrices of at most 8x8.
_EMBEDDED = {}


class _Fused:
    """The dense state and one pending operator on the wires listed in
    wires, in that order, the first as the most significant bit."""

    __slots__ = ("state", "wires", "op")

    def __init__(self, state: qsim.DenseState):
        self.state, self.wires, self.op = state, (), None

    def add(self, key, qubits, diagonal=None):
        """Multiply one gate into the pending operator.

        key names the gate as in _EMBEDDED; diagonal is the phase
        gadget's, for T and TDG.  Applies the pending operator first if
        the gate would take it past _FUSE_WIRES wires.
        """
        wires = self.wires
        new = [q for q in qubits if q not in wires]
        if len(wires) + len(new) > _FUSE_WIRES:
            self.flush()
            wires, new = (), qubits
        if new:
            wires = self.wires = wires + tuple(new)
            if self.op is not None:  # kron(op, I) for the new trailing wires
                eye = np.eye(1 << len(new))[:, None, :]
                dim = 1 << len(wires)
                self.op = (self.op[:, None, :, None] * eye).reshape(dim, dim)
        width = len(wires)
        positions = tuple(map(wires.index, qubits))
        op = _EMBEDDED.get((key, positions, width))
        if op is None:
            mat = qsim.GATES[key] if diagonal is None else (
                diagonal @ qsim.GATES[key[0]])
            op = _embed(mat, positions, width)
            _EMBEDDED[key, positions, width] = op
        self.op = op if self.op is None else op @ self.op

    def flush(self) -> qsim.DenseState:
        """Apply the pending operator, if any, and return the state."""
        if self.op is not None:
            self.state = qsim.apply_gate(self.state, self.op, self.wires)
            self.wires, self.op = (), None
        return self.state


def _embed(mat, positions, width) -> np.ndarray:
    """mat on the listed positions of width wires, as a 2^width square
    matrix: mat applied to each column of the identity."""
    order, inverse = qsim._wire_perms(width, positions)
    dim = 1 << width
    cube = (2,) * width + (dim,)
    cols = np.eye(dim, dtype=complex).reshape(cube).transpose(order + (width,))
    out = (mat @ cols.reshape(1 << len(positions), -1)).reshape(cube)
    op = out.transpose(inverse + (width,)).reshape(dim, dim)
    op.flags.writeable = False
    return op


def delegate(circuit: Circuit, input_bits, rng, source=None,
             pad_override=None) -> DelegationResult:
    """Run the padded delegation protocol on a classical input.

    pad_override fixes the input pad instead of sampling it, which lets
    tests couple two runs into identical server views.
    """
    return delegate_on_state(circuit, qsim.DenseState.from_bits(()),
                             input_bits, rng, source, pad_override)


def delegate_on_state(circuit: Circuit, state: qsim.DenseState, input_bits,
                      rng, source=None, pad_override=None) -> DelegationResult:
    """Delegate a circuit whose leading wires hold an existing register.

    The quantum register enters with zero pad keys; only the trailing
    classical wires are hidden under a fresh X pad.  Wires the circuit
    never touches keep zero keys throughout, so their reduced state needs
    no correction afterwards.  The classical wires are kept as bits or put
    on the dense state as the module docstring says; both ways draw the
    same randomness and give the same result up to a global phase.
    """
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
        pad = tuple(int(t) for t in pad_override)
        if len(pad) != len(bits):
            raise ValueError("pad width mismatch")

    frame = PauliFrame([0] * k + list(pad), [0] * n)
    padded = [b ^ p for b, p in zip(bits, pad)]
    transcript = []
    osp._msg(transcript, "client", "padded-input", bits=list(padded),
             register=k)
    split = k
    if not _stays_classical(circuit, k):
        state = state.tensor(qsim.DenseState.from_bits(padded))
        split, padded = n, []

    fused = _Fused(state)
    for name, qubits in circuit.gates:
        if name not in NON_CLIFFORD_GATES:
            dense = _gate(name, qubits, split, padded)
            if dense is not None:
                fused.add(*dense)
            frame.apply_clifford(name, qubits)
            continue
        # T is TDG then P.  TDG, the gadget's diagonal D and P all act on q
        # as diagonals, so P D TDG = D T; a phase on a bit is global.
        q = qubits[0]
        b = frame.r[q]
        phase, z_key, m = gadgets.phase_readout(b, rng, source)
        if q < split:
            fused.add((name, b, z_key, m), qubits, phase)
        frame.s[q] ^= z_key
        if name == "T":
            frame.apply_clifford("P", qubits)
        osp._msg(transcript, "server", "phase-outcome", m=m)
    return DelegationResult(circuit, fused.flush(), frame, transcript,
                            tuple(padded))


def unpad_state(result: DelegationResult) -> qsim.DenseState:
    """Strip the Pauli pad, recovering the true circuit output.

    The classical wires join the dense state here, so the output covers
    every wire of the circuit.
    """
    state = result.state
    if result.bits:
        state = state.tensor(qsim.DenseState.from_bits(result.bits))
    return apply_keys(state, result.frame.r, result.frame.s)


def apply_keys(state: qsim.DenseState, x_keys, z_keys) -> qsim.DenseState:
    """Z on each wire whose z key is set, then X on each whose x key is;
    a Pauli one-time pad keyed so is undone by the same call."""
    for q, bit in enumerate(z_keys):
        if bit:
            state = qsim.apply_gate(state, "Z", [q])
    for q, bit in enumerate(x_keys):
        if bit:
            state = qsim.apply_gate(state, "X", [q])
    return state


def classical_output_round(result: DelegationResult, rng, wires=None) -> tuple:
    """Server reads out the named wires; client strips their X pads.

    With wires=None every wire is read out.  Dense wires are measured and
    the post-measurement state is kept on the result so the remaining
    wires stay usable; classical wires are read off their bits, which
    draws no randomness.
    """
    if wires is None:
        qubits = list(range(result.circuit.num_qubits))
    else:
        qubits = [int(q) for q in wires]
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate readout wire")
    if any(not 0 <= q < result.circuit.num_qubits for q in qubits):
        raise ValueError("readout wire out of range")
    split = result.state.num_qubits
    dense = [q for q in qubits if q < split]
    read = {}
    if dense:
        raw, result.state = qsim.measure(result.state, dense, qsim.Basis.Z, rng)
        read = dict(zip(dense, raw))
    raw = [read[q] if q < split else result.bits[q - split] for q in qubits]
    osp._msg(result.transcript, "server", "readout", wires=qubits, bits=raw)
    return tuple(b ^ result.frame.r[q] for b, q in zip(raw, qubits))


def random_circuit(rng, max_qubits: int = 4, max_gates: int = 24,
                   max_t: int = 12) -> Circuit:
    """Random Clifford-plus-T circuit within the given budget."""
    n = int(rng.integers(1, max_qubits + 1))
    count = int(rng.integers(1, max_gates + 1))
    pool = list(CLIFFORD_GATES + NON_CLIFFORD_GATES)
    gates = []
    t_used = 0
    for _ in range(count):
        name = pool[int(rng.integers(0, len(pool)))]
        if name in NON_CLIFFORD_GATES:
            if t_used >= max_t:
                name = "H"
            else:
                t_used += 1
        if name == "CNOT":
            if n < 2:
                name = "X"
            else:
                c, t = rng.choice(n, size=2, replace=False)
                gates.append((name, (int(c), int(t))))
                continue
        gates.append((name, (int(rng.integers(0, n)),)))
    return Circuit(n, tuple(gates))
