"""Teleported gate gadgets driven by obliviously prepared qubits.

The sender picks which gate actually happens (a phase power, or whether a
CNOT fires at all); the receiver executes a fixed circuit on its own data
plus the prepared qubits and reports measurement bits.  The sender then
knows the Pauli correction keys while the receiver holds the corrected
state none the wiser.  Neither gadget puts its helpers on the dense
state: the readouts are uniform, so they are drawn directly, and what the
circuit leaves on the data is one operator on the data wires.  The phase
gadget is phase_readout: it returns its diagonal with the keys, and the
caller applies it to the target wire (delegation folds it into the T or
TDG it stands for).  The CNOT gadget applies its 4x4 block on the pair
itself.  Claw generation from switched CNOTs simulates no state at all:
csg_from_ecnot reads the receiver's branch pair off the client's keys.
All three closed forms are checked against their literal circuits in the
tests; the dense claw-generation circuit is the oracle in
tests/oracles.py.

Each uniform readout bit is int(rng.random() >= 0.5), the draw of
qsim.draw_index on p = [1/2, 1/2] written inline (its docstring shows why
the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import osp, qsim


def _prepared(b: int, rng, source):
    """One draw (s, H^b|s>) from source.  Both gadgets' keys are right only
    if the helper is the canonical H^b|s> for the bit s the source reported,
    so any other helper raises ValueError."""
    s, helper = source(b, rng)
    want = osp.PREPARED_STATES.get((b == 0, s))
    if helper is not want and helper != want:
        raise ValueError("source helper is not H^b|s> for the bit s it "
                         "reported")
    return s, helper


def phase_readout(b: int, rng, source=None):
    """The draws of the phase-power gadget, without touching any state.

    The prepared qubit H^b|s> is twisted into h = Z^s P^b |+>.  A CNOT
    from the data qubit into h and a uniform Z readout m of h would leave
    sqrt(2) diag(h[m], h[m^1]) on the data qubit.  m is drawn as in the
    module docstring.  Returns that diagonal, the Z key s ^ (m & b) and m.
    """
    if b not in (0, 1):
        raise ValueError("phase power must be 0 or 1")
    if source is None:
        source = osp.ideal_stub_source
    s, _ = _prepared(b, rng, source)
    m = int(rng.random() >= 0.5)
    z_key = s ^ (m & b)
    return phase_diagonal(b, z_key, m), z_key, m


@lru_cache(maxsize=8)
def phase_diagonal(b: int, z_key: int, m: int) -> np.ndarray:
    """The diagonal phase_readout returns with these keys, read-only."""
    s = z_key ^ (m & b)
    helper = qsim.apply_1q(qsim.apply_1q(osp.PREPARED_STATES[b == 0, s],
                                         "H"), "SQRTX")
    h = helper.densify().amplitudes
    diagonal = np.diag(np.sqrt(2) * h[[m, m ^ 1]])
    diagonal.flags.writeable = False
    return diagonal


# ---------------------------------------------------------- encrypted CNOT


@dataclass
class EcnotClient:
    """Client secrets for one switchable-CNOT gadget."""

    b: int
    t0: int
    t1: int


def ecnot_gen(b: int, rng, source=None):
    """Prepare the two helper qubits: H^b|t0> and H^{1-b}|t1>, each
    checked by _prepared."""
    if b not in (0, 1):
        raise ValueError("switch bit must be 0 or 1")
    if source is None:
        source = osp.ideal_stub_source
    t0, helper0 = _prepared(b, rng, source)
    t1, helper1 = _prepared(1 - b, rng, source)
    return EcnotClient(b, t0, t1), (helper0, helper1)


def ecnot_apply(state: qsim.DenseState, v0: int, v1: int, helpers, rng):
    """Server side: the teleported gate as one operator on [v0, v1].

    The circuit runs CNOTs v0 -> h1, h0 -> h1 and h0 -> v1, then reads
    helper 0 in the X basis (bit m0) and helper 1 in the Z basis (bit m1).
    With a0, a1 the helpers' amplitudes, that leaves on v1, for control
    value c on v0, the block

        B_c = sqrt(2) sum_a (-1)^(m0 a) a0[a] a1[m1 ^ c ^ a] X^a.

    When exactly one helper is a basis state and the other lies on the XY
    plane, as `ecnot_gen` makes them, diag(B_0, B_1) is unitary and every
    (m0, m1) has probability 1/4, so the bits are drawn uniformly (m0
    first, each as in the module docstring) and the operator is applied
    directly.  Any other pair raises ValueError.
    Returns the state and (m0, m1).
    """
    h0, h1 = helpers
    if h0.width != 1 or h1.width != 1 or h0.is_basis == h1.is_basis:
        raise ValueError("CNOT helpers must be one basis qubit and one "
                         "qubit on the XY plane")
    a0, a1 = h0.densify().amplitudes, h1.densify().amplitudes
    m0 = int(rng.random() >= 0.5)
    m1 = int(rng.random() >= 0.5)
    op = np.zeros((4, 4), dtype=complex)
    for c in (0, 1):  # B_c / sqrt(2) = w0 I + w1 X
        w0 = a0[0] * a1[m1 ^ c]
        w1 = (-1) ** m0 * a0[1] * a1[m1 ^ c ^ 1]
        op[2 * c:2 * c + 2, 2 * c:2 * c + 2] = [[w0, w1], [w1, w0]]
    return qsim.apply_gate(state, np.sqrt(2) * op, [v0, v1]), (m0, m1)


def ecnot_dec(b: int, t0: int, t1: int, m0: int, m1: int):
    """Pauli keys (x_keys, z_keys) ordered (control, target)."""
    if b == 0:
        return (0, t0), (t1, 0)
    return (0, m1 ^ t1), (m0 ^ t0, 0)


@dataclass
class EcnotResult:
    state: qsim.DenseState
    x_keys: tuple
    z_keys: tuple
    transcript: list = field(default_factory=list)


def ecnot_run(state: qsim.DenseState, v0: int, v1: int, b: int, rng,
              source=None) -> EcnotResult:
    """One full switchable-CNOT exchange: one message out, one back.

    Afterwards the server state equals X^{x} Z^{z} CNOT^b applied to the
    inputs, with the keys known only to the client.
    """
    client, helpers = ecnot_gen(b, rng, source)
    out_state, (m0, m1) = ecnot_apply(state, v0, v1, helpers, rng)
    x_keys, z_keys = ecnot_dec(client.b, client.t0, client.t1, m0, m1)
    return EcnotResult(out_state, x_keys, z_keys, _ecnot_transcript(m0, m1))


def _ecnot_transcript(m0: int, m1: int) -> list:
    transcript = []
    osp._msg(transcript, "client", "helper-qubits")
    osp._msg(transcript, "server", "cnot-outcomes", m0=m0, m1=m1)
    return transcript


# ------------------------------------------- claw states from switched CNOTs


def csg_from_ecnot(n: int, rng, source=None) -> osp.CsgOutcome:
    """Differentiated claw generation out of n switchable CNOTs.

    The client picks a nonzero difference vector and fires one gadget per
    output qubit from a shared |+> control.  Undoing nothing, the server
    ends in (|0,x0> + (-1)^z |1,x1>)/sqrt(2), whose claw and phase the
    client computes from its keys alone.  So the receiver's branch pair is
    read off the keys, with no state simulated: per target this makes
    ecnot_gen's two source draws and then ecnot_apply's draws of m0 and
    m1, as the literal circuit does (tests/oracles.py runs that circuit).
    """
    if n < 1:
        raise ValueError("need at least one target qubit")
    if n + 1 > qsim.MAX_DENSE_QUBITS:
        raise ValueError("claw width exceeds the dense simulation budget")
    delta = tuple(int(t) for t in rng.integers(0, 2, n))
    while not any(delta):
        delta = tuple(int(t) for t in rng.integers(0, 2, n))

    # ecnot_dec never keys an X on the control or a Z on a target, so the
    # control keeps branch 0 first and each target's X key is its x0 bit.
    x0 = []
    z = 0
    transcript = []
    for d in delta:
        client, _ = ecnot_gen(d, rng, source)
        m0 = int(rng.random() >= 0.5)
        m1 = int(rng.random() >= 0.5)
        (_, x_key), (z_key, _) = ecnot_dec(client.b, client.t0, client.t1,
                                           m0, m1)
        x0.append(x_key)
        z ^= z_key
        transcript.extend(_ecnot_transcript(m0, m1))

    x0 = tuple(x0)
    x1 = tuple(x ^ d for x, d in zip(x0, delta))
    receiver = qsim.TwoBranchState(n + 1, (0,) + x0, (1,) + x1,
                                   -1.0 if z else 1.0)
    return osp.CsgOutcome(x0, x1, z, receiver, transcript, differentiated=True)
