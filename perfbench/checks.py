"""Output checks, computed apart from the program under test.

Expected rates come from closed forms, and the energy alpha from a
Hamiltonian matrix built here with numpy Kronecker products, so a fault in
ospsim's own rate or eigenvalue code cannot hide a fault in its rounds.
"""

from __future__ import annotations

import hashlib
import math
from functools import reduce

import numpy as np

HONEST_POQ = math.cos(math.pi / 8) ** 2
SIGMAS = 5.0

_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def ground_energy(num_qubits: int, terms) -> float:
    """Lowest eigenvalue of sum w * P_i P_j over (axis, i, j, w) terms."""
    dim = 1 << num_qubits
    total = np.zeros((dim, dim))
    for axis, i, j, weight in terms:
        factors = [_PAULI[axis] if q in (i, j) else _PAULI["I"]
                   for q in range(num_qubits)]
        total += weight * reduce(np.kron, factors)
    return float(np.linalg.eigvalsh(total)[0])


def energy_game_rate(kappa: float, alpha: float) -> float:
    """Honest win rate: (1-kappa)(1+cos^2(pi/8))/2 + kappa(3-alpha)/4."""
    return ((1.0 - kappa) * (1.0 + HONEST_POQ) / 2.0
            + kappa * (3.0 - alpha) / 4.0)


def rate_within(successes: int, trials: int, p: float,
                sigmas: float = SIGMAS) -> bool:
    """True when successes/trials lies within `sigmas` binomial deviations
    of p, widened by half a count for the discreteness of the estimate."""
    if trials < 1:
        return False
    slack = sigmas * math.sqrt(p * (1.0 - p) / trials) + 0.5 / trials
    return abs(successes / trials - p) <= slack


def poq_round_ok(rnd) -> bool:
    """The verifier's accept flag equals b == s xor (r and a)."""
    return bool(rnd.accept) == (rnd.answer == (rnd.s ^ (rnd.r & rnd.challenge)))


def sha256_hex(data: bytes) -> str:
    """Digest by which the wire checks compare transcripts across processes."""
    return hashlib.sha256(data).hexdigest()


def ot_value_ok(receiver: dict, sender: dict) -> bool:
    """An honest receiver ends with the sender's r_b and is not caught."""
    if receiver["caught"] or sender["caught"]:
        return False
    chosen = sender["r1"] if receiver["b"] else sender["r0"]
    return _plain(receiver["value"]) == _plain(chosen)


def _plain(value):
    """Tuples and lists compare equal once both have crossed JSON."""
    if isinstance(value, (tuple, list)):
        return [int(v) for v in value]
    return int(value)
