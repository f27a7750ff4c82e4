"""Claw-state generation and every oblivious state preparation path.

A sender holding a basis bit b talks to a receiver who ends up holding
H^b|s> for a bit s known only to the sender.  Four routes are implemented:

* multi-round: claw states from a 2-to-1 function, differentiated by a tag
  bit, then reduced to a single qubit by inner-product-and-measure;
* two-round: the dual-mode family evaluated in superposition, with the
  branch qubit kept and everything else measured away;
* amplified two-round: many fractional-delta instances XOR-chained so that
  a single surviving claw suffices;
* angle pipeline: repeated halving-angle states summed pairwise back up to
  the standard basis pair.

Structured states carry the whole protocol; dense simulation only appears
in tests as the oracle.  Every outcome names the state its receiver should
hold as ``target``, and a path is correct when qsim.fidelity of the two
is 1.  The delta-1 dual family that two_round_osp publishes is drawn by
_dual_family, which the quantumness test in apps shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import gf2, qsim, tcf


@dataclass
class CsgOutcome:
    """Sender's claw (x0, x1, z) plus the receiver's branch-pair state."""

    x0: tuple
    x1: tuple
    z: int
    receiver_state: qsim.TwoBranchState | None
    transcript: list = field(default_factory=list)
    aborted: bool = False
    differentiated: bool = False

    @property
    def target(self) -> qsim.TwoBranchState:
        """The claw state (|x0> + (-1)^z |x1>)/sqrt2, behind a tag wire
        reading 0 and 1 on the two branches once differentiated."""
        if self.x0 == self.x1:
            raise ValueError("a degenerate claw x0 = x1 has no claw state")
        u, v = self.x0, self.x1
        if self.differentiated:
            u, v = (0,) + u, (1,) + v
        return qsim.TwoBranchState(len(u), u, v, -1 if self.z else 1)


@dataclass
class OspOutcome:
    b: int
    s: int | None
    receiver_state: qsim.TwoBranchState | None
    transcript: list = field(default_factory=list)
    aborted: bool = False

    @property
    def target(self) -> qsim.TwoBranchState:
        """H^b|s>, the qubit an outcome that did not abort hands over."""
        return PREPARED_STATES[self.b == 0, self.s]


def _msg(transcript, role, kind, **payload):
    transcript.append({"role": role, "kind": kind, "payload": payload})


# --------------------------------------------------------------- claw states


def csg_from_tcf(pp, sp, rng, lam: int = 8) -> CsgOutcome:
    """Claw-state generation by repeated evaluate-and-measure.

    Works for the plain family over its n input bits, and for the dual
    lossy family over n+1 input bits: the branch bit followed by x, so a
    dual claw reads ((0,) + x0, (1,) + x1).  Retries until an image with
    a claw appears, at most ceil(lam/delta) times; an exhausted loop
    yields an aborted outcome with uniformly random placeholder strings.
    """
    if pp.mode == "disjoint":
        raise ValueError("family has no claws (disjoint mode)")
    dual = pp.mode != "plain"
    width = pp.n + dual
    rounds = math.ceil(Fraction(lam) / sp.delta_param)
    transcript = []
    _msg(transcript, "sender", "family-params", **pp.serialize())
    for _ in range(rounds):
        u = tuple(int(t) for t in rng.integers(0, 2, width))
        y = tcf.eval(pp, u[0], u[1:]) if dual else tcf.eval(pp, 0, u)
        _msg(transcript, "receiver", "image", y=gf2.bits_to_text(y))
        claw = tcf.claw_invert(sp, y)
        if claw is not None:
            x0, x1 = claw
            if dual:
                x0, x1 = (0,) + x0, (1,) + x1
            _msg(transcript, "sender", "verdict", accept=True)
            state = qsim.TwoBranchState(width, x0, x1, 1)
            return CsgOutcome(x0, x1, 0, state, transcript)
        _msg(transcript, "sender", "verdict", accept=False)
    x0 = tuple(int(t) for t in rng.integers(0, 2, width))
    x1 = tuple(int(t) for t in rng.integers(0, 2, width))
    _msg(transcript, "sender", "abort", placeholder=True)
    return CsgOutcome(x0, x1, 0, None, transcript, aborted=True)


def differentiate(outcome: CsgOutcome, rng) -> CsgOutcome:
    """Prepend a tag qubit that is 0 on the x0 branch and 1 on the x1 branch.

    The sender samples t with t.x0 = 0 and t.x1 = 1 and announces it; the
    receiver maps |x> to |t.x, x>.  If the 1-labelled member is the zero
    vector no such t exists, so the labels are swapped first (a pure
    relabelling of the same claw).
    """
    if outcome.aborted:
        raise ValueError("cannot differentiate an aborted claw outcome")
    x0, x1, z = outcome.x0, outcome.x1, outcome.z
    if x0 == x1:
        raise ValueError("degenerate claw x0 = x1 cannot be differentiated")
    if not any(x1):
        x0, x1 = x1, x0
    width = len(x0)
    t = gf2.sample_solution([(x0, 0), (x1, 1)], width, rng)
    if t is None:
        raise AssertionError("tag system unexpectedly unsolvable")
    transcript = list(outcome.transcript)
    _msg(transcript, "sender", "tag-vector", t=gf2.bits_to_text(t))
    state = qsim.TwoBranchState(
        width + 1, (0,) + x0, (1,) + x1, -1 if z else 1
    )
    return CsgOutcome(x0, x1, z, state, transcript, differentiated=True)


# ------------------------------------------------- multi-round OSP from CSG


def osp_from_csg(outcome: CsgOutcome, chosen_b, rng) -> OspOutcome:
    """Reduce a differentiated claw state to a single prepared qubit.

    outcome must be a differentiated CsgOutcome; an aborted one passes
    through as an aborted result.  The sender draws masks (r0, r1), the
    receiver appends the branch-dependent inner product bit and
    Hadamard-measures everything else; the sender's basis bit falls out
    as (x0, x1).(r0, r1).  With chosen_b set, the sender additionally
    announces c = chosen_b xor b and the receiver applies H^c.
    """
    if outcome.aborted:
        return OspOutcome(chosen_b, None, None, list(outcome.transcript), aborted=True)
    if not outcome.differentiated:
        raise ValueError("osp_from_csg needs the differentiated claw form")
    x0, x1, z = outcome.x0, outcome.x1, outcome.z
    n = len(x0)
    transcript = list(outcome.transcript)
    r0 = tuple(int(t) for t in rng.integers(0, 2, n))
    r1 = tuple(int(t) for t in rng.integers(0, 2, n))
    _msg(transcript, "sender", "masks", r0=gf2.bits_to_text(r0), r1=gf2.bits_to_text(r1))
    state = outcome.receiver_state
    big = qsim.TwoBranchState(
        n + 2,
        state.u + (gf2.dot(r0, x0),),
        state.v + (gf2.dot(r1, x1),),
        state.phase,
    )
    d, residual = qsim.collapse_two_branch(big, n + 1, rng)
    _msg(transcript, "receiver", "hadamard-results", d=gf2.bits_to_text(d))
    b = gf2.dot(x0, r0) ^ gf2.dot(x1, r1)
    if b == 0:
        s = gf2.dot(x0, r0)
    else:
        s = z ^ d[0] ^ gf2.dot(d[1:], gf2.xor_vec(x0, x1))
    if chosen_b is not None:
        c = chosen_b ^ b
        _msg(transcript, "sender", "basis-correction", c=c)
        if c:
            residual = qsim.apply_1q(residual, "H")
        b = chosen_b
    return OspOutcome(b, s, residual, transcript)


# ----------------------------------------------------------- two-round OSP


def two_round_receiver(pp, rng):
    """Receiver side of the two-round protocol, from public data only.

    Samples the evaluate-and-measure outcome (y, d) together with the kept
    branch qubit.  The post-measurement branch structure is read off the
    published function table by preimage scan, so no trapdoor is involved.
    """
    n = pp.n
    if pp.mode == "plain":
        raise ValueError("two-round receiver needs the dual-mode family")
    b_in = int(rng.integers(0, 2))
    x = rng.integers(0, 2, n).tolist()
    y = tcf.eval(pp, b_in, x)
    y_int = gf2.bits_to_int(y)
    # Each row holds distinct values, so an image has at most one
    # preimage per branch.
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


def _dual_family(mode: int, n: int, rng):
    """The delta-1 dual family in the given mode, from one fresh seed."""
    return tcf.gen("dual", mode, n, 0, 1, int(rng.integers(0, 1 << 63)))


def two_round_osp(b: int, rng, n: int = 4) -> OspOutcome:
    """Two-message preparation from the dual-mode family (delta = 1).

    The sender generates the family in mode b and publishes it; the
    receiver evaluates in superposition over (branch, x), reports the
    sampled image y and the Hadamard results d over the x register, and
    keeps the branch qubit.  Decoding reads s off the trapdoor.
    """
    pp, sp = _dual_family(b, n, rng)
    transcript = []
    _msg(transcript, "sender", "family-params", **pp.serialize())

    y, d, residual = two_round_receiver(pp, rng)
    _msg(
        transcript,
        "receiver",
        "evaluation",
        y=gf2.bits_to_text(y),
        d=gf2.bits_to_text(d),
    )

    s = two_round_decode(sp, b, y, d)
    if s is None:
        return OspOutcome(b, None, residual, transcript, aborted=True)
    return OspOutcome(b, s, residual, transcript)


def two_round_decode(sp, b: int, y, d):
    """Trapdoor decode of s from the receiver report; None means abort."""
    if b == 0:
        branches = tcf.partial_invert(sp, y)
        if len(branches) != 1:
            return None
        (s,) = branches
        return s
    return tcf.phase_invert(sp, y, d)


# ------------------------------------------------------ amplified two-round


def _amplified_toggles(sps, n: int, ell: int):
    """Claw toggle vectors over the measured registers (x blocks, r bits)."""
    width = n * ell + (ell - 1)
    toggles = []
    for i, sp in enumerate(sps):
        vec = [0] * width
        for j, bit in enumerate(sp.shift):
            vec[n * i + j] = bit
        if i < ell - 1:
            vec[n * ell + i] = 1
        toggles.append(tuple(vec))
    return toggles


def amplified_receiver(pps, sps, rng) -> dict:
    """Sample the receiver's side of the amplified protocol.

    Draws the hidden classical variables, computes the images, and builds
    the post-measurement affine branch state implied by the set of clawed
    indices.  Returns all internals; amplified_two_round_osp consumes them
    and the structural tests compare the state against brute force.
    """
    ell = len(pps)
    n = pps[0].n
    c = int(rng.integers(0, 2))
    xs = [tuple(int(t) for t in rng.integers(0, 2, n)) for _ in range(ell)]
    rs = [int(rng.integers(0, 2)) for _ in range(ell - 1)]
    r_last = c
    for r in rs:
        r_last ^= r
    branch_bits = rs + [r_last]
    ys = [tcf.eval(pps[i], branch_bits[i], xs[i]) for i in range(ell)]
    clawed = [i for i in range(ell) if tcf.claw_invert(sps[i], ys[i]) is not None]

    width = n * ell + (ell - 1)
    base = tuple(bit for x in xs for bit in x) + tuple(rs)
    toggles = _amplified_toggles(sps, n, ell)

    if not clawed:
        state = None
    else:
        i0 = clawed[0]
        basis = [gf2.xor_vec(toggles[i], toggles[i0]) for i in clawed[1:]]
        shift0 = gf2.xor_vec(base, toggles[i0]) if c else base
        shift1 = base if c else gf2.xor_vec(base, toggles[i0])
        state = qsim.AffineBranchState(width, tuple(basis), shift0, shift1)
    return {
        "c": c,
        "xs": xs,
        "branch_bits": branch_bits,
        "ys": ys,
        "clawed": clawed,
        "state": state,
        "width": width,
    }


def amplified_two_round_osp(b: int, lam: int, rng, n: int = 2, k: int = 1,
                            delta=Fraction(1, 2)) -> OspOutcome:
    """Two-round preparation from ell = ceil(lam/delta) fractional instances."""
    delta = Fraction(delta)
    ell = math.ceil(Fraction(lam) / delta)
    seeds = [int(rng.integers(0, 1 << 63)) for _ in range(ell)]
    pairs = [tcf.gen("dual", b, n, k, delta, sd) for sd in seeds]
    pps = [p for p, _ in pairs]
    sps = [s for _, s in pairs]
    transcript = []
    _msg(
        transcript,
        "sender",
        "family-params",
        instances=[pp.serialize() for pp in pps],
    )

    rec = amplified_receiver(pps, sps, rng)
    ell_minus = ell - 1
    if rec["state"] is None:
        d_full = tuple(int(t) for t in rng.integers(0, 2, rec["width"]))
        residual = qsim.basis_descriptor((rec["c"],))
    else:
        d_full, res_bit = qsim.collapse_affine(rec["state"], rng)
        residual = qsim.plane_descriptor(-1 if res_bit else 1)
    ds = [d_full[n * i : n * (i + 1)] for i in range(ell)]
    es = list(d_full[n * ell : n * ell + ell_minus]) + [0]
    _msg(
        transcript,
        "receiver",
        "evaluation",
        ys=[gf2.bits_to_text(y) for y in rec["ys"]],
        d=gf2.bits_to_text(d_full),
    )

    bits = [two_round_decode(sps[i], b, rec["ys"][i], ds[i]) for i in range(ell)]
    if b == 0:
        if None in bits:
            return OspOutcome(b, None, residual, transcript, aborted=True)
        s = 0
        for bit in bits:
            s ^= bit
        return OspOutcome(b, s, residual, transcript)
    # The first clawed instance (smallest index) decodes s: its phase bit
    # d_i.shift_i XOR the Hadamard outcome e_i on its chain bit r_i.
    for bit, e in zip(bits, es):
        if bit is not None:
            return OspOutcome(b, bit ^ e, residual, transcript)
    return OspOutcome(b, None, residual, transcript, aborted=True)


# ------------------------------------------------------------ OSP sources


# H^b|s> keyed by (b == 0, s): the only four states the stub hands out,
# and the only helpers gadgets.ecnot_gen accepts from any source.
PREPARED_STATES = {(b0, s): qsim.basis_descriptor((s,)) if b0
                   else qsim.plane_descriptor(-1 if s else 1)
                   for b0 in (True, False) for s in (0, 1)}


def ideal_stub_source(b: int, rng):
    """Hand the receiver H^b|s> directly; isolates downstream logic."""
    s = int(rng.integers(0, 2))
    return s, PREPARED_STATES[b == 0, s]


def tcf_two_round_source(n: int = 3):
    """Standard OSP source backed by the real two-round protocol."""

    def source(b, rng):
        out = two_round_osp(b, rng, n=n)
        if out.aborted:
            raise AssertionError("delta-1 two-round run aborted")
        return out.s, out.receiver_state
    return source


# ------------------------------------------------------------ angle pipeline


@dataclass(frozen=True)
class EpsilonOspConfig:
    epsilon: Fraction
    layer_budget: tuple

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not 0 < eps <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        d = eps.denominator
        if d & (d - 1):
            raise ValueError(
                "epsilon must have a power-of-two denominator; "
                "even/odd ratios are out of scope"
            )
        layers = d.bit_length() - 1
        budget = tuple(int(v) for v in self.layer_budget)
        if len(budget) != layers + 1:
            raise ValueError("layer_budget must list %d counts" % (layers + 1))
        if any(v < 1 for v in budget):
            raise ValueError("layer budgets must be positive")
        object.__setattr__(self, "layer_budget", budget)

    @classmethod
    def standard(cls, epsilon, lam: int) -> "EpsilonOspConfig":
        eps = Fraction(epsilon)
        layers = eps.denominator.bit_length() - 1
        budget = tuple(lam * 8 ** (layers - j) for j in range(layers + 1))
        return cls(eps, budget)

    @property
    def layers(self) -> int:
        return self.epsilon.denominator.bit_length() - 1


def combine_angles(first: qsim.TwoBranchState, second: qsim.TwoBranchState, rng):
    """Fuse two XY-plane qubits: CNOT first->second, measure the second.

    Success (outcome 0, probability exactly 1/2) leaves the first qubit at
    the summed angle with XORed phase bits; failure leaves the difference
    angle.  Returns (success flag, surviving descriptor).
    """
    for d in (first, second):
        if d.width != 1 or d.is_basis:
            raise ValueError("combine_angles needs XY-plane descriptors")
    # (|1> + p|0>)/sqrt2 is (|0> + conj(p)|1>)/sqrt2 up to a global phase.
    a, b = (d.phase if d.u == (0,) else d.phase.conjugate()
            for d in (first, second))
    success = int(rng.integers(0, 2)) == 0
    return success, qsim.plane_descriptor(a * b if success
                                          else a * b.conjugate())


def epsilon_source_from_standard(standard_source, epsilon):
    """Receiver-side rotation of a standard source to the epsilon angle.

    The rotation choice uses the sender-known basis bit, which is fine for
    the correctness pipeline (the test fixture does not claim obliviousness).
    """
    epsilon = Fraction(epsilon)
    if epsilon.denominator > 2:
        raise ValueError(
            "source angles below pi/4 leave the structured phase grid"
        )
    twist = complex(
        math.cos(math.pi * epsilon / 2), math.sin(math.pi * epsilon / 2)
    )

    def source(b, rng):
        s, descr = standard_source(b, rng)
        if b == 0:
            return s, qsim.apply_1q(descr, "H")
        return s, qsim.plane_descriptor(descr.phase * twist)
    return source


def epsilon_to_standard(config: EpsilonOspConfig, b: int, rng,
                        standard_source=None) -> OspOutcome:
    """Run the layered angle-summation pipeline down to H^b|s>.

    Starts from layer_budget[0] epsilon-angle states, combines consecutive
    pairs per layer keeping the successes, and aborts on starvation (fewer
    survivors than the layer budget).  The surviving pi/2-angle qubit is
    rotated back onto the standard basis pair.
    """
    if standard_source is None:
        standard_source = ideal_stub_source
    transcript = []
    _msg(
        transcript,
        "sender",
        "epsilon-config",
        epsilon="%d/%d" % (config.epsilon.numerator, config.epsilon.denominator),
        layer_budget=list(config.layer_budget),
    )
    if config.epsilon == 1:
        s, descr = standard_source(b, rng)
        _msg(transcript, "receiver", "passthrough", layers=0)
        return OspOutcome(b, s, descr, transcript)

    source = epsilon_source_from_standard(standard_source, config.epsilon)
    live = []
    for _ in range(config.layer_budget[0]):
        s, descr = source(b, rng)
        live.append((s, descr))
    for layer in range(config.layers):
        survivors = []
        pattern = []
        for i in range(0, len(live) - 1, 2):
            s1, d1 = live[i]
            s2, d2 = live[i + 1]
            ok, merged = combine_angles(d1, d2, rng)
            pattern.append(int(ok))
            if ok:
                survivors.append((s1 ^ s2, merged))
        _msg(transcript, "receiver", "combine-layer", layer=layer,
             successes=sum(pattern), of=len(pattern))
        needed = config.layer_budget[layer + 1]
        if len(survivors) < needed:
            _msg(transcript, "receiver", "starved", layer=layer)
            return OspOutcome(b, None, None, transcript, aborted=True)
        live = survivors[:needed]
    # Angles doubled once per layer, landing on (numerator * pi) / 2.
    c = config.epsilon.numerator
    s_acc, final = live[0]
    if b == 1 and c % 4 == 3:
        s_acc ^= 1
    for gate in ("SQRTX", "X", "H"):
        final = qsim.apply_1q(final, gate)
    return OspOutcome(b, s_acc, final, transcript)
