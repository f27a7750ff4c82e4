"""Release checklist: thirteen numbered end-to-end checks.

Each criterion function runs one verification at fixed statistical sizes
and tolerances and returns a CriterionResult; run_all prints one PASS or
FAIL line per criterion.  All randomness is derived from one fixed seed,
so the whole checklist is reproducible bit for bit.

The energy-game check (criterion 12) compares the measured acceptance
against cvqc.physical_rate, where alpha is the ground energy of the
normalised Hamiltonian sum w_l P_l and so lies in [-1, 1].
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats

from . import apps, cvqc, delegation, gadgets, gf2, harness, osp, qsim, tcf

ACCEPT_SEED = 0x05EED


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self) -> dict:
        return {"index": self.index, "name": self.name,
                "passed": self.passed, "detail": self.detail,
                "seconds": round(self.seconds, 3)}


def _rng(*labels):
    return harness.derive_rng(ACCEPT_SEED, *labels)


def _result(index, name, passed, detail, started) -> CriterionResult:
    return CriterionResult(index, name, bool(passed), detail,
                           time.perf_counter() - started)


# ----------------------------------------------------------- criteria 1 & 2


def criterion_1() -> CriterionResult:
    """Honest quantumness-test rate over 2*10^5 rounds, within 0.004."""
    started = time.perf_counter()
    trials = 200_000
    rate = apps.poq_rate(trials, _rng("c1"), None, 3)
    elapsed = time.perf_counter() - started
    gap = abs(rate - qsim.COS2_PI_8)
    passed = gap <= 0.004 and elapsed <= 60.0
    detail = ("rate=%.5f target=%.5f |gap|=%.5f time=%.1fs (cap 60s)"
              % (rate, qsim.COS2_PI_8, gap, elapsed))
    return _result(1, "quantumness-honest-rate", passed, detail, started)


def criterion_2() -> CriterionResult:
    """Basis-oblivious classical provers cap at 3/4; rewinding finds r."""
    started = time.perf_counter()
    rng = _rng("c2")
    branch = apps.poq_rate(100_000, rng, lambda: apps.ScriptedProver("branch"), 3)
    others = {rule: apps.poq_rate(20_000, rng,
                                  lambda r=rule: apps.ScriptedProver(r), 3)
              for rule in ("zero", "uniform")}
    ceiling_ok = branch <= 0.76 and all(v <= 0.76 for v in others.values())
    hits = 0
    for _ in range(100):
        out = apps.rewind_extract(apps.ScriptedProver("perfect"), rng, 3)
        hits += out.guess == out.truth
    passed = ceiling_ok and hits == 100
    detail = ("branch=%.4f zero=%.4f uniform=%.4f (cap 0.76); "
              "rewind %d/100" % (branch, others["zero"], others["uniform"],
                                 hits))
    return _result(2, "classical-prover-ceiling", passed, detail, started)


# ----------------------------------------------------- criterion 3: all paths


def _norm_ok(out) -> bool:
    """The target projection norm |<H^b s|state>| is 1 within 1e-9."""
    norm = math.sqrt(qsim.fidelity(out.receiver_state, out.target))
    return abs(norm - 1.0) <= 1e-9


def criterion_3() -> CriterionResult:
    """Every preparation path lands exactly on the target state.

    10^3 runs per path per basis bit; claw-starved runs abort at a rate
    matching (1-delta)^(lam/delta) where the density is fractional.
    """
    started = time.perf_counter()
    rng = _rng("c3")
    bad = []

    # Path 1: multi-round from the plain 2-to-1 family (density 1).
    for b in (0, 1):
        for _ in range(1000):
            pp, sp = tcf.gen("plain", 0, 4, 0, 1, int(rng.integers(0, 1 << 63)))
            claw = osp.differentiate(osp.csg_from_tcf(pp, sp, rng), rng)
            out = osp.osp_from_csg(claw, b, rng)
            if out.aborted or not _norm_ok(out):
                bad.append("multi-round b=%d" % b)

    # Same path through a density-1/2 view at lam=2: four tries per run,
    # so runs abort with probability (1/2)^4 = 1/16.
    lossy_aborts = 0
    for i in range(1000):
        b = i & 1
        pp, sp = tcf.gen("dual", 1, 3, 1, Fraction(1, 2),
                         int(rng.integers(0, 1 << 63)))
        csg = osp.csg_from_tcf(pp, sp, rng, lam=2)
        if csg.aborted:
            lossy_aborts += 1
            continue
        claw = osp.differentiate(csg, rng)
        out = osp.osp_from_csg(claw, b, rng)
        if out.aborted or not _norm_ok(out):
            bad.append("multi-round-lossy b=%d" % b)
    if not 24 <= lossy_aborts <= 101:  # Binomial(1000, 1/16) within 5 sigma
        bad.append("lossy abort count %d" % lossy_aborts)

    # Path 2: two-round from the dual-mode family (density 1, no aborts).
    for b in (0, 1):
        for _ in range(1000):
            out = osp.two_round_osp(b, rng, 3)
            if out.aborted or not _norm_ok(out):
                bad.append("two-round b=%d" % b)

    # Path 3: amplified two-round, lam=2 at density 1/2 (four instances).
    amp_aborts = {0: 0, 1: 0}
    for b in (0, 1):
        for _ in range(1000):
            out = osp.amplified_two_round_osp(b, 2, rng, 2, 1, Fraction(1, 2))
            if out.aborted:
                amp_aborts[b] += 1
            elif not _norm_ok(out):
                bad.append("amplified b=%d" % b)
    if amp_aborts[0] != 0:
        bad.append("amplified b=0 aborted %d times" % amp_aborts[0])
    if not 24 <= amp_aborts[1] <= 101:  # same 1/16 law as above
        bad.append("amplified abort count %d" % amp_aborts[1])

    # Path 4: halving-angle pipeline at epsilon=1/2 over the real two-round
    # source; sixteen states fuse pairwise, starving when under two survive.
    config = osp.EpsilonOspConfig(Fraction(1, 2), (16, 2))
    source = osp.tcf_two_round_source(2)
    eps_aborts = 0
    for b in (0, 1):
        for _ in range(1000):
            out = osp.epsilon_to_standard(config, b, rng, source)
            if out.aborted:
                eps_aborts += 1
            elif not _norm_ok(out):
                bad.append("epsilon b=%d" % b)
    if not 6 <= eps_aborts <= 130:  # Binomial(2000, 9/256) within 5 sigma
        bad.append("epsilon starvation count %d" % eps_aborts)

    detail = ("all norms 1 within 1e-9; aborts: lossy=%d/1000 "
              "amplified=%d/1000 epsilon-starved=%d/2000"
              % (lossy_aborts, amp_aborts[1], eps_aborts))
    if bad:
        detail = "; ".join(sorted(set(bad))) + " -- " + detail
    return _result(3, "preparation-paths-exact", not bad, detail, started)


def criterion_4() -> CriterionResult:
    """The receiver-side bit s is unbiased in both bases (10^4 runs each)."""
    started = time.perf_counter()
    rng = _rng("c4")
    pvals = {}
    for b in (0, 1):
        counts = [0, 0]
        for _ in range(10_000):
            out = osp.two_round_osp(b, rng, 3)
            counts[out.s] += 1
        pvals[b] = float(stats.chisquare(counts).pvalue)
    passed = all(p > 0.001 for p in pvals.values())
    detail = "chi-square p: b=0 %.4f, b=1 %.4f (floor 0.001)" % (
        pvals[0], pvals[1])
    return _result(4, "sender-bit-uniformity", passed, detail, started)


# ------------------------------------------- criterion 5: structured oracles


def _residual_fidelity(state: qsim.TwoBranchState, keep, d, residual) -> float:
    """Dense-projection check of one collapse outcome."""
    others = [i for i in range(state.width) if i != keep]
    vec = state.densify().amplitudes.reshape((2,) * state.width)
    proj = np.zeros(2, dtype=complex)
    for idx in range(1 << state.width):
        bits = gf2.int_to_bits(idx, state.width)
        amp = vec[bits]
        if abs(amp) < 1e-12:
            continue
        sign = (-1) ** gf2.dot(tuple(bits[i] for i in others), d)
        proj[bits[keep]] += amp * sign
    norm = np.linalg.norm(proj)
    if norm <= 1e-9:
        return 0.0
    return qsim.fidelity(qsim.DenseState(proj / norm), residual)


def criterion_5() -> CriterionResult:
    """Structured collapse equals dense measurement; affine support exact.

    The empirical distribution test compares 5*10^4 structured samples to
    the exact dense distribution.  At that sample count the expected
    statistical distance stays under the 0.02 budget for outcome spaces up
    to 2^6 cells, so the distribution clause runs on width-7 and width-8
    states whose support has 64 patterns; the residual-fidelity clause
    covers every width up to 12.
    """
    started = time.perf_counter()
    rng = _rng("c5")
    problems = []
    samples = 50_000

    # (a) branch-pair collapse, biased case: width 8, branches agreeing on
    # the kept wire, phase -1, so d ranges over the odd-parity half-space.
    u = (0, 1, 1, 0, 1, 0, 0, 1)
    v = (1, 0, 1, 0, 0, 1, 0, 1)
    state = qsim.TwoBranchState(8, u, v, -1)
    keep = 6  # u[6] == v[6]
    measured = [i for i in range(8) if i != keep]
    exact = qsim.BasisLaw(state.densify(), measured, qsim.Basis.X).probs
    counts = np.zeros(1 << 7)
    for _ in range(samples):
        d, _res = qsim.collapse_two_branch(state, keep, rng)
        counts[gf2.bits_to_int(d)] += 1
    tvd_a = 0.5 * float(np.abs(counts / samples - exact).sum())
    if tvd_a > 0.02:
        problems.append("branch-pair TVD %.4f" % tvd_a)

    # (b) branch-pair collapse, superposed case: width 7 with the kept wire
    # differing, so d is uniform over all 64 patterns and the residual
    # carries the phase.
    u2, v2 = (0, 1, 1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 1, 1)
    state2 = qsim.TwoBranchState(7, u2, v2, 1j)
    exact2 = qsim.BasisLaw(state2.densify(), [i for i in range(7) if i != 3],
                           qsim.Basis.X).probs
    counts2 = np.zeros(1 << 6)
    for _ in range(samples):
        d, _res = qsim.collapse_two_branch(state2, 3, rng)
        counts2[gf2.bits_to_int(d)] += 1
    tvd_b = 0.5 * float(np.abs(counts2 / samples - exact2).sum())
    if tvd_b > 0.02:
        problems.append("superposed TVD %.4f" % tvd_b)

    # (c) affine collapse: register width 6, coset dimension 2, so d is
    # uniform over a 16-element dual space and the branch bit follows the
    # shift difference.
    aff = qsim.AffineBranchState(
        6, ((1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1)),
        (0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0))
    dual_set = {0}
    for row in aff.dual:
        dual_set |= {a ^ row for a in dual_set}
    diff = gf2.xor_vec(aff.shift0, aff.shift1)
    aff_counts = {}
    for _ in range(samples):
        d, bit = qsim.collapse_affine(aff, rng)
        packed = gf2.bits_to_int(d)
        if packed not in dual_set or bit != gf2.dot(d, diff):
            problems.append("affine outcome off support")
            break
        aff_counts[packed] = aff_counts.get(packed, 0) + 1
    tvd_c = 0.5 * sum(abs(aff_counts.get(d, 0) / samples - 1 / len(dual_set))
                      for d in dual_set)
    if tvd_c > 0.02:
        problems.append("affine TVD %.4f" % tvd_c)

    # (d) residual states against the dense projection, widths 2..12.
    worst = 1.0
    for width in range(2, 13):
        for _ in range(3):
            u3 = tuple(int(t) for t in rng.integers(0, 2, width))
            v3 = tuple(int(t) for t in rng.integers(0, 2, width))
            phase = qsim.PHASE_GRID[int(rng.integers(0, 8))]
            st = qsim.TwoBranchState(width, u3, v3,
                                     phase if u3 != v3 else 1)
            kp = int(rng.integers(0, width))
            d, residual = qsim.collapse_two_branch(st, kp, rng)
            worst = min(worst, _residual_fidelity(st, kp, d, residual))
    if worst < 1 - 1e-9:
        problems.append("residual fidelity %.3e" % worst)

    # (e) amplified receiver: the affine state's support must equal the
    # exhaustive preimage scan at n=2 with two half-density instances.
    support_runs = 0
    for _ in range(60):
        pairs = [tcf.gen("dual", 1, 2, 1, Fraction(1, 2),
                         int(rng.integers(0, 1 << 62))) for _ in range(2)]
        pps = [p for p, _ in pairs]
        sps = [s for _, s in pairs]
        rec = osp.amplified_receiver(pps, sps, rng)
        if rec["state"] is None:
            continue
        support_runs += 1
        by_branch = {0: set(), 1: set()}
        for word in range(1 << 6):
            bits = gf2.int_to_bits(word, 6)
            c, x1, x2, r1 = bits[0], bits[1:3], bits[3:5], bits[5]
            ys = [tcf.eval(pps[0], r1, x1), tcf.eval(pps[1], c ^ r1, x2)]
            if ys == rec["ys"]:
                by_branch[c].add(x1 + x2 + (r1,))
        st = rec["state"]
        if (set(st.branch_support(0)) != by_branch[0]
                or set(st.branch_support(1)) != by_branch[1]):
            problems.append("affine support mismatch")
    if support_runs < 20:
        problems.append("only %d clawed support runs" % support_runs)

    passed = not problems
    detail = ("TVD=%.4f/%.4f/%.4f (cap 0.02), worst residual fidelity "
              "%.2e, %d support scans" % (tvd_a, tvd_b, tvd_c,
                                          1 - worst, support_runs))
    if problems:
        detail = "; ".join(sorted(set(problems))) + " -- " + detail
    return _result(5, "structured-vs-dense-oracle", passed, detail, started)


# ----------------------------------------------- criterion 6: gate gadgets


_SQ = 1 / math.sqrt(2)
_PROBE_VECS = (
    (1, 0), (0, 1), (_SQ, _SQ), (_SQ, -_SQ), (_SQ, _SQ * 1j), (_SQ, -_SQ * 1j),
)


def _probe_pair(i, j) -> qsim.DenseState:
    a = qsim.DenseState(np.array(_PROBE_VECS[i], dtype=complex))
    b = qsim.DenseState(np.array(_PROBE_VECS[j], dtype=complex))
    return a.tensor(b)


def _random_state(rng, qubits) -> qsim.DenseState:
    vec = rng.normal(size=1 << qubits) + 1j * rng.normal(size=1 << qubits)
    return qsim.DenseState(vec / np.linalg.norm(vec))


def criterion_6() -> CriterionResult:
    """Switchable-CNOT and phase gadgets hit gate^b exactly under the keys."""
    started = time.perf_counter()
    rng = _rng("c6")
    inputs = [_probe_pair(i, j) for i in range(6) for j in range(6)]
    inputs += [_random_state(rng, 2) for _ in range(100)]
    worst_cnot = worst_phase = 1.0
    table_ok = True
    for b in (0, 1):
        for inp in inputs:
            res = gadgets.ecnot_run(inp, 0, 1, b, rng)
            if res.x_keys[0] != 0 or res.z_keys[1] != 0:
                table_ok = False
            expected = qsim.apply_gate(inp, "CNOT", [0, 1]) if b else inp
            expected = delegation.apply_keys(expected, res.x_keys, res.z_keys)
            worst_cnot = min(worst_cnot, qsim.fidelity(res.state, expected))

            phase, z_key, _ = gadgets.phase_readout(b, rng)
            pstate = qsim.apply_gate(inp, phase, [0])
            pexp = qsim.apply_gate(inp, "P", [0]) if b else inp
            pexp = delegation.apply_keys(pexp, (0, 0), (z_key, 0))
            worst_phase = min(worst_phase, qsim.fidelity(pstate, pexp))
    passed = (worst_cnot >= 1 - 1e-9 and worst_phase >= 1 - 1e-9
              and table_ok)
    detail = ("%d inputs per power: cnot fidelity >= %.12f, phase >= %.12f, "
              "key table %s" % (len(inputs), worst_cnot, worst_phase,
                                "consistent" if table_ok else "BROKEN"))
    return _result(6, "gadget-identities", passed, detail, started)


# ------------------------------------------------ criterion 7: delegation


def _random_reversible(rng) -> delegation.Circuit:
    n = int(rng.integers(1, 5))
    gates = []
    for _ in range(int(rng.integers(1, 13))):
        if n >= 2 and rng.random() < 0.6:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
        else:
            gates.append(("X", (int(rng.integers(0, n)),)))
    return delegation.Circuit(n, tuple(gates))


def criterion_7() -> CriterionResult:
    """Padded delegation reproduces direct evaluation on random circuits."""
    started = time.perf_counter()
    rng = _rng("c7")
    worst = 1.0
    for _ in range(100):
        circuit = delegation.random_circuit(rng)
        bits = tuple(int(t) for t in rng.integers(0, 2, circuit.num_qubits))
        res = delegation.delegate(circuit, bits, rng)
        direct = delegation.apply_circuit(
            qsim.DenseState.from_bits(bits), circuit)
        worst = min(worst, qsim.fidelity(delegation.unpad_state(res), direct))
    classical_ok = True
    for _ in range(30):
        circuit = _random_reversible(rng)
        bits = tuple(int(t) for t in rng.integers(0, 2, circuit.num_qubits))
        res = delegation.delegate(circuit, bits, rng)
        if delegation.classical_output_round(res, rng) != \
                delegation.classical_eval(circuit, bits):
            classical_ok = False
    elapsed = time.perf_counter() - started
    passed = worst >= 1 - 1e-6 and classical_ok and elapsed <= 120.0
    detail = ("100 circuits, min fidelity %.9f; classical round %s; "
              "time=%.1fs (cap 120s)"
              % (worst, "exact" if classical_ok else "WRONG", elapsed))
    return _result(7, "blind-delegation", passed, detail, started)


# ------------------------------------------------- criteria 8 through 11


def criterion_8() -> CriterionResult:
    """Puzzle completeness at both calibration points.

    The statistical rate clauses run on the sampled-answer source, which
    draws each index from the same per-index success law the measured
    protocol obeys; a handful of full protocol-backed roundtrips confirm
    the pipeline itself on the side.
    """
    started = time.perf_counter()
    rng = _rng("c8")
    rates = {}
    for challenge in (0, 1):
        good = sum(
            apps.puzzle_roundtrip(1024, 0.82, challenge, rng,
                                  "ideal")["verdict"]
            for _ in range(100))
        rates[challenge] = good
    protocol_ok = all(
        apps.puzzle_roundtrip(1024, 0.82, challenge, rng, "tcf", 2)["verdict"]
        for challenge in (0, 1) for _ in range(3))
    big = 0
    for _ in range(20):
        ok0 = apps.puzzle_roundtrip(65536, 0.85, 0, rng, "ideal")["verdict"]
        ok1 = apps.puzzle_roundtrip(65536, 0.85, 1, rng, "ideal")["verdict"]
        big += ok0 and ok1
    passed = (rates[0] >= 99 and rates[1] >= 99 and big >= 19
              and protocol_ok)
    detail = ("lam=1024: %d/100 and %d/100 per challenge (floor 99); "
              "lam=65536: %d/20 both challenges (floor 19); measured "
              "pipeline %s" % (rates[0], rates[1], big,
                               "ok" if protocol_ok else "FAILED"))
    return _result(8, "puzzle-completeness", passed, detail, started)


def criterion_9() -> CriterionResult:
    """Random 8-qubit states open both ways with total probability under
    the cap.

    The true binding bound at lambda = 8 is 1 + 2^(-lambda/2) = 1.0625, and
    (|0^8> + H^8|0^8>)/norm reaches it.  This check draws 50 random states
    and holds each to the tighter cap 1 + 2^-8 + 1e-9, which random states
    stay far below; it does not show the bound for every state.
    """
    started = time.perf_counter()
    rng = _rng("c9")
    bound = 1 + 2.0 ** -8 + 1e-9
    worst = 0.0
    for _ in range(50):
        pr0, pr1 = apps.binding_probe(_random_state(rng, 8))
        worst = max(worst, pr0 + pr1)
    passed = worst <= bound
    detail = "50 states: max pr0+pr1 = %.6f, cap %.6f" % (worst, bound)
    return _result(9, "commitment-binding", passed, detail, started)


def criterion_10() -> CriterionResult:
    """Transfer delivers r_b every time; the zero-state cheat gets caught."""
    started = time.perf_counter()

    def session(config, *labels):
        """One in-process session's (receiver, sender) results."""
        seed = harness.derive_seed(ACCEPT_SEED, "c10", *labels)
        out = harness.run_local("ot", seed, config)
        return out["client"].outcome["result"], out["server"].outcome["result"]

    honest = {}
    for variant in ("search", "indistinguishability"):
        for b in (0, 1):
            good = 0
            for i in range(500):
                receiver, sender = session(
                    {"lam": 8, "b": b, "variant": variant}, variant, b, i)
                wanted = sender["r1"] if b else sender["r0"]
                good += (not sender["caught"]) and receiver["value"] == wanted
            honest[(variant, b)] = good
    cheat = {"lam": 32, "b": None, "variant": "search", "cheat": "zero-states"}
    caught = sum(session(cheat, "zero-states", i)[1]["caught"]
                 for i in range(100))
    passed = all(v == 500 for v in honest.values()) and caught >= 99
    detail = ("honest r_b: %s of 500 each; cheater caught %d/100 (floor 99)"
              % (sorted(honest.values()), caught))
    return _result(10, "oblivious-transfer", passed, detail, started)


def criterion_11() -> CriterionResult:
    """Bit encryption decrypts exactly; the carrier branch bit is unbiased."""
    started = time.perf_counter()
    rng = _rng("c11")
    good = 0
    branches = [0, 0]
    for i in range(2000):
        out = apps.pke_roundtrip(i & 1, rng)
        good += out["decrypted"] == out["message"]
        branches[out["ct"]["branch"]] += 1
    pval = float(stats.chisquare(branches).pvalue)
    passed = good == 2000 and pval > 0.001
    detail = ("%d/2000 roundtrips, branch counts %s, chi-square p=%.4f"
              % (good, branches, pval))
    return _result(11, "encryption-roundtrip", passed, detail, started)


# --------------------------------------------- criteria 12 & 13: game, wire


def criterion_12() -> CriterionResult:
    """Energy-game value, direct and delegated, on the two-qubit XX+ZZ test.

    alpha is the ground energy of H = (XX + ZZ)/2, an eigenvalue of
    sum w_l P_l in [-1, 1]; the benchmark credits teleport rounds with
    (3 - alpha)/4.  The direct run must match the benchmark and the
    delegated run the direct one, each within 0.01.
    """
    started = time.perf_counter()
    ham = cvqc.parse_hamiltonian("QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n")
    alpha = cvqc.min_eigenvalue(ham)
    params = cvqc.GameParams(0.2, alpha)
    direct = cvqc.estimate_value(ham, params, 100_000, _rng("c12", "direct"))
    bench = cvqc.physical_rate(params)
    clause_a = abs(direct["value"] - bench) <= 0.01
    delegated = cvqc.estimate_value(ham, params, 10_000,
                                    _rng("c12", "delegated"), delegated=True)
    clause_b = abs(delegated["value"] - direct["value"]) <= 0.01
    passed = clause_a and clause_b
    detail = ("direct=%.5f benchmark=%.5f (|gap|=%.5f vs 0.01: %s); "
              "delegated=%.5f (|gap|=%.5f vs 0.01: %s)"
              % (direct["value"], bench, abs(direct["value"] - bench),
                 "ok" if clause_a else "FAIL", delegated["value"],
                 abs(delegated["value"] - direct["value"]),
                 "ok" if clause_b else "FAIL"))
    return _result(12, "energy-game-completeness", passed, detail, started)


def _loopback_pair(protocol, seed, config):
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, protocol, seed, config,
                                         timeout=60.0)

    th = threading.Thread(target=serve)
    th.start()
    client = harness.connect_and_run(protocol, seed, "127.0.0.1", port,
                                     config, timeout=60.0)
    th.join()
    listener.close()
    return client, box["server"]


def criterion_13() -> CriterionResult:
    """Same seed, same bytes: loopback transcripts equal in-process ones."""
    started = time.perf_counter()
    checks = []
    for protocol, config in (("poq", {"rounds": 6, "n": 3}),
                             ("ot", {"lam": 6, "b": 1, "variant": "search"})):
        seed = harness.derive_seed(ACCEPT_SEED, "c13", protocol)
        local = harness.run_local(protocol, seed, config)
        client, server = _loopback_pair(protocol, seed, config)
        checks.append((protocol,
                       client.outcome["status"] == "complete"
                       and server.outcome["status"] == "complete"
                       and client.to_bytes() == local["client"].to_bytes()
                       and server.to_bytes() == local["server"].to_bytes()))
    passed = all(ok for _, ok in checks)
    detail = ", ".join("%s %s" % (proto, "byte-identical" if ok else "DIFFERS")
                       for proto, ok in checks)
    return _result(13, "transcript-determinism", passed, detail, started)


# ------------------------------------------------------------------ driver


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all(only=None):
    """Run the checklist (or one numbered entry), one report line each."""
    results = []
    for fn in CRITERIA:
        index = int(fn.__name__.rsplit("_", 1)[1])
        if only is not None and index != only:
            continue
        res = fn()
        results.append(res)
        print("%s %2d %-26s %s (%.1fs)"
              % ("PASS" if res.passed else "FAIL", res.index, res.name,
                 res.detail, res.seconds))
    if only is not None and not results:
        raise ValueError("no criterion numbered %r" % only)
    return results
